"""Plaintext table model and CSV serialization.

A schema is an ordered list of at most ``MAX_COLUMNS`` (column name, bit
width) pairs, each width in 1..``MAX_WIDTH``. Cell values are unsigned
ints that must fit their column width. The CSV dialect is deliberately
small: header cells are ``name:width``, data cells are unsigned decimals,
no quoting or escapes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from hequel.errors import DuplicateColumn, ParseError, UnknownColumn, ValueOverflow

# widest column a schema holds: an aggregate over an empty table mints one
# ciphertext per bit of its column, so a forged upload of a few bytes could
# otherwise make the server build a word of any width
MAX_WIDTH = 64
# most columns a schema holds, so a row word is at most
# MAX_COLUMNS * MAX_WIDTH + 1 bits; a cross past it fails its typecheck
MAX_COLUMNS = 64


@dataclass(frozen=True)
class Schema:
    columns: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if len(self.columns) > MAX_COLUMNS:
            raise ValueOverflow(f"schema has {len(self.columns)} columns, "
                                f"at most {MAX_COLUMNS} allowed")
        names = [name for name, _ in self.columns]
        for name in names:
            if names.count(name) > 1:
                raise DuplicateColumn(f"column {name!r} appears more than once")
        for name, width in self.columns:
            if not 1 <= width <= MAX_WIDTH:
                raise ValueOverflow(
                    f"column {name!r} has width {width}, not in 1..{MAX_WIDTH}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    def index_of(self, name: str) -> int:
        for i, (col, _) in enumerate(self.columns):
            if col == name:
                return i
        raise UnknownColumn(f"no column {name!r} in schema {self.names}")

    def width_of(self, name: str) -> int:
        return self.columns[self.index_of(name)][1]

    def project(self, names: tuple[str, ...]) -> "Schema":
        seen = set()
        for name in names:
            if name in seen:
                raise DuplicateColumn(f"column {name!r} projected twice")
            seen.add(name)
        return Schema(tuple((n, self.width_of(n)) for n in names))


@dataclass
class PlainTable:
    schema: Schema
    rows: list[tuple[int, ...]] = field(default_factory=list)

    def __post_init__(self):
        for row in self.rows:
            self.check_row(row)

    def check_row(self, row: tuple[int, ...]):
        """Raise ValueOverflow unless ``row`` holds one value per column,
        each fitting its column's width."""
        if len(row) != len(self.schema.columns):
            raise ValueOverflow(
                f"row has {len(row)} cells, schema has {len(self.schema.columns)}")
        for value, (name, width) in zip(row, self.schema.columns):
            if not 0 <= value < (1 << width):
                raise ValueOverflow(
                    f"{value} does not fit column {name!r} of width {width}")

    def append(self, row: tuple[int, ...]):
        self.check_row(row)
        self.rows.append(row)


def _parse_header_cell(cell: str, position: int,
                       default_width: int | None = None) -> tuple[str, int]:
    name, sep, width_text = cell.partition(":")
    name = name.strip()
    if not name:
        raise ParseError(f"header cell {cell!r} is not 'name:width'", position)
    if not sep:
        if default_width is None:
            raise ParseError(f"header cell {cell!r} is not 'name:width'", position)
        return name, default_width
    try:
        width = int(width_text.strip())
    except ValueError:
        raise ParseError(f"bad width in header cell {cell!r}", position) from None
    return name, width


def read_csv(path: str, default_width: int | None = None) -> PlainTable:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty CSV file", 0) from None
        schema = Schema(tuple(
            _parse_header_cell(cell, i, default_width)
            for i, cell in enumerate(header)))
        table = PlainTable(schema)
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(schema.columns):
                raise ParseError(
                    f"line {lineno}: expected {len(schema.columns)} cells, "
                    f"got {len(cells)}", lineno)
            try:
                row = tuple(int(cell.strip()) for cell in cells)
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer cell", lineno) from None
            table.append(row)
    return table


def csv_text(table: PlainTable) -> str:
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(f"{name}:{width}" for name, width in table.schema.columns)
    writer.writerows(table.rows)
    return out.getvalue()
