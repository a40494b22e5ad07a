"""Schema validation and the CSV dialect."""

from __future__ import annotations

import pytest

from hequel.errors import (DuplicateColumn, ParseError, UnknownColumn,
                           ValueOverflow)
from hequel.schema import PlainTable, Schema, csv_text, read_csv


def test_schema_validation():
    s = Schema((("a", 4), ("b", 8)))
    assert s.names == ("a", "b")
    assert s.width_of("b") == 8
    assert s.index_of("a") == 0
    with pytest.raises(UnknownColumn):
        s.index_of("c")
    with pytest.raises(DuplicateColumn):
        Schema((("a", 4), ("a", 8)))
    with pytest.raises(ValueOverflow):
        Schema((("a", 0),))
    with pytest.raises(DuplicateColumn):
        s.project(("a", "a"))
    assert s.project(("b",)).columns == (("b", 8),)


def test_plain_table_checks_widths():
    s = Schema((("a", 2),))
    t = PlainTable(s, [(3,)])
    with pytest.raises(ValueOverflow):
        t.append((4,))
    with pytest.raises(ValueOverflow):
        t.append((1, 2))
    with pytest.raises(ValueOverflow):
        PlainTable(s, [(9,)])


def test_csv_round_trip(tmp_path):
    s = Schema((("x", 4), ("y", 12)))
    t = PlainTable(s, [(1, 4095), (15, 0)])
    path = tmp_path / "t.csv"
    path.write_text(csv_text(t))
    back = read_csv(str(path))
    assert back.schema == s
    assert back.rows == t.rows
    assert csv_text(t) == "x:4,y:12\n1,4095\n15,0\n"


def test_csv_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b:8\n1,2\n")
    with pytest.raises(ParseError):
        read_csv(str(path))
    # a default width makes the bare header legal
    t = read_csv(str(path), default_width=4)
    assert t.schema.columns == (("a", 4), ("b", 8))
    path.write_text("a:x\n")
    with pytest.raises(ParseError):
        read_csv(str(path))
    path.write_text("")
    with pytest.raises(ParseError):
        read_csv(str(path))


def test_csv_data_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a:4,b:4\n1\n")
    with pytest.raises(ParseError) as err:
        read_csv(str(path))
    assert "line 2" in str(err.value)
    path.write_text("a:4\nzz\n")
    with pytest.raises(ParseError):
        read_csv(str(path))
    path.write_text("a:4\n99\n")
    with pytest.raises(ValueOverflow):
        read_csv(str(path))
