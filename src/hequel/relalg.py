"""Relational algebra over encrypted tables.

Tables carry an encrypted presence bit per physical row; deleted and
filtered rows stay in place with presence 0, so the number of physical
rows (the capacity) is public while the logical row count is not. Every
operator walks all capacity rows and evaluates the same circuit per row:
the only control flow is over public capacities.

Operators return new tables; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hequel.circuits import (
    CipherWord,
    DEFAULT_WIDTH,
    bit_mux,
    const_word,
    decrypt_word,
    encrypt_word,
    word_add,
    word_add_bit,
    word_and_bit,
    word_div,
    word_eq,
    word_gt,
    word_mux,
)
from hequel.crypto import ClientKeys, PublicKey, encrypt_bit
from hequel.errors import (
    DuplicateColumn,
    LadderMismatch,
    PlanTypeError,
    SchemaMismatch,
    ValueOverflow,
)
from hequel.schema import PlainTable, Schema


@dataclass(frozen=True)
class EncRow:
    cells: tuple  # one CipherWord per schema column
    presence: object  # CipherBit


@dataclass(frozen=True)
class EncTable:
    name: str
    schema: Schema
    rows: tuple
    state: object  # kernel state shared by every bit in the table

    @property
    def capacity(self) -> int:
        return len(self.rows)


# --- predicates -------------------------------------------------------------
#
# Expression tree evaluated per row to one encrypted bit. Plaintext literals
# are legal server-side (public keys are public); pre-encrypted literals
# arrive from the client via the protocol layer.

@dataclass(frozen=True)
class ColRef:
    name: str


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class EncLit:
    word: CipherWord = field(repr=False)


@dataclass(frozen=True)
class Cmp:
    op: str  # one of = != > < >= <=
    left: object
    right: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    child: object


def _operand_word(node, schema: Schema, row: EncRow, width_hint: int | None):
    """Resolve a comparison operand to a CipherWord, or defer a plaintext
    literal until the other side fixes its width."""
    if isinstance(node, ColRef):
        return row.cells[schema.index_of(node.name)]
    if isinstance(node, EncLit):
        return node.word
    if isinstance(node, Lit):
        if width_hint is None:
            return None
        state = row.presence._state
        epoch = row.presence.epoch
        return const_word(state, node.value, width_hint, epoch)
    raise PlanTypeError(f"bad comparison operand {node!r}")


def eval_predicate(pred, schema: Schema, row: EncRow):
    """Evaluate a predicate tree on one row, returning an encrypted bit."""
    k = row.presence._state.impl
    if isinstance(pred, Cmp):
        a = _operand_word(pred.left, schema, row, None)
        b = _operand_word(pred.right, schema, row, None)
        if a is None and b is None:
            raise PlanTypeError("comparison needs at least one column")
        if a is None:
            a = _operand_word(pred.left, schema, row, b.width)
        if b is None:
            b = _operand_word(pred.right, schema, row, a.width)
        if pred.op == "=":
            return word_eq(a, b)
        if pred.op == "!=":
            return k.not_(word_eq(a, b))
        if pred.op == ">":
            return word_gt(a, b)
        if pred.op == "<":
            return word_gt(b, a)
        if pred.op == ">=":
            return k.not_(word_gt(b, a))
        if pred.op == "<=":
            return k.not_(word_gt(a, b))
        raise PlanTypeError(f"unknown comparison operator {pred.op!r}")
    if isinstance(pred, And):
        return k.and_(eval_predicate(pred.left, schema, row),
                      eval_predicate(pred.right, schema, row))
    if isinstance(pred, Or):
        return k.or_(eval_predicate(pred.left, schema, row),
                     eval_predicate(pred.right, schema, row))
    if isinstance(pred, Not):
        return k.not_(eval_predicate(pred.child, schema, row))
    raise PlanTypeError(f"bad predicate node {pred!r}")


# --- encrypt / decrypt ------------------------------------------------------

def encrypt_table(pk: PublicKey, plain: PlainTable,
                  presence: list[int] | None = None, name: str = "") -> EncTable:
    if presence is None:
        presence = [1] * len(plain.rows)
    if len(presence) != len(plain.rows):
        raise ValueOverflow("presence list length differs from row count")
    rows = []
    for values, p in zip(plain.rows, presence):
        cells = tuple(
            encrypt_word(pk, v, w)
            for v, (_, w) in zip(values, plain.schema.columns))
        rows.append(EncRow(cells, encrypt_bit(pk, p)))
    return EncTable(name, plain.schema, tuple(rows), pk.ladder.state)


def decrypt_table(keys: ClientKeys, t: EncTable) -> PlainTable:
    """Decrypt to the logical table: present rows only."""
    out = PlainTable(t.schema)
    for row in t.rows:
        if keys.decrypt_bit(row.presence):
            out.append(tuple(decrypt_word(keys, c) for c in row.cells))
    return out


def decrypt_table_full(keys: ClientKeys, t: EncTable):
    """Decrypt every physical row; returns (rows, presence bits)."""
    rows = [tuple(decrypt_word(keys, c) for c in row.cells) for row in t.rows]
    pres = [keys.decrypt_bit(row.presence) for row in t.rows]
    return rows, pres


# --- shared row circuits ----------------------------------------------------

def _table_epoch(t: EncTable) -> int:
    epochs = [b.epoch for r in t.rows for c in r.cells for b in c.bits]
    epochs += [r.presence.epoch for r in t.rows]
    return max(epochs, default=1)


def _row_eq(k, state, epoch, cells_a, cells_b):
    """1 iff two rows agree on every listed cell; vacuously 1 for no cells."""
    acc = k.fresh_bit(state, 1, epoch)
    for a, b in zip(cells_a, cells_b):
        acc = k.and_(acc, word_eq(a, b))
    return acc


def _gt_lex(k, state, epoch, cells_a, cells_b):
    """Lexicographic strict greater-than over aligned cell lists; vacuously
    0 for no cells (so equal rows never compare greater)."""
    gt = k.fresh_bit(state, 0, epoch)
    eq_so_far = k.fresh_bit(state, 1, epoch)
    for a, b in zip(cells_a, cells_b):
        gt = k.or_(gt, k.and_(eq_so_far, word_gt(a, b)))
        eq_so_far = k.and_(eq_so_far, word_eq(a, b))
    return gt


def _swap_rows(k, f, a: EncRow, b: EncRow):
    """Compare-and-swap: when f is 1 the rows trade places, presence bits
    included; when 0 both pass through. Same circuit either way."""
    new_a = EncRow(
        tuple(word_mux(f, cb, ca) for ca, cb in zip(a.cells, b.cells)),
        bit_mux(f, b.presence, a.presence))
    new_b = EncRow(
        tuple(word_mux(f, ca, cb) for ca, cb in zip(a.cells, b.cells)),
        bit_mux(f, a.presence, b.presence))
    return new_a, new_b


def oblivious_sort_rows(rows, key_fn, ascending: bool, state, epoch: int):
    """Bubble sort with encrypted compare-and-swap: n(n-1) fixed passes,
    swapping only on strict greater-than, so equal keys keep their order.
    ``key_fn(row)`` returns the tuple of CipherWords to compare."""
    k = state.impl
    rows = list(rows)
    n = len(rows)
    for _ in range(n):
        for j in range(n - 1):
            ka, kb = key_fn(rows[j]), key_fn(rows[j + 1])
            if ascending:
                f = _gt_lex(k, state, epoch, ka, kb)
            else:
                f = _gt_lex(k, state, epoch, kb, ka)
            rows[j], rows[j + 1] = _swap_rows(k, f, rows[j], rows[j + 1])
    return rows


# --- operators --------------------------------------------------------------

def op_select(pred, t: EncTable) -> EncTable:
    k = t.state.impl
    rows = tuple(
        EncRow(r.cells, k.and_(r.presence, eval_predicate(pred, t.schema, r)))
        for r in t.rows)
    return EncTable("", t.schema, rows, t.state)


def op_project(cols, t: EncTable) -> EncTable:
    cols = tuple(cols)
    schema = t.schema.project(cols)
    idx = [t.schema.index_of(c) for c in cols]
    rows = tuple(
        EncRow(tuple(r.cells[i] for i in idx), r.presence) for r in t.rows)
    return EncTable("", schema, rows, t.state)


def op_cross(t1: EncTable, t2: EncTable) -> EncTable:
    if t1.state is not t2.state:
        raise LadderMismatch("cross product operands use different ladders")
    for name, _ in t2.schema.columns:
        if name in t1.schema.names:
            raise DuplicateColumn(f"column {name!r} exists in both operands")
    schema = Schema(t1.schema.columns + t2.schema.columns)
    k = t1.state.impl
    rows = []
    for r1 in t1.rows:
        for r2 in t2.rows:
            rows.append(EncRow(
                r1.cells + r2.cells, k.and_(r1.presence, r2.presence)))
    return EncTable("", schema, tuple(rows), t1.state)


def op_count(t: EncTable, width: int = DEFAULT_WIDTH) -> CipherWord:
    epoch = _table_epoch(t)
    count = const_word(t.state, 0, width, epoch)
    for r in t.rows:
        count = word_add_bit(count, r.presence)
    return count


def op_sum(col: str, t: EncTable) -> CipherWord:
    ci = t.schema.index_of(col)
    width = t.schema.columns[ci][1]
    epoch = _table_epoch(t)
    total = const_word(t.state, 0, width, epoch)
    for r in t.rows:
        total = word_add(total, word_and_bit(r.cells[ci], r.presence))
    return total


def _extreme(col: str, t: EncTable, adopt_when_current_gt_candidate: bool) -> CipherWord:
    """Shared min/max scan. A found flag distinguishes "no present row seen
    yet" (adopt unconditionally) from "compare against the running value".
    Zero present rows leave the initial encrypted 0 in place."""
    ci = t.schema.index_of(col)
    width = t.schema.columns[ci][1]
    state = t.state
    k = state.impl
    epoch = _table_epoch(t)
    best = const_word(state, 0, width, epoch)
    found = k.fresh_bit(state, 0, epoch)
    for r in t.rows:
        val = r.cells[ci]
        if adopt_when_current_gt_candidate:
            better = word_gt(best, val)
        else:
            better = word_gt(val, best)
        f = k.and_(r.presence,
                   k.xor(k.and_(found, better), k.not_(found)))
        found = k.xor(found, k.and_(k.not_(found), r.presence))
        best = word_mux(f, val, best)
    return best


def op_min(col: str, t: EncTable) -> CipherWord:
    return _extreme(col, t, adopt_when_current_gt_candidate=True)


def op_max(col: str, t: EncTable) -> CipherWord:
    return _extreme(col, t, adopt_when_current_gt_candidate=False)


def op_avg(col: str, t: EncTable) -> CipherWord:
    width = t.schema.width_of(col)
    return word_div(op_sum(col, t), op_count(t, width))


def op_distinct(t: EncTable) -> EncTable:
    state = t.state
    k = state.impl
    epoch = _table_epoch(t)
    rows = list(t.rows)
    for i in range(1, len(rows)):
        f = k.fresh_bit(state, 0, epoch)
        for j in range(i):
            # the updated presence of row j: a duplicate only counts
            # against rows still present in the output
            equals = k.and_(
                _row_eq(k, state, epoch, rows[i].cells, rows[j].cells),
                rows[j].presence)
            f = k.xor(f, k.and_(k.not_(f), equals))
        rows[i] = EncRow(
            rows[i].cells,
            bit_mux(f, k.fresh_bit(state, 0, epoch), rows[i].presence))
    return EncTable("", t.schema, tuple(rows), state)


def op_sort(col: str, ascending: bool, t: EncTable) -> EncTable:
    ci = t.schema.index_of(col)
    epoch = _table_epoch(t)
    rows = oblivious_sort_rows(
        t.rows, lambda r: (r.cells[ci],), ascending, t.state, epoch)
    return EncTable("", t.schema, tuple(rows), t.state)


def op_groupby_sum(group_cols, sum_col: str, t: EncTable) -> EncTable:
    group_cols = tuple(group_cols)
    key_schema = t.schema.project(group_cols)
    sum_width = t.schema.width_of(sum_col)
    out_schema = Schema(key_schema.columns + ((f"sum_{sum_col}", sum_width),))
    state = t.state
    if t.capacity == 0:
        return EncTable("", out_schema, (), state)
    k = state.impl
    epoch = _table_epoch(t)
    key_idx = [t.schema.index_of(c) for c in group_cols]
    sum_idx = t.schema.index_of(sum_col)
    rows = oblivious_sort_rows(
        t.rows, lambda r: tuple(r.cells[i] for i in key_idx),
        True, state, epoch)

    def keys_of(r):
        return tuple(r.cells[i] for i in key_idx)

    zero = const_word(state, 0, sum_width, epoch)
    total = zero
    f = k.fresh_bit(state, 0, epoch)
    prev = None
    out = []
    for i, r in enumerate(rows):
        if i == 0:
            f1 = k.fresh_bit(state, 0, epoch)
            f = r.presence
        else:
            # f1 = 1: same group as the previous row, keep accumulating;
            # f1 = 0: group boundary, emit the finished group
            f1 = _row_eq(k, state, epoch, keys_of(prev), keys_of(r))
            nf1 = k.not_(f1)
            out.append(EncRow(keys_of(prev) + (total,), k.and_(nf1, f)))
            f = k.xor(k.and_(nf1, r.presence),
                      k.and_(f1, k.or_(f, r.presence)))
        prev = r
        v = word_mux(r.presence, r.cells[sum_idx], zero)
        total = word_add(word_mux(f1, total, zero), v)
    out.append(EncRow(keys_of(prev) + (total,), f))
    return EncTable("", out_schema, tuple(out), state)


def _check_same_shape(t1: EncTable, t2: EncTable):
    if t1.state is not t2.state:
        raise LadderMismatch("operands use different ladders")
    if t1.schema != t2.schema:
        raise SchemaMismatch(
            f"schemas differ: {t1.schema.columns} vs {t2.schema.columns}")


def op_bag_union(t1: EncTable, t2: EncTable) -> EncTable:
    _check_same_shape(t1, t2)
    return EncTable("", t1.schema, t1.rows + t2.rows, t1.state)


def _bag_overlap(t1: EncTable, t2: EncTable, keep_matched: bool) -> EncTable:
    """Greedy matching core of bag intersection and difference.

    Every (t1, t2) row pair is compared once, t1-major. ``free[j]`` is 1
    while t2 row j is present and unmatched; ``need`` is 1 while the
    current t1 row is present and unmatched. A pair matches (``take``)
    when its rows are equal and both flags are 1, and the match clears
    both, so XOR is exact. Each present t2 row thus matches at most one
    present t1 row, and a value with c1 present copies in t1 and c2 in t2
    gets exactly min(c1, c2) matches. The output keeps t1's capacity and
    row order: matched rows for intersection, unmatched for difference.
    """
    _check_same_shape(t1, t2)
    state = t1.state
    k = state.impl
    epoch = max(_table_epoch(t1), _table_epoch(t2))
    free = [r.presence for r in t2.rows]
    out = []
    for r1 in t1.rows:
        need = r1.presence
        for j, r2 in enumerate(t2.rows):
            take = k.and_(k.and_(
                _row_eq(k, state, epoch, r1.cells, r2.cells), free[j]), need)
            free[j] = k.xor(free[j], take)
            need = k.xor(need, take)
        p_out = k.xor(r1.presence, need) if keep_matched else need
        out.append(EncRow(r1.cells, p_out))
    return EncTable("", t1.schema, tuple(out), state)


def op_bag_intersect(t1: EncTable, t2: EncTable) -> EncTable:
    return _bag_overlap(t1, t2, keep_matched=True)


def op_bag_diff(t1: EncTable, t2: EncTable) -> EncTable:
    return _bag_overlap(t1, t2, keep_matched=False)
