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
    any_bit,
    bit_and_not,
    bit_count,
    bit_or,
    bit_swap,
    const_word,
    decrypt_word,
    encrypt_word,
    gt_chain,
    lifted,
    settled,
    word_add,
    word_add_bit,
    word_and_bit,
    word_div,
    word_eq,
    word_gt,
    word_mux,
    word_ne,
    word_swap,
)
from hequel.crypto import ClientKeys, PublicKey, encrypt_bit
from hequel.errors import (
    DuplicateColumn,
    LadderMismatch,
    PlanTypeError,
    SchemaMismatch,
    ValueOverflow,
)
from hequel.kernel import MODE_CIRCULAR
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
            return word_ne(a, b)
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
        return bit_or(eval_predicate(pred.left, schema, row),
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


def _row_ne(k, state, epoch, cells_a, cells_b):
    """1 iff two rows differ on some listed cell: one balanced OR tree over
    the XORs of all their bits, one AND per bit but the first. Rows with no
    cells never differ (an encrypted 0)."""
    diffs = [k.xor(x, y) for a, b in zip(cells_a, cells_b)
             for x, y in zip(a.bits, b.bits)]
    return any_bit(diffs) if diffs else k.fresh_bit(state, 0, epoch)


def _concat(words) -> CipherWord:
    return CipherWord(tuple(b for w in words for b in w.bits))


def _settled_row(r: EncRow) -> EncRow:
    """The row with every bit at the depth budget refreshed once, before a
    comparator reads its bits into several gates."""
    return EncRow(tuple(CipherWord(tuple(settled(b) for b in c.bits))
                        for c in r.cells), settled(r.presence))


def _swap_rows(f, a: EncRow, b: EncRow):
    """Compare-and-swap: when f is 1 the rows trade places, presence bits
    included; when 0 both pass through. Same circuit either way, one AND
    per bit for both rows."""
    f = settled(f)
    cells = [word_swap(f, ca, cb) for ca, cb in zip(a.cells, b.cells)]
    pa, pb = bit_swap(f, a.presence, b.presence)
    return (EncRow(tuple(ca for ca, _ in cells), pa),
            EncRow(tuple(cb for _, cb in cells), pb))


def merge_exchange(n: int) -> list[tuple[int, int]]:
    """Comparator pairs (i, j), i < j, of Knuth's merge exchange (TAOCP
    5.2.2, Algorithm M), Batcher's odd-even merge sort for any n, in
    evaluation order: 19, 63 and 191 comparators at n = 8, 16 and 32."""
    pairs = []
    if n < 2:
        return pairs
    t = (n - 1).bit_length()
    p = 1 << (t - 1)
    while p:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            pairs.extend((i, i + d) for i in range(n - d) if i & p == r)
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return pairs


def oblivious_sort_rows(rows, key_fn, ascending: bool, state, epoch: int):
    """Sort rows with encrypted compare-and-swaps on the fixed
    ``merge_exchange`` schedule. ``key_fn(row)`` returns the tuple of
    CipherWords to compare. Each row carries its encrypted input index as a
    last key that always sorts ascending, so all keys differ and equal sort
    keys keep their input order in both directions."""
    n = len(rows)
    if n < 2:
        return list(rows)
    width = (n - 1).bit_length()
    k = state.impl
    circular = state.mode == MODE_CIRCULAR and state.auto_refresh
    # the index rides as a trailing cell, so key_fn's cell indices still hold
    tagged = [EncRow(r.cells + (const_word(state, i, width, epoch),),
                     r.presence) for i, r in enumerate(rows)]
    for i, j in merge_exchange(n):
        a, b = _settled_row(tagged[i]), _settled_row(tagged[j])
        ka, kb = key_fn(a), key_fn(b)
        if not ascending:
            ka, kb = kb, ka
        # keys have public widths, so lexicographic order over them is the
        # unsigned order of their concatenation: one comparator chain
        f = word_gt(_concat((*ka, a.cells[-1])), _concat((*kb, b.cells[-1])))
        if circular and f.depth:
            # the selector reaches every bit of both rows; from depth 0 the
            # swapped bits stay shallow. A circular refresh spends no
            # epoch; in leveled mode the epoch it spends costs more.
            f = k.refresh(f)
        tagged[i], tagged[j] = _swap_rows(f, a, b)
    return [EncRow(r.cells[:-1], r.presence) for r in tagged]


def compact_rows(rows, state, epoch: int):
    """Order-preserving oblivious compaction (Goodrich, SPAA 2011): the
    present rows move to the front in their input order, and every slot
    after them has presence 0.

    Row i first gets an encrypted count c_i of the absent rows before it.
    Then for j = 0 .. L-1, least significant bit first, a row whose
    presence AND bit j of c is set moves up 2^j slots, taking its cells
    and its remaining count bits along. Present rows i < k never meet:
    after round j they sit at i - (c_i mod 2^j) and k - (c_k mod 2^j), and
    (c_k mod 2^j) - (c_i mod 2^j) <= c_k - c_i < k - i. So presence moves
    by XOR alone. The gates depend only on len(rows); fewer than two rows
    come back untouched.
    """
    n = len(rows)
    if n < 2:
        return list(rows)
    k = state.impl
    width = (n - 1).bit_length()
    counts = [const_word(state, 0, width, epoch)]
    for r in rows[:-1]:
        counts.append(word_add_bit(counts[-1], k.not_(r.presence)))
    # per slot: cells, presence, and the count bits still unused, LSB first
    slots = [(r.cells, r.presence, c.bits[::-1])
             for r, c in zip(rows, counts)]
    for j in range(width):
        shift = 1 << j
        # a present row below slot 2^j cannot have bit j set: it would
        # have to end before slot 0
        moves = [None] * shift + [k.and_(p, bits[0])
                                  for _, p, bits in slots[shift:]]
        out = []
        for t, (cells, p, bits) in enumerate(slots):
            if moves[t] is not None:
                p = k.xor(p, moves[t])
            bits = bits[1:]
            if t + shift < n:
                f = moves[t + shift]
                src_cells, _, src_bits = slots[t + shift]
                cells = tuple(word_mux(f, a, b)
                              for a, b in zip(src_cells, cells))
                if bits:
                    bits = word_mux(f, CipherWord(src_bits[1:]),
                                    CipherWord(bits)).bits
                p = k.xor(f, p)
            out.append((cells, p, bits))
        slots = out
    return [EncRow(cells, p) for cells, p, _ in slots]


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
    if not t.rows:
        return const_word(t.state, 0, width, _table_epoch(t))
    return bit_count([r.presence for r in t.rows], width)


def op_sum(col: str, t: EncTable) -> CipherWord:
    ci = t.schema.index_of(col)
    width = t.schema.columns[ci][1]
    epoch = _table_epoch(t)
    total = const_word(t.state, 0, width, epoch)
    for r in t.rows:
        total = word_add(total, word_and_bit(r.cells[ci], r.presence))
    return total


def _extreme(col: str, t: EncTable, want_min: bool) -> CipherWord:
    """Shared min/max as a pairwise tournament (Knuth, TAOCP 5.2.3), so
    its depth grows with log2 of the capacity, not with the capacity.

    A node is a (value bits, presence) pair. A match keeps a when a is
    present and strictly better, else takes b when b is present; a tie
    takes b, the same value. The winner is present when either side is.
    An odd node out moves up a level unchanged, and the root's value is
    masked by its presence, so zero present rows give 0 for both."""
    ci = t.schema.index_of(col)
    if not t.rows:
        return const_word(t.state, 0, t.schema.columns[ci][1], _table_epoch(t))
    nodes = [(r.cells[ci].bits, r.presence) for r in t.rows]
    while len(nodes) > 1:
        won = [_match(a, b, want_min) for a, b in zip(nodes[::2], nodes[1::2])]
        nodes = won + nodes[len(won) * 2:]
    bits, present = nodes[0]
    return word_and_bit(CipherWord(bits), present)


def _match(a, b, want_min: bool):
    """One tournament node: 2w + 3 ANDs at value width w."""
    k = a[1]._state.impl
    # most inputs feed several gates: settle each input and lift it to
    # the pair's epoch once, not inside each gate
    bits = [settled(x) for x in (*a[0], a[1], *b[0], b[1])]
    top = max(x.epoch for x in bits)
    bits = [lifted(x, top) for x in bits]
    w = len(a[0])
    xa, pa, xb, pb = bits[:w], bits[w], bits[w + 1:-1], bits[-1]
    ts = [k.xor(x, y) for x, y in zip(xa, xb)]
    keep = k.and_(pa, gt_chain(xb if want_min else xa, ts))
    take = settled(bit_and_not(pb, keep))
    value = tuple(k.xor(x, k.and_(take, d)) for x, d in zip(xa, ts))
    return value, bit_or(pa, pb)


def op_min(col: str, t: EncTable) -> CipherWord:
    return _extreme(col, t, want_min=True)


def op_max(col: str, t: EncTable) -> CipherWord:
    return _extreme(col, t, want_min=False)


def op_avg(col: str, t: EncTable) -> CipherWord:
    width = t.schema.width_of(col)
    return word_div(op_sum(col, t), op_count(t, width))


def op_distinct(t: EncTable) -> EncTable:
    state = t.state
    k = state.impl
    epoch = _table_epoch(t)
    rows = list(t.rows)
    for i in range(1, len(rows)):
        # the input presence of row j: p_j AND NOT differ is a copy. The
        # first present copy of a value has no earlier one, so it stays,
        # and no row's test waits on another row's outcome.
        copies = [bit_and_not(t.rows[j].presence,
                              _row_ne(k, state, epoch, rows[i].cells,
                                      rows[j].cells))
                  for j in range(i)]
        rows[i] = EncRow(rows[i].cells,
                         bit_and_not(rows[i].presence, any_bit(copies)))
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

    def keys_of(r):
        return tuple(r.cells[i] for i in key_idx)

    rows = oblivious_sort_rows(t.rows, keys_of, True, state, epoch)
    # f is 1 while the current group holds a present row; at a group
    # boundary (ne = 1) the finished group is emitted and f, total restart
    total = word_and_bit(rows[0].cells[sum_idx], rows[0].presence)
    f = rows[0].presence
    out = []
    for prev, r in zip(rows, rows[1:]):
        ne = settled(_row_ne(k, state, epoch, keys_of(prev), keys_of(r)))
        emit = k.and_(ne, f)
        out.append(EncRow(keys_of(prev) + (total,), emit))
        f = bit_or(r.presence, k.xor(f, emit))
        kept = CipherWord(tuple(bit_and_not(x, ne) for x in total.bits))
        total = word_add(kept, word_and_bit(r.cells[sum_idx], r.presence))
    out.append(EncRow(keys_of(rows[-1]) + (total,), f))
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
            take = bit_and_not(k.and_(free[j], need),
                               _row_ne(k, state, epoch, r1.cells, r2.cells))
            free[j] = k.xor(free[j], take)
            need = k.xor(need, take)
        p_out = k.xor(r1.presence, need) if keep_matched else need
        out.append(EncRow(r1.cells, p_out))
    return EncTable("", t1.schema, tuple(out), state)


def op_bag_intersect(t1: EncTable, t2: EncTable) -> EncTable:
    return _bag_overlap(t1, t2, keep_matched=True)


def op_bag_diff(t1: EncTable, t2: EncTable) -> EncTable:
    return _bag_overlap(t1, t2, keep_matched=False)
