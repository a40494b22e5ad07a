"""Relational algebra over encrypted tables.

Tables carry an encrypted presence bit per physical row; deleted and
filtered rows stay in place with presence 0, so the number of physical
rows (the capacity) is public while the logical row count is not. Every
operator walks all capacity rows and evaluates the same circuit per row:
the only control flow is over public capacities.

Operators return new tables; inputs are never mutated. They trust a
typechecked plan: ``plans.typecheck``, run by the client and again by the
server, checks column names, widths, operators and set-operation schemas,
so only what typing cannot see (ladders, plaintext literals) is checked
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from hequel.circuits import (
    CipherWord,
    DEFAULT_WIDTH,
    any_bit,
    bit_count,
    const_word,
    decrypt_word,
    encrypt_word,
    pairwise,
    word_add,
    word_add_bit,
    word_and_bit,
    word_div,
    word_eq,
    word_gt,
    word_ne,
)
from hequel.crypto import ClientKeys, PublicKey, encrypt_bit
from hequel.errors import LadderMismatch, PlanTypeError, ValueOverflow
from hequel.kernel import (and_, bit_and_not, bit_or, bits_differ, bits_gt,
                           bits_mux, bits_settle, bits_swap, bits_xor, fan_out,
                           fresh_bit, not_, settle, xor)
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
    # public: the present rows form a prefix, so the fetch needs no
    # compaction. Set by op_sort, kept by op_project, False elsewhere.
    packed: bool = False

    @property
    def capacity(self) -> int:
        return len(self.rows)


# --- predicates -------------------------------------------------------------
#
# Expression tree evaluated per row to one encrypted bit. A comparison
# reads columns and ``EncLit`` words only: the client turns every plaintext
# ``Lit`` into an ``EncLit`` (``plans.encrypt_plan_literals``) before a plan
# leaves it, and the server evaluates no query constant in clear. ``Lit``
# lives here for the plan language, the oracle and the client.

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
    op: str  # a key of CMP_CIRCUITS
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


# comparison operator -> circuit on the (left, right) words
CMP_CIRCUITS = {
    "=": word_eq,
    "!=": word_ne,
    ">": word_gt,
    "<": lambda a, b: word_gt(b, a),
    ">=": lambda a, b: not_(word_gt(b, a)),
    "<=": lambda a, b: not_(word_gt(a, b)),
}


def _operand_word(node, schema: Schema, row: EncRow) -> CipherWord:
    """A comparison operand's word: the row's cell or the client's
    ciphertext."""
    if isinstance(node, ColRef):
        return row.cells[schema.index_of(node.name)]
    if isinstance(node, EncLit):
        return node.word
    raise PlanTypeError(f"bad comparison operand {node!r}")


def eval_predicate(pred, schema: Schema, row: EncRow):
    """Evaluate a predicate tree on one row, returning an encrypted bit."""
    if isinstance(pred, Cmp):
        return CMP_CIRCUITS[pred.op](_operand_word(pred.left, schema, row),
                                     _operand_word(pred.right, schema, row))
    if isinstance(pred, And):
        return and_(eval_predicate(pred.left, schema, row),
                    eval_predicate(pred.right, schema, row))
    if isinstance(pred, Or):
        return bit_or(eval_predicate(pred.left, schema, row),
                      eval_predicate(pred.right, schema, row))
    if isinstance(pred, Not):
        return not_(eval_predicate(pred.child, schema, row))
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


def _row_bits(words) -> tuple:
    """The bits of a row's listed cells (or any words), in order."""
    return tuple(b for w in words for b in w.bits)


def _row_ne(state, epoch, bits_a, bits_b):
    """1 iff two rows differ on some listed cell, given the ``_row_bits``
    of each: one balanced OR tree over the XORs of all their bits, one AND
    per bit but the first. Rows with no cells never differ (an encrypted
    0)."""
    if not bits_a:
        return fresh_bit(state, 0, epoch)
    return bits_differ(bits_a, bits_b)


def _check_same_ladder(t1: EncTable, t2: EncTable):
    if t1.state is not t2.state:
        raise LadderMismatch("operands use different ladders")


def _cell_starts(cells) -> list:
    """The bit offset of each cell in its row's ``_row_bits``, then the
    number of cell bits."""
    return list(accumulate((c.width for c in cells), initial=0))


def _cells_of(bits, starts) -> tuple:
    """The cells of a flat row, split at ``_cell_starts``; any bits after
    the cells are not read."""
    return tuple(CipherWord(bits[s:e]) for s, e in zip(starts, starts[1:]))


def _cell_index(cells, word) -> int:
    for i, c in enumerate(cells):
        if c is word:
            return i
    raise ValueError("a sort key must be one of the row's own cells")


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


def oblivious_sort_rows(rows, key_fn, ascending: bool, state, epoch: int, *,
                        adjacent_only: bool = False):
    """Sort rows with encrypted compare-and-swaps on the fixed
    ``merge_exchange`` schedule. ``key_fn(row)`` returns the tuple of the
    row's own cells to compare, at the same column positions in every
    row: it is called once, on the first row, and each returned cell is
    found among that row's cells by identity, which fixes the key's bit
    positions for the whole network.

    Each row travels as one flat bit tuple, its cell bits then its
    presence, so a comparator makes one kernel call per step:
    ``bits_settle`` on each row, ``bits_xor`` and ``bits_gt`` over the
    gathered key bits, ``fan_out`` on the selector, which reaches every
    bit of both rows, and one ``bits_swap`` over both whole rows. The
    rows are rebuilt as ``EncRow`` values at the end.

    By default the order is total: presence leads, so the present rows
    form a prefix in both directions, then the keys, then each row's
    encrypted input index, which always sorts ascending, so equal keys
    keep their input order (stable) in both directions. Presence costs
    one AND per comparator and no encryption: row a sorts after row b
    exactly when b is present and a is not, so (p_b, keys_a, index_a) is
    compared against (p_a, keys_b, index_b). The index costs n·⌈log2 n⌉
    encryptions and two ANDs per index bit per comparator.

    ``adjacent_only`` is for a caller that needs equal keys adjacent and
    nothing more: the keys alone are compared, so equal keys end up
    together in some order and absent rows among the present ones. With
    no key either, every order will do and no gate runs."""
    n = len(rows)
    if n < 2:
        return list(rows)
    keys = key_fn(rows[0])
    if adjacent_only and not keys:
        return list(rows)
    cells = rows[0].cells
    starts = _cell_starts(cells)
    pos = []
    for k in keys:
        i = _cell_index(cells, k)
        pos.extend(range(starts[i], starts[i + 1]))
    if adjacent_only:
        flat = [_row_bits(r.cells) + (r.presence,) for r in rows]
    else:
        # the index bits ride between the cells and the presence
        width = (n - 1).bit_length()
        idx = range(starts[-1], starts[-1] + width)
        flat = [_row_bits(r.cells) + const_word(state, i, width, epoch).bits
                + (r.presence,) for i, r in enumerate(rows)]
    for i, j in merge_exchange(n):
        a, b = bits_settle(flat[i]), bits_settle(flat[j])
        ka, kb = [a[p] for p in pos], [b[p] for p in pos]
        if not ascending:
            ka, kb = kb, ka
        if not adjacent_only:
            ka = [b[-1], *ka, *[a[p] for p in idx]]
            kb = [a[-1], *kb, *[b[p] for p in idx]]
        # keys have public widths, so lexicographic order over them is the
        # unsigned order of their concatenation: one comparator chain
        f = fan_out(bits_gt(ka, bits_xor(ka, kb)))
        flat[i], flat[j] = bits_swap(f, a, b)
    return [EncRow(_cells_of(bits, starts), bits[-1]) for bits in flat]


def compact_rows(rows):
    """Order-preserving oblivious compaction (Goodrich, SPAA 2011): the
    present rows move to the front in their input order, and every slot
    after them has presence 0. The count constants sit at the top
    presence epoch.

    Row i first gets an encrypted count c_i of the absent rows before it.
    Then for j = 0 .. L-1, least significant bit first, a row whose
    presence AND bit j of c is set moves up 2^j slots, taking its cells
    and its remaining count bits along. Present rows i < k never meet:
    after round j they sit at i - (c_i mod 2^j) and k - (c_k mod 2^j), and
    (c_k mod 2^j) - (c_i mod 2^j) <= c_k - c_i < k - i. So presence moves
    by XOR alone.

    A slot holds one flat bit tuple, its cell bits followed by its unused
    count bits, least significant first, beside its presence; each round
    drops the count bit it used and moves the rest with one ``bits_mux``
    per slot. Each mover bit passes through ``kernel.fan_out`` once, and
    its slot's bits and presence share that copy. Every cell bit passes
    through ``fan_out`` once on entry, so a deep cell (a groupby sum, a
    sort's keys) is refreshed there and not again in each round's mux,
    which keeps the depth of its XOR side; a fresh cell has no depth and
    passes as it is. Each round settles the presence a mover reads. The
    gates depend only on len(rows); fewer than two rows come back
    untouched.
    The fetch runs it on every result that is not packed; a sort's result
    already holds its present rows in front, so it is not run there.
    """
    n = len(rows)
    if n < 2:
        return list(rows)
    width = (n - 1).bit_length()
    epoch = max(r.presence.epoch for r in rows)
    counts = [const_word(rows[0].presence._state, 0, width, epoch)]
    for r in rows[:-1]:
        counts.append(word_add_bit(counts[-1], not_(r.presence)))
    starts = _cell_starts(rows[0].cells)
    m = starts[-1]  # the cell bits; the next count bit sits at m
    slots = [(tuple([fan_out(b) for b in _row_bits(r.cells)]) + c.bits[::-1],
              r.presence)
             for r, c in zip(rows, counts)]
    for j in range(width):
        shift = 1 << j
        # a mover's AND and its slot's XORs read one settled presence
        slots[shift:] = [(bits, settle(p)) for bits, p in slots[shift:]]
        # a present row below slot 2^j cannot have bit j set: it would
        # have to end before slot 0
        moves = [None] * shift + [fan_out(and_(p, bits[m]))
                                  for bits, p in slots[shift:]]
        kept = [bits[:m] + bits[m + 1:] for bits, _ in slots]
        out = []
        for t, (_, p) in enumerate(slots):
            if moves[t] is not None:
                p = xor(p, moves[t])
            bits = kept[t]
            if t + shift < n:
                f = moves[t + shift]
                bits = bits_mux(f, kept[t + shift], bits)
                p = xor(f, p)
            out.append((bits, p))
        slots = out
    return [EncRow(_cells_of(bits, starts), p) for bits, p in slots]


# --- operators --------------------------------------------------------------

def op_select(pred, t: EncTable) -> EncTable:
    rows = tuple(
        EncRow(r.cells, and_(r.presence, eval_predicate(pred, t.schema, r)))
        for r in t.rows)
    return EncTable("", t.schema, rows, t.state)


def op_project(cols, t: EncTable) -> EncTable:
    cols = tuple(cols)
    schema = t.schema.project(cols)
    idx = [t.schema.index_of(c) for c in cols]
    rows = tuple(
        EncRow(tuple(r.cells[i] for i in idx), r.presence) for r in t.rows)
    return EncTable("", schema, rows, t.state, t.packed)


def op_cross(t1: EncTable, t2: EncTable) -> EncTable:
    _check_same_ladder(t1, t2)
    schema = Schema(t1.schema.columns + t2.schema.columns)
    rows = []
    for r1 in t1.rows:
        for r2 in t2.rows:
            rows.append(EncRow(
                r1.cells + r2.cells, and_(r1.presence, r2.presence)))
    return EncTable("", schema, tuple(rows), t1.state)


def op_count(t: EncTable, width: int = DEFAULT_WIDTH) -> CipherWord:
    if not t.rows:
        return const_word(t.state, 0, width, _table_epoch(t))
    return bit_count([r.presence for r in t.rows], width)


def op_sum(col: str, t: EncTable) -> CipherWord:
    """The present rows' values added as a ``pairwise`` tree: n·w ANDs to
    mask them and (n - 1)(w - 1) to add, no fresh encryption."""
    ci = t.schema.index_of(col)
    if not t.rows:
        return const_word(t.state, 0, t.schema.columns[ci][1], _table_epoch(t))
    return pairwise(word_add, [word_and_bit(r.cells[ci], r.presence)
                               for r in t.rows])


def _extreme(col: str, t: EncTable, want_min: bool) -> CipherWord:
    """Shared min/max as a pairwise tournament (Knuth, TAOCP 5.2.3), so
    its depth grows with log2 of the capacity, not with the capacity.

    A node is a (value bits, presence) pair. A match keeps a when a is
    present and strictly better, else takes b when b is present; a tie
    takes b, the same value. The winner is present when either side is.
    The matches run as a ``pairwise`` tree, and the root's value is
    masked by its presence, so zero present rows give 0 for both."""
    ci = t.schema.index_of(col)
    if not t.rows:
        return const_word(t.state, 0, t.schema.columns[ci][1], _table_epoch(t))
    bits, present = pairwise(lambda a, b: _match(a, b, want_min),
                             [(r.cells[ci].bits, r.presence) for r in t.rows])
    return word_and_bit(CipherWord(bits), present)


def _match(a, b, want_min: bool):
    """One tournament node: 2w + 3 ANDs at value width w."""
    # most inputs feed several gates: settle each input once, not inside
    # each gate; a gate's lift of a stale input is reused by the next
    bits = bits_settle((*a[0], a[1], *b[0], b[1]))
    w = len(a[0])
    xa, pa, xb, pb = bits[:w], bits[w], bits[w + 1:-1], bits[-1]
    ts = bits_xor(xa, xb)
    keep = and_(pa, bits_gt(xb if want_min else xa, ts))
    take = settle(bit_and_not(pb, keep))
    value = tuple(xor(x, and_(take, d)) for x, d in zip(xa, ts))
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
    epoch = _table_epoch(t)
    rows = list(t.rows)
    bits = [_row_bits(r.cells) for r in rows]
    for i in range(1, len(rows)):
        # the input presence of row j: p_j AND NOT differ is a copy. The
        # first present copy of a value has no earlier one, so it stays,
        # and no row's test waits on another row's outcome.
        copies = [bit_and_not(t.rows[j].presence,
                              _row_ne(state, epoch, bits[i], bits[j]))
                  for j in range(i)]
        rows[i] = EncRow(rows[i].cells,
                         bit_and_not(rows[i].presence, any_bit(copies)))
    return EncTable("", t.schema, tuple(rows), state)


def op_sort(col: str, ascending: bool, t: EncTable) -> EncTable:
    """Present rows first, in ``col`` order, ties in input order (stable);
    absent rows after them. The result is packed."""
    ci = t.schema.index_of(col)
    epoch = _table_epoch(t)
    rows = oblivious_sort_rows(
        t.rows, lambda r: (r.cells[ci],), ascending, t.state, epoch)
    return EncTable("", t.schema, tuple(rows), t.state, packed=True)


def op_groupby_sum(group_cols, sum_col: str, t: EncTable) -> EncTable:
    group_cols = tuple(group_cols)
    key_schema = t.schema.project(group_cols)
    sum_width = t.schema.width_of(sum_col)
    out_schema = Schema(key_schema.columns + ((f"sum_{sum_col}", sum_width),))
    state = t.state
    if t.capacity == 0:
        return EncTable("", out_schema, (), state)
    epoch = _table_epoch(t)
    key_idx = [t.schema.index_of(c) for c in group_cols]
    sum_idx = t.schema.index_of(sum_col)

    def keys_of(r):
        return tuple(r.cells[i] for i in key_idx)

    # a group's rows need only be adjacent: no presence key and no index
    rows = oblivious_sort_rows(t.rows, keys_of, True, state, epoch,
                               adjacent_only=True)
    # f is 1 while the current group holds a present row; at a group
    # boundary (ne = 1) the finished group is emitted and f, total restart
    total = word_and_bit(rows[0].cells[sum_idx], rows[0].presence)
    f = rows[0].presence
    out = []
    for prev, r in zip(rows, rows[1:]):
        # ne feeds a gate for every bit of the sum, and the sum's bits feed
        # the next step and every round of the fetch compaction: each goes
        # through fan_out once here. f feeds an AND and an XOR.
        ne = fan_out(_row_ne(state, epoch, _row_bits(keys_of(prev)),
                             _row_bits(keys_of(r))))
        f = settle(f)
        emit = and_(ne, f)
        total = CipherWord(tuple(fan_out(x) for x in total.bits))
        out.append(EncRow(keys_of(prev) + (total,), emit))
        f = bit_or(r.presence, xor(f, emit))
        kept = CipherWord(tuple(bit_and_not(x, ne) for x in total.bits))
        total = word_add(kept, word_and_bit(r.cells[sum_idx], r.presence))
    out.append(EncRow(keys_of(rows[-1]) + (total,), f))
    return EncTable("", out_schema, tuple(out), state)


def op_bag_union(t1: EncTable, t2: EncTable) -> EncTable:
    _check_same_ladder(t1, t2)
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
    _check_same_ladder(t1, t2)
    state = t1.state
    epoch = max(_table_epoch(t1), _table_epoch(t2))
    free = [r.presence for r in t2.rows]
    bits2 = [_row_bits(r.cells) for r in t2.rows]
    out = []
    for r1 in t1.rows:
        need = r1.presence
        bits1 = _row_bits(r1.cells)
        for j, bits in enumerate(bits2):
            # both flags feed the AND that both gates of the match read
            take = bit_and_not(settle(and_(free[j], need)),
                               _row_ne(state, epoch, bits1, bits))
            free[j] = xor(free[j], take)
            need = xor(need, take)
        p_out = xor(r1.presence, need) if keep_matched else need
        out.append(EncRow(r1.cells, p_out))
    return EncTable("", t1.schema, tuple(out), state)


def op_bag_intersect(t1: EncTable, t2: EncTable) -> EncTable:
    return _bag_overlap(t1, t2, keep_matched=True)


def op_bag_diff(t1: EncTable, t2: EncTable) -> EncTable:
    return _bag_overlap(t1, t2, keep_matched=False)
