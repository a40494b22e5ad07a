"""Encrypted operators: presence semantics, fixed hand-checked results,
capacity contracts, and ladder hygiene."""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest

from hequel import plans
from hequel.circuits import decrypt_word
from hequel.crypto import SecurityContext, keygen
from hequel.errors import DuplicateColumn, LadderMismatch, PlanTypeError
from hequel.relalg import (Cmp, ColRef, Lit, compact_rows, decrypt_table,
                           decrypt_table_full, encrypt_table, merge_exchange,
                           op_avg,
                           op_bag_diff, op_bag_intersect, op_bag_union,
                           op_count, op_cross, op_distinct, op_groupby_sum,
                           op_max, op_min, op_project, op_select, op_sort,
                           op_sum)
from hequel.oracle import eval_plan
from hequel.schema import PlainTable, Schema

PC_SCHEMA = Schema((("model", 12), ("speed", 4), ("ram", 12),
                    ("hd", 10), ("price", 12)))
PC_ROWS = [
    (1001, 3, 1024, 250, 2114),
    (1002, 2, 512, 80, 478),
    (1003, 1, 512, 250, 600),
]


@pytest.fixture()
def session():
    ladder, keys = keygen(SecurityContext(depth_budget=8), seed=b"relalg")
    return ladder, keys, ladder.public_key()


def enc_pc(pk, presence=None):
    return encrypt_table(pk, PlainTable(PC_SCHEMA, list(PC_ROWS)),
                         presence=presence, name="pc")


def bag(keys, table) -> Counter:
    return Counter(decrypt_table(keys, table).rows)


def test_table_round_trip_with_presence(session):
    _, keys, pk = session
    t = enc_pc(pk, presence=[1, 0, 1])
    assert t.capacity == 3
    assert bag(keys, t) == Counter([PC_ROWS[0], PC_ROWS[2]])
    rows, presences = decrypt_table_full(keys, t)
    assert presences == [1, 0, 1]
    assert rows == PC_ROWS


def test_select_marks_presence(session):
    _, keys, pk = session
    t = enc_pc(pk, presence=[1, 1, 0])
    out = op_select(Cmp(">", ColRef("speed"), Lit(1)), t)
    assert out.capacity == 3  # shape is data-independent
    _, presences = decrypt_table_full(keys, out)
    # speeds 3,2,1: predicate keeps rows 1,2; row 3 was already absent
    assert presences == [1, 1, 0]
    assert bag(keys, out) == Counter([PC_ROWS[0], PC_ROWS[1]])


def test_select_on_absent_row_stays_absent(session):
    _, keys, pk = session
    t = enc_pc(pk, presence=[0, 0, 0])
    out = op_select(Cmp(">=", ColRef("model"), Lit(0)), t)
    assert bag(keys, out) == Counter()


def test_select_literal_only_predicate_rejected(session):
    _, _, pk = session
    t = enc_pc(pk)
    with pytest.raises(PlanTypeError):
        op_select(Cmp("=", Lit(1), Lit(1)), t)


def test_project(session):
    _, keys, pk = session
    t = enc_pc(pk, presence=[1, 1, 0])
    out = op_project(("ram", "speed"), t)
    assert out.schema.columns == (("ram", 12), ("speed", 4))
    assert bag(keys, out) == Counter([(1024, 3), (512, 2)])
    with pytest.raises(DuplicateColumn):
        op_project(("ram", "ram"), t)


def test_cross(session):
    _, keys, pk = session
    left = encrypt_table(pk, PlainTable(Schema((("a", 4),)), [(1,), (2,)]),
                         presence=[1, 0], name="l")
    right = encrypt_table(pk, PlainTable(Schema((("b", 4),)), [(7,), (9,)]),
                          name="r")
    out = op_cross(left, right)
    assert out.capacity == 4
    # absent left row kills its pairs
    assert bag(keys, out) == Counter([(1, 7), (1, 9)])
    with pytest.raises(DuplicateColumn):
        op_cross(left, left)


def test_aggregates_fixed_values(session):
    _, keys, pk = session
    t = enc_pc(pk, presence=[1, 1, 0])
    # present prices: 2114, 478
    assert decrypt_word(keys, op_count(t)) == 2
    assert decrypt_word(keys, op_sum("price", t)) == 2592
    assert decrypt_word(keys, op_min("price", t)) == 478
    assert decrypt_word(keys, op_max("price", t)) == 2114
    assert decrypt_word(keys, op_avg("price", t)) == 1296


def test_aggregates_all_absent(session):
    _, keys, pk = session
    t = enc_pc(pk, presence=[0, 0, 0])
    for word in (op_count(t), op_sum("price", t), op_min("price", t),
                 op_max("price", t), op_avg("price", t)):
        assert decrypt_word(keys, word) == 0


def test_sort_moves_absent_rows_with_their_keys(session):
    _, keys, pk = session
    # prices 2114, 478, 600 with the 478 row absent
    t = enc_pc(pk, presence=[1, 0, 1])
    out = op_sort("price", True, t)
    rows, presences = decrypt_table_full(keys, out)
    assert [r[4] for r in rows] == [478, 600, 2114]
    assert presences == [0, 1, 1]
    out = op_sort("price", False, t)
    rows, presences = decrypt_table_full(keys, out)
    assert [r[4] for r in rows] == [2114, 600, 478]
    assert presences == [1, 1, 0]


def test_sort_is_stable(session):
    _, keys, pk = session
    plain = PlainTable(Schema((("k", 4), ("v", 4))),
                       [(2, 0), (1, 1), (2, 2), (1, 3)])
    t = encrypt_table(pk, plain, name="t")
    rows, _ = decrypt_table_full(keys, op_sort("k", True, t))
    assert rows == [(1, 1), (1, 3), (2, 0), (2, 2)]


def test_merge_exchange_sorts_every_bit_vector():
    # 0-1 principle: a comparator network that sorts every 0/1 input
    # sorts every input
    for n in range(1, 13):
        network = merge_exchange(n)
        assert all(0 <= i < j < n for i, j in network)
        for bits in product((0, 1), repeat=n):
            v = list(bits)
            for i, j in network:
                if v[i] > v[j]:
                    v[i], v[j] = v[j], v[i]
            assert v == sorted(bits), (n, bits)


def test_merge_exchange_comparator_counts():
    assert [len(merge_exchange(n)) for n in (0, 1, 2, 8, 16, 32)] == [
        0, 0, 1, 19, 63, 191]


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("ascending", [True, False])
def test_sort_is_stable_at_odd_n(session, n, ascending):
    _, keys, pk = session
    # keys 0, 2, 1, 0, 2, ... repeat; v records the input order
    plain = [((2 * i) % 3, i) for i in range(n)]
    t = encrypt_table(pk, PlainTable(Schema((("k", 2), ("v", 4))), plain),
                      name="t")
    rows, _ = decrypt_table_full(keys, op_sort("k", ascending, t))
    assert rows == sorted(plain, key=lambda r: r[0], reverse=not ascending)


def test_compact_rows_every_presence_pattern(session):
    ladder, keys, pk = session
    for n in range(7):
        plain = PlainTable(Schema((("i", 3),)), [(i,) for i in range(n)])
        for presence in product((0, 1), repeat=n):
            t = encrypt_table(pk, plain, presence=list(presence), name="t")
            out = compact_rows(t.rows, ladder.state, 1)
            got = [(decrypt_word(keys, r.cells[0]), keys.decrypt_bit(r.presence))
                   for r in out]
            m = sum(presence)
            kept = [i for i, p in enumerate(presence) if p]
            assert [i for i, _ in got[:m]] == kept, presence
            assert [p for _, p in got] == [1] * m + [0] * (n - m), presence


def test_distinct_counts_absent_rows_as_absent(session):
    _, keys, pk = session
    plain = PlainTable(Schema((("a", 4),)), [(5,), (5,), (5,), (7,)])
    t = encrypt_table(pk, plain, presence=[1, 0, 1, 1], name="t")
    out = op_distinct(t)
    _, presences = decrypt_table_full(keys, out)
    # first present 5 survives; absent dup stays absent; second present 5 drops
    assert presences == [1, 0, 0, 1]
    assert bag(keys, out) == Counter([(5,), (7,)])


def test_groupby_sum(session):
    _, keys, pk = session
    t = enc_pc(pk, presence=[1, 1, 1])
    out = op_groupby_sum(("ram",), "price", t)
    assert out.schema.columns == (("ram", 12), ("sum_price", 12))
    assert bag(keys, out) == Counter([(1024, 2114), (512, 1078)])
    # absent middle row drops its contribution
    t2 = enc_pc(pk, presence=[1, 0, 1])
    assert bag(keys, op_groupby_sum(("ram",), "price", t2)) == Counter(
        [(1024, 2114), (512, 600)])
    # output column sum_<col> may not collide with a grouping key
    clash = encrypt_table(
        pk, PlainTable(Schema((("x", 4), ("sum_x", 4))), [(1, 2)]), name="c")
    with pytest.raises(DuplicateColumn):
        op_groupby_sum(("sum_x",), "x", clash)


def test_groupby_empty_keys_is_global_sum(session):
    _, keys, pk = session
    t = enc_pc(pk, presence=[1, 1, 0])
    out = op_groupby_sum((), "price", t)
    assert bag(keys, out) == Counter([(2592,)])


def test_count_width_wraps(session):
    _, keys, pk = session
    plain = PlainTable(Schema((("a", 1),)), [(0,)] * 5)
    t = encrypt_table(pk, plain, name="t")
    assert decrypt_word(keys, op_count(t, width=2)) == 5 % 4
    assert decrypt_word(keys, op_count(t, width=8)) == 5
    # absent rows add nothing: 5 present of 7
    t = encrypt_table(pk, PlainTable(plain.schema, [(0,)] * 7),
                      presence=[1, 0, 1, 1, 0, 1, 1], name="t")
    assert decrypt_word(keys, op_count(t, width=2)) == 1
    assert decrypt_word(keys, op_count(t, width=3)) == 5


def oracle_value(plan, rows, presence, schema) -> int:
    """The oracle's scalar for ``plan`` over the present rows of table t."""
    catalog = {"t": PlainTable(schema, [r for r, p in zip(rows, presence)
                                        if p])}
    return eval_plan(plan, catalog).rows[0][0]


@pytest.mark.parametrize("n", [0, 1, 3, 5, 7])
def test_min_max_every_presence_pattern(session, n):
    # a pool of three values makes ties; odd n leaves a node out of a
    # tournament level, and the all-absent pattern gives 0
    _, keys, pk = session
    rows = [((5, 9, 2)[i % 3] if i % 4 else 9,) for i in range(n)]
    plain = PlainTable(A4, rows)
    for presence in product((0, 1), repeat=n):
        t = encrypt_table(pk, plain, presence=list(presence), name="t")
        for op, node in ((op_min, plans.Min), (op_max, plans.Max)):
            want = oracle_value(node("a", plans.TableRef("t")), rows,
                                presence, A4)
            assert decrypt_word(keys, op("a", t)) == want, (op, presence)


def test_distinct_every_presence_pattern(session):
    # values from a pool of two make most rows copies of an earlier one
    _, keys, pk = session
    s = Schema((("a", 2), ("b", 1)))
    for n in range(7):
        rows = [((i * 5 // 3) % 2, (i // 4) % 2) for i in range(n)]
        plain = PlainTable(s, rows)
        for presence in product((0, 1), repeat=n):
            t = encrypt_table(pk, plain, presence=list(presence), name="t")
            want = eval_plan(plans.Distinct(plans.TableRef("t")), {
                "t": PlainTable(s, [r for r, p in zip(rows, presence) if p])})
            got = decrypt_table(keys, op_distinct(t))
            assert got.rows == want.rows, presence


def test_bag_ops(session):
    _, keys, pk = session
    s = Schema((("a", 4),))
    x = encrypt_table(pk, PlainTable(s, [(1,), (1,), (2,)]), name="x")
    y = encrypt_table(pk, PlainTable(s, [(1,), (2,), (2,)]), name="y")
    assert bag(keys, op_bag_union(x, y)) == Counter(
        [(1,), (1,), (1,), (2,), (2,), (2,)])
    assert bag(keys, op_bag_intersect(x, y)) == Counter([(1,), (2,)])
    assert bag(keys, op_bag_diff(x, y)) == Counter([(1,)])
    assert op_bag_union(x, y).capacity == 6
    assert op_bag_intersect(x, y).capacity == 3
    assert op_bag_diff(x, y).capacity == 3
    t = encrypt_table(pk, PlainTable(s, [(3,), (3,), (5,), (3,)]),
                      presence=[1, 1, 1, 0], name="t")
    assert bag(keys, op_bag_intersect(t, t)) == bag(keys, t)
    assert bag(keys, op_bag_diff(t, t)) == Counter()


A4 = Schema((("a", 4),))
BAG_CASES = {
    # name: (left rows, left presence, right rows, right presence)
    "absent right copy": ([(5,)], [1], [(5,), (5,)], [0, 1]),
    "multiplicity": ([(5,), (5,)], [1, 1], [(5,)], [1]),
    "empty left": ([], [], [(1,), (2,)], [1, 1]),
    "empty right": ([(1,), (1,), (2,)], [1, 1, 1], [], []),
    "both empty": ([], [], [], []),
    "left all absent": ([(1,), (2,)], [0, 0], [(1,), (2,)], [1, 1]),
    "right all absent": ([(1,), (2,), (2,)], [1, 1, 1], [(2,), (1,)], [0, 0]),
}


def present_bag(rows, presence) -> Counter:
    return Counter(r for r, p in zip(rows, presence) if p)


def test_bag_ops_respect_presence(session):
    _, keys, pk = session
    for name, (r1, p1, r2, p2) in BAG_CASES.items():
        x = encrypt_table(pk, PlainTable(A4, list(r1)), presence=p1, name="x")
        y = encrypt_table(pk, PlainTable(A4, list(r2)), presence=p2, name="y")
        want1, want2 = present_bag(r1, p1), present_bag(r2, p2)
        inter, diff = op_bag_intersect(x, y), op_bag_diff(x, y)
        assert bag(keys, inter) == want1 & want2, name
        assert bag(keys, diff) == want1 - want2, name
        assert inter.capacity == diff.capacity == len(r1), name


def test_bag_ops_fit_a_leveled_ladder():
    # 8x8 rows of two 8-bit columns: the matching circuit's depth stays
    # within a 16-epoch ladder at depth budget 8
    ladder, keys = keygen(SecurityContext("leveled", 8, 16), seed=b"bagl")
    pk = ladder.public_key()
    s = Schema((("a", 8), ("b", 8)))
    r1 = [(1, 2), (3, 4), (1, 2), (200, 5), (1, 2), (9, 9), (3, 4), (0, 0)]
    r2 = [(1, 2), (7, 7), (3, 4), (1, 2), (255, 0), (3, 4), (3, 4), (9, 8)]
    p1 = [1, 1, 1, 1, 0, 1, 1, 1]
    p2 = [1, 1, 0, 1, 1, 1, 1, 1]
    x = encrypt_table(pk, PlainTable(s, r1), presence=p1, name="x")
    y = encrypt_table(pk, PlainTable(s, r2), presence=p2, name="y")
    want1, want2 = present_bag(r1, p1), present_bag(r2, p2)
    assert bag(keys, op_bag_intersect(x, y)) == want1 & want2
    assert bag(keys, op_bag_diff(x, y)) == want1 - want2


def test_cross_ladder_tables_rejected(session):
    _, _, pk = session
    other_ladder, _ = keygen(SecurityContext(), seed=b"other")
    s = Schema((("a", 4),))
    mine = encrypt_table(pk, PlainTable(s, [(1,)]), name="m")
    theirs = encrypt_table(other_ladder.public_key(),
                           PlainTable(Schema((("b", 4),)), [(1,)]), name="t")
    with pytest.raises(LadderMismatch):
        op_cross(mine, theirs)


def test_min_max_fit_a_leveled_ladder():
    # 32 rows of 12 bits: the tournament's depth grows with log2 32, so
    # min and max end at epoch 10 of a 12-epoch ladder (a serial scan
    # climbed to epoch 57)
    ladder, keys = keygen(SecurityContext("leveled", 8, 12), seed=b"mml")
    pk = ladder.public_key()
    values = [(i * 1237 + 501) % 4096 for i in range(32)]
    presence = [int(i % 5 != 2) for i in range(32)]
    t = encrypt_table(pk, PlainTable(Schema((("w", 12),)),
                                     [(v,) for v in values]),
                      presence=presence, name="t")
    present = [v for v, p in zip(values, presence) if p]
    for op, want in ((op_min, min(present)), (op_max, max(present))):
        out = op("w", t)
        assert decrypt_word(keys, out) == want
        assert max(b.epoch for b in out.bits) == 10
