"""Word circuits against plaintext arithmetic on seeded random operands."""

from __future__ import annotations

import itertools
import random

import pytest

from hequel.circuits import (CipherWord, bit_count, bit_mux, bit_or,
                             const_word, decrypt_word, encrypt_word, word_add,
                             word_add_bit, word_and_bit, word_div, word_eq,
                             word_gt, word_mux, word_ne)
from hequel.crypto import SecurityContext, encrypt_bit, keygen
from hequel.errors import ValueOverflow, WidthMismatch
from hequel.relalg import (encrypt_table, oblivious_sort_rows, op_count,
                           op_max, op_min, op_sort)
from hequel.schema import PlainTable, Schema


@pytest.fixture(scope="module")
def session():
    ladder, keys = keygen(SecurityContext(depth_budget=8), seed=b"circ")
    return ladder, keys, ladder.public_key()


def test_word_round_trip(session):
    ladder, keys, pk = session
    for value in (0, 1, 129, 255):
        w = encrypt_word(pk, value, width=8)
        assert w.width == 8
        assert decrypt_word(keys, w) == value
    assert decrypt_word(keys, encrypt_word(pk, 5, width=3)) == 5
    with pytest.raises(ValueOverflow):
        encrypt_word(pk, 8, width=3)
    with pytest.raises(ValueOverflow):
        encrypt_word(pk, -1, width=3)


def test_width_mismatch(session):
    _, _, pk = session
    a = encrypt_word(pk, 1, width=4)
    b = encrypt_word(pk, 1, width=5)
    for fn in (word_add, word_eq, word_gt):
        with pytest.raises(WidthMismatch):
            fn(a, b)
    with pytest.raises(WidthMismatch):
        CipherWord(())


def test_add_known_answers(session):
    ladder, keys, pk = session
    cases = [(0, 0, 0), (5, 3, 8), (255, 1, 0), (200, 100, 44), (0, 7, 7)]
    for a, b, want in cases:
        got = decrypt_word(keys, word_add(encrypt_word(pk, a, 8),
                                          encrypt_word(pk, b, 8)))
        assert got == want, (a, b)


def test_add_random(session):
    _, keys, pk = session
    rng = random.Random(11)
    for _ in range(60):
        a, b = rng.randrange(256), rng.randrange(256)
        got = decrypt_word(keys, word_add(encrypt_word(pk, a, 8),
                                          encrypt_word(pk, b, 8)))
        assert got == (a + b) % 256


def test_compare_random(session):
    _, keys, pk = session
    rng = random.Random(12)
    for _ in range(60):
        a, b = rng.randrange(256), rng.randrange(256)
        ea, eb = encrypt_word(pk, a, 8), encrypt_word(pk, b, 8)
        eq = keys.decrypt_bit(word_eq(ea, eb))
        gt = keys.decrypt_bit(word_gt(ea, eb))
        lt = keys.decrypt_bit(word_gt(eb, ea))
        assert eq == int(a == b)
        assert gt == int(a > b)
        assert eq + gt + lt == 1  # trichotomy


def test_mux(session):
    _, keys, pk = session
    a = encrypt_word(pk, 77, 8)
    b = encrypt_word(pk, 200, 8)
    assert decrypt_word(keys, word_mux(encrypt_bit(pk, 1), a, b)) == 77
    assert decrypt_word(keys, word_mux(encrypt_bit(pk, 0), a, b)) == 200
    for f, x, y in itertools.product((0, 1), repeat=3):
        got = keys.decrypt_bit(bit_mux(encrypt_bit(pk, f), encrypt_bit(pk, x),
                                       encrypt_bit(pk, y)))
        assert got == (x if f else y)


def test_bit_or(session):
    _, keys, pk = session
    for a, b in itertools.product((0, 1), repeat=2):
        got = keys.decrypt_bit(bit_or(encrypt_bit(pk, a), encrypt_bit(pk, b)))
        assert got == a | b


def test_and_bit_and_add_bit(session):
    _, keys, pk = session
    rng = random.Random(13)
    for _ in range(40):
        a, f = rng.randrange(256), rng.randint(0, 1)
        ea, ef = encrypt_word(pk, a, 8), encrypt_bit(pk, f)
        assert decrypt_word(keys, word_and_bit(ea, ef)) == (a if f else 0)
        assert decrypt_word(keys, word_add_bit(ea, ef)) == (a + f) % 256


def test_div_random(session):
    _, keys, pk = session
    rng = random.Random(14)
    for _ in range(25):
        a, b = rng.randrange(256), rng.randrange(256)
        got = decrypt_word(keys, word_div(encrypt_word(pk, a, 8),
                                          encrypt_word(pk, b, 8)))
        assert got == (a // b if b else 0), (a, b)
    assert decrypt_word(keys, word_div(encrypt_word(pk, 99, 8),
                                       encrypt_word(pk, 0, 8))) == 0


def test_const_word_is_server_side(session):
    ladder, keys, _ = session
    w = const_word(ladder.state, 42, 8, 1)
    assert decrypt_word(keys, w) == 42
    got = decrypt_word(keys, word_add(w, const_word(ladder.state, 1, 8, 1)))
    assert got == 43


def test_circuits_survive_tight_budget():
    # depth pressure inside one divide forces many refreshes
    ladder, keys = keygen(SecurityContext(depth_budget=2), seed=b"tight")
    pk = ladder.public_key()
    got = decrypt_word(keys, word_div(encrypt_word(pk, 250, 8),
                                      encrypt_word(pk, 7, 8)))
    assert got == 250 // 7
    assert ladder.state.refresh_count > 0


def test_leveled_cross_epoch_word_ops():
    ctx = SecurityContext(mode="leveled", depth_budget=8, epochs=3)
    ladder, keys = keygen(ctx, seed=b"xe")
    a = encrypt_word(ladder.public_key(1), 9, 8)
    b = encrypt_word(ladder.public_key(2), 30, 8)
    out = word_add(a, b)
    assert decrypt_word(keys, out) == 39


# --- exhaustive w=4 under refresh pressure --------------------------------
#
# Serial carry and comparator chains put refreshes mid-chain; in leveled
# mode each one also moves a bit to a new key epoch. 32 epochs leave room:
# the deepest circuit here (word_div) reaches epoch 21 at budget 1.

@pytest.mark.parametrize("ctx", [
    SecurityContext(depth_budget=1),
    SecurityContext(depth_budget=2),
    SecurityContext(mode="leveled", depth_budget=1, epochs=32),
    SecurityContext(mode="leveled", depth_budget=2, epochs=32),
], ids=["circular-1", "circular-2", "leveled-1", "leveled-2"])
def test_exhaustive_w4_under_tight_budgets(ctx):
    ladder, keys = keygen(ctx, seed=b"w4-tight")
    pk = ladder.public_key()
    enc = [encrypt_word(pk, v, 4) for v in range(16)]
    flag = [encrypt_bit(pk, 0), encrypt_bit(pk, 1)]
    for a, b in itertools.product(range(16), repeat=2):
        ea, eb = enc[a], enc[b]
        assert decrypt_word(keys, word_add(ea, eb)) == (a + b) % 16
        assert keys.decrypt_bit(word_eq(ea, eb)) == int(a == b)
        assert keys.decrypt_bit(word_ne(ea, eb)) == int(a != b)
        assert keys.decrypt_bit(word_gt(ea, eb)) == int(a > b)
        assert keys.decrypt_bit(word_gt(eb, ea)) == int(a < b)
        for f, ef in enumerate(flag):
            assert decrypt_word(keys, word_mux(ef, ea, eb)) == (a if f else b)
            assert decrypt_word(keys, word_and_bit(ea, ef)) == (a if f else 0)
            assert decrypt_word(keys, word_add_bit(ea, ef)) == (a + f) % 16
        assert decrypt_word(keys, word_div(ea, eb)) == (a // b if b else 0)
    assert ladder.state.refresh_count > 0


# --- pinned costs ------------------------------------------------------------
#
# Execution is oblivious, so these counts are exact and data-independent.
# A change that makes a circuit cost more fails here, not only in the
# benchmark.

def _cost(state, fn, *args):
    """(ANDs, fresh encryptions) spent by one call."""
    before = (state.and_count, state.encrypt_count)
    fn(*args)
    return state.and_count - before[0], state.encrypt_count - before[1]


@pytest.mark.parametrize("w", [8, 12])
def test_word_circuit_costs(session, w):
    ladder, _, pk = session
    state = ladder.state
    a = encrypt_word(pk, (1 << w) - 3, w)
    b = encrypt_word(pk, 5, w)
    f = encrypt_bit(pk, 1)
    assert _cost(state, word_gt, a, b) == (w, 0)
    assert _cost(state, word_mux, f, a, b) == (w, 0)
    assert _cost(state, word_add, a, b) == (w - 1, 0)
    assert _cost(state, word_add_bit, a, f) == (w - 1, 0)
    assert _cost(state, word_ne, a, b) == (w - 1, 0)
    assert _cost(state, word_eq, a, b) == (w - 1, 1)


KV = Schema((("k", 8), ("v", 8)))


def test_compare_swap_cost(session):
    # 9 ANDs compare k and the 1-bit input index; 18 swap k, v, the index
    # and presence; the two index constants are the only encryptions
    ladder, _, pk = session
    rows = encrypt_table(pk, PlainTable(KV, [(200, 1), (100, 2)])).rows
    assert _cost(ladder.state, oblivious_sort_rows, rows,
                 lambda r: (r.cells[0],), True, ladder.state, 1) == (27, 2)


@pytest.mark.parametrize("n,ands,refreshes", [(16, 2079, 608),
                                              (32, 6685, 2196)])
def test_sort_cost(session, n, ands, refreshes):
    ladder, _, pk = session
    state = ladder.state
    t = encrypt_table(pk, PlainTable(KV, [((i * 37) % 256, i)
                                          for i in range(n)]))
    before = (state.and_count, state.refresh_count)
    op_sort("k", True, t)
    assert (state.and_count - before[0],
            state.refresh_count - before[1]) == (ands, refreshes)


# n present-or-absent bits: ANDs and fresh encryptions of the compressor.
# Within n.bit_length() columns a full adder or half adder costs one AND;
# only the empty columns above take a fresh zero.
@pytest.mark.parametrize("n,width,ands,encryptions", [
    (1, 2, 0, 1), (1, 6, 0, 5), (1, 8, 0, 7),
    (5, 2, 2, 0), (5, 6, 3, 3), (5, 8, 3, 5),
    (32, 2, 16, 0), (32, 6, 31, 0), (32, 8, 31, 2),
])
def test_bit_count_cost(session, n, width, ands, encryptions):
    ladder, keys, pk = session
    rng = random.Random(n * 100 + width)
    for bits in ([0] * n, [1] * n, [rng.randint(0, 1) for _ in range(n)]):
        enc = [encrypt_bit(pk, b) for b in bits]
        before = (ladder.state.and_count, ladder.state.encrypt_count)
        out = bit_count(enc, width)
        assert (ladder.state.and_count - before[0],
                ladder.state.encrypt_count - before[1]) == (ands, encryptions)
        assert decrypt_word(keys, out) == sum(bits) % (1 << width)


def _leveled_cost(state, fn, *args):
    """(result, (ANDs, refreshes, encryptions)) of one call."""
    before = (state.and_count, state.refresh_count, state.encrypt_count)
    out = fn(*args)
    return out, (state.and_count - before[0], state.refresh_count - before[1],
                 state.encrypt_count - before[2])


@pytest.mark.parametrize("w,refreshes,epoch", [(8, 339, 10), (12, 1047, 20)])
def test_div_leveled_refreshes(w, refreshes, epoch):
    # each iteration lifts the bits it reuses once, not in every gate
    # (the per-gate lifts spent 725 and 2,860 refreshes)
    ladder, keys = keygen(SecurityContext("leveled", 8, 128), seed=b"div-l")
    pk = ladder.public_key()
    out, cost = _leveled_cost(ladder.state, word_div,
                              encrypt_word(pk, 200, w), encrypt_word(pk, 7, w))
    assert decrypt_word(keys, out) == 200 // 7
    assert cost[1] == refreshes
    assert max(b.epoch for b in out.bits) == epoch


W12 = Schema((("w", 12),))
PRESENCE_PATTERNS = {
    "all present": [1] * 32,
    "all absent": [0] * 32,
    "alternating": [i % 2 for i in range(32)],
    "last only": [0] * 31 + [1],
}


@pytest.mark.parametrize("pattern", sorted(PRESENCE_PATTERNS))
def test_aggregate_costs_are_data_independent(pattern):
    # the min/max tournament: 31 matches of 2w + 3 ANDs and a w-AND root
    # mask, 849 ANDs at 32 x 12 bits, no fresh encryption, epoch 10 under
    # leveled:128; the count compressor: 31 ANDs and two zero columns
    ladder, keys = keygen(SecurityContext("leveled", 8, 128), seed=b"agg-l")
    presence = PRESENCE_PATTERNS[pattern]
    rng = random.Random(9)
    values = [rng.randrange(4096) for _ in range(32)]
    t = encrypt_table(ladder.public_key(),
                      PlainTable(W12, [(v,) for v in values]),
                      presence=presence, name="t")
    present = [v for v, p in zip(values, presence) if p]
    for fn, want in ((op_min, min(present, default=0)),
                     (op_max, max(present, default=0))):
        out, cost = _leveled_cost(ladder.state, fn, "w", t)
        assert decrypt_word(keys, out) == want, fn.__name__
        assert cost == (849, 1860, 0), fn.__name__
        assert max(b.epoch for b in out.bits) == 10, fn.__name__
    out, cost = _leveled_cost(ladder.state, op_count, t, 8)
    assert decrypt_word(keys, out) == len(present)
    assert cost == (31, 0, 2)
