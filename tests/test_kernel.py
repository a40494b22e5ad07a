"""Gate-kernel semantics: truth tables, depth accounting, refresh, epochs."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hequel import bench, kernel, serial
from hequel.circuits import CipherWord
from hequel.crypto import SecurityContext, keygen
from hequel.errors import LadderExhausted, LadderMismatch


def make_state(mode="circular", budget=8, epochs=1, seed=0):
    mode_id = kernel.MODE_CIRCULAR if mode == "circular" else kernel.MODE_LEVELED
    return kernel.KernelState(mode_id, budget, epochs, seed, "test-ladder")


def test_truth_tables():
    s = make_state()
    for a in (0, 1):
        for b in (0, 1):
            ea, eb = kernel.fresh_bit(s, a, 1), kernel.fresh_bit(s, b, 1)
            assert kernel._reveal(kernel.xor(ea, eb)) == a ^ b
            assert kernel._reveal(kernel.and_(ea, eb)) == a & b
        assert kernel._reveal(kernel.not_(kernel.fresh_bit(s, a, 1))) == 1 - a


def test_depth_accounting():
    s = make_state(budget=8)
    a = kernel.fresh_bit(s, 1, 1)
    b = kernel.fresh_bit(s, 1, 1)
    assert a.depth == 0
    x = kernel.xor(a, b)
    assert x.depth == 0
    c = kernel.and_(a, b)
    assert c.depth == 1
    d = kernel.and_(c, c)
    assert d.depth == 2
    # XOR carries the deeper operand's level, NOT adds nothing
    assert kernel.xor(d, a).depth == 2
    assert kernel.not_(d).depth == 2


def test_auto_refresh_keeps_depth_legal():
    s = make_state(budget=3)
    acc = kernel.fresh_bit(s, 1, 1)
    for _ in range(10):
        acc = kernel.and_(acc, kernel.fresh_bit(s, 1, 1))
        assert acc.depth <= 3
    assert kernel._reveal(acc) == 1
    assert s.refresh_count > 0


def test_circular_refresh_same_epoch():
    s = make_state(mode="circular")
    c = kernel.and_(kernel.fresh_bit(s, 1, 1), kernel.fresh_bit(s, 1, 1))
    r = kernel.refresh(c)
    assert (r.epoch, r.depth) == (1, 0)
    assert kernel._reveal(r) == 1


def test_leveled_refresh_advances_epoch():
    s = make_state(mode="leveled", epochs=3)
    c = kernel.fresh_bit(s, 1, 1)
    r1 = kernel.refresh(c)
    r2 = kernel.refresh(r1)
    assert (r1.epoch, r2.epoch) == (2, 3)
    with pytest.raises(LadderExhausted):
        kernel.refresh(r2)


def test_cross_epoch_gate_lifts_lower_operand():
    s = make_state(mode="leveled", epochs=3)
    lo = kernel.fresh_bit(s, 1, 1)
    hi = kernel.fresh_bit(s, 1, 3)
    out = kernel.and_(lo, hi)
    assert out.epoch == 3
    assert kernel._reveal(out) == 1
    out2 = kernel.xor(hi, kernel.fresh_bit(s, 0, 2))
    assert out2.epoch == 3
    assert kernel._reveal(out2) == 1


def test_leveled_exhaustion_at_top_epoch():
    # depth forces a refresh but no next key exists
    s = make_state(mode="leveled", budget=1, epochs=1)
    a = kernel.and_(kernel.fresh_bit(s, 1, 1), kernel.fresh_bit(s, 1, 1))
    with pytest.raises(LadderExhausted):
        kernel.and_(a, a)


def test_settle_refreshes_only_a_bit_at_the_budget():
    s = make_state(budget=4)
    below = kernel.CipherBit(s, 1, 1, 3, 0)
    assert kernel.settle(below) is below
    assert s.refresh_count == 0
    settled = kernel.settle(kernel.CipherBit(s, 1, 1, 4, 0))
    assert (settled.depth, s.refresh_count) == (0, 1)
    assert kernel._reveal(settled) == 1


def test_fan_out_refreshes_any_depth_in_circular_mode():
    s = make_state(budget=4)
    shallow = kernel.CipherBit(s, 1, 1, 0, 0)
    assert kernel.fan_out(shallow) is shallow
    assert s.refresh_count == 0
    out = kernel.fan_out(kernel.CipherBit(s, 1, 1, 1, 0))
    assert (out.epoch, out.depth, s.refresh_count) == (1, 0, 1)
    assert kernel._reveal(out) == 1


def test_fan_out_settles_in_leveled_mode():
    s = make_state(mode="leveled", budget=4, epochs=3)
    below = kernel.CipherBit(s, 1, 1, 3, 0)
    assert kernel.fan_out(below) is below
    assert s.refresh_count == 0
    out = kernel.fan_out(kernel.CipherBit(s, 1, 1, 4, 0))
    assert (out.epoch, out.depth, s.refresh_count) == (2, 0, 1)
    assert kernel._reveal(out) == 1


@pytest.mark.parametrize("top_first", [True, False])
def test_overflowing_and_refreshes_only_the_operand_at_the_budget(top_first):
    s = make_state(budget=4)
    top = kernel.CipherBit(s, 1, 1, 4, 0)
    mid = kernel.CipherBit(s, 1, 1, 2, 0)
    out = kernel.and_(top, mid) if top_first else kernel.and_(mid, top)
    assert (s.refresh_count, out.depth) == (1, 3)
    assert kernel._reveal(out) == 1


def test_lift_spends_one_refresh_per_epoch():
    s = make_state(mode="leveled", epochs=5)
    c = kernel.fresh_bit(s, 1, 2)
    lifted = kernel.lift(c, 5)
    assert (lifted.epoch, lifted.depth, s.refresh_count) == (5, 0, 3)
    assert kernel._reveal(lifted) == 1
    assert kernel.lift(lifted, 5) is lifted
    assert kernel.lift(c, 1) is c
    assert s.refresh_count == 3


def test_lift_is_the_identity_in_circular_mode():
    s = make_state(mode="circular")
    c = kernel.and_(kernel.fresh_bit(s, 1, 1),
                        kernel.fresh_bit(s, 1, 1))
    assert kernel.lift(c, 1) is c
    assert s.refresh_count == 0


def test_ladder_mismatch():
    s1 = make_state()
    s2 = make_state()
    a = kernel.fresh_bit(s1, 1, 1)
    b = kernel.fresh_bit(s2, 1, 1)
    with pytest.raises(LadderMismatch):
        kernel.xor(a, b)


def test_counters():
    s = make_state()
    a = kernel.fresh_bit(s, 1, 1)
    b = kernel.fresh_bit(s, 0, 1)
    assert s.encrypt_count == 2
    kernel.xor(a, b)
    kernel.and_(a, b)
    assert (s.xor_count, s.and_count) == (1, 1)
    assert s.gate_total() == 2
    kernel.not_(a)  # one fresh constant + one XOR
    assert (s.xor_count, s.encrypt_count) == (2, 3)


def test_fault_gate_flips_exactly_one_output():
    s = make_state()
    s.fault_gate = 2
    a = kernel.fresh_bit(s, 1, 1)
    b = kernel.fresh_bit(s, 1, 1)
    first = kernel.xor(a, b)
    second = kernel.xor(a, b)
    third = kernel.xor(a, b)
    assert kernel._reveal(first) == 0
    assert kernel._reveal(second) == 1  # flipped
    assert kernel._reveal(third) == 0


MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64_finalizer(z: int) -> int:
    """splitmix64's output function (Steele, Lea and Flood, OOPSLA 2014),
    a bijection on 64-bit ints. The bit-tuple pins hash each nonce through
    it, so they pin every counter value all the same."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def test_nonce_stream_is_reference_splitmix64():
    # the nonces are splitmix64's counter values at seed 0, and its
    # finalizer maps them to the generator's known-answer vector
    s = make_state(seed=0)
    got = [kernel.fresh_bit(s, 0, 1)._nonce for _ in range(3)]
    assert got == [i * GAMMA & MASK64 for i in (1, 2, 3)]
    assert [splitmix64_finalizer(n) for n in got] == \
        [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_nonces_distinct():
    s = make_state(seed=7)
    rng = random.Random(7)
    seen = {kernel.fresh_bit(s, rng.randint(0, 1), 1)._nonce
            for _ in range(500)}
    assert len(seen) == 500


def gate_ladder():
    """A 3-epoch leveled ladder under budget 2 with a fixed seed."""
    ladder, _ = keygen(SecurityContext(mode="leveled", depth_budget=2,
                                       epochs=3), seed=b"gate-nonces")
    return ladder


def gate_outputs(s):
    """One output of each nonce-minting path, in a fixed order."""
    a, b = kernel.fresh_bit(s, 1, 1), kernel.fresh_bit(s, 0, 1)
    x = kernel.xor(a, b)
    y = kernel.and_(a, x)
    n = kernel.not_(y)
    deep = kernel.and_(y, x)  # at the budget
    settled = kernel.and_(deep, y)  # over it: settles deep, lifts y to match
    lifted = kernel.lift(settled, 3)
    return [a, b, x, y, n, deep, settled, lifted]


def bit_obj(ladder, c) -> dict:
    """``c`` in the stepped wire form (v4), a width-1 word, whatever its
    depth: the nonce goes to ``serial._word_obj`` as a list, with no
    steps."""
    _, _, payload, epochs, depths = kernel._wire_parts((c,))
    return serial._word_obj(ladder, [c._nonce], [], payload, epochs, depths)


# sha256 of the gate_outputs of gate_ladder, each serialized as a width-1
# word in wire format v4. A 1-bit v4 word holds v2's blob, so the move
# from v2 changed only each word's "v"
GATE_NONCES_SHA = (
    "ced8903e8581bfda956ea75fee278bd86d6b047fd48b0521624242653d47fa26")


def test_gate_minted_nonces_are_pinned():
    ladder = gate_ladder()
    outs = gate_outputs(ladder.state)
    assert ladder.state.refresh_count == 3  # settle, lift in the AND, lift
    assert [c.epoch for c in outs] == [1, 1, 1, 1, 1, 1, 2, 3]
    text = json.dumps([bit_obj(ladder, c) for c in outs])
    assert hashlib.sha256(text.encode()).hexdigest() == GATE_NONCES_SHA


# sha256 of (finalized nonce, epoch, depth, payload) of every gate_outputs
# bit: read from the kernel alone, so it pins the nonce stream whatever the
# wire form
GATE_BIT_TUPLES_SHA = (
    "3a886ed734ec8bafd7c8a60051536a764c57792d8f54f94b5b712da28d4e8eb8")


def test_gate_minted_bit_tuples_are_pinned():
    ladder = gate_ladder()
    outs = gate_outputs(ladder.state)
    text = json.dumps([(splitmix64_finalizer(c._nonce), c.epoch,
                        c.depth, kernel._reveal(c)) for c in outs])
    assert hashlib.sha256(text.encode()).hexdigest() == GATE_BIT_TUPLES_SHA


def test_decoded_gate_output_re_encodes_byte_exactly():
    ladder = gate_ladder()
    outs = gate_outputs(ladder.state)
    for c in outs:
        # a bit at depth 0 is a one-bit fresh run, which travels seeded
        obj = serial.word_to_obj(ladder, CipherWord((c,)))
        if c.depth:
            assert obj == bit_obj(ladder, c)
        else:
            assert obj["v"] == serial.SEEDED_VERSION
        (back,) = serial.word_from_obj(ladder, obj).bits
        assert serial.word_to_obj(ladder, CipherWord((back,))) == obj
        assert back._nonce == c._nonce
    # the same bits as one word, whose epochs and depths differ per bit
    obj = serial.word_to_obj(ladder, CipherWord(tuple(outs)))
    assert obj["epoch"] == [1, 1, 1, 1, 1, 1, 2, 3]
    assert isinstance(obj["depth"], list)
    back = serial.word_from_obj(ladder, obj)
    assert serial.word_to_obj(ladder, back) == obj
    assert [kernel._reveal(b) for b in back.bits] == \
        [kernel._reveal(c) for c in outs]


def test_gate_outputs_read_distinct_nonces():
    s = make_state(seed=7)
    a, b = kernel.fresh_bit(s, 1, 1), kernel.fresh_bit(s, 0, 1)
    outs = [gate(a, b) for _ in range(250)
            for gate in (kernel.xor, kernel.and_)]
    nonces = {c._nonce for c in outs}
    assert len(nonces) == 500
    assert all(0 <= n <= kernel._MASK64 for n in nonces)


def test_cipherbit_is_opaque():
    s = make_state()
    c = kernel.fresh_bit(s, 1, 1)
    assert not hasattr(c, "payload")
    # repr names only public metadata, never the hidden bit
    assert repr(c) == f"CipherBit(epoch={c.epoch}, depth={c.depth})"


def test_bench_gates_counts_every_gate():
    result = bench.bench_gates(kernel.KERNEL_NAME, 10)
    assert (result.kernel, result.units, result.gates) == ("py", 10, 10)
    assert result.gates_per_sec > 0
    with pytest.raises(ValueError):
        bench.bench_gates("native", 10)


# Each fused one-AND primitive and the gate composition that defines it,
# run on its operands lifted to their top epoch, each once and in argument
# order; on operands of one epoch the lifts are the identity.
def _on_top_epoch(composition):
    def run(*bits):
        top = max(b.epoch for b in bits)
        return composition(*(kernel.lift(b, top) for b in bits))
    return run


def _swap_composition(f, x, y):
    t = kernel.and_(f, kernel.xor(x, y))
    return kernel.xor(x, t), kernel.xor(y, t)


def _or_composition(a, b):
    # the select a ? a : b, settled first, then lifted, since each operand
    # feeds two gates
    a, b = kernel.settle(a), kernel.settle(b)
    return _on_top_epoch(lambda a, b: kernel.xor(
        b, kernel.and_(a, kernel.xor(a, b))))(a, b)


# (name, arity, gates, composition)
FUSED = [
    ("bit_mux", 3, 3, _on_top_epoch(lambda f, x, y: kernel.xor(
        y, kernel.and_(f, kernel.xor(x, y))))),
    ("bit_or", 2, 3, _or_composition),
    ("bit_and_not", 2, 2, _on_top_epoch(lambda a, b: kernel.xor(
        a, kernel.and_(a, b)))),
]
FUSED_IDS = [name for name, *_ in FUSED]
BUDGET = 3


def _twin_states(mode):
    """Two fresh ladders with equal parameters and nonce seed; a leveled
    one has room to lift and settle every operand."""
    epochs = 1 if mode == "circular" else 8
    return [make_state(mode=mode, budget=BUDGET, epochs=epochs, seed=11)
            for _ in range(2)]


def _spent(s):
    return ((s.xor_count, s.and_count, s.refresh_count, s.encrypt_count),
            s.nonce_state)


def _observe(s, out):
    outs = out if isinstance(out, tuple) else (out,)
    return ([(c._nonce, c.epoch, c.depth, kernel._reveal(c))
             for c in outs], *_spent(s))


def _run_twins(primitive, composition, mode, operands, fault=None):
    """The fused primitive and its composition on twin ladders, over
    operands given as (payload, epoch, depth); what each left behind,
    with the copy each operand's lift leaves in the scope, which a later
    lift returns. The compositions lift their operands in argument order
    before their first gate."""
    seen = []
    for s, fn in zip(_twin_states(mode), (primitive, composition)):
        bits = [kernel.CipherBit(s, p, e, d, 1000 + i)
                for i, (p, e, d) in enumerate(operands)]
        if fault is not None:
            s.fault_gate = fault
        out = _observe(s, fn(*bits))
        top = max(b.epoch for b in bits)
        copies = [kernel.lift(b, top)._nonce for b in bits]
        seen.append((*out, copies))
    return seen


def _operand_grid(arity, epochs_per_operand):
    for payloads in itertools.product((0, 1), repeat=arity):
        for depths in itertools.product(range(BUDGET + 1), repeat=arity):
            for epochs in itertools.product(epochs_per_operand, repeat=arity):
                yield list(zip(payloads, epochs, depths))


@pytest.mark.parametrize("name, arity, gates, composition", FUSED,
                         ids=FUSED_IDS)
@pytest.mark.parametrize("mode", ["circular", "leveled"])
def test_fused_primitive_equals_its_gate_composition(name, arity, gates,
                                                     composition, mode):
    # every payload combination, every depth 0..budget, and in leveled mode
    # equal and unequal epochs; circular mode has one epoch, so only equal
    epochs = (1,) if mode == "circular" else (1, 2)
    for operands in _operand_grid(arity, epochs):
        fused, reference = _run_twins(getattr(kernel, name), composition,
                                      mode, operands)
        assert fused == reference, (operands, fused, reference)


@pytest.mark.parametrize("name, arity, gates, composition", FUSED,
                         ids=FUSED_IDS)
@pytest.mark.parametrize("mode", ["circular", "leveled"])
def test_fused_primitive_with_a_fault_at_each_gate(name, arity, gates,
                                                   composition, mode):
    epochs = (1,) if mode == "circular" else (1, 2)
    for operands in _operand_grid(arity, epochs):
        for position in range(1, gates + 1):
            fused, reference = _run_twins(getattr(kernel, name),
                                          composition, mode, operands,
                                          fault=position)
            assert fused == reference, (operands, position)


@pytest.mark.parametrize("name, arity, gates, composition", FUSED,
                         ids=FUSED_IDS)
def test_fused_primitive_refuses_mixed_ladders(name, arity, gates,
                                               composition):
    # at one epoch and at several, with no operand or one at the depth
    # budget, the refusal comes before any gate, lift or settle on either
    # ladder
    for stranger in range(arity):
        for deep in (None, *range(arity)):
            for epochs in itertools.product((1, 2), repeat=arity):
                home, away = (make_state(mode="leveled", budget=BUDGET,
                                         epochs=3) for _ in range(2))
                bits = [kernel.CipherBit(
                            away if i == stranger else home, 1, e,
                            BUDGET if i == deep else 0, 1000 + i)
                        for i, e in enumerate(epochs)]
                before = [_spent(s) for s in (home, away)]
                with pytest.raises(LadderMismatch):
                    getattr(kernel, name)(*bits)
                assert [_spent(s) for s in (home, away)] == before


# ``bits_swap`` at length 1 is the one-bit swap, held to the FUSED checks:
# the exhaustive operand grid at BUDGET against its composition on
# operands lifted to their top epoch, a fault at each of its four gates,
# and refusal of a mixed-ladder call.
def _swap_one_bit(f, x, y):
    (a,), (b,) = kernel.bits_swap(f, (x,), (y,))
    return a, b


@pytest.mark.parametrize("mode", ["circular", "leveled"])
def test_one_bit_swap_equals_its_gate_composition(mode):
    epochs = (1,) if mode == "circular" else (1, 2)
    for operands in _operand_grid(3, epochs):
        swapped, reference = _run_twins(
            _swap_one_bit, _on_top_epoch(_swap_composition), mode, operands)
        assert swapped == reference, (operands, swapped, reference)


@pytest.mark.parametrize("mode", ["circular", "leveled"])
def test_one_bit_swap_with_a_fault_at_each_gate(mode):
    epochs = (1,) if mode == "circular" else (1, 2)
    for operands in _operand_grid(3, epochs):
        for position in range(1, 5):
            swapped, reference = _run_twins(
                _swap_one_bit, _on_top_epoch(_swap_composition), mode,
                operands, fault=position)
            assert swapped == reference, (operands, position)


def test_one_bit_swap_refuses_mixed_ladders():
    for stranger in range(3):
        for epochs in itertools.product((1, 2), repeat=3):
            home, away = (make_state(mode="leveled", budget=BUDGET, epochs=3)
                          for _ in range(2))
            bits = [kernel.fresh_bit(away if i == stranger else home, 1, e)
                    for i, e in enumerate(epochs)]
            before = [_spent(s) for s in (home, away)]
            with pytest.raises(LadderMismatch):
                _swap_one_bit(*bits)
            assert [_spent(s) for s in (home, away)] == before


def test_lift_reuses_its_copy_within_a_scope():
    s = make_state(mode="leveled", epochs=4)
    c = kernel.fresh_bit(s, 1, 1)
    up = kernel.lift(c, 3)
    assert (up.epoch, s.refresh_count) == (3, 2)
    # a second lift, to the same epoch or part of the way, pays nothing
    assert kernel.lift(c, 3) is up
    assert kernel.lift(c, 2).epoch == 2
    assert s.refresh_count == 2
    # a longer lift reuses the steps already taken and pays for the rest
    assert kernel.lift(c, 4).epoch == 4
    assert s.refresh_count == 3


def test_lift_pays_again_in_a_new_scope():
    s = make_state(mode="leveled", epochs=4)
    c = kernel.fresh_bit(s, 1, 1)
    up = kernel.lift(c, 3)
    kernel.open_scope(s)
    again = kernel.lift(c, 3)
    assert again is not up
    assert s.refresh_count == 4
    assert kernel.lift(c, 3) is again
    assert s.refresh_count == 4


def test_settle_and_circular_lift_keep_no_copy():
    s = make_state(mode="leveled", budget=1, epochs=4)
    a = kernel.fresh_bit(s, 1, 1)
    deep = kernel.and_(a, a)
    assert kernel.settle(deep) is not kernel.settle(deep)
    assert s.refresh_count == 2
    circ = make_state()
    c = kernel.fresh_bit(circ, 1, 1)
    assert kernel.lift(c, 1) is c
    assert circ.refresh_count == 0


# Each word primitive and the per-bit gate composition that defines it, in
# the same gate order: the FUSED compositions above, one per bit pair.
_MUX_COMPOSITION = FUSED[0][3]


def _differ_composition(xs, ys):
    return kernel.pairwise(_or_composition,
                           [kernel.xor(x, y) for x, y in zip(xs, ys)])


def _mux_bits_composition(f, xs, ys):
    return tuple(_MUX_COMPOSITION(f, x, y) for x, y in zip(xs, ys))


def _swap_bits_composition(f, xs, ys):
    pairs = [_on_top_epoch(_swap_composition)(f, x, y)
             for x, y in zip(xs, ys)]
    return tuple(a for a, _ in pairs), tuple(b for _, b in pairs)


def _xor_bits_composition(xs, ys):
    return tuple(kernel.xor(x, y) for x, y in zip(xs, ys))


def _settle_bits_composition(bits):
    return tuple(kernel.settle(b) for b in bits)


def _gt_composition(xs, ts):
    g = kernel.and_(ts[-1], xs[-1])
    for x, t in zip(xs[-2::-1], ts[-2::-1]):
        g = _MUX_COMPOSITION(t, x, kernel.settle(g))
    return g


# (name, operand shape: "b" a single bit, "w" a word of n bits, composition)
WORD = [
    ("bits_differ", "ww", _differ_composition),
    ("bits_mux", "bww", _mux_bits_composition),
    ("bits_swap", "bww", _swap_bits_composition),
    ("bits_gt", "ww", _gt_composition),
    ("bits_xor", "ww", _xor_bits_composition),
    ("bits_settle", "w", _settle_bits_composition),
]
WORD_IDS = [name for name, *_ in WORD]
# deep enough that a 16-bit OR tree over shallow bits needs no settle
WORD_BUDGET = 6
WORD_LENGTHS = (1, 2, 3, 5, 16)


def _flat(out):
    if isinstance(out, kernel.CipherBit):
        return (out,)
    return tuple(c for part in out for c in _flat(part))


def _run_word_twins(name, composition, mode, groups, fault=None):
    """The word primitive and its composition on twin ladders, over
    operand groups of (payload, epoch, depth) triples: one triple for a
    bit, a list of them for a word. Returns what each left behind."""
    seen = []
    epochs = 1 if mode == "circular" else 40
    for fn in (getattr(kernel, name), composition):
        s = make_state(mode=mode, budget=WORD_BUDGET, epochs=epochs, seed=11)
        nonces = itertools.count(1000)
        args = [kernel.CipherBit(s, *g, next(nonces))
                if isinstance(g, tuple) else
                tuple(kernel.CipherBit(s, *b, next(nonces)) for b in g)
                for g in groups]
        if fault is not None:
            s.fault_gate = fault
        seen.append(_observe(s, _flat(fn(*args))))
    return seen


def _word_cases(shape, n, mode):
    """Derandomized operand groups for one shape and length: every bit at
    each depth 0..budget on one epoch (the inline path where it fits), one
    bit at the budget or a newer epoch at each position, and seeded mixes
    of depths and, in leveled mode, epochs."""
    rng = random.Random(f"{shape}-{n}-{mode}")
    epochs = (1,) if mode == "circular" else (1, 2)
    size = sum(1 if k == "b" else n for k in shape)

    def groups(bits):
        it = iter(bits)
        return [next(it) if k == "b" else [next(it) for _ in range(n)]
                for k in shape]

    def pay():
        return rng.randint(0, 1)

    for d in range(WORD_BUDGET + 1):
        yield groups([(pay(), 1, d) for _ in range(size)])
    for i in range(size):
        odd = (pay(), epochs[-1], WORD_BUDGET if len(epochs) == 1 else 0)
        yield groups([odd if j == i else (pay(), 1, 1) for j in range(size)])
    for _ in range(12):
        yield groups([(pay(), rng.choice(epochs),
                       rng.randint(0, WORD_BUDGET)) for _ in range(size)])


@pytest.mark.parametrize("name, shape, composition", WORD, ids=WORD_IDS)
@pytest.mark.parametrize("mode", ["circular", "leveled"])
def test_word_primitive_equals_its_gate_composition(name, shape, composition,
                                                    mode):
    for n in WORD_LENGTHS:
        for groups in _word_cases(shape, n, mode):
            word, reference = _run_word_twins(name, composition, mode, groups)
            assert word == reference, (n, groups)


@pytest.mark.parametrize("name, shape, composition", WORD, ids=WORD_IDS)
@pytest.mark.parametrize("mode", ["circular", "leveled"])
def test_word_primitive_with_a_fault_at_each_gate(name, shape, composition,
                                                  mode):
    for n in (1, 3, 5):
        for groups in list(_word_cases(shape, n, mode))[::4]:
            _, (_, (xors, ands, *_), _) = _run_word_twins(
                name, composition, mode, groups)
            for position in range(1, xors + ands + 1):
                word, reference = _run_word_twins(name, composition, mode,
                                                  groups, fault=position)
                assert word == reference, (n, groups, position)


@pytest.mark.parametrize("name, shape, composition", WORD, ids=WORD_IDS)
def test_word_primitive_refuses_a_stranger_bit_anywhere(name, shape,
                                                        composition):
    # the refusal comes before any gate, lift or settle on either ladder,
    # also where the bits before the stranger would lift or settle
    n = 3
    size = sum(1 if k == "b" else n for k in shape)
    for stranger in range(size):
        home, away = (make_state(mode="leveled", budget=WORD_BUDGET,
                                 epochs=4) for _ in range(2))
        bits = [kernel.CipherBit(away if i == stranger else home,
                                 1, 1 + i % 2, WORD_BUDGET * (i % 3 == 0), i)
                for i in range(size)]
        it = iter(bits)
        args = [next(it) if k == "b" else tuple(next(it) for _ in range(n))
                for k in shape]
        before = [_spent(s) for s in (home, away)]
        with pytest.raises(LadderMismatch):
            getattr(kernel, name)(*args)
        assert [_spent(s) for s in (home, away)] == before


# ``bits_swap`` has no inline path, so it is left out here
INLINE = [w for w in WORD if w[0] != "bits_swap"]


@pytest.mark.parametrize("name, shape, composition", INLINE,
                         ids=[name for name, *_ in INLINE])
def test_word_primitive_inline_path_calls_no_gate(name, shape, composition,
                                                  monkeypatch):
    # shallow bits on one epoch, no fault: the whole word is inline, so no
    # gate or one-AND primitive is called, and the outputs still match
    s = make_state(budget=WORD_BUDGET)
    n = 16  # a comparator chain this long settles g inline
    args = [kernel.fresh_bit(s, 1, 1) if k == "b" else
            tuple(kernel.fresh_bit(s, i % 2, 1) for i in range(n))
            for k in shape]

    def refuse(*_):
        raise AssertionError("the inline path called a gate")
    for gate in ("xor", "and_", "refresh", "lift", "bit_mux", "bit_or"):
        monkeypatch.setattr(kernel, gate, refuse)
    out = _flat(getattr(kernel, name)(*args))
    assert out and all(c.epoch == 1 and c.depth >= 0 for c in out)


# The minting and wire helpers do in one call what the per-bit functions
# do bit by bit, and are held equal to them here.


@pytest.mark.parametrize("width", [1, 2, 7, 12, 64])
def test_fresh_word_equals_fresh_bit_per_bit(width):
    rng = random.Random(width)
    for value in (0, (1 << width) - 1, rng.randrange(1 << width)):
        for epoch in (1, 3):
            seed = rng.getrandbits(64)
            word_s, bit_s = (make_state(mode="leveled", epochs=3, seed=seed)
                             for _ in range(2))
            word = kernel.fresh_word(word_s, value, width, epoch)
            bits = tuple(kernel.fresh_bit(bit_s, value >> i & 1, epoch)
                         for i in reversed(range(width)))
            assert _observe(word_s, word) == _observe(bit_s, bits)
            assert word_s.encrypt_count == width


@pytest.mark.parametrize("n", [0, 1, 5, 300])
def test_fresh_wire_nonces_equal_fresh_bits_read_off(n):
    seed = random.Random(n).getrandbits(64)
    wire_s, bit_s = (make_state(seed=seed) for _ in range(2))
    run = kernel._fresh_wire_nonces(wire_s, n)
    bits = [kernel.fresh_bit(bit_s, 0, 1) for _ in range(n)]
    # the run's items name their nonces modulo 2^64
    assert [z & (2**64 - 1) for z in run] == [c._nonce for c in bits]
    assert _spent(wire_s) == _spent(bit_s)


def test_word_from_parts_equals_the_constructor_per_bit():
    rng = random.Random(5)
    s = make_state(mode="leveled", epochs=9)
    for width in (1, 3, 8, 64):
        payload = rng.getrandbits(width)
        nonces = [rng.getrandbits(64) for _ in range(width)]
        # one epoch and depth for every bit, as most words have, and mixes
        uniform = ([4] * width, [2] * width)
        mixed = ([rng.randint(1, 9) for _ in range(width)],
                 [rng.randint(0, 8) for _ in range(width)])
        for epochs, depths in (uniform, (mixed[0], uniform[1]),
                               (uniform[0], mixed[1]), mixed):
            want = tuple(kernel.CipherBit(s, payload >> i & 1, epochs[i],
                                          depths[i], nonces[i])
                         for i in range(width))
            got = kernel.word_from_parts(s, payload, epochs, depths, nonces)
            assert _observe(s, got) == _observe(s, want)


def test_wire_parts_read_what_word_from_parts_takes():
    ladder = gate_ladder()
    outs = tuple(gate_outputs(ladder.state))
    nonces, steps, payload, epochs, depths = kernel._wire_parts(outs)
    assert nonces == [c._nonce for c in outs]
    assert steps == kernel._nonce_steps(nonces)
    assert payload == sum(kernel._reveal(c) << i for i, c in enumerate(outs))
    assert (epochs, depths) == ([c.epoch for c in outs],
                                [c.depth for c in outs])
    back = kernel.word_from_parts(ladder.state, payload, epochs, depths,
                                  nonces)
    assert _observe(ladder.state, back) == _observe(ladder.state, outs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_nonce_steps_walk_back_to_their_nonces(nonces):
    # any nonces at all, so steps of every width and sign occur
    steps = kernel._nonce_steps(nonces)
    assert len(steps) == len(nonces) - 1
    for z, k, after in zip(nonces, steps, nonces[1:]):
        assert -2**63 <= k < 2**63
        assert (z + k * kernel._GAMMA) % 2**64 == after
    assert kernel._nonce_walk(nonces[0], steps) == nonces


def test_a_run_steps_by_one_and_a_mux_row_by_three():
    s = make_state(seed=5)
    s.nonce_state = 2**64 - 2 * kernel._GAMMA % 2**64  # the run wraps
    xs = kernel.fresh_word(s, 0b1011, 4, 1)
    ys = kernel.fresh_word(s, 0b0110, 4, 1)
    assert kernel._nonce_steps([b._nonce for b in xs]) == [1, 1, 1]
    muxed = kernel.bits_mux(kernel.fresh_bit(s, 1, 1), xs, ys)
    assert kernel._nonce_steps([b._nonce for b in muxed]) == [3, 3, 3]
    assert kernel._nonce_steps([b._nonce for b in muxed[::-1]]) == [-3] * 3
