"""Gate-kernel semantics: truth tables, depth accounting, refresh, epochs."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

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
    below = kernel.bit_from_parts(s, 1, 1, 3, 0)
    assert kernel.settle(below) is below
    assert s.refresh_count == 0
    settled = kernel.settle(kernel.bit_from_parts(s, 1, 1, 4, 0))
    assert (settled.depth, s.refresh_count) == (0, 1)
    assert kernel._reveal(settled) == 1


def test_fan_out_refreshes_any_depth_in_circular_mode():
    s = make_state(budget=4)
    shallow = kernel.bit_from_parts(s, 1, 1, 0, 0)
    assert kernel.fan_out(shallow) is shallow
    assert s.refresh_count == 0
    out = kernel.fan_out(kernel.bit_from_parts(s, 1, 1, 1, 0))
    assert (out.epoch, out.depth, s.refresh_count) == (1, 0, 1)
    assert kernel._reveal(out) == 1


def test_fan_out_settles_in_leveled_mode():
    s = make_state(mode="leveled", budget=4, epochs=3)
    below = kernel.bit_from_parts(s, 1, 1, 3, 0)
    assert kernel.fan_out(below) is below
    assert s.refresh_count == 0
    out = kernel.fan_out(kernel.bit_from_parts(s, 1, 1, 4, 0))
    assert (out.epoch, out.depth, s.refresh_count) == (2, 0, 1)
    assert kernel._reveal(out) == 1


@pytest.mark.parametrize("top_first", [True, False])
def test_overflowing_and_refreshes_only_the_operand_at_the_budget(top_first):
    s = make_state(budget=4)
    top = kernel.bit_from_parts(s, 1, 1, 4, 0)
    mid = kernel.bit_from_parts(s, 1, 1, 2, 0)
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


def test_nonce_stream_is_reference_splitmix64():
    # known-answer vector for the splitmix64 generator, seed 0
    s = make_state(seed=0)
    got = [kernel._nonce_of(kernel.fresh_bit(s, 0, 1)) for _ in range(3)]
    assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_nonces_distinct():
    s = make_state(seed=7)
    rng = random.Random(7)
    seen = {kernel._nonce_of(kernel.fresh_bit(s, rng.randint(0, 1), 1))
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
    """``c`` in its wire form, a width-1 word."""
    return serial.word_to_obj(ladder, CipherWord((c,)))


# sha256 of the gate_outputs of gate_ladder, each serialized as a width-1
# word in wire format v2
GATE_NONCES_SHA = (
    "d909380ceaf5a0f62960769d9db1e9a3a01fa5c8383b1ce6a58aa3d3e0de1358")


def test_gate_minted_nonces_are_pinned():
    ladder = gate_ladder()
    outs = gate_outputs(ladder.state)
    assert ladder.state.refresh_count == 3  # settle, lift in the AND, lift
    assert [c.epoch for c in outs] == [1, 1, 1, 1, 1, 1, 2, 3]
    text = json.dumps([bit_obj(ladder, c) for c in outs])
    assert hashlib.sha256(text.encode()).hexdigest() == GATE_NONCES_SHA


# sha256 of (nonce, epoch, depth, payload) of every gate_outputs bit: read
# from the kernel alone, so it pins the nonce stream whatever the wire form
GATE_BIT_TUPLES_SHA = (
    "3a886ed734ec8bafd7c8a60051536a764c57792d8f54f94b5b712da28d4e8eb8")


def test_gate_minted_bit_tuples_are_pinned():
    ladder = gate_ladder()
    outs = gate_outputs(ladder.state)
    text = json.dumps([(kernel._nonce_of(c), c.epoch, c.depth,
                        kernel._reveal(c)) for c in outs])
    assert hashlib.sha256(text.encode()).hexdigest() == GATE_BIT_TUPLES_SHA


def test_decoded_gate_output_re_encodes_byte_exactly():
    ladder = gate_ladder()
    outs = gate_outputs(ladder.state)
    for c in outs:
        obj = bit_obj(ladder, c)
        (back,) = serial.word_from_obj(ladder, obj).bits
        assert bit_obj(ladder, back) == obj
        assert kernel._nonce_of(back) == kernel._nonce_of(c)
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
    nonces = {kernel._nonce_of(c) for c in outs}
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
    # settled first, then lifted, since each operand feeds two gates
    a, b = kernel.settle(a), kernel.settle(b)
    return _on_top_epoch(lambda a, b: kernel.xor(
        kernel.xor(a, b), kernel.and_(a, b)))(a, b)


# (name, arity, gates, composition)
FUSED = [
    ("bit_mux", 3, 3, _on_top_epoch(lambda f, x, y: kernel.xor(
        y, kernel.and_(f, kernel.xor(x, y))))),
    ("bit_swap", 3, 4, _on_top_epoch(_swap_composition)),
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
    return ([(kernel._nonce_of(c), c.epoch, c.depth, kernel._reveal(c))
             for c in outs], *_spent(s))


def _run_twins(name, composition, mode, operands, fault=None):
    """The fused primitive and its composition on twin ladders, over
    operands given as (payload, epoch, depth); what each left behind."""
    seen = []
    for s, fn in zip(_twin_states(mode),
                     (getattr(kernel, name), composition)):
        bits = [kernel.bit_from_parts(s, p, e, d, 1000 + i)
                for i, (p, e, d) in enumerate(operands)]
        if fault is not None:
            s.fault_gate = fault
        seen.append(_observe(s, fn(*bits)))
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
        fused, reference = _run_twins(name, composition, mode, operands)
        assert fused == reference, (operands, fused, reference)


@pytest.mark.parametrize("name, arity, gates, composition", FUSED,
                         ids=FUSED_IDS)
@pytest.mark.parametrize("mode", ["circular", "leveled"])
def test_fused_primitive_with_a_fault_at_each_gate(name, arity, gates,
                                                   composition, mode):
    epochs = (1,) if mode == "circular" else (1, 2)
    for operands in _operand_grid(arity, epochs):
        for position in range(1, gates + 1):
            fused, reference = _run_twins(name, composition, mode, operands,
                                          fault=position)
            assert fused == reference, (operands, position)


@pytest.mark.parametrize("name, arity, gates, composition", FUSED,
                         ids=FUSED_IDS)
def test_fused_primitive_refuses_mixed_ladders(name, arity, gates,
                                               composition):
    # at one epoch and at several, the refusal comes before any gate,
    # lift or settle on either ladder
    for stranger in range(arity):
        for epochs in itertools.product((1, 2), repeat=arity):
            home, away = (make_state(mode="leveled", budget=BUDGET, epochs=3)
                          for _ in range(2))
            bits = [kernel.fresh_bit(away if i == stranger else home, 1, e)
                    for i, e in enumerate(epochs)]
            before = [_spent(s) for s in (home, away)]
            with pytest.raises(LadderMismatch):
                getattr(kernel, name)(*bits)
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
