"""Gate-kernel semantics: truth tables, depth accounting, refresh, epochs."""

from __future__ import annotations

import random

import pytest

from hequel import bench
from hequel import kernel as kernel_mod
from hequel.errors import LadderExhausted, LadderMismatch


def make_state(kernel, mode="circular", budget=8, epochs=1, seed=0):
    mode_id = kernel_mod.MODE_CIRCULAR if mode == "circular" else kernel_mod.MODE_LEVELED
    return kernel.new_state(mode_id, budget, epochs, seed, "test-ladder")


# parametrized by name so each case id records the kernel it ran on
@pytest.fixture(params=[kernel_mod.KERNEL_NAME])
def kernel(request):
    return kernel_mod


def test_truth_tables(kernel):
    s = make_state(kernel)
    for a in (0, 1):
        for b in (0, 1):
            ea, eb = kernel.fresh_bit(s, a, 1), kernel.fresh_bit(s, b, 1)
            assert kernel._reveal(kernel.xor(ea, eb)) == a ^ b
            assert kernel._reveal(kernel.and_(ea, eb)) == a & b
        assert kernel._reveal(kernel.not_(kernel.fresh_bit(s, a, 1))) == 1 - a


def test_depth_accounting(kernel):
    s = make_state(kernel, budget=8)
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


def test_auto_refresh_keeps_depth_legal(kernel):
    s = make_state(kernel, budget=3)
    acc = kernel.fresh_bit(s, 1, 1)
    for _ in range(10):
        acc = kernel.and_(acc, kernel.fresh_bit(s, 1, 1))
        assert acc.depth <= 3
    assert kernel._reveal(acc) == 1
    assert s.refresh_count > 0


def test_circular_refresh_same_epoch(kernel):
    s = make_state(kernel, mode="circular")
    c = kernel.and_(kernel.fresh_bit(s, 1, 1), kernel.fresh_bit(s, 1, 1))
    r = kernel.refresh(c)
    assert (r.epoch, r.depth) == (1, 0)
    assert kernel._reveal(r) == 1


def test_leveled_refresh_advances_epoch(kernel):
    s = make_state(kernel, mode="leveled", epochs=3)
    c = kernel.fresh_bit(s, 1, 1)
    r1 = kernel.refresh(c)
    r2 = kernel.refresh(r1)
    assert (r1.epoch, r2.epoch) == (2, 3)
    with pytest.raises(LadderExhausted):
        kernel.refresh(r2)


def test_cross_epoch_gate_lifts_lower_operand(kernel):
    s = make_state(kernel, mode="leveled", epochs=3)
    lo = kernel.fresh_bit(s, 1, 1)
    hi = kernel.fresh_bit(s, 1, 3)
    out = kernel.and_(lo, hi)
    assert out.epoch == 3
    assert kernel._reveal(out) == 1
    out2 = kernel.xor(hi, kernel.fresh_bit(s, 0, 2))
    assert out2.epoch == 3
    assert kernel._reveal(out2) == 1


def test_leveled_exhaustion_at_top_epoch(kernel):
    # depth forces a refresh but no next key exists
    s = make_state(kernel, mode="leveled", budget=1, epochs=1)
    a = kernel.and_(kernel.fresh_bit(s, 1, 1), kernel.fresh_bit(s, 1, 1))
    with pytest.raises(LadderExhausted):
        kernel.and_(a, a)


def test_ladder_mismatch(kernel):
    s1 = make_state(kernel)
    s2 = make_state(kernel)
    a = kernel.fresh_bit(s1, 1, 1)
    b = kernel.fresh_bit(s2, 1, 1)
    with pytest.raises(LadderMismatch):
        kernel.xor(a, b)


def test_counters(kernel):
    s = make_state(kernel)
    a = kernel.fresh_bit(s, 1, 1)
    b = kernel.fresh_bit(s, 0, 1)
    assert s.encrypt_count == 2
    kernel.xor(a, b)
    kernel.and_(a, b)
    assert (s.xor_count, s.and_count) == (1, 1)
    assert s.gate_total() == 2
    kernel.not_(a)  # one fresh constant + one XOR
    assert (s.xor_count, s.encrypt_count) == (2, 3)


def test_fault_gate_flips_exactly_one_output(kernel):
    s = make_state(kernel)
    s.fault_gate = 2
    a = kernel.fresh_bit(s, 1, 1)
    b = kernel.fresh_bit(s, 1, 1)
    first = kernel.xor(a, b)
    second = kernel.xor(a, b)
    third = kernel.xor(a, b)
    assert kernel._reveal(first) == 0
    assert kernel._reveal(second) == 1  # flipped
    assert kernel._reveal(third) == 0


def test_nonce_stream_is_reference_splitmix64(kernel):
    # known-answer vector for the splitmix64 generator, seed 0
    s = make_state(kernel, seed=0)
    got = [kernel._nonce_of(kernel.fresh_bit(s, 0, 1)) for _ in range(3)]
    assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_nonces_distinct(kernel):
    s = make_state(kernel, seed=7)
    rng = random.Random(7)
    seen = {kernel._nonce_of(kernel.fresh_bit(s, rng.randint(0, 1), 1))
            for _ in range(500)}
    assert len(seen) == 500


def test_cipherbit_is_opaque(kernel):
    s = make_state(kernel)
    c = kernel.fresh_bit(s, 1, 1)
    assert not hasattr(c, "payload")
    # repr names only public metadata, never the hidden bit
    assert repr(c) == f"CipherBit(epoch={c.epoch}, depth={c.depth})"


def test_bench_gates_counts_every_gate():
    result = bench.bench_gates(kernel_mod.KERNEL_NAME, 10)
    assert (result.kernel, result.units, result.gates) == ("py", 10, 10)
    assert result.gates_per_sec > 0
    with pytest.raises(ValueError):
        bench.bench_gates("native", 10)
