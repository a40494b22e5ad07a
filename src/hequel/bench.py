"""Gate-kernel microbenchmark: wall time of a tight loop of bit gates.

The repository's ``benchmark/`` suite reports its result as the kernel
layer's gates per second.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from hequel.crypto import SecurityContext, encrypt_bit, keygen
from hequel.kernel import KERNEL_NAME, and_, xor


@dataclass(frozen=True)
class BenchResult:
    kernel: str
    label: str
    units: int
    gates: int
    seconds: float

    @property
    def gates_per_sec(self) -> float:
        return self.gates / self.seconds if self.seconds > 0 else float("inf")


def bench_gates(kernel_name: str, n: int) -> BenchResult:
    """Time ``n`` alternating XOR and AND gates. ``kernel_name`` must name
    the gate kernel, ``kernel.KERNEL_NAME``; it labels the result."""
    if kernel_name != KERNEL_NAME:
        raise ValueError(
            f"unknown kernel {kernel_name!r} (the kernel is {KERNEL_NAME!r})")
    ladder, _keys = keygen(SecurityContext(mode="circular", depth_budget=8),
                           seed=b"bench-gates")
    pk = ladder.public_key()
    a = encrypt_bit(pk, 1)
    b = encrypt_bit(pk, 0)
    before = ladder.state.gate_total()
    t0 = time.perf_counter()
    for i in range(n):
        if i & 1:
            a = and_(a, b)
        else:
            b = xor(a, b)
    dt = time.perf_counter() - t0
    return BenchResult(kernel_name, "bit gates", n,
                       ladder.state.gate_total() - before, dt)
