"""Machine-speed probe.

The machine this benchmark was built on shares its cores with other
tenants, and its speed drifts by up to 40% over minutes. Raw wall times
then differ more between two runs of the same code than most changes
would move them. So each op is bracketed by a short reference loop, and
its time is scaled to a fixed reference speed:

    scaled = wall * REFERENCE_S / (time of the reference loop now)

The loop imitates the program's hot paths (small slotted objects, 64-bit
integer mixing as in the nonce stream, short SHA-256 digests as in the
wire mask) but is code of this benchmark, so no change to the program can
alter it. Garbage collection is off while it runs, so the program's heap
size does not leak into the probe. In six 12-second aggregate-leveled runs
on a shared 2-vCPU VM, scaling cut the coefficient of variation of the
median latency across runs from 12% to 1.5%.
"""

from __future__ import annotations

import gc
import hashlib
import time

# Reference-loop time at the reference speed; scaled times read as wall
# times on a machine where one probe takes this long.
REFERENCE_S = 400e-6

_M64 = (1 << 64) - 1


class _Cell:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d


def _work() -> int:
    x, y, z = _Cell(1, 0, 7, 3), _Cell(0, 0, 11, 5), 0x1234
    for _ in range(300):
        z = (z + 0x9E3779B97F4A7C15) & _M64
        z ^= z >> 30
        x = _Cell(x.a ^ y.a, (x.b if x.b >= y.b else y.b) + 1, z & 255, x.d)
        y = _Cell(x.a & y.a, y.b, x.c, z & 7)
    for i in range(20):
        hashlib.sha256(b"mask" + i.to_bytes(8, "big")).digest()
    return x.c


def probe_seconds() -> float:
    """Wall time of one reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
