"""The gate kernel: ciphertext bits, the gates on them, and refresh.

This module defines the simulated FHE cost contract that every layer above
is measured by: AND, XOR, refresh and encryption counts, depth and key
epochs, and the nonce stream that serialized ciphertexts carry.

The model: a ciphertext bit carries a key epoch and the multiplicative
depth consumed so far. AND costs one depth level, XOR and NOT cost none.
When an AND would push the result past the depth budget, the deep operands
are refreshed first (depth back to 0; epoch advances in leveled mode).
Mixing epochs is allowed: the lower-epoch operand is refreshed up before
the gate fires. OR is a word-circuit concern: ``circuits.bit_or`` builds
it from one AND.
"""

from __future__ import annotations

import sys

from hequel.errors import LadderExhausted, LadderMismatch

KERNEL_NAME = "py"  # the name benchmark results record for this kernel

MODE_CIRCULAR = 0
MODE_LEVELED = 1

_MASK64 = (1 << 64) - 1


class KernelState:
    """Per-ladder evaluation state: mode, budget, counters, nonce stream.

    Counters are plain ints; CPython's GIL keeps increments safe to run
    concurrently (worst case a lost count, never corruption). ``fault_gate``
    flips the output of the N-th gate (1-based over XOR+AND) and exists for
    fault-injection tests; -1 disables it. ``impl`` is this module, so code
    holding only a ciphertext reaches the gates through ``bit._state.impl``.
    """

    __slots__ = (
        "mode", "depth_budget", "num_epochs", "auto_refresh", "ladder_id",
        "xor_count", "and_count", "refresh_count", "encrypt_count",
        "fault_gate", "nonce_state", "impl",
    )

    def __init__(self, mode: int, depth_budget: int, num_epochs: int,
                 nonce_state: int, ladder_id: str = ""):
        if depth_budget < 1:
            raise ValueError("depth_budget must be >= 1")
        if num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        self.mode = mode
        self.depth_budget = depth_budget
        self.num_epochs = num_epochs
        self.auto_refresh = True
        self.ladder_id = ladder_id
        self.xor_count = 0
        self.and_count = 0
        self.refresh_count = 0
        self.encrypt_count = 0
        self.fault_gate = -1
        self.nonce_state = nonce_state & _MASK64
        self.impl = sys.modules[__name__]

    def gate_total(self) -> int:
        return self.xor_count + self.and_count


class CipherBit:
    """Opaque encrypted bit. The payload is private; only decryption with a
    matching secret key (via the crypto layer) reveals it. ``epoch`` and
    ``depth`` are public metadata."""

    __slots__ = ("_payload", "epoch", "depth", "_nonce", "_state")

    def __init__(self, state: KernelState, payload: int, epoch: int,
                 depth: int, nonce: int):
        self._payload = payload
        self.epoch = epoch
        self.depth = depth
        self._nonce = nonce
        self._state = state

    def __repr__(self):
        return f"CipherBit(epoch={self.epoch}, depth={self.depth})"


def _next_nonce(s: KernelState) -> int:
    # splitmix64: cheap, deterministic per ladder seed, 64-bit period
    s.nonce_state = (s.nonce_state + 0x9E3779B97F4A7C15) & _MASK64
    z = s.nonce_state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def new_state(mode: int, depth_budget: int, num_epochs: int,
              nonce_state: int, ladder_id: str = "") -> KernelState:
    return KernelState(mode, depth_budget, num_epochs, nonce_state, ladder_id)


def fresh_bit(s: KernelState, payload: int, epoch: int) -> CipherBit:
    """Encrypt a literal bit under the key of ``epoch``; depth starts at 0."""
    s.encrypt_count += 1
    return CipherBit(s, payload & 1, epoch, 0, _next_nonce(s))


def bit_from_parts(s: KernelState, payload: int, epoch: int, depth: int,
                   nonce: int) -> CipherBit:
    """Rebuild a ciphertext from its serialized parts (no counter bump)."""
    return CipherBit(s, payload & 1, epoch, depth, nonce & _MASK64)


def refresh(c: CipherBit) -> CipherBit:
    """Bootstrap: reset depth to 0. Leveled mode moves to the next epoch and
    fails past the top of the ladder; circular mode stays on the same key."""
    s = c._state
    if s.mode == MODE_LEVELED:
        if c.epoch >= s.num_epochs:
            raise LadderExhausted(
                f"refresh past epoch {c.epoch} of a {s.num_epochs}-level ladder")
        epoch = c.epoch + 1
    else:
        epoch = c.epoch
    s.refresh_count += 1
    return CipherBit(s, c._payload, epoch, 0, _next_nonce(s))


def _check_ladder(a: CipherBit, b: CipherBit) -> KernelState:
    s = a._state
    if b._state is not s:
        raise LadderMismatch("operands were encrypted under different ladders")
    return s


def _align(a: CipherBit, b: CipherBit):
    # cross-key form: bootstrap the lower-epoch operand up to the higher one
    while a.epoch < b.epoch:
        a = refresh(a)
    while b.epoch < a.epoch:
        b = refresh(b)
    return a, b


def xor(a: CipherBit, b: CipherBit) -> CipherBit:
    s = _check_ladder(a, b)
    if a.epoch != b.epoch:
        a, b = _align(a, b)
    s.xor_count += 1
    p = a._payload ^ b._payload
    if s.fault_gate >= 0 and s.xor_count + s.and_count == s.fault_gate:
        p ^= 1
    d = a.depth if a.depth >= b.depth else b.depth
    return CipherBit(s, p, a.epoch, d, _next_nonce(s))


def and_(a: CipherBit, b: CipherBit) -> CipherBit:
    s = _check_ladder(a, b)
    if a.epoch != b.epoch:
        a, b = _align(a, b)
    d = (a.depth if a.depth >= b.depth else b.depth) + 1
    if d > s.depth_budget and s.auto_refresh:
        # refresh whichever operands carry depth, then re-align epochs
        if a.depth:
            a = refresh(a)
        if b.depth:
            b = refresh(b)
        if a.epoch != b.epoch:
            a, b = _align(a, b)
        d = (a.depth if a.depth >= b.depth else b.depth) + 1
    s.and_count += 1
    p = a._payload & b._payload
    if s.fault_gate >= 0 and s.xor_count + s.and_count == s.fault_gate:
        p ^= 1
    return CipherBit(s, p, a.epoch, d, _next_nonce(s))


def not_(a: CipherBit) -> CipherBit:
    # NOT(b) = b XOR fresh E(1) under the operand's own key
    return xor(a, fresh_bit(a._state, 1, a.epoch))


def _reveal(c: CipherBit) -> int:
    """Internal: raw payload access for decryption and serialization. Not
    part of the public surface."""
    return c._payload


def _nonce_of(c: CipherBit) -> int:
    return c._nonce
