"""The gate kernel: ciphertext bits, the gates on them, and refresh.

This module defines the simulated FHE cost contract that every layer above
is measured by: AND, XOR, refresh and encryption counts, depth and key
epochs, and the nonce stream that serialized ciphertexts carry.

The model: a ciphertext bit carries a key epoch and the multiplicative
depth consumed so far. AND costs one depth level, XOR and NOT cost none.
When an AND would push the result past the depth budget, an operand that
sits at the budget is refreshed first (``settle``). Mixing epochs is
allowed: the lower-epoch operand is lifted to the other's epoch first
(``lift``). A gate keeps no refreshed copy, so a caller that feeds one bit
into several gates settles or lifts it once itself, and a selector about
to feed a gate for every bit of whole rows goes through ``fan_out``. These
three functions make every refresh decision above the gates: no other
library module calls ``refresh`` or reads the mode.

The one-AND primitives live here too: ``bit_mux``, ``bit_swap``,
``bit_or`` and ``bit_and_not``. Each is defined by a short composition of
``xor`` and ``and_``, and when its operands share one ladder and one
epoch, no AND in it would pass the depth budget and no fault is armed, it
computes the payloads inline and builds only its output bits. It still
counts every gate of the composition and advances the nonce stream once
per gate, in gate order, so each output carries the nonce, epoch and
depth that the composition would give it. On any other input it runs the
composition itself.

Every gate output, refresh and encryption is a fresh ciphertext with its
own nonce, the next value of a splitmix64 stream (Steele, Lea and Flood,
OOPSLA 2014). A gate only advances the stream's counter; the finalizer
that mixes a counter into the nonce runs when ``_nonce_of`` reads it,
which only serialization does, so the few bits that reach the wire pay
for it and the rest never do.
"""

from __future__ import annotations

import sys

from hequel.errors import LadderExhausted, LadderMismatch

KERNEL_NAME = "py"  # the name benchmark results record for this kernel

MODE_CIRCULAR = 0
MODE_LEVELED = 1

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's counter increment


class KernelState:
    """Per-ladder evaluation state: mode, budget, counters, nonce stream.

    Counters are plain ints; CPython's GIL keeps increments safe to run
    concurrently (worst case a lost count, never corruption). ``fault_gate``
    flips the output of the N-th gate (1-based over XOR+AND) and exists for
    fault-injection tests; -1 disables it. ``impl`` is this module; the
    benchmark's layer timings are its only reader, and every other caller
    imports the module.
    """

    __slots__ = (
        "mode", "depth_budget", "num_epochs", "ladder_id",
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
    ``depth`` are public metadata. ``_nonce`` is either a wire nonce (a
    decoded bit's, non-negative) or the complement ``~z`` of a splitmix64
    counter ``z`` not yet mixed (a minted bit's, negative); ``_nonce_of``
    returns the wire nonce of both."""

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
    # splitmix64's counter step: deterministic per ladder seed, 64-bit
    # period; the complement marks the counter as not yet mixed
    s.nonce_state = z = (s.nonce_state + _GAMMA) & _MASK64
    return ~z


def _mix(z: int) -> int:
    # splitmix64's finalizer: the nonce of counter value ``z``
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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


def settle(c: CipherBit) -> CipherBit:
    """``c`` refreshed if it sits at the depth budget, else ``c`` itself:
    the one refresh rule. Reads public metadata only."""
    return refresh(c) if c.depth >= c._state.depth_budget else c


def fan_out(c: CipherBit) -> CipherBit:
    """``c`` made ready to feed a gate for every bit of one or more rows.
    In circular mode it is refreshed whenever it has depth, since a
    circular refresh spends no epoch and the gates it feeds then stay
    shallow; in leveled mode, where the epoch costs more, it is settled."""
    if c._state.mode == MODE_CIRCULAR:
        return refresh(c) if c.depth else c
    return settle(c)


def lift(c: CipherBit, epoch: int) -> CipherBit:
    """``c`` refreshed up to key ``epoch``, one refresh per epoch of the
    gap; the identity in circular mode, which has one epoch."""
    while c.epoch < epoch:
        c = refresh(c)
    return c


def _check_ladder(a: CipherBit, b: CipherBit) -> KernelState:
    s = a._state
    if b._state is not s:
        raise LadderMismatch("operands were encrypted under different ladders")
    return s


def _align(a: CipherBit, b: CipherBit):
    # cross-key form: bootstrap the lower-epoch operand up to the higher one
    if a.epoch < b.epoch:
        return lift(a, b.epoch), b
    return a, lift(b, a.epoch)


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
    if d > s.depth_budget:
        a, b = settle(a), settle(b)
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


# The one-AND primitives. In each, ``d`` is the deepest operand's depth; the
# inline path needs d < budget, so the AND lands at d + 1 with no settle,
# and every later XOR of the composition keeps that depth. Each writes its
# guard out in full: a shared helper would cost a call on every primitive.


def bit_mux(f: CipherBit, x: CipherBit, y: CipherBit) -> CipherBit:
    """Encrypted bit select: x when f is 1, else y. One AND and no NOT:
    y ⊕ (f ∧ (x ⊕ y)), three gates."""
    s = f._state
    e = f.epoch
    d = x.depth if x.depth >= y.depth else y.depth
    if f.depth > d:
        d = f.depth
    if (d < s.depth_budget and x.epoch == e and y.epoch == e
            and x._state is s and y._state is s and s.fault_gate < 0):
        s.xor_count += 2
        s.and_count += 1
        s.nonce_state = z = (s.nonce_state + 3 * _GAMMA) & _MASK64
        p = y._payload
        return CipherBit(s, p ^ (f._payload & (x._payload ^ p)), e, d + 1, ~z)
    return xor(y, and_(f, xor(x, y)))


def bit_swap(f: CipherBit, x: CipherBit, y: CipherBit):
    """(y, x) when the encrypted bit f is 1, else (x, y). One AND serves
    both outputs: t = f ∧ (x ⊕ y), then x ⊕ t and y ⊕ t, four gates."""
    s = f._state
    e = f.epoch
    d = x.depth if x.depth >= y.depth else y.depth
    if f.depth > d:
        d = f.depth
    if (d < s.depth_budget and x.epoch == e and y.epoch == e
            and x._state is s and y._state is s and s.fault_gate < 0):
        s.xor_count += 3
        s.and_count += 1
        z = s.nonce_state
        s.nonce_state = (z + 4 * _GAMMA) & _MASK64
        p, q = x._payload, y._payload
        t = f._payload & (p ^ q)
        d += 1
        return (CipherBit(s, p ^ t, e, d, ~((z + 3 * _GAMMA) & _MASK64)),
                CipherBit(s, q ^ t, e, d, ~s.nonce_state))
    t = and_(f, xor(x, y))
    return xor(x, t), xor(y, t)


def bit_or(a: CipherBit, b: CipherBit) -> CipherBit:
    """a ∨ b = a ⊕ b ⊕ (a ∧ b): one AND and no fresh encryption, three
    gates. The operands are settled first, since each feeds two gates."""
    s = a._state
    e = a.epoch
    d = a.depth if a.depth >= b.depth else b.depth
    if (d < s.depth_budget and b.epoch == e and b._state is s
            and s.fault_gate < 0):
        s.xor_count += 2
        s.and_count += 1
        s.nonce_state = z = (s.nonce_state + 3 * _GAMMA) & _MASK64
        return CipherBit(s, a._payload | b._payload, e, d + 1, ~z)
    a, b = settle(a), settle(b)
    return xor(xor(a, b), and_(a, b))


def bit_and_not(a: CipherBit, b: CipherBit) -> CipherBit:
    """a ∧ ¬b = a ⊕ (a ∧ b): one AND and no NOT, so no fresh encryption,
    two gates."""
    s = a._state
    e = a.epoch
    d = a.depth if a.depth >= b.depth else b.depth
    if (d < s.depth_budget and b.epoch == e and b._state is s
            and s.fault_gate < 0):
        s.xor_count += 1
        s.and_count += 1
        s.nonce_state = z = (s.nonce_state + 2 * _GAMMA) & _MASK64
        p = a._payload
        return CipherBit(s, p ^ (p & b._payload), e, d + 1, ~z)
    return xor(a, and_(a, b))


def _reveal(c: CipherBit) -> int:
    """Internal: raw payload access for decryption and serialization. Not
    part of the public surface."""
    return c._payload


def _nonce_of(c: CipherBit) -> int:
    """The 64-bit wire nonce of ``c``, mixed here if ``c`` was minted."""
    n = c._nonce
    return n if n >= 0 else _mix(~n)
