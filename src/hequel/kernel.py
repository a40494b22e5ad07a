"""The gate kernel: ciphertext bits, the gates on them, and refresh.

This module defines the simulated FHE cost contract that every layer above
is measured by: AND, XOR, refresh and encryption counts, depth and key
epochs, and the nonce stream that serialized ciphertexts carry.

The model: a ciphertext bit carries a key epoch and the multiplicative
depth consumed so far. AND costs one depth level, XOR and NOT cost none.
When an AND would push the result past the depth budget, an operand that
sits at the budget is refreshed first (``settle``). Mixing epochs is
allowed: the lower-epoch operand is lifted to the other's epoch first
(``lift``). Within one scope, a bit lifted a second time returns the
copy its first lift made, so a bit that meets newer-epoch bits in
several gates is bootstrapped once per epoch step; the server opens a
new scope for each message it handles (``open_scope``), so a repeated
request pays for its lifts again and spends the same counts. A replayed
gate tape cannot reuse such a copy, so ``lifts`` tells a circuit whether
its ladder can make one (``hequel.tape``). A settle keeps no copy, so a
caller that feeds one deep bit into several gates settles it once
itself. A bit that feeds a gate for every bit of whole rows, or that a
gate reads in every round of a loop, goes through ``fan_out`` once
instead: the sort's compare-swap selectors, the fetch compaction's
movers and every cell bit entering it, and groupby's boundary flag and
running sum once per step. These three functions, with ``bits_settle``
for a whole row of settles, make every refresh decision above the gates:
no other library module calls ``refresh`` or reads the mode, of which
``lifts`` tells the layers above only whether it is leveled, and
``tests/test_kernel_boundary.py`` checks it.

One fused one-AND primitive lives here too: ``bit_mux``, the select
y ⊕ (f ∧ (x ⊕ y)). It refuses operands from two ladders before any gate
and lifts operands of unequal epochs to their top epoch first, each once.
Then, when its AND would not pass the depth budget and no fault is armed,
it computes the payload inline and builds only its output bit, counting
all three gates and advancing the nonce stream once per gate, so the
output carries the nonce, epoch and depth the composition would give it;
otherwise it runs the composition. An OR is a select, a ∨ b = (a ? a : b):
``bit_or`` refuses two ladders, settles both operands, since each feeds
two gates, and returns ``bit_mux(a, a, b)``. ``bit_and_not`` runs its two
gates, a ⊕ (a ∧ b), as ``not_`` runs an XOR with a fresh E(1).

The word primitives run a whole word, or a whole row, in one call:
``bits_settle`` (``settle`` per bit), ``bits_xor`` (``xor`` per bit
pair), ``bits_differ`` (the XORs of two bit sequences and a ``pairwise``
OR tree over them), ``bits_mux`` (``bit_mux`` per bit pair),
``bits_swap`` (per bit pair, t = f ∧ (x ⊕ y), then x ⊕ t and y ⊕ t, on
operands lifted to their top epoch) and ``bits_gt`` (the comparator
chain). Each refuses a stranger-ladder bit at any position before any
gate, lift or settle. ``bits_settle`` then refreshes only the bits at
the budget, and ``bits_swap`` runs its composition: its one caller, the
sort network, replays from a tape from a shape's second sighting on a
circular server (``hequel.tape``), and under ``leveled:256`` none of the
573 swaps of three n = 32 sorts had its operands on one epoch within the
budget. ``bits_xor``, ``bits_differ`` and ``bits_mux`` follow one rule:
when no fault is armed and every step's operands share one epoch and
need no settle (for ``bits_differ``, every XOR shares one depth too),
the whole call is inline, counting its gates and advancing the nonce
stream in gate order and building only the output bits; otherwise the
composition runs from the first bit. ``bits_gt`` alone keeps an inline
prefix and a composed tail (its docstring says why): in 4
aggregate-leveled cycles, 628 of its 1,012 calls compose part of the
chain, 3,444 of 9,596 steps.

Every gate output, refresh and encryption is a fresh ciphertext with its
own nonce: the next value of its ladder's counter, which steps by
splitmix64's golden-gamma increment (Steele, Lea and Flood, OOPSLA 2014)
modulo 2^64. The increment is odd, so one ladder's stream repeats no
nonce within 2^64 steps. The wire holds each nonce as it is: the mask that
hides a word's payloads is keyed over its nonces (``serial``), so a nonce
needs only to be unique, and a public mixing step over it would hide
nothing.

The mint and wire helpers take a whole word, or a whole table, per call.
``_fresh_wire_nonces`` draws the nonces of n fresh encryptions as one run
(``_nonce_run``: z, z + γ, z + 2γ, …), moving the stream and
``encrypt_count`` as n calls of ``fresh_bit`` would: ``fresh_word``
mints a word's bits on it, and ``serial`` writes a plaintext table's
upload from it. ``_wire_parts`` reads a word's bits as the wire's parts
(nonces, the stream steps between them, payload bits, epochs, depths).
When the bits are one run at depth 0 under one epoch, whoever wrote
them, it gives the nonces as the run and no steps: the one place a run
is recognised, which the wire writes as its first nonce (``serial``'s
seeded words). Any other word's wire form holds its first nonce and the
steps between its nonces (``_nonce_steps``: k_i with z_{i+1} = z_i +
k_i·γ mod 2^64, ``serial``'s stepped words), which ``_nonce_walk`` walks
back to the nonces; ``word_from_parts`` builds the bits back. Only the
kernel and serialization use the five that read payloads or wire nonces
or know the increment, ``_wire_parts``, ``_fresh_wire_nonces``,
``_nonce_run``, ``_nonce_steps`` and ``_nonce_walk``.
"""

from __future__ import annotations

import sys
from operator import sub

from hequel.errors import LadderExhausted, LadderMismatch

KERNEL_NAME = "py"  # the name benchmark results record for this kernel

MODE_CIRCULAR = 0
MODE_LEVELED = 1

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's counter increment
_GAMMA_INV = pow(_GAMMA, -1, 1 << 64)  # γ⁻¹ mod 2^64: γ is odd
_HALF = 1 << 63
# the steps of -128..127 by the difference z_{i+1} - z_i of the two wire
# nonces they join: k·γ mod 2^64, or that less 2^64 where the stream wraps
_SHORT_STEPS = {(k * _GAMMA & _MASK64) - wrap: k
                for k in range(-128, 128) for wrap in (0, 1 << 64)}
# the differences of one run's consecutive nonces: the step 1
_RUN_DIFFS = frozenset(d for d, k in _SHORT_STEPS.items() if k == 1)


class KernelState:
    """Per-ladder evaluation state: mode, budget, counters, nonce stream.

    Counters are plain ints; CPython's GIL keeps increments safe to run
    concurrently (worst case a lost count, never corruption). ``fault_gate``
    flips the output of the N-th gate (1-based over XOR+AND) and exists for
    fault-injection tests; -1 disables it. ``impl`` is this module; the
    benchmark's layer timings are its only reader, and every other caller
    imports the module. ``taped`` is None unless a ``protocol.ServerStore``
    evaluates on this state: then it is the server's admission to its
    tape store, which the sort network asks for a tape to replay
    (``relalg.oblivious_sort_rows``). ``scope`` numbers the current lift
    scope (``open_scope``); a bit's lift copy records the scope it was
    made in.
    """

    __slots__ = (
        "mode", "depth_budget", "num_epochs", "ladder_id",
        "xor_count", "and_count", "refresh_count", "encrypt_count",
        "fault_gate", "nonce_state", "scope", "impl", "taped",
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
        self.scope = 0
        self.impl = sys.modules[__name__]
        self.taped = None

    def gate_total(self) -> int:
        return self.xor_count + self.and_count

    def copy(self) -> KernelState:
        """A state with this one's mode, budget, epochs, ladder id, nonce
        state and scope, no counts, no armed fault and no tape store: a
        dry run on it (``tape.record``) moves nothing of this one and
        never replays a tape."""
        twin = KernelState(self.mode, self.depth_budget, self.num_epochs,
                           self.nonce_state, self.ladder_id)
        twin.scope = self.scope
        return twin


class CipherBit:
    """Opaque encrypted bit. The payload is private; only decryption with
    its ladder's ``crypto.ClientKeys`` reveals it. ``epoch`` and
    ``depth`` are public metadata. ``_nonce`` is its wire nonce: the
    value of its ladder's counter when the bit was minted, unique in that
    ladder's stream, or the nonce it was decoded with. ``_up`` is the copy
    ``lift`` made of this bit one epoch up, or None, and ``_up_scope`` the
    scope it was made in; ``_up_scope`` is unset while ``_up`` is None."""

    __slots__ = ("_payload", "epoch", "depth", "_nonce", "_state", "_up",
                 "_up_scope")

    def __init__(self, state: KernelState, payload: int, epoch: int,
                 depth: int, nonce: int):
        self._payload = payload
        self.epoch = epoch
        self.depth = depth
        self._nonce = nonce
        self._state = state
        self._up = None

    def __repr__(self):
        return f"CipherBit(epoch={self.epoch}, depth={self.depth})"


def _next_nonce(s: KernelState) -> int:
    # the golden-gamma counter step: deterministic per ladder seed, and
    # unique for 2^64 steps since the increment is odd
    s.nonce_state = z = (s.nonce_state + _GAMMA) & _MASK64
    return z


def fresh_bit(s: KernelState, payload: int, epoch: int) -> CipherBit:
    """Encrypt a literal bit under the key of ``epoch``; depth starts at 0."""
    s.encrypt_count += 1
    return CipherBit(s, payload & 1, epoch, 0, _next_nonce(s))


def fresh_word(s: KernelState, value: int, width: int, epoch: int) -> tuple:
    """``fresh_bit`` for each of the ``width`` low bits of ``value``, most
    significant first, in one call: the same payloads, epoch, nonces and
    ``encrypt_count``."""
    run = _fresh_wire_nonces(s, width)
    return tuple([CipherBit(s, value >> i & 1, epoch, 0, z & _MASK64)
                  for i, z in zip(range(width - 1, -1, -1), run)])


def _nonce_run(first: int, n: int) -> range:
    """The wire nonces of ``n`` encryptions drawn in one run of the
    stream, the first of them ``first``: item i is first + i·γ, which
    names the nonce (first + i·γ) mod 2^64."""
    return range(first, first + n * _GAMMA, _GAMMA)


def _fresh_wire_nonces(s: KernelState, n: int) -> range:
    """The wire nonces of ``n`` fresh encryptions, in order: the run
    (``_nonce_run``) of the next ``n`` counter values, with the stream and
    ``encrypt_count`` moved as ``n`` calls of ``fresh_bit`` move them."""
    s.encrypt_count += n
    z = s.nonce_state
    s.nonce_state = (z + n * _GAMMA) & _MASK64
    return _nonce_run((z + _GAMMA) & _MASK64, n)


def word_from_parts(s: KernelState, payload: int, epochs, depths,
                    nonces) -> tuple:
    """Rebuild a word's bits from their serialized parts, with no counter
    bump: bit i takes bit i of ``payload`` (LSB first), ``epochs[i]``,
    ``depths[i]`` and ``nonces[i]`` modulo 2^64, its wire nonce.
    ``nonces`` may be any iterable of ints, a ``_nonce_run`` among them."""
    n = len(epochs)
    return tuple(map(CipherBit, [s] * n, [payload >> i & 1 for i in range(n)],
                     epochs, depths, map(_MASK64.__and__, nonces)))


def _nonce_steps(nonces) -> list:
    """The signed stream steps between consecutive wire nonces: k_i, in
    -2^63..2^63 - 1, with nonces[i + 1] = nonces[i] + k_i·γ mod 2^64. The
    nonces of one run step by 1; ``bit_mux`` draws three nonces per
    output, so a row of its outputs steps by about 3. A one-byte step is
    looked up by its difference of nonces (``_SHORT_STEPS``); only a
    wider one is computed with γ⁻¹."""
    steps = list(map(_SHORT_STEPS.get, map(sub, nonces[1:], nonces)))
    at = -1
    for _ in range(steps.count(None)):
        at = steps.index(None, at + 1)
        d = nonces[at + 1] - nonces[at]
        steps[at] = (d * _GAMMA_INV + _HALF & _MASK64) - _HALF
    return steps


def _nonce_walk(first: int, steps) -> list:
    """The wire nonces that ``steps`` walk from ``first``: the inverse of
    ``_nonce_steps``, one nonce more than there are steps."""
    z = first
    return [first] + [z := (z + k * _GAMMA) & _MASK64 for k in steps]


def _wire_parts(bits) -> tuple:
    """A word's bits as its wire parts: (wire nonces, their steps,
    payloads packed LSB first in bit order, epochs, depths), the inverse
    of ``word_from_parts``. When the bits are one run of the stream at
    depth 0 under one epoch, as fresh encryptions drawn in one call are,
    the nonces are that run (``_nonce_run``) and the steps None;
    otherwise the nonces are a list and the steps ``_nonce_steps`` of
    it. The run test reads the differences of the nonces once; a word
    with a bit above depth 0 skips it."""
    payload = 0
    for i, b in enumerate(bits):
        payload |= b._payload << i
    nonces = [b._nonce for b in bits]
    epochs, depths = [b.epoch for b in bits], [b.depth for b in bits]
    if not any(depths) and epochs.count(epochs[0]) == len(epochs) and \
            set(map(sub, nonces[1:], nonces)) <= _RUN_DIFFS:
        return _nonce_run(nonces[0], len(nonces)), None, payload, epochs, \
            depths
    return nonces, _nonce_steps(nonces), payload, epochs, depths


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
    """``c`` refreshed up to key ``epoch``, one epoch step at a time; the
    identity in circular mode, which has one epoch. A step this bit
    already took in the current scope reuses its copy, so only the first
    lift of a bit in a scope pays a refresh per step."""
    while c.epoch < epoch:
        up = c._up
        if up is None or c._up_scope != c._state.scope:
            up = c._up = refresh(c)
            c._up_scope = c._state.scope
        c = up
    return c


def lifts(s: KernelState) -> bool:
    """True iff ``lift`` on ``s`` can make a copy that a later lift in
    the same scope reuses: in leveled mode. A circular ladder has one
    epoch, so its lift is the identity."""
    return s.mode == MODE_LEVELED


def open_scope(s: KernelState) -> None:
    """Start a new lift scope on ``s``: no copy a lift made before is
    reused after. A server opens one per message, so each request's
    counts depend on that request alone."""
    s.scope += 1


_MIXED = "operands were encrypted under different ladders"


def _align(a: CipherBit, b: CipherBit):
    # cross-key form: bootstrap the lower-epoch operand up to the higher one
    if a.epoch < b.epoch:
        return lift(a, b.epoch), b
    return a, lift(b, a.epoch)


# The gates, ``bit_mux`` and ``bit_or`` each write their ladder guard out
# in full: a shared helper would cost a call on every gate.


def xor(a: CipherBit, b: CipherBit) -> CipherBit:
    s = a._state
    if b._state is not s:
        raise LadderMismatch(_MIXED)
    if a.epoch != b.epoch:
        a, b = _align(a, b)
    s.xor_count += 1
    p = a._payload ^ b._payload
    if s.fault_gate >= 0 and s.xor_count + s.and_count == s.fault_gate:
        p ^= 1
    d = a.depth if a.depth >= b.depth else b.depth
    return CipherBit(s, p, a.epoch, d, _next_nonce(s))


def and_(a: CipherBit, b: CipherBit) -> CipherBit:
    s = a._state
    if b._state is not s:
        raise LadderMismatch(_MIXED)
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


def bit_and_not(a: CipherBit, b: CipherBit) -> CipherBit:
    """a ∧ ¬b = a ⊕ (a ∧ b): one AND and no NOT, so no fresh encryption,
    two gates; the XOR reuses the copy the AND's lift made of a lower a."""
    return xor(a, and_(a, b))


# The fused one-AND primitive refuses a stranger ladder before it lifts,
# so a mixed-ladder call refreshes nothing. Its inline path needs the
# deepest operand's depth d < budget, so the AND lands at d + 1 with no
# settle, and the last XOR keeps that depth.


def bit_mux(f: CipherBit, x: CipherBit, y: CipherBit) -> CipherBit:
    """Encrypted bit select: x when f is 1, else y. One AND and no NOT:
    y ⊕ (f ∧ (x ⊕ y)), three gates."""
    s = f._state
    if x._state is not s or y._state is not s:
        raise LadderMismatch(_MIXED)
    e = f.epoch
    if x.epoch != e or y.epoch != e:
        e = max(e, x.epoch, y.epoch)
        f, x, y = lift(f, e), lift(x, e), lift(y, e)
    d = x.depth if x.depth >= y.depth else y.depth
    if f.depth > d:
        d = f.depth
    if d < s.depth_budget and s.fault_gate < 0:
        s.xor_count += 2
        s.and_count += 1
        s.nonce_state = z = (s.nonce_state + 3 * _GAMMA) & _MASK64
        p = y._payload
        return CipherBit(s, p ^ (f._payload & (x._payload ^ p)), e, d + 1, z)
    return xor(y, and_(f, xor(x, y)))


def bit_or(a: CipherBit, b: CipherBit) -> CipherBit:
    """a ∨ b as a select: (a ? a : b) = b ⊕ (a ∧ (a ⊕ b)), one AND and no
    fresh encryption, three gates, run by ``bit_mux``. The operands are
    settled first, after the ladder check, since each feeds two gates."""
    if b._state is not a._state:
        raise LadderMismatch(_MIXED)
    a = settle(a)
    return bit_mux(a, a, settle(b))


# The word primitives (see the module docstring). An inline run keeps its
# gate counts and nonce counter in locals and writes them back once, with
# ``_book``, when it ends.


def pairwise(fn, items):
    """Reduce a non-empty sequence with the binary ``fn`` as a balanced
    tree: each level pairs neighbours in order, and an odd item out moves
    up a level unchanged. len - 1 calls, ceil(log2 len) levels deep."""
    items = list(items)
    while len(items) > 1:
        paired = [fn(a, b) for a, b in zip(items[::2], items[1::2])]
        items = paired + items[len(paired) * 2:]
    return items[0]


def _one_ladder(s: KernelState, *seqs) -> None:
    for bits in seqs:
        for b in bits:
            if b._state is not s:
                raise LadderMismatch(_MIXED)


def _book(s: KernelState, xors: int, ands: int, refreshes: int,
          z: int) -> None:
    s.xor_count += xors
    s.and_count += ands
    s.refresh_count += refreshes
    s.nonce_state = z


def bits_settle(bits) -> tuple:
    """``settle`` for each bit of a non-empty sequence, in order: a bit at
    the depth budget is refreshed, every other bit comes back as it is."""
    s = bits[0]._state
    _one_ladder(s, bits)
    budget = s.depth_budget
    return tuple([refresh(b) if b.depth >= budget else b for b in bits])


def bits_xor(xs, ys) -> tuple:
    """``xor`` for each pair of the equal-length, non-empty bit sequences,
    in order. Inline as a whole when every bit shares one epoch and no
    fault is armed; otherwise the per-bit composition from the first
    bit."""
    s = xs[0]._state
    _one_ladder(s, xs, ys)
    if s.fault_gate < 0:
        e, z, out = xs[0].epoch, s.nonce_state, []
        for x, y in zip(xs, ys):
            if x.epoch != e or y.epoch != e:
                break
            z = (z + _GAMMA) & _MASK64
            out.append(CipherBit(s, x._payload ^ y._payload, e,
                                 x.depth if x.depth >= y.depth else y.depth,
                                 z))
        else:
            s.xor_count += len(out)
            s.nonce_state = z
            return tuple(out)
    return tuple([xor(x, y) for x, y in zip(xs, ys)])


def bits_differ(xs, ys) -> CipherBit:
    """1 iff the equal-length, non-empty bit sequences differ somewhere:
    the XORs x ⊕ y in order, then a ``pairwise`` tree of ``bit_or`` over
    them, len - 1 ANDs. The tree is inline as a whole or not at all: when
    every bit shares one epoch, every XOR one depth, no fault is armed
    and the tree's top stays within the budget, so no OR node settles;
    otherwise the composition runs. Every workload's calls that share
    one epoch also share one XOR depth."""
    s = xs[0]._state
    _one_ladder(s, xs, ys)
    if s.fault_gate < 0:
        x, y = xs[0], ys[0]
        e, d, p = x.epoch, x.depth if x.depth >= y.depth else y.depth, 0
        for x, y in zip(xs, ys):
            if x.epoch != e or y.epoch != e or \
                    (x.depth if x.depth >= y.depth else y.depth) != d:
                break
            p |= x._payload ^ y._payload
        else:
            # an OR node settles iff its output would pass the budget, and
            # depth only grows towards the root: the tree's ceil(log2 n)
            # levels add one each
            d += (len(xs) - 1).bit_length()
            if d <= s.depth_budget:
                n = len(xs)
                z = (s.nonce_state + (4 * n - 3) * _GAMMA) & _MASK64
                _book(s, 3 * n - 2, n - 1, 0, z)
                return CipherBit(s, p, e, d, z)
    return pairwise(bit_or, [xor(x, y) for x, y in zip(xs, ys)])


def bits_mux(f: CipherBit, xs, ys) -> tuple:
    """``bit_mux(f, x, y)`` for each bit pair in order: xs where f is 1,
    else ys."""
    s = f._state
    _one_ladder(s, xs, ys)
    if s.fault_gate < 0:
        budget, e, df, fp = s.depth_budget, f.epoch, f.depth, f._payload
        z, out = s.nonce_state, []
        for x, y in zip(xs, ys):
            d = x.depth if x.depth >= y.depth else y.depth
            if df > d:
                d = df
            if d >= budget or x.epoch != e or y.epoch != e:
                break
            z = (z + 3 * _GAMMA) & _MASK64
            p = y._payload
            out.append(CipherBit(s, p ^ (fp & (x._payload ^ p)), e, d + 1,
                                 z))
        else:
            _book(s, 2 * len(out), len(out), 0, z)
            return tuple(out)
    return tuple([bit_mux(f, x, y) for x, y in zip(xs, ys)])


def bits_swap(f: CipherBit, xs, ys):
    """Per bit pair in order, t = f ∧ (x ⊕ y), then x ⊕ t and y ⊕ t, one
    AND for both outputs, as two tuples: (ys, xs) where f is 1, else
    (xs, ys). Each step first lifts f, x and y to their top epoch, each
    once, then runs the three gates."""
    _one_ladder(f._state, xs, ys)
    out_x, out_y = [], []
    for x, y in zip(xs, ys):
        e = max(f.epoch, x.epoch, y.epoch)
        g, x, y = lift(f, e), lift(x, e), lift(y, e)
        t = and_(g, xor(x, y))
        out_x.append(xor(x, t))
        out_y.append(xor(y, t))
    return tuple(out_x), tuple(out_y)


def bits_gt(xs, ts) -> CipherBit:
    """1 iff a > b, given a's bits ``xs`` and the XORs ``ts`` = a ⊕ b,
    both MSB first; b itself is not read, so a caller that already holds
    the XORs feeds each bit of b into one gate only.

    LSB first, g is "a > b on the bits seen so far". Where t = 0 it keeps;
    where t = 1 it becomes x. Both cases are ``bit_mux(t, x, settle(g))``,
    and the lowest bit seeds g = t ∧ x. In circular mode the settle of g
    is inline too: one refresh, one nonce step, depth 0. From the first
    step whose settle would move g's epoch (leveled mode) or whose
    operands would need a lift or a settle, the rest of the chain runs as
    that composition.

    It is the one word primitive that keeps an inline prefix before a
    composed tail, since g deepens with every step and a leveled chain
    often reaches its first settle partway: composing those chains from
    their first bit would move their inline prefixes (3,464 steps and 628
    seed ANDs in 4 aggregate-leveled cycles) onto the composed path."""
    s = xs[0]._state
    _one_ladder(s, xs, ts)
    budget, circular = s.depth_budget, s.mode == MODE_CIRCULAR
    x, t = xs[-1], ts[-1]
    d = x.depth if x.depth >= t.depth else t.depth
    i = len(xs) - 2  # the next step's bit
    if d < budget and x.epoch == t.epoch and s.fault_gate < 0:
        # g lives in (gp, ge, gd) and the nonce counter z
        gp, ge, gd = x._payload & t._payload, x.epoch, d + 1
        z, ands, refreshes = (s.nonce_state + _GAMMA) & _MASK64, 1, 0
        while i >= 0:
            x, t = xs[i], ts[i]
            d = x.depth if x.depth >= t.depth else t.depth
            settles = gd >= budget
            if d >= budget or (settles and not circular) or \
                    x.epoch != ge or t.epoch != ge:
                break
            if settles:
                z = (z + _GAMMA) & _MASK64
                refreshes += 1
                gd = 0
            z = (z + 3 * _GAMMA) & _MASK64
            ands += 1
            gp ^= t._payload & (x._payload ^ gp)
            gd = (d if d >= gd else gd) + 1
            i -= 1
        _book(s, 2 * ands - 2, ands, refreshes, z)
        g = CipherBit(s, gp, ge, gd, z)
    else:
        g = and_(t, x)
    for i in range(i, -1, -1):
        g = bit_mux(ts[i], xs[i], settle(g))
    return g


def _reveal(c: CipherBit) -> int:
    """Internal: raw payload access for decryption and serialization. Not
    part of the public surface."""
    return c._payload
