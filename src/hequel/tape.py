"""Gate tapes: a fixed-shape circuit recorded once per public shape and
replayed after that.

Execution is oblivious, so the gates of a circuit such as the fetch
compaction (``relalg.compact_rows``) or the sort network
(``relalg.oblivious_sort_rows``), how they are wired, and every output
bit's epoch, depth and place in the nonce stream follow from public data
alone: the rows' count and cell widths, each input bit's epoch and depth,
which input positions hold one bit object, the circuit's own public
parameters, and the ladder's mode, budget and epochs, fixed per server.
``shape`` reads the row part of that data as a key, to which a caller
adds its circuit's kind tag and parameters. Only the payloads differ
between two runs of one shape (Carpov, Dubrulle and Sirdey, *Armadillo*,
SCC 2015, compile a program to its boolean circuit once in the same way).

``record`` runs the kernel itself, unedited, on clones of the input bits
over a copy of the ladder's ``KernelState``: the caller's ``run`` gets
the clones and the copy and returns the flat output bits. Each clone's
payload is a symbolic value whose ``^``, ``&`` and ``|`` append a node to
the tape, so the gates and the kernel's inline paths alike put every
payload operation there; a constant operand folds away. Its ``__bool__``,
``__eq__`` and ``__index__`` raise, so a payload-dependent branch fails
the recording instead of passing silently. The real state's counters and
nonce stream never move during the dry run.

A ``Tape`` holds the public circuit and no ciphertext or result: the
payload nodes as ``array`` operand indices grouped by level and gate
kind, and, per output bit, either the input bit it passes through or its
payload node, epoch, depth and nonce offset from the stream's state when
the circuit begins, with the totals the four counters and the nonce
stream move by. ``Tape.replay`` reads the inputs' payloads, runs the
nodes a level and a kind at a time with C-level maps, builds the first
k output bits and moves the counters and the stream by the recorded
totals: every count, nonce and byte is the kernel's. The caller builds
its rows from them.

``admit`` is the one admission rule, and a server keeps one bounded
store of tapes and first sightings for every circuit it replays: the
kernel runs on a shape's first sighting, the tape is recorded and
replayed on the second, and later sightings replay it. An armed gate
fault always runs the kernel, and so does a recording that raises or
passes its node bound, after which the shape is remembered as
unrecordable. Both stores drop their oldest entry first.

In leveled mode ``kernel.lift`` reuses the copy it made of a bit in the
current scope (one server message), so a replay must not stand in for a
kernel run that would reuse or leave such a copy. The fetch compaction
is the whole of its message's gates, and ``ServerStore.handle`` opens
that message's scope just before it, so no input holds a copy the kernel
would reuse and a copy its run leaves is never read: it records and
replays in both modes. The sort, which more gates of its query may
follow, records nothing on a ladder that can lift (``kernel.lifts``):
its ``run`` raises ``Unrecordable`` before its first gate, so each
leveled sort runs its network once, on the kernel.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, repeat
from operator import add, and_, attrgetter, mul, or_, xor

from hequel.errors import HequelError
from hequel.kernel import CipherBit, KernelState

_MASK64 = (1 << 64) - 1  # a nonce is the stream's counter modulo 2^64
# the payload operation of each gate kind, by its code on the tape
_XOR, _AND, _OR = range(3)
_GATES = (xor, and_, or_)
_KINDS = len(_GATES)
# a value slot holds a payload; slots 0 and 1 hold the constants, then
# one slot per input position, then one per node
_CONSTANTS = 2

_EPOCH, _DEPTH = attrgetter("epoch"), attrgetter("depth")
_PAYLOAD = attrgetter("_payload")
_BITS = attrgetter("bits")


def shape(rows) -> tuple:
    """(input bits, shape key) of a circuit over ``rows``, two or more
    rows of one schema. The input bits are each row's cell bits then its
    presence, row after row. The key is the row count, the cell widths,
    every input bit's epoch and depth, and, when two positions hold one
    bit object, the first position of each position's bit."""
    bits = []
    for row in rows:
        for cell in row.cells:
            bits += cell.bits
        bits.append(row.presence)
    alias = ()
    if len(set(bits)) < len(bits):  # a bit hashes and compares by identity
        ids = list(map(id, bits))
        first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
        alias = tuple(map(first.__getitem__, ids))
    widths = tuple(map(len, map(_BITS, rows[0].cells)))
    return bits, (len(rows), widths, tuple(map(_EPOCH, bits)),
                  tuple(map(_DEPTH, bits)), alias)


class Unrecordable(TypeError):
    """A payload was read as a value in public control flow, the tape grew
    past its node bound, or the caller's run refused its dry run: the
    circuit cannot be recorded."""


class _Sym:
    """A symbolic payload: the value slot it stands for on a tape."""

    __slots__ = ("rec", "slot")

    def __init__(self, rec: _Recorder, slot: int):
        self.rec, self.slot = rec, slot

    def __xor__(self, other):
        if other.__class__ is _Sym:
            return self.rec.node(_XOR, self.slot, other.slot)
        # x ⊕ 1 reads the constant slot 1
        return self.rec.node(_XOR, self.slot, 1) if other else self

    def __and__(self, other):
        if other.__class__ is _Sym:
            return self.rec.node(_AND, self.slot, other.slot)
        return self if other else 0

    def __or__(self, other):
        if other.__class__ is _Sym:
            return self.rec.node(_OR, self.slot, other.slot)
        return 1 if other else self

    __rxor__, __rand__, __ror__ = __xor__, __and__, __or__

    def _branch(self, *_):
        raise Unrecordable("a payload was read in public control flow")

    __bool__ = __eq__ = __index__ = _branch


class _Recorder:
    """The nodes of one dry run, in the order the kernel made them, with
    each node's level: one more than its deeper operand's."""

    def __init__(self, inputs: int, limit: int):
        self.first = _CONSTANTS + inputs  # the first node's slot
        self.limit = limit
        self.kinds, self.a, self.b = array("b"), array("i"), array("i")
        self.levels = array("i", [0]) * self.first

    def node(self, kind: int, a: int, b: int) -> _Sym:
        slot = len(self.levels)
        if slot - self.first >= self.limit:
            raise Unrecordable(f"the tape passed {self.limit} nodes")
        self.kinds.append(kind)
        self.a.append(a)
        self.b.append(b)
        la, lb = self.levels[a], self.levels[b]
        self.levels.append((la if la >= lb else lb) + 1)
        return _Sym(self, slot)


def record(state: KernelState, inputs: list, run, limit: int):
    """The tape of ``run`` from a dry run on clones of ``inputs`` over a
    copy of ``state``: ``run(clones, copy)`` runs the circuit and returns
    its flat output bits. None when the run raises (a payload read as a
    value, more than ``limit`` nodes, ``Unrecordable`` from ``run``
    itself, or a kernel error such as ``LadderExhausted``): the kernel
    then runs on the real bits and raises as it always did. ``state`` is
    not moved."""
    copy = state.copy()
    rec = _Recorder(len(inputs), limit)
    made: dict[int, CipherBit] = {}
    clones = [made.setdefault(id(b), CipherBit(
        copy, _Sym(rec, _CONSTANTS + i), b.epoch, b.depth, b._nonce))
        for i, b in enumerate(inputs)]
    try:
        out = run(clones, copy)
    except (HequelError, TypeError):  # Unrecordable is a TypeError
        # the kernel's own run on the real bits decides what the caller sees
        return None
    return Tape(rec, copy, state.nonce_state, clones, out)


def admit(tapes: dict, sightings: dict, state: KernelState, key: tuple,
          inputs: list, run, bounds: tuple) -> tuple:
    """(path, tape) for one run of the circuit whose shape ``key`` names
    (its kind tag first) on ``inputs`` (``shape``'s): ("kernel", None)
    when the kernel runs it, else "recorded" or "replayed" and the tape
    to replay. ``tapes`` maps a key to its tape and ``sightings`` the
    hash of a key seen once to whether it may be recorded; ``bounds`` is
    (tapes kept, sightings kept, nodes per tape). A sighting is kept as
    the hash of its key: two shapes that share one only change which path
    runs, since a tape is recorded from the inputs at hand and kept under
    the full key."""
    if state.fault_gate >= 0:
        return "kernel", None
    found = tapes.get(key)
    if found is not None:
        return "replayed", found
    seen = hash(key)
    sighted = sightings.get(seen)
    if sighted:
        found = record(state, inputs, run, bounds[2])
        if found is not None:
            del sightings[seen]
            _keep(tapes, key, found, bounds[0])
            return "recorded", found
        sightings[seen] = False
    elif sighted is None:
        _keep(sightings, seen, True, bounds[1])
    return "kernel", None


def _keep(store: dict, key, value, bound: int) -> None:
    """``store[key] = value``, dropping the oldest entry first when the
    store already holds ``bound``."""
    if len(store) >= bound:
        del store[next(iter(store))]
    store[key] = value


class Tape:
    """One shape's public circuit (see the module docstring).

    ``kinds`` and ``counts`` give each group's gate kind and node count,
    and ``operands`` each group's first operand slots, then its second
    ones; a group's nodes take the next slots in order. Per output bit in
    order: ``source``, its payload's slot, ``epochs``, ``depths`` and
    ``offsets``, its nonce less the stream's state at the start modulo
    2^64. ``through`` holds (output position, input position) for each
    output that is an input bit itself."""

    __slots__ = ("kinds", "counts", "operands", "source", "epochs",
                 "depths", "offsets", "through", "moves")

    def __init__(self, rec: _Recorder, copy: KernelState, z0: int,
                 clones: list, out: list):
        # renumber the nodes a level and a gate kind at a time, so each
        # group reads only the slots of groups before it: a counting sort
        # on level * 3 + kind, stable, so a group keeps the run's order
        first, kinds, n = rec.first, rec.kinds, len(rec.kinds)
        group = array("i", map(add, map(mul, rec.levels[first:],
                                        repeat(_KINDS)), kinds))
        sizes = [0] * (max(group, default=-1) + 1)
        for g in group:
            sizes[g] += 1
        nxt = list(accumulate(sizes, initial=first))
        slot = array("i", range(first)) + array("i", [0]) * n
        order = array("i", [0]) * n  # the nodes by their new slot
        for j, g in enumerate(group):
            new = nxt[g]
            nxt[g] = new + 1
            slot[first + j] = new
            order[new - first] = j
        del group
        self.kinds, self.counts = array("b"), array("i")
        self.operands = array("i")
        at = 0
        for g, size in enumerate(sizes):
            if size:
                members = order[at:at + size]
                at += size
                self.kinds.append(g % _KINDS)
                self.counts.append(size)
                self.operands.extend(map(slot.__getitem__,
                                         map(rec.a.__getitem__, members)))
                self.operands.extend(map(slot.__getitem__,
                                         map(rec.b.__getitem__, members)))
        position = {id(c): i for i, c in enumerate(clones)}
        self.source, self.epochs = array("i"), array("i")
        self.depths, self.offsets, self.through = array("i"), array("Q"), []
        for at, b in enumerate(out):
            i = position.get(id(b))
            if i is not None:
                self.through.append((at, i))
            p = b._payload
            self.source.append(slot[p.slot] if p.__class__ is _Sym else p)
            self.epochs.append(b.epoch)
            self.depths.append(b.depth)
            self.offsets.append((b._nonce - z0) & _MASK64 if i is None else 0)
        self.moves = (copy.xor_count, copy.and_count, copy.refresh_count,
                      copy.encrypt_count, (copy.nonce_state - z0) & _MASK64)

    @property
    def nodes(self) -> int:
        return len(self.operands) // 2

    def values(self, payloads) -> list:
        """Every slot's payload, given the input positions' payloads."""
        v = [0, 1, *payloads]
        get, operands, at = v.__getitem__, self.operands, 0
        for kind, count in zip(self.kinds, self.counts):
            mid = at + count
            v += map(_GATES[kind], map(get, operands[at:mid]),
                     map(get, operands[mid:mid + count]))
            at = mid + count
        return v

    def replay(self, state: KernelState, inputs: list, k: int) -> list:
        """The first ``k`` output bits the recorded circuit gives on
        ``inputs`` (``shape``'s), flat, with ``state``'s counters and
        nonce stream moved as the whole circuit moves them."""
        z0 = state.nonce_state
        v = self.values(map(_PAYLOAD, inputs))
        bits = list(map(CipherBit, repeat(state, k),
                        map(v.__getitem__, self.source[:k]),
                        self.epochs[:k], self.depths[:k],
                        map(_MASK64.__and__,
                            map(z0.__add__, self.offsets[:k]))))
        for at, i in self.through:
            if at < k:
                bits[at] = inputs[i]
        xors, ands, refreshes, encryptions, steps = self.moves
        state.xor_count += xors
        state.and_count += ands
        state.refresh_count += refreshes
        state.encrypt_count += encryptions
        state.nonce_state = (z0 + steps) & _MASK64
        return bits
