"""Gate tapes: the fetch compaction recorded once per public shape and
replayed after that.

Execution is oblivious, so the gates ``relalg.compact_rows`` runs, how
they are wired, and every output bit's epoch, depth and place in the
nonce stream follow from public data alone: the result's capacity, its
cell widths, each input bit's epoch and depth, which input positions hold
one bit object (in leveled mode ``kernel.lift`` reuses one copy per bit
and scope), and the ladder's mode, budget and epochs, fixed per server.
``shape`` reads that data off a result's rows as its key. Only the
payloads differ between two compactions of one shape (Carpov, Dubrulle
and Sirdey, *Armadillo*, SCC 2015, compile a program to its boolean
circuit once in the same way).

``record`` runs the kernel itself, unedited, on clones of the input bits
over a copy of the ladder's ``KernelState``. Each clone's payload is a
symbolic value whose ``^``, ``&`` and ``|`` append a node to the tape, so
the gates and the kernel's inline paths alike put every payload operation
there; a constant operand folds away. Its ``__bool__``, ``__eq__`` and
``__index__`` raise, so a payload-dependent branch fails the recording
instead of passing silently. The real state's counters and nonce stream
never move during the dry run.

A ``Tape`` holds the public circuit and no ciphertext or result: the
payload nodes as ``array`` operand indices grouped by level and gate
kind, and, per output bit, either the input bit it passes through or its
payload node, epoch, depth and nonce offset from the stream's state when
the compaction begins, with the totals the four counters and the nonce
stream move by. ``Tape.replay`` reads the inputs' payloads, runs the
nodes a level and a kind at a time with C-level maps, builds the output
bits and moves the counters and the stream by the recorded totals: every
count, nonce and byte is the kernel's.
"""

from __future__ import annotations

from array import array
from itertools import chain, groupby, repeat
from operator import and_, attrgetter, or_, xor

from hequel.errors import HequelError
from hequel.kernel import CipherBit, KernelState
from hequel.relalg import EncRow, _cell_starts, _cells_of, _row_bits, \
    compact_rows

_MASK64 = (1 << 64) - 1  # a nonce is the stream's counter modulo 2^64
# the payload operation of each gate kind, by its code on the tape
_XOR, _AND, _OR = range(3)
_GATES = (xor, and_, or_)
# a value slot holds a payload; slots 0 and 1 hold the constants, then
# one slot per input position, then one per node
_CONSTANTS = 2

_EPOCH, _DEPTH = attrgetter("epoch"), attrgetter("depth")
_PAYLOAD = attrgetter("_payload")
_CELLS, _BITS = attrgetter("cells"), attrgetter("bits")
_PRESENCE = attrgetter("presence")


def _inputs(rows) -> list:
    """The input bits of a compaction, in key order: every row's cell bits
    in row order, then every row's presence."""
    cells = chain.from_iterable(map(_BITS, chain.from_iterable(
        map(_CELLS, rows))))
    return [*cells, *map(_PRESENCE, rows)]


def shape(rows) -> tuple:
    """(input bits, shape key) of a compaction of ``rows``, two or more
    rows of one schema. The key is the capacity, the cell widths, every
    input bit's epoch and depth, and, when two positions hold one bit
    object, the first position of each position's bit."""
    bits = _inputs(rows)
    ids = list(map(id, bits))
    alias = ()
    if len(set(ids)) < len(ids):
        first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
        alias = tuple(map(first.__getitem__, ids))
    widths = tuple(map(len, map(_BITS, rows[0].cells)))
    return bits, (len(rows), widths, tuple(map(_EPOCH, bits)),
                  tuple(map(_DEPTH, bits)), alias)


class Unrecordable(TypeError):
    """A payload was read as a value in public control flow, or the tape
    grew past its node bound: the compaction cannot be recorded."""


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


def record(state: KernelState, rows, inputs: list, limit: int):
    """The tape of ``compact_rows(rows)`` from a dry run on clones of
    ``inputs`` (``shape``'s) over a copy of ``state``, or None when the
    run raises (a payload read as a value, more than ``limit`` nodes, or
    a kernel error such as ``LadderExhausted``): the kernel then runs on
    the real bits and raises as it always did. ``state`` is not moved."""
    copy = state.copy()
    rec = _Recorder(len(inputs), limit)
    made: dict[int, CipherBit] = {}
    clones = [made.setdefault(id(b), CipherBit(
        copy, _Sym(rec, _CONSTANTS + i), b.epoch, b.depth, b._nonce))
        for i, b in enumerate(inputs)]
    n = len(rows)
    starts = _cell_starts(rows[0].cells)
    m = starts[-1]
    clone_rows = [EncRow(_cells_of(clones[r * m:(r + 1) * m], starts),
                         clones[n * m + r]) for r in range(n)]
    try:
        out = compact_rows(clone_rows)
    except (HequelError, TypeError):  # Unrecordable is a TypeError
        # the kernel's own run on the real bits decides what the caller sees
        return None
    return Tape(rec, copy, state.nonce_state, clones, starts,
                [b for r in out for b in (*_row_bits(r.cells), r.presence)])


class Tape:
    """One compaction shape's public circuit (see the module docstring).

    ``kinds`` and ``counts`` give each group's gate kind and node count,
    and ``operands`` each group's first operand slots, then its second
    ones; a group's nodes take the next slots in order. Per output bit in
    row order, each row's cell bits then its presence: ``source``, its
    payload's slot, ``epochs``, ``depths`` and ``offsets``, its nonce less
    the stream's state at the start modulo 2^64. ``through`` holds (output
    position, input position) for each output that is an input bit
    itself."""

    __slots__ = ("kinds", "counts", "operands", "source", "epochs",
                 "depths", "offsets", "through", "starts", "moves")

    def __init__(self, rec: _Recorder, copy: KernelState, z0: int,
                 clones: list, starts: list, out: list):
        # renumber the nodes a level and a gate kind at a time, so each
        # group reads only the slots of groups before it
        first, levels, kinds = rec.first, rec.levels, rec.kinds

        def group(j):
            return levels[first + j], kinds[j]

        order = sorted(range(len(kinds)), key=group)
        slot = array("i", range(first)) + array("i", [0]) * len(order)
        for new, j in enumerate(order, first):
            slot[first + j] = new
        self.kinds, self.counts = array("b"), array("i")
        self.operands = array("i")
        for (_, kind), members in groupby(order, key=group):
            members = list(members)
            self.kinds.append(kind)
            self.counts.append(len(members))
            self.operands.extend([slot[rec.a[j]] for j in members])
            self.operands.extend([slot[rec.b[j]] for j in members])
        position = {id(c): i for i, c in enumerate(clones)}
        self.source, self.epochs = array("i"), array("i")
        self.depths, self.offsets, self.through = array("i"), array("Q"), []
        for at, b in enumerate(out):
            i = position.get(id(b))
            if i is not None:
                self.through.append((at, i))
                b = clones[i]  # its slots hold no new value
            p = b._payload
            self.source.append(slot[p.slot] if p.__class__ is _Sym else p)
            self.epochs.append(b.epoch)
            self.depths.append(b.depth)
            self.offsets.append((b._nonce - z0) & _MASK64 if i is None else 0)
        self.starts = starts
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

    def replay(self, state: KernelState, inputs: list, rows: int) -> list:
        """The first ``rows`` rows ``compact_rows`` gives on ``inputs``
        (``shape``'s), with ``state``'s counters and nonce stream moved
        as the whole compaction moves them."""
        z0 = state.nonce_state
        v = self.values(map(_PAYLOAD, inputs))
        width = self.starts[-1] + 1
        k = rows * width
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
        starts = self.starts
        return [EncRow(_cells_of(bits[at:at + width], starts),
                       bits[at + width - 1]) for at in range(0, k, width)]
