"""The closed loop and its correctness gate.

One client runs ops back to back: the next op starts only when the
previous one has returned and been checked. Only ``Op.run`` is timed. The
gate runs after it, outside the timed region:

- the result multiset and schema must equal ``oracle.eval_plan``;
- an op may add its own check (ingest decrypts the stored table);
- every op of one template must report the same AND, XOR, refresh and
  encryption counts and the same result capacity, which is the
  obliviousness contract.

A miss is counted, never raised, so ``failed`` reports it.
"""

from __future__ import annotations

import contextlib
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

from hequel import plans, serial
from hequel.crypto import SecurityContext
from hequel.relalg import Cmp, ColRef, Lit
from hequel.schema import PlainTable, Schema

import probe
import spans
from workloads import Instance, Op, Session, new_session, query_op

SELF_TEST_FAULTS = 32


@dataclass
class Outcome:
    template: str
    seconds: float  # wall time of the timed region
    probe_s: float  # reference-loop time around it
    covered_s: float | None  # traced ops: time inside the op's child spans
    counts: tuple[int, int, int, int]  # and, xor, refresh, encrypt
    bytes_by_type: dict[str, int]
    messages_by_type: dict[str, int]
    cipher_bits: int  # ciphertext bits in table, row and count messages
    cipher_bytes: int  # size of those messages
    max_epoch: int
    max_depth: int
    capacity: int | None
    failure: str | None

    @property
    def traced(self) -> bool:
        return self.covered_s is not None

    @property
    def scaled(self) -> float:
        """Seconds at the reference speed."""
        return self.seconds * probe.REFERENCE_S / self.probe_s


def _cipher_bits(ladder, kind: str, payload) -> list | None:
    """The ciphertext bits of a table, row or count message, rebuilt with
    the program's own decoders; None for other messages."""
    if kind == "result_count":
        return list(serial.word_from_obj(ladder, payload["count"]).bits)
    if kind == "upload_table":
        rows = serial.table_from_obj(ladder, payload["table"]).rows
    elif kind == "fetch_rows":
        rows = [serial.row_from_obj(ladder, r) for r in payload["rows"]]
    else:
        return None
    return [b for r in rows for b in (*(b for w in r.cells for b in w.bits),
                                      r.presence)]


@dataclass
class Wire:
    """What one op's messages carried, decoded after the timed region."""

    sizes: Counter = field(default_factory=Counter)
    numbers: Counter = field(default_factory=Counter)
    cipher_bits: int = 0
    cipher_bytes: int = 0
    max_epoch: int = 0  # over result ciphertexts, the replies
    max_depth: int = 0
    capacity: int | None = None


def _read_log(ladder, log) -> Wire:
    wire = Wire()
    for request, reply in log:
        for data in (request, reply):
            msg = serial.message_from_bytes(data)
            kind, payload = msg["type"], msg["payload"]
            wire.sizes[kind] += len(data)
            wire.numbers[kind] += 1
            bits = _cipher_bits(ladder, kind, payload)
            if bits is None:
                continue
            wire.cipher_bits += len(bits)
            wire.cipher_bytes += len(data)
            if data is reply:
                wire.max_epoch = max([wire.max_epoch] + [b.epoch for b in bits])
                wire.max_depth = max([wire.max_depth] + [b.depth for b in bits])
            if kind == "result_count":
                wire.capacity = payload["capacity"]
    return wire


def _compare(got: PlainTable, want: PlainTable) -> str | None:
    if got.schema != want.schema:
        return f"schema {got.schema.columns} != oracle {want.schema.columns}"
    if Counter(got.rows) != Counter(want.rows):
        return f"rows {sorted(got.rows)[:4]}... != oracle {sorted(want.rows)[:4]}..."
    return None


def run_op(session: Session, op: Op, tracer=None) -> Outcome:
    """Run and check one op. With a tracer, the traced functions are
    patched around the timed region and the op is the root span."""
    state = session.ladder.state
    session.server.log.clear()
    result = failure = None
    before = probe.probe_seconds()
    with spans.installed(tracer) if tracer else contextlib.nullcontext():
        c0 = spans.counters(state)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run(session)
            else:
                with tracer.span("op"):
                    result = op.run(session)
        except Exception:  # any raise is a failed op, reported below
            failure = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        counts = tuple(b - a for a, b in zip(c0, spans.counters(state)))
    probe_s = (before + probe.probe_seconds()) / 2
    wire = _read_log(session.ladder, session.server.log)
    if failure is None:
        failure = _compare(result, op.expected())
    if failure is None and wire.max_epoch < 1:
        failure = "no reply carried a result ciphertext with an epoch"
    if failure is None and op.check is not None:
        failure = op.check(session)
    return Outcome(op.template, seconds, probe_s,
                   tracer.last_root_child_s if tracer else None, counts,
                   dict(wire.sizes), dict(wire.numbers), wire.cipher_bits,
                   wire.cipher_bytes, wire.max_epoch, wire.max_depth,
                   wire.capacity, failure)


@dataclass
class Loop:
    """Outcomes of one closed loop, grouped into cycles."""

    outcomes: list[Outcome] = field(default_factory=list)
    cycle_rates: list[float] = field(default_factory=list)
    signatures: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def add(self, out: Outcome) -> None:
        if out.failure is None:
            sig = (out.counts, out.capacity)
            first = self.signatures.setdefault(out.template, sig)
            if sig != first:
                out.failure = (f"{out.template}: counts/capacity {sig} differ "
                               f"from the template's first op {first}")
        if out.failure is not None:
            self.failures.append(out.failure)
        self.outcomes.append(out)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)


def run_loop(session: Session, instance: Instance, seconds: float,
             min_ops: int, tracer=None) -> Loop:
    """Run whole cycles, from cycle 1, until ``seconds`` of wall time have
    passed and at least ``min_ops`` ops are done. With a tracer, every
    other op is traced, so traced and untraced ops share the machine's
    changing speed."""
    loop = Loop()
    start = time.perf_counter()
    cycle = 1
    while time.perf_counter() - start < seconds or loop.attempted < min_ops:
        instance.before_cycle(session)
        busy = 0.0
        ops = instance.cycle(cycle)
        for op in ops:
            traced = tracer if loop.attempted % 2 else None
            out = run_op(session, op, traced)
            loop.add(out)
            busy += out.scaled
        loop.cycle_rates.append(len(ops) / busy)
        cycle += 1
    return loop


def tail_min_ops(tail_pct: int) -> int:
    """Fewest samples that leave ten beyond the tail percentile."""
    return -(-10 * 100 // (100 - tail_pct))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# --- gate self-test ----------------------------------------------------------

def self_test() -> tuple[int, int]:
    """Flip one gate of a small op, at ``SELF_TEST_FAULTS`` positions spread
    evenly over its gates, through the same gate the workloads use. Returns
    (faults that surfaced as counted failures, faults injected). Clean ops
    before and after must pass."""
    schema = Schema((("k", 3), ("v", 2)))
    catalog = {"s": PlainTable(schema, [(5, 1), (2, 3), (6, 0)])}
    session = new_session(SecurityContext(), catalog, "bench-self-test")
    plan = plans.Select(Cmp(">", ColRef("k"), Lit(4)), plans.TableRef("s"))
    op = query_op("self-test", plan, catalog)

    clean = Loop()
    clean.add(run_op(session, op))
    gates = sum(clean.outcomes[0].counts[:2])
    faulted = Loop()
    for i in range(SELF_TEST_FAULTS):
        session.ladder.inject_gate_fault(1 + i * gates // SELF_TEST_FAULTS)
        try:
            faulted.add(run_op(session, op))
        finally:
            session.ladder.clear_gate_fault()
    clean.add(run_op(session, op))
    if clean.failures:
        raise SystemExit(f"gate self-test: clean op failed: {clean.failures[0]}")
    return len(faulted.failures), SELF_TEST_FAULTS
