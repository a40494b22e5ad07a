"""End-to-end drivers: run a plan through the full encrypted protocol,
run it through the plaintext oracle, and compare the two as multisets;
a sort-rooted result must also match the oracle's order on its sort key.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from hequel import oracle, plans, protocol
from hequel.crypto import SecurityContext, keygen
from hequel.errors import VerificationFailure
from hequel.schema import PlainTable


@dataclass(frozen=True)
class RunStats:
    xor_gates: int
    and_gates: int
    refreshes: int
    encryptions: int
    wall_ms: float

    @property
    def total_gates(self) -> int:
        return self.xor_gates + self.and_gates


@dataclass(frozen=True)
class DiffReport:
    passed: bool
    detail: str
    stats: RunStats


def build_session(catalog: dict[str, PlainTable],
                  ctx: SecurityContext | None = None,
                  seed: bytes | None = None,
                  slack: int = 0) -> tuple[protocol.ServerStore, protocol.ClientSession]:
    """Key a fresh ladder and upload every catalog table."""
    if ctx is None:
        ctx = SecurityContext()
    ladder, keys = keygen(ctx, seed=seed)
    server = protocol.ServerStore(ladder)
    client = protocol.ClientSession(keys, ladder.public_key(1), slack=slack)
    for name, plain in catalog.items():
        protocol.setup_upload(client, server, name, plain)
    return server, client


def _counters(state) -> tuple[int, int, int, int]:
    return (state.xor_count, state.and_count,
            state.refresh_count, state.encrypt_count)


def _meter(state):
    """A function returning the RunStats spent on ``state`` since now."""
    before, t0 = _counters(state), time.perf_counter()
    return lambda: RunStats(
        *(b - a for a, b in zip(before, _counters(state))),
        (time.perf_counter() - t0) * 1000.0)


def run_encrypted(plan, server: protocol.ServerStore,
                  client: protocol.ClientSession) -> tuple[PlainTable, RunStats]:
    spent = _meter(server.ladder.state)
    result = protocol.run_query(client, server, plan)
    return result, spent()


def _first_difference(got: Counter, want: Counter) -> str:
    for row in sorted(set(got) | set(want)):
        if got[row] != want[row]:
            return (f"row {row}: encrypted engine has {got[row]}, "
                    f"oracle has {want[row]}")
    return ""


def _key_order_difference(plan, got: PlainTable, want: PlainTable) -> str:
    """Where the result's sequence of sort keys leaves the oracle's, or "".
    A sort at the plan's root, under projections that keep its column,
    promises an order. Only the keys are compared: rows with equal keys
    may come in another order, as groupby emits groups in key order and
    the oracle in order of first appearance."""
    while isinstance(plan, plans.Project):
        plan = plan.child
    if not isinstance(plan, plans.Sort) or plan.col not in got.schema.names:
        return ""
    i = got.schema.index_of(plan.col)
    got_keys, want_keys = ([r[i] for r in t.rows] for t in (got, want))
    if got_keys == want_keys:
        return ""
    return (f"sort order on {plan.col!r}: encrypted engine has {got_keys}, "
            f"oracle has {want_keys}")


def diff_run(plan, catalog: dict[str, PlainTable],
             ctx: SecurityContext | None = None,
             seed: bytes | None = None, slack: int = 0,
             fault_gate: int | None = None) -> DiffReport:
    """Run a plan both ways and compare present-row multisets, and for a
    sort-rooted plan the sequence of sort keys too.

    ``fault_gate`` flips the output of the N-th gate of the encrypted run
    (testing hook to prove the comparison actually detects mutations).
    """
    server, client = build_session(catalog, ctx=ctx, seed=seed, slack=slack)
    if fault_gate is not None:
        server.ladder.inject_gate_fault(fault_gate)
    spent = _meter(server.ladder.state)
    try:
        enc_result = protocol.run_query(client, server, plan)
    except VerificationFailure as exc:
        # a corrupted gate can surface as a count/fetch inconsistency
        # before any table comparison; that is still a detected mismatch
        return DiffReport(False, f"result verification failed: {exc}",
                          spent())
    finally:
        server.ladder.clear_gate_fault()
    stats = spent()
    want_result = oracle.eval_plan(plan, catalog)
    got = Counter(enc_result.rows)
    want = Counter(want_result.rows)
    if enc_result.schema != want_result.schema:
        return DiffReport(
            False,
            f"schema mismatch: {enc_result.schema.columns} vs "
            f"{want_result.schema.columns}", stats)
    if got != want:
        return DiffReport(False, _first_difference(got, want), stats)
    detail = _key_order_difference(plan, enc_result, want_result)
    return DiffReport(not detail, detail, stats)
