"""End-to-end drivers: run a plan through the full encrypted protocol,
run it through the plaintext oracle, and compare the two as multisets.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from hequel import oracle, protocol
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
    encrypted_rows: list
    oracle_rows: list
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


def run_encrypted(plan, server: protocol.ServerStore,
                  client: protocol.ClientSession,
                  n_prime: int | None = None) -> tuple[PlainTable, RunStats]:
    state = server.ladder.state
    before = _counters(state)
    t0 = time.perf_counter()
    result = protocol.run_query(client, server, plan, n_prime)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    after = _counters(state)
    stats = RunStats(after[0] - before[0], after[1] - before[1],
                     after[2] - before[2], after[3] - before[3], wall_ms)
    return result, stats


def _first_difference(got: Counter, want: Counter) -> str:
    for row in sorted(set(got) | set(want)):
        if got[row] != want[row]:
            return (f"row {row}: encrypted engine has {got[row]}, "
                    f"oracle has {want[row]}")
    return ""


def diff_run(plan, catalog: dict[str, PlainTable],
             ctx: SecurityContext | None = None,
             seed: bytes | None = None, slack: int = 0,
             fault_gate: int | None = None) -> DiffReport:
    """Run a plan both ways and compare present-row multisets.

    ``fault_gate`` flips the output of the N-th gate of the encrypted run
    (testing hook to prove the comparison actually detects mutations).
    """
    server, client = build_session(catalog, ctx=ctx, seed=seed, slack=slack)
    if fault_gate is not None:
        server.ladder.inject_gate_fault(fault_gate)
    try:
        enc_result, stats = run_encrypted(plan, server, client)
    except VerificationFailure as exc:
        # a corrupted gate can surface as a count/fetch inconsistency
        # before any table comparison; that is still a detected mismatch
        empty_stats = RunStats(0, 0, 0, 0, 0.0)
        return DiffReport(False, f"result verification failed: {exc}",
                          [], [], empty_stats)
    finally:
        server.ladder.clear_gate_fault()
    want_result = oracle.eval_plan(plan, catalog)
    got = Counter(enc_result.rows)
    want = Counter(want_result.rows)
    if enc_result.schema != want_result.schema:
        return DiffReport(
            False,
            f"schema mismatch: {enc_result.schema.columns} vs "
            f"{want_result.schema.columns}",
            list(enc_result.rows), list(want_result.rows), stats)
    if got != want:
        return DiffReport(False, _first_difference(got, want),
                          list(enc_result.rows), list(want_result.rows), stats)
    return DiffReport(True, "", list(enc_result.rows),
                      list(want_result.rows), stats)
