"""Isolated per-layer measurements for the traced run.

Microloops time the kernel and crypto layers; single calls on fresh
inputs count and time the word circuits and one compare-swap. Counts are
exact and repeat on every run. Times are the median of several calls.

Circuits, the compare-swap and the cross-checks run in circular mode with
``depth_budget=8``, the context of the ROADMAP baseline, so they read the
same on every workload.
"""

from __future__ import annotations

import statistics
import time

from hequel import bench, engine, plans
from hequel.circuits import (encrypt_word, word_add, word_div, word_eq,
                             word_gt, word_mux)
from hequel.crypto import SecurityContext, encrypt_bit, keygen
from hequel.kernel import KERNEL_NAME
from hequel.relalg import Cmp, ColRef, Lit, encrypt_table, oblivious_sort_rows, op_sort
from hequel.schema import PlainTable, Schema

import spans

BASE = SecurityContext("circular", 8)
REPS = 5
MICROLOOP = 20000
CALLS = 15  # single circuit calls timed, each on fresh inputs

# ROADMAP baseline figures the benchmark's own numbers are checked against.
BASELINE = {
    "circuits.word_gt.w8.and_gates": 64,
    "circuits.word_gt.w8.refreshes": 12,
    "circuits.word_add.w8.and_gates": 16,
    "circuits.word_mux.w8.and_gates": 16,
    # a 2-row bubble sort is n(n-1) = 2 compare-swaps of 145 ANDs each
    "relalg.compare_swap.and_gates": 2 * 145,
    "relalg.op_sort_n16.and_gates": 34800,
    "relalg.op_sort_n16.refreshes": 17866,
    "protocol.select_n32.query_ands": 2464,
    "protocol.select_n32.fetch_ands": 81344,
}


def _median_rate(fn, units: int) -> float:
    rates = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        rates.append(units / (time.perf_counter() - t0))
    return statistics.median(rates)


def kernel_and_crypto(ctx: SecurityContext) -> dict:
    out = {}
    out["kernel.gates_per_s"] = statistics.median(
        bench.bench_gates(KERNEL_NAME, MICROLOOP).gates_per_sec
        for _ in range(REPS))

    ladder, _ = keygen(BASE, seed=b"bench-refresh")
    impl = ladder.state.impl
    bit = encrypt_bit(ladder.public_key(), 1)

    def refreshes():
        c = bit
        for _ in range(MICROLOOP):
            c = impl.refresh(c)
    out["kernel.refreshes_per_s"] = _median_rate(refreshes, MICROLOOP)

    keygen_ms = []
    for i in range(20):
        t0 = time.perf_counter()
        keygen(ctx, seed=b"bench-keygen-%d" % i)
        keygen_ms.append((time.perf_counter() - t0) * 1000)
    out["crypto.keygen_ms"] = statistics.median(keygen_ms)

    pk = ladder.public_key()

    def encrypts():
        for i in range(MICROLOOP):
            encrypt_bit(pk, i & 1)
    out["crypto.encrypt_bits_per_s"] = _median_rate(encrypts, MICROLOOP)
    return out


def _count_and_time(state, make_args, fn) -> tuple[int, int, float]:
    """ANDs and refreshes of one call (exact), and its median microseconds,
    each call on freshly encrypted inputs."""
    counts = None
    times = []
    for _ in range(CALLS):
        args = make_args()
        a0, r0 = state.and_count, state.refresh_count
        t0 = time.perf_counter()
        fn(*args)
        times.append((time.perf_counter() - t0) * 1e6)
        got = (state.and_count - a0, state.refresh_count - r0)
        if counts is not None and got != counts:
            raise SystemExit(f"{fn.__name__}: counts {got} != {counts}")
        counts = got
    return counts[0], counts[1], statistics.median(times)


def circuits_and_relalg() -> dict:
    ladder, _ = keygen(BASE, seed=b"bench-circuits")
    state, pk = ladder.state, ladder.public_key()
    out = {}
    for w in (8, 16):
        top = (1 << w) - 1

        def two_words(w=w, top=top):
            return (encrypt_word(pk, top * 3 // 5, w),
                    encrypt_word(pk, top // 3, w))

        def mux_args(w=w):
            return (encrypt_bit(pk, 1),) + two_words()

        cases = {"word_eq": (two_words, word_eq),
                 "word_gt": (two_words, word_gt),
                 "word_add": (two_words, word_add),
                 "word_mux": (mux_args, word_mux),
                 "word_div": (two_words, word_div)}
        for name, (make_args, fn) in cases.items():
            ands, refs, us = _count_and_time(state, make_args, fn)
            key = f"circuits.{name}.w{w}"
            out[f"{key}.and_gates"] = ands
            out[f"{key}.refreshes"] = refs
            out[f"{key}.us"] = us

    kv = Schema((("k", 8), ("v", 8)))
    pair = PlainTable(kv, [(200, 1), (100, 2)])

    def two_rows():
        return (encrypt_table(pk, pair).rows,)

    def sort_two(rows):
        return oblivious_sort_rows(rows, lambda r: (r.cells[0],), True,
                                   state, 1)
    ands, refs, us = _count_and_time(state, two_rows, sort_two)
    out["relalg.compare_swap.and_gates"] = ands
    out["relalg.compare_swap.refreshes"] = refs
    out["relalg.compare_swap.us"] = us

    sixteen = encrypt_table(pk, PlainTable(
        kv, [((i * 37) % 256, i) for i in range(16)]))
    a0, r0 = state.and_count, state.refresh_count
    op_sort("k", True, sixteen)
    out["relalg.op_sort_n16.and_gates"] = state.and_count - a0
    out["relalg.op_sort_n16.refreshes"] = state.refresh_count - r0
    return out


def select_split() -> dict:
    """The handle-level split of ``select(k>50)`` over 32 rows, read from
    the traced protocol spans."""
    kv = Schema((("k", 8), ("v", 8)))
    catalog = {"a": PlainTable(kv, [((i * 53) % 256, i) for i in range(32)])}
    server, client = engine.build_session(catalog, ctx=BASE,
                                          seed=b"bench-select-split")
    plan = plans.Select(Cmp(">", ColRef("k"), Lit(50)), plans.TableRef("a"))
    tracer = spans.Tracer(server.ladder.state)
    with spans.installed(tracer):
        engine.run_encrypted(plan, server, client)
    query = tracer.inclusive_figures("protocol.handle.query")["and"]
    fetch = tracer.inclusive_figures("protocol.handle.fetch_rows_request")["and"]
    return {"protocol.select_n32.query_ands": query,
            "protocol.select_n32.fetch_ands": fetch}


def cross_check(measured: dict) -> list[str]:
    """One line per ROADMAP baseline figure; disagreements are reported,
    not corrected."""
    lines = []
    for name, want in BASELINE.items():
        got = measured.get(name)
        verdict = "agrees" if got == want else "DISAGREES"
        lines.append(f"baseline {name}: ROADMAP {want}, measured {got}, {verdict}")
    return lines
