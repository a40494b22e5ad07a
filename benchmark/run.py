"""hequel benchmark: one workload, one closed-loop client, one process.

    python3 benchmark/run.py --workload relational-fetch --seed 1 \
        --seconds 35 --trace 0

Run from a checkout; the program is imported from ``src/`` beside this
directory. ``--trace 0`` measures the end-to-end metrics with nothing
wrapped. ``--trace 1`` reports per-layer metrics: isolated microloops and
circuit calls, then the workload with every other op traced, so the
tracing overhead is measured in the same process. End-to-end times are
scaled to a reference machine speed (see ``probe.py``); raw wall times are
printed beside them. Human-readable lines go first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(1, str(SRC))

try:
    import hequel
except ImportError as exc:
    sys.exit(f"cannot import hequel from {SRC}: {exc}")
if Path(hequel.__file__).resolve().parent.parent != SRC.resolve():
    sys.exit(f"hequel imported from {hequel.__file__}, not from {SRC}")

from hequel.kernel import KERNEL_NAME  # noqa: E402

import layers  # noqa: E402
import loop  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, new_session  # noqa: E402

SETUP_REPS = 15
SETUP_PROBES = 5
# noise allowed between neighbouring ops in the phase check
PHASE_MARGIN = 0.05

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MESSAGE_TYPES = ("upload_table", "upload_ok", "query", "result_count",
                 "fetch_rows_request", "fetch_rows")
PROTOCOL_PHASES = list(spans.CLIENT_PHASES) + [
    f"handle.{t}" for t in spans.SERVER_MESSAGES]


def environment() -> dict:
    return {"kernel": KERNEL_NAME, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def reference_seconds() -> float:
    """Median of SETUP_PROBES reference loops: a set-up is timed once per
    repetition, so its scale cannot rest on one noisy probe."""
    return statistics.median(probe.probe_seconds() for _ in range(SETUP_PROBES))


def setup(workload, instance, seed: int):
    """Key, upload the catalog and run one warm-up op, SETUP_REPS times.
    Returns the last session, the median set-up seconds at the reference
    speed, the raw median and the warm-up outcomes."""
    scaled, raw, warm = [], [], []
    session = None
    for _ in range(SETUP_REPS):
        op = instance.cycle(0)[0]
        gc.collect()
        before = reference_seconds()
        t0 = time.perf_counter()
        session = new_session(workload.context(), instance.catalog,
                              f"hequel-bench-{seed}")
        seconds = time.perf_counter() - t0
        out = loop.run_op(session, op)
        seconds += out.seconds
        probe_s = (before + reference_seconds()) / 2
        raw.append(seconds)
        scaled.append(seconds * probe.REFERENCE_S / probe_s)
        warm.append(out)
    return session, statistics.median(scaled), statistics.median(raw), warm


def template_medians(outcomes, value) -> dict[str, float]:
    """Median of ``value(outcome)`` for each template."""
    by: dict[str, list[float]] = {}
    for o in outcomes:
        by.setdefault(o.template, []).append(value(o))
    return {t: statistics.median(v) for t, v in by.items()}


def scaled(o) -> float:
    return o.scaled


def covered(o) -> float:
    """Time in a traced op's child spans, at the reference speed."""
    return o.covered_s * probe.REFERENCE_S / o.probe_s


def end_to_end(workload, lp: loop.Loop, setup_s: float) -> dict:
    outs = lp.outcomes
    n = len(outs)
    lat = [o.scaled * 1000 for o in outs]
    total = [sum(o.counts[i] for o in outs) for i in range(4)]
    wire = sum(sum(o.bytes_by_type.values()) for o in outs)
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(lp.cycle_rates),
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail": loop.percentile(lat, workload.tail_pct),
        "and_gates_per_op": total[0] / n,
        "refreshes_per_op": total[2] / n,
        "encryptions_per_op": total[3] / n,
        "wire_bytes_per_op": wire / n,
        "ladder_epochs_used": max(o.max_epoch for o in outs),
        "ok_op_frac": 1 - len(lp.failures) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_layers(lp: loop.Loop, tracer: spans.Tracer,
                  results_held: int) -> tuple[dict, list[str], list[str]]:
    outs = [o for o in lp.outcomes if o.traced]
    n = len(outs)
    total = [sum(o.counts[i] for o in outs) for i in range(4)]
    m = {
        "kernel.xor_gates": total[1] / n,
        "kernel.refresh_per_and": total[2] / max(1, total[0]),
        "kernel.max_depth": max(o.max_depth for o in outs),
        "kernel.max_epoch": max(o.max_epoch for o in outs),
    }
    for op in spans.RELALG_OPS:
        f = tracer.self_figures(f"relalg.{op}")
        m[f"relalg.{op}.ms_self"] = f["s"] * 1000 / n
        m[f"relalg.{op}.and_gates"] = f["and"] / n
        m[f"relalg.{op}.refreshes"] = f["refresh"] / n
    for fn in spans.PLAN_WALKERS:
        m[f"plans.{fn}.ms_self"] = tracer.self_figures(f"plans.{fn}")["s"] * 1000 / n
    for side in ("encode", "decode"):
        m[f"serial.{side}.ms_self"] = tracer.self_figures(f"serial.{side}")["s"] * 1000 / n
    sizes: dict[str, int] = {}
    counts: dict[str, int] = {}
    for o in outs:
        for k, v in o.bytes_by_type.items():
            sizes[k] = sizes.get(k, 0) + v
        for k, v in o.messages_by_type.items():
            counts[k] = counts.get(k, 0) + v
    for t in MESSAGE_TYPES:
        m[f"serial.bytes.{t}"] = sizes.get(t, 0) / max(1, counts.get(t, 0))
    m["serial.bytes_per_cipher_bit"] = (
        sum(o.cipher_bytes for o in outs)
        / max(1, sum(o.cipher_bits for o in outs)))
    for phase in PROTOCOL_PHASES:
        f = tracer.self_figures(f"protocol.{phase}")
        m[f"protocol.{phase}.ms_self"] = f["s"] * 1000 / n
        m[f"protocol.{phase}.and_gates"] = f["and"] / n
        m[f"protocol.{phase}.refreshes"] = f["refresh"] / n
    fetch = tracer.inclusive_figures("protocol.handle.fetch_rows_request")
    m["protocol.fetch_and_share"] = fetch["and"] / max(1, total[0])
    m["protocol.results_held"] = results_held
    m["machine.probe_us"] = statistics.median(o.probe_s for o in outs) * 1e6

    op = tracer.inclusive_figures("op")
    m["trace.unattributed_frac"] = tracer.self_figures("op")["s"] / op["s"]

    # Traced and untraced ops alternate, so both see the machine's changing
    # speed. The overhead compares per-template medians of whole ops. The
    # check compares, over the same templates, the traced ops' phases (the
    # op's child spans) with whole untraced ops: they must agree within the
    # overhead plus PHASE_MARGIN, or the traced run fails.
    traced = template_medians(outs, scaled)
    cover = template_medians(outs, covered)
    untraced = template_medians((o for o in lp.outcomes if not o.traced),
                                scaled)
    both = [t for t in traced if t in untraced]
    sum_traced = sum(traced[t] for t in both)
    sum_cover = sum(cover[t] for t in both)
    sum_untraced = sum(untraced[t] for t in both)
    overhead = sum_traced / sum_untraced - 1
    m["trace.traced_ops_per_s"] = len(both) / sum_traced
    m["trace.untraced_ops_per_s"] = len(both) / sum_untraced
    m["trace.overhead_frac"] = overhead
    lines = [f"phase gap {t}: phases {cover[t] * 1000:.2f} ms, untraced op "
             f"{untraced[t] * 1000:.2f} ms, {cover[t] / untraced[t] - 1:+.1%}"
             for t in both]
    gap = sum_cover / sum_untraced - 1
    verdict = ("within" if abs(gap) <= abs(overhead) + PHASE_MARGIN
               else "OUTSIDE")
    lines.append(
        f"phase check: the phases of a traced op cover "
        f"{sum_cover * 1000:.2f} ms, an untraced op takes "
        f"{sum_untraced * 1000:.2f} ms (sums of template medians): gap "
        f"{gap:+.1%}, {verdict} the tracing overhead {overhead:+.1%} "
        f"(+{PHASE_MARGIN:.0%})")
    return m, lines, lines[-1:] if verdict == "OUTSIDE" else []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    print(f"hequel benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} {environment()}")
    print(f"workload: {json.dumps(workload.describe())}")
    surfaced, injected = loop.self_test()
    print(f"gate self-test: {surfaced} of {injected} single-gate faults "
          "surfaced as counted failures")
    if surfaced == 0:
        print("gate self-test failed: no injected fault was caught",
              file=sys.stderr)
        return 1

    rng = random.Random(args.seed)
    instance = workload.make(rng)
    if args.trace:
        metrics = layers.kernel_and_crypto(workload.context())
        metrics.update(layers.circuits_and_relalg())
        metrics.update(layers.select_split())
        for line in layers.cross_check(metrics):
            print(line)
    session, setup_s, setup_raw, warm = setup(workload, instance, args.seed)
    gc.collect()
    if not args.trace:
        lp = loop.run_loop(session, instance, args.seconds,
                           loop.tail_min_ops(workload.tail_pct))
        metrics = end_to_end(workload, lp, setup_s)
    else:
        tracer = spans.Tracer(session.ladder.state)
        # two cycles at least, so every template has traced and untraced ops
        lp = loop.run_loop(session, instance, args.seconds,
                           2 * len(workload.templates), tracer)
        layer, lines, phase_failures = traced_layers(
            lp, tracer, len(session.server.results))
        metrics.update(layer)
        for line in lines:
            print(line)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to "
              f"{path.relative_to(HERE.parent)}")

    print(f"set-up: {setup_raw:.4f} s wall, {setup_s:.4f} s at reference speed")
    print("op latency by template, median ms wall / at reference speed:")
    raw = template_medians(lp.outcomes, lambda o: o.seconds)
    n = Counter(o.template for o in lp.outcomes)
    for t, v in template_medians(lp.outcomes, scaled).items():
        print(f"  {t:<12} n={n[t]:<4} {raw[t] * 1000:9.2f} / {v * 1000:9.2f}")
    print(f"reference loop: median "
          f"{statistics.median(o.probe_s for o in lp.outcomes) * 1e6:.1f} us,"
          f" {probe.REFERENCE_S * 1e6:.1f} us at reference speed")
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    failures = lp.failures + [o.failure for o in warm if o.failure]
    if args.trace:
        failures += phase_failures
    for f in failures[:3]:
        print(f"failed op: {f}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": lp.attempted + len(warm),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
