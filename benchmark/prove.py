"""Check that the benchmark is steady, and record its baseline.

    python3 benchmark/prove.py
    python3 benchmark/prove.py --baseline benchmark/metadata.json --out b.json

Runs ``run.py`` with seeds 1 to 10 on every workload, one process at a
time, with the command and run length from ``BENCHMARK.json``. For each
end-to-end metric it prints the median and the spread, the distance
between the first and third quartile as a share of the median, and calls
the set steady only if every spread is below a third of the metric's
bound. It checks that every run was correct, and adds one traced run per
workload with seed 1, whose baseline cross-check and phase check lines are
recorded too. With ``--baseline`` the set must also not be worse than an
earlier set's medians by more than each bound.

The results, with the environment and each workload's configuration, are
written to ``benchmark/metadata.json`` unless ``--out`` names another file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run(command, workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def agrees(now: dict, before: dict, spec: dict) -> bool:
    """Whether no median is worse than the earlier set's by more than the
    metric's bound."""
    ok = True
    for m in spec["end_to_end"]:
        new, old = now[m["name"]]["median"], before[m["name"]]["median"]
        worse = (old - new if m["better"] == "higher" else new - old) / old
        ok &= worse <= m["bound"]
        print(f"  {m['name']:20s} median {old:14.4f} -> {new:14.4f} "
              f"worse by {worse:+.3f} bound {m['bound']:.3f}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(HERE / "metadata.json"))
    ap.add_argument("--baseline", default=None,
                    help="an earlier metadata.json whose medians this set "
                         "must not be worse than by more than each bound")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    sys.path.insert(1, str(ROOT / "src"))
    from hequel.kernel import KERNEL_NAME
    from workloads import WORKLOADS

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    meta = {
        "environment": {"kernel": KERNEL_NAME,
                        "python": platform.python_version(),
                        "nproc": os.cpu_count(),
                        "machine": platform.machine()},
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    steady = True
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result, _ = run(spec["command"], name, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: incorrect result")
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        summary = {}
        for k, v in values.items():
            s = spread(v)
            ok = s < bounds[k] / 3
            steady &= ok
            summary[k] = {"median": statistics.median(v), "spread": s,
                          "bound": bounds[k], "unit": e2e_units[k]}
            print(f"  {k:20s} median {statistics.median(v):14.4f} "
                  f"spread {s:6.3f} bound {bounds[k]:.3f} "
                  f"{'ok' if ok else 'TOO WIDE'}")
        entry = {"config": WORKLOADS[name].describe(),
                 "seeds": [SEEDS[0], SEEDS[-1]],
                 "end_to_end": summary}
        result, lines = run(spec["command"], name, TRACE_SEED,
                            spec["run_seconds"], 1)
        if not result["correct"]:
            raise SystemExit(f"{name} traced run: incorrect result")
        entry["trace_seed"] = TRACE_SEED
        entry["baseline_cross_check"] = [
            ln for ln in lines if ln.startswith("baseline ")]
        entry["trace_checks"] = [
            ln for ln in lines if ln.startswith(("phase check", "gate self-test"))]
        entry["per_layer"] = {k: v["value"]
                              for k, v in result["metrics"].items()}
        for ln in entry["baseline_cross_check"] + entry["trace_checks"]:
            print(f"  {ln}")
        meta["workloads"][name] = entry
        if args.baseline:
            steady &= agrees(summary, json.loads(Path(args.baseline).read_text())
                             ["workloads"][name]["end_to_end"], spec)
    Path(args.out).write_text(json.dumps(meta, indent=1) + "\n")
    print(f"wrote {args.out}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
