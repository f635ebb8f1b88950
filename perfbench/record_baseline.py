"""Rewrite baseline.json: every workload over ten seeds, and one traced run.

    python3 perfbench/record_baseline.py [--seconds S] [--seeds 101 102 ...]

Runs run.py once per workload and seed with --trace 0, one after another,
and reports for each end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median;
then one --trace 1 run per workload on the first seed for the per-layer
figures.  Progress goes to standard error.  Run it from the root of the
repository on an otherwise idle host.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-pool", "analyze-large", "iso-relabel")
HELD_OUT_SEED = 7919


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: wrong outputs\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(101, 111)))
    args = ap.parse_args()

    end_to_end, per_layer = {}, {}
    for workload in WORKLOADS:
        values = {}
        for seed in args.seeds:
            for name, value in run(workload, seed, args.seconds, 0).items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.5g}" for k, v in values.items()), file=sys.stderr)
        end_to_end[workload] = {name: summarize(v) for name, v in sorted(values.items())}
        per_layer[workload] = dict(sorted(run(workload, args.seeds[0], args.seconds, 1).items()))
    cpus = len(os.sched_getaffinity(0))
    baseline = {
        "about": (
            f"Baseline of perfbench on a {platform.machine()} host with {cpus} CPUs, "
            f"Python {platform.python_version()}.  End-to-end figures: one run per workload "
            f"and seed in 'seeds', --seconds {args.seconds} --trace 0; median, quartiles "
            "(statistics.quantiles n=4), spread = (q3 - q1) / median, and the values in seed "
            "order.  Times are scaled to the reference speed of speed.py.  Per-layer "
            "figures: one --trace 1 run on the first seed."),
        "seeds": args.seeds,
        "held_out_seed": HELD_OUT_SEED,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
