"""lie-ncg benchmark: three closed-loop workloads with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

- ``verify-pool``: every registered statement plus ``check_figures`` over the
  criterion-1 pool (the catalog and every non-abelian structure tensor for
  n, q in {2, 3}: 1569 instances), in a seeded order.  An op is one
  (statement, instance) check, made as
  ``check_all_statements([instance], [statement])``; a latency sample is the
  mean check time of the instances that share one labeled graph.
- ``analyze-large``: ``lie_ncg.cli.main`` validate, analyze and export
  (dot, graphml, json) on seeded GL(n, q) basis changes of five families with
  80-255 vertices, in a seeded order.  An op is one ``main`` call.
- ``iso-relabel``: ``orbit_partition`` for each shape, then, in a seeded
  order, ``canonical_certificate`` on each of the 25 orbit-representative and
  catalog graphs and on a seeded relabeling of it that the program was not
  given before (where one exists), and ``isomorphism`` between
  each graph and 20 seeded relabelings of itself and of every other graph
  with the same vertex count.  An op is one call; the 20 relabelings of one
  isomorphism question give one latency sample, their mean.  Certificate and
  isomorphism ops run under a 0.5 s budget; an op that overruns it is not ok.

Each pass runs in a fresh interpreter with one thread, one call at a time, so
import-time work and module caches cost what a CLI user pays.  Passes repeat
until --seconds have gone by; per-pass figures are reported as medians over
passes.  ``setup_s`` is the median, over five fresh interpreters that only
set up, of the time from starting the interpreter to its first timed call.
Outputs are checked against recorded results (expected.json) and against
the independent code in oracle.py; a wrong output or an exception is a
failed op (``failed``).  ``ok_ratio`` is the share of ops neither failed nor
over budget.

Every end-to-end time is scaled to a fixed host speed: a timer signal times
a fixed reference computation every 50 ms of CPU time, and each timed call
is multiplied by the reference's nominal time over its times during or
around the call (speed.py says how).  The summary lines give each pass's
wall time both scaled and as measured; an op over budget counts as the
budget, unscaled.

Metrics, per pass and then the median over passes: ``wall_s``, the time spent
in calls into lie_ncg; ``ops_per_s``, ops over ``wall_s``; ``op_p50_ms``, the
median latency sample; ``op_tail_ms``, the highest of p50/p75/p90/p99/
p99.9/p99.99 with at least ten samples beyond it (the summary line names it
and the sample count), both estimated as a mean of the samples around that
rank (``workloads._quantile``); ``peak_rss_mb``, the worker's
peak resident memory before the checks run.

With --trace 1 the untraced passes are followed by one traced pass, whose
spans (written to .perfbench/) give each layer's self time, as measured
less the time spent on reference times; the metrics are then the per-layer
ones, plus the traced pass's scaled wall time and its excess over the
untraced median.

The last line of standard output is the JSON result.  The run exits with
code 2 if the lie_ncg sources are not beside this directory.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-pool", "analyze-large", "iso-relabel")
SETUP_SAMPLES = 5
DEADLINE_S = 170


def clock():
    # CLOCK_MONOTONIC is shared with the worker processes
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, workdir, deadline):
    """Run one worker to completion; returns its result with ``setup_s``."""
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--workdir", str(workdir),
           "--result", str(result)]
    start = clock()
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        sys.exit("worker did not finish before the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        sys.exit(f"worker exited with code {code}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    out["setup_s"] = out["t_ready"] - start
    return out


def setup_time(common, workdir, deadline):
    """Set-up time of one fresh worker, scaled by reference times the parent
    takes just before and just after it (see speed.py)."""
    pacer = speed.Pacer()
    pacer.take(speed.WINDOW // 2)
    mark = time.perf_counter()
    out = spawn(common + ["--setup-only"], workdir, deadline)
    pacer.take(speed.WINDOW // 2)
    return out["setup_s"] * pacer.factors([(mark, 0.0)])[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "lie_ncg" / "__init__.py").is_file():
        print(f"no lie_ncg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so the worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = clock() + DEADLINE_S
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.workload == "analyze-large":
            with open(workdir / "specs.json", "w", encoding="utf-8") as fh:
                json.dump(workloads.write_specs(args.seed, workdir), fh)
        passes = []
        begin = clock()
        while True:
            passes.append(spawn(common, workdir, deadline))
            elapsed = clock() - begin
            if elapsed >= args.seconds or clock() + elapsed / len(passes) > deadline - 30:
                break
        traced = None
        if args.trace:
            traced = spawn(common + ["--trace", "1"], workdir, deadline)
        else:
            setups = [setup_time(common, workdir, deadline) for _ in range(SETUP_SAMPLES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = passes + ([traced] if traced else [])
    attempted = sum(p["ops"] for p in done)
    failed = sum(p["wrong"] for p in done)
    med = {k: statistics.median(p[k] for p in passes)
           for k in ("wall_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")}
    first = passes[0]
    print(f"{args.workload} seed={args.seed}: {len(passes)} pass(es) of {first['ops']} ops; "
          f"op_p50_ms and op_tail_ms (p{first['tail_pct']}) over {first['latency_samples']} "
          f"samples per pass")
    for k, p in enumerate(done):
        print(f"{'traced pass' if p is traced else f'pass {k}'}: wall_s {p['wall_s']:.4f} at "
              f"reference speed, {p['wall_measured_s']:.4f} as measured "
              f"({p['references']} reference times, median {p['reference_ms']:.4f} ms)")
    if "digest" in first:
        print(f"verify-pool report digest: {first['digest']}")
    for p in done:
        if p["overruns"]:
            print(f"{p['overruns']} ops over the {workloads.BUDGET_S} s budget: "
                  + "; ".join(p["overrun_detail"]))
        for line in p["wrong_detail"]:
            print(f"wrong: {line}")

    if traced:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["layers"].items()}
        metrics["bench.traced_wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        metrics["bench.trace_overhead_s"] = {
            "value": traced["wall_s"] - med["wall_s"], "unit": "s"}
    else:
        not_ok = sum(p["wrong"] + p["overruns"] for p in passes)
        ops = sum(p["ops"] for p in passes)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": med["wall_s"], "unit": "s"},
            "ops_per_s": {"value": med["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": med["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": med["op_tail_ms"], "unit": "ms"},
            "ok_ratio": {"value": (ops - not_ok) / ops, "unit": "ratio"},
            "peak_rss_mb": {"value": med["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
