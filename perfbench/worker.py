"""Child process of run.py: one set-up of a workload and, unless
--setup-only, one timed pass followed by its output checks.

The result is written as JSON to --result.  ``t_ready`` is the monotonic
clock reading just before the first timed call, which run.py subtracts from
the reading it took before starting this process.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        lib = tracer.import_package(SRC)
    else:
        import lie_ncg as lib
        import lie_ncg.cli  # noqa: F401  (the entry point a CLI user loads)
    if Path(lib.__file__).resolve().parent != (SRC / "lie_ncg").resolve():
        sys.exit(f"lie_ncg was imported from {lib.__file__}, not from {SRC}")
    import workloads

    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    result = {"t_ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if not args.setup_only:
        p = workloads.Pass(tracer)
        if args.workload == "verify-pool":
            check = workloads.verify_pool(lib, args.seed, p, expected)
        elif args.workload == "analyze-large":
            with open(f"{args.workdir}/specs.json", encoding="utf-8") as fh:
                specs = json.load(fh)
            check = workloads.analyze_large(lib, args.seed, p, expected, specs)
        else:
            check = workloads.iso_relabel(lib, args.seed, p, expected)
        p.finish()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.op = "check"
        result.update(check())
        result.update(p.summary(), peak_rss_mb=peak_rss_mb)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(lib.verifier.STATEMENT_IDS)
            tracer.write(f"{args.workdir}/../spans-{args.workload}-seed{args.seed}.csv")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
