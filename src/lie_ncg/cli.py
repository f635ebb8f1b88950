"""Command-line front end: lie-ncg validate|analyze|export|verify|compare|enumerate."""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import cache

from . import graphs as graph_ops
from . import io as ncg_io
from . import verifier
from .errors import LieNcgError
from .iso import isomorphism
from .liealg import algebra_from_spec
from .ncg import build_graph


def _load_algebra(path):
    spec = ncg_io.load_spec(path)
    return algebra_from_spec(spec)


def cmd_validate(args):
    _load_algebra(args.path)
    if args.format == "json":
        print(json.dumps({"ok": True}))
    else:
        print("ok")
    return 0


def _algebra_facts(inst):
    # each fact from the algebra side of the instance's fact sheet; the
    # graph's vertex count and degrees give the same |Z| and histogram (Lem2.2)
    L = inst.L
    histogram = Counter(inst.centralizer_orders)
    return {
        "q": inst.q,
        "dim": L.dim,
        "order": inst.order,
        "center_order": inst.center_order,
        "derived_dim": inst.dim_derived,
        "is_nilpotent": L.is_nilpotent(),
        "centralizer_order_histogram": {str(k): v for k, v in sorted(histogram.items())},
    }


def cmd_analyze(args):
    inst = verifier.Instance(args.path, _load_algebra(args.path))
    payload = {"algebra": _algebra_facts(inst), "graph": graph_ops.property_report(inst.graph)}
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for section, values in payload.items():
            print(f"[{section}]")
            for key, value in values.items():
                print(f"  {key}: {value}")
    return 0


def cmd_export(args):
    graph = build_graph(_load_algebra(args.path))
    render = {
        "dot": ncg_io.export_dot,
        "graphml": ncg_io.export_graphml,
        "json": ncg_io.export_json,
    }[args.out]
    text = render(graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args):
    instances = verifier.SCOPES[args.scope](args.n, args.q)
    ids = None if args.statement == "all" else [args.statement]
    reports = verifier.check_all_statements(instances, statement_ids=ids)
    failed = False
    for report in reports:
        failed = failed or report.status != "pass"
        if args.format == "json":
            print(json.dumps(report.to_dict(), sort_keys=True))
        else:
            print(
                f"{report.status.upper():4s} {report.statement_id}: {report.quote} "
                f"(checked {report.instances_checked}, vacuous {report.vacuous_count})"
            )
            for name, detail in report.failures:
                print(f"      failure: {name}: {detail}")
    return 1 if failed else 0


def cmd_compare(args):
    i1 = verifier.Instance(args.path_a, _load_algebra(args.path_a))
    i2 = verifier.Instance(args.path_b, _load_algebra(args.path_b))
    L1, L2, g1, g2 = i1.L, i2.L, i1.graph, i2.graph
    witness = isomorphism(g1, g2)
    failures, notes = [], []
    if witness is not None:
        failures, notes = verifier.iso_consequences("A ~ B", L1, g1, L2, g2, witness)
    payload = {
        "isomorphic": witness is not None,
        "witness": {g1.labels[k]: g2.labels[v] for k, v in witness.items()} if witness else None,
        "orders": [L1.order, L2.order],
        "center_orders": [i1.center_order, i2.center_order],
        "nilpotent": [L1.is_nilpotent(), L2.is_nilpotent()],
        "consequence_failures": [list(f) for f in failures],
        "notes": notes,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if not failures else 1


def cmd_enumerate(args):
    summary = verifier.explore_conjecture(n_max=args.n, qs=tuple(args.q or [2]))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


@cache
def build_parser():
    """The argument parser, built once per process.  It keeps no state
    between parses: ``--q`` appends to a fresh list, as its default is
    None."""
    parser = argparse.ArgumentParser(
        prog="lie-ncg",
        description="Non-commuting graphs of finite-dimensional Lie algebras over F_q",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an algebra spec file")
    p.add_argument("path")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="full invariant report for one algebra")
    p.add_argument("path")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export", help="export the non-commuting graph")
    p.add_argument("path")
    p.add_argument("--out", choices=["dot", "graphml", "json"], default="dot")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_export, format="text")

    p = sub.add_parser("verify", help="run registered statements over a scope")
    p.add_argument("--scope", choices=tuple(verifier.SCOPES), default="catalog")
    p.add_argument("--n", type=int, help="enumerate only (default 3)")
    p.add_argument("--q", type=int, help="enumerate only (default 2)")
    p.add_argument("--statement", default="all")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="graph isomorphism and its consequences")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(func=cmd_compare, format="json")

    p = sub.add_parser("enumerate", help="conjecture exploration table")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--q", type=int, action="append", default=None)
    p.set_defaults(func=cmd_enumerate, format="json")

    return parser


def main(argv=None):
    """Run one command.  Every LieNcgError, OSError or UnicodeEncodeError (a
    label stdout's encoding cannot write) ends as one error line, JSON on
    stdout under ``format`` "json" and text on stderr otherwise, and exit
    code 1.  A reader that closes stdout early ends the run with exit
    code 1 and no output."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # flush here, so a closed pipe raises inside this handler and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout is closed: point it at devnull, so the flush at interpreter
        # exit has somewhere to write and raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (LieNcgError, OSError, UnicodeEncodeError) as exc:
        if args.format == "json":
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True))
        else:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
