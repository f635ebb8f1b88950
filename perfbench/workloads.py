"""One pass of each workload: timed calls into lie_ncg, then output checks.

Every call into the program is timed.  An *op* is a call the workload counts
as one unit of user work; *prep* calls (building the verify pool, building
graphs for the isomorphism workload) are timed into ``wall_s`` but are not
ops.  Checks run after the timed calls and mark ops as wrong; a wrong output
or an exception raised by the program is a failed op.
"""

import contextlib
import io as _io
import json
import math
import random
import re
import signal
import statistics
import xml.etree.ElementTree as ET
from collections import defaultdict
from hashlib import sha256
from itertools import combinations
from time import perf_counter

import oracle
import speed

# Shapes of the criterion-1 pool and of the GL-orbit enumeration.
SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
TAIL_LADDER = (50, 75, 90, 99, 99.9, 99.99)

# analyze-large families: (name, q, basis, brackets, copies per pass).  Copies
# are distinct seeded basis changes; smaller families get more of them so a
# pass has enough ops for a tail percentile.
FAMILIES = (
    ("aff2_q3", 3, "abcd", (("a", "b", {"a": 1}), ("c", "d", {"c": 1})), 6),
    ("heisenberg_q5", 5, "xyz", (("x", "y", {"z": 1}),), 4),
    ("cross_q5", 5, "xyz", (("x", "y", {"z": 1}), ("y", "z", {"x": 1}), ("z", "x", {"y": 1})), 4),
    ("heisenberg5_q3", 3, "abcdz", (("a", "b", {"z": 1}), ("c", "d", {"z": 1})), 1),
    ("aff2_q4", 4, "abcd", (("a", "b", {"a": 1}), ("c", "d", {"c": 1})), 1),
)
EXPORTS = ("dot", "graphml", "json")

# Per-op time budget on iso-relabel, enforced with SIGALRM.  The slowest
# certificate that finishes takes about 0.14 s (split_pairs_f2, 2-core x86).
BUDGET_S = 0.5
RELABELINGS = 20


class Overrun(BaseException):
    """Raised from SIGALRM when an op exceeds its budget.  Derives from
    BaseException so no handler in the program can swallow it."""


def _alarm(signum, frame):
    raise Overrun()


def family_spec(name):
    for fam, q, basis, brackets, _ in FAMILIES:
        if fam == name:
            return {"q": q, "dim": len(basis), "basis": list(basis),
                    "brackets": [{"left": a, "right": b, "value": v} for a, b, v in brackets]}
    raise KeyError(name)


def write_specs(seed, workdir):
    """Seeded basis changes of every family; returns [(family, path)].

    Each spec is the one with the most nonzero structure constants among
    32 random changes of basis.  The cost of a bracket grows with that
    count, so taking the densest keeps the work of a pass nearly the same
    from seed to seed.
    """
    rng = random.Random(seed)
    out = []
    for fam, _q, _b, _br, copies in FAMILIES:
        alg = oracle.from_spec(family_spec(fam))
        for c in range(copies):
            changed = [oracle.change_basis(alg, *oracle.random_invertible(alg.f, alg.dim, rng))
                       for _ in range(32)]
            densest = max(changed, key=lambda a: sum(map(bool, sum(a.table.values(), ()))))
            path = f"{workdir}/{fam}-{c}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(oracle.to_spec(densest), fh, indent=2)
            out.append((fam, path))
    return out


class Pass:
    """Timed calls of one pass, and the ops found wrong or over budget."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.pacer = speed.Pacer()
        if tracer is not None:
            tracer.clock = self.pacer.clock
        self.labels = []
        self.starts = []
        self.samples = []
        self.preps = []          # (start, duration) of each prep call
        self.wrong = {}
        self.overruns = set()
        self.groups = None
        self.pacer.take(speed.WINDOW // 2)
        self.pacer.start()
        self.running = True

    def prep(self, fn, *args):
        start, net = perf_counter(), self.pacer.clock()
        out = fn(*args)
        self.preps.append((start, self.pacer.clock() - net))
        return out

    def finish(self):
        """Stop taking reference times; call once the timed calls are done."""
        if self.running:
            self.running = False
            self.pacer.stop()
            self.pacer.take(speed.WINDOW // 2)

    def op(self, label, fn, *args, budget=None, span=None):
        """Time one op; returns (op index, result or None)."""
        idx = len(self.labels)
        self.labels.append(label)
        if self.tracer is not None:
            self.tracer.op = idx
            if span is not None:
                args = (span, fn) + args
                fn = self.tracer.call
        start, net = perf_counter(), self.pacer.clock()
        self.starts.append(start)
        try:
            if budget:
                signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                result = fn(*args)
            finally:
                if budget:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except Overrun:
            self.samples.append(self.pacer.clock() - net)
            self.overruns.add(idx)
            return idx, None
        except Exception as exc:  # the program raised: a failed op
            self.samples.append(self.pacer.clock() - net)
            self.fail(idx, f"{type(exc).__name__}: {exc}")
            return idx, None
        self.samples.append(self.pacer.clock() - net)
        return idx, result

    def fail(self, idx, reason):
        self.wrong.setdefault(idx, f"{self.labels[idx]}: {reason}")

    def summary(self):
        """Pass figures, from times scaled to the reference speed (see
        speed.py); an op over budget counts as the budget it ran for.  A
        latency sample is one op's time, or, when ``self.groups`` (lists of op
        indices) is set, the mean time of the ops in one group."""
        self.finish()
        factors = self.pacer.factors(list(zip(self.starts, self.samples)) + self.preps)
        scaled = [t if i in self.overruns else t * f
                  for i, (t, f) in enumerate(zip(self.samples, factors))]
        prep = sum(d * f for (_, d), f in zip(self.preps, factors[len(self.samples):]))
        n = len(scaled)
        if self.groups:
            lat = sorted(sum(scaled[i] for i in g) / len(g) for g in self.groups)
        else:
            lat = sorted(scaled)
        tail_pct = max((p for p in TAIL_LADDER if len(lat) * (1 - p / 100) >= 10), default=50)
        wall = sum(scaled) + prep
        return {
            "ops": n,
            "latency_samples": len(lat),
            "wrong": len(self.wrong),
            "overruns": len(self.overruns),
            "wall_s": wall,
            "wall_measured_s": sum(self.samples) + sum(d for _, d in self.preps),
            "references": len(self.pacer.ref),
            "ops_per_s": n / wall,
            "op_p50_ms": 1e3 * _quantile(lat, 50),
            "op_tail_ms": 1e3 * _quantile(lat, tail_pct),
            "reference_ms": 1e3 * statistics.median(self.pacer.ref),
            "tail_pct": tail_pct,
            "wrong_detail": sorted(self.wrong.values())[:20],
            "overrun_detail": sorted({self.labels[i] for i in self.overruns}),
        }


def _quantile(sorted_values, pct):
    """The pct-th percentile, estimated as the mean of the samples within
    n/20 ranks of its nearest rank, reaching above it over no more than half
    of the samples beyond it.

    Latencies here come in clusters several times apart; a single order
    statistic jumps between clusters when two ops near it swap places, while
    this estimate moves by a fraction of the gap.
    """
    n = len(sorted_values)
    k = max(0, math.ceil(pct / 100 * n) - 1)
    half = min(n // 20, (n - 1 - k) // 2)
    band = sorted_values[k - half:k + half + 1]
    return sum(band) / len(band)


# -- verify-pool ------------------------------------------------------------------


def verify_pool(lib, seed, p, expected):
    verifier = lib.verifier
    catalog = p.prep(verifier.catalog_instances)
    enumerated = {shape: p.prep(verifier.enumeration_instances, *shape) for shape in SHAPES}
    pool = catalog + [inst for insts in enumerated.values() for inst in insts]
    random.Random(seed).shuffle(pool)
    if p.tracer is not None:
        # graph, center and centralizer orders are cached on each Instance;
        # computing them here puts their cost in ncg and liealg spans
        p.tracer.op = "warm"
        for inst in pool:
            p.prep(lambda i: (i.graph, i.center, i.centralizer_orders), inst)
    ops = defaultdict(list)
    merged = {}
    for sid in verifier.STATEMENT_IDS:
        total = verifier.TheoremReport(statement_id=sid, quote=verifier.STATEMENTS[sid][0])
        for inst in pool:
            idx, out = p.op(sid, verifier.check_all_statements, [inst], [sid],
                            span=f"verifier.{sid}")
            ops[id(inst)].append(idx)
            if out is None:
                continue
            r = out[0]
            if r.status != "pass":
                p.fail(idx, f"{inst.name}: {r.failures}")
            total.instances_checked += r.instances_checked
            total.vacuous_count += r.vacuous_count
            total.failures.extend(r.failures)
        merged[sid] = total
    fig_idx, figures = p.op("check_figures", verifier.check_figures)
    # A latency sample is the mean check time of the instances that share a
    # labeled graph (found with oracle.py, untimed).  A single check takes a
    # few microseconds, too short to time steadily on a shared machine; and
    # instances with one graph repeat the same graph work, while any one of
    # them may be slowed by a burst on the host, so a per-instance tail
    # would measure the host's bursts rather than the program.
    classes = defaultdict(list)
    for inst in pool:
        classes[tuple(_own_graph(inst.L)[1])] += ops[id(inst)]
    p.groups = list(classes.values())
    return lambda: _check_verify(p, pool, enumerated, ops, merged, fig_idx, figures, seed,
                                 expected)


def report_line(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def _check_verify(p, pool, enumerated, ops, merged, fig_idx, figures, seed, expected):
    want = expected["verify_pool"]
    lines = []
    for k, (sid, report) in enumerate(merged.items()):
        line = report_line(report)
        lines.append(line)
        if report.instances_checked != want["instances"]:
            reason = f"instances_checked {report.instances_checked} != {want['instances']}"
        elif sha256(line.encode()).hexdigest() != want["lines"].get(sid) and not report.failures:
            # failures are already charged to their own ops
            reason = "report differs from the recorded digest"
        else:
            continue
        for inst in pool:
            p.fail(ops[id(inst)][k], reason)
    if figures is not None:
        line = report_line(figures)
        lines.append(line)
        if sha256(line.encode()).hexdigest() != want["lines"]["Figures"]:
            p.fail(fig_idx, "report differs from the recorded digest")
    digest = sha256("\n".join(lines).encode()).hexdigest()

    # Oracle 1: each enumerated shape is exactly its non-abelian Jacobi tensors.
    tables = {shape: oracle.jacobi_tables(*shape) for shape in SHAPES}
    for (n, q), insts in enumerated.items():
        own = {t for t in tables[n, q] if any(any(v) for v in t)}
        got = {tuple(i.L.structure[pr] for pr in combinations(range(n), 2)): i for i in insts}
        if own != set(got) or len(got) != len(insts):
            for inst in insts:
                for idx in ops[id(inst)]:
                    p.fail(idx, f"enumeration of shape {(n, q)} is not its Jacobi tensors")

    # Oracle 2: a seeded sample of graphs rebuilt from the structure constants.
    rng = random.Random(seed)
    sample = rng.sample(pool, 150) + [i for i in pool if not i.name.startswith("enum")]
    for inst in sample:
        labels, rows = _own_graph(inst.L)
        if tuple(rows) != inst.graph.rows or tuple(labels) != inst.graph.labels:
            for idx in ops[id(inst)]:
                p.fail(idx, "graph differs from the brackets")

    # Oracle 3: figure classes of the F_2 dim-3 graphs from their part sizes.
    classes = {(1, 1, 1, 1, 3): "F1", (1,) * 7: "F2", (2, 2, 2): "F3"}
    counts = defaultdict(int)
    for t in tables[3, 2]:
        if any(any(v) for v in t):
            alg = oracle.Algebra(oracle.GF(2), 3, dict(zip(combinations(range(3), 2), t)), "xyz")
            _, rows = alg.graph()
            counts[classes.get(oracle.multipartite_parts(len(rows), rows), "other")] += 1
    own_notes = [f"{fig}: realized by {counts[fig]} structure tensors"
                 for fig in ("F1", "F2", "F3")]
    if figures is not None and (counts["other"] or list(figures.notes) != own_notes):
        p.fail(fig_idx, f"figure classes {dict(counts)} disagree with {figures.notes}")
    return {"digest": digest}


def _own_graph(L):
    f = oracle.GF(L.field.q)
    alg = oracle.Algebra(f, L.dim, dict(L.structure), L.basis_names)
    return alg.graph()


# -- analyze-large ------------------------------------------------------------------


def _cli(main, argv):
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def analyze_large(lib, seed, p, expected, specs):
    calls = []
    for fam, path in specs:
        calls += [(fam, path, "validate", ["validate", path]),
                  (fam, path, "analyze", ["analyze", path, "--format", "json"])]
        calls += [(fam, path, f"export {fmt}", ["export", path, "--out", fmt]) for fmt in EXPORTS]
    # The host's speed drifts within a pass; a seeded order spreads each kind
    # of call over the whole pass instead of bunching it in one stretch.
    random.Random(seed).shuffle(calls)
    results = []
    for fam, path, kind, argv in calls:
        idx, out = p.op(f"{kind} {path.rsplit('/', 1)[-1]}", _cli, lib.cli.main, argv)
        results.append((fam, path, kind, idx, out))
    return lambda: _check_analyze(p, results, expected)


def _check_analyze(p, results, expected):
    own = {}
    for fam, path, kind, idx, out in results:
        if out is None:
            continue
        code, text = out
        if code != 0:
            p.fail(idx, f"exit code {code}")
            continue
        if path not in own:
            with open(path, encoding="utf-8") as fh:
                own[path] = oracle.from_spec(json.load(fh)).graph()
        labels, rows = own[path]
        reason = _analyze_reason(kind, text, labels, rows, expected["analyze"][fam])
        if reason:
            p.fail(idx, reason)
    return {}


def _analyze_reason(kind, text, labels, rows, want):
    n = len(labels)
    edges = sorted(tuple(sorted((labels[u], labels[v])))
                   for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1)
    if kind == "validate":
        return None if text.strip() == "ok" else f"validate printed {text!r}"
    if kind == "analyze":
        got = json.loads(text)
        if got != want:
            return "analyze JSON differs from the original basis"
        degs = sorted((r.bit_count() for r in rows), reverse=True)
        order = got["algebra"]["order"]
        hist = defaultdict(int)
        for d in degs:
            hist[str(order - d)] += 1
        g = got["graph"]
        if (g["vertex_count"], g["edge_count"], g["degree_sequence"]) != (n, len(edges), degs) \
                or got["algebra"]["center_order"] != order - n \
                or got["algebra"]["centralizer_order_histogram"] != dict(hist):
            return "analyze JSON disagrees with the oracle graph"
        return None
    if kind == "export json":
        data = json.loads(text)
        got_nodes, got_edges = data["vertices"], sorted(tuple(e) for e in data["edges"])
    elif kind == "export dot":
        got_nodes = re.findall(r'^  "([^"]*)";$', text, re.M)
        got_edges = sorted(re.findall(r'^  "([^"]*)" -- "([^"]*)";$', text, re.M))
    else:
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        root = ET.fromstring(text)
        got_nodes = [e.get("id") for e in root.iterfind(".//g:node", ns)]
        got_edges = sorted((e.get("source"), e.get("target"))
                           for e in root.iterfind(".//g:edge", ns))
    if list(got_nodes) != labels or got_edges != edges:
        return f"{kind} differs from the oracle graph"
    return None


# -- iso-relabel ----------------------------------------------------------------------


def iso_relabel(lib, seed, p, expected, budget=BUDGET_S):
    signal.signal(signal.SIGALRM, _alarm)
    iso, ncg = lib.iso, lib.ncg
    graphs = []
    orbit_ops = []
    for n, q in SHAPES:
        idx, orbits = p.op(f"orbit_partition n={n} q={q}", lib.enumeration.orbit_partition,
                           n, lib.field_new(q))
        orbit_ops.append(((n, q), idx, orbits))
        for k, (L, _size) in enumerate(orbits or ()):
            if not L.is_abelian():
                graphs.append((f"rep(n={n},q={q})#{k}", L, p.prep(ncg.build_graph, L)))
    for entry in lib.builtin_catalog():
        L = p.prep(entry.algebra)
        graphs.append((entry.name, L, p.prep(ncg.build_graph, L)))

    rng = random.Random(seed)

    def relabeled(g, avoid=()):
        perm = list(range(g.n))
        for _ in range(100):
            rng.shuffle(perm)
            rows = tuple(oracle.relabel(g.rows, perm))
            if rows not in avoid:
                break
        return lib.Graph(g.n, rows)

    # A certificate is asked of each graph and of a relabeling of it that is
    # new to the program where one exists: not a labeled graph it was given
    # before or holds from import (the figure graphs).  Whether that
    # certificate comes from the program's cache then does not hang on the
    # seed.
    seen = {g.rows for _, _, g in graphs}
    seen |= {tuple(lib.refgraphs.figure_graph(f).rows) for f in lib.refgraphs.FIGURE_IDS}
    calls = []
    for gi, (name, _L, g) in enumerate(graphs):
        h = relabeled(g, seen)
        seen.add(h.rows)
        calls += [(("cert", gi), f"certificate {name}", iso.canonical_certificate, (g,)),
                  (("cert", gi), f"certificate relabeled {name}", iso.canonical_certificate,
                   (h,))]
    # Each isomorphism question is asked on RELABELINGS seeded relabelings of
    # its second graph; its latency sample is their mean time.
    questions = [(f"relabeled {name}", g, g) for name, _L, g in graphs]
    questions += [(f"{na} {nb}", ga, gb)
                  for (na, _, ga), (nb, _, gb) in combinations(graphs, 2) if ga.n == gb.n]
    for qi, (label, g1, g2) in enumerate(questions):
        for _ in range(RELABELINGS):
            h = relabeled(g2)
            calls.append((("iso", qi, g1, h), f"isomorphism {label}", iso.isomorphism, (g1, h)))
    # spread each kind of call over the pass, as in analyze_large
    rng.shuffle(calls)
    certs = []      # (graph index, op index, certificate)
    witnesses = []  # (op index, graph, graph, witness)
    groups = defaultdict(list)
    for key, label, fn, args in calls:
        idx, out = p.op(label, fn, *args, budget=budget)
        if key[0] == "cert":
            certs.append((key[1], idx, out))
            groups["cert", idx].append(idx)
        else:
            witnesses.append((idx, key[2], key[3], out))
            groups["iso", key[1]].append(idx)
    p.groups = [[idx] for _, idx, _ in orbit_ops] + list(groups.values())
    return lambda: _check_iso(p, graphs, orbit_ops, certs, witnesses, expected)


def _check_iso(p, graphs, orbit_ops, certs, witnesses, expected):
    want = expected["iso_relabel"]["orbits"]
    for (n, q), idx, orbits in orbit_ops:
        if orbits is None:
            continue
        sizes = [size for _, size in orbits]
        if len(sizes) != want[f"{n},{q}"] or sum(sizes) != len(oracle.jacobi_tables(n, q)):
            p.fail(idx, f"{len(sizes)} orbits of total size {sum(sizes)}")
    for gi, (name, L, g) in enumerate(graphs):
        if tuple(_own_graph(L)[1]) != g.rows:
            for cgi, idx, _ in certs:
                if cgi == gi:
                    p.fail(idx, f"graph of {name} differs from the brackets")
    for idx, g1, g2, w in witnesses:
        if idx in p.overruns or idx in p.wrong:
            continue
        verdict = oracle.isomorphic(g1.rows, g2.rows)
        if verdict is not None and (w is not None) != verdict:
            p.fail(idx, f"isomorphic={w is not None}, oracle says {verdict}")
        elif w is not None and not oracle.witness_ok(g1.rows, g2.rows, w):
            p.fail(idx, "witness does not preserve adjacency")
    done = [(gi, idx, c) for gi, idx, c in certs if c is not None]
    for (ga, ia, ca), (gb, ib, cb) in combinations(done, 2):
        if ga == gb:
            same = True
        else:
            same = oracle.isomorphic(graphs[ga][2].rows, graphs[gb][2].rows)
        if same is not None and (ca == cb) != same:
            p.fail(ib, f"certificate equality {ca == cb} but isomorphic={same}")
    return {}
