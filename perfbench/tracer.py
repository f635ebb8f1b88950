"""Spans around calls into the lie_ncg layers, recorded from outside.

The traced worker replaces each public function named in ``TARGETS`` with a
wrapper, in every lie_ncg module that holds a reference to it, so calls the
layers make to each other are recorded too.  A span is
``[name, start, end, parent, op, error]``; spans stay in memory and are
written out when the pass ends.  A layer's self time is the duration of its
spans minus the time covered by their direct children.
"""

import importlib
import importlib.util
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class.  jacobi_tensors is a generator: each next() is one span.
TARGETS = [
    ("graphs", "connectivity", "graphs.connectivity"),
    ("graphs", "girth", "graphs.girth"),
    ("graphs", "is_eulerian", "graphs.is_eulerian"),
    ("graphs", "is_hamiltonian", "graphs.is_hamiltonian"),
    ("graphs", "hamiltonian_cycle", "graphs.hamiltonian_cycle"),
    ("graphs", "is_planar", "graphs.is_planar"),
    ("graphs", "is_outerplanar", "graphs.is_outerplanar"),
    ("graphs", "domination_number", "graphs.domination_number"),
    ("graphs", "property_report", "graphs.property_report"),
    ("ncg", "build_graph", "ncg.build_graph"),
    ("liealg", "LieAlgebra.center", "liealg.center"),
    ("liealg", "LieAlgebra.centralizer_order", "liealg.centralizer_order"),
    ("liealg", "algebra_from_spec", "liealg.algebra_from_spec"),
    ("enumeration", "jacobi_tensors", "enumeration.jacobi_tensors"),
    ("enumeration", "orbit_partition", "enumeration.orbit_partition"),
    ("iso", "canonical_certificate", "iso.canonical_certificate"),
    ("iso", "isomorphism", "iso.isomorphism"),
    ("iso", "refine_colors", "iso.refine_colors"),
    ("verifier", "check_figures", "verifier.check_figures"),
    ("io", "load_spec", "io.parse_spec"),
    ("io", "export_dot", "io.export"),
    ("io", "export_graphml", "io.export"),
    ("io", "export_json", "io.export"),
    ("cli", "main", "cli.main"),
]

# Patched before the package __init__ runs, so the certificates lie_ncg.verifier
# computes at import are recorded.
_EARLY = ("iso",)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = "import"
        self.built = []          # (n, rows) of every graph ncg.build_graph returned
        self.candidates = 0      # structure tensors jacobi_tensors examined
        self.accepted = 0        # ... and yielded
        self.export_bytes = 0
        # span clock; the pass replaces it with one that leaves out the time
        # spent taking reference times (speed.py)
        self.clock = perf_counter

    def call(self, name, fn, *args, **kwargs):
        depth = len(self.stack)
        span = [name, self.clock(), 0.0, self.stack[-1] if depth else -1, self.op, None]
        try:
            # inside the try: a budget alarm may interrupt at any bytecode
            self.stack.append(len(self.spans))
            self.spans.append(span)
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[2] = self.clock()
            del self.stack[depth:]

    # -- installing wrappers ----------------------------------------------------

    def _wrapper(self, name, fn):
        call = self.call
        if name == "enumeration.jacobi_tensors":
            def gen(n, field):
                self.candidates += field.q ** (n * n * (n - 1) // 2)
                it = fn(n, field)
                while True:
                    try:
                        item = call(name, next, it)
                    except StopIteration:
                        return
                    self.accepted += 1
                    yield item
            return gen
        if name == "ncg.build_graph":
            def build(*args, **kwargs):
                g = call(name, fn, *args, **kwargs)
                self.built.append((g.n, g.rows))
                return g
            return build
        if name == "io.export":
            def export(g):
                text = call(name, fn, g)
                self.export_bytes += len(text.encode())
                return text
            return export
        return lambda *args, **kwargs: call(name, fn, *args, **kwargs)

    def _patch(self, modname, attr, name, replaced):
        mod = sys.modules[f"lie_ncg.{modname}"]
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(mod, owner) if owner else mod
        orig = getattr(holder, leaf)
        wrapper = self._wrapper(name, orig)
        setattr(holder, leaf, wrapper)
        replaced[id(orig)] = (orig, wrapper)

    def import_package(self, src):
        """Import lie_ncg from ``src`` with every target wrapped."""
        spec = importlib.util.spec_from_file_location(
            "lie_ncg", f"{src}/lie_ncg/__init__.py",
            submodule_search_locations=[f"{src}/lie_ncg"])
        pkg = importlib.util.module_from_spec(spec)
        sys.modules["lie_ncg"] = pkg
        replaced = {}
        for modname, attr, name in TARGETS:
            if modname in _EARLY:
                importlib.import_module(f"lie_ncg.{modname}")
                self._patch(modname, attr, name, replaced)
        spec.loader.exec_module(pkg)
        for modname, attr, name in TARGETS:
            if modname not in _EARLY:
                importlib.import_module(f"lie_ncg.{modname}")
                self._patch(modname, attr, name, replaced)
        # rebind names other modules imported with "from .x import f"
        for modname, mod in list(sys.modules.items()):
            if modname != "lie_ncg" and not modname.startswith("lie_ncg."):
                continue
            for key, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, key, hit[1])
        self.op = "setup"
        return pkg

    # -- results ----------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s[0]] += s[2] - s[1] - c
        return out

    def layer_metrics(self, statement_ids):
        """Per-layer metrics as {name: (value, unit)}."""
        st = self.self_times()
        calls = Counter(s[0] for s in self.spans)
        errors = Counter((s[0], s[5]) for s in self.spans if s[5])
        m = {}

        def sec(metric, *spans):
            m[metric] = (sum(st[s] for s in spans), "s")

        for f in ("connectivity", "girth", "is_eulerian", "is_planar", "is_outerplanar",
                  "domination_number", "property_report"):
            sec(f"graphs.{f}_s", f"graphs.{f}")
        sec("graphs.is_hamiltonian_s", "graphs.is_hamiltonian", "graphs.hamiltonian_cycle")
        m["graphs.hamiltonian_exact_calls"] = (calls["graphs.hamiltonian_cycle"], "count")
        m["graphs.domination_skipped"] = (
            errors[("graphs.domination_number", "CapExceeded")], "count")
        sec("ncg.build_graph_s", "ncg.build_graph")
        m["ncg.brackets"] = (sum(n * (n - 1) // 2 for n, _ in self.built), "count")
        m["ncg.distinct_graph_ratio"] = (
            len(set(self.built)) / len(self.built) if self.built else 0.0, "ratio")
        for f in ("center", "centralizer_order", "algebra_from_spec"):
            sec(f"liealg.{f}_s", f"liealg.{f}")
        sec("enumeration.jacobi_tensors_s", "enumeration.jacobi_tensors")
        m["enumeration.jacobi_accept_ratio"] = (
            self.accepted / self.candidates if self.candidates else 0.0, "ratio")
        sec("enumeration.orbit_partition_s", "enumeration.orbit_partition")
        for f in ("canonical_certificate", "isomorphism", "refine_colors"):
            sec(f"iso.{f}_s", f"iso.{f}")
        m["iso.certificate_timeouts"] = (
            errors[("iso.canonical_certificate", "Overrun")], "count")
        m["iso.import_certificates_s"] = (sum(
            s[2] - s[1] for s in self.spans
            if s[0] == "iso.canonical_certificate" and s[3] < 0 and s[4] == "import"), "s")
        for sid in statement_ids:
            sec(f"verifier.{sid}_s", f"verifier.{sid}")
        sec("verifier.check_figures_s", "verifier.check_figures")
        sec("io.parse_spec_s", "io.parse_spec")
        sec("io.export_s", "io.export")
        m["io.export_bytes"] = (self.export_bytes, "bytes")
        sec("cli.main_s", "cli.main")
        return m

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op,error\n")
            for name, start, end, parent, op, error in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op},{error or ''}\n")
