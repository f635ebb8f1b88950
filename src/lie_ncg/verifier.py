"""Statement verification harness.

Every claim checked here is registered under a stable id (Lem2.2, Prop2.5,
...) together with a one-line restatement.  A check runs over a scope of
algebras (the built-in catalog, or every Jacobi-satisfying structure tensor
of a small shape) and produces a TheoremReport.  Implications count
hypothesis-false instances as vacuous passes, tallied separately so a
hypothesis that never fires is visible in the report; biconditionals are
checked in both directions on every instance.
"""

from __future__ import annotations

from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from operator import itemgetter

from . import graphs
from .catalog import builtin_catalog
from .enumeration import _check_scope, algebras_equivalent, jacobi_tensors, orbit_partition
from .errors import LieNcgError, Undecided, UnknownStatement
from .gf import field_new, prime_factors, prime_power_decomposition
from .iso import canonical_certificate, isomorphism
from .ncg import build_graph
from .refgraphs import figure_graph


# -- instances ----------------------------------------------------------------


class Instance:
    """One algebra under test, with lazily computed derived facts."""

    def __init__(self, name, algebra):
        self.name = name
        self.L = algebra

    @cached_property
    def graph(self):
        return build_graph(self.L)

    @cached_property
    def center(self):
        return self.L.center()

    @property
    def dim_center(self):
        return len(self.center)

    @property
    def center_order(self):
        return self.q**self.dim_center

    @cached_property
    def dim_derived(self):
        return len(self.L.derived_subalgebra())

    @cached_property
    def centralizer_orders(self):
        """|C_L(v)| per vertex, one ``LieAlgebra.centralizer_order`` per line
        {cv : c != 0}, on the graph's element indices: ad(cv) is c ad(v), so
        the order of the first vertex of a line is kept under its
        ``space.line`` entry for the rest.  The orders are ranks from row
        reduction, while build_graph intersects hyperplane bitmasks, so
        Lem2.2 compares the graph's rows with centralizers found another
        way."""
        line, centralizer_order = self.L.space.line, self.L.centralizer_order
        orders = {}
        out = []
        for x in self.graph.indices:
            order = orders.get(line[x])
            if order is None:
                order = orders[line[x]] = centralizer_order(x)
            out.append(order)
        return out

    @property
    def q(self):
        return self.L.field.q

    @property
    def order(self):
        return self.L.order

    @cached_property
    def has_dominating_vertex(self):
        # gamma == 1 is equivalent to a vertex adjacent to all others, so the
        # full domination search is not needed for this predicate
        return self.graph.n - 1 in self.graph.degrees


def catalog_instances():
    return [Instance(entry.name, entry.algebra()) for entry in builtin_catalog()]


def enumeration_instances(n, q):
    """Every non-abelian Jacobi-satisfying structure on F_q^n.  The shape is
    checked first, and a dimension below 2 is refused: every such algebra is
    abelian."""
    field = field_new(q)
    _check_scope(n, field, least=2)
    out = []
    for idx, L in enumerate(jacobi_tensors(n, field)):
        if not L.is_abelian():
            out.append(Instance(f"enum(n={n},q={q})#{idx}", L))
    return out


def _catalog_scope(n, q):
    """The catalog, which has no shape: a given n or q is refused."""
    if (n, q) != (None, None):
        raise LieNcgError("the catalog scope takes no --n or --q")
    return catalog_instances()


# the instances each ``verify --scope`` lists for its (n, q), None where not given
SCOPES = {
    "catalog": _catalog_scope,
    "enumerate": lambda n, q: enumeration_instances(3 if n is None else n, 2 if q is None else q),
}


# -- reports ------------------------------------------------------------------


@dataclass
class TheoremReport:
    statement_id: str
    quote: str
    instances_checked: int = 0
    vacuous_count: int = 0
    failures: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

    @property
    def status(self):
        return "pass" if not self.failures and self.instances_checked > 0 else "fail"

    def to_dict(self):
        return {
            "statement_id": self.statement_id,
            "quote": self.quote,
            "instances_checked": self.instances_checked,
            "vacuous_count": self.vacuous_count,
            "failures": [list(f) for f in self.failures],
            "notes": list(self.notes),
            "status": self.status,
        }


# -- per-instance statement checks -------------------------------------------

PASS = "pass"
VACUOUS = "vacuous"


def _check_degree_formula(inst):
    order = inst.order
    for i, (degree, centralizer) in enumerate(zip(inst.graph.degrees, inst.centralizer_orders)):
        if degree != order - centralizer:
            return f"vertex {inst.graph.labels[i]}: degree {degree} != {order - centralizer}"
    return PASS


def _check_no_isolated(inst):
    return PASS if min(inst.graph.degrees) >= 1 else "isolated vertex present"


def _check_connected(inst):
    return PASS if graphs.connectivity(inst.graph)[0] else "graph disconnected"


def _check_girth(inst):
    girth = graphs.girth(inst.graph)
    return PASS if girth == 3 else f"girth is {girth}"


def _check_diameter(inst):
    # Graph.diameter is 0, 1, 2 or inf, and raises Undecided on a diameter
    # past 2, so inf is the only value left to fail
    diameter = graphs.connectivity(inst.graph)[1]
    return PASS if diameter != graphs.INF else f"diameter {diameter}"


def _check_complete_implies(inst):
    if not graphs.is_complete(inst.graph):
        return VACUOUS
    if inst.center_order == 1 and inst.q == 2:
        return PASS
    return f"complete graph but |Z|={inst.center_order}, q={inst.q}"


def _check_diameter_two(inst):
    if inst.center_order == 1 and inst.q == 2:
        return VACUOUS
    diameter = graphs.connectivity(inst.graph)[1]
    return PASS if diameter == 2 else f"diameter {diameter}"


def _check_min_degree_two(inst):
    return PASS if min(inst.graph.degrees) >= 2 else f"min degree {min(inst.graph.degrees)}"


def _check_not_tree_not_star(inst):
    g = inst.graph
    # a tree on n vertices has n - 1 edges, is connected and has no cycle, so
    # with an isolated vertex beside others, or a triangle, it is none; only
    # the rest ask connectivity
    if g.edge_count() != g.n - 1 or g.n >= 2 and 0 in g.degrees:
        return PASS
    with suppress(Undecided):
        graphs.girth(g)  # 3, or Undecided on a triangle-free graph
        return PASS
    return "graph is a tree" if graphs.connectivity(g)[0] else PASS


def _check_hamiltonian(inst):
    return PASS if graphs.is_hamiltonian(inst.graph) else "no Hamilton cycle"


def _check_eulerian(inst):
    return PASS if graphs.is_eulerian(inst.graph) else "not Eulerian"


def _check_regular_when_dim1(inst):
    if inst.dim_derived != 1:
        return VACUOUS
    q, n = inst.q, inst.L.dim
    want = q**n - q ** (n - 1)
    if all(d == want for d in inst.graph.degrees):
        return PASS
    return f"degrees {sorted(set(inst.graph.degrees))} != {want}"


def _check_not_complete_bipartite(inst):
    return PASS if not graphs.is_complete_bipartite(inst.graph) else "complete bipartite"


def _check_gamma_one_implies(inst):
    if not inst.has_dominating_vertex:
        return VACUOUS
    if inst.center_order == 1 and inst.q == 2:
        return PASS
    return f"domination number 1 but |Z|={inst.center_order}, q={inst.q}"


def _check_gamma_one_iff(inst):
    left = inst.has_dominating_vertex
    right = 2 in inst.centralizer_orders
    if left == right:
        return PASS
    return f"gamma==1 is {left} but existence of |C(x)|=2 is {right}"


def _check_no_dim1_centerless(inst):
    if inst.L.dim == 3 and inst.q == 2 and inst.dim_derived == 1 and inst.dim_center == 0:
        return "forbidden combination (dim 3, q=2, derived dim 1, trivial center) exists"
    return VACUOUS


# the figure graphs the statements of section 3 match against
_FIGURES = {fid: figure_graph(fid) for fid in ("F1", "F2", "F3", "F4", "F5")}


def _is_figure(g, figure_id):
    return isomorphism(g, _FIGURES[figure_id]) is not None


def _check_figure1(inst):
    if not (inst.L.dim == 3 and inst.q == 2 and inst.dim_center == 0 and inst.dim_derived == 2):
        return VACUOUS
    return PASS if _is_figure(inst.graph, "F1") else "graph not isomorphic to the F1 reference"


def _check_figure2(inst):
    if not (inst.L.dim == 3 and inst.q == 2 and inst.dim_center == 0 and inst.dim_derived == 3):
        return VACUOUS
    return PASS if _is_figure(inst.graph, "F2") else "graph not isomorphic to K_7"


def _check_figure3(inst):
    if not (inst.L.dim == 3 and inst.q == 2 and inst.dim_center == 1):
        return VACUOUS
    if inst.dim_derived != 1:
        return f"derived dimension {inst.dim_derived} != 1"
    return PASS if _is_figure(inst.graph, "F3") else "graph not isomorphic to the F3 reference"


def _check_three_dim_f2_classification(inst):
    if not (inst.L.dim == 3 and inst.q == 2):
        return VACUOUS
    g = inst.graph
    if _is_figure(g, "F1") or _is_figure(g, "F2") or _is_figure(g, "F3"):
        return PASS
    return "graph matches none of the F1/F2/F3 references"


def _check_planarity_classification(inst):
    planar = graphs.is_planar(inst.graph)
    allowed = _is_figure(inst.graph, "F4") or _is_figure(inst.graph, "F3")
    if planar and not allowed:
        return "planar graph that is neither K_3 nor the octahedron"
    if allowed and not planar:
        return "reference-shaped graph reported nonplanar"
    return PASS


def _check_outerplanarity_classification(inst):
    outer = graphs.is_outerplanar(inst.graph)
    is_k3 = _is_figure(inst.graph, "F4")
    if outer != is_k3:
        return f"outerplanar={outer} but K_3-shaped={is_k3}"
    return PASS


STATEMENTS = {
    "Lem2.2": ("every vertex degree equals |L| minus the centralizer order", _check_degree_formula),
    "Lem2.3": ("the graph has no isolated vertex", _check_no_isolated),
    "Prop2.4": ("the graph is connected", _check_connected),
    "Prop2.5": ("the girth is 3", _check_girth),
    "Prop2.6": ("the diameter is at most 2", _check_diameter),
    "Thm2.8": ("a complete graph forces a trivial center and q = 2", _check_complete_implies),
    "Cor2.9": ("nontrivial center or q > 2 forces diameter exactly 2", _check_diameter_two),
    "Lem2.10": ("every vertex has degree at least 2", _check_min_degree_two),
    "Cor2.11": ("the graph is neither a tree nor a star", _check_not_tree_not_star),
    "Prop2.12": ("the graph is Hamiltonian", _check_hamiltonian),
    "Prop2.13": ("the graph is Eulerian", _check_eulerian),
    "Prop2.14": (
        "derived dimension 1 forces (q^n - q^(n-1))-regularity",
        _check_regular_when_dim1,
    ),
    "Prop2.15": ("the graph is not complete bipartite", _check_not_complete_bipartite),
    "Prop2.16": (
        "domination number 1 forces a trivial center and q = 2",
        _check_gamma_one_implies,
    ),
    "Thm2.18": (
        "domination number 1 iff some vertex has a centralizer of order 2",
        _check_gamma_one_iff,
    ),
    "Lem3.1": (
        "no 3-dimensional algebra over F_2 has derived dimension 1 and trivial center",
        _check_no_dim1_centerless,
    ),
    "Prop3.2": (
        "dim 3, q=2, trivial center, derived dimension 2 gives the F1 graph",
        _check_figure1,
    ),
    "Prop3.3": (
        "dim 3, q=2, trivial center, derived dimension 3 gives K_7",
        _check_figure2,
    ),
    "Prop3.4": (
        "dim 3, q=2, 1-dimensional center gives derived dimension 1 and the F3 graph",
        _check_figure3,
    ),
    "Thm3.5": (
        "every dim-3 algebra over F_2 has graph F1, F2 or F3",
        _check_three_dim_f2_classification,
    ),
    "Thm3.7": (
        "the graph is planar iff it is K_3 or the octahedron",
        _check_planarity_classification,
    ),
    "Thm3.8": ("the graph is outerplanar iff it is K_3", _check_outerplanarity_classification),
}

STATEMENT_IDS = tuple(STATEMENTS)


def check_statement(statement_id, instances):
    """Run one registered statement over a list of Instance values.

    A check that raises Undecided, because its graph lacks the fact an
    invariant is read from, fails on that instance with the error text.
    """
    if statement_id not in STATEMENTS:
        raise UnknownStatement(f"no statement registered under id {statement_id!r}")
    quote, checker = STATEMENTS[statement_id]
    report = TheoremReport(statement_id=statement_id, quote=quote)
    for inst in instances:
        try:
            outcome = checker(inst)
        except Undecided as exc:
            outcome = str(exc)
        report.instances_checked += 1
        if outcome == VACUOUS:
            report.vacuous_count += 1
        elif outcome != PASS:
            report.failures.append((inst.name, outcome))
    return report


def check_all_statements(instances, statement_ids=None):
    ids = STATEMENT_IDS if statement_ids is None else tuple(statement_ids)
    return [check_statement(sid, instances) for sid in ids]


# -- figure reproduction ------------------------------------------------------


def check_figures():
    """Reproduce the reference drawings from enumeration over F_2, dim 3:
    Lem3.1, Prop3.2-3.4 and Thm3.5 over its instances, each figure realized
    by the instances its proposition is not vacuous on, then two reference
    checks: the octahedra F3 and F5 agree, and F2 is K_7."""
    report = TheoremReport(
        statement_id="Figures",
        quote="the transcribed reference graphs are reproduced by enumeration",
    )
    instances = enumeration_instances(3, 2)
    report.instances_checked = len(instances) + 2
    figures = {"Prop3.2": "F1", "Prop3.3": "F2", "Prop3.4": "F3"}
    for sub in check_all_statements(instances, ["Lem3.1", *figures, "Thm3.5"]):
        report.failures += [(name, f"{sub.statement_id}: {why}") for name, why in sub.failures]
        fig = figures.get(sub.statement_id)
        if fig:
            count = sub.instances_checked - sub.vacuous_count
            if count == 0:
                report.failures.append((fig, "no algebra realizes this reference graph"))
            report.notes.append(f"{fig}: realized by {count} structure tensors")
    if not _is_figure(_FIGURES["F3"], "F5"):
        report.failures.append(("F3/F5", "the two octahedron drawings are not isomorphic"))
    f2 = _FIGURES["F2"]
    if not (f2.n == 7 and graphs.is_complete(f2)):
        report.failures.append(("F2", "reference graph is not K_7"))
    return report


# -- isomorphism consequences (section 4 style checks) -------------------------


def _degree_shapes(degree):
    """Which degree-shape hypotheses a vertex degree satisfies."""
    fac = dict(prime_factors(degree))
    shapes = set()
    if len(fac) == 1:
        shapes.add("prime_power")
        if degree in fac:
            shapes.add("prime")
    if len(fac) == 2:
        (p, a), (q, b) = sorted(fac.items(), reverse=True)
        # p is the larger prime; the hypotheses require p > q
        if b == 1:
            shapes.add("p^n*q")
            if a == 1:
                shapes.add("p*q")
            if a == 2:
                shapes.add("p^2*q")
    return shapes


def iso_consequences(label, L1, g1, L2, g2, witness):
    """Failures and notes, as two lists, of the consequence checks on L1 and
    L2, given their graphs and an isomorphism ``witness`` from g1 to g2.  The
    witness is re-verified first, one row per distinct row pair."""
    bad = _verify_witness(g1, g2, witness)
    if bad:
        return [(label, bad)], []
    failures, notes = [], []
    shapes = set()
    for d in set(g1.degrees):
        shapes |= _degree_shapes(d)
    q1, q2 = L1.field.q, L2.field.q
    if "prime_power" in shapes:
        if prime_power_decomposition(q1)[1] == 1 and prime_power_decomposition(q2)[1] == 1:
            if q1 != q2:
                failures.append((label, f"prime-power degree but q {q1} != {q2}"))
        else:
            notes.append(
                f"{label}: prime-power degree with non-prime field order; "
                f"equal-q conclusion not asserted (q={q1},{q2})"
            )
    if shapes & {"prime", "p*q", "p^2*q", "p^n*q"} or (q1 == 2 and q2 == 2):
        if L1.order != L2.order:
            failures.append((label, f"|L1|={L1.order} != |L2|={L2.order}"))
    for shape in ("p*q", "p^2*q"):
        if shape not in shapes:
            continue
        if L1.order == L2.order == 9:
            ok = (
                L1.dim == 2
                and L2.dim == 2
                and not L1.is_abelian()
                and not L2.is_abelian()
                and algebras_equivalent(L1, L2)
            )
            if not ok:
                failures.append(
                    (label, f"degree shape {shape} with |L|=9 but algebras not the "
                     "2-dimensional non-abelian class")
                )
        else:
            notes.append(
                f"{label}: degree shape {shape} with |L|={L1.order}, outside the "
                "|L|=9 case analysis; order equality verified, algebra "
                "isomorphism not asserted"
            )
    return failures, notes


def _verify_witness(g1, g2, witness):
    """None if ``witness`` maps g1 onto g2 preserving adjacency, else why
    not, naming the first pair (u, v), u < v, whose adjacency it breaks.

    One row per distinct pair (g1's row of u, g2's row of witness[u]), for
    its least u in ascending order: g2's row, pulled back through the witness
    by one ``itemgetter``, must agree with g1's row past u.  Every u of a
    pair has the same broken pairs (u, v), so the first one is found there.
    """
    n = g1.n
    if sorted(witness) != list(range(n)) or sorted(witness.values()) != list(range(g2.n)):
        return "witness is not a bijection"
    if n < 2:  # no pair; and itemgetter returns a tuple only for two or more indices
        return None
    pull = itemgetter(*map(witness.__getitem__, range(n)))
    first = {}
    for u in range(n):
        first.setdefault((g1.rows[u], g2.rows[witness[u]]), u)
    for u in first.values():
        mine = g1.row_bytes(u)[u + 1 : n]
        theirs = bytes(pull(g2.row_bytes(witness[u])))[u + 1 :]
        if mine != theirs:
            v = next(v for v, (a, b) in enumerate(zip(mine, theirs), u + 1) if a != b)
            return f"witness breaks adjacency on ({u}, {v})"
    return None


# -- conjecture exploration ----------------------------------------------------


def explore_conjecture(n_max=3, qs=(2,)):
    """Tabulate (graphs isomorphic?, equal algebra orders?) over all pairs of
    enumerated non-abelian algebras.  Data only; no truth claim.

    A repeated q counts once.  Every scope, from dim 2 up, is checked
    before any is enumerated.  The cells are counted, not compared pair by
    pair: m instances sharing a key give m(m-1)/2 pairs, so grouping by
    certificate, by order and by both gives every cell.  The instances are
    the structure tensors, counted per GL(n, q) orbit: ``orbit_partition``
    gives one representative and the orbit's size, and isomorphic algebras
    have isomorphic graphs and equal orders, so each representative's keys
    stand for its whole orbit.
    """
    qs = list(dict.fromkeys(qs))
    for q in qs:
        _check_scope(n_max, field_new(q), least=2)
    # instances per certificate, per order and per both
    by_cert, by_order, by_both = Counter(), Counter(), Counter()
    for q in qs:
        field = field_new(q)
        for n in range(2, n_max + 1):
            for L, size in orbit_partition(n, field):
                if not L.is_abelian():
                    cert = canonical_certificate(build_graph(L))
                    by_cert[cert] += size
                    by_order[L.order] += size
                    by_both[cert, L.order] += size

    def pairs(counts):
        return sum(m * (m - 1) // 2 for m in counts.values())

    count = sum(by_order.values())
    total = count * (count - 1) // 2
    iso, equal, both = pairs(by_cert), pairs(by_order), pairs(by_both)
    return {
        "pairs": total,
        "instances": count,
        "cells": {
            "iso/equal": both,
            "iso/unequal": iso - both,
            "non-iso/equal": equal - both,
            "non-iso/unequal": total - iso - equal + both,
        },
    }
