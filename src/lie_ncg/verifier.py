"""Statement verification harness.

Every claim checked here is one row of ``STATEMENTS`` under a stable id
(Lem2.2, Prop2.5, ...): a one-line restatement, a hypothesis (None for a
claim on every graph), a conclusion and a failure text.  Hypothesis and
conclusion read facts off an ``Instance``, the fact sheet of one algebra:
its q and |L|, and five facts it computes the first time a row reads them
and keeps (``linalg.first_read``), on the algebra side the center, its
order, the derived dimension and the centralizer orders (by rank), on the
graph side the graph.  Every fact of the graph, the invariants of
``graphs`` and this module's dominating vertex, figures (the ids of the
reference graphs F1-F5 it is isomorphic to) and tree test, is a
``graphs.fact`` read off ``graph``, so the algebras of one centralizer
family, which share their graph's facts, compute it once between them; the
algebra-side facts, Lem2.2's centralizer ranks among them, stay each
algebra's own.  One loop, ``check_statement``, runs a row over a scope of
algebras (the built-in catalog, or every Jacobi-satisfying structure
tensor of a small shape) and produces a TheoremReport.  An instance whose
hypothesis is false is a vacuous pass, tallied separately so a hypothesis
that never fires is visible in the report; a biconditional has no
hypothesis, so both directions are checked on every instance.  Cor2.11's
"not a tree" is n - 1 edges leaving one class under ``graphs.components``
over the edges, so no graph walk is needed.
"""

from collections import Counter, namedtuple
from operator import add, itemgetter

from . import graphs
from .catalog import builtin_catalog
from .enumeration import _check_scope, algebras_equivalent, jacobi_tensors, orbit_partition
from .errors import LieNcgError, Undecided, UnknownStatement
from .gf import field_new, prime_factors, prime_power_decomposition
from .iso import canonical_certificate, isomorphism
from .linalg import bits, first_read
from .ncg import build_graph
from .refgraphs import figure_graph


# -- instances ----------------------------------------------------------------

# the figure graphs the statements of section 3 match against
_FIGURES = {fid: figure_graph(fid) for fid in ("F1", "F2", "F3", "F4", "F5")}


class Instance:
    """The fact sheet of one algebra under test: its name, the algebra, q
    and |L|, and five facts, each computed the first time a statement reads
    it and kept on the instance.  The graph's own facts are read through
    ``graphs.fact`` off ``graph``, so every instance of one centralizer
    family computes each of them once between them."""

    def __init__(self, name, algebra):
        self.name = name
        self.L = algebra
        self.q = algebra.field.q
        self.order = algebra.order

    @first_read
    def graph(self):
        return build_graph(self.L)

    @first_read
    def center(self):
        return self.L.center()

    @first_read
    def center_order(self):
        return self.q ** len(self.center)

    @first_read
    def dim_derived(self):
        return len(self.L.derived_subalgebra())

    @first_read
    def centralizer_orders(self):
        """|C_L(v)| per vertex, one ``LieAlgebra.centralizer_order`` per line
        {cv : c != 0}, on the graph's element indices: ad(cv) is c ad(v), so
        the order of the first vertex of a line is kept under its
        ``space.line`` entry for the rest.  The orders are ranks from row
        reduction, while build_graph intersects hyperplane bitmasks, so
        Lem2.2 compares the graph's rows with centralizers found another
        way.  They are the algebra's own: no other instance reads them."""
        line, centralizer_order = self.L.space.line, self.L.centralizer_order
        orders = {}
        out = []
        for x in self.graph.indices:
            order = orders.get(line[x])
            if order is None:
                order = orders[line[x]] = centralizer_order(x)
            out.append(order)
        return out


@graphs.fact
def _has_dominating_vertex(g):
    # gamma == 1 is equivalent to a vertex adjacent to all others, so the
    # full domination search is not needed for this predicate
    return g.n - 1 in g.degrees


@graphs.fact
def _figures(g):
    """The ids of the ``_FIGURES`` the graph is isomorphic to."""
    return frozenset(fid for fid, ref in _FIGURES.items() if isomorphism(g, ref) is not None)


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


class TheoremReport:
    """One statement's outcome over a list of instances: how many were
    checked, how many were vacuous, and (instance name, text) failures."""

    __slots__ = ("statement_id", "quote", "instances_checked", "vacuous_count", "failures",
                 "notes")

    def __init__(self, statement_id, quote, instances_checked=0, vacuous_count=0,
                 failures=None, notes=None):
        self.statement_id = statement_id
        self.quote = quote
        self.instances_checked = instances_checked
        self.vacuous_count = vacuous_count
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes

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


# -- statements ---------------------------------------------------------------

# One row per statement: ``hypothesis`` is None or a predicate, and
# ``conclusion`` a predicate, each read off an Instance's facts; ``failure``
# is the text recorded when the conclusion is false, or a function of the
# instance that gives it.
Statement = namedtuple("Statement", "quote hypothesis conclusion failure")


@graphs.fact
def _is_tree(g):
    """n - 1 edges and no cycle, that is n - 1 edges leaving one class under
    ``graphs.components`` over the edges."""
    edges = ((u, v) for u, row in enumerate(g.rows) for v in bits(row))
    return g.edge_count() == g.n - 1 and len(set(graphs.components(g.n, edges))) == 1


STATEMENTS = {
    "Lem2.2": Statement(
        "every vertex degree equals |L| minus the centralizer order", None,
        lambda i: set(map(add, i.graph.degrees, i.centralizer_orders)) <= {i.order},
        lambda i: next(f"vertex {i.graph.labels[v]}: degree {d} != {i.order - c}"
                       for v, (d, c) in enumerate(zip(i.graph.degrees, i.centralizer_orders))
                       if d + c != i.order)),
    "Lem2.3": Statement("the graph has no isolated vertex", None,
                        lambda i: min(i.graph.degrees) >= 1, "isolated vertex present"),
    "Prop2.4": Statement("the graph is connected", None,
                         lambda i: graphs.connectivity(i.graph)[0], "graph disconnected"),
    # girth is 3 or raises Undecided, so only the Undecided text is recorded
    "Prop2.5": Statement("the girth is 3", None, lambda i: graphs.girth(i.graph) == 3,
                         "girth is not 3"),
    # the diameter is 0, 1, 2 or inf, and raises Undecided past 2
    "Prop2.6": Statement("the diameter is at most 2", None,
                         lambda i: graphs.connectivity(i.graph)[1] != graphs.INF, "diameter inf"),
    "Thm2.8": Statement(
        "a complete graph forces a trivial center and q = 2",
        lambda i: graphs.is_complete(i.graph), lambda i: i.center_order == 1 and i.q == 2,
        lambda i: f"complete graph but |Z|={i.center_order}, q={i.q}"),
    "Cor2.9": Statement(
        "nontrivial center or q > 2 forces diameter exactly 2",
        lambda i: i.center_order > 1 or i.q > 2, lambda i: graphs.connectivity(i.graph)[1] == 2,
        lambda i: f"diameter {graphs.connectivity(i.graph)[1]}"),
    "Lem2.10": Statement("every vertex has degree at least 2", None,
                         lambda i: min(i.graph.degrees) >= 2,
                         lambda i: f"min degree {min(i.graph.degrees)}"),
    "Cor2.11": Statement("the graph is neither a tree nor a star", None,
                         lambda i: not _is_tree(i.graph), "graph is a tree"),
    "Prop2.12": Statement("the graph is Hamiltonian", None,
                          lambda i: graphs.is_hamiltonian(i.graph), "no Hamilton cycle"),
    "Prop2.13": Statement("the graph is Eulerian", None,
                          lambda i: graphs.is_eulerian(i.graph), "not Eulerian"),
    "Prop2.14": Statement(
        "derived dimension 1 forces (q^n - q^(n-1))-regularity", lambda i: i.dim_derived == 1,
        lambda i: set(i.graph.degrees) <= {i.q ** i.L.dim - i.q ** (i.L.dim - 1)},
        lambda i: f"degrees {sorted(set(i.graph.degrees))} != "
                  f"{i.q ** i.L.dim - i.q ** (i.L.dim - 1)}"),
    "Prop2.15": Statement("the graph is not complete bipartite", None,
                          lambda i: not graphs.is_complete_bipartite(i.graph),
                          "complete bipartite"),
    "Prop2.16": Statement(
        "domination number 1 forces a trivial center and q = 2",
        lambda i: _has_dominating_vertex(i.graph), lambda i: i.center_order == 1 and i.q == 2,
        lambda i: f"domination number 1 but |Z|={i.center_order}, q={i.q}"),
    "Thm2.18": Statement(
        "domination number 1 iff some vertex has a centralizer of order 2", None,
        lambda i: _has_dominating_vertex(i.graph) == (2 in i.centralizer_orders),
        lambda i: f"gamma==1 is {_has_dominating_vertex(i.graph)} but existence of |C(x)|=2 is "
                  f"{2 in i.centralizer_orders}"),
    # a non-existence: the hypothesis is the forbidden combination and the
    # conclusion is false, so every instance without it is vacuous
    "Lem3.1": Statement(
        "no 3-dimensional algebra over F_2 has derived dimension 1 and trivial center",
        lambda i: i.L.dim == 3 and i.q == 2 and i.dim_derived == 1 and i.center_order == 1,
        lambda i: False,
        "forbidden combination (dim 3, q=2, derived dim 1, trivial center) exists"),
    "Prop3.2": Statement(
        "dim 3, q=2, trivial center, derived dimension 2 gives the F1 graph",
        lambda i: i.L.dim == 3 and i.q == 2 and i.center_order == 1 and i.dim_derived == 2,
        lambda i: "F1" in _figures(i.graph), "graph not isomorphic to the F1 reference"),
    "Prop3.3": Statement(
        "dim 3, q=2, trivial center, derived dimension 3 gives K_7",
        lambda i: i.L.dim == 3 and i.q == 2 and i.center_order == 1 and i.dim_derived == 3,
        lambda i: "F2" in _figures(i.graph), "graph not isomorphic to K_7"),
    "Prop3.4": Statement(
        "dim 3, q=2, 1-dimensional center gives derived dimension 1 and the F3 graph",
        lambda i: i.L.dim == 3 and i.q == 2 and i.center_order == i.q,
        lambda i: i.dim_derived == 1 and "F3" in _figures(i.graph),
        lambda i: f"derived dimension {i.dim_derived} != 1" if i.dim_derived != 1
                  else "graph not isomorphic to the F3 reference"),
    "Thm3.5": Statement(
        "every dim-3 algebra over F_2 has graph F1, F2 or F3",
        lambda i: i.L.dim == 3 and i.q == 2, lambda i: _figures(i.graph) & {"F1", "F2", "F3"},
        "graph matches none of the F1/F2/F3 references"),
    "Thm3.7": Statement(
        "the graph is planar iff it is K_3 or the octahedron", None,
        lambda i: graphs.is_planar(i.graph) == bool(_figures(i.graph) & {"F3", "F4"}),
        lambda i: "planar graph that is neither K_3 nor the octahedron"
                  if graphs.is_planar(i.graph) else "reference-shaped graph reported nonplanar"),
    "Thm3.8": Statement(
        "the graph is outerplanar iff it is K_3", None,
        lambda i: graphs.is_outerplanar(i.graph) == ("F4" in _figures(i.graph)),
        lambda i: f"outerplanar={graphs.is_outerplanar(i.graph)} but "
                  f"K_3-shaped={'F4' in _figures(i.graph)}"),
}

STATEMENT_IDS = tuple(STATEMENTS)


def check_statement(statement_id, instances):
    """Run one registered statement over a list of Instance values.

    An instance whose hypothesis is false is vacuous, and one whose
    conclusion is false fails with the row's failure text.  A fact that
    raises Undecided, because its graph lacks what an invariant is read
    from, fails the instance with the error text.
    """
    row = STATEMENTS.get(statement_id)
    if row is None:
        raise UnknownStatement(f"no statement registered under id {statement_id!r}")
    quote, hypothesis, conclusion, failure = row
    vacuous = 0
    failures = []
    for inst in instances:
        try:
            if hypothesis is not None and not hypothesis(inst):
                vacuous += 1
            elif not conclusion(inst):
                failures.append((inst.name, failure if isinstance(failure, str) else failure(inst)))
        except Undecided as exc:
            failures.append((inst.name, str(exc)))
    return TheoremReport(statement_id, quote, len(instances), vacuous, failures)


def check_all_statements(instances, statement_ids=None):
    reports = []
    for sid in STATEMENT_IDS if statement_ids is None else statement_ids:
        reports.append(check_statement(sid, instances))
    return reports


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
    if isomorphism(_FIGURES["F3"], _FIGURES["F5"]) is None:
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
