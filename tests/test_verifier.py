"""Statement registry, figure reproduction and isomorphism consequences."""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lie_ncg import verifier
from lie_ncg.errors import UnknownStatement
from lie_ncg.gf import field_new
from lie_ncg.graphs import Graph
from lie_ncg.io import load_spec
from lie_ncg.iso import isomorphism
from lie_ncg.liealg import LieAlgebra, algebra_from_spec
from lie_ncg.linalg import VectorSpace, bits, first_read
from lie_ncg.ncg import build_graph
from lie_ncg.refgraphs import FIGURE_IDS, figure_graph
from lie_ncg.verifier import (
    STATEMENT_IDS,
    STATEMENTS,
    Instance,
    TheoremReport,
    catalog_instances,
    check_all_statements,
    check_figures,
    check_statement,
    enumeration_instances,
    explore_conjecture,
)

import oracles
from oracles import catalog_entry, complete_graph

SPECS = Path(__file__).resolve().parent.parent / "specs"


def l2_f3():
    """dim-3 algebra over F_3 with [x, y] = x; same graph shape as Heisenberg."""
    return LieAlgebra(field_new(3), 3, {(0, 1): (1, 0, 0)})


def test_statement_registry_shape():
    assert len(STATEMENT_IDS) == 22
    for sid, (quote, hypothesis, conclusion, failure) in STATEMENTS.items():
        assert isinstance(quote, str) and quote
        assert hypothesis is None or callable(hypothesis)
        assert callable(conclusion)
        assert isinstance(failure, str) or callable(failure)


# an Instance's facts by the side they are computed from: the graph, or the
# algebra (its center, derived subalgebra, centralizer ranks and field)
GRAPH_FACTS = {"graph"}
ALGEBRA_FACTS = {"L", "q", "order", "center", "center_order", "dim_derived", "centralizer_orders"}
# the statements that tie the graph to the algebra
TIED = ("Lem2.2", "Thm2.8", "Cor2.9", "Prop2.14", "Prop2.16", "Thm2.18", "Prop3.2", "Prop3.3",
        "Prop3.4", "Thm3.5")


class _Recording:
    """An instance whose every attribute read is recorded by name."""

    def __init__(self, inst):
        self._inst, self.read = inst, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._inst, name)


def test_rows_tying_graph_and_algebra_read_a_fact_of_each_side():
    # a row that read one side only could compare a fact with itself, and
    # so pass on every instance whatever the program computes
    instances = catalog_instances() + enumeration_instances(3, 2)
    facts = set(vars(instances[0])) - {"name"} | {
        name for name, value in vars(Instance).items() if isinstance(value, first_read)
    }
    assert facts == GRAPH_FACTS | ALGEBRA_FACTS, "unclassified Instance facts"
    for sid, (_, hypothesis, conclusion, _) in STATEMENTS.items():
        read, fired = set(), 0
        for inst in instances:
            proxy = _Recording(inst)
            if hypothesis is None or hypothesis(proxy):
                fired += 1
                assert conclusion(proxy), (sid, inst.name)
            read |= proxy.read
        assert read <= facts, (sid, read - facts)
        if sid in TIED:
            assert fired and read & GRAPH_FACTS and read & ALGEBRA_FACTS, (sid, read)


def test_fact_sheet_keeps_no_graph_fact():
    # every statement read on a dim-3 algebra over F_2 and on a catalog one:
    # the sheet keeps the algebra's own numbers and the graph, and each fact
    # of the graph stays in the graph's ``graphs.fact``s, kept once per
    # centralizer family and not again per instance
    instances = enumeration_instances(3, 2)[:1] + catalog_instances()
    for report in check_all_statements(instances):
        assert report.status == "pass", (report.statement_id, report.failures)
    for inst in instances:
        assert set(vars(inst)) == {"name", "L", "q", "order", "graph", "center", "center_order",
                                   "dim_derived", "centralizer_orders"}, inst.name


def test_unknown_statement():
    with pytest.raises(UnknownStatement):
        check_statement("Thm9.9", [])


def test_catalog_instances():
    instances = catalog_instances()
    assert len(instances) == 9
    names = [inst.name for inst in instances]
    assert "heisenberg_f2" in names and "split_pairs_f2" in names


def test_center_is_computed_once_per_algebra(monkeypatch):
    # build_graph reads the center as the algebra's kept mask and reads no
    # basis off it; the instance reads the center's basis once and keeps it
    calls = []
    real = VectorSpace.basis
    monkeypatch.setattr(VectorSpace, "basis", lambda V, mask: calls.append(mask) or real(V, mask))
    L = catalog_entry("heisenberg_f3").algebra()
    build_graph(L)
    assert calls == []
    mask = L.center_mask
    inst = Instance("heisenberg_f3", L)
    assert inst.center is inst.center and inst.center == L.center() == ((0, 0, 1),)
    assert inst.center_order == 3 and L.center_mask is mask
    assert calls == [mask, mask]


def _pool():
    """Every instance of the criterion-1 pool: the catalog and every
    non-abelian structure tensor for n, q in {2, 3}."""
    instances = oracles.pool_instances()
    assert len(instances) == 1569
    return instances


def test_centralizer_orders_match_one_rank_per_vertex():
    for inst in _pool():
        want = [inst.L.centralizer_order(x) for x in inst.graph.indices]
        assert inst.centralizer_orders == want, inst.name


def test_graph_and_centralizer_orders_stay_on_element_indices(monkeypatch):
    # build_graph hands the verifier each vertex's element index, so neither
    # turns a coordinate tuple back into an index
    instances = _pool()

    def refuse(*args):
        raise AssertionError("VectorSpace.code called")

    monkeypatch.setattr(VectorSpace, "code", refuse)
    for inst in instances:
        assert len(inst.centralizer_orders) == inst.graph.n, inst.name


def _sum_of_units(field, dim, brackets):
    """``brackets`` ({(i, j): k} for [e_i, e_j] = e_k) on F_q^dim."""
    return LieAlgebra(
        field, dim, {ij: tuple(int(r == k) for r in range(dim)) for ij, k in brackets.items()}
    )


def test_centralizer_orders_match_brute_force_over_larger_fields(monkeypatch):
    # every spec, then Heisenberg + F_q^k and aff1 + aff1 ([x, y] = y, [u, v]
    # = v) over extension and larger prime fields.  |C(x)| is the number of
    # y with [x, y] = 0, bracketed with Field method calls; that count runs
    # on every vertex of the specs and on a seeded sample of 4 vertices of
    # the rest, where every vertex is checked against a method-call
    # elimination of ad(x) instead
    monkeypatch.setenv("LIE_NCG_CAP", str(9**4))
    algebras = [algebra_from_spec(load_spec(path)) for path in sorted(SPECS.glob("*.json"))]
    assert len(algebras) == 11
    for q, k in ((4, 1), (5, 1), (8, 1), (9, 0)):
        f = field_new(q)
        algebras.append(_sum_of_units(f, 3 + k, {(0, 1): 2}))
        algebras.append(_sum_of_units(f, 4, {(0, 1): 1, (2, 3): 3}))
    rng = random.Random(2026)
    for L in algebras:
        inst = Instance(repr(L), L)
        vertices, orders = inst.graph.vertices, inst.centralizer_orders
        assert len(orders) == len(vertices)
        everything = oracles.elements(L)
        checked = range(len(vertices))
        if L.order > 125:
            checked = rng.sample(checked, 4)
            q = L.field.q
            for x, order in zip(vertices, orders):
                reduced, _ = oracles.rref_by_methods(L.field, oracles.ad_matrix_by_methods(L, x))
                assert order == q ** (L.dim - len(reduced)), (L, x)
        zero = (0,) * L.dim
        for i in checked:
            x = vertices[i]
            want = sum(oracles.bracket_by_methods(L, x, y) == zero for y in everything)
            assert orders[i] == want, (L, x)


def test_lem22_calls_centralizer_order_once_per_line_with_element_indices(monkeypatch):
    # Lem2.2 reads |C(x)| from the library method, called once per line
    # {cx : c != 0} outside the center, with the element index of the line's
    # first vertex; the n vertices of a graph lie on n / (q - 1) lines
    calls = []
    real = LieAlgebra.centralizer_order
    monkeypatch.setattr(
        LieAlgebra, "centralizer_order", lambda L, x: calls.append((L, x)) or real(L, x)
    )
    instances = _pool()
    report = check_statement("Lem2.2", instances)
    assert report.status == "pass" and report.instances_checked == len(instances)
    assert all(type(x) is int for _, x in calls)
    for inst in instances:
        g, line = inst.graph, inst.L.space.line
        firsts = {}
        for x in g.indices:
            firsts.setdefault(line[x], x)
        mine = [x for L, x in calls if L is inst.L]
        assert mine == list(firsts.values()), inst.name
        assert len(mine) == g.n // (inst.q - 1), inst.name


def test_every_ad_of_the_pool_ranks_as_the_oracle(fresh_memos):
    # every element of every pool algebra, on spaces of this test's own, so
    # the rank memo fills here: a key first ranked for one ad(x) serves
    # every later matrix whose rows lie on the same lines
    for inst in _pool():
        L = inst.L
        for x, vec in enumerate(oracles.elements(L)):
            reduced, _ = oracles.rref_by_methods(L.field, oracles.ad_matrix_by_methods(L, vec))
            assert L.space.rank(L.ad_rows[x]) == len(reduced), (inst.name, vec)


@pytest.mark.parametrize("name", ["heisenberg_f4", "heisenberg_f5", "aff1_f4"])
def test_one_rank_per_line_outside_the_center(monkeypatch, fresh_memos, name):
    calls, eliminations = [], []
    rank, eliminate = VectorSpace.rank, VectorSpace._eliminate
    monkeypatch.setattr(VectorSpace, "rank", lambda V, rows: calls.append(rows) or rank(V, rows))
    monkeypatch.setattr(
        VectorSpace, "_eliminate", lambda V, rows: eliminations.append(rows) or eliminate(V, rows)
    )
    # spaces of this test's own (fresh_memos), so the first instance finds
    # the rank memo empty
    L = algebra_from_spec(load_spec(SPECS / f"{name}.json"))
    inst = Instance(name, L)
    assert inst.graph.n and calls == []
    orders = inst.centralizer_orders
    center = len(oracles.brute_center(L))
    lines = (L.order - center) // (L.field.q - 1)
    assert len(calls) == lines
    # one elimination per distinct set of the rows' lines, in the order the
    # sets are first ranked, each line named by its multiple with first
    # nonzero coordinate 1, scaled by method calls.  With a trivial center
    # that is one per line here; in the Heisenberg algebras, whose center is
    # a line, ad(ax + by + cz) is the same for every c, so lines whose ad(x)
    # differ only by a scalar share one elimination
    q, F = L.field.q, oracles.arithmetic(L.field.q)

    def row_lines(rows):
        out = set()
        for v in rows:
            d = [v // q**i % q for i in range(L.dim)]
            lead = F.inverse(next((a for a in d if a), 1))
            out.add(tuple(F.mul(lead, a) for a in d))
        return frozenset(out)

    keys = list(dict.fromkeys(map(row_lines, calls)))
    assert list(map(row_lines, eliminations)) == keys
    assert len(keys) == lines if center == 1 else len(keys) < len(set(calls))
    assert orders == [L.centralizer_order(x) for x in inst.graph.indices]
    eliminations.clear()
    again = Instance(name, algebra_from_spec(load_spec(SPECS / f"{name}.json")))
    assert again.centralizer_orders == orders and eliminations == []


def test_lem22_reports_a_wrong_centralizer_with_both_memos_warm(monkeypatch, fresh_memos):
    # a first pass over spaces of this test's own fills each space's
    # linear-map and rank memos
    assert check_statement("Lem2.2", _pool()).status == "pass"
    instances = _pool()
    target = instances[-1]
    L = target.L
    # the first vertex, whose line's row build_graph finds from its ad(x)
    x = next(bits(L.space.everything & ~L.center_mask))
    wrong = L.ad_rows[x]
    solutions = VectorSpace.solutions

    def corrupted(V, rows):
        # drop x from its own centralizer for this one algebra
        mask = solutions(V, rows)
        return mask & ~(1 << x) if rows is wrong else mask

    def refuse(V, rows):
        raise AssertionError("eliminated with the rank memo warm")

    monkeypatch.setattr(VectorSpace, "solutions", corrupted)
    monkeypatch.setattr(VectorSpace, "_eliminate", refuse)
    report = check_statement("Lem2.2", instances)
    assert [name for name, _ in report.failures] == [target.name]


def test_all_statements_pass_on_catalog():
    instances = catalog_instances()
    for report in check_all_statements(instances):
        assert report.status == "pass", (report.statement_id, report.failures)
        assert report.instances_checked == len(instances)


def test_every_statement_fires_non_vacuously_somewhere():
    # Lem3.1 asserts a non-existence, so it can only ever pass vacuously
    instances = catalog_instances() + enumeration_instances(3, 2)
    for report in check_all_statements(instances):
        if report.statement_id == "Lem3.1":
            continue
        assert report.vacuous_count < report.instances_checked, report.statement_id


def test_all_statements_pass_on_enumeration_n2_q2():
    instances = enumeration_instances(2, 2)
    assert len(instances) == 3
    for report in check_all_statements(instances):
        assert report.status == "pass", (report.statement_id, report.failures)


def test_report_status_rules():
    empty = TheoremReport(statement_id="X", quote="q")
    assert empty.status == "fail"  # nothing checked is not a pass
    failing = TheoremReport(statement_id="X", quote="q", instances_checked=1)
    failing.failures.append(("inst", "detail"))
    assert failing.status == "fail"
    d = failing.to_dict()
    assert d["status"] == "fail" and d["failures"] == [["inst", "detail"]]


def _statement(sid, **facts):
    """The failures ``check_statement`` records on one fake instance: an
    ``Instance`` with the given facts as class attributes, made without
    ``__init__``, which reads the algebra's field.  The graph's own facts,
    such as its figures, are still computed from the given graph."""
    def run():
        fake = Instance.__new__(type("Fake", (Instance,), facts))
        fake.name = "fake"
        return check_statement(sid, [fake]).failures
    return run


def _fake_algebra(q, order):
    return SimpleNamespace(field=SimpleNamespace(q=q), order=order)


def _consequences(g1, g2, witness, L1=None, L2=None):
    """``iso_consequences`` on a pair, as (failures, notes)."""
    L1 = L1 or _fake_algebra(2, 8)
    L2 = L2 or L1
    return lambda: verifier.iso_consequences("A ~ B", L1, g1, L2, g2, witness)


def _figure_failures():
    """``check_figures``' failures as (count per statement of those on
    enumerated instances, the others in order)."""
    failures = check_figures().failures
    on_instances = Counter(
        detail.partition(":")[0] for name, detail in failures if name.startswith("enum")
    )
    return dict(on_instances), [f for f in failures if not f[0].startswith("enum")]


K3, K4, K5 = complete_graph(3), complete_graph(4), complete_graph(5)
K112 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
EDGELESS2 = Graph(2, [0, 0])
STAR = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
TRIANGLE_AND_VERTEX = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
TRIANGLE_AND_EDGE = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
SQUARE_AND_EDGE = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
# heisenberg_f2: 6 vertices, each of degree 4 with a centralizer of order 4
HEIS_F2_GRAPH = build_graph(catalog_entry("heisenberg_f2").algebra())
IDENTITY3 = {0: 0, 1: 1, 2: 2}
# aff1 over F_3: |L| = 9, and its graph is 6-regular on 8 vertices, 6 = 3 * 2
AFF1_F3 = catalog_entry("aff1_f3").algebra()
AFF1_F3_GRAPH = build_graph(AFF1_F3)


# One row per failure branch of the statements, the figures report and the
# consequence checks: what the row patches on ``verifier``, the call, and
# exactly what it must record.
FAILURE_BRANCHES = [
    # the third vertex, x + y, is the first whose degree and centralizer
    # order do not add up to |L|
    pytest.param({}, _statement("Lem2.2", graph=HEIS_F2_GRAPH, order=8,
                                centralizer_orders=(4, 4, 2, 4, 2, 4)),
                 [("fake", "vertex x+y: degree 4 != 6")], id="Lem2.2"),
    pytest.param({}, _statement("Lem2.3", graph=Graph.from_edges(3, [(0, 1)])),
                 [("fake", "isolated vertex present")], id="Lem2.3"),
    # an infinite diameter is truthy, so only the connectedness flag fails this
    pytest.param({}, _statement("Prop2.4", graph=EDGELESS2), [("fake", "graph disconnected")],
                 id="Prop2.4"),
    pytest.param({}, _statement("Prop2.5", graph=C6),
                 [("fake", "girth of a triangle-free graph (Graph(n=6, m=6))")], id="Prop2.5"),
    pytest.param({}, _statement("Prop2.6", graph=EDGELESS2), [("fake", "diameter inf")],
                 id="Prop2.6"),
    # 0 and 3 have no common neighbour, so the diameter is not decided
    pytest.param({}, _statement("Prop2.6", graph=PATH4),
                 [("fake", "diameter of a graph with two non-adjacent vertices and no common "
                           "neighbour (Graph(n=4, m=3))")], id="Prop2.6-undecided"),
    pytest.param({}, _statement("Cor2.9", graph=K3, center_order=1, q=3),
                 [("fake", "diameter 1")], id="Cor2.9"),
    pytest.param({}, _statement("Lem2.10", graph=PATH3), [("fake", "min degree 1")],
                 id="Lem2.10"),
    # a star K_{1,m} is a tree: connected, with m edges on m + 1 vertices
    pytest.param({}, _statement("Cor2.11", graph=STAR),
                 [("fake", "graph is a tree")], id="Cor2.11-star"),
    # n - 1 edges and an isolated vertex: disconnected, so the edges close a
    # cycle, here a triangle, and it is no tree
    pytest.param({}, _statement("Cor2.11", graph=TRIANGLE_AND_VERTEX), [],
                 id="Cor2.11-disconnected"),
    # n - 1 edges, no isolated vertex, and a triangle: a cycle, so no tree
    pytest.param({}, _statement("Cor2.11", graph=TRIANGLE_AND_EDGE), [],
                 id="Cor2.11-triangle"),
    # a tree that is no star, whose diameter (3) is Undecided: the row
    # counts edges and finds no cycle, so it asks no diameter
    pytest.param({}, _statement("Cor2.11", graph=PATH4),
                 [("fake", "graph is a tree")], id="Cor2.11-undecided"),
    # n - 1 edges, no isolated vertex, no triangle and an Undecided diameter,
    # but a 4-cycle: no tree
    pytest.param({}, _statement("Cor2.11", graph=SQUARE_AND_EDGE), [], id="Cor2.11-square"),
    pytest.param({}, _statement("Prop2.12", graph=STAR), [("fake", "no Hamilton cycle")],
                 id="Prop2.12"),
    pytest.param({}, _statement("Prop2.13", graph=STAR), [("fake", "not Eulerian")],
                 id="Prop2.13"),
    pytest.param({}, _statement("Prop2.15", graph=STAR), [("fake", "complete bipartite")],
                 id="Prop2.15"),
    pytest.param({}, _statement("Thm2.8", graph=K3, center_order=3, q=3),
                 [("fake", "complete graph but |Z|=3, q=3")], id="Thm2.8"),
    pytest.param({}, _statement("Prop2.14", dim_derived=1, q=2, L=SimpleNamespace(dim=3),
                                graph=SimpleNamespace(degrees=(4, 6, 4))),
                 [("fake", "degrees [4, 6] != 4")], id="Prop2.14"),
    pytest.param({}, _statement("Prop2.16", graph=K3, center_order=2, q=2),
                 [("fake", "domination number 1 but |Z|=2, q=2")], id="Prop2.16"),
    pytest.param({}, _statement("Thm2.18", graph=C6, centralizer_orders=[4, 2]),
                 [("fake", "gamma==1 is False but existence of |C(x)|=2 is True")],
                 id="Thm2.18"),
    pytest.param({}, _statement("Lem3.1", L=SimpleNamespace(dim=3), q=2, dim_derived=1,
                                center_order=1),
                 [("fake", "forbidden combination (dim 3, q=2, derived dim 1, trivial center) "
                           "exists")], id="Lem3.1"),
    pytest.param({}, _statement("Prop3.2", L=SimpleNamespace(dim=3), q=2, center_order=1,
                                dim_derived=2, graph=K4),
                 [("fake", "graph not isomorphic to the F1 reference")], id="Prop3.2"),
    pytest.param({}, _statement("Prop3.3", L=SimpleNamespace(dim=3), q=2, center_order=1,
                                dim_derived=3, graph=K4),
                 [("fake", "graph not isomorphic to K_7")], id="Prop3.3"),
    pytest.param({}, _statement("Prop3.4", L=SimpleNamespace(dim=3), q=2, center_order=2,
                                dim_derived=2),
                 [("fake", "derived dimension 2 != 1")], id="Prop3.4"),
    pytest.param({}, _statement("Prop3.4", L=SimpleNamespace(dim=3), q=2, center_order=2,
                                dim_derived=1, graph=K4),
                 [("fake", "graph not isomorphic to the F3 reference")], id="Prop3.4-figure"),
    pytest.param({}, _statement("Thm3.5", L=SimpleNamespace(dim=3), q=2, graph=K4),
                 [("fake", "graph matches none of the F1/F2/F3 references")], id="Thm3.5"),
    pytest.param({}, _statement("Thm3.7", graph=K4),
                 [("fake", "planar graph that is neither K_3 nor the octahedron")],
                 id="Thm3.7-planar"),
    # K_5 in place of the K_3 reference F4
    pytest.param({"_FIGURES": {**verifier._FIGURES, "F4": K5}}, _statement("Thm3.7", graph=K5),
                 [("fake", "reference-shaped graph reported nonplanar")], id="Thm3.7-nonplanar"),
    pytest.param({}, _statement("Thm3.8", graph=K112),
                 [("fake", "outerplanar=True but K_3-shaped=False")], id="Thm3.8"),
    pytest.param({"enumeration_instances": lambda n, q: []}, lambda: check_figures().failures,
                 [(fig, "no algebra realizes this reference graph") for fig in ("F1", "F2", "F3")],
                 id="Figures-unrealized"),
    # K_{3,3} in place of the octahedron F5
    pytest.param({"_FIGURES": {**verifier._FIGURES, "F5": figure_graph("F6")}},
                 lambda: check_figures().failures,
                 [("F3/F5", "the two octahedron drawings are not isomorphic")],
                 id="Figures-octahedra"),
    # the octahedron F3 in place of F2, which the 28 K_7 instances of Prop3.3
    # and Thm3.5 then fail to match
    pytest.param({"_FIGURES": {**verifier._FIGURES, "F2": figure_graph("F3")}}, _figure_failures,
                 ({"Prop3.3": 28, "Thm3.5": 28}, [("F2", "reference graph is not K_7")]),
                 id="Figures-K7"),
    pytest.param({}, _consequences(K3, K3, {0: 0, 1: 0, 2: 1}),
                 ([("A ~ B", "witness is not a bijection")], []), id="witness-bijection"),
    # (0, 1) is kept and (0, 2) is the first pair broken
    pytest.param({}, _consequences(PATH3, PATH3, {0: 1, 1: 0, 2: 2}),
                 ([("A ~ B", "witness breaks adjacency on (0, 2)")], []), id="witness-adjacency"),
    # K_3 is 2-regular, and 2 is a prime
    pytest.param({}, _consequences(K3, K3, IDENTITY3, _fake_algebra(2, 8), _fake_algebra(3, 8)),
                 ([("A ~ B", "prime-power degree but q 2 != 3")], []), id="iso-equal-q"),
    pytest.param({}, _consequences(K3, K3, IDENTITY3, _fake_algebra(4, 8), _fake_algebra(2, 8)),
                 ([], ["A ~ B: prime-power degree with non-prime field order; equal-q "
                       "conclusion not asserted (q=4,2)"]), id="iso-non-prime-q"),
    pytest.param({}, _consequences(K3, K3, IDENTITY3, _fake_algebra(2, 4), _fake_algebra(2, 8)),
                 ([("A ~ B", "|L1|=4 != |L2|=8")], []), id="iso-equal-order"),
    # K_13 is 12-regular, and 12 = 2^2 * 3 has no degree shape: only q = 2 decides
    pytest.param({}, _consequences(complete_graph(13), complete_graph(13),
                                   {v: v for v in range(13)}, _fake_algebra(2, 8),
                                   _fake_algebra(2, 16)),
                 ([("A ~ B", "|L1|=8 != |L2|=16")], []), id="iso-equal-order-q2"),
    pytest.param({"algebras_equivalent": lambda L1, L2: False},
                 _consequences(AFF1_F3_GRAPH, AFF1_F3_GRAPH, {v: v for v in range(8)}, AFF1_F3,
                               AFF1_F3),
                 ([("A ~ B", "degree shape p*q with |L|=9 but algebras not the 2-dimensional "
                            "non-abelian class")], []), id="iso-order-9"),
]


@pytest.mark.parametrize("patches, run, expected", FAILURE_BRANCHES)
def test_failure_branch_is_recorded(patches, run, expected, monkeypatch, fresh_memos):
    # spaces of this test's own, so a patched reference figure meets no
    # figure ids that a shared family graph kept from an earlier test
    for name, value in patches.items():
        monkeypatch.setattr(verifier, name, value)
    assert run() == expected


def test_every_statement_has_a_failure_branch():
    # a row's id is its statement's id, or that id and a dash-suffix
    assert set(STATEMENT_IDS) <= {row.id.partition("-")[0] for row in FAILURE_BRANCHES}


def test_witness_is_checked_once_per_distinct_row_pair(monkeypatch):
    # heisenberg_f4: 60 vertices in 5 twin classes of 12
    L = algebra_from_spec(load_spec(SPECS / "heisenberg_f4.json"))
    g = build_graph(L)
    witness = isomorphism(g, g)
    pairs = {(g.rows[u], g.rows[witness[u]]) for u in range(g.n)}
    calls = []
    row_bytes = Graph.row_bytes
    monkeypatch.setattr(Graph, "row_bytes", lambda self, v: calls.append(v) or row_bytes(self, v))
    assert verifier.iso_consequences("A ~ A", L, g, L, g, witness)[0] == []
    assert 0 < len(calls) <= 2 * len(pairs) < 2 * g.n


@st.composite
def witnessed_graphs(draw):
    """(g1, g2, witness): g1 a graph on 1 to 6 vertices, each blown up into 1
    to 3 twins, g2 a relabeling of it, and the witness the relabeling with
    up to three pairs of its images swapped."""
    k = draw(st.integers(1, 6))
    pairs = list(combinations(range(k), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {e for e, kept in zip(pairs, keep) if kept}
    owner = [u for u in range(k) for _ in range(draw(st.integers(1, 3)))]
    n = len(owner)
    g1 = Graph.from_edges(
        n, [(a, b) for a, b in combinations(range(n), 2) if (owner[a], owner[b]) in edges]
    )
    perm = draw(st.permutations(range(n)))
    g2 = Graph.from_edges(n, [(perm[a], perm[b]) for a, b in oracles.edges(g1)])
    witness = dict(enumerate(perm))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        witness[a], witness[b] = witness[b], witness[a]
    return g1, g2, witness


@settings(max_examples=300, deadline=None)
@given(witnessed_graphs())
def test_verify_witness_matches_pairwise_oracle_hypothesis(graphs):
    pair = oracles.first_broken_pair(*graphs)
    expected = None if pair is None else f"witness breaks adjacency on {pair}"
    assert verifier._verify_witness(*graphs) == expected


def test_undecided_graph_fails_its_statements_instead_of_raising():
    # C6 has no triangle, is not complete multipartite and has few edges, so
    # girth, planarity and outerplanarity are not read from it
    inst = Instance("c6-control", catalog_entry("heisenberg_f2").algebra())
    inst.graph = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    for sid, words in (("Prop2.5", "girth"), ("Thm3.7", "planarity"), ("Thm3.8", "outerplanarity")):
        report = check_statement(sid, [inst])
        assert report.status == "fail" and report.instances_checked == 1
        [(name, detail)] = report.failures
        assert name == "c6-control" and detail.startswith(words), detail


def test_gamma_one_iff_both_directions():
    # aff1_f2: K_3, gamma 1, and |C(x)| = 2 for every vertex
    inst = Instance("aff1_f2", catalog_entry("aff1_f2").algebra())
    assert check_statement("Thm2.18", [inst]).status == "pass"
    assert verifier._has_dominating_vertex(inst.graph)
    # heisenberg_f3: 18-regular on 24 vertices, no dominating vertex and
    # every centralizer has order 9
    inst = Instance("heisenberg_f3", catalog_entry("heisenberg_f3").algebra())
    assert not verifier._has_dominating_vertex(inst.graph)
    assert set(inst.centralizer_orders) == {9}
    assert check_statement("Thm2.18", [inst]).status == "pass"


def test_figures_are_reproduced_by_enumeration():
    report = check_figures()
    assert report.status == "pass", report.failures
    notes = set(report.notes)
    assert "F1: realized by 42 structure tensors" in notes
    assert "F2: realized by 28 structure tensors" in notes
    assert "F3: realized by 49 structure tensors" in notes


def test_figures_fail_with_the_proposition_failures(monkeypatch, fresh_memos):
    # the figure counts and failures are Prop3.2-3.4's, so an F1 reference
    # that matches nothing (K_{3,3}, on 6 vertices) fails Prop3.2, and
    # Thm3.5, on each F1 instance; on spaces of this test's own, as above
    monkeypatch.setitem(verifier._FIGURES, "F1", figure_graph("F6"))
    report = check_figures()
    assert report.status == "fail" and report.instances_checked == 119 + 2
    failed = Counter(detail.partition(":")[0] for _, detail in report.failures)
    assert failed == {"Prop3.2": 42, "Thm3.5": 42}
    assert "F1: realized by 42 structure tensors" in report.notes


def test_import_computes_no_certificate():
    # the statements match the figure graphs by ``isomorphism``, which looks
    # at nothing before it is called, so importing the package certifies
    # nothing; a fresh interpreter, so no other test has filled the cache
    env = {**os.environ, "PYTHONPATH": str(SPECS.parent / "src")}
    code = "import lie_ncg, lie_ncg.cli; print(len(lie_ncg.iso._CERT_CACHE))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "0\n"


def test_figure_graphs_basic_shapes():
    assert set(FIGURE_IDS) == {"F1", "F2", "F3", "F4", "F5", "F6", "F7"}
    assert figure_graph("F2").edge_count() == 21  # K_7
    f3 = figure_graph("F3")
    assert (f3.n, f3.edge_count()) == (6, 12)  # octahedron
    assert figure_graph("F4").n == 3  # K_3
    f6 = figure_graph("F6")
    assert (f6.n, f6.edge_count()) == (6, 9)  # K_{3,3}
    with pytest.raises(KeyError):
        figure_graph("F9")


def test_iso_theorems_self_pairs_and_notes():
    heis3 = catalog_entry("heisenberg_f3").algebra()
    aff3 = catalog_entry("aff1_f3").algebra()
    notes = []
    for L1, L2 in ((heis3, l2_f3()), (aff3, aff3)):
        g1, g2 = build_graph(L1), build_graph(L2)
        witness = isomorphism(g1, g2)
        assert witness is not None
        failures, pair_notes = verifier.iso_consequences("A ~ B", L1, g1, L2, g2, witness)
        assert failures == []
        notes += pair_notes
    # heisenberg_f3 and l2_f3 are non-isomorphic algebras with isomorphic
    # graphs and degree 18 = 2 * 3^2; only order equality is asserted there
    assert any("outside the |L|=9 case analysis" in n for n in notes)


def test_iso_theorems_vacuous_on_non_isomorphic_pair():
    g1 = build_graph(catalog_entry("aff1_f2").algebra())
    g2 = build_graph(catalog_entry("heisenberg_f2").algebra())
    assert isomorphism(g1, g2) is None


def test_explore_conjecture_dim2():
    summary = explore_conjecture(n_max=2, qs=(2,))
    assert summary["instances"] == 3
    assert summary["pairs"] == 3
    assert summary["cells"] == {
        "iso/equal": 3,
        "iso/unequal": 0,
        "non-iso/equal": 0,
        "non-iso/unequal": 0,
    }


def test_explore_conjecture_counts_match_pairwise_oracle():
    # the table mixes dimensions 2 and 3, so pairs of unequal order occur;
    # the table counts GL orbits, the oracle compares every pair of tensors
    for q, count in ((2, 122), (3, 1438)):
        summary = explore_conjecture(n_max=3, qs=(q,))
        instances = enumeration_instances(2, q) + enumeration_instances(3, q)
        assert summary["instances"] == len(instances) == count
        assert summary["pairs"] == sum(summary["cells"].values())
        assert summary["cells"] == oracles.conjecture_cells_by_pairs(instances)
