"""Non-commuting graph construction."""

import ast
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from lie_ncg import ncg, verifier
from lie_ncg.errors import AbelianAlgebra, CapExceeded, LieNcgError
from lie_ncg.gf import field_new
from lie_ncg.graphs import (
    Graph,
    connectivity,
    diameter,
    girth,
    hamiltonian_cycle,
    is_complete,
    is_complete_bipartite,
    is_eulerian,
    is_hamiltonian,
    is_outerplanar,
    is_planar,
    is_regular,
    property_report,
)
from lie_ncg.io import load_spec, parse_spec_dict
from lie_ncg.enumeration import _c12_solutions
from lie_ncg.liealg import LieAlgebra, algebra_from_spec
from lie_ncg.linalg import VectorSpace, bits, vector_space
from lie_ncg.ncg import FACTS_BYTES, GRAPH_MEMO_BYTES, NcGraph, build_graph
from lie_ncg.verifier import catalog_instances, check_all_statements, enumeration_instances

import oracles
from oracles import catalog_entry, has_edge

SPECS = Path(__file__).resolve().parent.parent / "specs"
SRC = Path(__file__).resolve().parent.parent / "src" / "lie_ncg"


def graph_of(name):
    return build_graph(catalog_entry(name).algebra())


def test_aff1_f2_is_a_triangle():
    g = graph_of("aff1_f2")
    assert g.n == 3
    assert g.edge_count() == 3
    assert sorted(g.labels) == ["x", "x+y", "y"]
    assert g.vertices == ((1, 0), (0, 1), (1, 1))


def test_vertices_exclude_center_in_index_order():
    g = graph_of("heisenberg_f2")
    assert g.n == 6
    assert (0, 0, 1) not in g.vertices  # central element skipped
    # little-endian base-2 index of each vertex
    indices = [sum(c << i for i, c in enumerate(v)) for v in g.vertices]
    assert indices == sorted(indices)
    assert g.indices == tuple(indices) == (1, 2, 3, 5, 6, 7)


def test_heisenberg_f2_is_octahedron():
    g = graph_of("heisenberg_f2")
    assert g.edge_count() == 12
    assert g.degrees == (4,) * 6
    assert connectivity(g) == (True, 2)
    assert girth(g) == 3
    assert is_planar(g)
    # non-adjacency pairs each vertex with its translate by the center
    f2 = oracles.arithmetic(2)
    for a in range(g.n):
        non = [b for b in range(g.n) if b != a and not has_edge(g, a, b)]
        assert len(non) == 1
        u, v = g.vertices[a], g.vertices[non[0]]
        assert tuple(f2.sub(x, y) for x, y in zip(u, v)) == (0, 0, 1)


def test_heisenberg_f3_is_18_regular_on_24_vertices():
    g = graph_of("heisenberg_f3")
    assert g.n == 24
    assert is_regular(g) and g.degrees[0] == 18
    assert connectivity(g) == (True, 2)


def test_adjacency_matches_bracket_definition():
    for name in ["aff1_f3", "l2_f2", "cross_product_f2", "split_pairs_f2"]:
        L = catalog_entry(name).algebra()
        g = build_graph(L)
        zero = (0,) * L.dim
        for a in range(g.n):
            for b in range(a + 1, g.n):
                assert has_edge(g, a, b) == (L._bracket(g.vertices[a], g.vertices[b]) != zero)


def test_build_graph_matches_bracket_oracle():
    """Rows from centralizers equal rows from pairwise brackets, so Lem2.2
    (deg = |L| - |C(x)|) is not checked against its own construction."""
    algebras = [inst.L for inst in oracles.pool_instances()]
    assert len(algebras) == 1569
    algebras.extend(algebra_from_spec(load_spec(path)) for path in sorted(SPECS.glob("*.json")))
    # F_3^2 on e0, e1 and [x, y] = z on e2, e3, e4: the center, spanned by
    # e0, e1 and e4, has indices in three runs of 9, so the runs of vertices
    # between them move down by different numbers of central bits
    scattered = LieAlgebra(field_new(3), 5, {(2, 3): (0, 0, 0, 0, 1)}, basis_names="abxyz")
    center = sorted(
        sum(c * 3**i for i, c in enumerate(z)) for z in oracles.brute_center(scattered)
    )
    assert center == [r + 81 * k for k in range(3) for r in range(9)]
    heisenberg_f5 = LieAlgebra(field_new(5), 3, {(0, 1): (0, 0, 1)}, basis_names="xyz")
    algebras += [scattered, heisenberg_f5]
    for L in algebras:
        g, want = build_graph(L), oracles.graph_by_brackets(L)
        assert (g.rows, g.vertices, g.labels) == (want.rows, want.vertices, want.labels), L
    assert g.n == 120


@pytest.mark.parametrize(
    "name, lines", [("heisenberg_f4", (64 - 4) // 3), ("heisenberg_f5", (125 - 5) // 4),
                    ("aff1_f4", (16 - 1) // 3)],
)
def test_one_solve_per_line_outside_the_center(monkeypatch, name, lines):
    # C(cx) = C(x), so the rows of a line {cx : c != 0} come from one solve
    calls = []
    solutions = VectorSpace.solutions
    monkeypatch.setattr(
        VectorSpace, "solutions", lambda V, rows: calls.append(rows) or solutions(V, rows)
    )
    L = algebra_from_spec(load_spec(SPECS / f"{name}.json"))
    L.center_mask
    calls.clear()
    g, want = build_graph(L), oracles.graph_by_brackets(L)
    assert len(calls) == lines
    assert (g.rows, g.vertices) == (want.rows, want.vertices)


@st.composite
def lie_tensors(draw, qs):
    """A random Lie structure of dim 2 or 3 over F_q, q drawn from ``qs``;
    in dim 3, c_12 is drawn from the solutions of the Jacobi identity."""
    f = field_new(draw(st.sampled_from(qs)))
    dim = draw(st.integers(2, 3))
    vector = st.tuples(*[st.integers(0, f.q - 1)] * dim)
    c01 = draw(vector)
    if dim == 2:
        return LieAlgebra(f, 2, {(0, 1): c01})
    c02 = draw(vector)
    solutions = _c12_solutions(f, c01, c02)
    assume(solutions)
    return LieAlgebra(f, 3, {(0, 1): c01, (0, 2): c02, (1, 2): draw(st.sampled_from(solutions))})


@settings(max_examples=25, deadline=None)
@given(lie_tensors([4, 8, 9]))
def test_build_graph_matches_bracket_oracle_over_extension_fields(L):
    assume(not L.is_abelian())
    g, want = build_graph(L), oracles.graph_by_brackets(L)
    assert (g.rows, g.vertices) == (want.rows, want.vertices)


def _random_basis(draw, L):
    """L rewritten by ``oracles.transform_by_methods`` in a drawn basis."""
    f, n = L.field, L.dim
    g = draw(
        st.lists(st.sampled_from(range(f.q)), min_size=n * n, max_size=n * n)
        .map(lambda e: tuple(tuple(e[i * n:(i + 1) * n]) for i in range(n)))
        .filter(lambda m: oracles.mat_inv(f, m) is not None)
    )
    return LieAlgebra(f, n, oracles.transform_by_methods(L, g, oracles.mat_inv(f, g)))


# the facts graphs.fact keeps per centralizer family, the verifier's among them
SHARED_FACTS = (
    connectivity, diameter, girth, is_complete, is_complete_bipartite, is_eulerian,
    is_hamiltonian, is_outerplanar, is_planar, verifier._figures,
    verifier._has_dominating_vertex, verifier._is_tree,
)


def _outcome(fact, g):
    """The value of ``fact`` on g, or the type and text of the error it
    raises."""
    try:
        return fact(g)
    except LieNcgError as exc:
        return type(exc), str(exc)


# without a shrink phase: a failing example is reported as drawn, since
# each shrink step reruns the bracket oracle on shapes up to F_9^3
@settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(lie_tensors([2, 3, 4, 5, 7, 8, 9]), st.data())
def test_graph_memo_is_exact(L, data):
    # L in random bases, two, or four where q^dim <= 27 and the oracle is
    # cheap, each built on the space's memo, then again from a copy and
    # from a copy with other basis names: every build is the graph from
    # brackets, and each copy shares the rows and the facts but has its own
    # algebra and labels.  The memo is kept across examples, so a key that
    # leaves out what tells two labeled graphs apart, from this example or
    # an earlier one, shows as a shared family whose rows or facts differ
    # from the brackets.  Each graph reads the shared facts in an order of
    # its own, and each must equal the fact of a fresh Graph on the
    # oracle's rows; two bases share a facts dict only with their rows.
    assume(not L.is_abelian())
    memo = L.space.graphs
    before = len(memo)
    pairs, facts = [], []
    for _ in range(4 if L.order <= 27 else 2):
        M = _random_basis(data.draw, L)
        want = oracles.graph_by_brackets(M)
        fresh = Graph(want.n, want.rows)
        algebras = (M, LieAlgebra(M.field, M.dim, M.structure),
                    LieAlgebra(M.field, M.dim, M.structure, basis_names="xyz"[:M.dim]))
        graphs = [build_graph(N) for N in algebras]
        for N, g in zip(algebras, graphs):
            assert g.algebra is N
            assert (g.rows, g.vertices) == (want.rows, want.vertices)
            for fact in data.draw(st.permutations(SHARED_FACTS)):
                assert _outcome(fact, g) == _outcome(fact, fresh), fact.__name__
            assert g.labels == tuple(N.element_label(v) for v in want.vertices)
        first, copy, renamed = graphs
        assert copy.rows is first.rows and renamed.rows is first.rows
        assert copy.facts is first.facts and renamed.facts is first.facts
        # the facts hold values alone: no algebra, vertex or label
        assert {type(v) for v in first.facts.values()} <= {bool, int, float, tuple, frozenset}
        assert renamed.labels != first.labels
        pairs.append((first.indices, first.rows))
        facts.append(first.facts)
    assert len(memo) - before <= len(set(pairs)) == len(set(map(id, facts)))


def test_pool_builds_one_graph_per_labeled_graph(monkeypatch):
    # the 1569 algebras of the criterion-1 pool have 47 labeled graphs; from
    # empty memos each is built once, and every other algebra shares its family
    algebras = [inst.L for inst in oracles.pool_instances()]
    assert len(algebras) == 1569
    for V in {id(L.space): L.space for L in algebras}.values():
        monkeypatch.setattr(V, "graphs", {})
    built = []
    init = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda g, n, rows: built.append(n) or init(g, n, rows))
    graphs = [build_graph(L) for L in algebras]
    assert all(g.algebra is L for L, g in zip(algebras, graphs))
    distinct = {(id(L.space), g.indices, g.rows) for L, g in zip(algebras, graphs)}
    assert len(built) == len(distinct) == 47


def test_memo_hit_lays_out_no_vertex(monkeypatch, fresh_memos):
    # the centralizer masks alone are the key, looked up first: an algebra
    # of a known family reads neither Z's bits nor any vertex
    L = algebra_from_spec(load_spec(SPECS / "heisenberg_f3.json"))
    renamed = LieAlgebra(L.field, L.dim, L.structure, basis_names=("a", "b", "c"))
    read = []
    monkeypatch.setattr(ncg, "bits", lambda mask: read.append(mask) or bits(mask))
    first = build_graph(L)
    assert read == [L.center_mask]
    read.clear()
    g = build_graph(renamed)
    assert read == []
    assert (g.rows, g.indices, g.algebra) == (first.rows, first.indices, renamed)
    assert g.labels != first.labels


def test_every_graph_is_made_from_its_familys_graph(monkeypatch, fresh_memos):
    # from empty memos, the 1569 algebras of the criterion-1 pool build 47
    # bare family Graphs, which the memo keeps, and every NcGraph, on a hit
    # or a miss, is made from one by NcGraph.__init__ and shares its rows
    # and facts dict
    algebras = [inst.L for inst in oracles.pool_instances()]
    made, built = [], []
    init, graph_init = NcGraph.__init__, Graph.__init__
    monkeypatch.setattr(NcGraph, "__init__", lambda g, *args: made.append(g) or init(g, *args))
    monkeypatch.setattr(Graph, "__init__",
                        lambda g, n, rows: built.append(g) or graph_init(g, n, rows))
    graphs = [build_graph(L) for L in algebras]
    assert len(made) == 1569 and len(built) == 47
    spaces = {id(L.space): L.space for L in algebras}
    families = {(key, graph.rows): graph
                for key, V in spaces.items() for graph, _ in V.graphs.values()}
    assert {id(graph) for graph in families.values()} == set(map(id, built))
    for L, g in zip(algebras, graphs):
        family = families[id(L.space), g.rows]
        assert g.rows is family.rows and g.facts is family.facts


def test_pool_computes_each_fact_once_per_family(monkeypatch):
    # from empty memos, every statement over the 1569 algebras of the
    # criterion-1 pool reads the shared facts off 47 centralizer families:
    # each fact's body runs 47 times, not once per algebra, and each
    # family's facts are those of a fresh Graph on its rows
    instances = oracles.pool_instances()
    for V in {id(inst.L.space): inst.L.space for inst in instances}.values():
        monkeypatch.setattr(V, "graphs", {})
    names = {fact.__wrapped__.__code__: fact.__name__ for fact in SHARED_FACTS}
    runs = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            runs[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        reports = check_all_statements(instances)
    finally:
        sys.setprofile(None)
    assert all(report.status == "pass" for report in reports)
    assert runs == {fact.__name__: 47 for fact in SHARED_FACTS}
    families = {id(inst.graph.facts): inst.graph for inst in instances}
    assert len(families) == 47
    for g in families.values():
        fresh = Graph(g.n, g.rows)
        assert g.facts == {fact.__name__: fact(fresh) for fact in SHARED_FACTS}


def _heisenberg_plus_abelian_f2(dim):
    """The spec [e0, e1] = e2 over F_2 with dim - 3 abelian summands."""
    spec = {"q": 2, "dim": dim, "basis": [f"e{i}" for i in range(dim)],
            "brackets": [{"left": "e0", "right": "e1", "value": {"e2": 1}}]}
    return algebra_from_spec(parse_spec_dict(spec))


def test_build_graph_is_bounded_by_the_element_cap():
    # 12 dims over F_2: 3072 vertices and q^dim = 4096, the default cap; a scan
    # of every centralizer element did not finish in 100 s
    L = _heisenberg_plus_abelian_f2(12)
    start = time.perf_counter()
    g = build_graph(L)
    assert time.perf_counter() - start < 2
    assert g.n == 3072 and g.degrees[0] == 2048
    L = _heisenberg_plus_abelian_f2(9)
    g, want = build_graph(L), oracles.graph_by_brackets(L)
    assert (g.rows, g.vertices, g.labels) == (want.rows, want.vertices, want.labels)


def _aff1_sum_f2(perm=tuple(range(12))):
    """aff1 summed 6 times over F_2: [x_i, y_i] = y_i, dim 12, trivial
    center, and 4095 vertices with 4095 different centralizers; x_i and y_i
    are basis vectors perm[2i] and perm[2i + 1]."""
    structure = {}
    for i in range(6):
        value = [0] * 12
        value[perm[2 * i + 1]] = 1  # [y_i, x_i] = -y_i = y_i over F_2
        structure[tuple(sorted(perm[2 * i:2 * i + 2]))] = tuple(value)
    return LieAlgebra(field_new(2), 12, structure)


def test_build_graph_at_the_element_cap_with_every_row_distinct():
    L = _aff1_sum_f2()
    start = time.perf_counter()
    g = build_graph(L)
    assert time.perf_counter() - start < 0.5
    assert g.n == 4095 and len(set(g.rows)) == 4095
    degrees = g.degrees
    for i in random.Random(2024).sample(range(g.n), 50):
        assert degrees[i] == L.order - L.centralizer_order(g.indices[i])


def test_property_report_at_the_element_cap_with_every_row_distinct():
    # 4095 twin classes and no multipartite shape: the diameter is read from
    # one row AND per non-adjacent pair
    g = build_graph(_aff1_sum_f2())
    start = time.perf_counter()
    rep = property_report(g)
    assert time.perf_counter() - start < 3
    assert (rep["vertex_count"], rep["is_connected"], rep["diameter"]) == (4095, True, 2)


def test_hamiltonian_cycle_at_the_element_cap():
    # 4095 vertices, every row distinct: Palmer's rotation needs no cap
    g = build_graph(_aff1_sum_f2())
    start = time.perf_counter()
    cyc = hamiltonian_cycle(g)
    assert time.perf_counter() - start < 2
    assert oracles.is_hamilton_cycle(g, cyc)


def _held_bytes(memo):
    """The bytes of every distinct object the memo reaches, by
    ``sys.getsizeof``."""
    seen, stack, total = set(), [memo], 0
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            if isinstance(obj, Graph):
                stack.append(vars(obj))
            elif isinstance(obj, dict):
                stack += [*obj.keys(), *obj.values()]
            elif isinstance(obj, (tuple, list)):
                stack += obj
    return total


def test_graph_memo_stays_within_its_bound(monkeypatch):
    # aff1^6 over F_2 at the element cap in five bases: five labeled graphs,
    # each family charged 6.3 MB of the space's 16 MB, so the space keeps two,
    # which hold every shared fact when the bound is measured
    V = _aff1_sum_f2().space
    monkeypatch.setattr(V, "graphs", {})
    rng = random.Random(44)
    perms = [list(range(12))] + [rng.sample(range(12), 12) for _ in range(4)]
    graphs = [build_graph(_aff1_sum_f2(perm)) for perm in perms]
    assert len({g.rows for g in graphs}) == 5
    assert len(V.graphs) == 2
    for g in graphs[:2]:  # the two kept, the first built
        for fact in SHARED_FACTS:
            fact(g)
    assert all(len(graph.facts) == len(SHARED_FACTS) for graph, _ in V.graphs.values())
    assert _held_bytes(V.graphs) <= GRAPH_MEMO_BYTES
    again = build_graph(_aff1_sum_f2(perms[1]))
    assert again.rows is graphs[1].rows and again.n == 4095


def test_facts_bytes_bounds_every_family_facts_dict(fresh_memos):
    # every graphs.fact of the package is one of SHARED_FACTS, and once all
    # of them are read, each of the pool's 47 family facts dicts holds at
    # most the FACTS_BYTES that the memo's charge counts for it
    decorated = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                getattr(d, "id", None) == "fact" or getattr(d, "attr", None) == "fact"
                for d in node.decorator_list
            ):
                decorated.add((f"lie_ncg.{path.stem}", node.name))
    assert decorated == {(fact.__module__, fact.__name__) for fact in SHARED_FACTS}
    families = {}
    for inst in oracles.pool_instances():
        families.setdefault(id(inst.graph.facts), inst.graph)
    assert len(families) == 47
    for g in families.values():
        for fact in SHARED_FACTS:
            fact(g)
        assert len(g.facts) == len(SHARED_FACTS)
        assert _held_bytes(g.facts) <= FACTS_BYTES


def test_abelian_algebra_rejected():
    L = LieAlgebra(field_new(2), 2, {})
    with pytest.raises(AbelianAlgebra):
        build_graph(L)


def test_cap_respected(monkeypatch):
    L = catalog_entry("heisenberg_f3").algebra()
    monkeypatch.setenv("LIE_NCG_CAP", "8")
    with pytest.raises(CapExceeded):
        build_graph(L)
    monkeypatch.setenv("LIE_NCG_CAP", "27")
    assert build_graph(L).n == 24
    # refused before the 2^18-element center is listed, which takes seconds,
    # and before the index tables of F_2^20 are built; so are the derived
    # algebra, the lower central series and a centralizer order
    big = LieAlgebra(field_new(2), 20, {(0, 1): (0, 0, 1) + (0,) * 17}, validate=False)
    built = vector_space.cache_info().currsize
    calls = (
        build_graph,
        LieAlgebra.center,
        LieAlgebra.derived_subalgebra,
        LieAlgebra.is_nilpotent,
        lambda L: L.centralizer_order(1),
    )
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            call(big)
        assert time.perf_counter() - start < 1
    assert vector_space.cache_info().currsize == built


def test_labels_are_rendered_on_first_read(monkeypatch):
    # verify reads a label only to word a Lem2.2 failure, so building the
    # graphs and running every check on passing instances renders none
    calls = []
    render = LieAlgebra.element_label

    def counted(self, vec):
        calls.append(vec)
        return render(self, vec)

    monkeypatch.setattr(LieAlgebra, "element_label", counted)
    instances = catalog_instances() + enumeration_instances(2, 3)
    reports = check_all_statements(instances)
    assert not any(report.failures for report in reports)
    assert all(inst.graph.n for inst in instances) and calls == []
    g = instances[0].graph
    assert g.labels == tuple(render(g.algebra, v) for v in g.vertices)
    assert len(calls) == g.n
