"""Isomorphism testing and canonical certificates."""

import random
import time
from functools import cache
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from lie_ncg import iso
from lie_ncg.errors import CapExceeded
from lie_ncg.gf import field_new
from lie_ncg.graphs import Graph
from lie_ncg.iso import canonical_certificate, isomorphism, refine_colors
from lie_ncg.liealg import LieAlgebra
from lie_ncg.ncg import build_graph

import oracles
from oracles import catalog_entry, complete_graph, complete_multipartite, cycle, has_edge, petersen


def cube():
    return Graph.from_edges(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b])


def c12():
    return cycle(12)


def three_k4():
    return Graph.from_edges(
        12, [(4 * k + a, 4 * k + b) for k in range(3) for a, b in combinations(range(4), 2)]
    )


def disjoint_cycles(k, m):
    return Graph.from_edges(
        k * m, [(m * c + i, m * c + (i + 1) % m) for c in range(k) for i in range(m)]
    )


def rook_4x4():
    return Graph.from_edges(
        16, [(a, b) for a, b in combinations(range(16), 2) if a // 4 == b // 4 or a % 4 == b % 4]
    )


def shrikhande():
    # Z_4 x Z_4, (a, b) ~ (c, d) when the difference is +-(0, 1), +-(1, 0) or +-(1, 1)
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return Graph.from_edges(
        16,
        [(a, b) for a, b in combinations(range(16), 2)
         if ((a // 4 - b // 4) % 4, (a % 4 - b % 4) % 4) in steps],
    )


def k4_and_cube():
    return Graph.from_edges(
        12, list(combinations(range(4), 2)) + [(4 + u, 4 + v) for u, v in oracles.edges(cube())]
    )


def circulant_13_1_5():
    # 4-regular: i ~ i +- 1 and i ~ i +- 5 mod 13
    return Graph.from_edges(13, [(i, (i + s) % 13) for i in range(13) for s in (1, 5)])


def aff1_cubed():
    # aff1 summed 3 times over F_2, [x_i, y_i] = y_i: 63 vertices, every row distinct
    return build_graph(LieAlgebra(field_new(2), 6, {
        (0, 1): (0, 1, 0, 0, 0, 0), (2, 3): (0, 0, 0, 1, 0, 0), (4, 5): (0, 0, 0, 0, 0, 1)}))


class CountingGraph(Graph):
    """A graph that counts the reads of its neighbour lists.  refine_colors
    reads them once per signature round, and such a round reads one row per
    vertex, so the rows read are n times the reads."""

    reads = 0

    @property
    def neighbours(self):
        self.reads += 1
        return super().neighbours


@cache
def pool_graphs():
    """The distinct labeled graphs of the catalog and of every enumerated
    non-abelian algebra with dim <= 3 and q in {2, 3}."""
    distinct = {}
    for inst in oracles.pool_instances():
        distinct.setdefault(inst.graph.rows, (inst.name, inst.graph))
    return list(distinct.values())


def random_cubic(n, rng):
    """A random 3-regular graph on n vertices, by the pairing model."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) == len(stubs) // 2:
            return sorted(edges)


def relabel(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in oracles.edges(g)])


def check_witness(g1, g2, witness):
    assert sorted(witness) == list(range(g1.n))
    assert sorted(witness.values()) == list(range(g2.n))
    for u in range(g1.n):
        for v in range(u + 1, g1.n):
            assert has_edge(g1, u, v) == has_edge(g2, witness[u], witness[v])


def test_refine_colors_splits_degree_classes():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # path: ends vs middle
    colors = refine_colors(g)
    assert colors[0] == colors[3]
    assert colors[1] == colors[2]
    assert colors[0] != colors[1]
    # vertex-transitive graph stays monochromatic
    assert len(set(refine_colors(cycle(6)))) == 1


@st.composite
def random_graphs(draw):
    """A random graph on 0 to 16 vertices."""
    n = draw(st.integers(0, 16))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def graphs_and_colourings(draw):
    """A random graph on 0 to 16 vertices and a colouring of it: none, a
    uniform one of another value than 0, arbitrary integers, a discrete one,
    or a stable one with a vertex individualized as the search does."""
    g = draw(random_graphs())
    n = g.n
    kind = draw(st.sampled_from(["none", "uniform", "arbitrary", "discrete", "individualized"]))
    if kind == "uniform":
        return g, [draw(st.integers(1, 9))] * n
    if kind == "arbitrary":
        return g, draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    if kind == "discrete":
        return g, [3 * c + 1 for c in draw(st.permutations(range(n)))]
    if kind == "individualized" and n:
        v = draw(st.integers(0, n - 1))
        return g, [2 * c + (u == v) for u, c in enumerate(oracles.reference_refine_colors(g))]
    return g, None


@settings(max_examples=300, deadline=None)
@given(graphs_and_colourings())
def test_refine_colors_matches_the_fixpoint_loop_hypothesis(case):
    # stopping at the first round that splits no class returns, list for
    # list, what rounds run until one changes nothing return
    g, colors = case
    assert refine_colors(g, colors) == oracles.reference_refine_colors(g, colors)


def test_isomorphic_relabelings():
    rng = random.Random(7)
    for g in [cycle(7), petersen(), complete_graph(5), complete_multipartite(2, 3)]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        check_witness(g, h, isomorphism(g, h))
        assert canonical_certificate(g) == canonical_certificate(h)
    # on one of these two labelings the search's first complete ordering does
    # not have the minimal code, so a labeling kept from the wrong leaf shows
    g = Graph(8, [134, 21, 163, 224, 98, 92, 56, 13])
    h = relabel(g, [7, 5, 1, 3, 0, 2, 6, 4])
    assert canonical_certificate(g) == canonical_certificate(h)
    check_witness(g, h, isomorphism(g, h))


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_pool_relabelings_keep_certificate_hypothesis(rng):
    # 47 graphs, among them the non-multipartite split_pairs_f2, the 26-vertex
    # graphs over F_3 and the 60-vertex heisenberg_f4
    graphs = pool_graphs()
    assert len(graphs) == 47
    for name, g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_certificate(h) == canonical_certificate(g), name
        witness = isomorphism(g, h)
        assert witness is not None, name
        check_witness(g, h, witness)


@pytest.mark.parametrize("make", [petersen, cube, c12, three_k4])
def test_high_symmetry_graphs_are_fast(make, fresh_memos):
    # vertex-transitive and not complete multipartite, so every labeling goes
    # through the search; without automorphism pruning 3K_4 takes over 20 s
    g = make()
    assert g.multipartite_parts is None
    rng = random.Random(11)
    cert = canonical_certificate(g)
    for _ in range(10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        start = time.perf_counter()
        assert canonical_certificate(h) == cert
        assert time.perf_counter() - start < 0.5
        start = time.perf_counter()
        check_witness(g, h, isomorphism(g, h))
        assert time.perf_counter() - start < 0.5


def test_labeling_matches_exhaustive_search():
    # the pruned search must end on the same leaf as the unpruned one, so
    # certificates and labelings do not change; K_4 plus a random cubic graph
    # has automorphisms deep in the search, where unwinding too far loses
    # the minimal leaf; on the symmetric and the random graphs the colouring
    # turns discrete above the leaves, so the search finishes those leaves
    # without refining
    rng = random.Random(2014)
    pairs = list(combinations(range(5), 2))
    graphs = [
        Graph.from_edges(5, [pairs[i] for i in range(10) if mask >> i & 1]) for mask in range(1024)
    ]
    for _ in range(10):
        edges = random_cubic(4, rng) + [(4 + u, 4 + v) for u, v in random_cubic(8, rng)]
        perm = list(range(12))
        rng.shuffle(perm)
        graphs.append(relabel(Graph.from_edges(12, edges), perm))
    split_pairs = build_graph(catalog_entry("split_pairs_f2").algebra())
    # the exhaustive search meets all 82,944 automorphisms of 3K_4, so it
    # gets one relabeling
    for g, count in [(split_pairs, 3), (petersen(), 3), (cube(), 3), (c12(), 3), (three_k4(), 1)]:
        for _ in range(count):
            graphs.append(relabel(g, rng.sample(range(g.n), g.n)))
    for _ in range(200):
        n, p = rng.randint(6, 10), rng.uniform(0.3, 0.7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        graphs.append(Graph.from_edges(n, edges))
    for g in graphs:
        code, order = iso._search_order(g)
        assert order == oracles.exhaustive_canonical_order(g), g.rows
        # the search's own code is the certificate body _canonical joins
        certificate = f"G{g.n}:{','.join(map(str, code))}".encode()
        assert certificate == oracles.certificate_by_rows(g, order), g.rows


def test_node_budget(monkeypatch, fresh_memos):
    g = build_graph(catalog_entry("split_pairs_f2").algebra())
    monkeypatch.setattr(iso, "ISO_ROW_BUDGET", 10)
    with pytest.raises(CapExceeded):
        canonical_certificate(g)


def test_row_budget_boundary(monkeypatch):
    # the least budget that lets the search finish: each level is charged n
    # rows per colour class it gains over its parent's colouring, and at
    # least n, also a level below a discrete colouring, which is not refined
    g = build_graph(catalog_entry("split_pairs_f2").algebra())
    rng = random.Random(3)
    graphs = [g] + [relabel(g, rng.sample(range(g.n), g.n)) for _ in range(2)]
    for h, least in zip(graphs, (1890, 1890, 1530)):
        monkeypatch.setattr(iso, "ISO_ROW_BUDGET", least - 1)
        with pytest.raises(CapExceeded):
            iso._search_order(h)
        monkeypatch.setattr(iso, "ISO_ROW_BUDGET", least)
        assert iso._search_order(h)[1] == oracles.exhaustive_canonical_order(h)


def test_search_charges_pin_the_orbit_pruning(monkeypatch):
    # with the automorphism-orbit skip disabled these searches charge 130,410,
    # 3,285 and 4,680 rows, and with the orbits first computed only once the
    # search holds two automorphisms, C13(1, 5) is charged 1,131; both label
    # every graph alike, so only the charge shows orbits merged late or not
    # at all
    aff1_3 = aff1_cubed()
    assert (aff1_3.n, len(aff1_3.twin_classes), aff1_3.multipartite_parts) == (63, 63, None)
    split_pairs = build_graph(catalog_entry("split_pairs_f2").algebra())
    for g, least in [(aff1_3, 58_527), (split_pairs, 1_890), (circulant_13_1_5(), 871)]:
        monkeypatch.setattr(iso, "ISO_ROW_BUDGET", least - 1)
        with pytest.raises(CapExceeded):
            iso._search_order(g)
        monkeypatch.setattr(iso, "ISO_ROW_BUDGET", least)
        iso._search_order(g)


def assert_charge_covers_the_rows_read(g):
    counted = CountingGraph(g.n, g.rows)
    iso._search_order(counted)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iso, "ISO_ROW_BUDGET", counted.n * counted.reads - 1)
        with pytest.raises(CapExceeded):
            iso._search_order(counted)


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_charge_covers_the_rows_read_hypothesis(g):
    # a level gaining k' - k classes runs at most max(k' - k, 1) signature
    # rounds, so a search is charged at least the rows its refinements read
    assume(g.multipartite_parts is None)
    assert_charge_covers_the_rows_read(g)


def test_charge_covers_the_rows_read_on_pinned_graphs():
    split_pairs = build_graph(catalog_entry("split_pairs_f2").algebra())
    rng = random.Random(3)
    graphs = [split_pairs, aff1_cubed(), circulant_13_1_5(), petersen(), cube(), c12(), three_k4()]
    graphs += [relabel(split_pairs, rng.sample(range(split_pairs.n), split_pairs.n)) for _ in range(2)]
    for g in graphs:
        assert_charge_covers_the_rows_read(g)


def test_witness_is_the_full_searchs_labeling(fresh_memos):
    # g2's search stops at the first leaf matching g1's code, which is the
    # leaf the full search keeps, so the witness composes the same labelings
    rng = random.Random(17)
    split_pairs = build_graph(catalog_entry("split_pairs_f2").algebra())
    for g in (split_pairs, petersen(), cube(), c12(), three_k4()):
        fresh_memos()
        for _ in range(5):
            h = relabel(g, rng.sample(range(g.n), g.n))
            witness = isomorphism(g, h)
            assert witness == dict(zip(iso._canonical(g)[1], iso._search_order(h)[1]))
            check_witness(g, h, witness)


def test_isomorphism_budget_boundary_moves_outward(monkeypatch, fresh_memos):
    # with g's certificate cached, h's search stops at its first leaf
    # matching g's code, so isomorphism answers at a budget where the full
    # search of h is refused
    g = build_graph(catalog_entry("split_pairs_f2").algebra())
    rng = random.Random(3)
    relabelings = [relabel(g, rng.sample(range(g.n), g.n)) for _ in range(2)]
    wants = [dict(zip(iso._canonical(g)[1], iso._search_order(h)[1])) for h in relabelings]
    for h, least, want in zip(relabelings, (1890, 1530), wants):
        monkeypatch.setattr(iso, "ISO_ROW_BUDGET", least - 1)
        with pytest.raises(CapExceeded):
            iso._search_order(h)
        assert isomorphism(g, h) == want


@pytest.mark.parametrize(
    "g",
    [
        complete_multipartite(1, 2, 3),
        complete_multipartite(3, 3),
        complete_graph(5),
        Graph(4, [0] * 4),
        Graph(0, []),
    ],
    ids=["K_1,2,3", "K_3,3", "K_5", "empty_4", "empty_0"],
)
def test_multipartite_certificate_matches_row_code(g, fresh_memos):
    assert g.multipartite_parts is not None
    h = relabel(g, random.Random(g.n).sample(range(g.n), g.n))
    codes = []
    for graph in (g, h):
        # the parts are the cliques of the complement; the certificate lists
        # their sizes ascending, and the labeling takes the parts by (size,
        # least vertex)
        parts = sorted(oracles.multipartite_parts_by_complement(graph), key=lambda p: (len(p), p[0]))
        sizes = ",".join(str(len(part)) for part in parts)
        assert canonical_certificate(graph) == f"K{graph.n}:{sizes}".encode()
        order = iso._canonical(graph)[1]
        assert order == [v for part in parts for v in part]
        codes.append(oracles.certificate_by_rows(graph, order))
    # the labeling is canonical: it codes the graph and its relabeling alike
    assert codes[0] == codes[1]


def test_multipartite_certificate_needs_no_row_code():
    # K_{m,m} with m = 14,500: coded by rows, its second part would need
    # 4,365 decimal digits, past the interpreter's int-string limit
    m = 14_500
    first, second = (1 << m) - 1, ((1 << m) - 1) << m
    g = Graph(2 * m, [second] * m + [first] * m)
    assert canonical_certificate(g) == b"K29000:14500,14500"


def test_non_isomorphic_same_degree_sequence():
    # C6 versus two disjoint triangles: both 2-regular on 6 vertices
    tri2 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert isomorphism(cycle(6), tri2) is None
    assert canonical_certificate(cycle(6)) != canonical_certificate(tri2)
    # Petersen versus the 5-prism: both 3-regular on 10 vertices
    prism = Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )
    assert isomorphism(petersen(), prism) is None
    assert canonical_certificate(petersen()) != canonical_certificate(prism)
    # Petersen versus the Moebius ladder on 10 vertices, with networkx as the oracle
    ladder = Graph.from_edges(
        10, [(i, (i + 1) % 10) for i in range(10)] + [(i, i + 5) for i in range(5)]
    )
    assert not nx.is_isomorphic(oracles.to_networkx(petersen()), oracles.to_networkx(ladder))
    assert isomorphism(petersen(), ladder) is None
    assert canonical_certificate(petersen()) != canonical_certificate(ladder)
    # K_{3,3} versus the triangular prism: both 3-regular on 6 vertices, and
    # only K_{3,3} is complete multipartite
    tri_prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    assert isomorphism(complete_multipartite(3, 3), tri_prism) is None
    assert canonical_certificate(complete_multipartite(3, 3)) != canonical_certificate(tri_prism)


@pytest.mark.parametrize(
    "g1, g2",
    [(rook_4x4(), shrikhande()), (three_k4(), k4_and_cube())]
    + [(disjoint_cycles(2 * k, 3), disjoint_cycles(k, 6)) for k in (2, 4, 8)],
    ids=["rook_shrikhande", "3K4_K4+Q3", "4C3_2C6", "8C3_4C6", "16C3_8C6"],
)
def test_non_isomorphic_pairs_that_both_need_the_search(g1, g2, fresh_memos):
    # equal degree sequences and neither complete multipartite, so the search
    # of the second graph runs with the first graph's code as its target;
    # networkx is the oracle, and no search may hit its cap
    assert sorted(g1.degrees) == sorted(g2.degrees)
    assert g1.multipartite_parts is None and g2.multipartite_parts is None
    assert not nx.is_isomorphic(oracles.to_networkx(g1), oracles.to_networkx(g2))
    for a, b in ((g1, g2), (g2, g1)):
        fresh_memos()
        assert isomorphism(a, b) is None
        # b's entry is its full search's result, also where a's code stopped
        # that search below it
        code, order = iso._search_order(b)
        assert iso._canonical(b) == (f"G{b.n}:{','.join(map(str, code))}".encode(), order, code)


def test_size_mismatches_rejected_quickly():
    assert isomorphism(cycle(5), cycle(6)) is None
    assert isomorphism(cycle(6), complete_graph(6)) is None
    g = Graph.from_edges(4, [(0, 1)])
    h = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert isomorphism(g, h) is None


def test_certificate_is_reconstructible_and_stable():
    g = petersen()
    cert = canonical_certificate(g)
    assert cert.startswith(b"G10:")
    assert canonical_certificate(g) == cert  # cached path
    # certificate of an isomorphic copy under a different permutation
    h = relabel(g, [3, 1, 4, 0, 9, 2, 6, 8, 5, 7])
    assert canonical_certificate(h) == cert


def test_empty_and_tiny_graphs():
    assert canonical_certificate(Graph(0, [])) == b"K0:"
    g1 = Graph.from_edges(2, [(0, 1)])
    g2 = Graph.from_edges(2, [(1, 0)])
    assert canonical_certificate(g1) == canonical_certificate(g2)
    assert isomorphism(g1, g2) in ({0: 0, 1: 1}, {0: 1, 1: 0})


def test_caps():
    # the cap applies to the search, so a graph over it that is not complete
    # multipartite is refused, unless the degree screen answers the pair
    big = cycle(65)
    assert big.multipartite_parts is None
    with pytest.raises(CapExceeded):
        canonical_certificate(big)
    with pytest.raises(CapExceeded):
        isomorphism(big, big)
    assert isomorphism(Graph(65, [0] * 65), big) is None
    with pytest.raises(CapExceeded):
        isomorphism(big, relabel(big, random.Random(65).sample(range(65), 65)))


def test_complete_multipartite_graphs_over_the_cap_are_labeled():
    # the Heisenberg algebra over F_5 has 120 vertices in 24 parts of 5;
    # the edgeless graph on 65 vertices is one part
    heisenberg_f5 = LieAlgebra(field_new(5), 3, {(0, 1): (0, 0, 1)})
    for g in (build_graph(heisenberg_f5), Graph(65, [0] * 65)):
        assert g.n > iso.ISO_CAP and g.multipartite_parts is not None
        h = relabel(g, random.Random(g.n).sample(range(g.n), g.n))
        assert canonical_certificate(g) == canonical_certificate(h)
        check_witness(g, h, isomorphism(g, h))
    assert isomorphism(Graph(65, [0] * 65), complete_graph(65)) is None


def test_certificate_cache_keeps_only_graphs_up_to_the_cap(fresh_memos):
    # past ISO_CAP only the multipartite form runs, and recomputing it costs
    # less than hashing and keeping the rows
    big = complete_multipartite(*[5] * 13)
    assert canonical_certificate(big) == b"K65:" + b",".join([b"5"] * 13)
    assert iso._CERT_CACHE == {}
    small = complete_multipartite(*[4] * 16)
    assert canonical_certificate(small) == b"K64:" + b",".join([b"4"] * 16)
    assert list(iso._CERT_CACHE) == [small.rows]


def complement_of_circulant(n, steps):
    """The complement of the circulant C_n(steps)."""
    return Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if min(v - u, n - v + u) not in steps]
    )


@pytest.mark.parametrize(
    "g1, g2",
    [
        # 3-regular on 6, 4-regular on 8 and 6-regular on 9
        (complete_multipartite(3, 3), complement_of_circulant(6, (1,))),
        (complete_multipartite(4, 4), complement_of_circulant(8, (1, 4))),
        (complete_multipartite(3, 3, 3), complement_of_circulant(9, (1,))),
        # 60-regular on 65 vertices, past ISO_CAP
        (complete_multipartite(*[5] * 13), complement_of_circulant(65, (1, 2))),
    ],
    ids=["6", "8", "9", "65"],
)
def test_multipartite_against_other_shape_is_answered_without_a_search(g1, g2, monkeypatch):
    # equal degree sequences, exactly one graph complete multipartite: never
    # isomorphic, with networkx as the oracle, and no labeling is asked for
    assert sorted(g1.degrees) == sorted(g2.degrees)
    assert g1.multipartite_parts is not None and g2.multipartite_parts is None
    assert not nx.is_isomorphic(oracles.to_networkx(g1), oracles.to_networkx(g2))

    def refused(g, target=None):
        raise AssertionError("labeled a graph of a pair the shapes answer")

    monkeypatch.setattr(iso, "_canonical", refused)
    assert isomorphism(g1, g2) is None
    assert isomorphism(g2, g1) is None


def test_certificates_separate_all_small_graphs():
    # all labeled graphs on 4 and 5 vertices: the certificate classes are
    # exactly the 11 and 34 isomorphism classes, with networkx as the oracle
    for n, classes in ((4, 11), (5, 34)):
        pairs = list(combinations(range(n), 2))
        by_cert = {}
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            by_cert.setdefault(canonical_certificate(g), []).append(g)
        assert len(by_cert) == classes
        for members in by_cert.values():
            first = members[0]
            for g in members:
                assert nx.is_isomorphic(oracles.to_networkx(first), oracles.to_networkx(g))
                check_witness(first, g, isomorphism(first, g))
