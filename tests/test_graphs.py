"""Graph invariants checked against hand-computed values and brute oracles."""

import math
import random
import time
from itertools import combinations, combinations_with_replacement

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from lie_ncg.errors import CapExceeded, EmptyGraph, Undecided
from lie_ncg.graphs import (
    Graph,
    components,
    connectivity,
    diameter,
    domination_number,
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
from lie_ncg.linalg import bits
from lie_ncg.verifier import _is_tree

import oracles
from oracles import complete_graph, complete_multipartite, cycle, has_edge, petersen

INF = math.inf


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a, b):
    return complete_multipartite(a, b)


def octahedron():
    # K_{2,2,2}: vertex i is non-adjacent only to i+3
    return Graph.from_edges(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3]
    )


def disjoint_triangles():
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def complete_minus_path(n):
    """K_n without the edges 0-1 and 1-2: not complete multipartite, since
    0 and 1 are non-adjacent but 0 and 2 are adjacent."""
    return Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if (u, v) not in ((0, 1), (1, 2))]
    )


def decided(invariant, g):
    """invariant(g), or None when it raises Undecided."""
    try:
        return invariant(g)
    except Undecided:
        return None


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 2)])
    assert g.edge_count() == 3
    assert g.degrees == (1, 2, 2, 1)
    assert list(bits(g.rows[2])) == [1, 3]
    assert has_edge(g, 0, 1) and not has_edge(g, 0, 3)
    assert oracles.edges(g) == [(0, 1), (1, 2), (2, 3)]
    assert complete_graph(5).edge_count() == 10
    # self-loops are dropped
    assert Graph.from_edges(2, [(0, 0), (0, 1)]).edge_count() == 1


def test_connectivity_and_diameter():
    assert connectivity(complete_graph(4)) == (True, 1)
    assert connectivity(petersen()) == (True, 2)
    assert connectivity(Graph(1, [0])) == (True, 0)
    assert connectivity(Graph(3, [0, 0, 0])) == (False, INF)
    # diameter past 2, or disconnected with an edge: two non-adjacent
    # vertices without a common neighbour
    for g in (path(5), cycle(6), disjoint_triangles()):
        with pytest.raises(Undecided):
            connectivity(g)
    # diameter refuses the empty graph, and connectivity and is_eulerian
    # read it
    for read in (diameter, connectivity, is_eulerian):
        with pytest.raises(EmptyGraph):
            read(Graph(0, []))


def test_girth():
    assert girth(complete_graph(4)) == 3
    assert girth(disjoint_triangles()) == 3
    assert girth(complete_minus_path(5)) == 3
    # a triangle-free graph, with or without a cycle, is undecided
    for g in (cycle(5), cycle(8), petersen(), complete_bipartite(3, 3), path(6), Graph(1, [0])):
        with pytest.raises(Undecided):
            girth(g)


def assert_connectivity_matches_networkx(g):
    """``connectivity`` is decided exactly for a complete multipartite graph
    and for one of diameter at most 2, and there equals networkx; whether
    it was decided is returned."""
    h = oracles.to_networkx(g)
    connected = nx.is_connected(h)
    diameter = nx.diameter(h) if connected else INF
    if oracles.multipartite_parts_by_complement(g) is None and diameter > 2:
        with pytest.raises(Undecided):
            connectivity(g)
        return False
    assert connectivity(g) == (connected, diameter)
    return True


def assert_matches_networkx(n, edges):
    g = Graph.from_edges(n, edges)
    h = nx.empty_graph(n)
    h.add_edges_from(edges)
    # an odd degree settles Eulerian without the diameter
    settled = assert_connectivity_matches_networkx(g) or any(d % 2 for d in g.degrees)
    assert decided(girth, g) == (3 if nx.girth(h) == 3 else None)
    assert decided(is_eulerian, g) == (nx.is_eulerian(h) if settled else None)
    assert is_complete_bipartite(g) == nx_is_complete_bipartite(h)
    # planarity is decided for every complete multipartite graph and every
    # graph past 3n - 6 edges, outerplanarity past 2n - 3 edges, where an
    # outerplanar graph is one that stays planar with an apex vertex added
    other, m = oracles.multipartite_parts_by_complement(g) is None, h.number_of_edges()
    assert decided(is_planar, g) == (
        None if other and m <= 3 * n - 6 else nx.check_planarity(h)[0]
    )
    h.add_edges_from((n, v) for v in range(n))
    assert decided(is_outerplanar, g) == (
        None if other and m <= 2 * n - 3 else nx.check_planarity(h)[0]
    )


def nx_is_complete_bipartite(h):
    if h.number_of_nodes() < 2 or not nx.is_connected(h) or not nx.is_bipartite(h):
        return False
    left, right = nx.bipartite.sets(h)
    return len(left) * len(right) == h.number_of_edges()


def random_triangle_free(n, rng):
    """Greedy random triangle-free graph: add each pair, in random order,
    unless its ends already share a neighbour."""
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    adj = [set() for _ in range(n)]
    for u, v in pairs[: rng.randrange(len(pairs) + 1)]:
        if not adj[u] & adj[v]:
            adj[u].add(v)
            adj[v].add(u)
    return [(u, v) for u in range(n) for v in adj[u] if u < v]


def test_invariants_match_networkx_on_seeded_graphs():
    rng = random.Random(2024)
    cases = [(1, []), (2, []), (5, [(0, 1), (2, 3)]), (10, oracles.edges(petersen()))]
    # K_7 without the edges 0-1, 1-2 and 3-4: not complete multipartite, 6
    # distinct rows (3 and 4 are twins), diameter 2
    cases.append((7, [e for e in combinations(range(7), 2) if e not in ((0, 1), (1, 2), (3, 4))]))
    # dense graphs of diameter 3: two copies of K_k joined by one edge
    for k in (5, 6, 7):
        cases.append((2 * k, oracles.edges(two_complete(k)) + [(0, k)]))
    for n in range(1, 15):
        if n >= 3:
            cases.append((n, oracles.edges(cycle(n))))
        for p in (0.1, 0.3, 0.5, 0.8):
            for _ in range(4):
                cases.append((n, [e for e in combinations(range(n), 2) if rng.random() < p]))
        for _ in range(6):
            cases.append((n, random_triangle_free(n, rng)))
    for n, edges in cases:
        assert_matches_networkx(n, edges)
    graphs = [Graph.from_edges(n, edges) for n, edges in cases]
    assert sum(decided(girth, g) is None for g in graphs) > 50
    assert sum(decided(connectivity, g) is None for g in graphs) > 50
    dense = [g for g in graphs if decided(is_planar, g) is False and g.multipartite_parts is None]
    assert len(dense) > 40


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 14))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_invariants_match_networkx_hypothesis(graph):
    assert_matches_networkx(*graph)


@st.composite
def vertex_pairs(draw):
    n = draw(st.integers(1, 16))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))


@settings(max_examples=200, deadline=None)
@given(vertex_pairs())
def test_components_match_networkx_hypothesis(graph):
    # each vertex's class is its connected component, named by its least member
    n, pairs = graph
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(pairs)
    want = [0] * n
    for component in nx.connected_components(h):
        for v in component:
            want[v] = min(component)
    assert components(n, pairs) == want


@st.composite
def graphs_with_n_minus_1_edges(draw):
    """A tree; a cycle beside a tree, the tree one vertex or more; any n - 1
    edges; or a single vertex.  Vertices shuffled."""
    kind = draw(st.sampled_from(["tree", "cycle", "any", "vertex"]))
    if kind == "vertex":
        return 1, []
    n = draw(st.integers(4 if kind == "cycle" else 2, 12))
    if kind == "tree":
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    elif kind == "cycle":
        k = draw(st.integers(3, n - 1))
        edges = [(i, (i + 1) % k) for i in range(k)]
        edges += [(draw(st.integers(k, v - 1)), v) for v in range(k + 1, n)]
    else:
        edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                              min_size=n - 1, max_size=n - 1, unique=True))
    perm = draw(st.permutations(range(n)))
    return n, [(perm[u], perm[v]) for u, v in edges]


@settings(max_examples=200, deadline=None)
@given(graphs_with_n_minus_1_edges())
def test_is_tree_matches_networkx_hypothesis(graph):
    # no non-commuting graph has n - 1 edges, so only these graphs reach
    # Cor2.11's union-find
    n, edges = graph
    g = Graph.from_edges(n, edges)
    assert g.edge_count() == n - 1
    assert _is_tree(g) == nx.is_tree(oracles.to_networkx(g))


def test_degree_predicates():
    assert is_regular(cycle(7)) and is_regular(petersen())
    assert not is_regular(path(3))
    assert is_complete(complete_graph(6)) and not is_complete(cycle(4))
    assert is_complete_bipartite(complete_bipartite(3, 4))
    assert is_complete_bipartite(cycle(4))  # C4 = K_{2,2}
    assert not is_complete_bipartite(cycle(6))  # bipartite but edges missing
    assert not is_complete_bipartite(complete_graph(3))
    assert not is_complete_bipartite(Graph(2, [0, 0]))  # no edges at all


def assert_twin_classes(g):
    """The twin classes partition the vertices in order of their least
    vertex, and each is exactly the vertices sharing one row."""
    classes = g.twin_classes
    assert sorted(v for twins in classes for v in twins) == list(range(g.n))
    assert [twins[0] for twins in classes] == sorted(twins[0] for twins in classes)
    for twins in classes:
        assert twins == [v for v in range(g.n) if g.rows[v] == g.rows[twins[0]]]


def test_multipartite_parts_on_every_small_graph():
    # every labeled graph on at most 5 vertices; the complete multipartite
    # ones correspond to the set partitions, so there are Bell(n) of them
    for n, bell in enumerate((1, 1, 2, 5, 15, 52)):
        pairs = list(combinations(range(n), 2))
        found = 0
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            parts = g.multipartite_parts
            assert parts == oracles.multipartite_parts_by_complement(g)
            assert_twin_classes(g)
            assert is_complete_bipartite(g) == nx_is_complete_bipartite(oracles.to_networkx(g))
            found += parts is not None
        assert found == bell


def test_eulerian():
    assert is_eulerian(cycle(5))
    assert is_eulerian(complete_graph(5))
    assert not is_eulerian(complete_graph(4))  # odd degrees
    assert is_eulerian(octahedron())
    edgeless = Graph(3, [0, 0, 0])  # even degrees, disconnected
    assert not is_eulerian(edgeless) and not nx.is_eulerian(oracles.to_networkx(edgeless))
    # even degrees, and neither complete multipartite nor of diameter <= 2
    two_triangles = disjoint_triangles()
    assert not nx.is_eulerian(oracles.to_networkx(two_triangles))
    with pytest.raises(Undecided):
        is_eulerian(two_triangles)


def two_complete(k):
    """Two disjoint copies of K_k: every degree k - 1, disconnected, and not
    complete multipartite."""
    n = 2 * k
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if u // k == v // k])


def test_hamiltonian_cycle_exact():
    for g in (complete_graph(5), complete_bipartite(3, 3), octahedron()):
        assert oracles.is_hamilton_cycle(g, hamiltonian_cycle(g))
        assert oracles.is_hamilton_cycle(g, oracles.hamiltonian_cycle_exhaustive(g))
    # below Dirac's bound and without a cycle: Petersen is hypohamiltonian,
    # and two disjoint K_4 are disconnected
    two_k4 = two_complete(4)
    assert two_k4.multipartite_parts is None and not nx.is_connected(oracles.to_networkx(two_k4))
    for g in (petersen(), path(4), complete_bipartite(2, 3), complete_graph(2), two_k4):
        assert oracles.hamiltonian_cycle_exhaustive(g) is None
        with pytest.raises(Undecided):
            hamiltonian_cycle(g)


def test_is_hamiltonian_dirac_consistent_with_exact():
    for g in [complete_graph(6), octahedron(), complete_bipartite(3, 3)]:
        assert is_hamiltonian(g) and oracles.hamiltonian_cycle_exhaustive(g) is not None
    # C7 has a cycle and Petersen none; neither meets Dirac's bound
    assert oracles.hamiltonian_cycle_exhaustive(cycle(7)) is not None
    assert oracles.hamiltonian_cycle_exhaustive(petersen()) is None
    for g in (cycle(7), petersen()):
        with pytest.raises(Undecided):
            is_hamiltonian(g)


def test_is_hamiltonian_complete_multipartite_matches_exact():
    # every multiset of 2 to 4 parts of 1 to 4 vertices, Dirac or not
    for k in (2, 3, 4):
        for sizes in combinations_with_replacement(range(1, 5), k):
            g = complete_multipartite(*sizes)
            assert is_hamiltonian(g) == (oracles.hamiltonian_cycle_exhaustive(g) is not None), sizes


def test_is_hamiltonian_below_dirac_is_undecided_at_once():
    # K_{6,8} minus one edge: min degree 5 < 14/2, and not complete
    # multipartite; an exhaustive search takes seconds to find no cycle
    g = Graph.from_edges(14, [(u, v) for u in range(6) for v in range(6, 14) if (u, v) != (0, 6)])
    assert g.multipartite_parts is None
    start = time.perf_counter()
    with pytest.raises(Undecided):
        is_hamiltonian(g)
    assert time.perf_counter() - start < 0.5


@st.composite
def dirac_graphs(draw):
    """A random graph on 3 to 40 vertices, then an edge from a least-degree
    vertex to a random non-neighbour until 2 * min degree >= n, relabeled
    by a random permutation."""
    n = draw(st.integers(3, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.floats(0, 1))
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    while 2 * min(map(int.bit_count, rows)) < n:
        u = min(range(n), key=lambda w: rows[w].bit_count())
        v = rng.choice([w for w in range(n) if w != u and not rows[u] >> w & 1])
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    perm = rng.sample(range(n), n)
    edges = [(perm[u], perm[v]) for u, v in combinations(range(n), 2) if rows[u] >> v & 1]
    return Graph.from_edges(n, edges)


@settings(max_examples=200, deadline=None)
@given(dirac_graphs())
def test_hamiltonian_cycle_on_dirac_graphs_hypothesis(g):
    assert is_hamiltonian(g)
    assert oracles.is_hamilton_cycle(g, hamiltonian_cycle(g))


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 40), st.integers(0, 2**32), st.floats(0, 1))
def test_below_dirac_and_not_multipartite_is_undecided_hypothesis(n, seed, p):
    # a random graph whose vertex 0 keeps fewer than n/2 neighbours
    rng = random.Random(seed)
    keep = set(rng.sample(range(1, n), (n - 1) // 2))
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    g = Graph.from_edges(n, [(u, v) for u, v in edges if u != 0 or v in keep])
    assume(g.multipartite_parts is None)
    for invariant in (is_hamiltonian, hamiltonian_cycle):
        with pytest.raises(Undecided):
            invariant(g)


def test_complete_multipartite_closed_forms_match_networkx():
    # every multiset of 1 to 6 parts of 1 to 5 vertices with n <= 16, each
    # under a seeded relabeling; outerplanarity is planarity of the graph
    # plus an apex vertex joined to every vertex
    rng = random.Random(2024)
    checked = 0
    for k in range(1, 7):
        for sizes in combinations_with_replacement(range(1, 6), k):
            if sum(sizes) > 16:
                continue
            base = complete_multipartite(*sizes)
            perm = rng.sample(range(base.n), base.n)
            g = Graph.from_edges(base.n, [(perm[u], perm[v]) for u, v in oracles.edges(base)])
            assert g.multipartite_parts is not None
            h = oracles.to_networkx(g)
            connected = nx.is_connected(h)
            assert connectivity(g) == (connected, nx.diameter(h) if connected else INF), sizes
            assert is_planar(g) == nx.check_planarity(h)[0], sizes
            h.add_edges_from((g.n, v) for v in range(g.n))
            assert is_outerplanar(g) == nx.check_planarity(h)[0], sizes
            checked += 1
    assert checked == 278


def test_connectivity_with_twin_rows_matches_networkx():
    # graphs that are not complete multipartite but have many equal rows:
    # a path with vertex 0 in the middle, C_5, C_6 and the Petersen graph
    # with every vertex blown up into 1 to 3 twins
    rng = random.Random(7)
    middle_path = Graph.from_edges(5, [(4, 1), (1, 0), (0, 2), (2, 3)])
    decided_count = 0
    for base in (middle_path, cycle(5), cycle(6), petersen()):
        copies = [rng.randint(1, 3) for _ in range(base.n)]
        owner = [u for u, c in enumerate(copies) for _ in range(c)]
        n = len(owner)
        g = Graph.from_edges(
            n, [(a, b) for a, b in combinations(range(n), 2) if has_edge(base, owner[a], owner[b])]
        )
        assert g.multipartite_parts is None
        assert_twin_classes(g)
        decided_count += assert_connectivity_matches_networkx(g)
    assert decided_count == 2


def test_is_hamiltonian_large_complete_bipartite_is_fast():
    # the exact search on K_{8,9} did not finish in 18 s
    start = time.perf_counter()
    assert not is_hamiltonian(complete_bipartite(8, 9))
    assert time.perf_counter() - start < 1.0


def test_planarity_known_graphs():
    assert is_planar(complete_graph(4))
    assert is_planar(octahedron())
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite(3, 3))
    assert not is_planar(complete_minus_path(6))  # 13 > 3n - 6 edges
    # K5 with one edge subdivided is nonplanar, C9 planar and Petersen
    # nonplanar; none is complete multipartite or past 3n - 6 edges
    k5sub = Graph.from_edges(
        6, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)] + [(0, 5), (5, 1)]
    )
    for g in (cycle(9), petersen(), k5sub):
        with pytest.raises(Undecided):
            is_planar(g)


def test_planarity_matches_kuratowski_oracle():
    samples = [
        complete_graph(4),
        complete_graph(5),
        complete_graph(6),
        complete_bipartite(3, 3),
        complete_bipartite(2, 4),
        octahedron(),
        complete_minus_path(6),
        complete_minus_path(7),
    ]
    for g in samples:
        assert is_planar(g) == oracles.planar_by_kuratowski(g)
    for g in (petersen(), cycle(8), path(7), disjoint_triangles()):
        with pytest.raises(Undecided):
            is_planar(g)


def test_outerplanarity():
    assert is_outerplanar(complete_graph(3))
    assert is_outerplanar(complete_bipartite(1, 4))
    assert not is_outerplanar(complete_graph(4))  # planar but not outerplanar
    assert not is_outerplanar(complete_bipartite(2, 3))
    assert not is_outerplanar(octahedron())
    assert not is_outerplanar(complete_minus_path(5))  # 8 > 2n - 3 edges
    # outerplanar, but neither complete multipartite nor past 2n - 3 edges
    for g in (cycle(6), path(5)):
        with pytest.raises(Undecided):
            is_outerplanar(g)


def test_domination_number_known_values():
    assert domination_number(complete_graph(7)) == 1
    assert domination_number(cycle(6)) == 2
    assert domination_number(cycle(7)) == 3
    assert domination_number(path(6)) == 2
    assert domination_number(petersen()) == 3
    assert domination_number(complete_bipartite(3, 3)) == 2
    assert domination_number(Graph(3, [0, 0, 0])) == 3  # no edges
    # one edge and n - 2 isolated vertices: the last size the search tries
    assert domination_number(Graph.from_edges(4, [(0, 1)])) == 3
    assert domination_number(Graph(1, [0])) == 1
    with pytest.raises(EmptyGraph):
        domination_number(Graph(0, []))
    with pytest.raises(CapExceeded):
        domination_number(Graph(33, [0] * 33))


def test_domination_number_matches_bruteforce():
    samples = [cycle(n) for n in range(3, 9)] + [
        petersen(),
        octahedron(),
        complete_bipartite(2, 5),
        path(8),
        disjoint_triangles(),
    ]
    for g in samples:
        assert domination_number(g) == oracles.domination_bruteforce(g)


def test_property_report_octahedron():
    rep = property_report(octahedron())
    assert rep == {
        "vertex_count": 6,
        "edge_count": 12,
        "min_degree": 4,
        "max_degree": 4,
        "degree_sequence": [4, 4, 4, 4, 4, 4],
        "is_connected": True,
        "diameter": 2,
        "girth": 3,
        "is_regular": True,
        "is_eulerian": True,
        "is_hamiltonian": True,
        "is_complete": False,
        "is_complete_bipartite": False,
        "is_planar": True,
        "is_outerplanar": False,
        "domination_number": 2,
    }


def test_property_report_disconnected_and_capped():
    # two disjoint K_7: a triangle and 42 > 3n - 6 edges, but disconnected,
    # min degree 6 < 14/2 and not complete multipartite, so the diameter and
    # Hamiltonicity are undecided
    two_k7 = two_complete(7)
    assert not nx.is_connected(oracles.to_networkx(two_k7))
    for invariant in (connectivity, is_hamiltonian):
        with pytest.raises(Undecided):
            invariant(two_k7)
    assert is_planar(two_k7) is False and is_outerplanar(two_k7) is False
    assert domination_number(two_k7) == 2
    with pytest.raises(Undecided):
        property_report(two_k7)
    # the oracle's backtracking, with no connectedness shortcut, runs out of
    # paths inside the first K_7
    assert oracles.hamiltonian_cycle_exhaustive(two_k7) is None
    big = complete_multipartite(11, 11, 11)
    assert property_report(big)["domination_number"] == "skipped"
    with pytest.raises(Undecided):
        property_report(disjoint_triangles())
