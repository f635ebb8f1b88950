"""Isomorphism testing and canonical certificates."""

import random
from functools import cache
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from lie_ncg.errors import CapExceeded
from lie_ncg.graphs import Graph
from lie_ncg.iso import canonical_certificate, graph_isomorphic, isomorphism, refine_colors
from lie_ncg.verifier import catalog_instances, enumeration_instances


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


@cache
def pool_graphs():
    """The distinct labeled graphs of the catalog and of every enumerated
    non-abelian algebra with dim <= 3 and q in {2, 3}."""
    instances = catalog_instances()
    for q in (2, 3):
        for n in (2, 3):
            instances.extend(enumeration_instances(n, q))
    distinct = {}
    for inst in instances:
        distinct.setdefault(inst.graph.rows, (inst.name, inst.graph))
    return list(distinct.values())


def relabel(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def check_witness(g1, g2, witness):
    assert sorted(witness) == list(range(g1.n))
    assert sorted(witness.values()) == list(range(g2.n))
    for u in range(g1.n):
        for v in range(u + 1, g1.n):
            assert g1.has_edge(u, v) == g2.has_edge(witness[u], witness[v])


def test_refine_colors_splits_degree_classes():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # path: ends vs middle
    colors = refine_colors(g)
    assert colors[0] == colors[3]
    assert colors[1] == colors[2]
    assert colors[0] != colors[1]
    # vertex-transitive graph stays monochromatic
    assert len(set(refine_colors(cycle(6)))) == 1


def test_isomorphic_relabelings():
    rng = random.Random(7)
    for g in [cycle(7), petersen(), Graph.complete(5), complete_bipartite(2, 3)]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        iso, witness = graph_isomorphic(g, h)
        assert iso
        check_witness(g, h, witness)
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
    # K_{3,3} versus the triangular prism: both 3-regular on 6 vertices, and
    # only K_{3,3} is complete multipartite
    tri_prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    assert isomorphism(complete_bipartite(3, 3), tri_prism) is None
    assert canonical_certificate(complete_bipartite(3, 3)) != canonical_certificate(tri_prism)


def test_size_mismatches_rejected_quickly():
    assert isomorphism(cycle(5), cycle(6)) is None
    assert isomorphism(cycle(6), Graph.complete(6)) is None
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
    assert canonical_certificate(Graph(0, [])) == b"G0:"
    g1 = Graph.from_edges(2, [(0, 1)])
    g2 = Graph.from_edges(2, [(1, 0)])
    assert canonical_certificate(g1) == canonical_certificate(g2)
    iso, witness = graph_isomorphic(g1, g2)
    assert iso and witness in ({0: 0, 1: 1}, {0: 1, 1: 0})


def test_caps():
    big = Graph(65, [0] * 65)
    with pytest.raises(CapExceeded):
        canonical_certificate(big)
    with pytest.raises(CapExceeded):
        isomorphism(big, big)


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
                assert nx.is_isomorphic(first.to_networkx(), g.to_networkx())
                check_witness(first, g, isomorphism(first, g))
