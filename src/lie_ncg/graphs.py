"""Undirected simple graphs on bitset adjacency rows, plus exact invariants.

Vertices are ``0..n-1``; row ``i`` is an integer whose bit ``j`` is set when
``i`` and ``j`` are adjacent.  A ``Graph`` is its rows and the facts read
from them, with no vertex names (``ncg.NcGraph`` has the elements') and no
value equality.  Sizes beyond the stated caps raise ``CapExceeded``.  Girth,
the diameter, Hamiltonicity, planarity and outerplanarity are read from
facts checked on the graph, which every non-commuting graph has: a triangle
(x, y and x + y for [x, y] != 0), a common neighbour of every two
non-adjacent vertices (Prop2.6), Dirac's bound 2 * min degree >= n, and a
complete multipartite shape or more than 3n - 6 edges.  A graph without
them raises ``Undecided``; nothing here walks the graph.
The twin classes, the vertices grouped by row once in ``Graph.__init__``,
are that shape's parts when it has one (``Graph.multipartite_parts``), and
the invariants answer from the parts: ``Graph.diameter``, ``is_planar`` and
``is_outerplanar`` by closed forms in the part sizes, ``is_hamiltonian``
below Dirac's bound, ``is_complete_bipartite`` by counting parts, and the
canonical labeling in ``iso`` by ordering them.

``Graph.diameter``, once per graph, is the one place connectedness is
decided, and refuses the empty graph; ``connectivity`` and ``is_eulerian``
read it.  ``components`` is the one union-find, over any vertex pairs: the
canonical search reads automorphism orbits off it, and Cor2.11's tree test
the classes of a graph's edges, where ``Graph.diameter`` would leave a tree
undecided.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import CapExceeded, EmptyGraph, Undecided
from .linalg import bits

DOMINATION_CAP = 32

INF = math.inf

# maps the ASCII digits of ``bin(row)`` to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class Graph:
    """Immutable undirected simple graph on ``n`` unnamed vertices and ``rows``.

    ``degrees`` holds each vertex's row bit count.  ``twin_classes`` are
    the vertices grouped by row, as ascending lists in order of their least
    vertex.  The graph is complete multipartite iff each vertex's closed
    non-neighbourhood, n - degree vertices holding its twin class, is that
    class; the classes are then the parts (``multipartite_parts``, else
    None).
    """

    def __init__(self, n, rows):
        self.n = n
        self.rows = tuple(rows)
        # counted and grouped once per graph; every invariant here reads them
        self.degrees = tuple(map(int.bit_count, self.rows))
        classes = {}
        for v, row in enumerate(self.rows):
            classes.setdefault(row, []).append(v)
        self.twin_classes = list(classes.values())
        multipartite = all(n - self.degrees[c[0]] == len(c) for c in self.twin_classes)
        self.multipartite_parts = self.twin_classes if multipartite else None

    @classmethod
    def from_edges(cls, n, edges):
        rows = [0] * n
        for u, v in edges:
            if u == v:
                continue
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @cached_property
    def diameter(self):
        """The largest distance between two vertices, inf when the graph is
        disconnected; the empty graph raises EmptyGraph.

        A complete multipartite graph with one part has no edges; with two or
        more it is connected, and two vertices of one part are at distance 2
        through any vertex of another, so the diameter is 1 when every part
        is a single vertex and 2 otherwise.  Any other graph has diameter at
        most 2 exactly when every non-adjacent pair of distinct vertices has
        a common neighbour, as in every non-commuting graph (Prop2.6); it is
        then 2, since the graph is not complete.  Twins have equal rows, so
        the first vertex of each twin class is checked against each of its
        non-neighbours, itself among them; a graph that fails the check
        raises Undecided.
        """
        if self.n == 0:
            raise EmptyGraph("diameter of the empty graph is undefined")
        parts = self.multipartite_parts
        if parts is not None:
            if len(parts) == 1:
                return 0 if self.n == 1 else INF
            return 1 if len(parts) == self.n else 2
        rows, full = self.rows, (1 << self.n) - 1
        for twins in self.twin_classes:
            row = rows[twins[0]]
            if not all(row & rows[w] for w in bits(full & ~row)):
                raise Undecided(
                    f"diameter of a graph with two non-adjacent vertices and no common "
                    f"neighbour ({self!r})"
                )
        return 2

    @cached_property
    def neighbours(self):
        """Each vertex's neighbours as an ascending tuple, listed once per
        graph on first read; only the canonical search's refinement reads
        them."""
        return [tuple(bits(row)) for row in self.rows]

    def edge_count(self):
        return sum(self.degrees) // 2

    def row_bytes(self, v):
        """Row v as n bytes, byte u 1 when u is adjacent to v and 0 when not:
        one pass over the row's binary digits, which ``itemgetter`` can then
        permute."""
        return bin(self.rows[v])[:1:-1].encode().translate(_BIT_BYTES).ljust(self.n, b"\0")

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


# -- connectivity and girth ----------------------------------------------------


def connectivity(g):
    """(is_connected, diameter), read from ``Graph.diameter``: decided for a
    complete multipartite graph and for one of diameter at most 2, and
    Undecided otherwise; the empty graph raises EmptyGraph there."""
    return g.diameter != INF, g.diameter


def components(n, pairs):
    """The least member of each vertex's class under the equivalence the
    (v, w) pairs generate on ``range(n)``, by a union-find with path
    halving whose roots are the least members."""
    rep = list(range(n))

    def find(v):
        while rep[v] != v:
            rep[v] = rep[rep[v]]
            v = rep[v]
        return v

    for v, w in pairs:
        a, b = find(v), find(w)
        if a != b:
            rep[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


def girth(g):
    """3 when two adjacent vertices have a common neighbour.

    Every non-commuting graph has such an edge: for [x, y] != 0, x, y and
    x + y are pairwise non-commuting (Prop2.5).  A triangle-free graph
    raises Undecided.
    """
    rows = g.rows
    for u in range(g.n):
        for v in bits(rows[u]):
            if rows[u] & rows[v]:
                return 3
    raise Undecided(f"girth of a triangle-free graph ({g!r})")


# -- degree-based predicates ---------------------------------------------------


def is_regular(g):
    return len(set(g.degrees)) <= 1


def is_complete(g):
    return all(d == g.n - 1 for d in g.degrees)


def is_eulerian(g):
    """Every degree even and the graph connected, the second read from
    ``Graph.diameter``, which raises EmptyGraph on the empty graph."""
    return all(d % 2 == 0 for d in g.degrees) and g.diameter != INF


def is_complete_bipartite(g):
    """Complete multipartite with exactly two parts."""
    parts = g.multipartite_parts
    return parts is not None and len(parts) == 2


# -- Hamiltonicity -------------------------------------------------------------


def hamiltonian_cycle(g):
    """A Hamilton cycle of a graph with n >= 3 and 2 * min degree >= n
    (Dirac), as a vertex list, by Palmer's rotation; any other graph raises
    Undecided.

    Read ``range(n)`` as a cycle.  At a gap, non-adjacent u = c[i] and
    v = c[i + 1], reverse c[i + 1 .. i + k] for the first k with
    u ~ c[i + k] and v ~ c[i + k + 1]: the k of u's neighbours and those of
    v's, at least n together, lie in 1 .. n - 1, so some k has both.  Both
    ends of the reversed run are then edges and every other pair of cycle
    neighbours is kept, so each rotation closes a gap, and at most n close
    them all.
    """
    n, rows = g.n, g.rows
    if n < 3 or 2 * min(g.degrees) < n:
        raise Undecided(f"Hamilton cycle of a graph below Dirac's bound ({g!r})")
    c = list(range(n))
    for _ in range(n):
        i = next((i for i in range(n) if not rows[c[i - 1]] >> c[i] & 1), None)
        if i is None:
            break
        c = c[i:] + c[:i]  # the gap is now u = c[-1], v = c[0]
        u, v = c[-1], c[0]
        k = next(k for k in range(1, n) if rows[u] >> c[k - 1] & 1 and rows[v] >> c[k] & 1)
        c[:k] = c[k - 1 :: -1]
    return c


def is_hamiltonian(g):
    """True by Dirac's condition, n >= 3 and 2 * min degree >= n, which
    every non-commuting graph meets: |C(x)| <= |L|/q for x outside the
    center, so deg x = |L| - |C(x)| >= |L|(1 - 1/q) >= n/2.

    False for a complete multipartite graph that fails it: either n < 3, or
    a vertex of the largest part has degree n - n_k < n/2, so that part is
    an independent set of more than n/2 vertices, which no Hamilton cycle
    can hold.  Any other graph raises Undecided.
    """
    if g.n >= 3 and 2 * min(g.degrees) >= g.n:
        return True
    if g.multipartite_parts is not None:
        return False
    raise Undecided(f"Hamiltonicity of a graph below Dirac's bound ({g!r})")


# -- planarity -----------------------------------------------------------------


def _planar(g, apex):
    """Planarity of g plus ``apex`` (0 or 1) vertices adjacent to every
    vertex.  With an apex, a complete multipartite g stays one, the apex
    being one more single-vertex part.

    A complete multipartite graph with part sizes n_1 <= ... <= n_k is
    planar iff it has no K_5 or K_{3,3} subgraph (Kuratowski), that is iff
    k <= 1, or k = 2 and n_1 <= 2, or k = 3 and (n_2 = 1 or n_3 <= 2), or
    k = 4 and n_3 = 1 and n_4 <= 2.  Any other graph on n vertices is
    planar only with at most 3n - 6 edges (Euler), and raises Undecided
    there.
    """
    parts = g.multipartite_parts
    if parts is not None:
        sizes = sorted([len(part) for part in parts] + [1] * apex)
        k = len(sizes)
        return (
            k <= 1
            or k == 2 and sizes[0] <= 2
            or k == 3 and (sizes[1] == 1 or sizes[2] <= 2)
            or k == 4 and sizes[2] == 1 and sizes[3] <= 2
        )
    if g.edge_count() + apex * g.n > 3 * (g.n + apex) - 6:
        return False
    what = "outerplanarity" if apex else "planarity"
    raise Undecided(f"{what} of a sparse graph not complete multipartite ({g!r})")


def is_planar(g):
    """Exact planarity, where the part sizes or the edge count decide it."""
    return _planar(g, apex=0)


def is_outerplanar(g):
    """Planarity of the graph plus an apex vertex adjacent to every vertex:
    with n + 1 vertices and m + n edges, the edge bound reads m > 2n - 3."""
    return _planar(g, apex=1)


# -- domination ----------------------------------------------------------------


def domination_number(g):
    """Smallest dominating-set size by increasing-size branch and bound."""
    if g.n == 0:
        raise EmptyGraph("domination number of the empty graph is undefined")
    if g.n > DOMINATION_CAP:
        raise CapExceeded(f"exact domination search capped at {DOMINATION_CAP} vertices")
    closed = [g.rows[v] | (1 << v) for v in range(g.n)]
    all_mask = (1 << g.n) - 1

    def search(covered, budget):
        if covered == all_mask:
            return True
        if budget == 0:
            return False
        u = next(bits(all_mask & ~covered))
        # any dominating set must contain some vertex of N[u]
        for v in bits(closed[u]):
            if search(covered | closed[v], budget - 1):
                return True
        return False

    # the whole vertex set dominates, so a search for n always succeeds
    for k in range(1, g.n):
        if search(0, k):
            return k
    return g.n


# -- summary -------------------------------------------------------------------


def property_report(g):
    """The full invariant summary of one graph, as a dict in a fixed key
    order.

    The domination number is reported as the string ``"skipped"`` when the
    graph exceeds the exact-search cap; every other field is exact.  A graph
    without a triangle, or not complete multipartite and sparse, below
    Dirac's bound or with two non-adjacent vertices that share no
    neighbour, raises Undecided; no non-commuting graph is any of these.
    So every graph reported on is connected: one that is not complete
    multipartite has diameter 2, and a disconnected complete multipartite
    graph has one part and no edges, so ``girth`` raises on it.
    """
    degs = g.degrees
    connected, diameter = connectivity(g)
    try:
        gamma = domination_number(g)
    except CapExceeded:
        gamma = "skipped"
    return {
        "vertex_count": g.n,
        "edge_count": g.edge_count(),
        "min_degree": min(degs),
        "max_degree": max(degs),
        "degree_sequence": sorted(degs, reverse=True),
        "is_connected": connected,
        "diameter": diameter,
        "girth": girth(g),
        "is_regular": is_regular(g),
        "is_eulerian": is_eulerian(g),
        "is_hamiltonian": is_hamiltonian(g),
        "is_complete": is_complete(g),
        "is_complete_bipartite": is_complete_bipartite(g),
        "is_planar": is_planar(g),
        "is_outerplanar": is_outerplanar(g),
        "domination_number": gamma,
    }
