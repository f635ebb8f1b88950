"""The non-commuting graph of a Lie algebra.

Vertices are the elements of ``L`` outside the center, in increasing index
order, and two vertices are adjacent exactly when their bracket is nonzero.
The graph is built on index-coded vectors (``linalg.VectorSpace``): an
element is its index sum v_i q^i, so cosets, kernels and spans are ints, and
a vertex's coordinate tuple is read from the shared digit table.
"""

from __future__ import annotations

from functools import cached_property

from .errors import AbelianAlgebra
from .graphs import Graph
from .liealg import check_element_cap


class NcGraph(Graph):
    """A Graph whose vertices carry the algebra elements that produced them.

    The labels are rendered from the algebra the first time they are read.
    """

    def __init__(self, n, rows, vertices, algebra):
        super().__init__(n, rows)
        self.vertices = tuple(vertices)
        self.algebra = algebra

    @cached_property
    def labels(self):
        return tuple(self.algebra.element_label(v) for v in self.vertices)


def build_graph(L):
    """Build the non-commuting graph of a non-abelian algebra.

    Row ``x`` is every vertex outside the centralizer: x commutes with y
    exactly when y lies in C(x) = ker ad(x) (Lem2.2).  Since [cx, y] = c[x, y],
    every nonzero multiple of x has the same centralizer.  Since
    [x + z, y] = [x, y] for z in the center Z, so has every element of
    x + Z, and C(x) is a union of cosets of Z.  So one kernel serves each
    line of L/Z, and the row is the OR of the vertex masks of the cosets in
    C(x)/Z, not a scan of every element of C(x).

    Raises AbelianAlgebra when the center is all of L (the graph would be
    null) and CapExceeded when q^dim exceeds the element cap.
    """
    if L.is_abelian():
        raise AbelianAlgebra("abelian algebra: the non-commuting graph has no vertices")
    # the element cap applies before any other work
    check_element_cap(L.order)
    V = L.space
    Z = L.center()
    # each coset of Z is represented by its one member that is zero on the
    # pivot coordinates of Z: a combination of the other unit vectors
    free = [w for i, w in enumerate(V.units) if i not in Z.pivots]
    center_span = V.span(Z.rows)
    rep_of = [0] * len(V.digits)
    reps = V.span(free)
    for rep in reps:
        for z in center_span:
            rep_of[V.add(rep, z)] = rep
    vertices = []
    vertex_reps = []
    cosets = [0] * len(V.digits)  # representative -> mask of its coset's vertices
    for v, rep in enumerate(rep_of):
        if rep:
            cosets[rep] |= 1 << len(vertices)
            vertices.append(V.digits[v])
            vertex_reps.append(rep)
    full = (1 << len(vertices)) - 1
    # C(x) contains Z, so its members that are zero on Z's pivot coordinates
    # are the representatives of the cosets in C(x)/Z: the kernel of ad(x)
    # with one unit row per pivot coordinate added
    units = tuple(V.units[p] for p in Z.pivots)
    multipliers = V.scale[1:]
    ad_rows = L.ad_rows
    coset_rows = [0] * len(V.digits)  # no row of a non-central x is empty
    for rep in reps:
        if not rep or coset_rows[rep]:
            continue
        commuting = 0
        for c in V.span(V.kernel(ad_rows[rep] + units)):
            commuting |= cosets[c]
        row = full & ~commuting
        for m in multipliers:
            coset_rows[m[rep]] = row
    rows = [coset_rows[rep] for rep in vertex_reps]
    return NcGraph(len(vertices), rows, vertices, L)
