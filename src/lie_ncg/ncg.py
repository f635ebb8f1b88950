"""The non-commuting graph of a Lie algebra.

Vertices are the elements of ``L`` outside the center, in increasing index
order, and two vertices are adjacent exactly when their bracket is nonzero.
"""

from __future__ import annotations

from functools import cached_property

from .errors import AbelianAlgebra
from .graphs import Graph
from .linalg import kernel_basis, span


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
    # list L first, so the element cap applies before any other work
    elements = list(L.enumerate_elements())
    f = L.field
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    center = L.center().basis_matrix
    pivots = [next(i for i, a in enumerate(row) if a) for row in center]

    def modulo_center(v):
        """The member of v + Z that is zero on the pivot columns of Z."""
        for row, p in zip(center, pivots):
            a = v[p]
            if a:
                m = mul[neg[a]]
                v = tuple([add[x][m[y]] for x, y in zip(v, row)])
        return v

    vertices = []
    reps = []  # each vertex's representative modulo Z
    cosets = {}  # representative modulo Z -> mask of the vertices in that coset
    for v in elements:
        rep = modulo_center(v)
        if any(rep):
            cosets[rep] = cosets.get(rep, 0) | 1 << len(vertices)
            vertices.append(v)
            reps.append(rep)
    full = (1 << len(vertices)) - 1
    # C(x) contains Z, so its members that are zero on Z's pivot columns are
    # the representatives of the cosets in C(x)/Z: the kernel of ad(x) with
    # one unit row per pivot column added
    units = [tuple(int(c == p) for c in range(L.dim)) for p in pivots]
    coset_rows = {}
    for rep in cosets:
        if rep in coset_rows:
            continue
        commuting = 0
        for coset in span(f, kernel_basis(f, L.ad_matrix(rep) + units, L.dim), L.dim):
            commuting |= cosets.get(coset, 0)
        for m in mul[1:]:
            coset_rows[tuple([m[a] for a in rep])] = full & ~commuting
    rows = [coset_rows[rep] for rep in reps]
    return NcGraph(len(vertices), rows, vertices, L)
