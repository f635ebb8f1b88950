"""The non-commuting graph of a Lie algebra.

Vertices are the elements of ``L`` outside the center, in increasing index
order, and two vertices are adjacent exactly when their bracket is nonzero.
"""

from __future__ import annotations

from .errors import AbelianAlgebra
from .graphs import Graph


class NcGraph(Graph):
    """A Graph whose vertices carry the algebra elements that produced them."""

    def __init__(self, n, rows, vertices, labels):
        super().__init__(n, rows, labels)
        self.vertices = tuple(vertices)


def build_graph(L):
    """Build the non-commuting graph of a non-abelian algebra.

    Row ``x`` is every vertex outside the centralizer: x commutes with y
    exactly when y lies in C(x) = ker ad(x) (Lem2.2).  Since [cx, y] = c[x, y],
    every nonzero multiple of x has the same centralizer, so one kernel serves
    the whole line {cx}.

    Raises AbelianAlgebra when the center is all of L (the graph would be
    null) and CapExceeded when q^dim exceeds the element cap.
    """
    if L.is_abelian():
        raise AbelianAlgebra("abelian algebra: the non-commuting graph has no vertices")
    # list L first: the cap check there also bounds the size of the center
    elements = list(L.enumerate_elements())
    center = set(L.center().elements())
    vertices = [v for v in elements if v not in center]
    position = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    full = (1 << n) - 1
    f = L.field
    scalars = [c for c in f.elements() if c]
    rows = [None] * n
    for i, x in enumerate(vertices):
        if rows[i] is not None:
            continue
        commuting = 0
        for y in L.centralizer(x).elements():
            if y in position:
                commuting |= 1 << position[y]
        for c in scalars:
            rows[position[tuple(f.mul(c, a) for a in x)]] = full & ~commuting
    labels = [L.element_label(v) for v in vertices]
    return NcGraph(n, rows, vertices, labels)
