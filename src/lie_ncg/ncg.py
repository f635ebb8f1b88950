"""The non-commuting graph of a Lie algebra.

Vertices are the elements of ``L`` outside the center, in increasing index
order, and two vertices are adjacent exactly when their bracket is nonzero.
The graph is built on index-coded vectors (``linalg.VectorSpace``): an
element is its index sum v_i q^i, so a set of elements is a bitmask over
those indices.  A centralizer, like the center, is an AND of hyperplane
masks (``VectorSpace.solutions``), a row is its complement moved to vertex
positions, and rows are shared along each line {cx : c != 0}, which
``VectorSpace.line`` names.  The graph keeps each vertex's element index,
and its coordinate tuple is read from the shared digit table.
"""

from __future__ import annotations

from functools import cached_property

from .errors import AbelianAlgebra
from .graphs import Graph
from .linalg import bits


class NcGraph(Graph):
    """A Graph whose vertices carry the algebra elements that produced them.

    ``indices`` are the vertices' element indices, ascending.  The
    coordinate tuples (``vertices``) are read from the algebra's digit table
    and the labels rendered from the algebra, each the first time it is read.
    """

    def __init__(self, n, rows, indices, algebra):
        super().__init__(n, rows)
        self.indices = tuple(indices)
        self.algebra = algebra

    @cached_property
    def vertices(self):
        digits = self.algebra.space.digits
        return tuple(digits[x] for x in self.indices)

    @cached_property
    def labels(self):
        return tuple(self.algebra.element_label(v) for v in self.vertices)


def build_graph(L):
    """Build the non-commuting graph of a non-abelian algebra.

    Row ``x`` is every vertex outside the centralizer: x commutes with y
    exactly when y lies in C(x) = ker ad(x) (Lem2.2).  C(x) is
    ``space.solutions`` of the rows of ad(x), an AND of hyperplane masks,
    and the center Z is ``L.center_mask``, so no row reduction runs.  Every
    row of ad(x) annihilates Z, so C(x) contains Z; the row is the
    complement of C(x) with the central bits dropped, one shift per run of
    vertices between consecutive central indices.  Rows are found per line
    {cx : c != 0}, on element indices: C(cx) = C(x), so the first vertex of
    a line runs ``solutions`` once and its row is kept under the line's
    ``space.line`` entry.  Every member of x + Z has the same C(x) too, so
    rows are also kept per centralizer mask, one per twin class of the graph
    and the only sharing left at q = 2, where every line is a single vertex.

    Raises AbelianAlgebra when the center is all of L (the graph would be
    null) and CapExceeded when q^dim exceeds the element cap.
    """
    if L.is_abelian():
        raise AbelianAlgebra("abelian algebra: the non-commuting graph has no vertices")
    V = L.space  # checks the element cap before any table is built
    center = list(bits(L.center_mask))
    # each run of vertices between central indices z < z' as (first index,
    # mask of its length, its offset among the vertices)
    runs = []
    offset = 0
    for z, z_next in zip(center, center[1:] + [L.order]):
        if z_next > z + 1:
            runs.append((z + 1, (1 << (z_next - z - 1)) - 1, offset))
            offset += z_next - z - 1
    solutions, ad_rows, line = V.solutions, L.ad_rows, V.line
    rows_by_centralizer, row_of = {}, {}
    indices, rows = [], []
    for first, run, _ in runs:
        for x in range(first, first + run.bit_length()):
            row = row_of.get(line[x])
            if row is None:
                commuting = solutions(ad_rows[x])
                row = rows_by_centralizer.get(commuting)
                if row is None:
                    row = 0
                    for start, mask, shift in runs:
                        row |= (~commuting >> start & mask) << shift
                    rows_by_centralizer[commuting] = row
                row_of[line[x]] = row
            indices.append(x)
            rows.append(row)
    return NcGraph(len(indices), rows, indices, L)
