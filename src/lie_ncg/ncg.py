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

The graph is fixed by the centralizers C(x), as x and y are adjacent
exactly when y is not in C(x), and the center Z is their AND.  So
``build_graph`` memoizes it per space (``VectorSpace.graphs``), keyed by
the mask of each line's centralizer alone: many algebras share one
centralizer family (the 1569 of the criterion-1 pool have 47), and each of
them gets its own ``NcGraph``, with its own algebra and labels, over one
shared set of rows and one shared ``Graph.facts`` dict, so each invariant
(``graphs.fact``) is computed once per family.  The memo is bounded by
GRAPH_MEMO_BYTES per space and holds no algebra, label or vertex tuple,
and Lem2.2's centralizer orders, ranks of ad(x) memoized by the lines of
its rows (``VectorSpace.rank``), never read it or any mask.
"""

from __future__ import annotations

from .errors import AbelianAlgebra
from .graphs import Graph
from .linalg import bits, first_read

# a space stops keeping build_graph's cores once this many bytes of them
# could be held at its worst case: two cores at the default element cap
GRAPH_MEMO_BYTES = 1 << 24
# the worst-case bytes of one core's facts dict (``graphs.fact``): twelve
# names, each holding a bool, a small int, inf, a 2-tuple or a frozenset
# of at most two figure ids, 1.9 KB as sys.getsizeof counts the dict, its
# keys, its values and their items
FACTS_BYTES = 2048


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

    @first_read
    def vertices(self):
        digits = self.algebra.space.digits
        return tuple(digits[x] for x in self.indices)

    @first_read
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
    {cx : c != 0}, on element indices: C(cx) = C(x), so ``solutions`` runs
    once per line, at its representative (``space.line``).  Every member of
    x + Z has the same C(x) too, so rows are also kept per centralizer mask,
    one per twin class of the graph and the only sharing left at q = 2,
    where every line is a single vertex.

    The graph is memoized on its centralizer family, in ``space.graphs``:
    the key is the mask of C(x) of each line outside Z, in the index order
    of the lines' representatives.  Z is the AND of those masks.  Within one
    space, Z fixes the vertices and their lines, and each line's mask fixes
    its rows, so the key fixes the graph.  The masks are solved on every
    call, and the key is looked up before any vertex is laid out.  A known
    key gives a new ``NcGraph`` of L over its core.  Only a new key reads
    Z's bits, lays out the vertices, builds the rows and the ``Graph`` facts
    and keeps them as a core: ``n``, ``rows``, ``indices``, ``degrees``,
    ``twin_classes``, ``multipartite_parts`` and the ``facts`` dict.
    Nothing mutates the core but the facts dict, which each fact fills on
    its first read by any graph of the family.  The graph renders its own
    vertices and labels from L, and the memo holds no algebra.
    ``Instance.centralizer_orders`` ranks ad(x) by elimination and never
    reads the memo, so Lem2.2 still compares the rows with centralizers
    found another way.

    A space stops keeping cores once it holds GRAPH_MEMO_BYTES of them at
    its worst case: at most (q^dim - 1)/(q - 1) + 1 masks and q^dim - 1
    rows of q^dim bits, each charged q^dim/8 + 256 bytes for the int, its
    tuple slot and the vertex's index, degree and twin-class entry, plus
    FACTS_BYTES for the facts dict.  At the default element cap, F_2^12,
    that is 8191 x 768 + 2048 bytes, 6.3 MB a core (aff1^6 has 4095 lines
    of 4096-bit masks and 4095 distinct rows), so a space keeps two of
    them; over F_3^3 it keeps 1352.

    Raises AbelianAlgebra when the center is all of L (the graph would be
    null) and CapExceeded when q^dim exceeds the element cap.
    """
    if L.is_abelian():
        raise AbelianAlgebra("abelian algebra: the non-commuting graph has no vertices")
    V = L.space  # checks the element cap before any table is built
    Z = L.center_mask
    solutions, ad_rows, line = V.solutions, L.ad_rows, V.line
    # C(x) of each line outside Z, solved at its representative, in index order
    commuting = {x: solutions(ad_rows[x])
                 for x in range(1, L.order) if line[x] == x and not Z >> x & 1}
    memo = V.graphs
    key = tuple(commuting.values())
    core = memo.get(key)
    if core is not None:
        g = NcGraph.__new__(NcGraph)
        vars(g).update(core)
        g.algebra = L
        return g
    center = list(bits(Z))
    # each run of vertices between central indices z < z' as (first index,
    # mask of its length, its offset among the vertices)
    runs = []
    offset = 0
    for z, z_next in zip(center, center[1:] + [L.order]):
        if z_next > z + 1:
            runs.append((z + 1, (1 << (z_next - z - 1)) - 1, offset))
            offset += z_next - z - 1
    indices = [x for first, run, _ in runs for x in range(first, first + run.bit_length())]
    row_of = {}  # per centralizer mask
    for mask in commuting.values():
        if mask not in row_of:
            row = 0
            for start, run, shift in runs:
                row |= (~mask >> start & run) << shift
            row_of[mask] = row
    g = NcGraph(len(indices), [row_of[commuting[line[x]]] for x in indices], indices, L)
    order = L.order
    worst = ((order - 1) // (L.field.q - 1) + order) * (order // 8 + 256) + FACTS_BYTES
    if (len(memo) + 1) * worst <= GRAPH_MEMO_BYTES:
        core = dict(vars(g))
        del core["algebra"]
        memo[key] = core
    return g
