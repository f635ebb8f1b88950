"""Graph isomorphism and canonical forms from one canonical labeling.

``_canonical`` orders the vertices of a graph so that isomorphic graphs get
the same certificate, and ``isomorphism`` maps the i-th vertex of one
labeling to the i-th vertex of the other.

A complete multipartite graph (every non-commuting graph of dimension <= 3)
is labeled directly from the parts ``Graph.multipartite_parts`` holds: the
parts by (size, least vertex), each part's vertices in ascending order.  Its
part sizes fix it up to isomorphism, so its certificate is ``K<n>:`` followed
by those sizes, ascending.  Any other graph takes the lexicographically
minimal adjacency code over all vertex orderings compatible with the
iterated-degree refinement, found by individualization-refinement with
prefix pruning and automorphism pruning (McKay & Piperno, "Practical graph
isomorphism II", 2014): two leaves with equal codes give an automorphism,
and subtrees that an automorphism maps onto ones already searched are
skipped, the orbits read off ``graphs.components``.  Its certificate is
``G<n>:`` followed by that code.  Being complete multipartite is an
isomorphism invariant, so the two forms never meet.  Below a discrete
colouring (one vertex per colour) individualizing changes nothing, so
those levels are not refined.  ``refine_colors`` stops at the first round
that splits no class, whose colouring every later round would return again,
so it gives what rounds run to their fixpoint give.  Only the search is
capped: it refuses graphs over ``ISO_CAP`` vertices and stops with
CapExceeded once its levels are charged over ``ISO_ROW_BUDGET`` rows, never
fewer than their refinements read.
"""

from itertools import chain

from .errors import CapExceeded
from .graphs import components

ISO_CAP = 64
# Rows charged per labeling.  A refinement round reads one row per vertex, and
# the search time follows the rows.  A level whose colouring has k' classes
# against its parent's k (1 at the root) is charged n * max(k' - k, 1).  That
# is at least the rows its refinement reads: each colouring the search holds
# is stable, and every round but the last adds a class, so at most k' - k
# rounds run below a cell of two or more, which individualizing splits for
# free, one below a singleton, none at a discrete level, which is not refined,
# and at most k' - 1 at the root, whose degree round is free.  The 60-vertex
# ``heisenberg_f4`` graph forced through ``_search_order`` is charged 114,240
# rows for 110,760 read, in 0.51-0.53 s, 4.5 us a charged row on a 2-vCPU
# Xeon, so the budget leaves it 20x headroom and is spent in under 12 s.
ISO_ROW_BUDGET = 2_300_000


def refine_colors(g, colors=None):
    """Iterated neighbourhood refinement; returns a stable vertex colouring.

    Colours are small integers, renumbered canonically by (old colour,
    neighbour-colour multiset) at every round, so they are
    isomorphism-invariant.  A uniform colouring's first round ranks the
    vertices by degree, so it is read off ``g.degrees``.  A round only splits
    classes, so one that leaves the number of classes unchanged leaves the
    partition as it was.  The next round then sorts by that round's colours
    first, and they are 0..k-1, so it returns the same list, as does every
    round after it.  The refinement stops there, or at a discrete colouring,
    which no round can split, and returns what rounds run until one changes
    nothing return.
    """
    n = g.n
    classes = 1 if colors is None else len(set(colors))
    signatures = g.degrees if classes < 2 else None
    while True:
        if signatures is None:
            signatures = [
                (c, tuple(sorted(map(colors.__getitem__, ns))))
                for c, ns in zip(colors, g.neighbours)
            ]
        order = sorted(set(signatures))
        ranks = {sig: i for i, sig in enumerate(order)}
        colors = [ranks[sig] for sig in signatures]
        if len(order) == classes or len(order) == n:
            return colors
        classes, signatures = len(order), None


def _row(g, order, v):
    """Adjacency of v to the vertices of ``order``, bit i for order[i]."""
    adjacent = g.rows[v]
    row = 0
    for i, u in enumerate(order):
        if adjacent >> u & 1:
            row |= 1 << i
    return row


def _search_order(g, target=None):
    """(code, order): the first ordering, in search order, with the minimal
    adjacency code among those compatible with refinement, and that code,
    one int per position k with bit i set when order[k] is adjacent to
    order[i].

    Given a ``target`` code, the search unwinds at its first leaf whose code
    is <= target.  Up to that leaf it is the full search, so a leaf equal to
    the target is the full search's (code, order); a smaller one gives
    (code, None), as the graph's minimal code is then below the target.

    Individualization-refinement with prefix pruning and automorphism
    pruning.  A leaf with the same code as the best one gives the
    automorphism best_order[i] -> order[i]; it maps the subtree where the
    two leaves part onto the one searched before it, so the search unwinds
    to that node.  A candidate in the orbit of an earlier sibling under the
    automorphisms that fix the current prefix, ``graphs.components`` over
    their pairs (v, gamma(v)), is skipped.  Every skipped subtree is the
    image of one searched earlier, so the first leaf with the minimal code
    is the same as in the exhaustive search.  Raises CapExceeded once
    the levels are charged over ISO_ROW_BUDGET rows.
    """
    n = g.n
    best_code = best_order = None
    automorphisms = []  # each as a list: vertex -> image
    order = []
    placed_rows = []  # adjacency of each placed vertex to earlier ones, as ints
    charged = 0

    def charge(rows):
        nonlocal charged
        charged += rows
        if charged > ISO_ROW_BUDGET:
            raise CapExceeded(f"canonical search capped at {ISO_ROW_BUDGET} refinement rows")

    def place(colors):
        """Search below the current prefix; returns the depth to unwind to."""
        nonlocal best_code, best_order
        depth = len(order)
        if depth == n:
            # prefix pruning let only codes up to the best one get here
            code = tuple(placed_rows)
            if best_code is None or code < best_code:
                best_code, best_order = code, list(order)
                return -1 if target is not None and code <= target else n
            # an equal code: best_order[i] -> order[i] is an automorphism
            gamma = [0] * n
            for u, v in zip(best_order, order):
                gamma[u] = v
            automorphisms.append(gamma)
            return next(i for i, u in enumerate(best_order) if u != order[i])
        classes = set(colors)
        # individualizing a vertex of a discrete colouring and refining only
        # renumbers the colours in their order, so it is skipped
        discrete = len(classes) == n
        # each placed vertex has a colour of its own, so the candidates are
        # the least colour class with no placed vertex
        least = min(classes.difference(map(colors.__getitem__, order)))
        tried = []
        reps, known = None, 0
        for v in [v for v in range(n) if colors[v] == least]:
            row = _row(g, order, v)
            # prefix pruning against the current best code
            if best_code is not None and (*placed_rows, row) > best_code[: depth + 1]:
                continue
            if tried and len(automorphisms) > known:
                known = len(automorphisms)
                fixing = [a for a in automorphisms if all(a[u] == u for u in order)]
                reps = components(n, chain.from_iterable(map(enumerate, fixing)))
            if reps is not None and any(reps[v] == reps[u] for u in tried):
                continue
            tried.append(v)
            order.append(v)
            placed_rows.append(row)
            refined = colors if discrete else refine_colors(
                g, [c * 2 + (u == v) for u, c in enumerate(colors)])
            charge(n * max(len(set(refined)) - len(classes), 1))
            back = place(refined)
            order.pop()
            placed_rows.pop()
            if back < depth:
                return back
        return n

    root = refine_colors(g)
    charge(n * max(len(set(root)) - 1, 1))
    place(root)
    if target is not None and best_code < target:
        return best_code, None
    return best_code, best_order


_CERT_CACHE = {}


def _canonical(g, target=None):
    """(certificate, canonical labeling, searched code or None) of g; the
    labeling lists vertices in canonical position order.  A search that a
    ``target`` stops below it gives labeling None and is not cached, nor is
    a graph over ISO_CAP vertices: only the multipartite form labels it,
    which costs less than hashing and keeping its rows."""
    cached = _CERT_CACHE.get(g.rows) if g.n <= ISO_CAP else None
    if cached is not None:
        return cached
    parts = g.multipartite_parts
    if parts is None:
        if g.n > ISO_CAP:
            raise CapExceeded(f"canonical search capped at {ISO_CAP} vertices")
        code, order = _search_order(g, target)
        certificate = f"G{g.n}:" + ",".join(map(str, code))
    else:
        # the parts come in least-vertex order, which a stable sort keeps
        parts = sorted(parts, key=len)
        order = list(chain.from_iterable(parts))
        certificate = f"K{g.n}:" + ",".join(map(str, map(len, parts)))
        code = None
    result = (certificate.encode(), order, code)
    if order is not None and g.n <= ISO_CAP and len(_CERT_CACHE) < 4096:
        _CERT_CACHE[g.rows] = result
    return result


def canonical_certificate(g):
    """Canonical byte-string form of a graph; equality iff isomorphism.

    ``K<n>:`` and the part sizes, ascending, for a complete multipartite
    graph; ``G<n>:`` and the searched adjacency code, one int per vertex,
    for any other."""
    return _canonical(g)[0]


def isomorphism(g1, g2):
    """A vertex bijection preserving adjacency, or None.

    Screens on vertex count and degree sequence, then compares canonical
    certificates; the witness composes the two canonical labelings.  A
    complete multipartite graph is never isomorphic to one that is not, so
    the screen also compares the two shapes.  So a pair the screen separates
    is answered at any size, and only a pair that needs the search is
    refused over ISO_CAP vertices.  The search of g2 takes g1's code as its
    target, so it stops at the first leaf that decides the pair.
    """
    if g1.n != g2.n or sorted(g1.degrees) != sorted(g2.degrees):
        return None
    if (g1.multipartite_parts is None) != (g2.multipartite_parts is None):
        return None
    cert1, order1, code1 = _canonical(g1)
    cert2, order2, _ = _canonical(g2, code1)
    if cert1 != cert2:
        return None
    return dict(zip(order1, order2))
