"""Graph isomorphism and canonical forms from one canonical labeling.

``_canonical`` orders the vertices of a graph so that isomorphic graphs get
the same adjacency code in that order.  ``canonical_certificate`` is ``G<n>:``
followed by that code, so two graphs get the same certificate exactly when
they are isomorphic, and ``isomorphism`` maps the i-th vertex of one labeling
to the i-th vertex of the other.

A complete multipartite graph (every non-commuting graph of dimension <= 3)
is labeled directly from the parts ``Graph.multipartite_parts`` finds: the
parts by (size, least vertex), each part's vertices in ascending order.  Any
other graph takes the lexicographically minimal code over all vertex
orderings compatible with the iterated-degree refinement, found by
individualization-refinement with prefix pruning and automorphism pruning
(McKay & Piperno, "Practical graph isomorphism II", 2014): two leaves with
equal codes give an automorphism, and subtrees that an automorphism maps
onto ones already searched are skipped.  A discrete colouring (one vertex
per colour) ends the descent: below it the search has a single leaf, the
unplaced vertices in ascending colour, and that leaf is coded without
further refinements.  Only that search is capped: it refuses graphs over
``ISO_CAP`` vertices and stops with CapExceeded once its refinements have
scanned ``ISO_ROW_BUDGET`` rows.  Being complete multipartite is an
isomorphism invariant, so the two paths never give one certificate to two
non-isomorphic graphs.
"""

from __future__ import annotations

from .errors import CapExceeded

ISO_CAP = 64
# Refinement rows per labeling.  A refinement round scans one row per vertex,
# and the search time follows the rows: the 60-vertex ``heisenberg_f4`` graph
# forced through ``_search_order`` is charged 223,800 rows (1769 refinements)
# in 2.6-2.7 s, 12 us a row on a 2-vCPU Xeon at 2.1 GHz.  So the budget
# leaves that graph 10x headroom and is spent in under 30 s.  A leaf finished
# below a discrete colouring is charged the 2n rows per level that the
# refinements it replaces were charged, so the budget raises exactly where
# refining every level would exceed it; it over-counts the time of such
# leaves and never under-counts it.
ISO_ROW_BUDGET = 2_300_000


def refine_colors(g, colors=None):
    """Iterated neighborhood refinement; returns a stable vertex coloring.

    Colors are small integers, renumbered canonically by (old color,
    neighbor-color multiset) at every round, so they are isomorphism-invariant.
    """
    n = g.n
    colors = [0] * n if colors is None else list(colors)
    neighbors = [g.neighbors(v) for v in range(n)]
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[u] for u in neighbors[v]))) for v in range(n)
        ]
        order = sorted(set(signatures))
        ranks = {sig: i for i, sig in enumerate(order)}
        new = [ranks[sig] for sig in signatures]
        if new == colors:
            return colors
        colors = new


def _partition_cells(colors):
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return [cells[c] for c in sorted(cells)]


def _row(g, order, v):
    """Adjacency of v to the vertices of ``order``, bit i for order[i]."""
    adjacent = g.rows[v]
    row = 0
    for i, u in enumerate(order):
        if adjacent >> u & 1:
            row |= 1 << i
    return row


def _orbit_reps(n, generators):
    """The smallest member of each vertex's orbit under the given permutations."""
    rep = list(range(n))

    def find(v):
        while rep[v] != v:
            rep[v] = rep[rep[v]]
            v = rep[v]
        return v

    for gamma in generators:
        for v, w in enumerate(gamma):
            a, b = find(v), find(w)
            if a != b:
                rep[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


def _search_order(g):
    """(code, order): the first ordering, in search order, with the minimal
    adjacency code among those compatible with refinement, and that code,
    one int per position k with bit i set when order[k] is adjacent to
    order[i].

    Individualization-refinement with prefix pruning and automorphism
    pruning.  A leaf with the same code as the best one gives the
    automorphism best_order[i] -> order[i]; it maps the subtree where the
    two leaves part onto the one searched before it, so the search unwinds
    to that node.  A candidate in the orbit of an earlier sibling under the
    automorphisms that fix the current prefix is skipped.  Every skipped
    subtree is the image of one searched earlier, so the first leaf with the
    minimal code is the same as in the exhaustive search.  Raises
    CapExceeded once the refinements have scanned ISO_ROW_BUDGET rows.
    """
    n = g.n
    best = {"code": None, "order": None}
    automorphisms = []  # each as a list: vertex -> image
    order = []
    placed_rows = []  # adjacency of each placed vertex to earlier ones, as ints
    scanned = 0

    def charge(rows):
        nonlocal scanned
        scanned += rows
        if scanned > ISO_ROW_BUDGET:
            raise CapExceeded(f"canonical search capped at {ISO_ROW_BUDGET} refinement rows")

    def refine(colors):
        """refine_colors, charged n rows for each round it can have run.
        Every round but the first and the last adds a colour class, so there
        are at most two more rounds than classes added."""
        refined = refine_colors(g, colors)
        charge(n * (len(set(refined)) - len(set(colors)) + 2))
        return refined

    def finish(colors):
        """Finish the one leaf below a discrete colouring.

        Individualizing a vertex of a discrete colouring and refining only
        renumbers the colours in their order, so the leaf places the
        unplaced vertices in ascending colour.  Each level is charged the 2n
        rows its refinement was charged, up to the first row that prefix
        pruning rejects, or to n.  Returns the depth to unwind to: an equal
        code can only come from a leaf outside this one-leaf subtree.
        """
        depth = len(order)
        code = best["code"]
        # once the code is below the best one, prefix pruning rejects no row
        below = code is None or tuple(placed_rows) < code[:depth]
        for v in sorted((v for v in range(n) if v not in order), key=colors.__getitem__):
            row = _row(g, order, v)
            if not below:
                if row > code[len(order)]:
                    break
                below = row < code[len(order)]
            order.append(v)
            placed_rows.append(row)
        charge(2 * n * (len(order) - depth))
        back = n
        if len(order) == n:
            if below:
                best["code"] = tuple(placed_rows)
                best["order"] = list(order)
            else:
                gamma = [0] * n
                for u, v in zip(best["order"], order):
                    gamma[u] = v
                automorphisms.append(gamma)
                back = next(i for i, u in enumerate(best["order"]) if u != order[i])
        del order[depth:], placed_rows[depth:]
        return back

    def place(colors):
        """Search below the current prefix; returns the depth to unwind to."""
        cells = _partition_cells(colors)
        if len(cells) == n:
            return finish(colors)
        depth = len(order)
        # choose the first cell (smallest color) containing an unplaced vertex
        target = None
        for cell in cells:
            free = [v for v in cell if v not in order]
            if free:
                target = free
                break
        tried = []
        reps, known = None, 0
        for v in target:
            row = _row(g, order, v)
            # prefix pruning against the current best code
            if best["code"] is not None:
                prefix = tuple(placed_rows) + (row,)
                if prefix > best["code"][: depth + 1]:
                    continue
            if tried and len(automorphisms) > known:
                known = len(automorphisms)
                fixing = [a for a in automorphisms if all(a[u] == u for u in order)]
                reps = _orbit_reps(n, fixing)
            if reps is not None and any(reps[v] == reps[u] for u in tried):
                continue
            tried.append(v)
            order.append(v)
            placed_rows.append(row)
            # individualize v and re-refine
            refined = refine([c * 2 + (1 if u == v else 0) for u, c in enumerate(colors)])
            back = place(refined)
            order.pop()
            placed_rows.pop()
            if back < depth:
                return back
        return n

    place(refine([0] * n))
    return best["code"], best["order"]


_CERT_CACHE = {}


def _canonical(g):
    """(certificate, canonical labeling) of g; the labeling lists vertices
    in canonical position order."""
    cached = _CERT_CACHE.get((g.n, g.rows))
    if cached is not None:
        return cached
    parts = g.multipartite_parts
    if parts is None:
        if g.n > ISO_CAP:
            raise CapExceeded(f"canonical search capped at {ISO_CAP} vertices")
        code, order = _search_order(g)
        codes = map(str, code)
    else:
        # a vertex is adjacent to exactly the vertices of the earlier parts
        order, codes = [], []
        for part in sorted(parts, key=lambda p: (len(p), p[0])):
            codes += [str((1 << len(order)) - 1)] * len(part)
            order += part
    body = ",".join(codes)
    result = (f"G{g.n}:{body}".encode(), order)
    if len(_CERT_CACHE) < 4096:
        _CERT_CACHE[(g.n, g.rows)] = result
    return result


def canonical_certificate(g):
    """Canonical byte-string form of a graph; equality iff isomorphism."""
    return _canonical(g)[0]


def isomorphism(g1, g2):
    """A vertex bijection preserving adjacency, or None.

    Screens on vertex count and degree sequence, then compares canonical
    certificates; the witness composes the two canonical labelings.  So a
    pair the screen separates is answered at any size, and only a pair that
    needs the search is refused over ISO_CAP vertices.
    """
    if g1.n != g2.n or sorted(g1.degrees()) != sorted(g2.degrees()):
        return None
    cert1, order1 = _canonical(g1)
    cert2, order2 = _canonical(g2)
    if cert1 != cert2:
        return None
    return dict(zip(order1, order2))
