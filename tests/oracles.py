"""Independent brute-force oracles used to cross-check library results.

Everything here deliberately avoids the code paths it validates.  Field
arithmetic is this module's own: ``arithmetic(q)`` builds F_q from integers
mod p and, for q = p^k with k > 1, from products of base-p digit
polynomials reduced mod the shipped reduction polynomial, and no oracle
reads the library's field tables itself.  Row reduction, spans, kernel
masks, brackets and ad(x) go through ``arithmetic`` method calls on
coordinate tuples, not the index-coded vectors the library uses,
centralizers and centers are found by scanning all elements, [L, L] and the
lower central series by reducing ``bracket_by_methods`` brackets,
non-commuting graphs by bracketing every pair of vertices (centralizers,
centers and these graphs with the library's ``LieAlgebra._bracket``, which
the tests check against ``bracket_by_methods``), planarity by searching
for a forbidden subdivision, domination by trying every subset, Hamilton
cycles by backtracking over every path from vertex 0 on the rows alone, Lie
structures by testing the Jacobi identity on every structure tensor,
GL(n, q) orbits by applying every invertible matrix through
``transform_by_methods`` (each new basis pair bracketed with
``bracket_by_methods``, then rewritten in the new coordinates by
``arithmetic`` method calls), canonical labelings by searching every
ordering the refinement allows, certificates by coding each vertex's
adjacency to the vertices before it, isomorphism witnesses by testing every
vertex pair, exports by sorting every edge by its label pair, complete
multipartite parts as the cliques of the complement, and the conjecture
table by comparing every pair of instances.  ``edges`` and ``to_networkx``
hand a graph to networkx, the oracle for the other graph invariants.
``has_edge`` and ``catalog_entry`` are lookups the tests share,
``complete_graph`` builds K_n for them, and ``LabeledGraph`` gives a Graph
vertex names for the exports.
"""

import json
from functools import cache, reduce
from itertools import combinations, product
from xml.sax.saxutils import escape

import networkx as nx

from lie_ncg.catalog import builtin_catalog
from lie_ncg.enumeration import tensor_key
from lie_ncg.gf import REDUCTION_POLYNOMIALS
from lie_ncg.graphs import Graph
from lie_ncg.iso import canonical_certificate, refine_colors
from lie_ncg.liealg import LieAlgebra
from lie_ncg.linalg import bits
from lie_ncg.ncg import NcGraph


def has_edge(g, u, v):
    """Whether u and v are adjacent: bit v of row u."""
    return bool(g.rows[u] >> v & 1)


def complete_graph(n):
    """K_n: every vertex adjacent to every other."""
    full = (1 << n) - 1
    return Graph(n, [full & ~(1 << v) for v in range(n)])


class LabeledGraph(Graph):
    """A Graph with vertex names, for the export tests: the exports read
    ``labels``, and in the library only ``NcGraph`` has them."""

    def __init__(self, n, rows, labels):
        super().__init__(n, rows)
        self.labels = tuple(labels)


def catalog_entry(name):
    """The catalog entry called ``name``."""
    return next(entry for entry in builtin_catalog() if entry.name == name)


# -- field arithmetic of its own ------------------------------------------------


class Arithmetic:
    """F_q on the package's element codes (little-endian base-p digits),
    computed without ``lie_ncg.gf``'s tables: digits add mod p, and
    products are polynomial products reduced mod the shipped monic
    reduction polynomial, constant term first.  1/a is a^(q - 2)."""

    def __init__(self, q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k = next(k for k in range(1, q) if p**k == q)
        poly = REDUCTION_POLYNOMIALS[q] if k > 1 else ()
        digits = [tuple(c // p**i % p for i in range(k)) for c in range(q)]
        code = {d: c for c, d in enumerate(digits)}

        def product_of(da, db):
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
            # t^k = -(poly[0] + poly[1] t + ... + poly[k-1] t^(k-1))
            for deg in range(2 * k - 2, k - 1, -1):
                c, prod[deg] = prod[deg], 0
                for i in range(k):
                    prod[deg - k + i] = (prod[deg - k + i] - c * poly[i]) % p
            return code[tuple(prod[:k])]

        self._add = [[code[tuple((x + y) % p for x, y in zip(da, db))] for db in digits]
                     for da in digits]
        self._mul = [[product_of(da, db) for db in digits] for da in digits]
        self._neg = [code[tuple(-x % p for x in d)] for d in digits]
        self._inv = [None]
        for a in range(1, q):
            power = 1
            for _ in range(q - 2):
                power = self._mul[power][a]
            self._inv.append(power)

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inverse(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]


@cache
def arithmetic(q):
    """The ``Arithmetic`` of F_q, built once per q."""
    return Arithmetic(q)


def rref_by_methods(field, rows):
    """Reduced row echelon form of row tuples, returned as (nonzero rows,
    pivot columns), computed with one ``arithmetic`` method call per
    coefficient."""
    f = arithmetic(field.q)
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = f.inverse(mat[r][c])
        mat[r] = [f.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                m = mat[i][c]
                mat[i] = [f.sub(x, f.mul(m, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def mat_inv(field, rows):
    """The inverse of a square matrix of row tuples, or None if it is
    singular: the right half of the reduced [rows | I]."""
    n = len(rows)
    aug = [tuple(r) + tuple(int(i == j) for j in range(n)) for i, r in enumerate(rows)]
    reduced, pivots = rref_by_methods(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(row[n:] for row in reduced)


def span_by_methods(field, basis, n):
    """Every vector of F_q^n spanned by the rows of ``basis``, in
    ``itertools.product`` order of their coefficient vectors, with one
    ``arithmetic`` method call per coefficient."""
    f = arithmetic(field.q)
    out = []
    for coeffs in product(field.elements(), repeat=len(basis)):
        vec = (0,) * n
        for c, row in zip(coeffs, basis):
            vec = tuple(f.add(x, f.mul(c, y)) for x, y in zip(vec, row))
        out.append(vec)
    return out


def solutions_by_methods(field, dim, rows):
    """The bitmask of {y in F_q^dim : r . y = 0 for every r in ``rows``},
    bit k for the k-th vector in little-endian index order, found by
    scanning every y with ``arithmetic`` method calls."""
    f = arithmetic(field.q)
    mask = 0
    for k, c in enumerate(product(field.elements(), repeat=dim)):
        y = tuple(reversed(c))
        if all(reduce(f.add, map(f.mul, r, y), 0) == 0 for r in rows):
            mask |= 1 << k
    return mask


def mask_members(L, mask):
    """The elements of L whose little-endian index bits are set in ``mask``."""
    return {v for k, v in enumerate(elements(L)) if mask >> k & 1}


def subspace_members(L, basis):
    """The set of elements of L spanned by the coordinate tuples ``basis``."""
    return set(span_by_methods(L.field, basis, L.dim))


def bracket_by_methods(L, u, v):
    """[u, v] = sum over i < j of (u_i v_j - u_j v_i) c_ij, read straight
    from ``L.structure`` with ``arithmetic`` method calls."""
    f = arithmetic(L.field.q)
    out = [0] * L.dim
    for (i, j), cij in L.structure.items():
        s = f.sub(f.mul(u[i], v[j]), f.mul(u[j], v[i]))
        for k, c in enumerate(cij):
            out[k] = f.add(out[k], f.mul(s, c))
    return tuple(out)


def derived_by_methods(L):
    """The members of [L, L]: the span of every [e_i, e_j], each bracketed
    with ``bracket_by_methods`` and the set reduced by ``rref_by_methods``."""
    units = [tuple(int(i == j) for i in range(L.dim)) for j in range(L.dim)]
    rows = [bracket_by_methods(L, u, v) for u, v in combinations(units, 2)]
    return subspace_members(L, rref_by_methods(L.field, rows)[0])


def nilpotent_by_methods(L):
    """True iff the lower central series L^1 = L, L^(k+1) = [L, L^k] reaches
    0, each term reduced by ``rref_by_methods`` from the brackets of the
    unit vectors with the last term's rows, by ``bracket_by_methods``."""
    units = [tuple(int(i == j) for i in range(L.dim)) for j in range(L.dim)]
    current = units
    while current:
        rows = [bracket_by_methods(L, u, b) for u in units for b in current]
        nxt = rref_by_methods(L.field, rows)[0]
        if len(nxt) == len(current):
            return False
        current = nxt
    return True


def transform_by_methods(L, g, ginv):
    """The structure table of L rewritten in the basis whose vectors are the
    columns of g: [g_i, g_j] by ``bracket_by_methods``, then its coordinates
    in that basis as g^-1 times it, with ``arithmetic`` method calls."""
    f, n = arithmetic(L.field.q), L.dim
    cols = [tuple(row[c] for row in g) for c in range(n)]
    table = {}
    for i, j in combinations(range(n), 2):
        w = bracket_by_methods(L, cols[i], cols[j])
        table[i, j] = tuple(reduce(f.add, map(f.mul, row, w), 0) for row in ginv)
    return table


def ad_matrix_by_methods(L, x):
    """The matrix of y -> [x, y] as row tuples: column j is [x, e_j]."""
    units = [tuple(int(i == j) for i in range(L.dim)) for j in range(L.dim)]
    return list(zip(*(bracket_by_methods(L, x, e) for e in units)))


def elements(L):
    """Every element of L as a coordinate tuple, in increasing little-endian
    index sum v_i q^i: the first coordinate varies fastest."""
    return [tuple(reversed(c)) for c in product(L.field.elements(), repeat=L.dim)]


def brute_centralizer(L, x):
    """All elements commuting with x, by scanning the whole algebra."""
    zero = L.zero()
    return {y for y in elements(L) if L._bracket(x, y) == zero}


def brute_center(L):
    zero = L.zero()
    out = set()
    for x in elements(L):
        if all(L._bracket(x, L.basis_vector(i)) == zero for i in range(L.dim)):
            out.add(x)
    return out


def graph_by_brackets(L):
    """The non-commuting graph of L by bracketing every pair of non-central
    elements, with the vertex order and labels of ``build_graph``.  The
    element indices sum v_i q^i are computed here, with plain ints."""
    center = brute_center(L)
    vertices = [v for v in elements(L) if v not in center]
    q = L.field.q
    indices = [sum(c * q**i for i, c in enumerate(v)) for v in vertices]
    n = len(vertices)
    rows = [0] * n
    zero = L.zero()
    for a in range(n):
        for b in range(a + 1, n):
            if L._bracket(vertices[a], vertices[b]) != zero:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return NcGraph(n, rows, indices, L)


def jacobi_failure_by_methods(field, n, table):
    """The first basis triple (i, j, k), in ``combinations`` order, on which
    the Jacobi identity of the structure ``table`` ((a, b) -> [e_a, e_b] for
    a < b) fails, or None; with one ``arithmetic`` method call per
    coefficient."""
    f = arithmetic(field.q)

    def bracket_basis(a, b):
        if a == b:
            return (0,) * n
        if a < b:
            return table[a, b]
        return tuple(f.neg(c) for c in table[b, a])

    def bracket_with(a, w):
        # [e_a, w] as the sum of w_m [e_a, e_m]
        out = [0] * n
        for m, wm in enumerate(w):
            for r, c in enumerate(bracket_basis(a, m)):
                out[r] = f.add(out[r], f.mul(wm, c))
        return out

    for i, j, k in combinations(range(n), 3):
        acc = [0] * n
        for a, (b, c) in ((i, (j, k)), (k, (i, j)), (j, (k, i))):
            acc = [f.add(x, y) for x, y in zip(acc, bracket_with(a, bracket_basis(b, c)))]
        if any(acc):
            return i, j, k
    return None


def jacobi_tensors_by_filter(n, field):
    """Every Lie structure on F_q^n, found by testing the Jacobi identity on
    each of the q^(n * n(n-1)/2) structure tensors, in product order of the
    coefficient vectors c_01, c_02, ..."""
    pairs = list(combinations(range(n), 2))
    vectors = list(product(field.elements(), repeat=n))
    for assignment in product(vectors, repeat=len(pairs)):
        table = dict(zip(pairs, assignment))
        if jacobi_failure_by_methods(field, n, table) is None:
            yield LieAlgebra(field, n, table, validate=False)


def gl_matrices(n, field):
    """All invertible n x n matrices over the field, as row-tuple tuples."""
    mats = []
    for entries in product(field.elements(), repeat=n * n):
        rows = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))
        if mat_inv(field, rows) is not None:
            mats.append(rows)
    return mats


def full_gl_orbits(n, field):
    """GL(n, q)-orbits of the Jacobi tensors as (representative key, size),
    representatives in first-seen enumeration order, each orbit found by
    applying every matrix of GL(n, q)."""
    gls = [(g, mat_inv(field, g)) for g in gl_matrices(n, field)]
    seen = set()
    orbits = []
    for L in jacobi_tensors_by_filter(n, field):
        key = tensor_key(L.structure, n)
        if key in seen:
            continue
        orbit = {tensor_key(transform_by_methods(L, g, ginv), n) for g, ginv in gls}
        seen |= orbit
        orbits.append((key, len(orbit)))
    return orbits


def exhaustive_canonical_order(g):
    """The first ordering, in search order, with the minimal adjacency code
    among all orderings compatible with ``refine_colors``, found without
    automorphism pruning.  Only the refinement, which defines the
    certificates, is shared with ``lie_ncg.iso``."""
    n = g.n
    best = [None, None]  # code, order

    def search(order, code, colors):
        if len(order) == n:
            if best[0] is None or code < best[0]:
                best[:] = [code, order]
            return
        # the first color class with a vertex not yet placed
        target = min(colors[v] for v in range(n) if v not in order)
        for v in range(n):
            if colors[v] != target or v in order:
                continue
            row = sum(1 << i for i, u in enumerate(order) if has_edge(g, u, v))
            if best[0] is not None and code + (row,) > best[0][: len(order) + 1]:
                continue
            individualized = [2 * c + (u == v) for u, c in enumerate(colors)]
            search(order + [v], code + (row,), refine_colors(g, individualized))

    search([], (), refine_colors(g))
    return best[1]


def certificate_by_rows(g, order):
    """The certificate of g in the labeling ``order``, one row at a time:
    each vertex is coded by ``has_edge`` on every vertex placed before it."""
    rows = [
        sum(1 << i for i, u in enumerate(order[:k]) if has_edge(g, u, v))
        for k, v in enumerate(order)
    ]
    return f"G{g.n}:{','.join(map(str, rows))}".encode()


def first_broken_pair(g1, g2, witness):
    """The first pair (u, v), u < v, in order of u then v, whose adjacency
    the bijection ``witness`` from g1 to g2 does not keep, or None; every
    pair is tested with ``has_edge``."""
    for u, v in combinations(range(g1.n), 2):
        if has_edge(g1, u, v) != has_edge(g2, witness[u], witness[v]):
            return u, v
    return None


# -- edge lists and networkx --------------------------------------------------


def edges(g):
    """The edges (u, v), u < v, in order of u then v."""
    return [(u, v) for u, row in enumerate(g.rows) for v in range(u + 1, g.n) if row >> v & 1]


def to_networkx(g):
    """g as a networkx Graph on the vertices 0..n-1."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edges(g))
    return h


def domination_bruteforce(g):
    """Minimum dominating set size by trying every subset, smallest first."""
    closed = [g.rows[v] | (1 << v) for v in range(g.n)]
    full = (1 << g.n) - 1
    for k in range(1, g.n + 1):
        for subset in combinations(range(g.n), k):
            covered = 0
            for v in subset:
                covered |= closed[v]
            if covered == full:
                return k
    return g.n


def hamiltonian_cycle_exhaustive(g):
    """A Hamilton cycle as a vertex list, or None, by backtracking over
    every path from vertex 0."""
    n = g.n
    if n < 3 or min(row.bit_count() for row in g.rows) < 2:
        return None
    path = [0]
    visited = 1

    def extend():
        nonlocal visited
        u = path[-1]
        if len(path) == n:
            return has_edge(g, u, 0)
        candidates = g.rows[u] & ~visited
        # prune: an unvisited vertex with no free neighbor (and not reachable
        # as the final vertex) makes the partial path dead
        remaining = ~visited & ((1 << n) - 1)
        for v in bits(remaining):
            free = g.rows[v] & (remaining | 1 | (1 << u))
            if free.bit_count() < 2 and remaining.bit_count() > 1:
                return False
        for v in bits(candidates):
            path.append(v)
            visited |= 1 << v
            if extend():
                return True
            path.pop()
            visited &= ~(1 << v)
        return False

    return list(path) if extend() else None


def is_hamilton_cycle(g, cycle):
    """Whether ``cycle`` visits every vertex once, with each consecutive
    pair, the last and the first included, tested with ``has_edge``."""
    return sorted(cycle) == list(range(g.n)) and all(
        has_edge(g, u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])
    )


# -- Kuratowski subdivision search --------------------------------------------


def _disjoint_paths(g, pairs, banned, used):
    """Try to realize all (a, b) pairs as internally disjoint paths whose
    internal vertices avoid ``banned`` (branch vertices) and ``used``."""
    if not pairs:
        return True
    a, b = pairs[0]

    def dfs(v, interior):
        if has_edge(g, v, b):
            if _disjoint_paths(g, pairs[1:], banned, used | interior):
                return True
        for w in range(g.n):
            if w in banned or w in used or w in interior:
                continue
            if has_edge(g, v, w):
                if dfs(w, interior | {w}):
                    return True
        return False

    return dfs(a, set())


def has_k5_subdivision(g):
    for branch in combinations(range(g.n), 5):
        pairs = list(combinations(branch, 2))
        if _disjoint_paths(g, pairs, set(branch), set()):
            return True
    return False


def has_k33_subdivision(g):
    for six in combinations(range(g.n), 6):
        for left in combinations(six, 3):
            if six[0] not in left:
                continue  # fix the first vertex on one side to halve the work
            right = tuple(v for v in six if v not in left)
            pairs = [(a, b) for a in left for b in right]
            if _disjoint_paths(g, pairs, set(six), set()):
                return True
    return False


def planar_by_kuratowski(g):
    """Planarity decided by absence of K_5 and K_{3,3} subdivisions.

    Exponential; intended for graphs with at most ~10 vertices.
    """
    return not (has_k5_subdivision(g) or has_k33_subdivision(g))


# -- complete multipartite parts from the complement ---------------------------


def multipartite_parts_by_complement(g):
    """The parts of g if g is complete multipartite, else None.

    g is complete multipartite exactly when its complement is a disjoint
    union of cliques, and those cliques are the parts.  The components of
    the complement are found by search over non-adjacent pairs; each must be
    a clique of the complement, so no edge of g inside it.  Parts are
    ascending vertex lists, in order of their least vertex.
    """
    seen = set()
    parts = []
    for s in range(g.n):
        if s in seen:
            continue
        component, stack = {s}, [s]
        while stack:
            u = stack.pop()
            for v in range(g.n):
                if v != u and v not in component and not has_edge(g, u, v):
                    component.add(v)
                    stack.append(v)
        if any(has_edge(g, u, v) for u, v in combinations(component, 2)):
            return None
        seen |= component
        parts.append(sorted(component))
    return parts


# -- conjecture table by comparing pairs ---------------------------------------


def conjecture_cells_by_pairs(instances):
    """The (graphs isomorphic?, equal orders?) cells of
    ``explore_conjecture``, by comparing every pair of instances."""
    cells = {"iso/equal": 0, "iso/unequal": 0, "non-iso/equal": 0, "non-iso/unequal": 0}
    keys = [(canonical_certificate(inst.graph), inst.order) for inst in instances]
    for (cert_a, order_a), (cert_b, order_b) in combinations(keys, 2):
        iso = "iso" if cert_a == cert_b else "non-iso"
        equal = "equal" if order_a == order_b else "unequal"
        cells[f"{iso}/{equal}"] += 1
    return cells


# -- exports by sorting every edge ---------------------------------------------


def sorted_label_edges(g):
    """Every edge as (smaller label, larger label), found by testing every
    pair of vertices, sorted."""
    edges = []
    for u, v in combinations(range(g.n), 2):
        if has_edge(g, u, v):
            a, b = sorted((g.labels[u], g.labels[v]))
            edges.append((a, b))
    return sorted(edges)


def dot_by_sorting(g):
    lines = ["graph ncg {"]
    for label in g.labels:
        lines.append(f'  "{label}";')
    for a, b in sorted_label_edges(g):
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graphml_by_sorting(g):
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <graph id="ncg" edgedefault="undirected">',
    ]
    for label in g.labels:
        lines.append(f'    <node id="{escape(label, {chr(34): "&quot;"})}"/>')
    for a, b in sorted_label_edges(g):
        lines.append(
            f'    <edge source="{escape(a, {chr(34): "&quot;"})}" '
            f'target="{escape(b, {chr(34): "&quot;"})}"/>'
        )
    lines.extend(["  </graph>", "</graphml>"])
    return "\n".join(lines) + "\n"


def json_by_sorting(g):
    payload = {
        "vertex_count": g.n,
        "vertices": list(g.labels),
        "edges": [[a, b] for a, b in sorted_label_edges(g)],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
