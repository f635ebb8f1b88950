"""Independent reference code for the benchmark: field arithmetic, brackets,
non-commuting graphs and the complete-multipartite isomorphism test.

Nothing here imports lie_ncg.  Element codes follow the package's documented
encoding (base-p digits of the polynomial representative, little-endian, with
t^2 + t + 1 as the F_4 modulus), so a spec written from these tables means the
same algebra to the program, and vertex labels match its exports.
"""

from itertools import combinations, product

# Reduction polynomials for the non-prime orders the workloads use, constant
# term first.
_REDUCTION = {4: (1, 1, 1)}


class GF:
    """F_q by full operation tables, for q prime or q = 4."""

    def __init__(self, q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k, m = 0, q
        while m % p == 0:
            m //= p
            k += 1
        if m != 1 or (k > 1 and q not in _REDUCTION):
            raise ValueError(f"unsupported field order {q}")
        self.q = q
        digits = [tuple((c // p**i) % p for i in range(k)) for c in range(q)]
        code = {d: c for c, d in enumerate(digits)}
        poly = _REDUCTION.get(q)
        self.add = [[code[tuple((x + y) % p for x, y in zip(digits[a], digits[b]))]
                     for b in range(q)] for a in range(q)]
        self.mul = [[code[_poly_mul(digits[a], digits[b], p, poly)] for b in range(q)]
                    for a in range(q)]
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [None] + [next(b for b in range(q) if self.mul[a][b] == 1)
                             for a in range(1, q)]

    def sub(self, a, b):
        return self.add[a][self.neg[b]]


def _poly_mul(da, db, p, poly):
    k = len(da)
    if k == 1:
        return ((da[0] * db[0]) % p,)
    prod = [0] * (2 * k - 1)
    for i, a in enumerate(da):
        for j, b in enumerate(db):
            prod[i + j] = (prod[i + j] + a * b) % p
    # reduce with the monic modulus: t^k = -(poly[0] + ... + poly[k-1] t^(k-1))
    for deg in range(2 * k - 2, k - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for i in range(k):
                prod[deg - k + i] = (prod[deg - k + i] - c * poly[i]) % p
    return tuple(prod[:k])


class Algebra:
    """Structure constants on F_q^dim: ``table[(i, j)]`` for i < j."""

    def __init__(self, field, dim, table, names):
        self.f = field
        self.dim = dim
        zero = (0,) * dim
        self.table = {p: tuple(table.get(p, zero)) for p in combinations(range(dim), 2)}
        self.names = tuple(names)

    def bracket(self, u, v):
        f = self.f
        out = [0] * self.dim
        for (i, j), c in self.table.items():
            s = f.sub(f.mul[u[i]][v[j]], f.mul[u[j]][v[i]])
            if s:
                for k, ck in enumerate(c):
                    if ck:
                        out[k] = f.add[out[k]][f.mul[s][ck]]
        return tuple(out)

    def is_jacobi(self):
        basis = [tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim)]
        zero = (0,) * self.dim
        for a, b, c in combinations(basis, 3):
            acc = zero
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                t = self.bracket(x, self.bracket(y, z))
                acc = tuple(self.f.add[s][w] for s, w in zip(acc, t))
            if acc != zero:
                return False
        return True

    def elements(self):
        """All elements in increasing little-endian index order."""
        return [tuple(reversed(c)) for c in product(range(self.f.q), repeat=self.dim)]

    def label(self, vec):
        terms = [n if c == 1 else f"{c}{n}" for c, n in zip(vec, self.names) if c]
        return "+".join(terms) if terms else "0"

    def graph(self):
        """(labels, rows) of the non-commuting graph, vertices in index order."""
        zero = (0,) * self.dim
        basis = [tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim)]
        verts = [x for x in self.elements()
                 if any(self.bracket(x, b) != zero for b in basis)]
        rows = [0] * len(verts)
        for a, b in combinations(range(len(verts)), 2):
            if self.bracket(verts[a], verts[b]) != zero:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        return [self.label(v) for v in verts], rows


def jacobi_tables(n, q):
    """Every structure table on F_q^n satisfying Jacobi, as tuples of pair
    vectors in (0,1), (0,2), ... order; abelian included."""
    f = GF(q)
    pairs = list(combinations(range(n), 2))
    vectors = list(product(range(q), repeat=n))
    out = []
    for assignment in product(vectors, repeat=len(pairs)):
        if Algebra(f, n, dict(zip(pairs, assignment)), "x" * n).is_jacobi():
            out.append(tuple(assignment))
    return out


def multipartite_parts(n, rows):
    """Sorted part sizes when the graph is complete multipartite (its
    complement is a disjoint union of cliques), else None."""
    full = (1 << n) - 1
    seen = 0
    parts = []
    for v in range(n):
        if seen >> v & 1:
            continue
        part = ~rows[v] & full  # v and its non-neighbours
        m = part
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if ~rows[u] & full != part:
                return None
        seen |= part
        parts.append(part.bit_count())
    return tuple(sorted(parts))


def isomorphic(g1, g2):
    """True/False when decidable from the multipartite structure, else None.

    Being complete multipartite is an isomorphism invariant, and two complete
    multipartite graphs are isomorphic exactly when their part sizes agree.
    """
    p1 = multipartite_parts(len(g1), g1)
    p2 = multipartite_parts(len(g2), g2)
    if p1 is not None and p2 is not None:
        return p1 == p2
    if (p1 is None) != (p2 is None):
        return False
    return None


def witness_ok(rows1, rows2, witness):
    """Whether ``witness`` (dict vertex -> vertex) is an isomorphism."""
    n = len(rows1)
    if len(rows2) != n or sorted(witness) != list(range(n)) or \
            sorted(witness.values()) != list(range(n)):
        return False
    for u, v in combinations(range(n), 2):
        if (rows1[u] >> v & 1) != (rows2[witness[u]] >> witness[v] & 1):
            return False
    return True


def relabel(rows, perm):
    """Rows of the graph with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for u, row in enumerate(rows):
        r = 0
        while row:
            v = (row & -row).bit_length() - 1
            row &= row - 1
            r |= 1 << perm[v]
        out[perm[u]] = r
    return out


# -- seeded basis changes -------------------------------------------------------


def random_invertible(f, n, rng):
    while True:
        m = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
        inv = mat_inverse(f, m)
        if inv is not None:
            return m, inv


def mat_inverse(f, m):
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        s = f.inv[a[col][col]]
        a[col] = [f.mul[s][x] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                c = a[r][col]
                a[r] = [f.sub(x, f.mul[c][y]) for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def change_basis(alg, g, ginv):
    """The same algebra in the basis whose vectors are the columns of g."""
    f, n = alg.f, alg.dim
    cols = [tuple(g[r][c] for r in range(n)) for c in range(n)]
    table = {}
    for i, j in combinations(range(n), 2):
        w = alg.bracket(cols[i], cols[j])
        table[(i, j)] = tuple(
            _dot(f, ginv[r], w) for r in range(n)
        )
    return Algebra(f, n, table, alg.names)


def _dot(f, row, vec):
    acc = 0
    for a, b in zip(row, vec):
        acc = f.add[acc][f.mul[a][b]]
    return acc


def to_spec(alg):
    """The JSON spec dict of an algebra (only nonzero brackets listed)."""
    brackets = []
    for (i, j), c in alg.table.items():
        if any(c):
            brackets.append({
                "left": alg.names[i],
                "right": alg.names[j],
                "value": {alg.names[k]: ck for k, ck in enumerate(c) if ck},
            })
    return {"q": alg.f.q, "dim": alg.dim, "basis": list(alg.names), "brackets": brackets}


def from_spec(spec):
    names = spec["basis"]
    index = {n: i for i, n in enumerate(names)}
    f = GF(spec["q"])
    table = {}
    for rec in spec["brackets"]:
        i, j = index[rec["left"]], index[rec["right"]]
        vec = [0] * spec["dim"]
        for name, c in rec["value"].items():
            vec[index[name]] = c
        if i > j:
            i, j = j, i
            vec = [f.neg[c] for c in vec]
        table[(i, j)] = tuple(vec)
    return Algebra(f, spec["dim"], table, names)
