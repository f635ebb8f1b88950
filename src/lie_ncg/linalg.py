"""Exact linear algebra over a small finite field.

Two codings live here.

* **Index-coded vectors of F_q^dim.**  A ``VectorSpace`` codes each vector v
  as one int, its element index sum v_i q^i: the little-endian index in
  which ``LieAlgebra.enumerate_elements`` lists the elements.  Its tables are
  built once per (q, dim) by ``vector_space``: ``digits[v]``, the coordinate
  tuple of v; ``scale[a][v]``, the index of a*v, with q * q^dim entries; and
  addition split over the low ``half`` coordinates and the rest, so
  u + v = ``low[u % split][v % split] + high[u // split][v // split]``, where
  ``split`` = q^half and no table has more than about q * q^dim entries.
  Row reduction eliminates with ``row = add(row, scale[-b][pivot_row])``, so a
  kernel or span member is an int.  The Lie algebra kernels (``build_graph``,
  ``LieAlgebra.center`` and ``LieAlgebra.centralizer_order``) run on these.
* **Row tuples** of field codes, reduced by ``rref``, which indexes the field
  tables (``m = mul[neg[b]]``, then ``add[x][m[y]]`` per entry).  It serves
  the matrices that are not vectors of one F_q^dim: the canonical basis of a
  ``Subspace``, the augmented matrix of ``mat_inv`` and the enumeration's
  augmented Jacobi solve.

Everything is exact and deterministic; subspaces are canonicalized to reduced
row echelon form so subspace equality is plain tuple equality.
"""

from __future__ import annotations

from functools import cache
from operator import mul


def _index_sums(field, k):
    """The q^k x q^k table of u + v over index-coded F_q^k, built one
    coordinate at a time: u + w*a plus v + w*b is (u + v) + w*(a + b)."""
    add = field.add_table
    table = [[0]]
    w = 1
    for _ in range(k):
        table = [
            [x + w * s for s in add[a] for x in row] for a in field.elements() for row in table
        ]
        w *= field.q
    return table


class VectorSpace:
    """F_q^dim with each vector coded as its element index sum v_i q^i.

    Build it through ``vector_space``, which keeps one per (q, dim); its
    tables hold about q * q^dim entries, so callers check the element cap
    first.
    """

    def __init__(self, field, dim):
        q = field.q
        self.field = field
        self.dim = dim
        self.units = tuple(q**i for i in range(dim))
        digits = [()]
        scale = [[0] for _ in field.elements()]
        for w in self.units:
            digits = [d + (c,) for c in field.elements() for d in digits]
            scale = [
                [x + w * m[c] for c in field.elements() for x in row]
                for m, row in zip(field.mul_table, scale)
            ]
        self.digits = tuple(digits)
        self.scale = tuple(map(tuple, scale))
        half = dim // 2
        self.split = q**half
        self.low = _index_sums(field, half)
        self.high = [[self.split * s for s in row] for row in _index_sums(field, dim - half)]

    def code(self, vec):
        """The element index of the coordinate tuple ``vec``."""
        return sum(map(mul, vec, self.units))

    def add(self, u, v):
        split = self.split
        return self.low[u % split][v % split] + self.high[u // split][v // split]

    def sums(self, us, vs):
        """[u + v for u in us for v in vs]: the first list varies slowest."""
        low, high, split = self.low, self.high, self.split
        return [low[u % split][v % split] + high[u // split][v // split] for u in us for v in vs]

    def rref(self, rows):
        """Reduced row echelon form of index-coded rows, pivoting on the
        coordinates in increasing order; returns (nonzero rows, pivot
        coordinates), the coding of what ``rref`` returns on their tuples."""
        digits, scale, add = self.digits, self.scale, self.add
        neg, inv = self.field.neg_table, self.field.inv_table
        mat = [v for v in rows if v]
        nrows = len(mat)
        pivots = []
        r = 0
        for c in range(self.dim):
            if r == nrows:
                break
            for i in range(r, nrows):
                a = digits[mat[i]][c]
                if a:
                    break
            else:
                continue
            prow = mat[i] if a == 1 else scale[inv[a]][mat[i]]
            mat[i] = mat[r]
            mat[r] = prow
            for k, x in enumerate(mat):
                b = digits[x][c]
                if b and k != r:
                    mat[k] = add(x, scale[neg[b]][prow])
            pivots.append(c)
            r += 1
        return mat[:r], pivots

    def rank(self, rows):
        return len(self.rref(rows)[0])

    def kernel(self, rows):
        """A basis of {y : row . y = 0 for every row}, one member per free
        coordinate f of the reduced rows: 1 at f, 0 at the other free
        coordinates and -row[f] at each row's pivot."""
        reduced, pivots = self.rref(rows)
        digits, neg, units = self.digits, self.field.neg_table, self.units
        basis = []
        for f in range(self.dim):
            if f not in pivots:
                v = units[f]
                for row, p in zip(reduced, pivots):
                    v += neg[digits[row][f]] * units[p]
                basis.append(v)
        return basis

    def span(self, basis):
        """All q^k members of the span of the k index-coded rows of
        ``basis``, listed in ``itertools.product`` order of their coefficient
        vectors (the first row's coefficient varies slowest)."""
        vecs = [0]
        for b in basis:
            vecs = self.sums(vecs, [m[b] for m in self.scale])
        return vecs


@cache
def vector_space(field, dim):
    """The one ``VectorSpace`` of F_q^dim, built on first request."""
    return VectorSpace(field, dim)


def rref(field, rows):
    """Reduced row echelon form; returns (rows_without_zero_rows, pivot_cols)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        for i in range(r, nrows):
            if mat[i][c]:
                break
        else:
            continue
        prow = mat[i]
        mat[i] = mat[r]
        if prow[c] != 1:
            m = mul[inv[prow[c]]]
            prow = [m[x] for x in prow]
        mat[r] = prow
        for k, row in enumerate(mat):
            b = row[c]
            if b and k != r:
                m = mul[neg[b]]
                mat[k] = [add[x][m[y]] for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in mat[:r]], pivots


def mat_vec(field, rows, vec):
    add, mul = field.add_table, field.mul_table
    out = []
    for row in rows:
        acc = 0
        for a, x in zip(row, vec):
            acc = add[acc][mul[a][x]]
        out.append(acc)
    return tuple(out)


def mat_inv(field, rows):
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    reduced, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [tuple(row[n:]) for row in reduced]


class Subspace:
    """A subspace of F_q^n held as a canonical RREF basis."""

    def __init__(self, field, ambient_dim, rows):
        self.field = field
        self.ambient_dim = ambient_dim
        reduced, _ = rref(field, rows)
        self.basis_matrix = tuple(reduced)

    @classmethod
    def full(cls, field, ambient_dim):
        rows = [[1 if i == j else 0 for j in range(ambient_dim)] for i in range(ambient_dim)]
        return cls(field, ambient_dim, rows)

    @property
    def dim(self):
        return len(self.basis_matrix)

    @property
    def cardinality(self):
        return self.field.q ** self.dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis_matrix == other.basis_matrix
        )

    def __hash__(self):
        return hash((self.field.q, self.ambient_dim, self.basis_matrix))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of F_{self.field.q}^{self.ambient_dim})"
