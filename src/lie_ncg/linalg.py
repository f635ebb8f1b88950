"""Dense linear algebra over a small finite field.

Matrices are lists of row tuples/lists of element codes.  Everything is exact
and deterministic; subspaces are canonicalized to reduced row echelon form so
subspace equality is plain tuple equality.

The kernels here index the field's tables (``Field.add_table`` and friends)
instead of calling a ``Field`` method per coefficient: eliminating row ``r``
by a multiple b of the pivot row is ``m = mul[neg[b]]`` followed by
``add[x][m[y]]`` for each pair of entries.
"""

from __future__ import annotations


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


def kernel_basis(field, rows, ncols):
    """RREF basis of the right kernel of the matrix with the given rows."""
    reduced, pivots = rref(field, rows)
    neg = field.neg_table
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in zip(reduced, pivots):
            vec[pc] = neg[r[fc]]
        basis.append(vec)
    reduced_basis, _ = rref(field, basis)
    return reduced_basis


def span(field, basis, n):
    """All q^k vectors of F_q^n spanned by the k rows of ``basis``, listed
    in ``itertools.product`` order of their coefficient vectors (the first
    row's coefficient varies slowest)."""
    add, mul = field.add_table, field.mul_table
    vecs = [(0,) * n]
    for row in basis:
        multiples = [tuple([m[y] for y in row]) for m in mul]
        vecs = [tuple([add[x][y] for x, y in zip(v, w)]) for v in vecs for w in multiples]
    return vecs


def mat_vec(field, rows, vec):
    add, mul = field.add_table, field.mul_table
    out = []
    for row in rows:
        acc = 0
        for a, x in zip(row, vec):
            acc = add[acc][mul[a][x]]
        out.append(acc)
    return tuple(out)


def mat_rank(field, rows):
    reduced, _ = rref(field, rows)
    return len(reduced)


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

    def elements(self):
        """All q^dim vectors of the subspace, in a deterministic order."""
        return span(self.field, self.basis_matrix, self.ambient_dim)

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
