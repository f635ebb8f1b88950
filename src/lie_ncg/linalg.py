"""Dense linear algebra over a small finite field.

Matrices are lists of row tuples/lists of element codes.  Everything is exact
and deterministic; subspaces are canonicalized to reduced row echelon form so
subspace equality is plain tuple equality.
"""

from __future__ import annotations

from itertools import product


def rref(field, rows):
    """Reduced row echelon form; returns (rows_without_zero_rows, pivot_cols)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inverse(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def kernel_basis(field, rows, ncols):
    """RREF basis of the right kernel of the matrix with the given rows."""
    reduced, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in zip(reduced, pivots):
            vec[pc] = field.neg(r[fc])
        basis.append(tuple(vec))
    reduced_basis, _ = rref(field, basis)
    return reduced_basis


def mat_vec(field, rows, vec):
    out = []
    for row in rows:
        acc = 0
        for a, x in zip(row, vec):
            if a and x:
                acc = field.add(acc, field.mul(a, x))
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
        f = self.field
        n = self.ambient_dim
        for coeffs in product(f.elements(), repeat=self.dim):
            vec = [0] * n
            for c, row in zip(coeffs, self.basis_matrix):
                if c:
                    vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, row)]
            yield tuple(vec)

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
