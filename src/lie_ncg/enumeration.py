"""Exhaustive enumeration of Lie algebra structures on F_q^n for tiny n, q.

A structure assigns one coefficient vector c_ij to each basis pair ``i < j``;
antisymmetry is then automatic and the only constraint left is the Jacobi
identity on basis triples.  For n <= 2 there is no triple, so every tensor is
a Lie structure.  For n = 3 there is one triple, and with c_01 and c_02 fixed
its Jacobi sum is affine in c_12, so each of the q^6 pairs (c_01, c_02) gives
its structures by one small linear solve, not by testing q^3 candidates.
Deduplication reduces modulo the GL(n, q) basis-change action: each new
tensor's orbit is closed under a generating set of GL(n, q) (the
transvections I + E_ij and the matrices diag(a, 1, ..., 1)), so the work
grows with the orbit, not with |GL(n, q)|.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import CapExceeded
from .liealg import LieAlgebra, jacobi_sum
from .linalg import kernel_basis, mat_inv, mat_vec, rref, span

ENUM_MAX_DIM = 3
ENUM_MAX_Q = 3


def _check_scope(n, field):
    """Raise CapExceeded unless 1 <= n <= ENUM_MAX_DIM and q <= ENUM_MAX_Q."""
    if not 1 <= n <= ENUM_MAX_DIM or field.q > ENUM_MAX_Q:
        raise CapExceeded(
            f"enumeration supports 1 <= dim <= {ENUM_MAX_DIM} and q <= {ENUM_MAX_Q}; "
            f"got dim={n}, q={field.q}"
        )


def tensor_key(table, n):
    """Hashable canonical encoding of a structure table."""
    return tuple(tuple(table[p]) for p in combinations(range(n), 2))


def _c12_solutions(field, c01, c02):
    """Every c_12 that makes (c_01, c_02, c_12) a Lie structure on F_q^3, in
    ascending order.

    The Jacobi sum J of the one triple is affine in c_12, J(c) = J(0) + Mc,
    so J(0) and the columns M e_k = J(e_k) - J(0) are read off the sum
    itself, and the solutions of Mc = -J(0) are one of them plus ker M.
    """

    def jacobi(c12):
        return jacobi_sum(field, {(0, 1): c01, (0, 2): c02, (1, 2): c12}, 0, 1, 2)

    j0 = jacobi((0, 0, 0))
    cols = [jacobi(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    m = [[field.sub(col[r], j0[r]) for col in cols] for r in range(3)]
    reduced, pivots = rref(field, [row + [field.neg(j0[r])] for r, row in enumerate(m)])
    if 3 in pivots:
        return []
    particular = [0, 0, 0]
    for row, col in zip(reduced, pivots):
        particular[col] = row[3]
    return sorted(
        tuple(field.add(x, y) for x, y in zip(particular, k))
        for k in span(field, kernel_basis(field, m, 3), 3)
    )


def jacobi_tensors(n, field):
    """Stream all Jacobi-satisfying structure tensors (abelian included), one
    LieAlgebra each and not deduplicated, in ascending order of their
    coefficient vectors c_01, c_02, ...; ``orbit_partition`` gives one
    representative per GL(n, q) class."""
    _check_scope(n, field)
    vectors = list(product(field.elements(), repeat=n))
    if n < 3:
        pairs = list(combinations(range(n), 2))
        for assignment in product(vectors, repeat=len(pairs)):
            yield LieAlgebra(field, n, dict(zip(pairs, assignment)))
        return
    for c01, c02 in product(vectors, repeat=2):
        for c12 in _c12_solutions(field, c01, c02):
            yield LieAlgebra(field, n, {(0, 1): c01, (0, 2): c02, (1, 2): c12})


def _gl_generators(n, field):
    """Generators of GL(n, q), as row-tuple tuples: the transvections
    I + E_ij (i != j) and diag(a, 1, ..., 1) for every a other than 0 and 1.
    Conjugating by the diagonal matrices gives every I + cE_ij, which
    generate SL(n, q), and a generator a of F_q^* then gives all of GL(n, q)."""

    def identity_but(i, j, a):
        return tuple(
            tuple(a if (r, c) == (i, j) else int(r == c) for c in range(n)) for r in range(n)
        )

    gens = [identity_but(i, j, 1) for i in range(n) for j in range(n) if i != j]
    return gens + [identity_but(0, 0, a) for a in range(2, field.q)]


def transform_structure(L, g, ginv):
    """Structure table of L rewritten in the basis whose vectors are the
    columns of g (old coordinates)."""
    n = L.dim
    f = L.field
    cols = [tuple(g[r][c] for r in range(n)) for c in range(n)]
    table = {}
    for i, j in combinations(range(n), 2):
        w = L.bracket(cols[i], cols[j])
        table[(i, j)] = mat_vec(f, ginv, w)
    return table


def _gl_orbit(L):
    """Keys of every structure tensor that a GL(n, q) basis change carries
    L's onto, found by closing {L} under the generators."""
    n, f = L.dim, L.field
    gens = [(g, mat_inv(f, g)) for g in _gl_generators(n, f)]
    orbit = {tensor_key(L.structure, n)}
    stack = [L]
    while stack:
        M = stack.pop()
        for g, ginv in gens:
            table = transform_structure(M, g, ginv)
            key = tensor_key(table, n)
            if key not in orbit:
                orbit.add(key)
                stack.append(LieAlgebra(f, n, table, validate=False))
    return orbit


def algebras_equivalent(L1, L2):
    """True iff some GL basis change carries L1's structure onto L2's."""
    if L1.field != L2.field or L1.dim != L2.dim:
        return False
    return tensor_key(L2.structure, L2.dim) in _gl_orbit(L1)


def orbit_partition(n, field):
    """GL-orbits of the Jacobi tensors: list of (representative LieAlgebra,
    orbit_size), representatives in first-seen enumeration order."""
    _check_scope(n, field)
    seen = set()
    orbits = []
    for L in jacobi_tensors(n, field):
        if tensor_key(L.structure, n) in seen:
            continue
        orbit = _gl_orbit(L)
        seen |= orbit
        orbits.append((L, len(orbit)))
    return orbits
