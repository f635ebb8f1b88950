"""Exhaustive enumeration of Lie algebra structures on F_q^n for tiny n, q.

A candidate structure assigns one coefficient vector to each basis pair
``i < j``; antisymmetry is then automatic and the only constraint left is the
Jacobi identity on basis triples.  Deduplication reduces modulo the
GL(n, q) basis-change action: each new tensor's orbit is closed under a
generating set of GL(n, q) (the transvections I + E_ij and the matrices
diag(a, 1, ..., 1)), so the work grows with the orbit, not with |GL(n, q)|.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import CapExceeded
from .liealg import LieAlgebra
from .linalg import mat_inv, mat_vec

ENUM_MAX_DIM = 3
ENUM_MAX_Q = 3


def _check_scope(n, field):
    """Raise CapExceeded unless 1 <= n <= ENUM_MAX_DIM and q <= ENUM_MAX_Q."""
    if not 1 <= n <= ENUM_MAX_DIM or field.q > ENUM_MAX_Q:
        raise CapExceeded(
            f"enumeration supports 1 <= dim <= {ENUM_MAX_DIM} and q <= {ENUM_MAX_Q}; "
            f"got dim={n}, q={field.q}"
        )


def structure_tensors(n, field):
    """All antisymmetric structure tensors, as pair->vector dicts, in a
    deterministic order."""
    pairs = list(combinations(range(n), 2))
    vectors = list(product(field.elements(), repeat=n))
    for assignment in product(vectors, repeat=len(pairs)):
        yield dict(zip(pairs, assignment))


def tensor_key(table, n):
    """Hashable canonical encoding of a structure table."""
    return tuple(tuple(table[p]) for p in combinations(range(n), 2))


def jacobi_tensors(n, field):
    """Stream all Jacobi-satisfying structure tensors (abelian included), one
    LieAlgebra each and not deduplicated; ``orbit_partition`` gives one
    representative per GL(n, q) class."""
    _check_scope(n, field)
    for table in structure_tensors(n, field):
        L = LieAlgebra(field, n, table, validate=False)
        if L.jacobi_failure() is None:
            yield L


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
