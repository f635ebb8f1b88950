"""Exhaustive enumeration of Lie algebra structures on F_q^n for tiny n, q.

A candidate structure assigns one coefficient vector to each basis pair
``i < j``; antisymmetry is then automatic and the only constraint left is the
Jacobi identity on basis triples.  Deduplication reduces modulo the full
GL(n, q) basis-change action by explicit orbit computation.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import CapExceeded
from .liealg import LieAlgebra
from .linalg import mat_inv, mat_vec

ENUM_MAX_DIM = 3
ENUM_MAX_Q = 3


def _check_scope(n, field):
    if n > ENUM_MAX_DIM or field.q > ENUM_MAX_Q:
        raise CapExceeded(
            f"enumeration supports dim <= {ENUM_MAX_DIM} and q <= {ENUM_MAX_Q}; "
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


def gl_matrices(n, field):
    """All invertible n x n matrices over the field, as row-tuple tuples."""
    mats = []
    for entries in product(field.elements(), repeat=n * n):
        rows = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))
        if mat_inv(field, rows) is not None:
            mats.append(rows)
    return mats


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


def algebras_equivalent(L1, L2):
    """True iff some GL basis change carries L1's structure onto L2's."""
    if L1.field != L2.field or L1.dim != L2.dim:
        return False
    n = L1.dim
    target = tensor_key({p: L2.structure[p] for p in L2.structure}, n)
    for g in gl_matrices(n, L1.field):
        ginv = mat_inv(L1.field, g)
        if tensor_key(transform_structure(L1, g, ginv), n) == target:
            return True
    return False


def orbit_partition(n, field):
    """GL-orbits of the Jacobi tensors: list of (representative LieAlgebra,
    orbit_size), representatives in first-seen enumeration order."""
    _check_scope(n, field)
    gls = [(g, mat_inv(field, g)) for g in gl_matrices(n, field)]
    seen = set()
    orbits = []
    for L in jacobi_tensors(n, field):
        key = tensor_key(L.structure, n)
        if key in seen:
            continue
        orbit = {tensor_key(transform_structure(L, g, ginv), n) for g, ginv in gls}
        seen |= orbit
        orbits.append((L, len(orbit)))
    return orbits


enumerate_algebras = jacobi_tensors
