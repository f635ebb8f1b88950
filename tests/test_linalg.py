"""Row reduction, kernels and canonical subspaces over small fields."""

from itertools import product

from hypothesis import given, settings, strategies as st

from lie_ncg.gf import FIELD_CAP, field_new, prime_power_decomposition
from lie_ncg.linalg import Subspace, kernel_basis, mat_inv, mat_rank, mat_vec, rref, span

import oracles

# every order field_new accepts
FIELD_ORDERS = [q for q in range(2, FIELD_CAP + 1) if prime_power_decomposition(q)]


@st.composite
def matrices(draw):
    """(field, rows, ncols): up to 6 rows of 1-5 columns over any supported
    field, with zero entries and whole zero rows drawn often."""
    f = field_new(draw(st.sampled_from(FIELD_ORDERS)))
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(0, f.q - 1))
    row = st.one_of(st.just((0,) * ncols), st.tuples(*[entry] * ncols))
    return f, draw(st.lists(row, max_size=6)), ncols


def apply_by_methods(field, rows, vec):
    """The matrix-vector product with one Field method call per term."""
    out = []
    for row in rows:
        acc = 0
        for a, x in zip(row, vec):
            acc = field.add(acc, field.mul(a, x))
        out.append(acc)
    return tuple(out)


def test_rref_and_rank():
    f2 = field_new(2)
    rows, pivots = rref(f2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert pivots == [0, 1]
    assert mat_rank(f2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == 2
    f3 = field_new(3)
    assert mat_rank(f3, [(1, 2), (0, 1)]) == 2
    assert mat_rank(f3, [(1, 2), (2, 1)]) == 1  # second row is 2 times the first
    assert mat_rank(f2, [(0, 0), (0, 0)]) == 0


def test_kernel_basis_members_annihilate():
    f3 = field_new(3)
    rows = [(1, 2, 0), (0, 0, 1)]
    basis = kernel_basis(f3, rows, 3)
    assert len(basis) == 1
    for v in basis:
        assert mat_vec(f3, rows, v) == (0, 0)


def test_mat_inv_round_trip_exhaustive_2x2_f2():
    f2 = field_new(2)
    basis = [(1, 0), (0, 1)]
    invertible = 0
    for entries in product(f2.elements(), repeat=4):
        m = [entries[:2], entries[2:]]
        inv = mat_inv(f2, m)
        if inv is not None:
            invertible += 1
            for e in basis:
                assert mat_vec(f2, inv, mat_vec(f2, m, e)) == e
    assert invertible == 6  # |GL(2, 2)|


def test_subspace_canonical_equality():
    f2 = field_new(2)
    s1 = Subspace(f2, 3, [(1, 1, 0), (0, 0, 1)])
    s2 = Subspace(f2, 3, [(1, 1, 1), (0, 0, 1)])  # same span, different spanning set
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1.dim == 2 and s1.cardinality == 4
    members = set(s1.elements())
    assert len(members) == 4
    assert (1, 1, 1) in members and (1, 0, 0) not in members


def test_subspace_zero_and_full():
    f3 = field_new(3)
    z = Subspace(f3, 2, [])
    assert z.dim == 0 and list(z.elements()) == [(0, 0)]
    full = Subspace.full(f3, 2)
    assert full.dim == 2 and full.cardinality == 9
    assert (2, 1) in set(full.elements())


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_method_call_oracle(case):
    f, rows, _ = case
    assert rref(f, rows) == oracles.rref_by_methods(f, rows)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernel_basis_is_killed_and_has_nullity_rows(case):
    f, rows, ncols = case
    basis = kernel_basis(f, rows, ncols)
    rank = len(oracles.rref_by_methods(f, rows)[0])
    assert len(basis) == ncols - rank
    for v in basis:
        assert apply_by_methods(f, rows, v) == (0,) * len(rows)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_span_lists_each_member_once_in_product_order(case):
    f, rows, ncols = case
    basis = oracles.rref_by_methods(f, rows)[0]
    while f.q ** len(basis) > 729:
        basis.pop()
    members = span(f, basis, ncols)
    expected = []
    for coeffs in product(range(f.q), repeat=len(basis)):
        vec = (0,) * ncols
        for c, row in zip(coeffs, basis):
            vec = tuple(f.add(x, f.mul(c, y)) for x, y in zip(vec, row))
        expected.append(vec)
    assert members == expected
    assert len(set(members)) == f.q ** len(basis)
