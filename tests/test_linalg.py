"""Row reduction, kernels and canonical subspaces over small fields, on
index-coded vectors of F_q^dim."""

from hypothesis import given, settings, strategies as st

from lie_ncg.gf import FIELD_CAP, field_new, prime_power_decomposition
from lie_ncg.linalg import Subspace, vector_space

import oracles

# every order field_new accepts
FIELD_ORDERS = [q for q in range(2, FIELD_CAP + 1) if prime_power_decomposition(q)]


@st.composite
def coded_matrices(draw):
    """(space, rows): up to dim + 2 rows of a random F_q^dim with
    q^dim <= 729, over any supported field, as coordinate tuples."""
    f = field_new(draw(st.sampled_from(FIELD_ORDERS)))
    dim = draw(st.integers(1, max(d for d in range(1, 10) if f.q**d <= 729)))
    entry = st.one_of(st.just(0), st.integers(0, f.q - 1))
    row = st.one_of(st.just((0,) * dim), st.tuples(*[entry] * dim))
    return vector_space(f, dim), draw(st.lists(row, max_size=dim + 2))


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
    V = vector_space(f2, 3)
    coded = [V.code(r) for r in [(1, 1, 0), (0, 1, 1), (1, 0, 1)]]
    rows, pivots = V.rref(coded)
    assert [V.digits[v] for v in rows] == [(1, 0, 1), (0, 1, 1)] and pivots == [0, 1]
    assert V.rank(coded) == 2
    assert V.rank([0, 0]) == 0 and V.rank([]) == 0
    f3 = field_new(3)
    V = vector_space(f3, 2)
    assert V.rank([V.code((1, 2)), V.code((0, 1))]) == 2
    # the second row is 2 times the first
    assert V.rank([V.code((1, 2)), V.code((2, 1))]) == 1


def test_kernel_basis_members_annihilate():
    f3 = field_new(3)
    V = vector_space(f3, 3)
    rows = [(1, 2, 0), (0, 0, 1)]
    basis = V.kernel([V.code(r) for r in rows])
    assert len(basis) == 1
    for v in basis:
        y = V.digits[v]
        assert [sum(a * b for a, b in zip(row, y)) % 3 for row in rows] == [0, 0]


def test_subspace_canonical_equality():
    V = vector_space(field_new(2), 3)
    s1 = Subspace(V, [V.code((1, 1, 0)), V.code((0, 0, 1))])
    # same span, different spanning set
    s2 = Subspace(V, [V.code((1, 1, 1)), V.code((0, 0, 1))])
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1.dim == 2 and s1.cardinality == 4
    assert s1.basis_matrix == ((1, 1, 0), (0, 0, 1)) and s1.pivots == [0, 2]
    assert s1 != Subspace(V, [V.code((1, 0, 0))])
    members = oracles.subspace_members(s1)
    assert len(members) == 4
    assert (1, 1, 1) in members and (1, 0, 0) not in members


def test_subspace_zero_and_full():
    V = vector_space(field_new(3), 2)
    z = Subspace(V, [])
    assert z.dim == 0 and oracles.subspace_members(z) == {(0, 0)}
    full = Subspace(V, V.units)
    assert full.dim == 2 and full.cardinality == 9
    assert (2, 1) in oracles.subspace_members(full)


@settings(max_examples=300, deadline=None)
@given(coded_matrices(), st.data())
def test_vector_space_tables_match_field_methods(case, data):
    V, _ = case
    f, dim = V.field, V.dim
    assert len(V.digits) == f.q**dim
    u, v = (data.draw(st.integers(0, f.q**dim - 1)) for _ in range(2))
    a = data.draw(st.integers(0, f.q - 1))
    # the digits list F_q^dim in increasing little-endian index
    assert V.code(V.digits[u]) == u and sum(c * f.q**i for i, c in enumerate(V.digits[u])) == u
    assert V.digits[V.add(u, v)] == tuple(map(f.add, V.digits[u], V.digits[v]))
    assert V.digits[V.scale[a][u]] == tuple(f.mul(a, x) for x in V.digits[u])


@settings(max_examples=300, deadline=None)
@given(coded_matrices())
def test_index_coded_rref_and_rank_match_method_call_oracle(case):
    V, rows = case
    reduced, pivots = V.rref([V.code(r) for r in rows])
    want, want_pivots = oracles.rref_by_methods(V.field, rows)
    assert ([V.digits[v] for v in reduced], pivots) == (want, want_pivots)
    assert V.rank([V.code(r) for r in rows]) == len(want)
    S = Subspace(V, [V.code(r) for r in rows])
    assert (S.basis_matrix, S.pivots) == (tuple(want), want_pivots)


@settings(max_examples=300, deadline=None)
@given(coded_matrices())
def test_kernel_basis_is_killed_and_has_nullity_rows(case):
    V, rows = case
    f = V.field
    basis = [V.digits[v] for v in V.kernel([V.code(r) for r in rows])]
    rank = len(oracles.rref_by_methods(f, rows)[0])
    assert len(basis) == V.dim - rank
    # independent, and each member is killed by every row
    assert len(oracles.rref_by_methods(f, basis)[0]) == len(basis)
    for v in basis:
        assert apply_by_methods(f, rows, v) == (0,) * len(rows)


@settings(max_examples=200, deadline=None)
@given(coded_matrices())
def test_span_lists_each_member_once_in_product_order(case):
    V, rows = case
    f = V.field
    basis = oracles.rref_by_methods(f, rows)[0]
    while f.q ** len(basis) > 729:
        basis.pop()
    members = [V.digits[v] for v in V.span([V.code(r) for r in basis])]
    assert members == oracles.span_by_methods(f, basis, V.dim)
    assert len(set(members)) == f.q ** len(basis)


# every (q, dim) with q^dim <= 4096 over primes up to 7 and the powers of 2
# and 3 up to 27
PERP_SHAPES = [
    (q, dim)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 27)
    for dim in range(1, 13)
    if q**dim <= 4096
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PERP_SHAPES), st.data())
def test_perp_masks_match_method_call_scan(shape, data):
    q, dim = shape
    f = field_new(q)
    V = vector_space(f, dim)
    a = data.draw(st.tuples(*[st.integers(0, q - 1)] * dim))
    c = data.draw(st.integers(1, q - 1))
    want = oracles.perp_by_methods(f, dim, a)
    # a multiple first, so a can be served from its line's entry
    multiple = V.scale[c][V.code(a)]
    assert V.perp(multiple) == want
    assert V.perp(V.code(a)) == want
