"""Row reduction, kernel masks and canonical subspaces over small fields, on
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
    want = oracles.solutions_by_methods(f, dim, [a])
    # a multiple first, so a can be served from its line's entry
    multiple = V.scale[c][V.code(a)]
    assert V.perp(multiple) == want
    assert V.perp(V.code(a)) == want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PERP_SHAPES), st.data())
def test_solutions_match_method_call_scan(shape, data):
    # 0 to 4 rows drawn from at most 3 vectors and their multiples, so zero
    # rows, repeated rows and rows on one line all occur
    q, dim = shape
    f = field_new(q)
    V = vector_space(f, dim)
    vector = st.one_of(st.just((0,) * dim), st.tuples(*[st.integers(0, q - 1)] * dim))
    pool = data.draw(st.lists(vector, min_size=1, max_size=3))
    picks = st.tuples(st.sampled_from(pool), st.integers(1, q - 1))
    rows = [tuple(f.mul(c, x) for x in r) for r, c in data.draw(st.lists(picks, max_size=4))]
    assert V.solutions([V.code(r) for r in rows]) == oracles.solutions_by_methods(f, dim, rows)
