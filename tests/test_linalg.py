"""Rank, kernel masks, bases and spans over small fields, on
index-coded vectors of F_q^dim."""

from functools import reduce
from itertools import combinations, product

from hypothesis import given, settings, strategies as st

from lie_ncg.gf import FIELD_CAP, field_new, prime_power_decomposition
from lie_ncg.linalg import LINEAR_MAP_MEMO_ENTRIES, RANK_MEMO_KEYS, VectorSpace, vector_space

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


def test_rank():
    f2 = field_new(2)
    V = vector_space(f2, 3)
    coded = [V.code(r) for r in [(1, 1, 0), (0, 1, 1), (1, 0, 1)]]
    assert V.rank(coded) == 2
    assert V.rank([0, 0]) == 0 and V.rank([]) == 0
    f3 = field_new(3)
    V = vector_space(f3, 2)
    assert V.rank([V.code((1, 2)), V.code((0, 1))]) == 2
    # the second row is 2 times the first
    assert V.rank([V.code((1, 2)), V.code((2, 1))]) == 1


def test_basis_is_canonical():
    V = vector_space(field_new(2), 3)
    s1 = V.span([V.code((1, 1, 0)), V.code((0, 0, 1))])
    # same span, different spanning set
    s2 = V.span([V.code((1, 1, 1)), V.code((0, 0, 1)), V.code((1, 1, 1))])
    assert s1 == s2 and s1.bit_count() == 4
    # per last nonzero coordinate, the least member
    assert [V.digits[v] for v in V.basis(s1)] == [(1, 1, 0), (0, 0, 1)]
    assert s1 != V.span([V.code((1, 0, 0))])
    members = oracles.mask_members(V, s1)
    assert (1, 1, 1) in members and (1, 0, 0) not in members


def test_basis_of_zero_and_full():
    V = vector_space(field_new(3), 2)
    assert V.span([]) == V.span([0, 0]) == 1 and V.basis(1) == []
    full = V.span(V.units)
    assert full == V.everything and full.bit_count() == 9
    assert [V.digits[v] for v in V.basis(full)] == [(1, 0), (0, 1)]


@settings(max_examples=300, deadline=None)
@given(coded_matrices(), st.data())
def test_vector_space_tables_match_field_methods(case, data):
    V, _ = case
    f, dim = V.field, V.dim
    F = oracles.arithmetic(f.q)
    assert len(V.digits) == f.q**dim
    u, v = (data.draw(st.integers(0, f.q**dim - 1)) for _ in range(2))
    a = data.draw(st.integers(0, f.q - 1))
    # the digits list F_q^dim in increasing little-endian index
    assert V.code(V.digits[u]) == u and sum(c * f.q**i for i, c in enumerate(V.digits[u])) == u
    assert V.digits[V.add(u, v)] == tuple(map(F.add, V.digits[u], V.digits[v]))
    assert V.digits[V.scale[a][u]] == tuple(F.mul(a, x) for x in V.digits[u])


@settings(max_examples=300, deadline=None)
@given(coded_matrices())
def test_rank_matches_method_call_oracle(case):
    V, rows = case
    assert V.rank([V.code(r) for r in rows]) == len(oracles.rref_by_methods(V.field, rows)[0])


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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PERP_SHAPES), st.data())
def test_line_is_the_multiple_with_first_nonzero_coordinate_one(shape, data):
    q, dim = shape
    F = oracles.arithmetic(q)
    V = vector_space(field_new(q), dim)
    assert len(V.line) == q**dim and V.line[0] == 0
    x = data.draw(st.integers(1, q**dim - 1))
    v, rep = V.digits[x], V.digits[V.line[x]]
    assert any(tuple(F.mul(c, a) for a in v) == rep for c in range(1, q))
    assert next(a for a in rep if a) == 1
    assert all(V.line[V.scale[c][x]] == V.line[x] for c in range(1, q))


def test_one_perp_mask_per_line():
    for q, dim in ((2, 4), (3, 3), (4, 2), (5, 3), (9, 2)):
        V = VectorSpace(field_new(q), dim)
        for a in range(q**dim):
            V.perp(a)
        assert sorted(V._perps) == sorted(set(V.line)), (q, dim)
        assert len(V._perps) == 1 + (q**dim - 1) // (q - 1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PERP_SHAPES), st.data())
def test_linear_map_matches_method_call_sum(shape, data):
    q, dim = shape
    F = oracles.arithmetic(q)
    V = VectorSpace(field_new(q), dim)  # its own memo, so the first call misses
    vector = st.one_of(st.just((0,) * dim), st.tuples(*[st.integers(0, q - 1)] * dim))
    images = data.draw(st.lists(vector, min_size=dim, max_size=dim))
    xs = data.draw(st.lists(st.integers(0, q**dim - 1), min_size=1, max_size=8))
    key = tuple(map(V.code, images))
    for call in ("miss", "hit"):
        table = V.linear_map(key)
        assert len(table) == q**dim and list(V._maps) == [key], call
        for x in xs:
            want = (0,) * dim
            for c, image in zip(V.digits[x], images):
                want = tuple(F.add(w, F.mul(c, a)) for w, a in zip(want, image))
            assert V.digits[table[x]] == want, (call, x)


def test_memos_stop_growing_at_their_bounds():
    # over F_2 index addition is XOR, so x -> x_0 v + x_1 w is checked on
    # plain ints; 4096 entries a table, so the bound is reached in 32 tables
    V = VectorSpace(field_new(2), 12)
    full = LINEAR_MAP_MEMO_ENTRIES // 4096
    for v in range(1, full + 4):
        table = V.linear_map((v, 5) + (0,) * 10)
        assert len(V._maps) == min(v, full)
        assert table == tuple((v if x & 1 else 0) ^ (5 if x & 2 else 0) for x in range(4096))
    # triples of distinct lines of F_3^4, each a different set of lines and
    # so a different key, in turn past the rank memo's bound; each row is 1
    # or 2 times the line's vector with first nonzero coordinate 1
    F = oracles.arithmetic(3)
    V = VectorSpace(field_new(3), 4)
    lines = [v for v in product(range(3), repeat=4) if any(v) and next(a for a in v if a) == 1]
    triples = list(combinations(lines, 3))
    assert len(triples) >= RANK_MEMO_KEYS + 40

    def coded(rows, c):
        return [V.code(tuple(F.mul(c, a) for a in r)) for r in rows]

    for i, rows in enumerate(triples[: RANK_MEMO_KEYS + 40]):
        r = V.rank(coded(rows, 1 + i % 2))
        assert len(V._ranks) == min(i + 1, RANK_MEMO_KEYS)
        if i >= RANK_MEMO_KEYS - 40:
            assert r == len(oracles.rref_by_methods(V.field, rows)[0]), rows
    assert len(V._ranks) == RANK_MEMO_KEYS
    # the stored answers still hold, for the rows reversed and scaled the
    # other way
    for i in range(0, RANK_MEMO_KEYS, RANK_MEMO_KEYS // 50):
        rows = triples[i]
        want = len(oracles.rref_by_methods(V.field, rows)[0])
        assert V.rank(coded(rows[::-1], 2 - i % 2)) == want, rows
    assert len(V._ranks) == RANK_MEMO_KEYS


# the shapes of PERP_SHAPES over the fields of order at most 9, up to dim 4
RANK_SHAPES = [(q, dim) for q, dim in PERP_SHAPES if q <= 9 and dim <= 4]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RANK_SHAPES), st.data())
def test_rank_is_kept_per_span_of_the_rows(shape, data):
    # rows moved to a random basis of F_q^dim, each scaled by a random
    # nonzero scalar, shuffled and padded with zero rows rank as the oracle
    # ranks them, and so does every prefix, on the space's one memo, which
    # every example fills; prefixes share their first row, so a key that
    # leaves out some row's line serves one of them a wrong rank
    q, dim = shape
    F = oracles.arithmetic(q)
    V = vector_space(field_new(q), dim)
    vector = st.tuples(*[st.integers(0, q - 1)] * dim)
    rows = data.draw(st.lists(vector, max_size=dim + 1))
    g = data.draw(
        st.lists(vector, min_size=dim, max_size=dim)
        .filter(lambda m: oracles.mat_inv(V.field, m) is not None)
    )
    moved = [tuple(reduce(F.add, map(F.mul, r, col), 0) for col in zip(*g)) for r in rows]
    scalars = data.draw(st.lists(st.integers(1, q - 1), min_size=len(rows), max_size=len(rows)))
    scaled = [tuple(F.mul(c, a) for a in r) for c, r in zip(scalars, moved)]
    zeros = [(0,) * dim] * data.draw(st.integers(0, 2))
    padded = data.draw(st.permutations(scaled + zeros))
    for k in range(len(padded) + 1):
        want = len(oracles.rref_by_methods(V.field, padded[:k])[0])
        assert V.rank([V.code(r) for r in padded[:k]]) == want, padded[:k]
    # a basis change keeps the rank
    assert V.rank([V.code(r) for r in rows]) == want


@st.composite
def shaped_rows(draw):
    """(space, rows): F_q^dim for a shape of PERP_SHAPES and 0 to 4 rows
    drawn from at most 3 vectors and their multiples, so zero rows, repeated
    rows and rows on one line all occur."""
    q, dim = draw(st.sampled_from(PERP_SHAPES))
    F = oracles.arithmetic(q)
    vector = st.one_of(st.just((0,) * dim), st.tuples(*[st.integers(0, q - 1)] * dim))
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    picks = st.tuples(st.sampled_from(pool), st.integers(1, q - 1))
    rows = [tuple(F.mul(c, x) for x in r) for r, c in draw(st.lists(picks, max_size=4))]
    return vector_space(field_new(q), dim), rows


@settings(max_examples=100, deadline=None)
@given(shaped_rows())
def test_solutions_match_method_call_scan(case):
    V, rows = case
    assert V.solutions([V.code(r) for r in rows]) == oracles.solutions_by_methods(
        V.field, V.dim, rows
    )


@settings(max_examples=100, deadline=None)
@given(shaped_rows())
def test_basis_span_and_rank_match_method_call_oracles(case):
    V, rows = case
    coded = [V.code(r) for r in rows]
    reduced = oracles.rref_by_methods(V.field, rows)[0]
    assert V.rank(coded) == len(reduced)
    # the basis of a mask spans exactly its members, one per last nonzero
    # coordinate
    mask = V.solutions(coded)
    basis = [V.digits[v] for v in V.basis(mask)]
    assert oracles.subspace_members(V, basis) == oracles.mask_members(V, mask)
    assert len(basis) == V.dim - len(reduced)
    assert len({max(i for i, c in enumerate(b) if c) for b in basis}) == len(basis)
    assert oracles.mask_members(V, V.span(coded)) == oracles.subspace_members(V, reduced)
