"""Lie algebra construction, brackets, center, derived algebra and nilpotency."""

import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lie_ncg.errors import (
    CapExceeded,
    DuplicateBracket,
    JacobiViolation,
    LieNcgError,
    SelfBracketNonzero,
    UnknownBasisName,
)
from lie_ncg.gf import FIELD_CAP, field_new, prime_power_decomposition
from lie_ncg.io import load_spec
from lie_ncg.liealg import AlgebraSpec, LieAlgebra, algebra_from_spec
from lie_ncg.verifier import catalog_instances, enumeration_instances

import oracles
from oracles import catalog_entry

SPECS = Path(__file__).resolve().parent.parent / "specs"


def heisenberg(q=2):
    return catalog_entry(f"heisenberg_f{q}").algebra()


def abelian(q, dim):
    return LieAlgebra(field_new(q), dim, {})


def cross_product_f2():
    return catalog_entry("cross_product_f2").algebra()


def test_heisenberg_spec_builds():
    L = heisenberg()
    assert L.dim == 3
    assert L._bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)


def test_jacobi_violation_reported_with_triple():
    spec = AlgebraSpec(
        q=2,
        dim=3,
        basis=("x", "y", "z"),
        brackets=(
            ("x", "y", {"x": 1}),
            ("y", "z", {"y": 1}),
            ("x", "z", {"x": 1}),
        ),
    )
    with pytest.raises(JacobiViolation) as exc:
        algebra_from_spec(spec)
    assert exc.value.triple == (0, 1, 2)


def test_empty_bracket_list_is_abelian():
    L = algebra_from_spec(AlgebraSpec(q=2, dim=2, basis=("a", "b"), brackets=()))
    assert L.is_abelian()
    assert len(L.center()) == 2


def test_spec_validation_errors():
    with pytest.raises(SelfBracketNonzero):
        algebra_from_spec(
            AlgebraSpec(q=2, dim=2, basis=("x", "y"), brackets=(("x", "x", {"y": 1}),))
        )
    with pytest.raises(DuplicateBracket):
        algebra_from_spec(
            AlgebraSpec(
                q=2,
                dim=2,
                basis=("x", "y"),
                brackets=(("x", "y", {"x": 1}), ("y", "x", {"x": 1})),
            )
        )
    with pytest.raises(UnknownBasisName):
        algebra_from_spec(
            AlgebraSpec(q=2, dim=2, basis=("x", "y"), brackets=(("x", "w", {"x": 1}),))
        )


def test_bracket_alternating_and_cross_product_expansion():
    L = cross_product_f2()
    for u in L.space.digits:
        assert L._bracket(u, u) == (0,) * L.dim
    x_plus_y = (1, 1, 0)
    y_plus_z = (0, 1, 1)
    assert L._bracket(x_plus_y, y_plus_z) == (1, 1, 1)


@pytest.mark.parametrize("name", ["heisenberg_f2", "heisenberg_f3", "l2_f2", "cross_product_f2"])
def test_bilinearity_and_antisymmetry_exhaustive(name):
    L = catalog_entry(name).algebra()
    f = oracles.arithmetic(L.field.q)
    els = L.space.digits
    for u in els:
        for v in els:
            uv = L._bracket(u, v)
            vu = L._bracket(v, u)
            assert uv == tuple(f.neg(c) for c in vu)
    # bilinearity in the first slot: [u + alpha v, w] = [u, w] + alpha [v, w]
    for u in els[:8]:
        for v in els[:8]:
            for w in els[:8]:
                for alpha in L.field.elements():
                    left = L._bracket(
                        tuple(f.add(a, f.mul(alpha, b)) for a, b in zip(u, v)), w
                    )
                    right = tuple(
                        f.add(a, f.mul(alpha, b))
                        for a, b in zip(L._bracket(u, w), L._bracket(v, w))
                    )
                    assert left == right


def test_basis_jacobi_implies_elementwise_jacobi():
    for name in ["heisenberg_f2", "l2_f2", "cross_product_f2"]:
        L = catalog_entry(name).algebra()
        f = oracles.arithmetic(L.field.q)
        els = L.space.digits
        for x, y, z in combinations(els, 3):
            acc = (0,) * L.dim
            for a, (b, c) in ((x, (y, z)), (z, (x, y)), (y, (z, x))):
                term = L._bracket(a, L._bracket(b, c))
                acc = tuple(f.add(p, q) for p, q in zip(acc, term))
            assert acc == (0,) * L.dim


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 5), st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.data())
def test_jacobi_failure_matches_method_call_oracle(n, q, data):
    # sparse structure constants, so the identity holds on some tensors and
    # fails first on a later triple on others
    f = field_new(q)
    coefficient = st.one_of(st.just(0), st.integers(0, q - 1))
    vector = st.one_of(st.just((0,) * n), st.tuples(*[coefficient] * n))
    table = {pair: data.draw(vector) for pair in combinations(range(n), 2)}
    L = LieAlgebra(f, n, table, validate=False)
    assert L.jacobi_failure() == oracles.jacobi_failure_by_methods(f, n, table)


def centralizer_mask(L, x):
    """C(x) as the mask of the solutions of the rows of ad(x)."""
    V = L.space
    return V.solutions(L.ad_rows[V.code(x)])


def test_centralizer_examples():
    L = heisenberg()
    c = centralizer_mask(L, (1, 0, 0))
    assert c.bit_count() == 4
    assert oracles.mask_members(L, c) == {(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)}

    aff = catalog_entry("aff1_f2").algebra()
    c = centralizer_mask(aff, (1, 0))
    assert c.bit_count() == 2
    assert oracles.mask_members(aff, c) == {(0, 0), (1, 0)}

    ab = abelian(2, 3)
    assert centralizer_mask(ab, (1, 1, 0)).bit_count() == 8


@pytest.mark.parametrize(
    "name",
    [
        "aff1_f2",
        "aff1_f3",
        "aff1_f4",
        "heisenberg_f2",
        "heisenberg_f3",
        "heisenberg_f4",
        "l2_f2",
        "cross_product_f2",
        "split_pairs_f2",
    ],
)
def test_centralizer_and_center_match_brute_force(name):
    L = catalog_entry(name).algebra()
    assert L.order <= 512
    assert oracles.subspace_members(L, L.center()) == oracles.brute_center(L)
    assert oracles.mask_members(L, L.center_mask) == oracles.brute_center(L)
    for i, x in enumerate(L.space.digits):
        cent = centralizer_mask(L, x)
        brute = oracles.brute_centralizer(L, x)
        assert oracles.mask_members(L, cent) == brute
        assert cent.bit_count() == L.centralizer_order(i)


def test_bad_element_is_refused(monkeypatch):
    # an index outside 0..q^dim - 1, one that equals an index but is not an
    # int, or a coordinate tuple, on a dim-3 F_3 algebra
    L = heisenberg(3)
    for x in (-1, L.order, True, 1.0, (1, 0, 0)):
        with pytest.raises(LieNcgError, match="is not an int element index"):
            L.centralizer_order(x)
    assert L.centralizer_order(1) == 9
    # a valid index on an algebra past the cap reaches the cap check in space
    past = heisenberg(3)
    monkeypatch.setenv("LIE_NCG_CAP", "26")
    with pytest.raises(CapExceeded):
        past.centralizer_order(1)


def test_center_examples():
    L = heisenberg()
    assert L.center() == ((0, 0, 1),)
    assert oracles.subspace_members(L, L.center()) == {(0, 0, 0), (0, 0, 1)}
    assert cross_product_f2().center() == ()
    assert abelian(3, 2).center() == ((1, 0), (0, 1))


def test_centralizer_contains_center_and_self():
    for name in ["heisenberg_f2", "l2_f2", "split_pairs_f2"]:
        L = catalog_entry(name).algebra()
        center = L.center()
        for x in L.space.digits:
            cent = centralizer_mask(L, x)
            members = oracles.mask_members(L, cent)
            assert x in members
            assert all(v in members for v in center)
            assert L.order % cent.bit_count() == 0


def test_derived_subalgebra():
    assert heisenberg().derived_subalgebra() == ((0, 0, 1),)
    assert len(cross_product_f2().derived_subalgebra()) == 3
    assert abelian(2, 2).derived_subalgebra() == ()


def test_ad_matrix_rank_nullity():
    for name in ["heisenberg_f2", "heisenberg_f3", "l2_f2", "cross_product_f2"]:
        L = catalog_entry(name).algebra()
        d2 = len(L.derived_subalgebra())
        for i, x in enumerate(L.space.digits):
            rank = len(oracles.rref_by_methods(L.field, oracles.ad_matrix_by_methods(L, x))[0])
            assert centralizer_mask(L, x).bit_count() == L.field.q ** (L.dim - rank)
            assert rank <= d2
            assert L.centralizer_order(i) == L.field.q ** (L.dim - rank)
    L = heisenberg()
    assert L.ad_rows[0] == (0, 0, 0)
    assert L.space.rank(L.ad_rows[1]) == 1  # ad(x), x = (1, 0, 0)


def test_derived_dim_one_forces_corank_one_centralizers():
    for name in ["heisenberg_f2", "heisenberg_f3", "heisenberg_f4", "aff1_f4"]:
        L = catalog_entry(name).algebra()
        assert len(L.derived_subalgebra()) == 1
        central = oracles.subspace_members(L, L.center())
        for x in L.space.digits:
            if x not in central:
                assert centralizer_mask(L, x).bit_count() == L.order // L.field.q


def test_is_nilpotent():
    assert heisenberg().is_nilpotent()
    assert not catalog_entry("l2_f2").algebra().is_nilpotent()
    assert abelian(2, 3).is_nilpotent()
    assert not cross_product_f2().is_nilpotent()


def test_center_derived_and_nilpotency_match_method_call_oracles():
    # the 1569-algebra pool of criterion 1 and every spec
    algebras = [inst.L for inst in catalog_instances()]
    for n in (2, 3):
        for q in (2, 3):
            algebras.extend(inst.L for inst in enumeration_instances(n, q))
    assert len(algebras) == 1569
    algebras.extend(algebra_from_spec(load_spec(path)) for path in sorted(SPECS.glob("*.json")))
    nilpotent = []
    for L in algebras:
        for basis, members in (
            (L.center(), oracles.brute_center(L)),
            (L.derived_subalgebra(), oracles.derived_by_methods(L)),
        ):
            # an echelon basis: one vector per last nonzero coordinate
            lasts = {max(i for i, c in enumerate(b) if c) for b in basis}
            assert len(lasts) == len(basis) and len(members) == L.field.q ** len(basis), L
            assert oracles.subspace_members(L, basis) == members, L
        nilpotent.append(L.is_nilpotent())
        assert nilpotent[-1] == oracles.nilpotent_by_methods(L), L
    # the three catalog Heisenberg algebras and 7 + 26 dim-3 tensors over
    # F_2 and F_3; the pool holds no abelian tensor
    assert sum(nilpotent[:1569]) == 36


def test_enumerate_elements_order_and_count():
    # the digits of L.space list the elements
    L = abelian(2, 2)
    els = L.space.digits
    assert len(els) == 4
    # increasing little-endian index: the first coordinate varies fastest
    assert els == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert len(heisenberg().space.digits) == 8
    assert len(abelian(3, 2).space.digits) == 9
    L = heisenberg(3)
    assert L.space.digits == tuple(oracles.elements(L)) and len(L.space.digits) == 27


def test_enumerate_elements_cap(monkeypatch):
    L = abelian(2, 4)
    monkeypatch.setenv("LIE_NCG_CAP", "8")
    with pytest.raises(CapExceeded):
        L.space
    monkeypatch.setenv("LIE_NCG_CAP", "16")
    assert len(L.space.digits) == 16


def test_element_cap_env_override(monkeypatch):
    L = heisenberg()
    monkeypatch.setenv("LIE_NCG_CAP", "4")
    with pytest.raises(CapExceeded):
        L.space
    with pytest.raises(CapExceeded):
        heisenberg()


def test_spec_past_element_cap_refused_before_jacobi():
    def abelian_spec(dim):
        return AlgebraSpec(q=2, dim=dim, basis=tuple(f"e{i}" for i in range(dim)))

    assert algebra_from_spec(abelian_spec(12)).order == 4096
    # the Jacobi check on 200 basis vectors alone would take minutes
    start = time.perf_counter()
    for dim in (13, 200):
        with pytest.raises(CapExceeded):
            algebra_from_spec(abelian_spec(dim))
    assert time.perf_counter() - start < 1


def test_element_labels():
    L = heisenberg()
    assert L.element_label((1, 1, 1)) == "x+y+z"
    assert L.element_label((0, 0, 0)) == "0"
    L3 = catalog_entry("aff1_f3").algebra()
    assert L3.element_label((2, 1)) == "2x+y"


# every order field_new accepts
FIELD_ORDERS = [q for q in range(2, FIELD_CAP + 1) if prime_power_decomposition(q)]


@st.composite
def tensors_and_elements(draw, max_order=None):
    """(algebra, u, v): a random structure tensor of dim 1-4 over any
    supported field, with at most ``max_order`` elements when that is given,
    built with validate=False, and two random elements."""
    f = field_new(draw(st.sampled_from(FIELD_ORDERS)))
    max_dim = max(d for d in range(1, 5) if max_order is None or f.q**d <= max_order)
    dim = draw(st.integers(1, max_dim))
    entry = st.one_of(st.just(0), st.integers(0, f.q - 1))
    vector = st.tuples(*[entry] * dim)
    structure = {pair: draw(vector) for pair in combinations(range(dim), 2)}
    L = LieAlgebra(f, dim, structure, validate=False)
    return L, draw(vector), draw(vector)


@settings(max_examples=300, deadline=None)
@given(tensors_and_elements())
def test_bracket_matches_method_call_oracle(case):
    L, u, v = case
    assert L._bracket(u, v) == oracles.bracket_by_methods(L, u, v)
    assert L._bracket(v, u) == oracles.bracket_by_methods(L, v, u)


@settings(max_examples=300, deadline=None)
@given(tensors_and_elements(max_order=729))
def test_ad_matrix_columns_are_brackets_with_basis_vectors(case):
    L, x, _ = case
    V = L.space
    assert [V.digits[row] for row in L.ad_rows[V.code(x)]] == oracles.ad_matrix_by_methods(L, x)
