"""Field construction and arithmetic, checked exhaustively per order."""

import time

import pytest

from lie_ncg.errors import NotPrimePower, UnsupportedField
from lie_ncg.gf import FIELD_CAP, field_new, prime_factors, prime_power_decomposition

import oracles

SUPPORTED = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


def test_prime_power_decomposition():
    assert prime_power_decomposition(2) == (2, 1)
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(16) == (2, 4)
    assert prime_power_decomposition(27) == (3, 3)
    assert prime_power_decomposition(6) is None
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(1) is None
    # 2 times the Mersenne prime 2^61 - 1: settled by its factor 2 alone
    assert prime_power_decomposition(2 * (2**61 - 1)) is None
    assert list(prime_factors(1)) == []
    assert list(prime_factors(360)) == [(2, 3), (3, 2), (5, 1)]
    assert list(prime_factors(97)) == [(97, 1)]


def test_field_new_basic():
    f2 = field_new(2)
    assert (f2.q, f2.p, f2.k) == (2, 2, 1)
    f9 = field_new(9)
    assert (f9.q, f9.p, f9.k) == (9, 3, 2)
    assert len(f9.reduction_polynomial) == 3


def test_field_new_returns_one_field_per_order():
    # Field has no value equality, so a field test compares identities: the
    # one F_q of each order field_new accepts
    for q in range(2, FIELD_CAP + 1):
        if prime_power_decomposition(q):
            assert field_new(q) is field_new(q)


def test_field_new_rejects_non_prime_powers():
    for bad in (6, 10, 12, 15):
        with pytest.raises(NotPrimePower):
            field_new(bad)


def test_field_new_rejects_over_cap():
    with pytest.raises(UnsupportedField):
        field_new(32)
    with pytest.raises(UnsupportedField):
        field_new(29)
    # the Mersenne prime 2^61 - 1: refused without trial division to 2^30.5
    start = time.perf_counter()
    with pytest.raises(UnsupportedField):
        field_new(2**61 - 1)
    assert time.perf_counter() - start < 1


def test_spot_values():
    f2, f3, f4, f5 = field_new(2), field_new(3), field_new(4), field_new(5)
    assert f2.add_table[1][1] == 0
    assert f3.mul_table[2][2] == 1
    # generator t of F_4 satisfies t*t = t + 1 under t^2 + t + 1
    assert f4.mul_table[2][2] == 3
    assert f5.inv_table[3] == 2
    assert f3.inv_table[2] == 2
    assert f2.inv_table[1] == 1


@pytest.mark.parametrize("q", SUPPORTED)
def test_tables_match_independent_arithmetic(q):
    # every entry of every table, against integers mod p and polynomial
    # products mod the reduction polynomial, computed in the oracles
    f, F = field_new(q), oracles.arithmetic(q)
    for a in range(q):
        assert f.neg_table[a] == F.neg(a)
        assert f.inv_table[a] == (F.inverse(a) if a else None)
        for b in range(q):
            assert f.add_table[a][b] == F.add(a, b)
            assert f.mul_table[a][b] == F.mul(a, b)


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    f = field_new(q)
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    els = list(f.elements())
    for a in els:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert mul[a][0] == 0
        assert add[a][neg[a]] == 0
        for b in els:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
    for a in els:
        for b in els:
            for c in els:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q", SUPPORTED)
def test_inverses_and_characteristic(q):
    f = field_new(q)
    for a in range(1, q):
        assert f.mul_table[a][f.inv_table[a]] == 1
    assert f.inv_table[0] is None
    acc = 0
    for _ in range(f.p):
        acc = f.add_table[acc][1]
    assert acc == 0
