"""Field construction and arithmetic, checked exhaustively per order."""

import time

import pytest

from lie_ncg.errors import NotPrimePower, UnsupportedField
from lie_ncg.gf import field_new, prime_factors, prime_power_decomposition

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
    assert f2.add(1, 1) == 0
    assert f3.mul(2, 2) == 1
    # generator t of F_4 satisfies t*t = t + 1 under t^2 + t + 1
    assert f4.mul(2, 2) == 3
    assert f5.inverse(3) == oracles.find_inverse(f5, 3) == 2
    assert f3.inverse(2) == 2
    assert f2.inverse(1) == 1


def test_gf4_against_independent_polynomial_oracle():
    f4 = field_new(4)
    for a in f4.elements():
        for b in f4.elements():
            assert f4.mul(a, b) == oracles.gf4_mul(a, b)


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    f = field_new(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SUPPORTED)
def test_inverses_and_characteristic(q):
    f = field_new(q)
    for a in range(1, q):
        assert f.mul(a, f.inverse(a)) == 1
        assert f.inverse(a) == oracles.find_inverse(f, a)
    acc = 0
    for _ in range(f.p):
        acc = f.add(acc, 1)
    assert acc == 0
    with pytest.raises(ZeroDivisionError):
        f.inverse(0)
