"""Exact arithmetic in small finite fields F_q.

Elements are integer codes in ``[0, q)``.  For a prime field the code is the
residue itself; for an extension field F_{p^k} the code is the base-p digit
vector of the polynomial representative, read little-endian, so code 0 is the
zero element and code 1 the multiplicative identity in every field.

Extension fields use a fixed reduction polynomial per supported order so that
element codes are reproducible across runs.

A ``Field`` builds its addition, multiplication, negation and inverse tables
once, and those tables are its only arithmetic: the kernels in
:mod:`lie_ncg.linalg` and :mod:`lie_ncg.liealg` index them directly
(``add_table[a][b]``, ``mul_table[a]`` as the map x -> a*x).
"""

from functools import cache

from .errors import NotPrimePower, UnsupportedField

FIELD_CAP = 27

# Monic irreducible reduction polynomials, little-endian coefficients over F_p
# (constant term first, leading coefficient last).
REDUCTION_POLYNOMIALS = {
    4: (1, 1, 1),            # t^2 + t + 1 over F_2
    8: (1, 1, 0, 1),         # t^3 + t + 1 over F_2
    9: (1, 0, 1),            # t^2 + 1 over F_3
    16: (1, 1, 0, 0, 1),     # t^4 + t + 1 over F_2
    25: (1, 1, 1),           # t^2 + t + 1 over F_5
    27: (1, 2, 0, 1),        # t^3 + 2t + 1 over F_3
}


def prime_factors(n):
    """Yield ``(prime, exponent)`` for each prime dividing n, smallest prime
    first, by trial division; nothing for n < 2."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            yield d, k
        d += 1
    if n > 1:
        yield n, 1


def prime_power_decomposition(q):
    """Return ``(p, k)`` with ``q = p^k`` and p prime, or None.

    Only the smallest prime factor is searched for, so a q with a small
    factor is settled at once however large it is.
    """
    p, k = next(prime_factors(q), (None, 0))
    if p is None or p**k != q:
        return None
    return p, k


class Field:
    """The finite field F_q with table-backed exact arithmetic.

    ``add_table[a][b]`` is a + b, ``mul_table[a][b]`` is a * b,
    ``neg_table[a]`` is -a and ``inv_table[a]`` is 1/a (None for 0), all as
    tuples.  Immutable after construction; safe to share between threads.
    ``field_new`` builds the one Field of each order, so fields compare by
    identity.
    """

    def __init__(self, q, p, k, reduction_polynomial):
        self.q = q
        self.p = p
        self.k = k
        self.reduction_polynomial = tuple(reduction_polynomial)
        self._build_tables()

    def __repr__(self):
        return f"Field(q={self.q})"

    # -- element encoding ---------------------------------------------------

    def _digits(self, code):
        p, k = self.p, self.k
        out = []
        for _ in range(k):
            out.append(code % p)
            code //= p
        return out

    def _code(self, digits):
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    # -- tables -------------------------------------------------------------

    def _build_tables(self):
        # a prime field is the case k = 1: one digit, nothing to reduce
        q, p = self.q, self.p
        digits = [self._digits(a) for a in range(q)]
        add = [
            [self._code([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
            for a in range(q)
        ]
        mul = [[self._poly_mul(digits[a], digits[b]) for b in range(q)] for a in range(q)]
        self.add_table = tuple(map(tuple, add))
        self.mul_table = tuple(map(tuple, mul))
        self.neg_table = tuple(row.index(0) for row in add)
        self.inv_table = (None,) + tuple(row.index(1) for row in mul[1:])

    def _poly_mul(self, da, db):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic reduction polynomial
        red = self.reduction_polynomial
        for deg in range(len(prod) - 1, k - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for j in range(k):
                    prod[deg - k + j] = (prod[deg - k + j] - c * red[j]) % p
        return self._code(prod[:k])

    def elements(self):
        return range(self.q)


@cache
def field_new(q):
    """The one F_q, built on first request, or raise NotPrimePower /
    UnsupportedField.

    The cap comes before the prime-power test, so a huge q is refused without
    trial division.
    """
    if q > FIELD_CAP:
        raise UnsupportedField(f"field order {q} exceeds the cap {FIELD_CAP}")
    pk = prime_power_decomposition(q)
    if pk is None:
        raise NotPrimePower(f"{q} is not a prime power")
    p, k = pk
    return Field(q, p, k, REDUCTION_POLYNOMIALS[q] if k > 1 else ())
