"""Lie algebras over F_q presented by structure constants.

An algebra element is a tuple of ``dim`` field codes (coefficients in the
chosen basis).  Structure constants are stored only for basis pairs ``i < j``;
the bracket of equal basis elements is zero and the ``i > j`` case is the
negation, so antisymmetry holds by construction rather than by validation.

``_bracket``, the bracket of two coordinate tuples, reads the field's
tables (``Field.add_table`` and friends) and walks the nonzero structure
terms, built once per algebra; ``jacobi_failure`` and ``is_nilpotent``
bracket through it, and it checks no argument.  Kernels code each element
as its index sum v_i q^i in F_q^dim (``linalg.VectorSpace``, reached
through ``space`` once the element cap is checked): ``ad_rows[x]`` holds
the rows of ad(x) as indices, zipped from one ``VectorSpace.linear_map``
table per row, each a linear map of x read from the rows of the ad(e_k).
Subspaces are masks too: ``center_mask`` is the AND of the hyperplane masks
of every ad(e_k) row, kept per algebra, ``center`` and ``derived_subalgebra``
read a basis off a mask (``VectorSpace.basis``), and ``is_nilpotent`` walks
the lower central series as ``VectorSpace.span`` masks.  Only
``centralizer_order``, which takes an element index, eliminates: it reduces
the rows of ad(x) to a rank with ``VectorSpace.rank``.  The verifier calls
it on the graph's element indices, once per line {cx : c != 0} as
``VectorSpace.line`` names it, so the graph's rows and the centralizer
orders that Lem2.2 compares them with come from different algorithms.
The tables behind ``ad_rows`` and the ranks are memoized on the shared
``VectorSpace``, so algebras of one space with equal rows of ad(e_k) share
their tables, and every ad(x) whose rows lie on one set of lines, such as
ad(x) and c ad(x), shares one elimination: over the criterion-1 pool,
19,155 ranks run 336.  The rank memo is keyed by those lines and never
reads a centralizer mask.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import cache, cached_property
from itertools import combinations

from .errors import CapExceeded, JacobiViolation, LieNcgError
from .gf import field_new
from .linalg import vector_space

DEFAULT_ELEMENT_CAP = 4096


def element_cap():
    """Size cap on q^dim, overridable via the LIE_NCG_CAP environment variable.

    Raises LieNcgError when the variable is set to anything but a positive
    integer.
    """
    raw = os.environ.get("LIE_NCG_CAP")
    if not raw:
        return DEFAULT_ELEMENT_CAP
    try:
        cap = int(raw)
        if cap > 0:
            return cap
    except ValueError:
        pass
    raise LieNcgError(f"LIE_NCG_CAP must be a positive integer, got {raw!r}")


def check_element_cap(order):
    """Raise CapExceeded when an algebra of ``order`` = q^dim elements is
    past the element cap."""
    cap = element_cap()
    if order > cap:
        raise CapExceeded(f"q^dim = {order} exceeds the element cap {cap}")


class AlgebraSpec(namedtuple("AlgebraSpec", "q dim basis brackets", defaults=((),))):
    """A textual presentation: basis names plus the nonzero basis brackets.

    ``brackets`` maps nothing implicitly: unspecified pairs default to zero.
    Each entry is ``(left_name, right_name, {name: coefficient_code})``.
    """

    __slots__ = ()


@cache
def _basis_layout(dim):
    """The basis pairs (i, j), i < j, in order, the default basis names
    e0, e1, ... and the zero vector, shared by every algebra of dimension
    ``dim``."""
    return tuple(combinations(range(dim), 2)), tuple(f"e{i}" for i in range(dim)), (0,) * dim


class LieAlgebra:
    """A finite-dimensional Lie algebra over F_q, immutable after construction."""

    def __init__(self, field, dim, structure, basis_names=None, validate=True):
        pairs, names, zero = _basis_layout(dim)
        self.field = field
        self.dim = dim
        self.basis_names = tuple(basis_names) if basis_names else names
        # structure: dict (i, j) -> coefficient tuple, only for i < j and
        # only nonzero entries need be present.
        get = structure.get
        self.structure = {pair: tuple(get(pair, zero)) for pair in pairs}
        # the nonzero [e_i, e_j], i < j, as (i, j, ((k, c), ...)) over c != 0
        self._terms = tuple([
            (i, j, tuple([(k, c) for k, c in enumerate(cij) if c]))
            for (i, j), cij in self.structure.items()
            if any(cij)
        ])
        if validate:
            triple = self.jacobi_failure()
            if triple is not None:
                raise JacobiViolation(triple)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim} over F_{self.field.q})"

    # -- bracket ------------------------------------------------------------

    def basis_vector(self, i):
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def _bracket(self, u, v):
        """[u, v], the bilinear extension of the structure constants; u and
        v are not checked."""
        add, mul, neg = self.field.add_table, self.field.mul_table, self.field.neg_table
        out = [0] * self.dim
        for i, j, terms in self._terms:
            # coefficient of [e_i, e_j] in [u, v] is u_i v_j - u_j v_i
            s = add[mul[u[i]][v[j]]][neg[mul[u[j]][v[i]]]]
            if s:
                m = mul[s]
                for k, c in terms:
                    out[k] = add[out[k]][m[c]]
        return tuple(out)

    def jacobi_failure(self):
        """The first basis triple ``(i, j, k)`` on which the Jacobi identity
        fails, or None when it holds everywhere.  With c_ab = [e_a, e_b], a
        triple's Jacobi sum is [e_i, c_jk] + [e_k, c_ij] + [c_ik, e_j], the
        last term being [e_j, [e_k, e_i]] by antisymmetry."""
        add, c = self.field.add_table, self.structure
        e = [self.basis_vector(i) for i in range(self.dim)]
        for i, j, k in combinations(range(self.dim), 3):
            terms = zip(self._bracket(e[i], c[j, k]), self._bracket(e[k], c[i, j]),
                        self._bracket(c[i, k], e[j]))
            if any(add[add[x][y]][z] for x, y, z in terms):
                return i, j, k
        return None

    # -- derived structure --------------------------------------------------

    @cached_property
    def space(self):
        """The index tables of F_q^dim (``linalg.VectorSpace``), fetched
        once per algebra after the element cap is checked."""
        check_element_cap(self.order)
        return vector_space(self.field, self.dim)

    @cached_property
    def ad_rows(self):
        """Per element index x, the rows of ad(x), the matrix of y -> [x, y],
        as element indices.  Row r of ad(x) is sum_k x_k (row r of ad(e_k)),
        a linear map of x, so each row is a ``VectorSpace.linear_map`` table,
        shared by every algebra of the space with the same row r of each
        ad(e_k).  Entry (r, j) of ad(e_k) is coefficient r of [e_k, e_j],
        which is c_kj for k < j and -c_jk for k > j."""
        V = self.space
        neg, units = self.field.neg_table, V.units
        # images[r][k]: row r of ad(e_k)
        images = [[0] * self.dim for _ in range(self.dim)]
        for i, j, cij in self._terms:
            for r, c in cij:
                images[r][i] += c * units[j]
                images[r][j] += neg[c] * units[i]
        return list(zip(*(V.linear_map(tuple(row)) for row in images)))

    def centralizer_order(self, x):
        """|C_L(x)| for the element of index x, q^(dim - rank ad(x)) by
        rank-nullity.  Raises CapExceeded past the element cap, else
        LieNcgError unless x is an int in 0..q^dim - 1 (a bool or an
        integral float is refused)."""
        V = self.space
        if type(x) is not int or not 0 <= x < len(V.digits):
            raise LieNcgError(f"{x!r} is not an int element index in 0..{self.order - 1}")
        return self.field.q ** (self.dim - V.rank(self.ad_rows[x]))

    @cached_property
    def center_mask(self):
        """Z(L), the common kernel of every ad(e_k), as a bitmask over
        element indices."""
        V = self.space
        return V.solutions([row for w in V.units for row in self.ad_rows[w]])

    def center(self):
        """A basis of Z(L), read off ``center_mask``, as coordinate tuples."""
        V = self.space
        return tuple(V.digits[v] for v in V.basis(self.center_mask))

    def derived_subalgebra(self):
        """A basis of [L, L], the span of the structure constants, as
        coordinate tuples."""
        V = self.space
        span = V.span([V.code(c) for c in self.structure.values()])
        return tuple(V.digits[v] for v in V.basis(span))

    def is_abelian(self):
        """True iff every structure constant is zero."""
        return not self._terms

    def is_nilpotent(self):
        """True iff the lower central series L, [L, L], [L, [L, L]], ...,
        each a mask, reaches the zero subspace (mask 1) before it repeats."""
        V = self.space
        current = V.everything
        while current != 1:
            basis = [V.digits[b] for b in V.basis(current)]
            units = map(self.basis_vector, range(self.dim))
            nxt = V.span([V.code(self._bracket(e, b)) for e in units for b in basis])
            if nxt == current:
                return False
            current = nxt
        return True

    # -- elements -----------------------------------------------------------

    @property
    def order(self):
        return self.field.q ** self.dim

    def element_label(self, vec):
        """Render an element like ``x+y+z`` or ``2x+y`` in basis order."""
        terms = []
        for c, name in zip(vec, self.basis_names):
            if c == 0:
                continue
            terms.append(name if c == 1 else f"{c}{name}")
        return "+".join(terms) if terms else "0"


def algebra_from_spec(spec):
    """Build and validate a LieAlgebra from an AlgebraSpec.

    Basis names must be nonempty, must not start with a digit and must not
    contain ``+``, ``"`` or ``\\``, so distinct elements get distinct labels,
    nor U+0000-U+001F, U+FFFE or U+FFFF, which XML cannot carry unchanged,
    nor a surrogate U+D800-U+DFFF, which UTF-8 cannot encode.
    Raises the spec-validation errors from :mod:`lie_ncg.errors`; Jacobi is
    checked on every basis triple before the algebra is returned.  That check
    costs about dim^5 steps, so an algebra past the element cap raises
    CapExceeded before it runs.
    """
    from .errors import DuplicateBracket, ParseError, SelfBracketNonzero, UnknownBasisName

    field = field_new(spec.q)
    names = list(spec.basis)
    if len(names) != spec.dim or len(set(names)) != len(names):
        raise UnknownBasisName("basis must list exactly dim distinct names")
    for name in names:
        # element labels write a coefficient before the name and join terms
        # with "+", the DOT export quotes labels without escaping, XML drops
        # or rewrites control characters, U+FFFE and U+FFFF, and the DOT and
        # GraphML exports cannot encode a lone surrogate as UTF-8
        if not name or name[0] in "0123456789" or any(
            c in '+"\\\ufffe\uffff' or c < " " or "\ud800" <= c <= "\udfff" for c in name
        ):
            raise UnknownBasisName(
                f"basis name {name!r}: names must be nonempty, not start with a digit"
                f" and not contain +, \", \\, U+0000-U+001F, U+D800-U+DFFF, U+FFFE or U+FFFF"
            )
    index = {name: i for i, name in enumerate(names)}
    structure = {}
    seen = set()
    for left, right, value in spec.brackets:
        if left not in index or right not in index:
            raise UnknownBasisName(f"bracket [{left}, {right}] uses an undeclared name")
        for name in value:
            if name not in index:
                raise UnknownBasisName(f"bracket value uses undeclared name {name!r}")
        i, j = index[left], index[right]
        if i == j:
            if any(value.values()):
                raise SelfBracketNonzero(f"[{left}, {left}] must be zero")
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateBracket(f"bracket for pair [{left}, {right}] given twice")
        seen.add(key)
        vec = [0] * spec.dim
        for name, coeff in value.items():
            if not 0 <= coeff < spec.q:
                raise ParseError(f"coefficient {coeff} out of range [0, {spec.q})")
            vec[index[name]] = coeff
        if i > j:
            vec = [field.neg_table[c] for c in vec]
        structure[key] = tuple(vec)
    check_element_cap(spec.q ** spec.dim)
    return LieAlgebra(field, spec.dim, structure, basis_names=names)
