"""Exhaustive enumeration of Lie algebra structures on F_q^n for tiny n, q.

A structure assigns one coefficient vector c_ij to each basis pair ``i < j``;
antisymmetry is then automatic and the only constraint left is the Jacobi
identity on basis triples.  For n <= 2 there is no triple, so every tensor is
a Lie structure.  For n = 3 there is one triple, and with c_01 and c_02 fixed
its Jacobi sum is affine in c_12, so each of the q^6 pairs (c_01, c_02) gives
its structures as an AND of three hyperplane masks on F_q^4, not by testing
q^3 candidates.  That solve is the Jacobi check, so the algebras are built
with ``validate=False``.
Deduplication reduces modulo the GL(n, q) basis-change action
T -> g^-1 T(g., g.), which is linear in T.  GL(n, q) is generated by at most
three matrices (``_gl_generators``): the transvection I + E_01, the cyclic
permutation of the basis and, for q > 2, diag(w, 1, ..., 1) with w a
generator of F_q^*.  ``_LinearAction`` turns them into one linear map on the
N = n * C(n, 2) coordinates of a tensor, into all their images packed side
by side, read off the images of the N unit tensors.  A tensor is coded as an
int, and applying every generator is a table lookup per chunk of
coordinates, a sum and an arithmetic reduction modulo p.  The tables and the
orbits are built once per shape, not per ``orbit_partition`` or
``algebras_equivalent`` call: ``_orbit_index`` closes each new tensor's orbit
under the generators, so the work grows with the orbit, not |GL(n, q)|, and
stops once the orbits cover every Lie tensor, counted by ``_lie_tensor_count``.
"""

from functools import cache
from itertools import combinations, product

from .errors import CapExceeded, JacobiViolation
from .liealg import LieAlgebra
from .linalg import bits, vector_space

ENUM_MAX_DIM = 3
ENUM_MAX_Q = 3


def _check_scope(n, field, least=1):
    """Raise CapExceeded unless least <= n <= ENUM_MAX_DIM and q <= ENUM_MAX_Q.
    A scope of non-abelian algebras passes ``least=2``: every algebra of
    dim < 2 is abelian."""
    if not least <= n <= ENUM_MAX_DIM or field.q > ENUM_MAX_Q:
        raise CapExceeded(
            f"enumeration supports {least} <= dim <= {ENUM_MAX_DIM} and q <= {ENUM_MAX_Q}; "
            f"got dim={n}, q={field.q}"
        )


def _c12_solutions(field, c01, c02):
    """Every c_12 that makes (c_01, c_02, c_12) a Lie structure on F_q^3, in
    ascending order.

    The Jacobi sum of the one triple (0, 1, 2) is bilinear in the structure
    constants; with c = c_12 it is
    J(c) = (c02_0 c01 - c01_0 c02) + c_1 c01 + c_2 c02 - (c01_1 + c02_2) c,
    so J(c) = J(0) + Mc with M and J(0) read off this formula.  The solutions
    are the c with (c, 1) in the kernel of the augmented matrix [M | J(0)],
    whose rows are vectors of F_q^4: the members of that kernel's mask with
    index c + q^3, bits q^3 to 2q^3 - 1.
    """
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    V = vector_space(field, 4)
    t = neg[add[c01[1]][c02[2]]]
    rows = []
    for r in range(3):
        j0 = add[mul[c02[0]][c01[r]]][neg[mul[c01[0]][c02[r]]]]
        row = [0, c01[r], c02[r], j0]
        row[r] = add[row[r]][t]
        rows.append(V.code(row))
    cube = field.q**3
    found = V.solutions(rows) >> cube & (1 << cube) - 1
    digits = vector_space(field, 3).digits
    return sorted(digits[c] for c in bits(found))


def _lie_tensor_count(n, field):
    """The number of Lie structures on F_q^n: every one of the q^(n C(n, 2))
    tensors for n <= 2, and 2q^6 - q^3 for n = 3, in every characteristic.

    For n = 3 write [x, y] = M cross(x, y), with the cross product
    cross(e_0, e_1) = e_2 and its cyclic shifts, so M's columns are c_12,
    -c_02 and c_01.  The Jacobi sum of e_0, e_1, e_2 is then -M w with
    w = sum_i cross(e_i, M e_i) = sum_(i<j) (M_ji - M_ij) cross(e_i, e_j),
    so Jacobi is M w = 0, and w depends only on M - M^T.  Each M is S + N_w
    for exactly one symmetric S, with N_w the strictly upper triangular
    matrix of the same w.  For w = 0, M = S and all q^6 choices of S work.
    For w != 0, say w_k != 0, the map S -> S w is onto F_q^3, as
    E_kk w = w_k e_k and (E_ik + E_ki) w = w_k e_i + w_i e_k; so the affine
    equation S w = -N_w w has q^3 solutions among the q^6 symmetric S.  The
    total is q^6 + (q^3 - 1) q^3.
    """
    q = field.q
    if n < 3:
        return q ** (n * (n - 1) // 2 * n)
    return 2 * q**6 - q**3


def _structure_tensors(n, field):
    """Every Lie structure on F_q^n as its tuple of coefficient vectors
    (c_01, c_02, ...), in ascending order; the scope is not checked."""
    vectors = list(product(field.elements(), repeat=n))
    if n < 3:
        yield from product(vectors, repeat=n * (n - 1) // 2)
        return
    for c01, c02 in product(vectors, repeat=2):
        for c12 in _c12_solutions(field, c01, c02):
            yield c01, c02, c12


def jacobi_tensors(n, field):
    """Stream all Jacobi-satisfying structure tensors (abelian included), one
    LieAlgebra each and not deduplicated, in ascending order of their
    coefficient vectors c_01, c_02, ...; ``orbit_partition`` gives one
    representative per GL(n, q) class."""
    _check_scope(n, field)
    pairs = list(combinations(range(n), 2))
    for tensor in _structure_tensors(n, field):
        yield LieAlgebra(field, n, dict(zip(pairs, tensor)), validate=False)


def _gl_generators(n, field):
    """At most three generators of GL(n, q) as (g, g^-1) pairs of row-tuple
    tuples: for n >= 2 the transvection T = I + E_01, inverted by I - E_01,
    and the cyclic permutation C: e_i -> e_(i+1 mod n), inverted by its
    transpose; for q > 2 also D = diag(w, 1, ..., 1), inverted by
    diag(1/w, 1, ..., 1), with w the least element of multiplicative order
    q - 1, read off the field's multiplication table.

    They generate GL(n, q).  Write x_ij(c) for I + cE_ij.  Conjugating by C
    shifts both indices, C x_ij(c) C^-1 = x_(i+1, j+1)(c), so the
    C-conjugates of T are every x_(i, i+1)(1), indices mod n, and the
    commutators [x_ij(a), x_jk(b)] = x_ik(ab) for distinct i, j, k then
    give every x_ij(1).  D^m x_ij(1) D^-m is x_0j(w^m) for i = 0 and
    x_i0(w^-m) for j = 0, and [x_i0(1), x_0j(w^m)] = x_ij(w^m) for i, j
    both nonzero, so every x_ij(w^m) is reached.  The powers of w span F_q
    additively, and x_ij(a) x_ij(b) = x_ij(a + b), so every x_ij(c) is a
    product of these; the x_ij(c) generate SL(n, q).  det D = w generates
    F_q^*, so D adds every determinant.  Over F_2, SL(n, 2) is GL(n, 2) and
    D is not needed; for n = 1, GL(1, q) is generated by D alone.
    """

    def identity_but(i, j, a):
        return tuple(
            tuple(a if (r, c) == (i, j) else int(r == c) for c in range(n)) for r in range(n)
        )

    mul, inv, neg = field.mul_table, field.inv_table, field.neg_table
    gens = []
    if n > 1:
        cycle = tuple(tuple(int(r == (c + 1) % n) for c in range(n)) for r in range(n))
        gens += [(identity_but(0, 1, 1), identity_but(0, 1, neg[1])),
                 (cycle, tuple(zip(*cycle)))]
    if field.q > 2:
        w = next(a for a in range(2, field.q) if _multiplicative_order(mul, a) == field.q - 1)
        gens.append((identity_but(0, 0, w), identity_but(0, 0, inv[w])))
    return gens


def _multiplicative_order(mul, a):
    """The least m >= 1 with a^m = 1, for a nonzero field element a."""
    power, order = a, 1
    while power != 1:
        power, order = mul[power][a], order + 1
    return order


# Bound on the entries of one lookup table of ``_LinearAction``.
_CHUNK_ENTRIES = 64


class _LinearAction:
    """The generators of GL(n, q) as linear maps on structure tensors coded
    as ints.

    A tensor has N = n * C(n, 2) coordinates, in basis-pair order.
    Its key gives coordinate i the bits [i * k * w, (i + 1) * k * w): one
    w-bit slot per base-p digit of the coordinate's code (q = p^k), so adding
    two keys adds their F_p digits slot by slot.  A generator maps a tensor
    to the sum of its coordinates' images, so all of them together are one
    table per chunk of consecutive coordinates, from the chunk's bits to the
    packed images of those coordinates alone, generator g's image at bit
    g * N * k * w.  Applying every generator is a lookup per chunk, a sum, a
    reduction of every slot modulo p, and a shift and a mask per generator.
    The slots are wide enough that the sum of one entry per chunk, at most
    top = max(chunks, 2) * (p - 1) in a slot, does not carry.  For p = 2 the
    reduction is an AND with each slot's low bit.  For odd p each slot has a
    guard bit above top, w = top.bit_length() + 1, and top // p rounds each
    subtract p from every slot holding p or more: adding 2^(w-1) - p to each
    slot sets its guard bit exactly then, without a carry.

    The tables are built once per instance from the images of the N unit
    tensors under each generator g, which rewrites a tensor in the basis of
    g's columns.  Unit tensor i sets [e_a, e_b] = e_r, with (a, b) =
    ``pairs[i // n]`` and r = i % n.  Its image has [g_c, g_d] = det g[a, b;
    c, d] e_r, and e_r in the new basis is column r of g^-1.
    """

    def __init__(self, n, field):
        q, p, k = field.q, field.p, field.k
        pairs = list(combinations(range(n), 2))
        size = n * len(pairs)
        per_chunk = 1
        while q ** (per_chunk + 1) <= _CHUNK_ENTRIES:
            per_chunk += 1
        starts = range(0, size, per_chunk)
        gens = _gl_generators(n, field)
        top = max(len(starts), 2) * (p - 1)  # the largest slot of a sum
        w = top.bit_length() + (p > 2)
        self.pairs, self.width, self.p = pairs, k * w, p
        # the slots of each element code hold its base-p digits
        self.code_bits = [sum(c // p**j % p << j * w for j in range(k)) for c in range(q)]
        self.key_mask = (1 << size * self.width) - 1
        self.shifts = [g * size * self.width for g in range(len(gens))]
        self.mask = (1 << per_chunk * self.width) - 1
        self.ones = sum(1 << j * w for j in range(len(gens) * size * k))
        self.rounds, self.guard = top // p, w - 1
        self.offset = self.ones * ((1 << w - 1) - p)
        add, mul, neg = field.add_table, field.mul_table, field.neg_table
        # singles[i][v]: the packed keys of v times each image of unit tensor i
        singles = [[0] * q for _ in range(size)]
        for shift, (g, ginv) in zip(self.shifts, gens):
            for i, (a, b) in enumerate(pairs):
                minors = [add[mul[g[a][c]][g[b][d]]][neg[mul[g[b][c]][g[a][d]]]] for c, d in pairs]
                for r in range(n):
                    moved = [[mul[det][row[r]] for row in ginv] for det in minors]
                    for v, m in enumerate(mul):
                        image = self.encode([[m[x] for x in vec] for vec in moved])
                        singles[i * n + r][v] |= image << shift
        self.tables = []
        for start in starts:
            table = {0: 0}
            for i in range(start, min(start + per_chunk, size)):
                shift = (i - start) * self.width
                table = {self.code_bits[v] << shift | chunk: self.reduce(image + single)
                         for chunk, image in table.items()
                         for v, single in enumerate(singles[i])}
            self.tables.append((table, start * self.width))

    def reduce(self, total):
        """``total`` with every slot taken modulo p."""
        if self.p == 2:
            return total & self.ones
        ones, offset, guard, p = self.ones, self.offset, self.guard, self.p
        for _ in range(self.rounds):
            total -= ((total + offset) >> guard & ones) * p
        return total

    def encode(self, tensor):
        """The key of a tensor given as its coefficient vectors, in
        basis-pair order."""
        key = 0
        for i, c in enumerate([c for vec in tensor for c in vec]):
            key |= self.code_bits[c] << i * self.width
        return key

    def images(self, key):
        """The keys of the images of ``key`` under each generator, in the
        order of ``_gl_generators``."""
        mask, keys = self.mask, self.key_mask
        total = self.reduce(sum([t[key >> s & mask] for t, s in self.tables]))
        return [total >> s & keys for s in self.shifts]


@cache
def _orbit_index(n, field):
    """The GL(n, q) orbits of the Lie tensors on F_q^n: the ``_LinearAction``,
    a dict from each Lie tensor's key to its orbit's number, and each orbit's
    (representative tensor, size) in first-seen enumeration order.  GL maps
    Lie tensors to Lie tensors, so the walk stops once the orbits cover all
    ``_lie_tensor_count`` of them.  The scope is not checked."""
    action = _LinearAction(n, field)
    total = _lie_tensor_count(n, field)
    orbit_of, orbits = {}, []
    for tensor in _structure_tensors(n, field):
        if len(orbit_of) == total:
            break
        key = action.encode(tensor)
        if key in orbit_of:
            continue
        number, before, stack = len(orbits), len(orbit_of), [key]
        orbit_of[key] = number
        while stack:
            for image in action.images(stack.pop()):
                if image not in orbit_of:
                    orbit_of[image] = number
                    stack.append(image)
        orbits.append((tensor, len(orbit_of) - before))
    return action, orbit_of, orbits


def algebras_equivalent(L1, L2):
    """True iff some GL basis change carries L1's structure onto L2's.

    L1's shape is checked against the enumeration scope first, as the orbit
    index walked for it grows with the shape.  An algebra whose tensor is in
    no orbit fails the Jacobi identity, and raises ``JacobiViolation``."""
    _check_scope(L1.dim, L1.field)
    if L1.field != L2.field or L1.dim != L2.dim:
        return False
    action, orbit_of, _orbits = _orbit_index(L1.dim, L1.field)
    numbers = [orbit_of.get(action.encode(L.structure.values())) for L in (L1, L2)]
    if None in numbers:
        raise JacobiViolation((L1, L2)[numbers.index(None)].jacobi_failure())
    return numbers[0] == numbers[1]


def orbit_partition(n, field):
    """GL-orbits of the Jacobi tensors: list of (representative LieAlgebra,
    orbit_size), representatives in first-seen enumeration order, read off
    ``_orbit_index``.  Only the representatives are built as algebras."""
    _check_scope(n, field)
    action, _orbit_of, orbits = _orbit_index(n, field)
    return [(LieAlgebra(field, n, dict(zip(action.pairs, tensor)), validate=False), size)
            for tensor, size in orbits]
