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
T -> g^-1 T(g., g.), which is linear in T.  ``_LinearAction`` turns each
generator of GL(n, q) (the transvections I + E_ij and the matrices
diag(a, 1, ..., 1)) into a linear map on the N = n * C(n, 2) coordinates of
a tensor, built once per ``orbit_partition`` or ``algebras_equivalent`` call
from the images of the N unit tensors, each read off the 2 x 2 minors of
the generator and a column of its inverse.  A tensor is coded as an int, and
one generator's action is a table lookup per chunk of coordinates, a sum and
a reduction modulo p.  Each new tensor's orbit is closed under the
generators, so the work grows with the orbit, not with |GL(n, q)|, and only
each orbit's representative is built as a ``LieAlgebra``.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from .errors import CapExceeded
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


def tensor_key(table, n):
    """Hashable canonical encoding of a structure table."""
    return tuple(tuple(table[p]) for p in combinations(range(n), 2))


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
    return sorted(V.digits[c][:3] for c in bits(found))


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
    """Generators of GL(n, q) as (g, g^-1) pairs of row-tuple tuples: the
    transvections I + E_ij (i != j), inverted by I - E_ij, and
    diag(a, 1, ..., 1) for every a other than 0 and 1, inverted by
    diag(1/a, 1, ..., 1).  Conjugating by the diagonal matrices gives every
    I + cE_ij, which generate SL(n, q), and a generator a of F_q^* then gives
    all of GL(n, q)."""

    def identity_but(i, j, a):
        return tuple(
            tuple(a if (r, c) == (i, j) else int(r == c) for c in range(n)) for r in range(n)
        )

    neg, inv = field.neg_table, field.inv_table
    pairs = permutations(range(n), 2)
    gens = [(identity_but(i, j, 1), identity_but(i, j, neg[1])) for i, j in pairs]
    return gens + [(identity_but(0, 0, a), identity_but(0, 0, inv[a])) for a in range(2, field.q)]


# Bounds on the entries of one lookup table of ``_LinearAction``.
_CHUNK_ENTRIES = 64
_REDUCE_ENTRIES = 1024


class _LinearAction:
    """The generators of GL(n, q) as linear maps on structure tensors coded
    as ints.

    A tensor has N = n * C(n, 2) coordinates, in the order of ``tensor_key``.
    Its key gives coordinate i the bits [i * k * w, (i + 1) * k * w): one
    w-bit slot per base-p digit of the coordinate's code (q = p^k), so adding
    two keys adds their F_p digits slot by slot.  A generator maps a tensor
    to the sum of its coordinates' images, so its map is one table per chunk
    of consecutive coordinates, from the chunk's bits to the image of those
    coordinates alone.  One action is a lookup per chunk, a sum, and a
    reduction of every slot modulo p: an AND with each slot's low bit for
    p = 2, one lookup per group of slots otherwise.  The slots are wide
    enough that the sum of one entry per chunk does not carry.

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
        top = max(len(starts), 2) * (p - 1)  # the largest slot of a sum
        w = top.bit_length()
        slots = size * k
        self.pairs, self.width = pairs, k * w
        # the slots of each element code hold its base-p digits
        self.code_bits = [sum(c // p**j % p << j * w for j in range(k)) for c in range(q)]
        self.shifts = [start * self.width for start in starts]
        self.mask = (1 << per_chunk * self.width) - 1
        self.groups = None
        if p == 2:
            self.low = sum(1 << j * w for j in range(slots))
        else:
            group = 1
            while (top + 1) ** (group + 1) <= _REDUCE_ENTRIES:
                group += 1
            reduced = {0: 0}
            for j in range(group):
                reduced = {s << j * w | key: s % p << j * w | red
                           for key, red in reduced.items() for s in range(top + 1)}
            self.reduce_table, self.group_mask = reduced, (1 << group * w) - 1
            self.groups = range(0, slots * w, group * w)
        add, mul, neg = field.add_table, field.mul_table, field.neg_table
        self.maps = []
        for g, ginv in _gl_generators(n, field):
            # singles[i][v]: the key of v times the image of unit tensor i
            singles = []
            for a, b in pairs:
                minors = [add[mul[g[a][c]][g[b][d]]][neg[mul[g[b][c]][g[a][d]]]] for c, d in pairs]
                for r in range(n):
                    moved = [[mul[det][row[r]] for row in ginv] for det in minors]
                    singles.append([self.encode([[m[x] for x in vec] for vec in moved])
                                    for m in mul])
            tables = []
            for start in starts:
                table = {0: 0}
                for i in range(start, min(start + per_chunk, size)):
                    shift = (i - start) * self.width
                    table = {self.code_bits[v] << shift | chunk: self.reduce(image + single)
                             for chunk, image in table.items()
                             for v, single in enumerate(singles[i])}
                tables.append(table)
            self.maps.append(tables)

    def reduce(self, total):
        """``total`` with every slot taken modulo p."""
        if self.groups is None:
            return total & self.low
        table, mask = self.reduce_table, self.group_mask
        out = 0
        for shift in self.groups:
            out |= table[total >> shift & mask] << shift
        return out

    def encode(self, tensor):
        """The key of a tensor given as its coefficient vectors, in the order
        of ``tensor_key``."""
        key = 0
        for i, c in enumerate([c for vec in tensor for c in vec]):
            key |= self.code_bits[c] << i * self.width
        return key

    def images(self, key):
        """The keys of the images of ``key`` under each generator, in the
        order of ``_gl_generators``."""
        chunks = [key >> s & self.mask for s in self.shifts]
        reduce = self.reduce
        return [reduce(sum([t[c] for t, c in zip(tables, chunks)])) for tables in self.maps]

    def orbit(self, key):
        """Keys of the GL(n, q) orbit of ``key``, found by closing {key}
        under the generators."""
        orbit = {key}
        stack = [key]
        while stack:
            for image in self.images(stack.pop()):
                if image not in orbit:
                    orbit.add(image)
                    stack.append(image)
        return orbit


def algebras_equivalent(L1, L2):
    """True iff some GL basis change carries L1's structure onto L2's.

    L1's shape is checked against the enumeration scope first, as the orbit
    closed here can be as large as those ``orbit_partition`` closes."""
    _check_scope(L1.dim, L1.field)
    if L1.field != L2.field or L1.dim != L2.dim:
        return False
    n = L1.dim
    action = _LinearAction(n, L1.field)
    target = action.encode(tensor_key(L2.structure, n))
    return target in action.orbit(action.encode(tensor_key(L1.structure, n)))


def orbit_partition(n, field):
    """GL-orbits of the Jacobi tensors: list of (representative LieAlgebra,
    orbit_size), representatives in first-seen enumeration order.  Only the
    representatives are built as algebras."""
    _check_scope(n, field)
    action = _LinearAction(n, field)
    pairs = action.pairs
    seen = set()
    orbits = []
    for tensor in _structure_tensors(n, field):
        key = action.encode(tensor)
        if key in seen:
            continue
        orbit = action.orbit(key)
        seen |= orbit
        orbits.append((LieAlgebra(field, n, dict(zip(pairs, tensor)), validate=False),
                       len(orbit)))
    return orbits
