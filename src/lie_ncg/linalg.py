"""Exact linear algebra over a small finite field, on index-coded vectors.

A ``VectorSpace`` codes each vector v of F_q^dim as one int, its element
index sum v_i q^i, so the first coordinate varies fastest.  Its tables are
built once per (q, dim) by ``vector_space``: ``digits[v]``, the coordinate
tuple of v, listing F_q^dim in index order; ``scale[a][v]``, the index of
a*v, with q * q^dim entries; ``line[v]``, the index of v scaled so that its
first nonzero coordinate is 1 (and 0 for v = 0), which names the line
{cv : c != 0} and is the one place elements are grouped into lines; and
addition split over the low ``half`` coordinates and the rest, so
u + v = ``low[u % split][v % split] + high[u // split][v // split]``, where
``split`` = q^half and no table has more than about q * q^dim entries.

A subspace is a bitmask over its members' indices, and every kernel is
one: ``VectorSpace.perp`` gives the hyperplane {y : a . y = 0} of a row a,
built from the field tables and kept under ``line[a]``, and
``VectorSpace.solutions`` ANDs those of a matrix's rows, so centralizers, the
center and the enumeration's Jacobi solve need no row reduction.
``VectorSpace.basis`` reads at most dim members off a mask, one per last
nonzero coordinate, and ``VectorSpace.span`` is the solutions of a basis of
the solutions; ``bits`` lists a mask's members.  ``VectorSpace.rank``, the
one elimination, is left for Lem2.2's centralizer orders, so those are found
another way than the graph's rows.

Every algebra on F_q^dim shares the one ``VectorSpace``, so the work that
depends only on the space and its input is memoized there, once per
distinct input for all of them: ``VectorSpace.linear_map``, the table
x -> sum_k x_k images[k] over element indices (the rows of ad(x) are
``dim`` such tables), keyed by the images; ``VectorSpace.rank``, keyed
by the set of the rows' ``line`` representatives, which fixes their span,
so ad(x), ad(cx) and any matrix whose rows differ from its rows by
scalars, order or zero rows share one elimination; and
``VectorSpace.graphs``, which ``ncg.build_graph`` fills with each
centralizer family's bare ``Graph``, its rows and facts, and its vertices'
indices, keyed by the centralizer masks of the lines outside the center.
Each memo stops taking entries at a fixed bound (``LINEAR_MAP_MEMO_ENTRIES``,
``RANK_MEMO_KEYS`` and ``ncg.GRAPH_MEMO_BYTES``) and then computes without
storing.

``first_read`` is the package's one descriptor for a fact computed the
first time an object is asked for it and then kept on the object.

Everything is exact and deterministic.
"""

from functools import cache
from operator import mul

# the linear-map memo stops taking tables once it holds this many entries,
# that is 32 tables at the default element cap q^dim = 4096
LINEAR_MAP_MEMO_ENTRIES = 1 << 17
# the rank memo stops taking keys once it holds this many, about 3 MB at
# the default element cap; the 3-row matrices over F_3^3 have 469 keys, and
# the ad(x) of the 1569 algebras of the criterion-1 pool have 336
RANK_MEMO_KEYS = 4096


class first_read:
    """A method read as an attribute: computed on the first read and kept in
    the instance's ``__dict__``, which every later read finds before this
    descriptor.  ``functools.cached_property`` does the same, but takes a
    lock on every first read on Python 3.10-3.11.  Two threads that read
    at once may both compute the fact; it is deterministic, so both keep
    the same value."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def bits(mask):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _index_sums(field, k):
    """The q^k x q^k table of u + v over index-coded F_q^k, built one
    coordinate at a time: u + w*a plus v + w*b is (u + v) + w*(a + b)."""
    add = field.add_table
    table = [[0]]
    w = 1
    for _ in range(k):
        table = [
            [x + w * s for s in add[a] for x in row] for a in field.elements() for row in table
        ]
        w *= field.q
    return table


class VectorSpace:
    """F_q^dim with each vector coded as its element index sum v_i q^i.

    Build it through ``vector_space``, which keeps one per (q, dim); its
    tables hold about q * q^dim entries, so callers check the element cap
    first.
    """

    def __init__(self, field, dim):
        q = field.q
        self.field = field
        self.dim = dim
        self.units = tuple(q**i for i in range(dim))
        inv = field.inv_table
        digits = [()]
        scale = [[0] for _ in field.elements()]
        # the inverse of each vector's first nonzero coordinate (1 for 0):
        # that of x + w*c is x's unless x = 0
        leads = [1]
        for w in self.units:
            digits = [d + (c,) for c in field.elements() for d in digits]
            scale = [
                [x + w * m[c] for c in field.elements() for x in row]
                for m, row in zip(field.mul_table, scale)
            ]
            leads += [lead if x else inv[c] for c in range(1, q) for x, lead in enumerate(leads)]
        self.digits = tuple(digits)
        self.scale = tuple(map(tuple, scale))
        self.line = tuple(scale[s][x] for x, s in enumerate(leads))
        half = dim // 2
        self.split = q**half
        self.low = _index_sums(field, half)
        self.high = [[self.split * s for s in row] for row in _index_sums(field, dim - half)]
        self.everything = (1 << len(digits)) - 1
        self._perps = {}
        self._maps = {}
        self._ranks = {}
        # ncg.build_graph's (Graph, indices) pairs, kept by centralizer family
        self.graphs = {}

    def code(self, vec):
        """The element index of the coordinate tuple ``vec``."""
        return sum(map(mul, vec, self.units))

    def add(self, u, v):
        split = self.split
        return self.low[u % split][v % split] + self.high[u // split][v // split]

    def linear_map(self, images):
        """The table of x -> sum_k x_k images[k] over element indices, as a
        tuple of q^dim indices, for a tuple of ``dim`` index-coded images.

        It is built one coordinate at a time: x + c q^k maps to the image of
        x plus c images[k], so each nonzero image appends, for c = 1 .. q - 1,
        the table so far plus c images[k].  Tables are kept under their images
        until the memo holds ``LINEAR_MAP_MEMO_ENTRIES`` entries: 32 tables
        of 4096 at the default element cap, each about 33 KB of pointers and
        120 KB of ints, so about 5 MB per space.
        """
        table = self._maps.get(images)
        if table is None:
            low, high, split = self.low, self.high, self.split
            table = [0]
            for image in images:
                if image:
                    table += [
                        low[u % split][v % split] + high[u // split][v // split]
                        for u in [m[image] for m in self.scale[1:]]
                        for v in table
                    ]
                else:
                    table *= self.field.q
            table = tuple(table)
            if (len(self._maps) + 1) * len(table) <= LINEAR_MAP_MEMO_ENTRIES:
                self._maps[images] = table
        return table

    def rank(self, rows):
        """The rank of index-coded rows, by ``_eliminate``, kept under the
        set of their ``line`` representatives until the memo holds
        ``RANK_MEMO_KEYS`` keys.  ``line[r]`` is a nonzero multiple of r and
        ``line[0]`` is 0, so the key fixes the span of the rows, and with it
        the rank.  A key is a frozenset of at most 12 of the line table's own
        ints at the default element cap, 728 bytes, and 0.76 KB with its
        dict slot, so the memo stays within 3.2 MB per space."""
        key = frozenset(map(self.line.__getitem__, rows))
        r = self._ranks.get(key)
        if r is None:
            r = self._eliminate(rows)
            if len(self._ranks) < RANK_MEMO_KEYS:
                self._ranks[key] = r
        return r

    def _eliminate(self, rows):
        """The rank of index-coded rows, eliminating below each pivot with
        ``row = add(row, scale[-b][pivot_row])``."""
        digits, scale, add = self.digits, self.scale, self.add
        neg, inv = self.field.neg_table, self.field.inv_table
        mat = [v for v in rows if v]
        r = 0
        for c in range(self.dim):
            if r == len(mat):
                break
            for i in range(r, len(mat)):
                a = digits[mat[i]][c]
                if a:
                    break
            else:
                continue
            prow = mat[i] if a == 1 else scale[inv[a]][mat[i]]
            mat[i] = mat[r]
            r += 1
            for k in range(r, len(mat)):
                b = digits[mat[k]][c]
                if b:
                    mat[k] = add(mat[k], scale[neg[b]][prow])
        return r

    def perp(self, a):
        """The bitmask, bit y set for every element index y with a . y = 0.

        The mask is built once per line {ca : c != 0}, which shares it, and
        kept under the line's representative ``line[a]``: at most
        (q^dim - 1)/(q - 1) masks of q^dim bits, 2 MB at q^dim = 4096.  It
        grows one coordinate at a time: ``sums[s]`` masks the vectors y of
        the first k coordinates with a . y = s, and y_k = c moves index y by
        c q^k, so by a shift.
        """
        rep = self.line[a]
        mask = self._perps.get(rep)
        if mask is None:
            field = self.field
            add, mul, neg = field.add_table, field.mul_table, field.neg_table
            *head, last = self.digits[rep]
            sums = [1] + [0] * (field.q - 1)
            w = 1
            for ak in head:
                nxt = [0] * field.q
                for s, m in enumerate(sums):
                    if m:
                        for c, b in enumerate(mul[ak]):
                            nxt[add[s][b]] |= m << c * w
                sums = nxt
                w *= field.q
            # the last coordinate only has to bring the sum to 0
            mask = 0
            for c, b in enumerate(mul[last]):
                mask |= sums[neg[b]] << c * w
            self._perps[rep] = mask
        return mask

    def solutions(self, rows):
        """The bitmask of {y : r . y = 0 for every r in ``rows``}, the AND of
        the hyperplane masks of the nonzero rows."""
        mask = self.everything
        for r in rows:
            if r:
                mask &= self.perp(r)
        return mask

    def basis(self, mask):
        """A basis of the subspace whose members ``mask`` sets: per coordinate
        c, its least member with last nonzero coordinate c, i.e. with index in
        [q^c, q^(c+1)).  These are in echelon form, at most dim of them, and
        depend on the subspace alone."""
        out = []
        for lo in self.units:
            window = mask >> lo & (1 << (self.field.q - 1) * lo) - 1
            if window:
                out.append(lo + (window & -window).bit_length() - 1)
        return out

    def span(self, rows):
        """The bitmask of the span of index-coded rows: (W^perp)^perp = W for
        the standard form, so the solutions of a basis of their solutions."""
        return self.solutions(self.basis(self.solutions(rows)))


@cache
def vector_space(field, dim):
    """The one ``VectorSpace`` of F_q^dim, built on first request."""
    return VectorSpace(field, dim)

