"""Exhaustive structure-tensor enumeration and GL-equivalence."""

import math
import os
import random
import subprocess
import sys
import time
from functools import reduce
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lie_ncg import enumeration
from lie_ncg.catalog import builtin_catalog
from lie_ncg.enumeration import (
    _c12_solutions,
    _gl_generators,
    _LinearAction,
    _lie_tensor_count,
    _structure_tensors,
    algebras_equivalent,
    jacobi_tensors,
    orbit_partition,
)
from lie_ncg.errors import CapExceeded, JacobiViolation
from lie_ncg.gf import FIELD_CAP, field_new, prime_power_decomposition
from lie_ncg.graphs import property_report
from lie_ncg.iso import canonical_certificate
from lie_ncg.liealg import LieAlgebra
from lie_ncg.ncg import build_graph

from oracles import (
    arithmetic,
    catalog_entry,
    elementary_gl_generators,
    full_gl_orbit_sets,
    full_gl_orbits,
    gl_matrices,
    jacobi_failure_by_methods,
    jacobi_tensors_by_filter,
    mat_inv,
    tensor_key,
    transform_by_methods,
)

# every (n, q) the enumeration accepts
SHAPES = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]
# every order field_new accepts
FIELD_ORDERS = [q for q in range(2, FIELD_CAP + 1) if prime_power_decomposition(q)]


def gl_order(n, q):
    """|GL(n, q)|: the number of ordered bases of F_q^n."""
    return math.prod(q**n - q**i for i in range(n))


def test_dim2_counts():
    f2 = field_new(2)
    # one pair, 4 coefficient vectors, Jacobi vacuous in dim 2
    algebras = list(jacobi_tensors(2, f2))
    assert len(algebras) == 4
    assert sum(1 for L in algebras if not L.is_abelian()) == 3


def test_dim2_dedupe_single_nonabelian_class():
    reps = [L for L, _size in orbit_partition(2, field_new(2)) if not L.is_abelian()]
    assert len(reps) == 1


def test_dim3_f2_jacobi_count_frozen():
    f2 = field_new(2)
    algebras = list(jacobi_tensors(3, f2))
    assert len(algebras) == 120
    assert sum(1 for L in algebras if not L.is_abelian()) == 119


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_is_abelian_reads_every_structure_constant(n, q):
    # is_abelian reads the nonzero structure terms; only the zero tensor,
    # first in enumeration order, is abelian
    for idx, L in enumerate(jacobi_tensors(n, field_new(q))):
        zero = all(c == 0 for cij in L.structure.values() for c in cij)
        assert L.is_abelian() == zero == (idx == 0)


@pytest.mark.parametrize("n,q", SHAPES)
def test_jacobi_tensors_match_brute_force_filter(n, q):
    # the solve for c_12 yields exactly the filter's tensors, in its order
    f = field_new(q)
    got = [tensor_key(L.structure, n) for L in jacobi_tensors(n, f)]
    assert got == [tensor_key(L.structure, n) for L in jacobi_tensors_by_filter(n, f)]


def test_structure_tensors_dim3_f4_match_filter_per_c01():
    # the closed-form Jacobi solve over F_4, which jacobi_tensors does not
    # accept: each sampled c_01 slice against testing the Jacobi identity on
    # all 4^6 (c_02, c_12); the filter over all 4^9 tensors, about 6 s, also
    # gives 8128 tensors in this order
    f = field_new(4)
    tensors = list(_structure_tensors(3, f))
    assert len(tensors) == 8128 and tensors == sorted(tensors)
    vectors = list(product(f.elements(), repeat=3))
    for c01 in random.Random(12).sample(vectors, 6):
        want = [
            (c01, c02, c12)
            for c02, c12 in product(vectors, repeat=2)
            if jacobi_failure_by_methods(f, 3, {(0, 1): c01, (0, 2): c02, (1, 2): c12}) is None
        ]
        assert [t for t in tensors if t[0] == c01] == want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.data())
def test_c12_solutions_match_jacobi_filter_hypothesis(q, data):
    # the kernel of [M | J(0)] gives exactly the c_12 among all q^3 that pass
    # the Jacobi identity, in ascending order, over fields past the
    # enumeration scope too
    f = field_new(q)
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    c01, c02 = (data.draw(st.tuples(entry, entry, entry)) for _ in range(2))
    want = [
        c12
        for c12 in product(f.elements(), repeat=3)
        if jacobi_failure_by_methods(f, 3, {(0, 1): c01, (0, 2): c02, (1, 2): c12}) is None
    ]
    assert _c12_solutions(f, c01, c02) == want


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_gl_generators_times_their_inverses_are_identity(q):
    f, F = field_new(q), arithmetic(q)
    for n in (1, 2, 3):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        for g, ginv in _gl_generators(n, f):
            prod = [[0] * n for _ in range(n)]
            for i, j, k in product(range(n), repeat=3):
                prod[i][j] = F.add(prod[i][j], F.mul(g[i][k], ginv[k][j]))
            assert prod == identity, (n, g, ginv)


@pytest.mark.parametrize(
    "n,q", [(n, q) for n in (1, 2) for q in FIELD_ORDERS if q <= 9] + [(3, 2), (3, 3), (4, 2)]
)
def test_gl_generators_generate_gl(n, q):
    # closing the identity under right multiplication by the generators, with
    # the oracle's field methods, reaches all of GL(n, q); without C or D the
    # closure is a proper subgroup
    f, F = field_new(q), arithmetic(q)
    gens = [g for g, _ginv in _gl_generators(n, f)]
    if n >= 2:
        assert len(gens) == 2 + (q > 2)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    group, stack = {identity}, [identity]
    while stack:
        x = stack.pop()
        for g in gens:
            y = tuple(
                tuple(reduce(F.add, [F.mul(row[k], g[k][j]) for k in range(n)]) for j in range(n))
                for row in x
            )
            if y not in group:
                group.add(y)
                stack.append(y)
    assert len(group) == gl_order(n, q)


def test_gl_matrix_counts():
    # |GL(2, 2)| = 6, |GL(2, 3)| = 48
    assert len(gl_matrices(2, field_new(2))) == 6
    assert len(gl_matrices(2, field_new(3))) == 48
    assert len(gl_matrices(3, field_new(2))) == gl_order(3, 2) == 168
    assert gl_order(3, 3) == 11232


def test_orbit_sizes_partition_dim2():
    orbits = orbit_partition(2, field_new(2))
    assert sum(size for _, size in orbits) == 4
    sizes = sorted(size for _, size in orbits)
    assert sizes == [1, 3]  # abelian singleton + one non-abelian orbit


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_orbit_partition_matches_full_gl_orbits(n, q):
    # the generator closure finds the same orbits as applying all of GL(n, q),
    # and the index gives two Lie tensors one orbit number exactly when they
    # share a full orbit: both number the orbits in first-seen order
    f = field_new(q)
    full = full_gl_orbit_sets(n, f)
    got = [(tensor_key(L.structure, n), size) for L, size in orbit_partition(n, f)]
    assert got == [(key, len(orbit)) for key, orbit in full]
    action, orbit_of, _orbits = enumeration._orbit_index(n, f)
    assert orbit_of == {action.encode(key): i for i, (_rep, orbit) in enumerate(full)
                        for key in orbit}


@pytest.mark.parametrize("n,q", SHAPES)
def test_orbit_sizes_obey_orbit_stabilizer(n, q):
    # the orbits partition the Lie structures, and each orbit's size is
    # |GL(n, q)| over the order of a stabilizer
    f = field_new(q)
    sizes = [size for _L, size in orbit_partition(n, f)]
    assert sum(sizes) == sum(1 for _ in jacobi_tensors_by_filter(n, f))
    assert all(gl_order(n, q) % size == 0 for size in sizes)


def test_orbit_sizes_dim3_f3_frozen():
    # the same sizes as applying all 11232 matrices of GL(3, 3), which
    # test_orbit_partition_matches_full_gl_orbits checks
    sizes = [size for _L, size in orbit_partition(3, field_new(3))]
    assert sizes == [1, 312, 26, 156, 156, 78, 208, 26, 468]
    assert sum(sizes) == len(list(jacobi_tensors(3, field_new(3))))


def test_gl_generators_close_the_orbits_of_the_elementary_set(monkeypatch):
    # the 8128 Lie tensors of (3, 4), past the enumeration scope: the orbit
    # index walked under _gl_generators and under every transvection and
    # diagonal is the same, uncached so each walk runs
    f = field_new(4)
    _action, orbit_of, orbits = enumeration._orbit_index.__wrapped__(3, f)
    monkeypatch.setattr(enumeration, "_gl_generators", elementary_gl_generators)
    assert enumeration._orbit_index.__wrapped__(3, f)[1:] == (orbit_of, orbits)
    assert [size for _tensor, size in orbits] == [1, 1260, 63, 945, 1260, 756, 756, 63, 3024]


@pytest.mark.parametrize("n,q", SHAPES + [(3, 4), (3, 5), (3, 7), (3, 8)])
def test_lie_tensor_count_matches_the_stream(n, q):
    # q^(n C(n, 2)) for n <= 2 and the closed form 2q^6 - q^3 for n = 3,
    # against the c_12 solves in characteristics 2, 3, 5 and 7 and over the
    # extensions F_4 and F_8 of degree 2 and 3
    f = field_new(q)
    assert _lie_tensor_count(n, f) == len(list(_structure_tensors(n, f)))


@pytest.mark.parametrize("q, drawn, sizes", [
    (2, 37, [1, 42, 7, 21, 14, 7, 28]),
    (3, 171, [1, 312, 26, 156, 156, 78, 208, 26, 468]),
    # past the scope, the sizes of the orbit index walked under the
    # elementary set in test_gl_generators_close_the_orbits_of_the_elementary_set
    (4, 527, [1, 1260, 63, 945, 1260, 756, 756, 63, 3024]),
])
def test_orbit_partition_stops_once_its_orbits_cover_every_tensor(monkeypatch, fresh_memos, q,
                                                                   drawn, sizes):
    # the last new orbit opens at tensor drawn - 2, counting from 0; the next
    # tensor drawn finds the orbits covering all 120, 1431 or 8128 Lie
    # tensors, so the walk stops there, where walking the whole stream draws
    # all of them; on an empty orbit index, so the walk runs here
    stream, count = enumeration._structure_tensors, [0]

    def counting(n, field):
        for tensor in stream(n, field):
            count[0] += 1
            yield tensor

    monkeypatch.setattr(enumeration, "_structure_tensors", counting)
    monkeypatch.setattr(enumeration, "ENUM_MAX_Q", 4)
    assert [size for _L, size in orbit_partition(3, field_new(q))] == sizes
    assert count == [drawn]


@pytest.mark.parametrize("q, count", [(2, 120), (3, 1431)])
def test_solved_tensors_are_not_checked_again(monkeypatch, fresh_memos, q, count):
    # the c_12 solve is the Jacobi check (compared with the filter above), so
    # neither the stream nor the orbit representatives call jacobi_failure;
    # on an empty orbit index, so the walk runs here
    def fail(self):
        raise AssertionError("jacobi_failure called")

    monkeypatch.setattr(LieAlgebra, "jacobi_failure", fail)
    f = field_new(q)
    assert len(list(jacobi_tensors(3, f))) == count
    assert sum(size for _L, size in orbit_partition(3, f)) == count


def test_algebras_equivalent():
    f2 = field_new(2)
    nonab = [L for L in jacobi_tensors(2, f2) if not L.is_abelian()]
    for L1 in nonab:
        for L2 in nonab:
            assert algebras_equivalent(L1, L2)
    ab = next(L for L in jacobi_tensors(2, f2) if L.is_abelian())
    assert not algebras_equivalent(ab, nonab[0])
    # different fields are never equivalent
    heis2 = catalog_entry("heisenberg_f2").algebra()
    heis3 = catalog_entry("heisenberg_f3").algebra()
    assert not algebras_equivalent(heis2, heis3)
    aff1_f2 = catalog_entry("aff1_f2").algebra()
    assert not algebras_equivalent(aff1_f2, catalog_entry("aff1_f3").algebra())


def test_algebras_equivalent_is_bounded_by_the_scope():
    # aff1 + aff1 against aff1 + F_3^2: the scope check comes before the
    # shape's orbit index is walked; closing L1's orbit alone took 16 s
    # before the check
    f3 = field_new(3)
    aff1_aff1 = LieAlgebra(f3, 4, {(0, 1): (0, 1, 0, 0), (2, 3): (0, 0, 0, 1)})
    aff1_abelian = LieAlgebra(f3, 4, {(0, 1): (0, 1, 0, 0)})
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        algebras_equivalent(aff1_aff1, aff1_abelian)
    assert time.perf_counter() - start < 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (2, 8), (2, 9), (2, 25), (2, 27),
                        (3, 4), (3, 5), (4, 2)]),
       st.data())
def test_linear_action_matches_transform_by_methods_hypothesis(shape, data):
    # on any tensor, Lie or not, each generator's table-driven action is the
    # basis change the oracle makes with that generator, bracketing the new
    # basis vectors and inverting g by row reduction of its own
    n, q = shape
    f = field_new(q)
    pairs = list(combinations(range(n), 2))
    coords = data.draw(st.lists(st.sampled_from(range(q)), min_size=n * len(pairs),
                                max_size=n * len(pairs)))
    table = {pair: tuple(coords[i * n:(i + 1) * n]) for i, pair in enumerate(pairs)}
    L = LieAlgebra(f, n, table, validate=False)
    action = _LinearAction(n, f)
    want = [
        action.encode(tensor_key(transform_by_methods(L, g, mat_inv(f, g)), n))
        for g, _ginv in _gl_generators(n, f)
    ]
    assert action.images(action.encode(tensor_key(table, n))) == want


@pytest.mark.parametrize("n,q", [(n, q) for n in (2, 3) for q in FIELD_ORDERS])
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_reduce_matches_each_slot_mod_p_hypothesis(n, q, data):
    # a packed sum of one table entry per chunk holds at most
    # top = max(chunks, 2) * (p - 1) in each slot of each generator's key;
    # reduce takes every slot modulo p, as % does one slot at a time
    f = field_new(q)
    action = _LinearAction(n, f)
    p, w = f.p, action.width // f.k
    top = max(len(action.tables), 2) * (p - 1)
    slots = len(action.shifts) * n * len(action.pairs) * f.k
    values = data.draw(st.lists(st.integers(0, top), min_size=slots, max_size=slots))
    total = sum(v << j * w for j, v in enumerate(values))
    assert action.reduce(total) == sum(v % p << j * w for j, v in enumerate(values))


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (2, 4), (2, 9)])
def test_tensor_keys_are_distinct(n, q):
    # the int coding is one-to-one on every tensor, Lie or not
    f = field_new(q)
    action = _LinearAction(n, f)
    vectors = list(product(range(q), repeat=n))
    tensors = list(product(vectors, repeat=n * (n - 1) // 2))
    assert len({action.encode(t) for t in tensors}) == len(tensors)


def test_one_orbit_walk_per_shape(monkeypatch, fresh_memos):
    # one orbit_partition and the 49 equivalences of its 7 representatives
    # build one _LinearAction between them: the shape's index is walked once
    # and read after that
    built, init = [], _LinearAction.__init__
    monkeypatch.setattr(_LinearAction, "__init__",
                        lambda self, n, field: built.append((n, field.q)) or init(self, n, field))
    reps = [L for L, _size in orbit_partition(3, field_new(2))]
    pairs = list(product(range(len(reps)), repeat=2))
    assert [algebras_equivalent(reps[i], reps[j]) for i, j in pairs] == [i == j for i, j in pairs]
    assert len(pairs) == 49 and built == [(3, 2)]


def test_algebras_equivalent_refuses_a_non_lie_tensor():
    # only validate=False builds a tensor that is in no orbit; the first such
    # algebra's failing triple is raised, not a KeyError
    f = field_new(2)
    bad = LieAlgebra(f, 3, {(0, 2): (0, 0, 1), (1, 2): (0, 1, 0)}, validate=False)
    lie = LieAlgebra(f, 3, {(0, 1): (0, 0, 1)})
    assert bad.jacobi_failure() == (0, 1, 2)
    for L1, L2 in ((bad, lie), (lie, bad), (bad, bad)):
        with pytest.raises(JacobiViolation) as info:
            algebras_equivalent(L1, L2)
        assert info.value.triple == (0, 1, 2)


def test_algebras_equivalent_matches_full_gl_orbits_dim2_f3():
    # every ordered pair of the 9 structure tensors on F_3^2, against the
    # orbits all 48 matrices of GL(2, 3) give
    f = field_new(3)
    orbit_of = {}
    for index, (key, _size) in enumerate(full_gl_orbits(2, f)):
        L = LieAlgebra(f, 2, {(0, 1): key[0]})
        for g in gl_matrices(2, f):
            orbit_of[tensor_key(transform_by_methods(L, g, mat_inv(f, g)), 2)] = index
    algebras = list(jacobi_tensors(2, f))
    assert len(algebras) == len(orbit_of) == 9
    for L1, L2 in product(algebras, repeat=2):
        same = orbit_of[tensor_key(L1.structure, 2)] == orbit_of[tensor_key(L2.structure, 2)]
        assert algebras_equivalent(L1, L2) == same


def test_algebras_equivalent_matches_full_gl_orbits_dim3_f2():
    # each pair of the 7 orbit representatives on F_2^3, the second replaced
    # by a seeded GL(3, 2) image of it, against the full-GL orbits
    f = field_new(2)
    rng = random.Random(3)
    gls = gl_matrices(3, f)
    reps = [LieAlgebra(f, 3, dict(zip([(0, 1), (0, 2), (1, 2)], key)))
            for key, _size in full_gl_orbits(3, f)]
    images = []
    for L in reps:
        g = rng.choice(gls)
        images.append(LieAlgebra(f, 3, transform_by_methods(L, g, mat_inv(f, g))))
    for i, L1 in enumerate(reps):
        for j, L2 in enumerate(images):
            assert algebras_equivalent(L1, L2) == (i == j)


def test_import_builds_no_generator_tables():
    # the generator maps and the index tables of F_q^dim are built on first
    # use: importing the package, which computes the verifier's certificates,
    # neither lists a generator (every _LinearAction build calls
    # _gl_generators) nor builds a vector space's tables (every VectorSpace
    # build calls _index_sums)
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        "calls = []\n"
        "def watch(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name in "
        "('_gl_generators', '_index_sums'):\n"
        "        calls.append(frame.f_code.co_name)\n"
        "sys.setprofile(watch)\n"
        "import lie_ncg\n"
        "sys.setprofile(None)\n"
        "assert 'lie_ncg.enumeration' in sys.modules\n"
        "assert sys.modules['lie_ncg.linalg'].vector_space.cache_info().currsize == 0\n"
        "assert sys.modules['lie_ncg.enumeration']._orbit_index.cache_info().currsize == 0\n"
        "print(calls)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_enumeration_scope_caps():
    with pytest.raises(CapExceeded):
        list(jacobi_tensors(4, field_new(2)))
    with pytest.raises(CapExceeded):
        list(jacobi_tensors(2, field_new(4)))
    for n in (0, -3):
        with pytest.raises(CapExceeded):
            list(jacobi_tensors(n, field_new(2)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([entry.name for entry in builtin_catalog()]), st.data())
def test_gl_basis_change_keeps_certificate_and_report_hypothesis(name, data):
    # a basis change permutes the elements, so it relabels the graph
    L = catalog_entry(name).algebra()
    f, n = L.field, L.dim
    g = data.draw(
        st.lists(st.sampled_from(range(f.q)), min_size=n * n, max_size=n * n)
        .map(lambda e: tuple(tuple(e[i * n:(i + 1) * n]) for i in range(n)))
        .filter(lambda m: mat_inv(f, m) is not None)
    )
    M = LieAlgebra(f, n, transform_by_methods(L, g, mat_inv(f, g)), basis_names=L.basis_names)
    G, H = build_graph(L), build_graph(M)
    assert canonical_certificate(H) == canonical_certificate(G)
    assert property_report(H) == property_report(G)
