import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_linalg import oracle_inv, oracle_mat_mul

from chevlab import bfs, gf, groups, growth, linalg
from chevlab.errors import BallCapExceeded


def reference_closure(F, N, gens, cap=10 ** 7, t_max=None):
    """Word-length BFS with tuple keys and the scalar oracle product, one at a
    time, apart from the array kernel: the oracle for bfs.closure.  Returns
    (elements, sizes, saturated_at)."""
    gens = [tuple(g) for g in gens]
    ident = linalg.identity(N)
    seen = {ident}
    elements = [ident]
    frontier = [ident]
    sizes = []
    saturated_at = None
    t = 0
    while True:
        t += 1
        new = []
        for g in gens:
            for x in frontier:
                prod = oracle_mat_mul(F, N, x, g)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        sizes.append(len(seen))
        if not new:
            saturated_at = t - 1
            break
        frontier = new
        elements.extend(new)
        if len(seen) > cap:
            raise BallCapExceeded("reference closure exceeded cap")
        if t_max is not None and t >= t_max:
            break
    return elements, sizes, saturated_at


def reference_orbit(F, N, gens, start):
    """The conjugation orbit of `start` by BFS with tuple keys and the scalar
    oracles: the oracle for bfs.orbit_closure."""
    pairs = [(tuple(g), oracle_inv(F, N, tuple(g))) for g in gens]
    seen = {tuple(start)}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g, gi in pairs:
                y = oracle_mat_mul(F, N, g, oracle_mat_mul(F, N, x, gi))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def _assert_matches_reference(F, N, gens, **kw):
    ball = bfs.closure(F, N, gens, **kw)
    elements, sizes, saturated_at = reference_closure(F, N, gens, **kw)
    assert list(ball.mats()) == elements
    assert ball.sizes == sizes
    assert ball.saturated_at == saturated_at
    assert np.array_equal(bfs.pack(F, N, ball.elements), ball.keys())
    return ball


def test_closure_matches_order():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    gens = groups.standard_generators(spec, F)
    ball = bfs.closure(F, 2, gens)
    assert len(ball) == 120
    assert ball.saturated_at == 6
    assert ball.sizes[:6] == [5, 17, 43, 91, 117, 120]
    assert ball.sizes[-1] == 120  # stable once saturated


def test_closure_matches_reference():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(7)
    _assert_matches_reference(F, 2, groups.standard_generators(spec, F))


_FIELDS = {q: gf.make_field(*gf.factor_prime_power(q)) for q in (5, 7, 9)}
_SMALL_FIELDS = {q: gf.make_field(*gf.factor_prime_power(q)) for q in (3, 5, 7, 9, 11, 25)}


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(sorted(_SMALL_FIELDS)), n=st.sampled_from((2, 2, 3)), s=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32), ident=st.booleans(), repeat=st.booleans(),
       t_max=st.one_of(st.none(), st.integers(1, 4)), cap_off=st.integers(-1, 0))
def test_closure_matches_reference_on_any_set(q, n, s, seed, ident, repeat, t_max, cap_off):
    """Sets that need not be symmetric, with or without the identity and with
    repeats, against the reference: element order, sizes, saturated_at, t_max
    and a cap at or just below the last size."""
    F = _SMALL_FIELDS[q]
    spec = groups.GroupSpec("SL", n)
    rng = random.Random(seed)
    gens = [groups.random_group_element(spec, F, rng) for _ in range(s)]
    if repeat and gens:
        gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))
    if ident:
        gens.insert(rng.randrange(len(gens) + 1), linalg.identity(n))
    if t_max is None and groups.group_order(spec, q) > 2000:
        t_max = 3
    cap = reference_closure(F, n, gens, t_max=t_max)[1][-1] + cap_off
    try:
        reference_closure(F, n, gens, cap=cap, t_max=t_max)
    except BallCapExceeded:
        with pytest.raises(BallCapExceeded):
            bfs.closure(F, n, gens, cap=cap, t_max=t_max)
        return
    _assert_matches_reference(F, n, gens, cap=cap, t_max=t_max)


@pytest.mark.parametrize("gens", [[], [linalg.identity(2)], [linalg.identity(2)] * 3])
def test_closure_of_no_generators_is_the_identity(gens):
    F = _FIELDS[5]
    ball = _assert_matches_reference(F, 2, gens)
    assert ball.sizes == [1] and ball.saturated_at == 0
    start = (2, 1, 1, 1)
    assert np.array_equal(bfs.orbit_closure(F, 2, gens, start), bfs.keys_of(F, 2, [start]))


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from(sorted(_FIELDS)), s=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32), t_max=st.one_of(st.none(), st.integers(1, 4)),
       cap_at=st.one_of(st.none(), st.integers(0, 8)), cap_off=st.integers(-1, 0))
def test_closure_matches_reference_on_random_sets(q, s, seed, t_max, cap_at, cap_off):
    F = _FIELDS[q]
    spec = groups.GroupSpec("SL", 2)
    gens = growth.GenSet.random_symmetric(spec, F, s, random.Random(seed)).mats
    # caps on either side of a ball size, where an off-by-one would show
    sizes = reference_closure(F, 2, gens)[1]
    cap = 10 ** 7 if cap_at is None else sizes[min(cap_at, len(sizes) - 1)] + cap_off
    try:
        reference_closure(F, 2, gens, cap=cap, t_max=t_max)
    except BallCapExceeded:
        fires_at = next(t for t, n in enumerate(sizes, 1) if n > cap)
        with pytest.raises(BallCapExceeded):
            bfs.closure(F, 2, gens, cap=cap, t_max=fires_at)
        return
    _assert_matches_reference(F, 2, gens, cap=cap, t_max=t_max)


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from(sorted(_FIELDS)), s=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32), t_max=st.one_of(st.none(), st.integers(1, 5)))
def test_size_at_holds_the_reference_series(q, s, seed, t_max):
    F = _FIELDS[q]
    spec = groups.GroupSpec("SL", 2)
    gens = growth.GenSet.random_symmetric(spec, F, s, random.Random(seed)).mats
    ball = bfs.closure(F, 2, gens, t_max=t_max)
    sizes = reference_closure(F, 2, gens, t_max=t_max)[1]
    padded = sizes + [sizes[-1]] * 12
    assert [ball.size_at(t) for t in range(1, 13)] == padded[:12]
    for t in (0, -1):
        with pytest.raises(ValueError):
            ball.size_at(t)


@pytest.mark.parametrize("family, n, q, code, key", [
    ("SL", 4, 13, np.int64, np.int64),     # 13^16 < 2^63, but 60-bit keys: argsort
    ("Sp", 3, 5, np.int64, np.void),       # 5^36 >= 2^63: keys are bytes of row codes
    ("SL", 4, 65537, np.void, np.void),    # 65537^4 >= 2^63: row codes are bytes
])
def test_every_key_branch_matches_reference(family, n, q, code, key):
    spec = groups.GroupSpec(family, n)
    F = gf.make_field(q)
    ball = _assert_matches_reference(F, spec.N, groups.standard_generators(spec, F), t_max=2)
    assert ball.codes.dtype.type is code and ball.keys().dtype.type is key


def test_void_key_path_matches_reference():
    spec = groups.GroupSpec("Sp", 3)
    F = gf.make_field(5)
    gens = groups.standard_generators(spec, F)
    ball = _assert_matches_reference(F, 6, gens, t_max=2)
    depth = dict(zip(ball.mats(), ball.depth_array().tolist()))
    assert depth[gens[-1]] == 1
    assert depth[oracle_mat_mul(F, 6, gens[1], gens[-1])] == 2


def test_extension_field_closure():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(3, 2)  # q = 9
    # the standard set carries transvections along the F_3-basis {1, x} of
    # F_9, so it generates SL(2,9); adding the torus and inverses keeps it
    gens = list(groups.standard_generators(spec, F))
    assert len(bfs.closure(F, 2, gens)) == groups.group_order(spec, 9)
    gens += list(groups.torus_points(spec, F))
    gens += [linalg.inv(F, 2, g) for g in gens]
    ball = bfs.closure(F, 2, gens)
    assert len(ball) == groups.group_order(spec, 9) == 720


def test_depth_tracking():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    gens = groups.standard_generators(spec, F)
    ball = bfs.closure(F, 2, gens)
    depth = dict(zip(ball.mats(), ball.depth_array().tolist()))
    assert depth[linalg.identity(2)] == 0
    for g in gens:
        assert depth[g] <= 1
    assert max(depth.values()) == 6


def test_t_max_truncation():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    gens = groups.standard_generators(spec, F)
    ball = bfs.closure(F, 2, gens, t_max=3)
    assert ball.sizes == [5, 17, 43]
    assert ball.saturated_at is None
    with pytest.raises(ValueError):
        bfs.closure(F, 2, gens, t_max=0)


def test_cap_enforced():
    spec = groups.GroupSpec("Sp", 2)
    F = gf.make_field(3)
    gens = groups.standard_generators(spec, F)
    with pytest.raises(BallCapExceeded):
        bfs.closure(F, 4, gens, cap=1000)


def test_orbit_closure_is_conjugacy_class():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    gens = groups.standard_generators(spec, F)
    start = (2, 0, 0, 3)
    orbit = bfs.orbit_closure(F, 2, gens, start)
    assert bfs.keys_of(F, 2, [start])[0] in orbit
    assert len(orbit) == 30  # |Cl(diag(2,3))| in SL_2(F_5)


@settings(max_examples=25, deadline=None)
@given(q=st.sampled_from(sorted(_SMALL_FIELDS)), n=st.sampled_from((2, 2, 3)),
       s=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_orbit_closure_matches_reference(q, n, s, seed):
    F = _SMALL_FIELDS[3 if n == 3 else q]   # classes of SL(3,3) have at most 5616 elements
    spec = groups.GroupSpec("SL", n)
    rng = random.Random(seed)
    gens = [groups.random_group_element(spec, F, rng) for _ in range(s)]
    start = groups.random_group_element(spec, F, rng)
    want = bfs.keys_of(F, n, list(reference_orbit(F, n, gens, start)))
    assert np.array_equal(bfs.orbit_closure(F, n, gens, start), want)


def test_deterministic_iteration_order():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(7)
    gens = groups.standard_generators(spec, F)
    a = list(bfs.closure(F, 2, gens).mats())
    b = list(bfs.closure(F, 2, gens).mats())
    assert a == b == reference_closure(F, 2, gens)[0]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 300), bits=st.integers(1, 63), signed=st.booleans(),
       seed=st.integers(0, 2 ** 32))
def test_unique_matches_numpy(n, bits, signed, seed):
    rng = np.random.default_rng(seed)
    lo = -(1 << (bits - 1)) if signed else 0
    pool = rng.integers(lo, lo + (1 << bits), n // 2 + 1, dtype=np.int64)
    keys = rng.choice(pool, n)    # with repeats
    want = np.unique(keys, return_index=True, return_inverse=True)
    for got in (bfs._unique(keys, inverse=True), bfs._unique(keys)):
        for a, b in zip(got, want, strict=False):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("key_bits, packed", [(61, True), (62, False)])
def test_unique_at_the_packed_width(monkeypatch, key_bits, packed):
    # four keys take 2 index bits: key bits + index bits land on 63, then 64
    top = (1 << key_bits) - 1
    keys = np.array([top, 0, top, 5], dtype=np.int64)
    sorts = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        sorts.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    got = bfs._unique(keys, inverse=True)
    assert (not sorts) == packed
    for a, b in zip(got, np.unique(keys, return_index=True, return_inverse=True)):
        assert np.array_equal(a, b)
