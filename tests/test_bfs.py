import random

import pytest
from hypothesis import given, settings, strategies as st

from chevlab import bfs, gf, groups, growth, linalg
from chevlab.errors import BallCapExceeded


def reference_closure(F, N, gens, cap=10 ** 7, t_max=None):
    """Word-length BFS with tuple keys and linalg.mat_mul, one product at a
    time: the oracle for bfs.closure.  Returns (elements, sizes, saturated_at)."""
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
                prod = linalg.mat_mul(F, N, x, g)
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


def _assert_matches_reference(F, N, gens, **kw):
    ball = bfs.closure(F, N, gens, **kw)
    elements, sizes, saturated_at = reference_closure(F, N, gens, **kw)
    assert list(ball.mats()) == elements
    assert ball.sizes == sizes
    assert ball.saturated_at == saturated_at
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


def test_void_key_path_matches_reference():
    # 5^36 >= 2^63, so Sp(6,5) keys are byte strings
    spec = groups.GroupSpec("Sp", 3)
    F = gf.make_field(5)
    gens = groups.standard_generators(spec, F)
    ball = _assert_matches_reference(F, 6, gens, t_max=2)
    assert ball.depth_of(gens[-1]) == 1
    assert ball.depth_of(linalg.mat_mul(F, 6, gens[1], gens[-1])) == 2


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
    assert ball.depth_of(linalg.identity(2)) == 0
    for g in gens:
        assert ball.depth_of(g) <= 1
    assert max(ball.depth_of(m) for m in ball.mats()) == 6


def test_t_max_truncation():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    gens = groups.standard_generators(spec, F)
    ball = bfs.closure(F, 2, gens, t_max=3)
    assert ball.sizes == [5, 17, 43]
    assert ball.saturated_at is None


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
    assert bfs.key_of(F, start) in orbit
    assert len(orbit) == 30  # |Cl(diag(2,3))| in SL_2(F_5)


def test_deterministic_iteration_order():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(7)
    gens = groups.standard_generators(spec, F)
    a = list(bfs.closure(F, 2, gens).mats())
    b = list(bfs.closure(F, 2, gens).mats())
    assert a == b == reference_closure(F, 2, gens)[0]
