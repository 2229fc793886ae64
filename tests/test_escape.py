import bisect
import math
import random

import pytest
from test_bfs import reference_closure
from test_classify import oracle_disc

from chevlab import bfs, classify, escape, gf, groups, growth, linalg, varieties
from chevlab.errors import NoEscapeWithinBall


def _sl2_instance(q, poly_text, point, action="left_multiplication"):
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(q)
    gens = groups.standard_generators(spec, F)
    P = varieties.poly_parse(F, 4, poly_text)
    V = varieties.VarietySpec(4, [P], 2, max(P.total_degree, 1))
    return escape.EscapeInstance(F, 2, gens, V, point, action), F


def test_escape_bound_values():
    assert escape.escape_bound(0, 1)["exact"] == 1
    assert escape.escape_bound(2, 1)["exact"] == 3
    assert escape.escape_bound(1, 2)["exact"] == 6  # 4 + 2
    assert escape.escape_bound(2, 3)["exact"] == 39  # 27 + 9 + 3
    rep = escape.escape_bound(2, 3)
    assert rep["exact"] <= rep["closed_form"]


def _act(inst, g):
    """The instance's point moved by the one flat matrix g."""
    return inst.act(linalg.as_array(inst.F, inst.N, [g]))[0]


def test_point_already_off_variety():
    inst, _ = _sl2_instance(7, "x1-2", (1, 0, 0, 1))
    cert = escape.escape_point(inst)
    assert cert.k_found == 0
    assert cert.verified_noncontainment is True


def test_escape_point_finds_short_witness():
    inst, F = _sl2_instance(7, "x1-1", (1, 0, 0, 1))
    cert = escape.escape_point(inst)
    assert 1 <= cert.k_found <= escape.escape_bound(2, 1)["exact"]
    moved = _act(inst, cert.witness)
    assert not inst.variety.contains(moved)


def test_no_escape_when_orbit_inside():
    # the determinant variety contains the whole orbit of the identity
    inst, _ = _sl2_instance(5, "x1*x4-x2*x3-1", (1, 0, 0, 1))
    with pytest.raises(NoEscapeWithinBall):
        escape.escape_point(inst)


def test_conjugation_action():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(7)
    gens = groups.standard_generators(spec, F)
    P = varieties.poly_parse(F, 4, "x2")  # off-diagonal entry vanishes
    V = varieties.VarietySpec(4, [P], 2, 1)
    inst = escape.EscapeInstance(F, 2, gens, V, (2, 0, 0, 4), "conjugation")
    cert = escape.escape_point(inst)
    assert cert.k_found >= 1
    assert not inst.variety.contains(_act(inst, cert.witness))


def test_instance_validation():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    gens = groups.standard_generators(spec, F)
    P = varieties.poly_parse(F, 4, "x1")
    V = varieties.VarietySpec(4, [P], 2, 1)
    with pytest.raises(ValueError):
        escape.EscapeInstance(F, 2, gens[1:], V, (1, 0, 0, 1),
                              "left_multiplication")  # identity missing
    with pytest.raises(Exception):
        escape.EscapeInstance(F, 2, gens, V, (1, 0, 0),
                              "left_multiplication")  # wrong arity


def test_shitov_route_bound():
    rng = random.Random(2)
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(11)
    gens = groups.standard_generators(spec, F)
    done = 0
    while done < 10:
        terms = {}
        for _ in range(3):
            exps = [0, 0, 0, 0]
            exps[rng.randrange(4)] += 1
            exps[rng.randrange(4)] += rng.randrange(2)
            terms[tuple(exps)] = rng.randrange(1, 11)
        P = varieties.Poly(F, 4, terms)
        if P.total_degree == 0:
            continue
        V = varieties.VarietySpec(4, [P], 2, P.total_degree)
        point = groups.random_group_element(spec, F, rng)
        inst = escape.EscapeInstance(F, 2, gens, V, point,
                                     "left_multiplication")
        try:
            cert = escape.shitov_escape(inst)
        except NoEscapeWithinBall:
            continue
        D = P.total_degree
        assert cert.k_found < 11 * D * 3 ** D * math.log(2)
        done += 1


def test_linearize_agrees_with_direct_evaluation():
    F = gf.make_field(7)
    P = varieties.poly_parse(F, 4, "x1*x4-x2*x3-1")
    spec = groups.GroupSpec("SL", 2)
    rng = random.Random(6)
    D = P.total_degree
    Nt, P_lin = escape.linearize(F, 2, D, P)
    assert Nt == 3 ** D
    assert P_lin.total_degree <= 1
    for _ in range(20):
        g = groups.random_group_element(spec, F, rng)
        direct = P.evaluate(g)
        via = P_lin.evaluate(escape.rho_iota(F, 2, D, g))
        assert direct == via


def test_find_regular_semisimple():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(7)
    gens = groups.standard_generators(spec, F)
    cert = escape.find_regular_semisimple(F, spec, gens)
    assert classify.is_regular_semisimple(F, 2, cert.witness)
    assert cert.k_found <= 2  # short witness in SL_2(F_7)


def test_escape_point_closes_the_ball_once(monkeypatch):
    inst, _ = _sl2_instance(7, "x1-1", (1, 0, 0, 1))
    calls = []
    closure = bfs.closure
    monkeypatch.setattr(bfs, "closure", lambda *a, **kw: calls.append(1) or closure(*a, **kw))
    cert = escape.escape_point(inst)
    assert len(calls) == 1
    assert cert.verified_noncontainment is True


def _brute_force_witness(F, N, gens, hit):
    """(least depth, then least mat_ser) over the reference closure, or None."""
    elements, sizes, _ = reference_closure(F, N, gens)
    # sizes[t - 1] = |A^t|, so element i > 0 has depth 1 + #{t : |A^t| <= i}
    found = [(bisect.bisect_right(sizes, i) + 1 if i else 0,
              linalg.mat_ser(F, N, g), g)
             for i, g in enumerate(elements) if hit(g)]
    return min(found)[::2] if found else None


def _as_found(search):
    try:
        cert = search()
    except NoEscapeWithinBall:
        return None
    return cert.k_found, cert.witness


def _vanishing_at(F, terms, x):
    """The polynomial with these terms, less its value at x, over 4 variables."""
    shift = varieties.Poly(F, 4, terms).evaluate(x)
    terms = dict(terms)
    terms[(0, 0, 0, 0)] = F.sub(terms.get((0, 0, 0, 0), 0), shift)
    return varieties.Poly(F, 4, terms)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_witness_searches_match_brute_force(q):
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(*gf.factor_prime_power(q))
    rng = random.Random(50_000 + q)
    for _ in range(6):
        gens = growth.GenSet.random_symmetric(spec, F, 1 + rng.randrange(3), rng).mats
        terms = {}
        for _ in range(2):
            exps = [0, 0, 0, 0]
            for _ in range(rng.randrange(1, 3)):
                exps[rng.randrange(4)] += 1
            terms[tuple(exps)] = rng.randrange(1, q)
        point = groups.random_group_element(spec, F, rng)
        # vanishing at the point (and at the identity for the element route)
        # keeps depth 0 from answering every search
        P = _vanishing_at(F, terms, point)
        V = varieties.VarietySpec(4, [P], 3, max(P.total_degree, 1))
        for action in escape.ACTIONS:
            inst = escape.EscapeInstance(F, 2, gens, V, point, action)
            want = _brute_force_witness(
                F, 2, gens, lambda g: not V.contains(_act(inst, g)))
            assert _as_found(lambda: escape.escape_point(inst)) == want
        P = _vanishing_at(F, terms, linalg.identity(2))
        V = varieties.VarietySpec(4, [P], 3, max(P.total_degree, 1))
        inst = escape.EscapeInstance(F, 2, gens, V, point, "left_multiplication")
        want = _brute_force_witness(F, 2, gens, lambda g: P.evaluate(g) != 0)
        assert _as_found(lambda: escape.shitov_escape(inst)) == want
        want = _brute_force_witness(
            F, 2, gens, lambda g: oracle_disc(F, 2, g) != 0)
        assert _as_found(lambda: escape.find_regular_semisimple(F, spec, gens)) == want
