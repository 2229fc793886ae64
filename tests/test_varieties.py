import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chevlab import gf, varieties
from chevlab.errors import AmbientTooLarge, ArityMismatch


def test_poly_parse_and_evaluate():
    F = gf.make_field(7)
    P = varieties.poly_parse(F, 3, "2*x1^2*x3 - x2 + 3")
    for x1 in range(7):
        for x2 in range(7):
            for x3 in range(7):
                want = (2 * x1 * x1 * x3 - x2 + 3) % 7
                assert P.evaluate((x1, x2, x3)) == want
    assert P.total_degree == 3


def test_poly_parse_errors():
    F = gf.make_field(5)
    with pytest.raises(ArityMismatch):
        varieties.poly_parse(F, 2, "x3 + 1")
    with pytest.raises(ValueError):
        varieties.poly_parse(F, 2, "")


def test_point_count_det_variety_matches_group_order():
    # x1 x4 - x2 x3 = 1 cuts SL_2 out of the 4-dimensional ambient space
    for q, order in ((3, 24), (5, 120)):
        F = gf.make_field(q)
        P = varieties.poly_parse(F, 4, "x1*x4-x2*x3-1")
        V = varieties.VarietySpec(4, [P], 3, 2)
        rep = varieties.point_count(V, F)
        assert rep["count"] == order
        assert rep["pass"]  # |V| <= D q^d = 2 q^3


def test_point_count_cap():
    F = gf.make_field(11)
    P = varieties.poly_parse(F, 6, "x1")
    V = varieties.VarietySpec(6, [P], 5, 1)
    with pytest.raises(AmbientTooLarge):
        varieties.point_count(V, F, cap=10 ** 5)


def test_hypersurface_count_exact():
    # a line in the plane has exactly q points
    F = gf.make_field(7)
    P = varieties.poly_parse(F, 2, "x1+2*x2-3")
    V = varieties.VarietySpec(2, [P], 1, 1)
    assert varieties.point_count(V, F)["count"] == 7


def test_serialization_round_trip():
    F = gf.make_field(5)
    W = varieties.variety_loads(F, "ambient=4 dim=3 deg=2\nx1*x4-x2*x3-1\n")
    assert W.ambient == 4
    assert W.declared_dim == 3 and W.declared_deg == 2
    assert varieties.point_count(W, F)["count"] == 120


def test_contains_matches_evaluate():
    F = gf.make_field(3)
    P1 = varieties.poly_parse(F, 2, "x1-1")
    P2 = varieties.poly_parse(F, 2, "x2-2")
    V = varieties.VarietySpec(2, [P1, P2], 0, 1)
    hits = [(a, b) for a in range(3) for b in range(3)
            if V.contains((a, b))]
    assert hits == [(1, 2)]


_FIELDS = {q: gf.make_field(*gf.factor_prime_power(q)) for q in (3, 5, 7, 9, 25)}


def oracle_evaluate(P, point):
    """P at one point by FieldSpec arithmetic, one term at a time."""
    F = P.F
    acc = 0
    for exps, coeff in P.terms.items():
        val = coeff
        for x, e in zip(point, exps):
            val = F.mul(val, F.pow(x, e))
        acc = F.add(acc, val)
    return acc


@st.composite
def poly_and_points(draw):
    F = _FIELDS[draw(st.sampled_from(sorted(_FIELDS)))]
    nvars = draw(st.integers(1, 3))
    elem = st.integers(0, F.q - 1)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), elem, max_size=4))
    points = draw(st.lists(st.tuples(*[elem] * nvars), max_size=6))
    return varieties.Poly(F, nvars, terms), points


@settings(max_examples=80, deadline=None)
@given(poly_and_points())
def test_array_evaluate_matches_the_scalar_oracle(case):
    P, points = case
    want = [oracle_evaluate(P, x) for x in points]
    batch = P.evaluate(np.array(points, dtype=np.int64).reshape(len(points), P.nvars))
    assert batch.shape == (len(points),)
    assert batch.tolist() == want
    assert [P.evaluate(x) for x in points] == want
    # leading axes of any shape
    if points:
        assert P.evaluate(np.array([points, points])).tolist() == [want, want]


@pytest.mark.parametrize("q, text, ambient", [
    (7, "x1*x2+2*x3^2-1", 3),
    (9, "x1*x4-x2*x3-1", 4),
    (5, "x1^2+x2^2+x3^2", 3),
])
def test_point_count_matches_a_product_scan(monkeypatch, q, text, ambient):
    F = _FIELDS[q]
    V = varieties.VarietySpec(ambient, [varieties.poly_parse(F, ambient, text)], ambient - 1, 2)
    want = sum(oracle_evaluate(V.polys[0], x) == 0
               for x in itertools.product(range(F.q), repeat=ambient))
    assert varieties.point_count(V, F)["count"] == want
    # slabs smaller than the space, and not dividing it
    monkeypatch.setattr(varieties, "_SLAB", 10)
    assert varieties.point_count(V, F)["count"] == want
