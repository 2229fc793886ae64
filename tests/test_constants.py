import math
from fractions import Fraction

import pytest

from chevlab import constants
from chevlab.errors import RankTooSmall


def test_admissible_ells():
    assert constants.admissible_ells(1) == {"SL": 3}
    assert constants.admissible_ells(2) == {"SL": 4, "Sp": 5}
    assert constants.admissible_ells(3) == {"SL": 5, "Sp": 7, "SOodd": 7}
    assert constants.admissible_ells(4) == {"SL": 6, "Sp": 9, "SOodd": 9,
                                            "SOeven": 7}


def test_clg_constants_exact_values():
    c1, c2 = constants.clg_constants(1, 1)
    assert c1.exact == 2 ** 38
    assert c2.exact == 2 ** 21 + 2
    c1, c2 = constants.clg_constants(2, 1)
    assert c1.exact == 4 ** 152
    assert c2.exact == 4 ** 84 + 2
    # linearity in t
    _, c2t = constants.clg_constants(2, 5)
    assert c2t.exact == 4 ** 84 + 10


def test_torus_constants():
    with pytest.raises(RankTooSmall):
        constants.torus_constants(1, 1)
    c1, c2, c1_full = constants.torus_constants(2, 1)
    assert c1_full.exact == 4 ** 76
    assert c2.exact == 4 ** 359
    assert abs(c1.ln_value - (76 * math.log(4) - math.log(6))) < 1e-9


def test_growth_pairs():
    pairs = constants.growth_pairs(2, 1)
    assert len(pairs) == 2
    (m1, e1), (m2, e2) = pairs
    assert m1.exact == 4 ** 360
    assert e1 == Fraction(1, 80)
    assert m2.exact == 4 ** 88 + 8
    assert e2 == Fraction(1, 352)
    pairs1 = constants.growth_pairs(1, 5)
    assert pairs1[0][0].exact == 2 ** 45 * 5
    assert pairs1[0][1] == Fraction(1, 40)
    assert pairs1[1][0].exact == 2 ** 22 + 40


def test_diameter_exponent():
    expo, q_thr = constants.diameter_exponent(2)
    assert abs(expo - 1947 * 16 * math.log(4)) < 1e-9
    assert q_thr.exact == 4 ** 12
    expo1, q1 = constants.diameter_exponent(1)
    assert abs(expo1 - 1947 * math.log(2)) < 1e-9
    assert q1.exact == 2 ** 6


def test_recursion_building_blocks():
    assert constants.e_exponent(2, 1) == 19
    assert constants.e_exponent(2, 0) == 10
    assert constants.f_sum(3, 2) == 2 ** 3 + 2 ** 6
    assert constants.f_sum(2, 3) == 4 + 16 + 64
    assert constants.k_base(2) == 2 * 5 ** 25
    # e is an integer, strictly increasing over the admissible d range
    for r in range(1, 6):
        prev = None
        for d in range(0, 2 * r * r + r):
            e = constants.e_exponent(r, d)
            assert isinstance(e, int)
            if prev is not None:
                assert e > prev
            prev = e


def test_general_constants_monotone():
    c_small = constants.c1_general(2, 1, 2)
    c_big = constants.c1_general(2, 2, 2)
    assert c_small.cmp(c_big) < 0
    t_small = constants.c2_general(2, 1, 1)
    t_big = constants.c2_general(2, 2, 1)
    assert isinstance(t_small, int) and t_small < t_big


def test_appendix_constants_chain():
    rep = constants.appendix_constants(2, 1, 1)
    assert rep["pass"] is True
    assert rep["e_d"] == 19
    assert rep["C1"]["height"] == 2
    # all admissible (r, d) at small D
    for r in (1, 2, 3):
        for d in range(0, 2 * r * r + r):
            for D in (1, 2):
                assert constants.appendix_constants(r, d, D)["pass"]


def test_proof_inequality_suite():
    rep = constants.proof_inequality_suite(16)
    assert rep["pass"] is True
    assert rep["failures"] == []
    assert rep["checks"] > 0


def test_asymptotic_constants():
    rep = constants.asymptotic_constants(8)
    assert abs(rep["eta"] - 4 * math.log(2) / (9 * math.log(3))) < 1e-12
    assert rep["limit_constant"] == 384
    assert rep["implied_coefficient_pair1"] > 384
    with pytest.raises(ValueError):
        constants.asymptotic_constants(2)


def test_rational_identities_all_ells():
    for ell in range(3, 40):
        id1, id2, x1, x2 = constants._rational_identities(ell)
        assert id1 and id2
        assert x1 >= Fraction(1, 12 * ell)  # ell <= r family relation slack
        assert x2 > 0
