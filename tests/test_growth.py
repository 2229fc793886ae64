import math
import random

import pytest

from chevlab import gf, groups, growth
from chevlab.errors import HypothesisFailed, NotGenerating, SamplerStalled


def _sl2(q):
    return groups.GroupSpec("SL", 2), gf.make_field(q)


def test_genset_standard_invariants():
    spec, F = _sl2(5)
    A = growth.GenSet.standard(spec, F)
    mats = set(A.mats)
    from chevlab import linalg
    assert linalg.identity(2) in mats
    for m in A.mats:
        assert linalg.inv(F, 2, m) in mats
        assert groups.is_member(F, m, spec)


def test_genset_random_symmetric_invariants():
    rng = random.Random(7)
    spec, F = _sl2(7)
    from chevlab import linalg
    for _ in range(20):
        A = growth.GenSet.random_symmetric(spec, F, 3, rng)
        mats = set(A.mats)
        assert linalg.identity(2) in mats
        for m in mats:
            assert linalg.inv(F, 2, m) in mats


def test_ball_series_sl2_f5():
    spec, F = _sl2(5)
    A = growth.GenSet.standard(spec, F)
    series = growth.ball_series(A, 8)
    assert series.sizes[:6] == [5, 17, 43, 91, 117, 120]
    assert series.size_at(6) == 120
    assert series.size_at(8) == 120  # stable past saturation
    assert series.saturated_at == 6


def test_diameter_values():
    spec, F = _sl2(5)
    assert growth.diameter(growth.GenSet.standard(spec, F)) == 6
    spec7, F7 = _sl2(7)
    assert growth.diameter(growth.GenSet.standard(spec7, F7)) == 7


def test_diameter_requires_generation():
    spec, F = _sl2(5)
    from chevlab import linalg
    ident = linalg.identity(2)
    neg = tuple(F.neg(x) for x in ident)
    A = growth.GenSet(spec, F, [ident, neg])
    with pytest.raises(NotGenerating):
        growth.diameter(A)


def test_materialize_order():
    spec, F = _sl2(5)
    M = growth.materialize(spec, F)
    assert M.order == 120
    assert len(M) == 120


def test_ruzsa_and_olson_standard():
    for q in (5, 7):
        spec, F = _sl2(q)
        A = growth.GenSet.standard(spec, F)
        for k in (4, 5, 6):
            assert growth.ruzsa_check(A, k)["pass"]
        assert growth.olson_check(A)["pass"]
    with pytest.raises(ValueError):
        growth.ruzsa_check(A, 2)


def test_np_threshold_values_and_hypotheses():
    spec = groups.GroupSpec("SL", 2)
    assert growth.np_threshold(spec, 11) == 798
    with pytest.raises(HypothesisFailed):
        growth.np_threshold(spec, 8)  # characteristic 2
    with pytest.raises(HypothesisFailed):
        growth.np_threshold(spec, 9)  # q <= 9


def test_np_check_large_random_subsets():
    spec, F = _sl2(11)
    thr = growth.np_threshold(spec, 11)
    rng = random.Random(23)
    for _ in range(5):
        A = growth.GenSet.random_subset(spec, F, thr, rng)
        rep = growth.np_check(A)
        assert rep["pass"] and not rep["skipped"]
        assert rep["|A^3|"] == 1320
    small = growth.GenSet.random_subset(spec, F, 10, rng)
    assert growth.np_check(small)["skipped"]


def test_intersect_count_saturated_sl2_f5():
    spec, F = _sl2(5)
    A = growth.GenSet.standard(spec, F)
    rep = growth.intersect_count(A, 12, ("class", (2, 0, 0, 3)))
    assert rep["count"] == 30
    assert rep["ball_size"] == 120
    assert rep["measured_exponent"] == math.log(30) / math.log(120)
    rep_t = growth.intersect_count(A, 12, ("torus", ()))
    assert rep_t["count"] == 4
    rep_n = growth.intersect_count(A, 12, ("nonrs",))
    assert rep_n["count"] == 2 * 25  # the non-regular-semisimple locus


def test_growth_dichotomy_check():
    spec, F = _sl2(5)
    A = growth.GenSet.standard(spec, F)
    rep = growth.growth_dichotomy_check(A, 2)
    assert rep["pass"]
    assert len(rep["pairs"]) == 2
    for pair in rep["pairs"]:
        assert pair["branch_saturates"]  # m vastly exceeds the diameter


def test_series_csv_format():
    spec, F = _sl2(5)
    A = growth.GenSet.standard(spec, F)
    text = growth.series_csv(A, 6, ("torus", ()))
    lines = text.strip().splitlines()
    assert lines[0] == "t,ball_size,target_count"
    assert lines[1] == "1,5,1"
    assert lines[-1] == "6,120,4"
    plain = growth.series_csv(A, 3)
    assert plain.strip().splitlines()[1] == "1,5,"


def test_seeded_reproducibility():
    spec, F = _sl2(7)
    a = growth.GenSet.random_symmetric(spec, F, 3, random.Random(42))
    b = growth.GenSet.random_symmetric(spec, F, 3, random.Random(42))
    assert a.mats == b.mats


def test_random_subset_rejects_sizes_beyond_the_group():
    spec, F = _sl2(7)
    with pytest.raises(ValueError):
        growth.GenSet.random_subset(spec, F, 336, random.Random(0))


def test_random_subset_stops_when_the_sampler_stalls(monkeypatch):
    spec, F = _sl2(7)
    monkeypatch.setattr(groups, "random_group_element",
                        lambda spec, F, rng: (1, 1, 0, 1))
    with pytest.raises(SamplerStalled):
        growth.GenSet.random_subset(spec, F, 3, random.Random(0))
