import random

import pytest

from chevlab import bfs, gf, groups, linalg
from chevlab.errors import (
    BadCharacteristic,
    BadEta,
    FamilyNotSupported,
    InadmissibleFamilyParameter,
    ShapeMismatch,
)


def test_family_parameter_table():
    # (family, n) -> (r, N, dim, ell)
    table = [
        ("SL", 2, 1, 2, 3, 3),
        ("SL", 3, 2, 3, 8, 4),
        ("SL", 5, 4, 5, 24, 6),
        ("Sp", 2, 2, 4, 10, 5),
        ("Sp", 3, 3, 6, 21, 7),
        ("SOodd", 3, 3, 7, 21, 7),
        ("SOodd", 4, 4, 9, 36, 9),
        ("SOeven", 4, 4, 8, 28, 7),
        ("SOeven", 5, 5, 10, 45, 9),
    ]
    for fam, n, r, N, dim, ell in table:
        spec = groups.GroupSpec(fam, n)
        assert (spec.r, spec.N, spec.dim, spec.ell) == (r, N, dim, ell)
        assert spec.dim == spec.r * spec.ell


def test_inadmissible_parameters():
    for fam, n in (("SL", 1), ("Sp", 1), ("SOodd", 2), ("SOeven", 3),
                   ("SU", 2)):
        with pytest.raises(InadmissibleFamilyParameter):
            groups.GroupSpec(fam, n)


def test_group_orders():
    assert groups.group_order(groups.GroupSpec("SL", 2), 3) == 24
    assert groups.group_order(groups.GroupSpec("SL", 2), 5) == 120
    assert groups.group_order(groups.GroupSpec("SL", 2), 7) == 336
    assert groups.group_order(groups.GroupSpec("SL", 3), 5) == 372000
    assert groups.group_order(groups.GroupSpec("Sp", 2), 3) == 51840


def test_standard_generators_are_members():
    for fam, n, q in (("SL", 2, 5), ("SL", 3, 3), ("Sp", 2, 3)):
        spec = groups.GroupSpec(fam, n)
        F = gf.make_field(q)
        gens = groups.standard_generators(spec, F)
        assert linalg.identity(spec.N) in gens
        for g in gens:
            assert groups.is_member(F, g, spec)
            assert linalg.inv(F, spec.N, g) in gens


def test_standard_generators_generate():
    for fam, n, q, order in (("SL", 2, 5, 120), ("Sp", 2, 3, 51840),
                             ("SL", 2, 9, 720), ("SL", 2, 27, 19656)):
        spec = groups.GroupSpec(fam, n)
        F = gf.make_field(*gf.factor_prime_power(q))
        ball = bfs.closure(F, spec.N, groups.standard_generators(spec, F))
        assert len(ball) == order


def test_membership_rejects():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    assert not groups.is_member(F, (2, 0, 0, 1), spec)  # det 2
    sp = groups.GroupSpec("Sp", 2)
    # a determinant-1 matrix that does not preserve the symplectic form
    bad = [0] * 16
    for i in range(4):
        bad[i * 4 + i] = 1
    bad[0 * 4 + 0], bad[1 * 4 + 1] = 2, 3  # det 6 = 1 mod 5, not symplectic
    assert not groups.is_member(F, tuple(bad), sp)


def test_group_element_arithmetic():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(7)
    a = groups.GroupElement(spec, F, (1, 1, 0, 1))
    b = groups.GroupElement(spec, F, (1, 0, 1, 1))
    ab = a * b
    assert groups.is_member(F, ab.mat, spec)
    assert (a * a.inverse()).mat == linalg.identity(2)
    with pytest.raises(ShapeMismatch):
        groups.GroupElement(spec, F, (1, 0, 0))


def test_lie_elements_and_bracket():
    spec = groups.GroupSpec("Sp", 2)
    F = gf.make_field(7)
    rng = random.Random(3)
    for _ in range(20):
        x = groups.random_lie_element(spec, F, rng)
        y = groups.random_lie_element(spec, F, rng)
        assert groups.lie_is_member(F, x, spec)
        br = linalg.bracket(F, spec.N, x, y)
        assert groups.lie_is_member(F, br, spec)  # closed under bracket


def test_random_group_elements_are_members():
    rng = random.Random(9)
    for fam, n, q in (("SL", 2, 7), ("SL", 3, 5), ("Sp", 2, 5),
                      ("SOodd", 3, 7), ("SOeven", 4, 5)):
        spec = groups.GroupSpec(fam, n)
        F = gf.make_field(q)
        for _ in range(10):
            g = groups.random_group_element(spec, F, rng)
            assert groups.is_member(F, g, spec)


def test_random_elements_over_extension_field_generate():
    # transvection parameters are whole encodings of F_9, not residues mod 3,
    # so samples leave SL(2,3); seeds 3, 12 and 19 of 0..19 land in a
    # subgroup SL(2,5) of order 120 instead
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(3, 2)
    rng = random.Random(0)
    mats = [groups.random_group_element(spec, F, rng) for _ in range(3)]
    assert any(x >= 3 for m in mats for x in m)
    gens = [linalg.identity(2)] + mats + [linalg.inv(F, 2, m) for m in mats]
    assert len(bfs.closure(F, 2, gens)) == 720


def test_torus_spec_and_points():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    t = groups.TorusSpec(spec)
    assert t.is_maximal
    pts = groups.torus_points(spec, F)
    assert len(pts) == 4  # q - 1 diagonal matrices of determinant 1
    for m in pts:
        assert groups.is_member(F, m, spec)
    sp = groups.GroupSpec("Sp", 2)
    tt = groups.TorusSpec(sp, (0, 1))
    assert not tt.is_maximal
    with pytest.raises(BadEta):
        groups.TorusSpec(sp, (1, 0))  # eta_n = 0


def test_torus_points_with_eta_cut():
    sp = groups.GroupSpec("Sp", 2)
    F = gf.make_field(7)
    full = groups.torus_points(sp, F)
    assert len(full) == 36  # (q-1)^2
    cut = groups.torus_points(sp, F, eta=(0, 1))
    assert len(cut) == 6  # one multiplicative condition: (q-1)^(r-1)
    for m in cut:
        assert groups.is_member(F, m, sp)


def test_canonical_torus_lie_basis_dimensions():
    F = gf.make_field(7)
    cases = [("SL", 3, (), 2), ("Sp", 2, (), 2), ("Sp", 2, (0, 1), 1),
             ("SOodd", 3, (0, 0, 1), 2), ("SOeven", 4, (0, 0, 0, 1), 3)]
    for fam, n, eta, want in cases:
        spec = groups.GroupSpec(fam, n)
        t = groups.TorusSpec(spec, eta)
        basis = groups.canonical_torus_lie_basis(t, F)
        assert len(basis) == want
        for b in basis:
            assert groups.lie_is_member(F, b.mat, spec)


def test_weyl_orders():
    assert groups.weyl_order(groups.GroupSpec("SL", 2)) == 2
    assert groups.weyl_order(groups.GroupSpec("SL", 3)) == 6
    assert groups.weyl_order(groups.GroupSpec("Sp", 2)) == 8
    assert groups.weyl_order(groups.GroupSpec("SOeven", 4)) == 192
    assert groups.weyl_order(groups.GroupSpec("SOodd", 3)) == 48


def test_exact_torus_conjugate_count_sl2():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    ball = bfs.closure(F, 2, groups.standard_generators(spec, F))
    exact = groups.exact_torus_conjugate_count(spec, F, list(ball.mats()))
    assert exact == 15  # |G| / |N(T)| = 120 / 8
    assert exact >= groups.torus_conjugate_count_bound(spec, 5)


def test_hypotheses_report_shape():
    spec = groups.GroupSpec("SL", 2)
    rep = groups.hypotheses_ok(spec, 7, "main")
    assert rep["theorem"] == "main"
    assert isinstance(rep["pass"], bool)
    for chk in rep["checks"]:
        assert set(chk) >= {"name", "value", "threshold", "pass"}


def test_even_characteristic_rejected():
    spec = groups.GroupSpec("Sp", 2)
    with pytest.raises(BadCharacteristic):
        groups.group_order(spec, 4)


def test_so_generators_not_shipped():
    spec = groups.GroupSpec("SOodd", 3)
    F = gf.make_field(7)
    with pytest.raises(FamilyNotSupported):
        groups.standard_generators(spec, F)
