import random

import pytest
from test_linalg import oracle_inv, oracle_mat_mul

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
    assert groups.is_member(F, linalg.mat_mul(F, 2, a.mat, b.mat), spec)
    a_inv = groups.GroupElement(spec, F, linalg.inv(F, 2, a.mat))
    assert linalg.mat_mul(F, 2, a.mat, a_inv.mat) == linalg.identity(2)
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
    exact = groups.exact_torus_conjugate_count(spec, F, ball)
    assert exact == 15  # |G| / |N(T)| = 120 / 8
    assert exact >= groups.torus_conjugate_count_bound(spec, 5)


def oracle_torus_conjugate_count(spec, F, universe):
    """|G| / |N(T)| by testing g t g^-1 in T for each g and t, one scalar
    product at a time."""
    torus = set(groups.torus_points(spec, F))
    N = spec.N
    count = 0
    for g in universe:
        gi = oracle_inv(F, N, g)
        if all(oracle_mat_mul(F, N, oracle_mat_mul(F, N, g, t), gi) in torus for t in torus):
            count += 1
    return len(universe) // count


@pytest.mark.parametrize("q", [5, 7, 9, 11])
def test_torus_conjugate_count_matches_the_scalar_normalizer(q):
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(*gf.factor_prime_power(q))
    ball = bfs.closure(F, 2, groups.standard_generators(spec, F))
    assert len(ball) == groups.group_order(spec, q)
    assert groups.exact_torus_conjugate_count(spec, F, ball) == \
        oracle_torus_conjugate_count(spec, F, list(ball.mats()))


def oracle_random_sl_element(N, F, rng):
    """The SL sampler as a product of transvection matrices, one scalar
    product per transvection."""
    mat = linalg.identity(N)
    for _ in range(3 * N):
        i = rng.randrange(N)
        j = rng.randrange(N - 1)
        if j >= i:
            j += 1
        t = list(linalg.identity(N))
        t[i * N + j] = rng.randrange(1, F.q)
        mat = oracle_mat_mul(F, N, mat, tuple(t))
    return mat


@pytest.mark.parametrize("q", [3, 7, 9, 25])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_random_sl_element_matches_the_transvection_product(N, q):
    spec = groups.GroupSpec("SL", N)
    F = gf.make_field(*gf.factor_prime_power(q))
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert groups.random_group_element(spec, F, rng) == \
                oracle_random_sl_element(N, F, ref)
        assert rng.random() == ref.random()  # the same draws, in order


def oracle_is_member(F, spec, mat):
    """The defining equations, one scalar product at a time."""
    N = spec.N
    t = linalg.transpose(N, mat)
    if spec.family == "Sp":
        om = groups.omega_enc(F, spec.n)
        return oracle_mat_mul(F, N, oracle_mat_mul(F, N, t, om), mat) == om
    return linalg.det(F, N, mat) == 1 and (
        spec.family == "SL" or oracle_mat_mul(F, N, t, mat) == linalg.identity(N))


def oracle_cayley_element(spec, F, rng):
    """The SO/Sp sampler as det(Id + x) != 0, then (Id - x)(Id + x)^{-1}
    with a scalar product."""
    N = spec.N
    ident = linalg.identity(N)
    while True:
        x = groups.random_lie_element(spec, F, rng)
        shift = linalg.mat_add(F, ident, x)
        if linalg.det(F, N, shift) != 0:
            return oracle_mat_mul(F, N, linalg.mat_sub(F, ident, x), oracle_inv(F, N, shift))


CAYLEY_CASES = [("Sp", 2, 5), ("Sp", 2, 9), ("Sp", 3, 7), ("SOodd", 3, 9),
                ("SOeven", 4, 5)]


@pytest.mark.parametrize("family,n,q", CAYLEY_CASES)
def test_cayley_sampler_matches_the_product_form(family, n, q):
    spec = groups.GroupSpec(family, n)
    F = gf.make_field(*gf.factor_prime_power(q))
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert groups.random_group_element(spec, F, rng) == \
                oracle_cayley_element(spec, F, ref)
        assert rng.random() == ref.random()  # the same draws, in order


@pytest.mark.parametrize("family,n,q", CAYLEY_CASES + [("SL", 3, 9)])
def test_batched_membership_matches_the_scalar_equations(family, n, q):
    spec = groups.GroupSpec(family, n)
    F = gf.make_field(*gf.factor_prime_power(q))
    rng = random.Random(q)
    mats = [groups.random_group_element(spec, F, rng) for _ in range(6)]
    for m in list(mats):   # one entry moved: mostly, not always, a non-member
        bad = list(m)
        bad[rng.randrange(len(bad))] = rng.randrange(F.q)
        mats.append(tuple(bad))
    if family.startswith("SO"):   # a reflection: x^T x = Id but det -1
        refl = tuple(F.neg(1) if i == 0 else int(i % (spec.N + 1) == 0)
                     for i in range(spec.N ** 2))
        assert oracle_mat_mul(F, spec.N, refl, refl) == linalg.identity(spec.N)
        assert not groups.members(F, [refl], spec)[0]
        mats.append(refl)
    want = [oracle_is_member(F, spec, m) for m in mats]
    assert groups.members(F, mats, spec).tolist() == want
    assert [groups.is_member(F, m, spec) for m in mats] == want
    assert any(want) and not all(want)
    assert groups.members(F, [], spec).shape == (0,)


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
