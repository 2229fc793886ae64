import random

import pytest

from chevlab import cli, gf, groups, linalg, torus_lab
from chevlab.errors import (
    BadEta,
    CompletionExhausted,
    FamilyNotSupported,
    HypothesisFailed,
    ZeroEta,
)


def test_character_reduce():
    assert torus_lab.character_reduce((5, 10, 15), 5) == (1, 2, 3)
    assert torus_lab.character_reduce((1, 2), 7) == (1, 2)
    assert torus_lab.character_reduce((49, 7), 7) == (7, 1)
    with pytest.raises(ZeroEta):
        torus_lab.character_reduce((0, 0), 5)


def test_explicit_h_matrices_are_lie_elements():
    cases = [
        ("Sp", 2, 7, (0, 1), 3),     # eta sums to 1 mod 7: plus case
        ("Sp", 2, 7, (1, -1), 3),    # eta sums to 0 mod 7: minus case
        ("SOodd", 3, 11, (0, 0, 1), 2),
        ("SOeven", 4, 3, (0, 0, 0, 1), 3),   # all eta_i = 0 mod p, i < n
        ("SOeven", 4, 3, (1, 0, 2, 1), 3),   # some eta_i nonzero mod p
    ]
    for fam, n, q, eta, count in cases:
        spec = groups.GroupSpec(fam, n)
        F = gf.make_field(q)
        t = groups.TorusSpec(spec, eta)
        hs = torus_lab.explicit_h_matrices(t, F)
        assert len(hs) == count
        for h in hs:
            assert groups.lie_is_member(F, h.mat, spec)


def test_explicit_h_rejections():
    sl = groups.GroupSpec("SL", 3)
    F = gf.make_field(7)
    with pytest.raises(FamilyNotSupported):
        torus_lab.explicit_h_matrices(groups.TorusSpec(sl, (1, 0, 1)), F)
    sp = groups.GroupSpec("Sp", 2)
    with pytest.raises(BadEta):
        torus_lab.explicit_h_matrices(groups.TorusSpec(sp), F)  # maximal
    with pytest.raises(BadEta):
        # eta_n = 7 = 0 mod 7 (and eta_1 = 1 blocks primitive reduction)
        torus_lab.explicit_h_matrices(groups.TorusSpec(sp, (1, 7)), F)


def test_rank_certificate_values():
    cases = [
        ("Sp", 2, 7, (0, 1)),
        ("Sp", 2, 7, (1, -1)),
        ("SOodd", 3, 11, (0, 0, 1)),
        ("SOeven", 4, 3, (0, 0, 0, 1)),
        ("SOeven", 4, 3, (1, 0, 2, 1)),
        ("SL", 3, 5, (1, 0, 1)),
    ]
    for fam, n, q, eta in cases:
        spec = groups.GroupSpec(fam, n)
        F = gf.make_field(q)
        t = groups.TorusSpec(spec, eta)
        cert = torus_lab.rank_certificate(t, F, "lie_bracket", seed=0)
        assert cert.achieved_rank == (spec.ell + 1) * (spec.r - 1)
        assert len(cert.witnesses) == spec.ell
        assert cert.mode == "lie_bracket"


def test_rank_certificate_adjoint_mode():
    spec = groups.GroupSpec("Sp", 2)
    F = gf.make_field(7)
    t = groups.TorusSpec(spec, (0, 1))
    cert = torus_lab.rank_certificate(t, F, "adjoint", seed=1)
    assert cert.achieved_rank == (spec.ell + 1) * (spec.r - 1)
    assert cert.flags["char_gt_N"] is True
    assert cert.flags["char_coprime_2N"] is True


def test_rank_certificate_rejects_maximal_and_bad_char():
    spec = groups.GroupSpec("Sp", 2)
    F = gf.make_field(7)
    with pytest.raises(BadEta):
        torus_lab.rank_certificate(groups.TorusSpec(spec), F)
    F2 = gf.make_field(2, 3)
    with pytest.raises(HypothesisFailed):
        torus_lab.rank_certificate(
            groups.TorusSpec(spec, (0, 1)), F2, "lie_bracket")


def test_rank_certificate_deterministic_per_seed():
    spec = groups.GroupSpec("SOodd", 3)
    F = gf.make_field(11)
    t = groups.TorusSpec(spec, (1, 0, 1))
    a = torus_lab.rank_certificate(t, F, "lie_bracket", seed=5)
    b = torus_lab.rank_certificate(t, F, "lie_bracket", seed=5)
    assert [w.ser() for w in a.witnesses] == [w.ser() for w in b.witnesses]


DEAD_END_SEEDS = (4, 5, 34, 46, 64, 104, 233, 239, 298)


def test_dead_end_seeds_restart_and_certify():
    spec = groups.GroupSpec("SOodd", 3)
    F = gf.make_field(3)
    t = groups.TorusSpec(spec, (1, 0, 1))
    for seed in DEAD_END_SEEDS:
        cert = torus_lab.rank_certificate(t, F, "lie_bracket", seed=seed)
        assert cert.achieved_rank == (spec.ell + 1) * (spec.r - 1)
        assert len(cert.witnesses) == spec.ell
    assert cli.run(["torus-cert", "--group", "SOodd", "--n", "3", "--q", "3",
                    "--eta", "1,0,1", "--seed", "4"]) == 0


def test_exhausted_restarts_are_a_cap_error(monkeypatch):
    monkeypatch.setattr(torus_lab, "RESTARTS", 0)
    t = groups.TorusSpec(groups.GroupSpec("SOodd", 3), (1, 0, 1))
    with pytest.raises(CompletionExhausted):
        torus_lab.rank_certificate(t, gf.make_field(3), "lie_bracket", seed=4)
    assert cli.run(["torus-cert", "--group", "SOodd", "--n", "3", "--q", "3",
                    "--eta", "1,0,1", "--seed", "4"]) == 3


@pytest.mark.parametrize("family,n,q,eta", [
    ("Sp", 2, 9, (0, 1)), ("Sp", 2, 25, (1, 2)), ("SOodd", 3, 9, (1, 0, 1))])
def test_lie_bracket_rows_over_extension_fields(family, n, q, eta):
    """The block-product brackets equal linalg.bracket over GF(p^e), and the
    lie_bracket certificate goes through end to end."""
    spec = groups.GroupSpec(family, n)
    F = gf.make_field(*gf.factor_prime_power(q))
    t = groups.TorusSpec(spec, eta)
    basis = groups.canonical_torus_lie_basis(t, F)
    rng = random.Random(q)
    for _ in range(5):
        g = groups.random_lie_element(spec, F, rng)
        assert torus_lab._image_rows(basis, g, F, spec.N, "lie_bracket") == [
            list(linalg.bracket(F, spec.N, g, b.mat)) for b in basis]
    assert cli.run(["torus-cert", "--group", family, "--n", str(n), "--q", str(q),
                    "--eta", ",".join(map(str, eta))]) == 0


def test_reconstruction_identities():
    rng = random.Random(13)
    assert torus_lab.soeven_reconstruction_check(4, gf.make_field(7), rng)
    # SO_7 needs char not dividing 2N = 14, so use F_11
    assert torus_lab.soodd_reconstruction_check(3, gf.make_field(11), rng)
