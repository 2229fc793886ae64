import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chevlab import bfs, classify, gf, groups, linalg
from chevlab.classify import poly_deriv, poly_mod, poly_trim


# --- the scalar oracle: Hessenberg char polys and Euclid resultants ---

def poly_add(F, a, b):
    n = max(len(a), len(b))
    return poly_trim([F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                      for i in range(n)])


def poly_scale(F, c, a):
    return poly_trim([F.mul(c, x) for x in a])


def poly_sub(F, a, b):
    return poly_add(F, a, poly_scale(F, F.neg(1), b))


def poly_mul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(out)


def resultant(F, a, b):
    """Resultant of two polynomials (actual degrees) by Euclid's algorithm:
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r), r = a mod b,
    down to Res(a, c) = c^(deg a) for a constant c."""
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return 0
    res = 1
    while len(b) > 1:
        r = poly_mod(F, a, b)
        if not r:
            return 0
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = F.neg(res)
        res = F.mul(res, F.pow(b[-1], len(a) - len(r)))
        a, b = b, r
    return F.mul(res, F.pow(b[0], len(a) - 1))


def poly_disc(F, coeffs):
    """Discriminant of a monic polynomial: (-1)^{n(n-1)/2} Res(p, p')."""
    coeffs = poly_trim(coeffs)
    n = len(coeffs) - 1
    deriv = poly_deriv(F, coeffs)
    if not deriv:
        return 0
    res = resultant(F, coeffs, deriv)
    if (n * (n - 1) // 2) % 2:
        res = F.neg(res)
    return res


def hessenberg_char_poly(F, N, mat):
    """Monic char poly det(x Id - mat), low degree first, by similarity
    reduction to upper Hessenberg form and the minor recurrence."""
    H = [list(mat[i * N:(i + 1) * N]) for i in range(N)]
    for j in range(N - 2):
        piv = None
        for i in range(j + 1, N):
            if H[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            H[j + 1], H[piv] = H[piv], H[j + 1]
            for row in H:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        inv_p = F.inv(H[j + 1][j])
        for i in range(j + 2, N):
            if H[i][j]:
                f = F.mul(H[i][j], inv_p)
                H[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(H[i], H[j + 1])]
                for row in H:
                    row[j + 1] = F.add(row[j + 1], F.mul(f, row[i]))
    # recurrence on leading principal minors of x Id - H
    polys = [[1]]
    for m in range(1, N + 1):
        prev = polys[m - 1]
        term = poly_sub(F, poly_mul(F, [0, 1], prev),
                        poly_scale(F, H[m - 1][m - 1], prev))
        sub_prod = 1
        for i in range(m - 1, 0, -1):
            sub_prod = F.mul(sub_prod, H[i][i - 1])
            coeff = F.mul(H[i - 1][m - 1], sub_prod)
            if coeff:
                term = poly_sub(F, term, poly_scale(F, coeff, polys[i - 1]))
        polys.append(term)
    out = polys[N]
    return tuple(out + [0] * (N + 1 - len(out)))


def oracle_disc(F, N, mat):
    return poly_disc(F, list(hessenberg_char_poly(F, N, mat)))


def test_poly_gcd_and_resultant_small():
    F = gf.make_field(7)
    # (x-1)(x-2) and (x-2)(x-3) share the factor (x-2)
    a = poly_mul(F, (6, 1), (5, 1))
    b = poly_mul(F, (5, 1), (4, 1))
    g = classify.poly_gcd(F, a, b)
    assert len(g) == 2 and F.mul(g[0], F.inv(g[1])) == 5  # monic x - 2
    assert resultant(F, a, b) == 0
    c = poly_mul(F, (6, 1), (3, 1))  # (x-1)(x-4), coprime to b
    assert resultant(F, b, c) != 0


def test_discriminant_matches_root_differences():
    # disc of (x-a)(x-b) is (a-b)^2, from the oracle and from the kernel
    F = gf.make_field(11)
    pairs = [(a, b) for a in range(11) for b in range(11)]
    want = [F.mul(F.sub(a, b), F.sub(a, b)) for a, b in pairs]
    assert [poly_disc(F, poly_mul(F, (F.neg(a), 1), (F.neg(b), 1)))
            for a, b in pairs] == want
    diag = np.array([[[a, 0], [0, b]] for a, b in pairs])
    assert classify.charpoly_disc(F, diag)[1].tolist() == want


FIELDS = {q: gf.make_field(*gf.factor_prime_power(q)) for q in (3, 5, 7, 9, 25)}


@st.composite
def matrix_batch(draw):
    """(F, N, list of flat matrices): random entries, plus scalar and
    triangular unipotent matrices (repeated roots; f' = 0 when p | N and the
    matrix is scalar)."""
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    N = draw(st.integers(1, 5))
    entry = st.integers(0, F.q - 1)
    mats = draw(st.lists(st.lists(entry, min_size=N * N, max_size=N * N),
                         max_size=6))
    for c in draw(st.lists(entry, max_size=2)):
        mats.append([c if i == j else 0 for i in range(N) for j in range(N)])
        mats.append([c if i == j else int(j == i + 1) for i in range(N) for j in range(N)])
    return F, N, [tuple(m) for m in mats]


@settings(max_examples=80, deadline=None)
@given(matrix_batch())
def test_kernel_matches_scalar_oracle(case):
    F, N, mats = case
    coeffs, discs = classify.charpoly_disc(F, linalg.as_array(F, N, mats))
    assert coeffs.shape == (len(mats), N + 1) and discs.shape == (len(mats),)
    for m, c, d in zip(mats, coeffs.tolist(), discs.tolist()):
        want = hessenberg_char_poly(F, N, m)
        assert tuple(c) == want
        assert d == poly_disc(F, list(want))
        assert classify.char_poly(F, N, m) == want


def test_kernel_edge_batches():
    F = gf.make_field(3)
    # empty batch, and a batch of one where p = 3 divides N and f' = 0:
    # the identity of SL_3(3) has f = (x - 1)^3 = x^3 - 1
    coeffs, discs = classify.charpoly_disc(F, np.zeros((0, 3, 3), np.int64))
    assert coeffs.shape == (0, 4) and discs.shape == (0,)
    coeffs, discs = classify.charpoly_disc(F, np.eye(3, dtype=np.int64)[None])
    assert coeffs.tolist() == [[2, 0, 0, 1]] and discs.tolist() == [0]
    # slabs: a batch longer than one block equals its rows run one by one
    F9 = FIELDS[9]
    rng = np.random.default_rng(4)
    X = rng.integers(0, 9, (linalg._BLOCK + 5, 3, 3))
    coeffs, discs = classify.charpoly_disc(F9, X)
    for i in (0, linalg._BLOCK - 1, linalg._BLOCK, len(X) - 1):
        c, d = classify.charpoly_disc(F9, X[i:i + 1])
        assert coeffs[i].tolist() == c[0].tolist() and discs[i] == d[0]


def test_char_poly_of_diagonal():
    F = gf.make_field(7)
    mat = (2, 0, 0, 3)
    coeffs = classify.char_poly(F, 2, mat)
    # (x-2)(x-3) = x^2 - 5x + 6
    assert coeffs == (6, F.neg(5), 1)
    data = classify.char_poly_data(F, 2, mat)
    assert data.disc == F.mul(F.sub(2, 3), F.sub(2, 3))


def test_regular_semisimple_examples():
    F5 = gf.make_field(5)
    assert not classify.is_regular_semisimple(F5, 2, (1, 0, 0, 1))  # identity
    assert classify.is_regular_semisimple(F5, 2, (2, 0, 0, 3))
    # unipotent: repeated eigenvalue 1
    assert not classify.is_regular_semisimple(F5, 2, (1, 1, 0, 1))
    F7 = gf.make_field(7)
    # diag(2,4,4,2): eigenvalues repeat even though 2*4 = 1 mod 7
    assert not classify.is_regular_semisimple(F7, 4, tuple(
        v for i, d in enumerate((2, 4, 4, 2))
        for v in [0] * i + [d] + [0] * (3 - i)))
    # diag(3,2,5,4): 3*5 = 2*4 = 1 mod 7, all entries distinct
    assert classify.is_regular_semisimple(F7, 4, tuple(
        v for i, d in enumerate((3, 2, 5, 4))
        for v in [0] * i + [d] + [0] * (3 - i)))


def test_disc_vs_gcd_crosscheck_random():
    rng = random.Random(17)
    for fam, n, q in (("SL", 2, 5), ("SL", 3, 11), ("Sp", 2, 7)):
        spec = groups.GroupSpec(fam, n)
        F = gf.make_field(q)
        for _ in range(100):
            g = groups.random_group_element(spec, F, rng)
            # crosscheck raises if the two detectors ever disagree
            classify.is_regular_semisimple(F, spec.N, g, crosscheck=True)


def test_split_torus_nonrs_count_sl2():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    pts = groups.torus_points(spec, F)
    nonrs = [m for m in pts if not oracle_disc(F, 2, m)]
    assert len(nonrs) == 2  # exactly +/- identity


def test_nonrs_subtori_catalogue():
    sl2 = groups.GroupSpec("SL", 2)
    rels = classify.nonrs_subtori(sl2)
    assert len(rels) <= 1 * 2  # r(r+1)
    sp4 = groups.GroupSpec("Sp", 2)
    rels = classify.nonrs_subtori(sp4)
    kinds = {(rel.kind, rel.indices) for rel in rels}
    assert ("equal", (0, 1)) in kinds or ("equal", (1, 0)) in kinds
    assert len(rels) <= 2 * 3  # r(r+1)


def test_torus_nonrs_count_two_ways():
    sp4 = groups.GroupSpec("Sp", 2)
    F = gf.make_field(5)
    pts = groups.torus_points(sp4, F)
    direct = classify.count_nonrs_in_torus(sp4, F, pts)
    by_cat = classify.count_nonrs_by_catalogue(sp4, F, pts)
    brute = sum(1 for m in pts if not oracle_disc(F, 4, m))
    assert direct == by_cat == brute


def test_orbit_stabilizer_and_group_count():
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    gens = groups.standard_generators(spec, F)
    ball = bfs.closure(F, 2, gens)
    order = len(ball)
    rng = random.Random(5)
    mats = list(ball.mats())
    for _ in range(25):
        g = mats[rng.randrange(order)]
        cl = classify.conjugacy_class(F, 2, g, gens)
        cen = classify.centralizer(F, 2, g, ball)
        assert len(cl) * len(cen) == order
    assert classify.nonrs_count_in_group(F, 2, ball) == 2 * 25


def test_classification_record_fields():
    F = gf.make_field(5)
    rec = classify.classification_record(F, 2, (2, 0, 0, 3))
    assert rec["regular_semisimple"] is True
    assert rec["matrix"] == "2,0,0,3"
    assert set(rec) >= {"matrix", "charpoly", "disc", "regular_semisimple"}
