import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chevlab import gf, linalg
from test_classify import resultant

FIELDS = {5: gf.make_field(5), 7: gf.make_field(7), 9: gf.make_field(3, 2)}
PRODUCT_FIELDS = {q: gf.make_field(*gf.factor_prime_power(q)) for q in (3, 5, 7, 9, 25)}


def oracle_mat_mul(F, n, a, b):
    """The scalar triple loop over FieldSpec arithmetic: the oracle for the
    array kernel behind linalg.mat_mul, mul and lmul."""
    add, mul = F.add, F.mul
    out = [0] * (n * n)
    for i in range(n):
        for k in range(n):
            x = a[i * n + k]
            if x:
                for j in range(n):
                    out[i * n + j] = add(out[i * n + j], mul(x, b[k * n + j]))
    return tuple(out)


def oracle_inv(F, n, a):
    """Gauss-Jordan on [a | Id]: the scalar oracle for linalg.invert and inv.
    Raises ZeroDivisionError if a is singular."""
    reduced = linalg._rref(F, [list(a[i * n:(i + 1) * n]) + [int(i == j) for j in range(n)]
                               for i in range(n)])
    if len(reduced) < n or reduced[-1][0] >= n:  # the rows of a are dependent
        raise ZeroDivisionError("matrix is singular")
    return tuple(x for _, row in reduced for x in row[n:])


@st.composite
def field_and_matrix(draw, max_n=4, square=True):
    """(F, nrows, ncols, flat entries) with small shapes."""
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    nrows = draw(st.integers(1, max_n))
    ncols = nrows if square else draw(st.integers(1, max_n))
    entries = draw(st.lists(st.integers(0, F.q - 1),
                            min_size=nrows * ncols, max_size=nrows * ncols))
    return F, nrows, ncols, tuple(entries)


def leibniz_det(F, n, a):
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = F.mul(term, a[i * n + j])
        inversions = sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:])
        total = F.add(total, F.neg(term) if inversions % 2 else term)
    return total


def minor_rank(F, rows, ncols):
    """Largest k with a nonzero k x k minor (Leibniz), as an oracle."""
    for k in range(min(len(rows), ncols), 0, -1):
        for ri in itertools.combinations(range(len(rows)), k):
            for ci in itertools.combinations(range(ncols), k):
                sub = tuple(rows[i][j] for i in ri for j in ci)
                if leibniz_det(F, k, sub):
                    return k
    return 0


def sylvester(a, b):
    """The (n+m) x (n+m) Sylvester matrix of a (degree n) and b (degree m)."""
    n, m = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + b[::-1] + [0] * (n - 1 - i) for i in range(n)]
    return tuple(x for row in rows for x in row)


@settings(max_examples=60, deadline=None)
@given(field_and_matrix())
def test_det_matches_leibniz(case):
    F, n, _, a = case
    assert linalg.det(F, n, a) == leibniz_det(F, n, a)


@settings(max_examples=40, deadline=None)
@given(field_and_matrix(max_n=5), st.data())
def test_det_is_multiplicative(case, data):
    F, n, _, a = case
    b = tuple(data.draw(st.lists(st.integers(0, F.q - 1), min_size=n * n,
                                 max_size=n * n)))
    assert linalg.det(F, n, linalg.mat_mul(F, n, a, b)) == F.mul(
        linalg.det(F, n, a), linalg.det(F, n, b))


@settings(max_examples=40, deadline=None)
@given(field_and_matrix(max_n=5))
def test_inverse_times_matrix_is_identity(case):
    F, n, _, a = case
    if linalg.det(F, n, a) == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.inv(F, n, a)
    else:
        assert linalg.mat_mul(F, n, linalg.inv(F, n, a), a) == linalg.identity(n)


@settings(max_examples=40, deadline=None)
@given(field_and_matrix(square=False))
def test_nullspace_annihilates_rows_and_has_full_size(case):
    F, nrows, ncols, a = case
    rows = [a[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    kernel = linalg.nullspace(F, rows, ncols)
    assert len(kernel) == ncols - minor_rank(F, rows, ncols)
    for vec in kernel:
        for row in rows:
            acc = 0
            for x, y in zip(row, vec):
                acc = F.add(acc, F.mul(x, y))
            assert acc == 0


@settings(max_examples=40, deadline=None)
@given(field_and_matrix(max_n=5, square=False))
def test_echelon_add_keeps_its_invariant(case):
    F, nrows, ncols, a = case
    basis = []
    for i in range(nrows):
        before = len(basis)
        c = linalg.echelon_add(F, basis, a[i * ncols:(i + 1) * ncols])
        assert (c != 0) == (len(basis) == before + 1)
    assert len(basis) == minor_rank(F, [a[i * ncols:(i + 1) * ncols]
                                        for i in range(nrows)], ncols)
    for k, (pc, row) in enumerate(basis):
        assert row[pc] == 1 and not any(row[:pc])
        assert all(row[earlier] == 0 for earlier, _ in basis[:k])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_resultant_matches_sylvester_determinant(q, data):
    F = FIELDS[q]
    coeffs = st.integers(0, F.q - 1)
    a = data.draw(st.lists(coeffs, max_size=4)) + [data.draw(st.integers(1, F.q - 1))]
    b = data.draw(st.lists(coeffs, max_size=4)) + [data.draw(st.integers(1, F.q - 1))]
    n, m = len(a) - 1, len(b) - 1
    if n == 0 or m == 0:
        want = F.pow(a[0], m) if n == 0 else F.pow(b[0], n)
    else:
        want = linalg.det(F, n + m, sylvester(a, b))
    assert resultant(F, a, b) == want


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_FIELDS)), st.integers(2, 4), st.data())
def test_invert_matches_the_gauss_jordan_oracle(q, n, data):
    F = PRODUCT_FIELDS[q]
    mats = data.draw(st.lists(st.lists(st.integers(0, F.q - 1), min_size=n * n,
                                       max_size=n * n).map(tuple), max_size=6))
    want = []
    for a in mats:
        try:
            want.append(oracle_inv(F, n, a))
        except ZeroDivisionError:
            want.append(None)
            with pytest.raises(ZeroDivisionError):
                linalg.inv(F, n, a)
        else:
            assert linalg.inv(F, n, a) == want[-1]
    regular = [a for a, w in zip(mats, want) if w is not None]
    got = linalg.invert(F, linalg.as_array(F, n, regular)).reshape(-1, n * n).tolist()
    assert list(map(tuple, got)) == [w for w in want if w is not None]
    if None in want:   # one singular matrix fails the whole batch
        with pytest.raises(ZeroDivisionError):
            linalg.invert(F, linalg.as_array(F, n, mats))


def test_invert_runs_in_slabs(monkeypatch):
    F = PRODUCT_FIELDS[25]
    rng = np.random.default_rng(5)
    X = rng.integers(0, 25, (40, 3, 3))
    X = X[[linalg.det(F, 3, tuple(x)) != 0 for x in X.reshape(-1, 9).tolist()]]
    whole = linalg.invert(F, X)
    monkeypatch.setattr(linalg, "_BLOCK", 4)   # len(X) is not a multiple of 4
    assert len(X) % 4 and (linalg.invert(F, X) == whole).all()
    assert whole.reshape(-1, 9).tolist() == [list(oracle_inv(F, 3, tuple(x)))
                                             for x in X.reshape(-1, 9).tolist()]
    X[-1] = 0   # singular, in the last slab
    with pytest.raises(ZeroDivisionError):
        linalg.invert(F, X)


@st.composite
def field_and_batches(draw):
    """(F, n, X, gens): a batch X of 0..4 flat n x n matrices and 1..3
    matrices gens over one of PRODUCT_FIELDS."""
    F = PRODUCT_FIELDS[draw(st.sampled_from(sorted(PRODUCT_FIELDS)))]
    n = draw(st.integers(1, 4))
    mat = st.lists(st.integers(0, F.q - 1), min_size=n * n, max_size=n * n).map(tuple)
    return (F, n, draw(st.lists(mat, max_size=4)), draw(st.lists(mat, min_size=1, max_size=3)))


@settings(max_examples=80, deadline=None)
@given(field_and_batches())
def test_array_products_match_the_scalar_oracle(case):
    F, n, X, gens = case
    A, G = linalg.as_array(F, n, X), linalg.as_array(F, n, gens)
    rows = lambda arr: [tuple(m) for m in arr.reshape(-1, n * n).tolist()]
    assert linalg.mul(F, A, G).shape == linalg.lmul(F, G, A).shape == (len(G), len(A), n, n)
    assert rows(linalg.mul(F, A, G)) == [oracle_mat_mul(F, n, x, g) for g in gens for x in X]
    assert rows(linalg.lmul(F, G, A)) == [oracle_mat_mul(F, n, g, x) for g in gens for x in X]
    for x in X:
        for g in gens:
            assert linalg.mat_mul(F, n, x, g) == oracle_mat_mul(F, n, x, g)
    # pairwise products, the leading axes broadcast as in np.matmul
    k = min(len(X), len(G))
    assert rows(linalg.matmul(F, A[:k], G[:k])) == [
        oracle_mat_mul(F, n, x, g) for x, g in zip(X, gens)]
    # a product of a single (K, n) block of rows
    if X:
        assert rows(linalg.matmul(F, A[0], G[0])) == [oracle_mat_mul(F, n, X[0], gens[0])]
        assert linalg.matmul(F, A[0][:1], G[0]).tolist() == [
            list(oracle_mat_mul(F, n, X[0], gens[0])[:n])]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_FIELDS)), st.data())
def test_rectangular_products_match_the_scalar_oracle(q, data):
    """(M, K, L) @ (M, L, N) with independent K, L, N, the shapes of the
    lie_bracket block product (g | b)(b ; -g)."""
    F = PRODUCT_FIELDS[q]
    M, K, L, N = (data.draw(st.integers(lo, 4)) for lo in (0, 1, 1, 1))
    block = lambda r, c: data.draw(st.lists(
        st.lists(st.lists(st.integers(0, F.q - 1), min_size=c, max_size=c),
                 min_size=r, max_size=r), min_size=M, max_size=M))
    A, B = block(K, L), block(L, N)
    dot = lambda row, b, j: functools.reduce(
        F.add, (F.mul(x, b[l][j]) for l, x in enumerate(row)), 0)
    want = [[[dot(row, b, j) for j in range(N)] for row in a] for a, b in zip(A, B)]
    got = linalg.matmul(F, np.array(A, dtype=np.int64).reshape(M, K, L),
                        np.array(B, dtype=np.int64).reshape(M, L, N))
    assert got.shape == (M, K, N) and got.tolist() == want
