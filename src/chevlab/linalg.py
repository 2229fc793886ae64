"""Exact dense linear algebra over a FieldSpec.

Matrices are flat row-major tuples of field-element encodings; the pair
(n, mat) with len(mat) == n*n travels together.  Flat tuples double as hash
keys for BFS tables and as the serialization backbone.

Every GF(q) matrix product goes through one numpy kernel, `matmul`, on int64
arrays of encodings: a matrix over GF(p^e) enters through its regular
representation (`_regular`), which sends an (L, N) matrix to an (L e, N e)
matrix over F_p and products to products, so each field product is an int64
matmul mod p, and F_p is the case e = 1.  Entries stay below p, so a product
with inner dimension L sums L e terms below p^2 < 2^40: no int64 overflow for
q <= 2^20 and L e < 2^23.  `mul` and `lmul` multiply a whole batch by each of
a few matrices as one tall matmul per matrix; `mat_mul` is the kernel on a
batch of one.

Char polys of a batch come from Berkowitz's division-free algorithm on the
regular representation (`_berkowitz`), in slabs of _BLOCK matrices: `classify`
and `groups.members` read it, `invert` takes its coefficients to inverses by
Cayley-Hamilton, and `inv` is `invert` on a batch of one.

All row reduction goes through one incremental step, `echelon_add`: `det`
multiplies the pivot values it returns, `nullspace` reads the reduced echelon
form that two passes of it give, and the torus rank certificates and the LGV
path determinant call it directly or through `det`.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch

_BLOCK = 4096  # kernel rows per slab


def identity(n):
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def as_array(F, N, mats):
    """Flat matrices as an (M, N, N) int64 array of encodings."""
    arr = np.array(mats, dtype=np.int64).reshape(-1, N, N)
    return arr % F.p if F.e == 1 else arr


def _digits(F, a):
    """The F_p coordinates of encodings, on a new last axis (low degree first)."""
    return a[..., None] // F.p ** np.arange(F.e) % F.p


def _regular(F, gens):
    """Each (L, N) matrix over GF(p^e) of an (..., L, N) array as the
    (L e, N e) matrix over F_p of its action on coordinate rows: entry y
    becomes the block of x -> x*y."""
    p, e = F.p, F.e
    L, N = gens.shape[-2:]
    rows = [_digits(F, gens)]           # rows[d][..., k, j, :] = t^d * y_kj
    red = -np.array(F.modulus[:e], dtype=np.int64) % p   # t^e = sum red_i t^i
    for _ in range(e - 1):
        last = rows[-1]
        rows.append((np.concatenate([np.zeros_like(last[..., :1]), last[..., :-1]], -1)
                     + last[..., -1:] * red) % p)
    rep = np.swapaxes(np.stack(rows, -2), -3, -2)
    return rep.reshape(gens.shape[:-2] + (L * e, N * e))


def matmul(F, A, B):
    """The field product A @ B of int64 arrays of encodings, (..., K, L) by
    (..., L, N), leading axes broadcast as in np.matmul."""
    p, e, N = F.p, F.e, B.shape[-1]
    if e > 1:
        A = _digits(F, A).reshape(A.shape[:-1] + (A.shape[-1] * e,))
        B = _regular(F, B)
    out = np.matmul(A, B)
    out %= p
    if e > 1:
        out = out.reshape(out.shape[:-1] + (N, e)) @ p ** np.arange(e)
    return out


def _berkowitz(F, A):
    """det(x Id - A) for an (M, n e, n e) batch of regular representations,
    as the (M, n + 1, e, e) blocks of its coefficients, high degree first.

    Step k borders the leading k x k block B by column c, row r and corner a;
    the polynomial so far is multiplied by the lower-triangular Toeplitz
    matrix whose first column is (1, -a, -r c, -r B c, ..., -r B^(k-1) c)."""
    p, e = F.p, F.e
    M, n = len(A), A.shape[1] // e
    poly = one = np.broadcast_to(np.eye(e, dtype=np.int64), (M, e, e))
    for k in range(n):
        b, lead = slice(k * e, (k + 1) * e), slice(0, k * e)
        col = [one, -A[:, b, b] % p]
        if k:
            krylov = [A[:, lead, b]]
            for _ in range(k - 1):
                krylov.append(A[:, lead, lead] @ krylov[-1] % p)
            col += np.split(-(A[:, b, lead] @ np.concatenate(krylov, axis=2)) % p,
                            k, axis=2)
        gap = np.arange(k + 2)[:, None] - np.arange(k + 1)
        T = np.stack(col, axis=1)[:, gap.clip(0)] * (gap >= 0)[:, :, None, None]
        poly = T.swapaxes(2, 3).reshape(M, (k + 2) * e, (k + 1) * e) @ poly % p
    return poly.reshape(M, n + 1, e, e)


def _encode(F, blocks):
    """Field encodings of regular-representation blocks: row 0 of the block
    of y holds the F_p coordinates of y."""
    return blocks[..., 0, :] @ F.p ** np.arange(F.e)


def invert(F, X):
    """The inverses of an (M, N, N) int64 batch of encodings, by
    Cayley-Hamilton: for det(x Id - X) = x^N + c_(N-1) x^(N-1) + ... + c_0,
    X^-1 = -c_0^-1 (X^(N-1) + c_(N-1) X^(N-2) + ... + c_1 Id), the sum by
    Horner's rule on the regular representation.  Raises ZeroDivisionError if
    any matrix is singular (c_0 = 0)."""
    p, e, N = F.p, F.e, X.shape[-1]
    eye = np.eye(N, dtype=np.int64)
    out = np.empty_like(X)
    for start in range(0, len(X), _BLOCK):
        R = _regular(F, X[start:start + _BLOCK])
        c = _berkowitz(F, R)                  # c[:, k] is the block of c_(N-k)
        c0 = _encode(F, c[:, N])
        if not c0.all():
            raise ZeroDivisionError("matrix is singular")
        scalar = c[:, :, None, :, None] * eye[:, None, :, None]   # c_k Id, as blocks
        P = np.broadcast_to(np.eye(N * e, dtype=np.int64), R.shape)
        for k in range(1, N):
            P = (R @ P + scalar[:, k].reshape(R.shape)) % p
        P = _encode(F, P.reshape(-1, N, e, N, e).swapaxes(2, 3))
        vals, where = np.unique(c0, return_inverse=True)
        scale = np.array([F.neg(F.inv(x)) for x in vals.tolist()], np.int64)[where]
        out[start:start + _BLOCK] = matmul(F, eye * scale[:, None, None], P)
    return out


def mul(F, X, gens):
    """The field products X @ g for every g in the (G, N, N) array gens, as
    one array of shape (G,) + X.shape: the rows of X stacked into one tall
    matrix, so each g costs one large matmul."""
    N = X.shape[-1]
    return matmul(F, X.reshape(1, -1, N), gens).reshape((len(gens),) + X.shape)


def lmul(F, gens, X):
    """The field products g @ X for every g in the (G, N, N) array gens, as
    (X^T g^T)^T, of shape (G,) + X.shape."""
    T = lambda A: np.swapaxes(A, -1, -2)
    return T(mul(F, T(X), T(gens)))


def mat_mul(F, n, a, b):
    """The product of two flat matrices: the kernel on a batch of one."""
    return tuple(matmul(F, as_array(F, n, a), as_array(F, n, b)).ravel().tolist())


def mat_add(F, a, b):
    return tuple(F.add(x, y) for x, y in zip(a, b))


def mat_sub(F, a, b):
    return tuple(F.sub(x, y) for x, y in zip(a, b))


def mat_neg(F, a):
    return tuple(F.neg(x) for x in a)


def transpose(n, a):
    return tuple(a[j * n + i] for i in range(n) for j in range(n))


def trace(F, n, a):
    t = 0
    for i in range(n):
        t = F.add(t, a[i * n + i])
    return t


def bracket(F, n, a, b):
    """Lie bracket [a, b] = ab - ba."""
    return mat_sub(F, mat_mul(F, n, a, b), mat_mul(F, n, b, a))


def echelon_add(F, basis, row):
    """The one row-reduction step.  `basis` is a list of (pivot column, row)
    pairs; each row is 1 at its pivot, 0 before it and 0 at the pivots of the
    rows before it.  Reduce `row` against them; if what is left is nonzero,
    scale it to 1 at its first nonzero column, append it, and return the value
    it had there.  Otherwise return 0 and leave `basis` as it was."""
    row = list(row)
    sub, mul = F.sub, F.mul
    for pc, prow in basis:
        c = row[pc]
        if c:
            row[pc:] = [sub(x, mul(c, y)) for x, y in zip(row[pc:], prow[pc:])]
    for j, c in enumerate(row):
        if c:
            inv_c = F.inv(c)
            basis.append((j, [0] * j + [mul(inv_c, x) for x in row[j:]]))
            return c
    return 0


def _rref(F, rows):
    """Reduced row echelon form of `rows` as (pivot, row) pairs sorted by
    pivot.  Adding the echelon rows again, last pivot first, clears every
    pivot column above its pivot."""
    basis = []
    for row in rows:
        echelon_add(F, basis, row)
    reduced = []
    for _, row in sorted(basis, reverse=True):
        echelon_add(F, reduced, row)
    return reduced[::-1]


def det(F, n, a):
    """Determinant: the product of the pivot values that echelon_add returns,
    times the sign of the permutation formed by the pivot columns."""
    basis = []
    d = 1
    for i in range(n):
        c = echelon_add(F, basis, a[i * n:(i + 1) * n])
        if not c:
            return 0
        d = F.mul(d, c)
    cols = [pc for pc, _ in basis]
    inversions = sum(x > y for i, x in enumerate(cols) for y in cols[i + 1:])
    return F.neg(d) if inversions % 2 else d


def inv(F, n, a):
    """Matrix inverse: `invert` on a batch of one."""
    return tuple(invert(F, as_array(F, n, a)).ravel().tolist())


def nullspace(F, rows, ncols):
    """Basis of the right kernel of the matrix with the given rows over F,
    one vector per free column of the reduced echelon form."""
    reduced = _rref(F, rows)
    pivots = [pc for pc, _ in reduced]
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for pc, prow in reduced:
            vec[pc] = F.neg(prow[fc])
        basis.append(tuple(vec))
    return basis


def mat_ser(F, n, mat):
    """Serialize as N^2 field-element strings joined by ','."""
    if len(mat) != n * n:
        raise ShapeMismatch("expected {} entries, got {}".format(n * n, len(mat)))
    return ",".join(F.ser(x) for x in mat)


def mat_parse(F, n, text):
    parts = text.strip().split(",")
    if len(parts) != n * n:
        raise ShapeMismatch("expected {} entries, got {}".format(n * n, len(parts)))
    return tuple(F.parse(part) for part in parts)
