"""Exact dense linear algebra over a FieldSpec.

Matrices are flat row-major tuples of field-element encodings; the pair
(n, mat) with len(mat) == n*n travels together.  Flat tuples double as hash
keys for BFS tables and as the serialization backbone.
"""

from __future__ import annotations

from .errors import ShapeMismatch


def identity(n):
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def zero(n):
    return (0,) * (n * n)


def entry(mat, n, i, j):
    return mat[i * n + j]


def mat_mul(F, n, a, b):
    add, mul = F.add, F.mul
    out = [0] * (n * n)
    for i in range(n):
        row = a[i * n:(i + 1) * n]
        base = i * n
        for k in range(n):
            x = row[k]
            if x:
                brow = b[k * n:(k + 1) * n]
                for j in range(n):
                    if brow[j]:
                        out[base + j] = add(out[base + j], mul(x, brow[j]))
    return tuple(out)


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


def det(F, n, a):
    """Determinant by Gaussian elimination over the field."""
    m = [list(a[i * n:(i + 1) * n]) for i in range(n)]
    d = 1
    for col in range(n):
        piv = None
        for row in range(col, n):
            if m[row][col]:
                piv = row
                break
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = F.neg(d)
        d = F.mul(d, m[col][col])
        inv_p = F.inv(m[col][col])
        for row in range(col + 1, n):
            if m[row][col]:
                factor = F.mul(m[row][col], inv_p)
                for j in range(col, n):
                    m[row][j] = F.sub(m[row][j], F.mul(factor, m[col][j]))
    return d


def inv(F, n, a):
    """Matrix inverse by Gauss-Jordan; raises ZeroDivisionError if singular."""
    m = [list(a[i * n:(i + 1) * n]) + [1 if j == i else 0 for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = None
        for row in range(col, n):
            if m[row][col]:
                piv = row
                break
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        inv_p = F.inv(m[col][col])
        m[col] = [F.mul(inv_p, x) for x in m[col]]
        for row in range(n):
            if row != col and m[row][col]:
                factor = m[row][col]
                m[row] = [F.sub(x, F.mul(factor, y)) for x, y in zip(m[row], m[col])]
    return tuple(m[i][n + j] for i in range(n) for j in range(n))


def rank(F, rows):
    """Rank of a list of row vectors (encodings) over F. Rows may be ragged-free lists."""
    if not rows:
        return 0
    work = [list(r) for r in rows]
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        piv = None
        for row in range(r, len(work)):
            if work[row][col]:
                piv = row
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv_p = F.inv(work[r][col])
        work[r] = [F.mul(inv_p, x) for x in work[r]]
        for row in range(len(work)):
            if row != r and work[row][col]:
                factor = work[row][col]
                work[row] = [F.sub(x, F.mul(factor, y))
                             for x, y in zip(work[row], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def nullspace(F, rows, ncols):
    """Basis of the right kernel of the matrix with the given rows over F."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for row in range(r, len(work)):
            if work[row][col]:
                piv = row
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv_p = F.inv(work[r][col])
        work[r] = [F.mul(inv_p, x) for x in work[r]]
        for row in range(len(work)):
            if row != r and work[row][col]:
                factor = work[row][col]
                work[row] = [F.sub(x, F.mul(factor, y))
                             for x, y in zip(work[row], work[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for prow, pcol in enumerate(pivots):
            vec[pcol] = F.neg(work[prow][fc])
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



def to_rows(n, mat):
    return [list(mat[i * n:(i + 1) * n]) for i in range(n)]
