"""Exact dense linear algebra over a FieldSpec.

Matrices are flat row-major tuples of field-element encodings; the pair
(n, mat) with len(mat) == n*n travels together.  Flat tuples double as hash
keys for BFS tables and as the serialization backbone.

All row reduction goes through one incremental step, `echelon_add`: `det`
multiplies the pivot values it returns, `inv` and `nullspace` read the
reduced echelon form that two passes of it give, and the torus rank
certificates and the LGV path determinant call it directly or through `det`.
"""

from __future__ import annotations

from .errors import ShapeMismatch


def identity(n):
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


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
    """Matrix inverse from the reduced echelon form of [a | I]; raises
    ZeroDivisionError if a is singular."""
    reduced = _rref(F, [list(a[i * n:(i + 1) * n]) + [0] * i + [1] + [0] * (n - 1 - i)
                        for i in range(n)])
    if reduced[-1][0] >= n:  # a pivot in the I half: the rows of a are dependent
        raise ZeroDivisionError("matrix is singular")
    return tuple(x for _, row in reduced for x in row[n:])


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
