"""Element classification: characteristic polynomials, discriminants,
regular semisimplicity, centralizers, conjugacy classes, and the
non-regular-semisimple subtorus catalogue.

Polynomials are coefficient lists of encodings, low degree first.  One numpy
kernel, `charpoly_disc`, maps an (M, N, N) batch of matrices (a single one is
a batch of one) to char polys and discriminants with ring operations only:
  * `linalg._berkowitz` gives det(x Id - A) from the regular representation
    of A (`linalg._regular`), so every field product is an int64 matmul mod p;
  * disc f = (-1)^(N(N-1)/2) det Syl(f, f'), the Sylvester matrix of f and
    f' at formal degree N-1, whose determinant is -1 times the constant
    coefficient of its own Berkowitz char poly (it has odd size 2N-1).
Rows run in slabs of `linalg._BLOCK`, so memory does not grow with M.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import bfs, linalg
from .errors import InvariantViolation, TheoremViolation

# --- polynomial helpers over a FieldSpec ---

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mod(F, a, b):
    a = list(a)
    inv_lead = F.inv(b[-1])
    while len(a) >= len(b):
        c = F.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = F.sub(a[shift + i], F.mul(c, y))
        a = poly_trim(a)
        if not a:
            break
    return a


def poly_gcd(F, a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(F, a, b)
    return [F.mul(F.inv(a[-1]), x) for x in a] if a else a


def poly_deriv(F, a):
    return poly_trim([F.mul(F.from_int(i), a[i]) for i in range(1, len(a))])


# --- the char-poly and discriminant kernel ---

def charpoly_disc(F, X):
    """Char polys and discriminants of an (M, N, N) int64 batch of field
    encodings: (M, N + 1) coefficients, low degree first, and (M,) discs."""
    p, e = F.p, F.e
    M, N = X.shape[0], X.shape[1]
    n2 = 2 * N - 1
    # Sylvester rows: N - 1 shifts of f, then N shifts of f' (high degree
    # first), picked from the blocks [f (N + 1), f' (N), 0]
    pick = np.full((n2, n2), 2 * N + 1)
    for i in range(N - 1):
        pick[i, i:i + N + 1] = np.arange(N + 1)
    for i in range(N):
        pick[N - 1 + i, i:i + N] = np.arange(N + 1, 2 * N + 1)
    deriv = (np.arange(N, 0, -1) % p)[:, None, None]
    coeffs, discs = [np.zeros((0, N + 1), np.int64)], [np.zeros(0, np.int64)]
    for start in range(0, M, linalg._BLOCK):
        f = linalg._berkowitz(F, linalg._regular(F, X[start:start + linalg._BLOCK]))
        pool = np.concatenate([f, f[:, :-1] * deriv % p, np.zeros_like(f[:, :1])], 1)
        syl = pool[:, pick].swapaxes(2, 3).reshape(len(f), n2 * e, n2 * e)
        c0 = linalg._berkowitz(F, syl)[:, -1]
        coeffs.append(linalg._encode(F, f[:, ::-1]))
        discs.append(linalg._encode(F, c0 if N * (N - 1) // 2 % 2 else -c0 % p))
    return np.concatenate(coeffs), np.concatenate(discs)


def nonrs_mask(F, X):
    """Which matrices of an (M, N, N) batch are not regular semisimple."""
    return charpoly_disc(F, X)[1] == 0


def char_poly(F, N, mat):
    """Monic char poly det(x Id - mat), coefficients low degree first: the
    kernel's Berkowitz stage on a batch of one."""
    blocks = linalg._berkowitz(F, linalg._regular(F, linalg.as_array(F, N, mat)))
    return tuple(linalg._encode(F, blocks[0, ::-1]).tolist())


# monic characteristic polynomial (low degree first) with its discriminant
CharPolyData = namedtuple("CharPolyData", "coeffs disc")


def char_poly_data(F, N, mat):
    coeffs, disc = charpoly_disc(F, linalg.as_array(F, N, mat))
    return CharPolyData(tuple(coeffs[0].tolist()), int(disc[0]))


def is_regular_semisimple(F, N, mat, crosscheck=False):
    """disc != 0; optional cross-check gcd(p, p') constant (wants char > N)."""
    data = char_poly_data(F, N, mat)
    by_disc = data.disc != 0
    if crosscheck:
        g = poly_gcd(F, list(data.coeffs), poly_deriv(F, list(data.coeffs)))
        by_gcd = len(g) <= 1
        if by_disc != by_gcd:
            raise TheoremViolation("disc and gcd criteria disagree")
    return by_disc


# --- centralizers and conjugacy classes (materialized groups only) ---

def centralizer(F, N, g, universe):
    """Exact centralizer of g inside a materialized Ball universe."""
    E = universe.elements
    gm = linalg.as_array(F, N, g)
    mask = (linalg.mul(F, E, gm)[0] == linalg.lmul(F, gm, E)[0]).all(axis=(1, 2))
    return [tuple(row) for row in E[mask].reshape(-1, N * N).tolist()]


def conjugacy_class(F, N, g, gens, cap=10 ** 7):
    """Orbit of g under conjugation by the generating set, as the sorted
    array of its keys (bfs.pack)."""
    return bfs.orbit_closure(F, N, gens, g, cap=cap)


# --- the non-rs subtorus catalogue ---

class SubtorusRelation:
    """A single eigenvalue-collision relation on canonical torus coordinates."""

    def __init__(self, kind, indices):
        if kind not in ("equal", "product_one", "sum_of_squares_one", "equals_one"):
            raise ValueError("unknown relation kind {!r}".format(kind))
        self.kind = kind
        self.indices = tuple(indices)

    def __repr__(self):
        return "SubtorusRelation({}, {})".format(self.kind, self.indices)

    def __eq__(self, other):
        return (self.kind, self.indices) == (other.kind, other.indices)

    def __hash__(self):
        return hash((self.kind, self.indices))


def nonrs_subtori(spec):
    """The full collision catalogue; the i = j self-collisions are included
    (they also break regularity); total count stays <= r(r+1)."""
    n = spec.nparams
    rels = []
    if spec.family == "SL":
        for i in range(n):
            for j in range(i + 1, n):
                rels.append(SubtorusRelation("equal", (i, j)))
    elif spec.family == "Sp":
        for i in range(n):
            for j in range(i + 1, n):
                rels.append(SubtorusRelation("equal", (i, j)))
        for i in range(n):
            for j in range(i, n):
                rels.append(SubtorusRelation("product_one", (i, j)))
    else:
        for i in range(n):
            for j in range(i + 1, n):
                rels.append(SubtorusRelation("equal", (i, j)))
                rels.append(SubtorusRelation("sum_of_squares_one", (i, j)))
        for i in range(n):
            rels.append(SubtorusRelation("product_one", (i, i)))
        if spec.family == "SOodd":
            for i in range(n):
                rels.append(SubtorusRelation("equals_one", (i,)))
    if len(rels) > spec.r * (spec.r + 1):
        raise InvariantViolation("more than r(r+1) subtorus relations")
    return rels


def _torus_coords(spec, F, mat):
    """Recover the canonical coordinates from a torus point matrix.

    SL/Sp: the diagonal eigenvalue entries x_i.  SO: the rotation-block pairs
    (c_i, s_i) with c^2 + s^2 = 1 (eigenvalues c +- i s over the closure).
    """
    N = spec.N
    n = spec.nparams
    if spec.family in ("SL", "Sp"):
        return [mat[i * N + i] for i in range(N if spec.family == "SL" else n)]
    return [(mat[(2 * i) * N + (2 * i)], mat[(2 * i) * N + (2 * i + 1)])
            for i in range(n)]


def relation_holds(spec, F, mat, rel):
    coords = _torus_coords(spec, F, mat)
    if spec.family in ("SL", "Sp"):
        if rel.kind == "equal":
            i, j = rel.indices
            return coords[i] == coords[j]
        if rel.kind == "product_one":
            i, j = rel.indices
            return F.mul(coords[i], coords[j]) == 1
        raise ValueError("relation {} not applicable to {}".format(rel, spec.family))
    # SO families: coordinates are (c, s) per block
    if rel.kind == "equal":
        i, j = rel.indices
        return coords[i][0] == coords[j][0]
    if rel.kind == "sum_of_squares_one":
        # cross collision x_i = x_j^{-1}: same c, opposite s (subsumed by the
        # shared-c test; kept as the catalogue's named relation)
        i, j = rel.indices
        return coords[i][0] == coords[j][0] and coords[i][1] == F.neg(coords[j][1])
    if rel.kind == "product_one":
        i, _ = rel.indices
        return coords[i][1] == 0
    if rel.kind == "equals_one":
        (i,) = rel.indices
        return coords[i] == (1, 0)
    raise ValueError("relation {} not applicable".format(rel))


def count_nonrs_in_torus(spec, F, t_elements):
    """Exact count of non-regular-semisimple torus points, by the disc test."""
    return int(nonrs_mask(F, linalg.as_array(F, spec.N, t_elements)).sum())


def count_nonrs_by_catalogue(spec, F, t_elements):
    """The same count via the union of the relation catalogue (cross-check)."""
    rels = nonrs_subtori(spec)
    return sum(1 for m in t_elements
               if any(relation_holds(spec, F, m, rel) for rel in rels))


def nonrs_count_in_group(F, N, universe):
    """Non-rs element count over a full materialized Ball."""
    return int(nonrs_mask(F, universe.elements).sum())


def classification_record(F, N, mat):
    """One JSON-ready record per element."""
    data = char_poly_data(F, N, mat)
    return {
        "matrix": linalg.mat_ser(F, N, mat),
        "charpoly": [F.ser(c) for c in data.coeffs],
        "disc": F.ser(data.disc),
        "regular_semisimple": data.disc != 0,
    }
