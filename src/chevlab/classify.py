"""Element classification: characteristic polynomials, discriminants,
regular semisimplicity, centralizers, conjugacy classes, and the
non-regular-semisimple subtorus catalogue.

Polynomials over a field are coefficient lists of encodings, low degree
first.  The characteristic polynomial is computed exactly by Hessenberg
reduction (similarity transforms + the standard recurrence), which only ever
divides by nonzero pivots and so works over any field.  Discriminants come
from resultants, which Euclid's algorithm computes on top of `poly_mod`.
"""

from __future__ import annotations

from . import bfs, linalg
from .errors import (
    GroupTooLarge,
    InvariantViolation,
    TheoremViolation,
    TorusTooLarge,
)
from .gf import factor_prime_power


# --- polynomial helpers over a FieldSpec ---

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


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
    if a:
        a = poly_scale(F, F.inv(a[-1]), a)
    return a


def poly_deriv(F, a):
    return poly_trim([F.mul(F.from_int(i), a[i]) for i in range(1, len(a))])


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


# --- characteristic polynomial ---

def char_poly(F, N, mat):
    """Monic char poly det(x Id - mat), coefficients low degree first."""
    H = linalg.to_rows(N, mat)
    # similarity reduction to upper Hessenberg form
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
        # (x - H[m-1][m-1]) * p_{m-1}
        prev = polys[m - 1]
        term = poly_sub(F, poly_mul(F, [0, 1], prev),
                        poly_scale(F, H[m - 1][m - 1], prev))
        # subtract H[i-1][m-1] * (prod of subdiagonals H[k+1][k], k=i-1..m-2) * p_{i-1}
        sub_prod = 1
        for i in range(m - 1, 0, -1):
            sub_prod = F.mul(sub_prod, H[i][i - 1])
            coeff = F.mul(H[i - 1][m - 1], sub_prod)
            if coeff:
                term = poly_sub(F, term, poly_scale(F, coeff, polys[i - 1]))
        polys.append(term)
    out = polys[N]
    out = out + [0] * (N + 1 - len(out))
    return tuple(out)


class CharPolyData:
    """Monic characteristic polynomial with its discriminant."""

    def __init__(self, F, coeffs):
        self.F = F
        self.coeffs = tuple(coeffs)
        self.disc = poly_disc(F, list(coeffs))

    def __repr__(self):
        return "CharPolyData(coeffs={}, disc={})".format(self.coeffs, self.disc)


def char_poly_data(F, N, mat):
    return CharPolyData(F, char_poly(F, N, mat))


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
    gm = bfs.as_array(F, N, g)
    mask = (bfs.mul(F, E, gm)[0] == bfs.lmul(F, gm[0], E)).all(axis=(1, 2))
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


def count_nonrs_in_torus(spec, F, t_elements, cap=10 ** 6):
    """Exact count of non-regular-semisimple torus points, by the disc test."""
    if len(t_elements) > cap:
        raise TorusTooLarge("torus has {} points, cap {}".format(
            len(t_elements), cap))
    N = spec.N
    return sum(1 for m in t_elements if not is_regular_semisimple(F, N, m))


def count_nonrs_by_catalogue(spec, F, t_elements):
    """The same count via the union of the relation catalogue (cross-check)."""
    rels = nonrs_subtori(spec)
    return sum(1 for m in t_elements
               if any(relation_holds(spec, F, m, rel) for rel in rels))


def nonrs_count_in_group(F, N, universe):
    """Non-rs element count over a full materialized Ball."""
    return sum(1 for m in universe.mats()
               if not is_regular_semisimple(F, N, m))


def classification_record(F, N, mat):
    """One JSON-ready record per element."""
    data = char_poly_data(F, N, mat)
    return {
        "matrix": linalg.mat_ser(F, N, mat),
        "charpoly": [F.ser(c) for c in data.coeffs],
        "disc": F.ser(data.disc),
        "regular_semisimple": data.disc != 0,
    }
