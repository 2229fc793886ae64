"""Classical matrix group families: parameters, membership, orders, Lie
algebras, canonical tori, Weyl data, the Cayley map, and hypothesis gates.

Families: SL_n (n >= 2), SO_N for N in {2n, 2n+1} with N >= 7, Sp_2n (n >= 2).
SO membership uses the untwisted form x^T x = Id; Sp uses x^T O x = O with
O = ((0, Id), (-Id, 0)).  Characteristic 2 is out of scope throughout.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import bfs, linalg
from .errors import (
    BadCharacteristic,
    BadEta,
    FamilyNotSupported,
    InadmissibleFamilyParameter,
    InvariantViolation,
    ShapeMismatch,
    SingularShift,
    TheoremViolation,
    TorusTooLarge,
)
from .gf import factor_prime_power
from .logscaled import LogScaled

FAMILIES = ("SL", "SOeven", "SOodd", "Sp")


class GroupSpec:
    """Family + parameter n with every derived quantity of the family table."""

    def __init__(self, family, n):
        if family == "SL":
            if n < 2:
                raise InadmissibleFamilyParameter("SL_n needs n >= 2")
            self.r = n - 1
            self.N = n
            self.dim = self.r * self.r + 2 * self.r
            self.ell = self.r + 2
            self.deg_bound = LogScaled.from_exact(n)
            self.nparams = n  # torus coordinates a_1..a_n with sum 0
        elif family == "SOeven":
            if n < 4:
                raise InadmissibleFamilyParameter("SO_N even needs N = 2n >= 8 (N >= 7)")
            self.r = n
            self.N = 2 * n
            self.dim = 2 * n * n - n
            self.ell = 2 * n - 1
            self.deg_bound = LogScaled.power(2, 2 * n * n - 1)
            self.nparams = n
        elif family == "SOodd":
            if n < 3:
                raise InadmissibleFamilyParameter("SO_N odd needs N = 2n+1 >= 7")
            self.r = n
            self.N = 2 * n + 1
            self.dim = 2 * n * n + n
            self.ell = 2 * n + 1
            self.deg_bound = LogScaled.power(2, 2 * n * n + 2 * n)
            self.nparams = n
        elif family == "Sp":
            if n < 2:
                raise InadmissibleFamilyParameter("Sp_2n needs n >= 2")
            self.r = n
            self.N = 2 * n
            self.dim = 2 * n * n + n
            self.ell = 2 * n + 1
            self.deg_bound = LogScaled.power(2, 2 * n * n)
            self.nparams = n
        else:
            raise InadmissibleFamilyParameter("unknown family {!r}".format(family))
        self.family = family
        self.n = n
        if self.dim != self.ell * self.r:
            raise InvariantViolation("dim G != ell * r")

    def __eq__(self, other):
        return (isinstance(other, GroupSpec)
                and (self.family, self.n) == (other.family, other.n))

    def __hash__(self):
        return hash((self.family, self.n))

    def __repr__(self):
        return "GroupSpec({}, n={})".format(self.family, self.n)

    def ser(self, q):
        return "{}:{}:{}".format(self.family, self.n, q)


def omega(n):
    """The standard symplectic form ((0, Id_n), (-Id_n, 0)) as a flat tuple.

    Entries are +1 / -1 markers; reduce mod the field before exact use.
    """
    N = 2 * n
    out = [0] * (N * N)
    for i in range(n):
        out[i * N + (n + i)] = 1
        out[(n + i) * N + i] = -1
    return tuple(out)


def omega_enc(F, n):
    return tuple(F.from_int(x) for x in omega(n))


def members(F, mats, spec):
    """Exact check of the family's defining equations for each flat matrix
    in `mats`, as a bool array, on the whole list at once: det = (-1)^N c_0
    from the Berkowitz char poly, and x^T x = Id or x^T O x = O for SO and Sp."""
    N = spec.N
    if any(len(m) != N * N for m in mats):
        raise ShapeMismatch("expected a flat {0}x{0} matrix".format(N))
    X = linalg.as_array(F, N, mats)
    if spec.family != "Sp":
        c0 = linalg._berkowitz(F, linalg._regular(F, X))[:, N]
        ok = linalg._encode(F, c0 if N % 2 == 0 else -c0 % F.p) == 1
        if spec.family == "SL":
            return ok
        form = linalg.as_array(F, N, linalg.identity(N))[0]
    else:
        ok = np.ones(len(mats), dtype=bool)
        form = linalg.as_array(F, N, omega_enc(F, spec.n))[0]
    lhs = linalg.matmul(F, linalg.matmul(F, np.swapaxes(X, -1, -2), form), X)
    return ok & (lhs == form).all(axis=(-1, -2))


def is_member(F, mat, spec):
    """Exact check of the family's defining equations."""
    return bool(members(F, [mat], spec)[0])


def lie_is_member(F, mat, spec):
    """Exact check of the Lie-algebra linear conditions."""
    N = spec.N
    if len(mat) != N * N:
        raise ShapeMismatch("expected a flat {0}x{0} matrix".format(N))
    if spec.family == "SL":
        return linalg.trace(F, N, mat) == 0
    if spec.family in ("SOeven", "SOodd"):
        return linalg.transpose(N, mat) == linalg.mat_neg(F, mat)
    # sp: blocks ((A, B), (C, -A^T)) with B, C symmetric
    n = spec.n
    for i in range(n):
        for j in range(n):
            if mat[(n + i) * N + (n + j)] != F.neg(mat[j * N + i]):
                return False
            if mat[i * N + (n + j)] != mat[j * N + (n + i)]:
                return False
            if mat[(n + i) * N + j] != mat[(n + j) * N + i]:
                return False
    return True


class GroupElement:
    """A certified member of G(F_q)."""

    __slots__ = ("spec", "F", "mat")

    def __init__(self, spec, F, mat, check=True):
        if check and not is_member(F, mat, spec):
            raise ValueError("matrix fails the defining equations of {}".format(spec))
        self.spec = spec
        self.F = F
        self.mat = tuple(mat)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.mat == other.mat \
            and self.F == other.F and self.spec == other.spec

    def __hash__(self):
        return hash(self.mat)

    def ser(self):
        return linalg.mat_ser(self.F, self.spec.N, self.mat)


class LieElement:
    """A certified member of the Lie algebra g(F_q)."""

    __slots__ = ("spec", "F", "mat")

    def __init__(self, spec, F, mat, check=True):
        if check and not lie_is_member(F, mat, spec):
            raise ValueError("matrix fails the Lie-algebra conditions of {}".format(spec))
        self.spec = spec
        self.F = F
        self.mat = tuple(mat)

    def ser(self):
        return linalg.mat_ser(self.F, self.spec.N, self.mat)


def _require_odd_char(q):
    p, e = factor_prime_power(q)
    if p == 2:
        raise BadCharacteristic("characteristic 2 is out of scope")
    return p, e


def group_order(spec, q):
    """Exact |G(F_q)| from the product formulas (char > 2)."""
    _require_odd_char(q)
    r = spec.r
    if spec.family == "SL":
        prod = 1
        for i in range(r + 1):
            prod *= q ** (r + 1) - q ** i
        if prod % (q - 1):
            raise InvariantViolation("|GL| is not divisible by q - 1")
        return prod // (q - 1)
    if spec.family == "SOeven":
        prod = q ** (r * (r - 1)) * (q ** r - 1)
        for i in range(1, r):
            prod *= q ** (2 * i) - 1
        return prod
    # SOodd and Sp share the order formula
    prod = q ** (r * r)
    for i in range(1, r + 1):
        prod *= q ** (2 * i) - 1
    return prod


def cayley_map(spec, F, mat):
    """lambda(x) = (Id - x)(Id + x)^{-1}; an involution, used for G != SL.
    The two factors commute, so this is (Id + x)^{-1}(Id - x)."""
    if spec.family == "SL":
        raise FamilyNotSupported("the Cayley map is applied only for G != SL_n")
    N = spec.N
    ident = linalg.identity(N)
    try:
        shift = linalg.inv(F, N, linalg.mat_add(F, ident, mat))
    except ZeroDivisionError:
        raise SingularShift("det(Id + x) = 0") from None
    return linalg.mat_mul(F, N, shift, linalg.mat_sub(F, ident, mat))


class TorusSpec:
    """The canonical (non-)maximal torus: eta = () for maximal, else the
    integer character vector cutting sum(eta_i a_i) = 0 with eta_n != 0."""

    def __init__(self, spec, eta=()):
        eta = tuple(int(x) for x in eta)
        if eta:
            if len(eta) != spec.nparams:
                raise BadEta("eta must have {} entries".format(spec.nparams))
            if eta[-1] == 0:
                raise BadEta("eta_n must be nonzero")
        self.spec = spec
        self.eta = eta

    @property
    def is_maximal(self):
        return not self.eta

    def __repr__(self):
        return "TorusSpec({}, eta={})".format(self.spec, list(self.eta))


def torus_param_to_matrix(spec, F, avec):
    """Embed a parameter vector (a_1..a_n encodings) as the torus Lie matrix."""
    N = spec.N
    n = spec.nparams
    out = [0] * (N * N)
    if spec.family == "SL":
        for i in range(n):
            out[i * N + i] = avec[i]
    elif spec.family in ("SOeven", "SOodd"):
        for i in range(n):
            out[(2 * i) * N + (2 * i + 1)] = avec[i]
            out[(2 * i + 1) * N + (2 * i)] = F.neg(avec[i])
    else:  # Sp
        for i in range(n):
            out[i * N + i] = avec[i]
            out[(n + i) * N + (n + i)] = F.neg(avec[i])
    return tuple(out)


def canonical_torus_lie_basis(t, F):
    """Basis of the canonical torus Lie algebra over F (list of LieElements)."""
    spec = t.spec
    n = spec.nparams
    constraints = []
    if spec.family == "SL":
        constraints.append([1] * n)
    if not t.is_maximal:
        constraints.append([F.from_int(x) for x in t.eta])
        if all(c == 0 for c in constraints[-1]):
            raise BadEta("eta vanishes mod the characteristic")
    if constraints:
        params = linalg.nullspace(F, constraints, n)
    else:
        params = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    expected = spec.r if t.is_maximal else spec.r - 1
    if len(params) != expected:
        raise BadEta("degenerate eta: torus dimension {} != {}".format(
            len(params), expected))
    return [LieElement(spec, F, torus_param_to_matrix(spec, F, a)) for a in params]


def weyl_order(spec):
    r = spec.r
    if spec.family == "SL":
        return math.factorial(r + 1)
    if spec.family == "SOeven":
        return 2 ** (r - 1) * math.factorial(r)
    return 2 ** r * math.factorial(r)


def torus_conjugate_count_bound(spec, q):
    """Lower bound ceil((q-1)^(dim-r) / (r! 2^r)) on the number of maximal
    torus conjugates (r! 2^r always dominates the Weyl order)."""
    _require_odd_char(q)
    r = spec.r
    num = (q - 1) ** (spec.dim - r)
    den = math.factorial(r) * 2 ** r
    return -(-num // den)


def exact_torus_conjugate_count(spec, F, universe):
    """|G| / |N(T)| for the canonical maximal torus T, by scanning a
    materialized universe (a Ball); verify criterion 1.  g normalizes T
    exactly when gT = Tg, which holds when the sorted keys of the two agree."""
    N = spec.N
    torus = linalg.as_array(F, N, torus_points(spec, F))
    E = universe.elements
    keys = [np.sort(bfs.pack(F, N, X.reshape(-1, N, N)).reshape(len(torus), -1), axis=0)
            for X in (linalg.mul(F, E, torus), linalg.lmul(F, torus, E))]
    count = int((keys[0] == keys[1]).all(axis=0).sum())
    if len(universe) % count:
        raise TheoremViolation("|N(T)| does not divide |G| (Lagrange)")
    return len(universe) // count


def torus_points(spec, F, eta=(), cap=10 ** 7):
    """Enumerate the F-points of the canonical torus (as flat matrices).

    eta, when nonempty, imposes the multiplicative cut prod x_i^eta_i = 1;
    supported for the diagonal families (SL, Sp) only.
    """
    eta = TorusSpec(spec, eta).eta  # checks its length and eta_n != 0
    n = spec.nparams
    N = spec.N
    if spec.family in ("SL", "Sp"):
        free = n - 1 if spec.family == "SL" else n
        if (F.q - 1) ** free > cap:
            raise TorusTooLarge("torus enumeration exceeds the cap")
        out = []
        for xs in itertools.product(range(1, F.q), repeat=free):
            if spec.family == "SL":
                prod = 1
                for u in xs:
                    prod = F.mul(prod, u)
                xs += (F.inv(prod),)
                diag = xs
            else:
                diag = xs + tuple(F.inv(x) for x in xs)
            if eta:
                val = 1
                for x, h in zip(xs, eta):
                    val = F.mul(val, F.pow(x, h % (F.q - 1)))
                if val != 1:
                    continue
            mat = [0] * (N * N)
            for i, x in enumerate(diag):
                mat[i * N + i] = x
            out.append(tuple(mat))
        return out
    if eta:
        raise FamilyNotSupported(
            "multiplicative eta-cut tori are only enumerated for SL/Sp")
    # SO: products of rotation blocks ((c, s), (-s, c)) with c^2 + s^2 = 1
    circle = so_circle_points(F)
    if len(circle) ** n > cap:
        raise TorusTooLarge("torus enumeration exceeds the cap")
    out = []
    for tup in itertools.product(circle, repeat=n):
        mat = [0] * (N * N)
        for i, (c, s) in enumerate(tup):
            mat[(2 * i) * N + (2 * i)] = c
            mat[(2 * i) * N + (2 * i + 1)] = s
            mat[(2 * i + 1) * N + (2 * i)] = F.neg(s)
            mat[(2 * i + 1) * N + (2 * i + 1)] = c
        if spec.family == "SOodd":
            mat[(N - 1) * N + (N - 1)] = 1
        out.append(tuple(mat))
    return out


def so_circle_points(F):
    """All (c, s) with c^2 + s^2 = 1; count is q - chi(-1), not always q - 1."""
    out = []
    for c in range(F.q):
        c2 = F.mul(c, c)
        for s in range(F.q):
            if F.add(c2, F.mul(s, s)) == 1:
                out.append((c, s))
    return out


def hypotheses_ok(spec, q, theorem):
    """Pass/fail per hypothesis of the named theorem, with binding thresholds."""
    p, e = factor_prime_power(q)
    r = spec.r
    checks = []
    if theorem in ("main", "torus"):
        checks.append({
            "name": "char_gt_N", "value": p, "threshold": spec.N + 1,
            "pass": p > spec.N,
        })
        thr = LogScaled.power(2 * r, 6 * r)  # e^{6r log 2r}
        ok = thr.exact is not None and q >= thr.exact
        checks.append({
            "name": "q_ge_exp_6r_log_2r", "value": q,
            "threshold": str(thr.exact), "pass": ok,
        })
        if theorem == "torus":
            checks.append({
                "name": "char_not_dividing_2N", "value": p,
                "threshold": 2 * spec.N, "pass": (2 * spec.N) % p != 0,
            })
    elif theorem == "escape_point":
        thr = 20 * r ** 3
        checks.append({
            "name": "q_ge_20r3", "value": q, "threshold": thr, "pass": q >= thr,
        })
    else:
        raise ValueError("unknown theorem {!r}".format(theorem))
    return {
        "theorem": theorem,
        "group": spec.ser(q),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


# --- generators and random elements ---

def _transvection(N, i, j, c):
    """The identity plus the field encoding c at (i, j)."""
    mat = list(linalg.identity(N))
    mat[i * N + j] = c
    return tuple(mat)


def _basis_params(F):
    """Transvection parameters +-x^k for the F_p-basis 1, x, ..., x^(e-1) of
    F_q; over a prime field just +-1."""
    out = []
    for k in range(F.e):
        out += [F.p ** k, F.neg(F.p ** k)]
    return out


def standard_generators(spec, F):
    """A small symmetric generating set with identity, as flat matrices:
    transvections with the parameters +-x^k of _basis_params, so that it
    generates G(F_q) and not only G(F_p)."""
    N = spec.N
    params = _basis_params(F)
    if spec.family == "SL":
        gens = [linalg.identity(N)]
        for i in range(N - 1):
            for (a, b) in ((i, i + 1), (i + 1, i)):
                for c in params:
                    gens.append(_transvection(N, a, b, c))
        return _dedup(gens)
    if spec.family == "Sp":
        # symplectic transvections x -> x + c <x, v> v over a spanning set of
        # 0/1 vectors v: each e_i, then each e_i + e_j with i < j
        om = omega_enc(F, spec.n)
        gens = [linalg.identity(N)]
        for support in [(i,) for i in range(N)] + list(itertools.combinations(range(N), 2)):
            ov = [0] * N  # (v^T O)_j
            for k in support:
                ov = [F.add(x, om[k * N + j]) for j, x in enumerate(ov)]
            for ce in params:
                mat = list(linalg.identity(N))
                for irow in support:
                    for jcol in range(N):
                        mat[irow * N + jcol] = F.add(mat[irow * N + jcol], F.mul(ce, ov[jcol]))
                gens.append(tuple(mat))
        return _dedup(gens)
    raise FamilyNotSupported("no standard generators shipped for {}".format(spec.family))


def _dedup(mats):
    seen = set()
    out = []
    for m in mats:
        if m not in seen:
            seen.add(m)
            out.append(m)
    return out


def random_lie_block(spec, F, rng, m):
    """A uniformly random element of so_m (SO) or sp_2m (Sp) as a flat N x N
    matrix: the so block on the leading m coordinates, the sp blocks on
    coordinates 0..m-1 and n..n+m-1, zero elsewhere."""
    N, n = spec.N, spec.n
    mat = [0] * (N * N)
    if spec.family in ("SOeven", "SOodd"):
        for i in range(m):
            for j in range(i + 1, m):
                c = rng.randrange(F.q)
                mat[i * N + j] = c
                mat[j * N + i] = F.neg(c)
        return tuple(mat)
    for i in range(m):
        for j in range(m):
            a = rng.randrange(F.q)
            mat[i * N + j] = a
            mat[(n + j) * N + (n + i)] = F.neg(a)
    for i in range(m):
        for j in range(i, m):
            b = rng.randrange(F.q)
            mat[i * N + (n + j)] = b
            mat[j * N + (n + i)] = b
            c = rng.randrange(F.q)
            mat[(n + i) * N + j] = c
            mat[(n + j) * N + i] = c
    return tuple(mat)


def random_lie_element(spec, F, rng):
    """A uniformly random element of g(F_q) (flat matrix)."""
    N = spec.N
    if spec.family == "SL":
        mat = [rng.randrange(F.q) for _ in range(N * N)]
        # fix the last diagonal entry to zero the trace
        t = 0
        for i in range(N - 1):
            t = F.add(t, mat[i * N + i])
        mat[(N - 1) * N + (N - 1)] = F.neg(t)
        return tuple(mat)
    return random_lie_block(spec, F, rng, N if spec.family != "Sp" else spec.n)


def random_group_element(spec, F, rng):
    """A random certified element: SL via random transvection words, the other
    families via the Cayley map on random Lie elements."""
    N = spec.N
    if spec.family == "SL":
        mat = list(linalg.identity(N))
        for _ in range(3 * N):
            i = rng.randrange(N)
            j = rng.randrange(N - 1)
            if j >= i:
                j += 1
            c = rng.randrange(1, F.q)
            # right multiplication by Id + c E_ij adds c * column i to column j
            for k in range(0, N * N, N):
                mat[k + j] = F.add(mat[k + j], F.mul(c, mat[k + i]))
        return tuple(mat)
    while True:
        try:
            return cayley_map(spec, F, random_lie_element(spec, F, rng))
        except SingularShift:
            pass
