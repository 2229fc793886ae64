"""Escape from subvarieties: BFS search for group elements moving a point (or
themselves) off a variety, certified against the paper-style step bounds, plus
the tensor-power linearization route.
"""

from __future__ import annotations

import math

from . import bfs, classify, linalg
from .errors import (
    NoEscapeWithinBall,
    NotHomogenizable,
    ShapeMismatch,
)
from .logscaled import LogScaled
from .varieties import Poly, VarietySpec

ACTIONS = ("left_multiplication", "conjugation")


def escape_bound(d, D):
    """sum_{d'=0}^{d} D^(d-d'+1) with its closed-form relaxations."""
    if D < 1 or d < 0:
        raise ValueError("need D >= 1 and d >= 0")
    exact = sum(D ** (d - dp + 1) for dp in range(d + 1))
    if D == 1:
        closed = float(d + 1)
    else:
        closed = (1.0 + 1.0 / (D - 1)) * float(D) ** (d + 1)
    return {
        "exact": exact,
        "closed_form": closed,
        "logscaled": LogScaled.from_exact(exact),
    }


class EscapeInstance:
    """Generators + variety + point + action; generators must be symmetric
    and contain the identity."""

    def __init__(self, F, N, generators, variety, point, action):
        if action not in ACTIONS:
            raise ValueError("unknown action {!r}".format(action))
        gens = [tuple(g) for g in generators]
        ident = linalg.identity(N)
        if ident not in gens:
            raise ValueError("generator set must contain the identity")
        genset = set(gens)
        for g in gens:
            if linalg.inv(F, N, g) not in genset:
                raise ValueError("generator set must be symmetric")
        point = tuple(point)
        if len(point) != variety.ambient:
            raise ShapeMismatch("point length != variety ambient")
        if action == "conjugation" and len(point) != N * N:
            raise ShapeMismatch("conjugation acts on flattened matrices")
        self.F = F
        self.N = N
        self.generators = gens
        self.variety = variety
        self.point = point
        self.action = action

    def act(self, g):
        """Apply the group element to the instance's point."""
        F, N = self.F, self.N
        m = len(self.point)
        if self.action == "conjugation" or m == N * N:
            X = self.point
            gX = linalg.mat_mul(F, N, g, X)
            if self.action == "conjugation":
                return linalg.mat_mul(F, N, gX, linalg.inv(F, N, g))
            return gX
        if m != N:
            raise ShapeMismatch("left multiplication needs a length-N vector "
                                "or a flattened matrix")
        out = []
        for i in range(N):
            acc = 0
            for j in range(N):
                acc = F.add(acc, F.mul(g[i * N + j], self.point[j]))
            out.append(acc)
        return tuple(out)


class EscapeCertificate:
    def __init__(self, witness, k_found, bound, verified_noncontainment):
        self.witness = witness
        self.k_found = k_found
        self.bound = bound
        self.verified_noncontainment = verified_noncontainment

    def __repr__(self):
        return "EscapeCertificate(k={}, bound={})".format(self.k_found, self.bound)


def _ball_by_depth(F, N, gens, cap):
    ball = bfs.closure(F, N, gens, cap=cap)
    by_depth = {t: [tuple(m) for m in ball.layer(t).reshape(-1, N * N).tolist()]
                for t in range(len(ball.offsets) - 1)}
    return ball, by_depth


def verify_orbit_noncontainment(inst, cap=10 ** 6, ball=None):
    """Exhaustively check that the orbit of the point leaves the variety.
    `ball`, when given, is the closure of the generators already built."""
    if ball is None:
        ball = bfs.closure(inst.F, inst.N, inst.generators, cap=cap)
    if ball.saturated_at is None:
        return False  # closure truncated; cannot verify
    for g in ball.mats():
        if not inst.variety.contains(inst.act(g)):
            return True
    return False


def escape_point(inst, cap=10 ** 6, verify_orbit=True):
    """Shortest witness g in A^k with g.point off the variety, ties broken by
    serialized-matrix lexicographic order."""
    F, N = inst.F, inst.N
    ball, by_depth = _ball_by_depth(F, N, inst.generators, cap)
    bound = escape_bound(inst.variety.declared_dim, inst.variety.declared_deg)
    verified = verify_orbit_noncontainment(inst, ball=ball) if verify_orbit else None
    for k in sorted(by_depth):
        escapers = [g for g in by_depth[k]
                    if not inst.variety.contains(inst.act(g))]
        if escapers:
            witness = min(escapers, key=lambda g: linalg.mat_ser(F, N, g))
            cert = EscapeCertificate(witness, k, bound["logscaled"], verified)
            if verified:
                assert k <= bound["exact"], "escape bound violated"
            return cert
    if ball.saturated_at is not None:
        raise NoEscapeWithinBall("the whole orbit lies inside the variety")
    raise NoEscapeWithinBall("ball truncated before escape (cap reached)")


# --- linearization (tensor-power) route ---

def iota(F, N, mat):
    """iota(M) = ((1, 0), (0, M)) as a flat (N+1)x(N+1) matrix."""
    Np = N + 1
    out = [0] * (Np * Np)
    out[0] = 1
    for i in range(N):
        for j in range(N):
            out[(i + 1) * Np + (j + 1)] = mat[i * N + j]
    return tuple(out)


def rho_iota(F, N, D, mat):
    """The D-fold tensor power of iota(M), flat over Mat_{(N+1)^D}."""
    Np = N + 1
    base = iota(F, N, mat)
    Nt = Np ** D
    out = [0] * (Nt * Nt)
    # entry at (i_1..i_D),(j_1..j_D) = prod base[i_t][j_t]
    for I in range(Nt):
        idig = _digits(I, Np, D)
        row = []
        for J in range(Nt):
            jdig = _digits(J, Np, D)
            val = 1
            for it, jt in zip(idig, jdig):
                val = F.mul(val, base[it * Np + jt])
                if val == 0:
                    break
            row.append(val)
        out[I * Nt:(I + 1) * Nt] = row
    return tuple(out)


def _digits(x, base, width):
    out = []
    for _ in range(width):
        out.append(x % base)
        x //= base
    out.reverse()
    return out


def _pack(digits, base):
    x = 0
    for d in digits:
        x = x * base + d
    return x


def linearize(F, N, D, P):
    """Turn a degree <= D polynomial over Mat_N entries into a linear one over
    Mat_{N'} entries, N' = (N+1)^D, via homogenization by the pad coordinate
    g_00 and the tensor coordinate substitution.

    Returns (N', P_linear); elements map through rho_iota(F, N, D, .).
    """
    if P.nvars != N * N:
        raise ShapeMismatch("polynomial must be over the N^2 matrix entries")
    Np = N + 1
    Nt = Np ** D
    terms = {}
    for exps, coeff in P.terms.items():
        deg = sum(exps)
        if deg > D:
            raise NotHomogenizable(
                "monomial degree {} exceeds D = {}".format(deg, D))
        # factor list over padded indices; g_00 fills up to degree D
        factors = [(0, 0)] * (D - deg)
        for idx, e in enumerate(exps):
            i, j = divmod(idx, N)
            factors.extend([(i + 1, j + 1)] * e)
        factors.sort()
        I = _pack([f[0] for f in factors], Np)
        J = _pack([f[1] for f in factors], Np)
        var = I * Nt + J
        key = tuple(1 if v == var else 0 for v in range(Nt * Nt))
        # sparse-safe accumulation: linear variable exponent vector
        terms[key] = F.add(terms.get(key, 0), coeff)
    P_lin = Poly(F, Nt * Nt, terms)
    return Nt, P_lin


def shitov_escape(inst, via_linearize=False, cap=10 ** 6):
    """Element-escape: find g in A^k with P(g) != 0 for some defining P;
    k is certified below 11 D (N+1)^D ln N (natural log convention)."""
    F, N = inst.F, inst.N
    V = inst.variety
    if V.ambient != N * N:
        raise ShapeMismatch("element escape needs a variety over matrix entries")
    D = max(max(P.total_degree for P in V.polys), 1)
    ball, by_depth = _ball_by_depth(F, N, inst.generators, cap)
    if via_linearize:
        lins = [linearize(F, N, D, P) for P in V.polys]

        def escapes(g):
            gt = rho_iota(F, N, D, g)
            return any(P_lin.evaluate(gt) != 0 for _, P_lin in lins)
    else:
        def escapes(g):
            return any(P.evaluate(g) != 0 for P in V.polys)

    bound_ln = math.log(11 * D) + D * math.log(N + 1) + math.log(math.log(N))
    bound = LogScaled.from_ln(bound_ln)
    for k in sorted(by_depth):
        hits = [g for g in by_depth[k] if escapes(g)]
        if hits:
            witness = min(hits, key=lambda g: linalg.mat_ser(F, N, g))
            assert float(k) < 11 * D * (N + 1) ** D * math.log(N), \
                "Shitov bound violated"
            return EscapeCertificate(witness, k, bound, None)
    raise NoEscapeWithinBall("generated subgroup lies inside the variety")


def shitov_intermediate_envelope(Nt):
    """The proof's intermediate step budget 2 N' log2(N') + 4 N'."""
    return 2 * Nt * math.log2(Nt) + 4 * Nt


def find_regular_semisimple(F, spec, generators, cap=10 ** 6):
    """Shortest g in A^k with nonzero char-poly discriminant; k is certified
    below (2r)^(4r^2+3r) in log space."""
    N = spec.N
    ball, by_depth = _ball_by_depth(F, N, generators, cap)
    r = spec.r
    bound = LogScaled.power(2 * r, 4 * r * r + 3 * r)
    for k in sorted(by_depth):
        hits = [g for g in by_depth[k]
                if classify.is_regular_semisimple(F, N, g)]
        if hits:
            witness = min(hits, key=lambda g: linalg.mat_ser(F, N, g))
            assert LogScaled.from_exact(max(k, 1)).cmp(bound) <= 0
            return EscapeCertificate(witness, k, bound, None)
    raise NoEscapeWithinBall(
        "no regular semisimple element in the generated subgroup")
