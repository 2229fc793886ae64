"""Escape from subvarieties: BFS search for group elements moving a point (or
themselves) off a variety, certified against the paper-style step bounds, plus
the tensor-power linearization route.
"""

from __future__ import annotations

import math

import numpy as np

from . import bfs, classify, linalg
from .errors import (
    NoEscapeWithinBall,
    NotHomogenizable,
    ShapeMismatch,
    TheoremViolation,
)
from .logscaled import LogScaled
from .varieties import Poly

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
        if fault := bfs.symmetry_fault(F, N, gens):
            raise ValueError("generator set " + fault)
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

    def act(self, G):
        """The (M, m) array of the instance's point moved by each matrix of
        the (M, N, N) array G of encodings."""
        F, N = self.F, self.N
        m = len(self.point)
        if self.action == "conjugation" or m == N * N:
            out = linalg.lmul(F, G, linalg.as_array(F, N, self.point))[:, 0]
            if self.action == "conjugation":
                out = linalg.matmul(F, out, linalg.invert(F, G))
        elif m == N:
            out = linalg.lmul(F, G, np.array(self.point, dtype=np.int64)[:, None])
        else:
            raise ShapeMismatch("left multiplication needs a length-N vector "
                                "or a flattened matrix")
        return out.reshape(-1, m)


class EscapeCertificate:
    def __init__(self, witness, k_found, bound, verified_noncontainment):
        self.witness = witness
        self.k_found = k_found
        self.bound = bound
        self.verified_noncontainment = verified_noncontainment

    def __repr__(self):
        return "EscapeCertificate(k={}, bound={})".format(self.k_found, self.bound)


def _shortest_witness(F, N, gens, cap, hits, nothing):
    """(k, g): the least word length k of an element g that `hits` (a mask
    over a layer's (M, N, N) array) marks, and the least such g at k by
    mat_ser.  The closure of gens saturates or raises BallCapExceeded, so when
    no element hits, none of the generated group does: NoEscapeWithinBall."""
    ball = bfs.closure(F, N, gens, cap=cap)
    for k in range(len(ball.offsets) - 1):
        layer = ball.layer(k)
        found = map(tuple, layer[hits(layer)].reshape(-1, N * N).tolist())
        witness = min(found, key=lambda g: linalg.mat_ser(F, N, g), default=None)
        if witness is not None:
            return k, witness
    raise NoEscapeWithinBall(nothing)


def escape_point(inst, cap=10 ** 6):
    """Shortest witness g in A^k with g.point off the variety, ties broken by
    serialized-matrix lexicographic order.  The witness lies in the saturated
    ball, so it also proves that the orbit leaves the variety."""
    k, witness = _shortest_witness(
        inst.F, inst.N, inst.generators, cap,
        lambda X: ~inst.variety.contains(inst.act(X)),
        "the whole orbit lies inside the variety")
    bound = escape_bound(inst.variety.declared_dim, inst.variety.declared_deg)
    if k > bound["exact"]:
        raise TheoremViolation("escape bound violated")
    return EscapeCertificate(witness, k, bound["logscaled"], True)


# --- linearization (tensor-power) route ---

def iota(F, N, mat):
    """iota(M) = ((1, 0), (0, M)) as a flat (N+1)x(N+1) matrix."""
    rows = [[1] + [0] * N] + [[0] + list(mat[i * N:(i + 1) * N]) for i in range(N)]
    return tuple(x for row in rows for x in row)


def rho_iota(F, N, D, mat):
    """The D-fold tensor power of iota(M), flat over Mat_{(N+1)^D}: entry
    (i_1..i_D),(j_1..j_D) is prod_t iota(M)[i_t][j_t], i_1 most significant."""
    Np = N + 1
    base = iota(F, N, mat)
    out, size = [1], 1
    for _ in range(D):
        out = [F.mul(out[I * size + J], base[i * Np + j])
               for I in range(size) for i in range(Np)
               for J in range(size) for j in range(Np)]
        size *= Np
    return tuple(out)


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


def shitov_escape(inst, cap=10 ** 6):
    """Element-escape: find g in A^k with P(g) != 0 for some defining P;
    k is certified below 11 D (N+1)^D ln N (natural log convention)."""
    F, N = inst.F, inst.N
    V = inst.variety
    if V.ambient != N * N:
        raise ShapeMismatch("element escape needs a variety over matrix entries")
    D = max(max(P.total_degree for P in V.polys), 1)
    k, witness = _shortest_witness(
        F, N, inst.generators, cap,
        lambda X: ~V.contains(X.reshape(len(X), N * N)),
        "generated subgroup lies inside the variety")
    if float(k) >= 11 * D * (N + 1) ** D * math.log(N):
        raise TheoremViolation("Shitov bound violated")
    bound_ln = math.log(11 * D) + D * math.log(N + 1) + math.log(math.log(N))
    return EscapeCertificate(witness, k, LogScaled.from_ln(bound_ln), None)


def find_regular_semisimple(F, spec, generators):
    """Shortest g in A^k with nonzero char-poly discriminant; k is certified
    below (2r)^(4r^2+3r) in log space."""
    N, r = spec.N, spec.r
    k, witness = _shortest_witness(
        F, N, generators, 10 ** 6,
        lambda X: ~classify.nonrs_mask(F, X),
        "no regular semisimple element in the generated subgroup")
    bound = LogScaled.power(2 * r, 4 * r * r + 3 * r)
    if LogScaled.from_exact(max(k, 1)).cmp(bound) > 0:
        raise TheoremViolation("regular semisimple escape bound violated")
    return EscapeCertificate(witness, k, bound, None)
