"""Linear-independence certificates for non-maximal torus Lie algebras.

For a canonical non-maximal torus T with Lie algebra t, find witnesses
g_1..g_ell such that t, [g_1,t], ..., [g_ell,t] (or t, Ad_{g_1}(t), ...) are
linearly independent, and certify the total rank (ell+1)*dim(t) by exact
elimination over F_q, one `linalg.echelon_add` step per row.

The last two or three witnesses are explicit sparse matrices supported on the
final rows/columns; the remaining ones are drawn from an embedded lower-rank
subalgebra by seeded randomized search with greedy rank growth.  A failed
draw is rolled back by truncating the echelon rows.  The greedy search can
dead-end (no draw extends a slot); it then restarts from the torus basis, up
to RESTARTS times, drawing on from the same rng.
"""

from __future__ import annotations

import random

import numpy as np

from . import groups, linalg
from .errors import (
    BadEta,
    CompletionExhausted,
    FamilyNotSupported,
    HypothesisFailed,
    RankDeficient,
    ZeroEta,
)

RETRIES_PER_SLOT = 64
RESTARTS = 4  # fresh completions from the torus basis after a dead end
RECONSTRUCTION_TRIALS = 10


class IndependenceCertificate:
    """Witness tuple plus the exactly-verified stacked rank."""

    def __init__(self, spec, torus, witnesses, achieved_rank, mode, seed, flags):
        self.spec = spec
        self.torus = torus
        self.witnesses = witnesses
        self.achieved_rank = achieved_rank
        self.mode = mode
        self.seed = seed
        self.flags = flags

    def __repr__(self):
        return "IndependenceCertificate({}, rank={}, mode={})".format(
            self.spec, self.achieved_rank, self.mode)


def character_reduce(eta, p):
    """Divide out the largest power of p common to all entries of eta."""
    eta = tuple(int(x) for x in eta)
    if not eta or all(x == 0 for x in eta):
        raise ZeroEta("the character vector vanishes")
    while all(x % p == 0 for x in eta):
        eta = tuple(x // p for x in eta)
    return eta


# --- explicit sparse witnesses for the last coordinates ---

def _so_h(F, N, m, col, v):
    """Antisymmetric matrix with v in column `col` (rows < m) and -v in the
    corresponding row."""
    mat = [0] * (N * N)
    for j in range(m):
        if v[j]:
            mat[j * N + col] = F.from_int(v[j])
            mat[col * N + j] = F.neg(F.from_int(v[j]))
    return tuple(mat)


def _sp_h(F, n, A, B, C):
    """Flat sp matrix ((A, B), (C, -A^T)) from n x n block dicts."""
    N = 2 * n
    mat = [0] * (N * N)
    for (i, j), c in A.items():
        mat[i * N + j] = c % F.q
        mat[(n + j) * N + (n + i)] = F.neg(c % F.q)
    for (i, j), c in B.items():
        mat[i * N + (n + j)] = c % F.q
    for (i, j), c in C.items():
        mat[(n + i) * N + j] = c % F.q
    return tuple(mat)


def explicit_h_matrices(t, F):
    """The fixed sparse witnesses completing the embedded recursive part:
    three for SOeven/Sp (with the eta-dependent case splits), two for SOodd."""
    spec = t.spec
    if spec.family == "SL":
        raise FamilyNotSupported(
            "SL has no sparse last-column construction; use the randomized route")
    if t.is_maximal:
        raise BadEta("explicit witnesses are built for non-maximal tori")
    p = F.p
    if (2 * spec.N) % p == 0:
        raise HypothesisFailed("characteristic must not divide 2N")
    eta = character_reduce(t.eta, p)
    n = spec.nparams
    N = spec.N
    if eta[-1] % p == 0:
        raise BadEta("eta_n vanishes in the base field")
    if spec.family == "SOeven":
        m = 2 * n - 2
        v_minus = [1 if j % 2 == 0 else 0 for j in range(m)]
        v_plus = [1 if j % 2 == 1 else 0 for j in range(m)]
        h1 = _so_h(F, N, m, 2 * n - 2, v_minus)
        h2 = _so_h(F, N, m, 2 * n - 1, v_minus)
        if all(eta[i] % p == 0 for i in range(n - 1)):
            # the torus is cut by a_n = 0
            h3 = _so_h(F, N, m, 2 * n - 2, v_plus)
        else:
            i0 = next(i for i in range(n - 1) if eta[i] % p != 0)
            v3 = list(v_plus)
            v3[2 * i0] = 1
            h3 = _so_h(F, N, m, 2 * n - 2, v3)
        mats = [h1, h2, h3]
    elif spec.family == "SOodd":
        m = 2 * n
        v_minus = [1 if j % 2 == 0 else 0 for j in range(m)]
        v_plus = [1 if j % 2 == 1 else 0 for j in range(m)]
        mats = [_so_h(F, N, m, 2 * n, v_minus), _so_h(F, N, m, 2 * n, v_plus)]
    else:  # Sp
        A1 = {(i, n - 1): 1 for i in range(n - 1)}
        A2 = {(n - 1, i): 1 for i in range(n - 1)}
        B3 = {(i, n - 1): 1 for i in range(n - 1)}
        B3.update({(n - 1, i): 1 for i in range(n - 1)})
        B3[(n - 1, n - 1)] = 1
        s_plus = sum(eta) % p
        if s_plus != 0:
            h1 = _sp_h(F, n, A1, {}, {})
            h2 = _sp_h(F, n, A2, {}, {})
        else:
            # then eta_n - sum_{i<n} eta_i != 0 since char is odd
            corner = {(n - 1, n - 1): 1}
            h1 = _sp_h(F, n, A1, corner, {})
            h2 = _sp_h(F, n, A2, {}, corner)
        h3 = _sp_h(F, n, {}, B3, {})
        mats = [h1, h2, h3]
    return [groups.LieElement(spec, F, m) for m in mats]


# --- embedded subalgebra sampling ---

def _embed_random(t, F, rng):
    """A random Lie element of the next-lower-rank subalgebra, embedded so it
    vanishes on the final block of coordinates: so_{N-2} (SOeven), so_{N-1}
    (SOodd) or sp_{2n-2}, with zero rows/columns at n-1 and 2n-1."""
    spec = t.spec
    fam = spec.family
    if fam == "SL":
        return groups.random_lie_element(spec, F, rng)
    m = {"SOeven": spec.N - 2, "SOodd": spec.N - 1, "Sp": spec.n - 1}[fam]
    return groups.random_lie_block(spec, F, rng, m)


# --- exact incremental rank ---

def _image_rows(t_basis, g, F, N, mode):
    """The rows [g, b] (lie_bracket) or g b g^-1 (adjoint) for the basis b."""
    B = linalg.as_array(F, N, [b.mat for b in t_basis])
    G = linalg.as_array(F, N, g)
    if mode == "lie_bracket":
        # [g, b] = g b - b g is the block product (g | b) (b ; -g)
        G, negG = (np.broadcast_to(x, B.shape)
                   for x in (G, linalg.as_array(F, N, linalg.mat_neg(F, g))))
        rows = linalg.matmul(F, np.concatenate([G, B], -1), np.concatenate([B, negG], -2))
    else:
        rows = linalg.mul(F, linalg.lmul(F, G, B)[0], linalg.invert(F, G))[0]
    return rows.reshape(len(B), N * N).tolist()


def _greedy_completion(t, F, mode, basis, echelon, rng, count):
    """Draw `count` witnesses whose images extend `echelon`, each within
    RETRIES_PER_SLOT draws; None at a dead end, a slot no draw extends."""
    witnesses = []
    for _slot in range(count):
        for _attempt in range(RETRIES_PER_SLOT):
            if mode == "lie_bracket":
                g = _embed_random(t, F, rng)
            else:
                g = groups.random_group_element(t.spec, F, rng)
            k = len(echelon)
            rows = _image_rows(basis, g, F, t.spec.N, mode)
            if all(linalg.echelon_add(F, echelon, row) for row in rows):
                witnesses.append(g)
                break
            del echelon[k:]
        else:
            return None
    return witnesses


def rank_certificate(t, F, mode="lie_bracket", seed=0):
    """Certify that t and the ell witness images are linearly independent:
    achieved_rank == (ell+1)*dim(t), verified by exact elimination."""
    if mode not in ("lie_bracket", "adjoint"):
        raise ValueError("mode must be lie_bracket or adjoint")
    spec = t.spec
    if t.is_maximal:
        raise BadEta(
            "the construction needs a non-maximal torus: (ell+1) r > dim G")
    p = F.p
    r = spec.r
    flags = {
        "char_gt_N": p > spec.N,
        "char_coprime_2N": (2 * spec.N) % p != 0,
        "q_ge_threshold": F.q >= (2 * r) ** (6 * r),
    }
    if mode == "lie_bracket" and not flags["char_coprime_2N"]:
        raise HypothesisFailed("characteristic divides 2N")
    basis = groups.canonical_torus_lie_basis(t, F)
    dim_t = len(basis)
    ell = spec.ell
    N = spec.N
    echelon = []
    for b in basis:
        if not linalg.echelon_add(F, echelon, b.mat):
            raise RankDeficient("torus basis is degenerate")
    rng = random.Random(seed)
    explicit = []
    if mode == "lie_bracket" and spec.family != "SL":
        explicit = [h.mat for h in explicit_h_matrices(t, F)]
    for _ in range(1 + RESTARTS):
        del echelon[dim_t:]
        witnesses = _greedy_completion(t, F, mode, basis, echelon, rng,
                                       ell - len(explicit))
        if witnesses is not None:
            break
    else:
        raise CompletionExhausted(
            "randomized completion dead-ended {} times".format(1 + RESTARTS))
    for h in explicit:
        rows = _image_rows(basis, h, F, N, "lie_bracket")
        if not all(linalg.echelon_add(F, echelon, row) for row in rows):
            raise RankDeficient("an explicit witness failed the rank step")
        witnesses.append(h)
    achieved = len(echelon)
    expected = (ell + 1) * dim_t
    if achieved != expected:
        raise RankDeficient(
            "achieved rank {} != (ell+1) dim(t) = {}".format(achieved, expected))
    wits = ([groups.LieElement(spec, F, w) for w in witnesses]
            if mode == "lie_bracket"
            else [groups.GroupElement(spec, F, w) for w in witnesses])
    return IndependenceCertificate(spec, t, wits, achieved, mode, seed, flags)


# --- executable reconstruction identities ---

def soeven_reconstruction_check(n, F, rng):
    """For SO_{2n} with the torus cut by a_n = 0: the combined bracket
    x = [h1,t1] + [h2,t2] + [h3,t3] determines all three parameter vectors via
    x_{2i-1,2n-1} = -a_{3,i}, x_{2i,2n-1} = a_{1,i}, x_{2i,2n} = a_{2,i}.
    Checked on RECONSTRUCTION_TRIALS random parameter triples."""
    spec = groups.GroupSpec("SOeven", n)
    N = spec.N
    t = groups.TorusSpec(spec, (0,) * (n - 1) + (1,))
    h1, h2, h3 = [h.mat for h in explicit_h_matrices(t, F)]
    for _ in range(RECONSTRUCTION_TRIALS):
        avecs = []
        mats = []
        for _j in range(3):
            a = [rng.randrange(F.q) for _ in range(n - 1)] + [0]
            avecs.append(a)
            mats.append(groups.torus_param_to_matrix(spec, F, a))
        x = [0] * (N * N)
        for h, tm in zip((h1, h2, h3), mats):
            x = linalg.mat_add(F, x, linalg.bracket(F, N, h, tm))
        for i in range(1, n):  # 1-indexed parameter slots below
            a3 = F.neg(x[(2 * i - 2) * N + (2 * n - 2)])
            a1 = x[(2 * i - 1) * N + (2 * n - 2)]
            a2 = x[(2 * i - 1) * N + (2 * n - 1)]
            if (a1, a2, a3) != (avecs[0][i - 1], avecs[1][i - 1], avecs[2][i - 1]):
                return False
    return True


def soodd_reconstruction_check(n, F, rng):
    """For SO_{2n+1}: a_j appears as x_{2j,2n+1} in [h_-, t] and -a_j as
    x_{2j-1,2n+1} in [h_+, t], on RECONSTRUCTION_TRIALS random a."""
    spec = groups.GroupSpec("SOodd", n)
    N = spec.N
    t = groups.TorusSpec(spec, (0,) * (n - 1) + (1,))
    h_minus, h_plus = [h.mat for h in explicit_h_matrices(t, F)]
    for _ in range(RECONSTRUCTION_TRIALS):
        a = [rng.randrange(F.q) for _ in range(n - 1)] + [0]
        tm = groups.torus_param_to_matrix(spec, F, a)
        xm = linalg.bracket(F, N, h_minus, tm)
        xp = linalg.bracket(F, N, h_plus, tm)
        for j in range(1, n + 1):
            if xm[(2 * j - 1) * N + 2 * n] != a[j - 1]:
                return False
            if xp[(2 * j - 2) * N + 2 * n] != F.neg(a[j - 1]):
                return False
    return True
