"""Cayley-graph growth: ball series, diameters, product-set inequalities,
the large-set tripling threshold, the growth dichotomy, and intersection
counting against classes, tori, and the non-regular-semisimple locus.
"""

from __future__ import annotations

import math

import numpy as np

from . import bfs, classify, constants, groups, linalg
from .errors import (
    GroupTooLarge,
    HypothesisFailed,
    NotGenerating,
    SamplerStalled,
    TheoremViolation,
)
from .gf import factor_prime_power
from .logscaled import LogScaled

STALL_DRAWS = 64  # per wanted element, before random_subset gives up


class GenSet:
    """A certified symmetric generating set containing the identity."""

    def __init__(self, spec, F, mats, check=True):
        mats = [tuple(m) for m in mats]
        if check:
            ident = linalg.identity(spec.N)
            if ident not in mats:
                raise ValueError("generating set must contain the identity")
            pool = set(mats)
            for m in mats:
                if not groups.is_member(F, m, spec):
                    raise ValueError("set contains a non-member matrix")
                if linalg.inv(F, spec.N, m) not in pool:
                    raise ValueError("generating set must be symmetric")
        self.spec = spec
        self.F = F
        self.mats = mats

    def __len__(self):
        return len(set(self.mats))

    @staticmethod
    def standard(spec, F):
        return GenSet(spec, F, groups.standard_generators(spec, F))

    @staticmethod
    def random_subset(spec, F, s, rng):
        """Sample s certified elements plus the identity, no symmetry closure
        (the tripling theorem does not require symmetry).  Raises
        SamplerStalled after STALL_DRAWS * (s + 1) draws in a row that bring
        nothing new."""
        order = groups.group_order(spec, F.q)
        if s + 1 > order:
            raise ValueError("a subset of {} elements plus the identity does not "
                             "fit in a group of order {}".format(s, order))
        pool = {linalg.identity(spec.N)}
        misses = 0
        while len(pool) < s + 1:
            before = len(pool)
            pool.add(groups.random_group_element(spec, F, rng))
            misses = misses + 1 if len(pool) == before else 0
            if misses >= STALL_DRAWS * (s + 1):
                raise SamplerStalled("{} draws in a row found no new element; "
                                     "have {} of {}".format(misses, len(pool), s + 1))
        out = [linalg.identity(spec.N)]
        out.extend(sorted(pool - {linalg.identity(spec.N)}))
        return GenSet(spec, F, out, check=False)

    @staticmethod
    def random_symmetric(spec, F, s, rng):
        """Sample s elements, close under inverse, add identity."""
        mats = [groups.random_group_element(spec, F, rng) for _ in range(s)]
        pool = {m for m in mats}
        for m in mats:
            pool.add(linalg.inv(F, spec.N, m))
        pool.add(linalg.identity(spec.N))
        # keep a deterministic order: identity first, then sorted
        out = [linalg.identity(spec.N)]
        out.extend(sorted(pool - {linalg.identity(spec.N)}))
        return GenSet(spec, F, out)


class BallSeries:
    def __init__(self, sizes, saturated_at):
        self.sizes = list(sizes)
        self.saturated_at = saturated_at

    def size_at(self, t):
        if t < 1:
            raise ValueError("t must be >= 1")
        if t <= len(self.sizes):
            return self.sizes[t - 1]
        return self.sizes[-1]

    def __repr__(self):
        return "BallSeries({}, saturated_at={})".format(self.sizes, self.saturated_at)


class Materialized:
    """A fully enumerated group with its generating set and depth table."""

    def __init__(self, spec, F, genset, ball, order):
        self.spec = spec
        self.F = F
        self.genset = genset
        self.ball = ball
        self.order = order

    def __len__(self):
        return self.order


def materialize(spec, F, genset=None, cap=10 ** 7):
    order = groups.group_order(spec, F.q)
    if order > cap:
        raise GroupTooLarge("|G| = {} exceeds cap {}".format(order, cap))
    if genset is None:
        genset = GenSet.standard(spec, F)
    ball = bfs.closure(F, spec.N, genset.mats, cap=cap)
    if len(ball) != order:
        raise NotGenerating(
            "closure size {} != |G| = {}".format(len(ball), order))
    return Materialized(spec, F, genset, ball, order)


def ball_series(A, t_max, cap=10 ** 7):
    ball = bfs.closure(A.F, A.spec.N, A.mats, cap=cap, t_max=t_max)
    sizes = ball.sizes[:t_max]
    while len(sizes) < t_max:
        sizes.append(sizes[-1])
    return BallSeries(sizes, ball.saturated_at)


def diameter(A, cap=10 ** 7):
    ball = bfs.closure(A.F, A.spec.N, A.mats, cap=cap)
    order = groups.group_order(A.spec, A.F.q)
    if len(ball) != order:
        raise NotGenerating("set generates a proper subgroup "
                            "({} of {})".format(len(ball), order))
    return ball.saturated_at


def ruzsa_check(A, k, cap=10 ** 7):
    """|A^k| / |A| <= (|A^3| / |A|)^(k-2), checked as an exact integer
    inequality |A^k| |A|^(k-3) <= |A^3|^(k-2)."""
    if k < 3:
        raise ValueError("k must be >= 3")
    series = ball_series(A, k, cap=cap)
    a1 = series.size_at(1)
    a3 = series.size_at(3)
    ak = series.size_at(k)
    lhs = ak * a1 ** (k - 3)
    rhs = a3 ** (k - 2)
    return {
        "k": k,
        "sizes": series.sizes,
        "lhs": lhs,
        "rhs": rhs,
        "pass": lhs <= rhs,
    }


def olson_check(A, cap=10 ** 7):
    """Either A^3 = G or |A^3| >= 2 |A|."""
    ball = bfs.closure(A.F, A.spec.N, A.mats, cap=cap)
    order = groups.group_order(A.spec, A.F.q)
    if len(ball) != order:
        raise NotGenerating("Olson's dichotomy needs a generating set")
    series = BallSeries(ball.sizes, ball.saturated_at)
    a1, a3 = series.size_at(1), series.size_at(3)
    branch1 = a3 == order
    branch2 = a3 >= 2 * a1
    return {
        "|A|": a1,
        "|A^3|": a3,
        "order": order,
        "branch_A3_is_G": branch1,
        "branch_doubling": branch2,
        "pass": branch1 or branch2,
    }


def _icbrt(n):
    if n < 0:
        raise ValueError
    x = int(round(n ** (1.0 / 3.0))) if n < (1 << 50) else 1 << ((n.bit_length() + 2) // 3)
    while x * x * x > n:
        x = (2 * x + n // (x * x)) // 3
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def np_threshold(spec, q):
    """ceil((4/3) q^(dim - r/3)): the smallest n with 27 n^3 >= 64 q^(3 dim - r),
    computed by exact integer cube roots (directed rounding)."""
    p, _ = factor_prime_power(q)
    if p == 2:
        raise HypothesisFailed("characteristic 2 is out of scope")
    if q <= 9:
        raise HypothesisFailed("the tripling theorem needs q > 9")
    c = 64 * q ** (3 * spec.dim - spec.r)
    # smallest n with 27 n^3 >= c  <=>  n^3 >= ceil(c / 27)
    target = -(-c // 27)
    n = _icbrt(target)
    if n ** 3 < target:
        n += 1
    return n


def np_check(A, cap=10 ** 7):
    """|A| >= threshold implies A^3 = G; a failure would falsify the theorem."""
    spec, F = A.spec, A.F
    threshold = np_threshold(spec, F.q)
    size = len(set(A.mats))
    if size < threshold:
        return {"|A|": size, "threshold": threshold, "skipped": True,
                "pass": True, "note": "precondition |A| >= threshold fails"}
    series = ball_series(A, 3, cap=cap)
    order = groups.group_order(spec, F.q)
    ok = series.size_at(3) == order
    if not ok:
        raise TheoremViolation(
            "|A| = {} >= {} but |A^3| = {} < |G| = {}".format(
                size, threshold, series.size_at(3), order))
    return {"|A|": size, "threshold": threshold, "skipped": False,
            "|A^3|": series.size_at(3), "order": order, "pass": True}


def _target_membership(A, target, cap):
    """Return (sorted key array or predicate, dim_V, label) for an
    intersection target.  Keys are those of bfs.pack, as Ball.key_of makes."""
    spec, F = A.spec, A.F
    N = spec.N
    kind = target[0]
    if kind == "class":
        g = tuple(target[1])
        keys = classify.conjugacy_class(F, N, g, A.mats, cap=cap)
        return keys, spec.dim - spec.r, "class"
    if kind in ("torus", "torus_nonrs"):
        eta = tuple(target[1]) if len(target) > 1 and target[1] else ()
        pts = groups.torus_points(spec, F, eta, cap=cap)
        if kind == "torus_nonrs":
            pts = [m for m in pts
                   if not classify.is_regular_semisimple(F, N, m)]
        dim_v = spec.r if not eta else spec.r - 1
        return bfs.keys_of(F, N, pts), dim_v, kind
    if kind == "nonrs":
        return (lambda m: not classify.is_regular_semisimple(F, N, m)), \
            spec.dim - 1, "nonrs"
    raise ValueError("unknown target {!r}".format(target))


def _hits(ball, membership):
    """Mask over the ball's elements (BFS order) of those on the target."""
    if callable(membership):
        return np.fromiter(map(membership, ball.mats()), dtype=bool, count=len(ball))
    return np.isin(bfs.pack(ball.F, ball.N, ball.elements), membership)


def intersect_count(A, t, target, cap=10 ** 7):
    """Exact |A^t ∩ target| plus the log-space dimensional-estimate bound and
    the measured exponent log|A^t ∩ V| / log|A^t|."""
    spec, F = A.spec, A.F
    ball = bfs.closure(F, spec.N, A.mats, cap=cap, t_max=t)
    membership, dim_v, label = _target_membership(A, target, cap)
    count = int((_hits(ball, membership) & (ball.depth_array() <= t)).sum())
    ball_size = ball.sizes[min(t, len(ball.sizes)) - 1]
    r = spec.r
    if label in ("torus", "torus_nonrs") and r >= 2:
        c1, c2, c1_full = constants.torus_constants(r, t)
        c1 = c1_full
    else:
        c1, c2 = constants.clg_constants(r, t)
    order = groups.group_order(spec, F.q)
    bound_ln = c1.ln_value + (dim_v / spec.dim) * math.log(order)
    measured = (math.log(count) / math.log(ball_size)
                if count > 1 and ball_size > 1 else None)
    return {
        "t": t,
        "target": label,
        "count": count,
        "ball_size": ball_size,
        "dim_V": dim_v,
        "dim_G": spec.dim,
        "bound_ln": bound_ln,
        "C1_ln": c1.ln_value,
        "C2_ln": c2.ln_value,
        "measured_exponent": measured,
    }


def growth_dichotomy_check(A, l, cap=10 ** 7):
    """For each pair (m(l), eps): either |A^m| >= |A^l|^(1+eps) or A^{3m} = G.

    m(l) vastly exceeds any desk-scale diameter, so branch 2 reduces to
    saturation at some finite index; branch 1 is evaluated honestly with
    |A^m| = |G| once m is past saturation.
    """
    spec, F = A.spec, A.F
    ball = bfs.closure(F, spec.N, A.mats, cap=cap)
    order = groups.group_order(spec, F.q)
    if len(ball) != order:
        raise NotGenerating("dichotomy check needs a generating set")
    series = BallSeries(ball.sizes, ball.saturated_at)
    sat = ball.saturated_at
    al = series.size_at(l)
    pairs = constants.growth_pairs(spec.r, l)
    results = []
    for m, eps in pairs:
        # m is astronomically larger than the saturation index
        m_exceeds_diameter = m.cmp(LogScaled.from_exact(max(sat, 1))) >= 0
        branch2 = m_exceeds_diameter  # A^{3m} = G since 3m >= diameter
        # branch 1: |A^m| = |G| (m past saturation) vs |A^l|^(1+eps)
        lhs_ln = math.log(order)
        rhs_ln = (1 + float(eps)) * math.log(al)
        branch1 = lhs_ln >= rhs_ln
        results.append({
            "m_ln": m.ln_value,
            "eps": str(eps),
            "branch_growth": branch1,
            "branch_saturates": branch2,
            "holds": branch1 or branch2,
        })
    return {
        "l": l,
        "|A^l|": al,
        "saturated_at": sat,
        "order": order,
        "pairs": results,
        "pass": all(x["holds"] for x in results),
    }


def series_csv(A, t_max, target=None, cap=10 ** 7):
    """CSV lines 't,ball_size,target_count' for the growth subcommand."""
    spec, F = A.spec, A.F
    ball = bfs.closure(F, spec.N, A.mats, cap=cap, t_max=t_max)
    membership = None
    if target is not None:
        membership, _, _ = _target_membership(A, target, cap)
    lines = ["t,ball_size,target_count"]
    sizes = ball.sizes
    if membership is not None:
        depths = ball.depth_array()[_hits(ball, membership)]
    for t in range(1, t_max + 1):
        size = sizes[t - 1] if t - 1 < len(sizes) else sizes[-1]
        tc = "" if membership is None else int((depths <= t).sum())
        lines.append("{},{},{}".format(t, size, tc))
    return "\n".join(lines) + "\n"
