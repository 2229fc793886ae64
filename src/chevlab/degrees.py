"""Exact group degrees via non-intersecting lattice paths.

P(k) counts tuples of vertex-disjoint monotone paths w_1..w_{floor(k/2)},
where w_i runs from (2i-k, 0) to (0, k-2i) with unit right/up steps.  Two
independent methods: a diagonal-sweep enumeration (every monotone path meets
each antidiagonal x+y = s exactly once, and disjointness forces a strict
ordering of the y-coordinates there), and the Lindstrom-Gessel-Viennot
determinant of binomial path counts.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from types import SimpleNamespace

from . import linalg
from .errors import InvariantViolation, KTooLarge, TheoremViolation
from .logscaled import LogScaled

ENUM_K_MAX = 12
DET_K_MAX = 40

# the field Q on Fraction values, for linalg
_RATIONALS = SimpleNamespace(add=operator.add, sub=operator.sub, mul=operator.mul,
                             neg=operator.neg, inv=lambda x: 1 / x)


class PathCountResult:
    def __init__(self, k, exact, product_bound, method):
        self.k = k
        self.exact = exact
        self.product_bound = product_bound
        self.method = method

    def __repr__(self):
        return "PathCountResult(k={}, P={}, bound={}, {})".format(
            self.k, self.exact, self.product_bound, self.method)


def _product_bound(k):
    m = k // 2
    out = 1
    for i in range(1, m + 1):
        out *= math.comb(2 * (k - 2 * i), k - 2 * i)
    return out


def _count_enumerate(k):
    """Diagonal-sweep DP.

    On antidiagonal s each active path i (active for 2i-k <= s <= k-2i)
    occupies one point, recorded by its y-coordinate; vertex-disjointness is
    equivalent to strictly decreasing y_1 > y_2 > ... among active paths at
    every diagonal (a swap of relative order would force a shared vertex).
    """
    m = k // 2
    # path i: active diagonals [2i-k, k-2i], y from 0 to k-2i
    states = {(): 1}
    for s in range(2 - k, k - 1):
        # activate paths with start diagonal == s (append y=0)
        for i in range(1, m + 1):
            if 2 * i - k == s:
                new_states = {}
                for ys, cnt in states.items():
                    if ys and ys[-1] == 0:
                        continue  # collision with the new path's start point
                    new_states[ys + (0,)] = new_states.get(ys + (0,), 0) + cnt
                states = new_states
        # deactivate paths whose end diagonal == s (must sit at y = k-2i)
        for i in range(m, 0, -1):
            if k - 2 * i == s:
                new_states = {}
                for ys, cnt in states.items():
                    if ys[-1] == k - 2 * i:
                        key = ys[:-1]
                        new_states[key] = new_states.get(key, 0) + cnt
                states = new_states
        if s == k - 2:
            break
        # advance every active path by one step (stay or +1 in y)
        active = [i for i in range(1, m + 1) if 2 * i - k <= s < k - 2 * i]
        new_states = {}
        for ys, cnt in states.items():
            choices = [()]
            for pos, i in enumerate(active):
                y = ys[pos]
                nxt = []
                for dy in (0, 1):
                    y2 = y + dy
                    x2 = (s + 1) - y2
                    # stay inside the path's rectangle: 2i-k <= x <= 0, y <= k-2i
                    if y2 <= k - 2 * i and 2 * i - k <= x2 <= 0:
                        nxt.append(y2)
                choices = [c + (y2,) for c in choices for y2 in nxt]
            for tup in choices:
                if all(tup[a] > tup[a + 1] for a in range(len(tup) - 1)):
                    new_states[tup] = new_states.get(tup, 0) + cnt
        states = new_states
    if set(states) - {()}:
        raise InvariantViolation("a path is still active after the sweep")
    return states.get((), 0)


def _count_determinant(k):
    """LGV determinant: M[i][j] = C((k-2i)+(k-2j), k-2i), exact rational det."""
    m = k // 2
    det = linalg.det(_RATIONALS, m, tuple(
        Fraction(math.comb(2 * k - 2 * i - 2 * j, k - 2 * i))
        for i in range(1, m + 1) for j in range(1, m + 1)))
    if det.denominator != 1:
        raise InvariantViolation("the LGV determinant is not an integer")
    return int(det)


def path_count(k, method="determinant"):
    if k < 2:
        raise KTooLarge("k must be >= 2")
    if method == "enumerate":
        if k > ENUM_K_MAX:
            raise KTooLarge("enumerate supports k <= {}".format(ENUM_K_MAX))
        exact = _count_enumerate(k)
    elif method == "determinant":
        if k > DET_K_MAX:
            raise KTooLarge("determinant supports k <= {}".format(DET_K_MAX))
        exact = _count_determinant(k)
    else:
        raise ValueError("unknown method {!r}".format(method))
    return PathCountResult(k, exact, _product_bound(k), method)


def exact_group_degree(spec):
    """deg(SL_n) = n; deg(SO_N) = 2^(N-1) P(N); deg(Sp_N) = P(N+1)."""
    if spec.family == "SL":
        return spec.n
    if spec.family in ("SOeven", "SOodd"):
        return 2 ** (spec.N - 1) * path_count(spec.N).exact
    return path_count(spec.N + 1).exact


def table_degree_bound(spec):
    """The closed-form family bound; >= the exact degree whenever computable."""
    return spec.deg_bound


def degree_bound_check(spec):
    """(exact degree, table bound, whether the exact degree is within the
    bound), compared exactly when the bound's integer is available and in
    log space otherwise."""
    bound = table_degree_bound(spec)
    exact = exact_group_degree(spec)
    ok = (exact <= bound.exact) if bound.exact is not None else (
        LogScaled.from_exact(exact).cmp(bound) <= 0)
    return exact, bound, ok


def cl_degree_bound(spec):
    """Conjugacy-class degree bound: (N-1)! deg(G), and the closed form
    2^(3r^2) r^(2r); the factorial form never exceeds the closed form."""
    N, r = spec.N, spec.r
    factorial_form = math.factorial(N - 1) * exact_group_degree(spec)
    closed_form = 2 ** (3 * r * r) * r ** (2 * r)
    if factorial_form > closed_form:
        raise TheoremViolation("(N-1)! deg(G) exceeds 2^(3r^2) r^(2r)")
    return {"factorial_form": factorial_form, "closed_form": closed_form}
