"""Closed-form constants of the diameter/growth machinery, evaluated exactly
(big integers / rationals) where feasible and in log or tower space otherwise,
plus numeric verification of the closing inequality chains of the proofs.

Conventions: r is the group rank, l/t are word-length parameters, logs are
natural.  The worst-case ambient dimension at rank r is N = 2r+1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InequalityFailed, InvariantViolation, RankTooSmall
from .logscaled import LogScaled, _ln_big, _logaddexp

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def admissible_ells(r):
    """The families admissible at rank r with their ell = dim(G)/r values."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    out = {"SL": r + 2}
    if r >= 2:
        out["Sp"] = 2 * r + 1
    if r >= 3:
        out["SOodd"] = 2 * r + 1
    if r >= 4:
        out["SOeven"] = 2 * r - 1
    return out


# --- headline constant evaluators ---

def clg_constants(r, t):
    """Conjugacy-class dimensional estimate constants:
    C1 = (2r)^(38 r^2), C2 = (2r)^(21 r^2) + 2t."""
    if r < 1 or t < 1:
        raise ValueError("need r >= 1 and t >= 1")
    c1 = LogScaled.power(2 * r, 38 * r * r)
    c2 = LogScaled.power(2 * r, 21 * r * r).add(2 * t)
    return c1, c2


def torus_constants(r, t):
    """Non-maximal-torus estimate constants:
    C1 = (2r)^(19 r^2) / (r(r+1)), C2 = (2r)^(45 r^3 - 1) t,
    and C1_full = r(r+1) C1 for the union over all maximal tori."""
    if t < 1:
        raise ValueError("need t >= 1")
    if r < 2:
        raise RankTooSmall(
            "every torus is maximal at rank 1; use the direct rank-1 case")
    c1_full = LogScaled.power(2 * r, 19 * r * r)
    c1 = LogScaled.from_ln(c1_full.ln_value - math.log(r * (r + 1)))
    c2 = LogScaled.power(2 * r, 45 * r ** 3 - 1).mul(t)
    return c1, c2, c1_full


def growth_pairs(r, l):
    """The two (m(l), eps) alternatives of the growth dichotomy:
    ((2r)^(45 r^3) l, 1/(40r)) and ((2r)^(22 r^2) + 8l, 1/(88 r^2))."""
    if r < 1 or l < 1:
        raise ValueError("need r >= 1 and l >= 1")
    m1 = LogScaled.power(2 * r, 45 * r ** 3).mul(l)
    m2 = LogScaled.power(2 * r, 22 * r * r).add(8 * l)
    return [(m1, Fraction(1, 40 * r)), (m2, Fraction(1, 88 * r * r))]


def diameter_exponent(r):
    """The diameter-bound exponent 1947 r^4 ln(2r) and the field-size
    threshold e^(6r ln 2r) = (2r)^(6r)."""
    if r < 1:
        raise ValueError("need r >= 1")
    exponent = 1947 * r ** 4 * math.log(2 * r)
    q_threshold = LogScaled.power(2 * r, 6 * r)
    return exponent, q_threshold


# --- general-variety (appendix) recursion pieces ---

def e_exponent(r, d):
    """e(d) = (d+1)(2r^2 + r - d/2); always an integer."""
    c = 2 * r * r + r
    num = (d + 1) * (2 * c - d)
    if num % 2:
        raise InvariantViolation("e(d) is not an integer")
    return num // 2


def f_sum(x, y):
    """f(x, y) = sum_{j=1}^{y} 2^(j x)."""
    return sum(2 ** (j * x) for j in range(1, y + 1))


def k_base(r):
    """k = 2 (2r+1)^((2r+1)^2), the conjugation word-length unit."""
    return 2 * (2 * r + 1) ** ((2 * r + 1) ** 2)


def c1_general(r, d, D):
    """C1(d, D) = (2D)^(2^(14 d r^4)) as a tower-representation LogScaled."""
    if d == 0:
        return LogScaled.from_exact(2 * D)
    lnln = 14 * d * r ** 4 * LN2 + math.log(math.log(2 * D))
    return LogScaled(2, lnln)


def c2_general(r, d, t):
    """C2(d, t) = (2^e(d) - 1) k + 2^e(d) t, exact."""
    e = e_exponent(r, d)
    k = k_base(r)
    return (2 ** e - 1) * k + 2 ** e * t


def appendix_constants(r, d, D, t=1):
    """Evaluate the general-variety recursion constants at (r, d, D, t) and
    verify the closing inequality chains for every admissible M.

    Worst-case ambient N = 2r+1 is used.  Raises InequalityFailed on any
    violated chain condition.
    """
    if r < 1 or D < 1 or t < 1:
        raise ValueError("need r >= 1, D >= 1, t >= 1")
    c = 2 * r * r + r  # the dimension bound for all families at rank r
    if not 0 <= d <= c - 1:
        raise ValueError("need 0 <= d <= 2r^2 + r - 1")
    N = 2 * r + 1
    x = c - 2
    k = k_base(r)
    beta = (2 * N * N + 2) * LN2 + 2 * math.log(D)  # ln(2^(2N^2+2) D^2)
    lnD = math.log(D)
    c1_here = c1_general(r, d, D)
    c2_here = c2_general(r, d, t) if d >= 1 else None
    # headline bounds
    c1_headline = LogScaled(2, 32 * r ** 6 * LN2 + math.log(math.log(2 * D)))
    c2_headline = 2 ** (6 * r ** 4) * ((2 * r) ** (16 * r * r) + t)
    failures = []
    rows = []
    for M in range(0, c - d + 1):
        t_M = (2 ** M - 1) * k + 2 ** M * t
        row = {"M": M, "t_M_ln": _ln_big(t_M)}
        # ln ln Delta, with Delta = (2^(2N^2+2) D^2)^f(x,M+1) * D^(2^(x(M+1)))
        f1 = f_sum(x, M + 1)
        lnln_delta = _ln_big(f1) + math.log(beta)
        if D > 1:
            lnln_delta = _logaddexp(
                lnln_delta, x * (M + 1) * LN2 + math.log(lnD))
        # ln C3(M) = M f(x,M) beta + f(x,M) ln D  (C3(0) = 1)
        f0 = f_sum(x, M)
        lnln_c3 = None
        if M >= 1:
            lnln_c3 = _ln_big(M * f0) + math.log(beta)
            if D > 1:
                lnln_c3 = _logaddexp(lnln_c3, _ln_big(f0) + math.log(lnD))
        if d >= 1:
            # exact C2/C4 chain
            c4_next = c2_general(r, d - 1, t_M)  # = C4(M+1) identity
            e1 = e_exponent(r, d - 1)
            c4_next_direct = (2 ** (e1 + M) - 1) * k + 2 ** (e1 + M) * t
            if c4_next != c4_next_direct:
                failures.append(("C4_identity", M))
            if c2_here < c2_general(r, d - 1, t_M):
                failures.append(("exitnow_c2", M))
            c4_M = ((2 ** (e1 + M - 1) - 1) * k + 2 ** (e1 + M - 1) * t
                    if M >= 1 else 0)
            if c2_here < max(c2_general(r, d - 1, t_M), c4_M):
                failures.append(("exitlate_c2", M))
            if c2_here < max(t_M, c4_M):
                failures.append(("exitrec_c2", M))
            # C1 chain, in ln ln space
            lhs = 14 * d * r ** 4 * LN2 + math.log(math.log(2 * D))
            # ln ln C1(d-1, Delta^2): exponent 2^(14(d-1)r^4), base 2 Delta^2
            lnln_c1_prev = (14 * (d - 1) * r ** 4 * LN2 +
                            _logaddexp(math.log(LN2), LN2 + lnln_delta))
            chain_a = _logaddexp(math.log(4.0) + lnln_delta, lnln_c1_prev)
            row["lnln_C1"] = lhs
            row["lnln_exitnow_rhs"] = chain_a
            if not LogScaled(2, lhs).require_cmp(
                    LogScaled(2, chain_a), 1, "exitnow C1 chain") :
                failures.append(("exitnow_c1", M))
            if lnln_c3 is not None:
                # Delta >= C3(M)^(1/(M+1))  (reduces exitlate to exitnow)
                rhs = lnln_c3 - math.log(M + 1)
                if not LogScaled(2, lnln_delta).require_cmp(
                        LogScaled(2, rhs), 1, "Delta vs C3 root"):
                    failures.append(("exitlate_c1", M))
                # exitrec: C1(d, D) >= C3(M)^(1/(M+1))
                if not LogScaled(2, lhs).require_cmp(
                        LogScaled(2, rhs), 1, "exitrec C1 chain"):
                    failures.append(("exitrec_c1", M))
        rows.append(row)
    # headline containment
    if d >= 1:
        if c2_here > c2_headline:
            failures.append(("c2_headline", None))
        if not c1_headline.require_cmp(c1_here, 1, "C1 headline"):
            failures.append(("c1_headline", None))
    if failures:
        raise InequalityFailed(
            "appendix chain violations at (r={}, d={}, D={}, t={}): {}".format(
                r, d, D, t, failures))
    return {
        "r": r, "d": d, "D": D, "t": t, "N_used": N,
        "e_d": e_exponent(r, d),
        "k_ln": _ln_big(k),
        "C1": c1_here.to_json(),
        "C2": LogScaled.from_exact(c2_here).to_json() if d >= 1 else None,
        "chain": rows,
        "pass": True,
    }


# --- inequality verification suites ---

def _rational_identities(ell):
    """The two exact exponent identities and their bound fractions at ell."""
    one = Fraction(1)
    lhs1 = (one - Fraction(1, ell)) * (one - Fraction(1, 6 * ell)) \
        + Fraction(1, ell + 1)
    x1 = Fraction(ell * ell + 6 * ell - 1, 6 * ell * ell * (ell + 1))
    id1 = lhs1 == one - x1
    lhs2 = one - Fraction(1, ell) \
        + Fraction(1, ell + 1) / (one - Fraction(1, 6 * ell))
    x2 = Fraction(5 * ell - 1, ell * (ell + 1) * (6 * ell - 1))
    id2 = lhs2 == one - x2
    return id1, id2, x1, x2


def proof_inequality_suite(r_max):
    """Verify every closing numeric inequality of the growth/diameter proofs
    for all ranks 1 <= r <= r_max; raises InequalityFailed on any violation."""
    if r_max < 1:
        raise ValueError("need r_max >= 1")
    failures = []
    n_checks = 0

    def check(name, ok):
        nonlocal n_checks
        n_checks += 1
        if not ok:
            failures.append(name)

    for r in range(1, r_max + 1):
        ln2r = math.log(2 * r)
        # log(1 + eps) lower bounds feeding the diameter recursion
        check(("step1", r),
              45 / (1947 * r) < 48 / (1947 * r)
              < math.log(41 / 40) / r <= math.log(1 + 1 / (40 * r)))
        check(("step2", r),
              (22 + math.log(1.0001) / (r * r * ln2r)) / (1947 * r * r)
              < 22.0002 / (1947 * r * r)
              < math.log(1 + 1 / (88 * r * r)))
        # eta lower-bound chains and their eps consequences
        eta1 = 43 * LN2 / (57 * LN3 * (1 + 1 / (12 * r)))  # eta > eta1 * r
        check(("eta1", r), eta1 > 0.439)
        check(("eta1_pre", r), 2 * r ** 3 * ln2r >= LN3)
        check(("eps1", r),
              0.439 * r / (12 * r * (1 + 0.439 * r)) > 1 / (40 * r))
        eta2 = 20 * LN2 / (57 * LN3 * (1 + 1 / (15 * r * r)))
        check(("eta2", r), eta2 > 0.207)
        check(("eta2_pre", r),
              _ln_big((2 * r) ** (22 * r * r) + 8) - LN3 >= 20 * r * r * ln2r)
        check(("eps2", r), 0.207 / (15 * 1.207) > 1 / 88)
        check(("eps3", r), 0.512 / (20 * 1.512) > 1 / 60)
        # r! 2^(r+2) <= (2r)^(r+2), the C1 prefactor absorption (exact)
        check(("prefactor", r),
              math.factorial(r) * 2 ** (r + 2) <= (2 * r) ** (r + 2))
        for fam, ell in admissible_ells(r).items():
            id1, id2, x1, x2 = _rational_identities(ell)
            check(("identity1", fam, r), id1)
            check(("identity2", fam, r), id2)
            check(("x1_bound", fam, r), x1 >= Fraction(1, 12 * r))
            check(("x2_bound", fam, r), x2 >= Fraction(1, 15 * r * r))
            check(("inv1", fam, r), 1 / (1 - x1) > 1 + x1)
            check(("inv2", fam, r), 1 / (1 - x2) > 1 + x2)
            eta3 = ((2 * ell - 1) / ell) * (LN2 / LN3) \
                * 20 * r * r / (38 * r * r + r + 2)
            check(("eta3", fam, r), eta3 > 0.512)
        # diameter recursion replay with synthetic step sequences
        budget = 1947 * r ** 4 * ln2r
        pairs = growth_pairs(r, 1)
        eps = [float(e) for _, e in pairs]
        lnm_const = [45 * r ** 3 * ln2r, None]  # m1(l) = const * l
        for seq in ([1] * 6, [2] * 6, [1, 2, 1, 2, 1, 2], [2, 1, 2, 1, 2, 1]):
            ln_l = 0.0
            ln_growth = 0.0
            ok = True
            for i in seq:
                if i == 1:
                    ln_l = lnm_const[0] + ln_l
                else:
                    ln_l = _logaddexp(22 * r * r * ln2r,
                                      math.log(8.0) + ln_l)
                ln_growth += math.log(1 + eps[i - 1])
                if ln_l > budget * ln_growth:
                    ok = False
            check(("recursion", r, tuple(seq)), ok)
    # monotonicity in r and t for the visibly monotone formulas
    for r in range(2, r_max + 1):
        check(("mono_clg_r", r),
              clg_constants(r, 1)[0].ln_value
              > clg_constants(r - 1, 1)[0].ln_value)
        check(("mono_m1_r", r),
              growth_pairs(r, 1)[0][0].ln_value
              > growth_pairs(r - 1, 1)[0][0].ln_value)
        check(("mono_diam_r", r),
              diameter_exponent(r)[0] > diameter_exponent(r - 1)[0])
        if r >= 3:
            check(("mono_torus_r", r),
                  torus_constants(r, 1)[1].ln_value
                  > torus_constants(r - 1, 1)[1].ln_value)
    for t in (2, 3):
        check(("mono_clg_t", t),
              clg_constants(2, t)[1].exact > clg_constants(2, t - 1)[1].exact)
    if failures:
        raise InequalityFailed("inequality failures: {}".format(failures))
    return {"r_max": r_max, "checks": n_checks, "failures": [], "pass": True}


def asymptotic_constants(r):
    """Evaluate the large-rank replacement constants at finite r: the closed
    subexpressions eta = 4 ln2 / (9 ln3) and 5 eta / (24 (1+eta)), the implied
    finite-r recursion coefficients, and the limit constant 384.  The o(1)
    error terms have no displayed finite-r form and are not modeled."""
    if r < 8:
        raise ValueError("the asymptotic regime is reported for r >= 8")
    eta = 4 * LN2 / (9 * LN3)
    eps2_coeff = 5 * eta / (24 * (1 + eta))
    # smallest c with 32 r^3 ln r <= c r^4 ln r * ln(1 + 1/(12r)), and the
    # analogue for the (16 r^2, eps2) pair
    coeff1 = 32 / (r * math.log(1 + 1 / (12 * r)))
    coeff2 = 16 / (r * r * math.log(1 + eps2_coeff / (r * r)))
    return {
        "r": r,
        "eta": eta,
        "eps2_coefficient": eps2_coeff,
        "implied_coefficient_pair1": coeff1,
        "implied_coefficient_pair2": coeff2,
        "limit_constant": 384,
    }
