"""The acceptance suite: exact small-instance oracles and property checks,
shared by the `verify` subcommand and the test suite.

Each criterion function returns {"name", "passed", "detail"}; run_all collects
all nine.  Profiles scale the sampled-instance counts only, never the exact
oracle values.
"""

from __future__ import annotations

import json
import math
import random

from . import (
    bfs,
    classify,
    constants,
    degrees,
    escape,
    gf,
    groups,
    growth,
    linalg,
    torus_lab,
    varieties,
)
from .errors import NoEscapeWithinBall, NotGenerating

PROFILES = {
    "quick": {"growth_sets": 20, "np_sets": 5, "escape_instances": 20,
              "class_samples": 20},
    "desk": {"growth_sets": 100, "np_sets": 50, "escape_instances": 100,
             "class_samples": 100},
}


def _result(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def criterion_order_oracle(cfg):
    """BFS enumeration equals the closed-form order on five small groups.  On
    SL(2,5) and SL(2,7) the maximal torus T is regular, so it has exactly
    |G| / (|T| |W|) conjugates, at least torus_conjugate_count_bound of them
    (at q = 3 the split tori of SL(2,3) and Sp(4,3) are not regular, so
    |N(T)| != |T| |W| there)."""
    cases = [
        ("SL", 2, 3, 24),
        ("SL", 2, 5, 120),
        ("SL", 2, 7, 336),
        ("SL", 3, 5, 372000),
        ("Sp", 2, 3, 51840),
    ]
    bad = []
    conjugates = []
    for fam, n, q, expected in cases:
        spec = groups.GroupSpec(fam, n)
        F = gf.make_field(q)
        formula = groups.group_order(spec, q)
        ball = bfs.closure(F, spec.N, groups.standard_generators(spec, F))
        if not (formula == len(ball) == expected):
            bad.append((fam, n, q, formula, len(ball), expected))
        if (fam, n) == ("SL", 2) and q in (5, 7):
            count = groups.exact_torus_conjugate_count(spec, F, ball)
            torus = len(groups.torus_points(spec, F))
            bound = groups.torus_conjugate_count_bound(spec, q)
            if count * torus * groups.weyl_order(spec) != formula or count < bound:
                bad.append((fam, n, q, "torus_conjugates", count, torus, bound))
            conjugates.append("{} >= {}".format(count, bound))
    return _result("order_oracle", not bad,
                   "5 groups, formula == BFS closure; torus conjugates "
                   "|G|/(|T||W|) >= bound on SL(2,5), SL(2,7): {}".format(
                       ", ".join(conjugates)) if not bad else str(bad))


def criterion_degree_oracle(cfg):
    bad = []
    for k in range(2, 11):
        a = degrees.path_count(k, "enumerate").exact
        b = degrees.path_count(k, "determinant").exact
        if a != b:
            bad.append(("P", k, a, b))
    for k, v in ((2, 1), (3, 2), (4, 5)):
        if degrees.path_count(k).exact != v:
            bad.append(("Pval", k, v))
    specs = [groups.GroupSpec("SL", n) for n in range(2, 13)]
    specs += [groups.GroupSpec("Sp", n) for n in range(2, 7)]
    specs += [groups.GroupSpec("SOeven", n) for n in range(4, 7)]
    specs += [groups.GroupSpec("SOodd", n) for n in range(3, 6)]
    for spec in specs:
        if spec.N > 12:
            continue
        if not degrees.degree_bound_check(spec)[2]:
            bad.append(("bound", spec.family, spec.n))
    return _result("degree_oracle", not bad,
                   "P(k) two-method match 2..10; family bounds N <= 12"
                   if not bad else str(bad))


def criterion_classification_oracle(cfg):
    samples = cfg["class_samples"]
    bad = []
    for fam, n, q in (("SL", 2, 5), ("SL", 2, 7), ("Sp", 2, 3)):
        spec = groups.GroupSpec(fam, n)
        F = gf.make_field(q)
        A = growth.GenSet.standard(spec, F)
        M = growth.materialize(spec, F, A)
        elements = list(M.ball.mats())
        rng = random.Random(10_000 + q)
        for _ in range(samples):
            g = elements[rng.randrange(len(elements))]
            cl = classify.conjugacy_class(F, spec.N, g, A.mats)
            cen = classify.centralizer(F, spec.N, g, M.ball)
            if len(cl) * len(cen) != M.order:
                bad.append((fam, q, "orbit_stabilizer"))
                break
            classify.is_regular_semisimple(F, spec.N, g, crosscheck=True)
        if fam == "SL" and n == 2:
            cnt = classify.nonrs_count_in_group(F, spec.N, M.ball)
            if cnt != 2 * q * q:
                bad.append((fam, q, "nonrs", cnt, 2 * q * q))
    # non-rs torus points two ways: the disc test and the subtorus catalogue
    torus_counts = []
    for fam, n, q in (("SL", 2, 5), ("SL", 2, 7), ("Sp", 2, 5)):
        spec = groups.GroupSpec(fam, n)
        F = gf.make_field(q)
        pts = groups.torus_points(spec, F)
        by_disc = classify.count_nonrs_in_torus(spec, F, pts)
        by_catalogue = classify.count_nonrs_by_catalogue(spec, F, pts)
        if by_disc != by_catalogue:
            bad.append((fam, q, "torus_nonrs", by_disc, by_catalogue))
        torus_counts.append(str(by_disc))
    return _result("classification_oracle", not bad,
                   "|Cl||C| = |G| on {} samples/group; SL2 nonrs = 2q^2; "
                   "torus nonrs disc == catalogue on SL(2,5), SL(2,7), Sp(4,5): "
                   "{}".format(samples, ", ".join(torus_counts))
                   if not bad else str(bad))


def _growth_property_one(spec, F, rng):
    size = 2 + rng.randrange(3)
    A = growth.GenSet.random_symmetric(spec, F, size, rng)
    try:
        ball = growth.generating_ball(A)
    except NotGenerating:
        return None  # proper subgroup: the propositions assume generation
    for k in (4, 5, 6):
        lhs, rhs = growth.ruzsa_sides(ball, k)
        if lhs > rhs:
            return ("ruzsa", k)
    if not any(growth.olson_branches(ball, len(ball))):
        return ("olson",)
    return ()


def criterion_growth_suite(cfg):
    target = cfg["growth_sets"]
    bad = []
    for fam, n, q in (("SL", 2, 7), ("Sp", 2, 3)):
        spec = groups.GroupSpec(fam, n)
        F = gf.make_field(q)
        rng = random.Random(20_000 + q)
        done = 0
        while done < target:
            out = _growth_property_one(spec, F, rng)
            if out is None:
                continue
            done += 1
            if out:
                bad.append((fam, q) + out)
    spec = groups.GroupSpec("SL", 2)
    F11 = gf.make_field(11)
    thr = growth.np_threshold(spec, 11)
    rng = random.Random(30_011)
    for _ in range(cfg["np_sets"]):
        A = growth.GenSet.random_subset(spec, F11, thr, rng)
        rep = growth.np_check(A)
        if rep.get("skipped") or not rep["pass"]:
            bad.append(("np", rep))
    return _result("growth_suite", not bad,
                   "{} sets/group, Ruzsa k=4..6 + Olson; {} tripling sets"
                   .format(target, cfg["np_sets"]) if not bad else str(bad))


def _random_poly(F, rng):
    terms = {}
    for _ in range(3):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randrange(1, 3)):
            exps[rng.randrange(4)] += 1
        terms[tuple(exps)] = rng.randrange(1, F.q)
    return varieties.Poly(F, 4, terms)


def criterion_escape_envelope(cfg):
    target = cfg["escape_instances"]
    bad = []
    for q in (7, 11):
        spec = groups.GroupSpec("SL", 2)
        F = gf.make_field(q)
        gens = growth.GenSet.standard(spec, F).mats
        # raises TheoremViolation past the (2r)^(4r^2+3r) bound
        escape.find_regular_semisimple(F, spec, gens)
        rng = random.Random(40_000 + q)
        done = 0
        while done < target:
            P = _random_poly(F, rng)
            if P.total_degree == 0:
                continue
            V = varieties.VarietySpec(4, [P], 2, max(P.total_degree, 1))
            point = groups.random_group_element(spec, F, rng)
            inst = escape.EscapeInstance(F, 2, gens, V, point,
                                         "left_multiplication")
            try:
                cert = escape.escape_point(inst)
            except NoEscapeWithinBall:
                continue
            bound = escape.escape_bound(V.declared_dim, V.declared_deg)
            if cert.k_found > bound["exact"]:
                bad.append((q, "point", cert.k_found))
            try:
                scert = escape.shitov_escape(inst)
            except NoEscapeWithinBall:
                continue
            D = max(P.total_degree, 1)
            if scert.k_found >= 11 * D * 3 ** D * math.log(2):
                bad.append((q, "element", scert.k_found))
            # Shitov's linearization: P(w) is a linear form in rho_iota(w)
            w = scert.witness
            _, P_lin = escape.linearize(F, 2, D, P)
            if (P_lin.total_degree > 1
                    or P_lin.evaluate(escape.rho_iota(F, 2, D, w)) != P.evaluate(w)):
                bad.append((q, "linearize", w))
            done += 1
    return _result("escape_envelope", not bad,
                   "{} verified instances/field within both bounds and "
                   "linearized; regular semisimple escape within "
                   "(2r)^(4r^2+3r)".format(target) if not bad else str(bad))


def criterion_torus_certificates(cfg):
    plans = [
        ("Sp", 2, 3, 5, [(0, 1), (1, -1), (2, 1)]),
        ("SOodd", 3, 3, 11, [(0, 0, 1), (1, 0, 1), (1, 1, 2)]),
        ("SOeven", 4, 3, 11, [(0, 0, 0, 1), (1, 0, 2, 1), (0, 1, 1, 1)]),
    ]
    bad = []
    for fam, n, p_lie, p_adj, etas in plans:
        spec = groups.GroupSpec(fam, n)
        F = gf.make_field(p_lie)
        for eta in etas:
            t = groups.TorusSpec(spec, eta)
            cert = torus_lab.rank_certificate(t, F, "lie_bracket", seed=7)
            want = (spec.ell + 1) * (spec.r - 1)
            if cert.achieved_rank != want:
                bad.append((fam, eta, cert.achieved_rank, want))
        Fa = gf.make_field(p_adj)
        t = groups.TorusSpec(spec, etas[0])
        cert = torus_lab.rank_certificate(t, Fa, "adjoint", seed=7)
        if cert.achieved_rank != (spec.ell + 1) * (spec.r - 1):
            bad.append((fam, "adjoint", cert.achieved_rank))
    rng = random.Random(60_000)
    if not torus_lab.soeven_reconstruction_check(4, gf.make_field(7), rng):
        bad.append(("SOeven", "reconstruction"))
    if not torus_lab.soodd_reconstruction_check(3, gf.make_field(11), rng):
        bad.append(("SOodd", "reconstruction"))
    return _result("torus_certificates", not bad,
                   "3 eta/family + adjoint mode, exact rank (ell+1) dim(t); "
                   "bracket reconstruction on SO(8,7), SO(7,11)"
                   if not bad else str(bad))


def criterion_constants_suite(cfg):
    bad = []
    try:
        constants.proof_inequality_suite(64)
    except Exception as exc:  # InequalityFailed is build-failing
        bad.append(("suite", repr(exc)))
    try:
        for r in range(1, 5):
            for d in range(0, 2 * r * r + r):
                for D in (1, 2):
                    constants.appendix_constants(r, d, D)
    except Exception as exc:
        bad.append(("appendix", repr(exc)))
    for r in (1, 2):
        vals = list(constants.clg_constants(r, 1))
        vals.append(constants.diameter_exponent(r)[1])
        vals.extend(m for m, _ in constants.growth_pairs(r, 1))
        if r >= 2:
            vals.extend(constants.torus_constants(r, 1)[1:])
        for v in vals:
            if v.exact is None:
                bad.append(("exact_missing", r))
            else:
                from .logscaled import _ln_big
                lnx = _ln_big(v.exact)
                if abs(lnx - v.ln_value) > 1e-9 * max(1.0, abs(lnx)):
                    bad.append(("slack", r, lnx, v.ln_value))
    return _result("constants_suite", not bad,
                   "suite r<=64; appendix chains r<=4; exact/log agree <=1e-9"
                   if not bad else str(bad))


def criterion_saturation_counting(cfg):
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    A = growth.GenSet.standard(spec, F)
    rep_c = growth.intersect_count(A, 12, ("class", (2, 0, 0, 3)))
    rep_t = growth.intersect_count(A, 12, ("torus", ()))
    order = groups.group_order(spec, 5)
    ok = (rep_c["count"] == 30 and rep_t["count"] == 4
          and rep_c["ball_size"] == order
          and rep_c["measured_exponent"] == math.log(30) / math.log(order))
    return _result("saturation_counting", ok,
                   "class 30, torus 4, exponent ln30/ln120"
                   if ok else str((rep_c["count"], rep_t["count"])))


def _determinism_reports():
    out = {}
    spec = groups.GroupSpec("SL", 2)
    F = gf.make_field(5)
    A = growth.GenSet.standard(spec, F)
    out["order"] = groups.group_order(spec, 5)
    out["series"] = growth.series_csv(A, 6, ("torus", ()))
    out["classify"] = classify.classification_record(F, 2, (2, 0, 0, 3))
    out["clg"] = [v.to_json() for v in constants.clg_constants(2, 1)]
    sp = groups.GroupSpec("Sp", 2)
    F7 = gf.make_field(7)
    cert = torus_lab.rank_certificate(
        groups.TorusSpec(sp, (0, 1)), F7, "lie_bracket", seed=3)
    out["torus_cert"] = [w.ser() for w in cert.witnesses]
    P = varieties.poly_parse(F, 4, "x1*x4-x2*x3-1")
    V = varieties.VarietySpec(4, [P], 3, 2)
    out["point_count"] = varieties.point_count(V, F)["count"]
    rng = random.Random(99)
    B = growth.GenSet.random_symmetric(spec, F, 3, rng)
    out["random_set"] = [linalg.mat_ser(F, 2, m) for m in B.mats]
    return json.dumps(out, sort_keys=True).encode()


def criterion_determinism(cfg):
    ok = _determinism_reports() == _determinism_reports()
    return _result("determinism", ok,
                   "sub-reports byte-identical across two runs"
                   if ok else "byte mismatch")


CRITERIA = [
    criterion_order_oracle,
    criterion_degree_oracle,
    criterion_classification_oracle,
    criterion_growth_suite,
    criterion_escape_envelope,
    criterion_torus_certificates,
    criterion_constants_suite,
    criterion_saturation_counting,
    criterion_determinism,
]


def run_criterion(fn, cfg):
    """One criterion's result; an exception it raises fails it."""
    try:
        return fn(cfg)
    except Exception as exc:
        return _result(fn.__name__.replace("criterion_", ""), False,
                       "raised {!r}".format(exc))


def run_all(profile="desk"):
    if profile not in PROFILES:
        raise ValueError("unknown profile {!r}".format(profile))
    cfg = PROFILES[profile]
    results = []
    for i, fn in enumerate(CRITERIA, 1):
        res = run_criterion(fn, cfg)
        res["index"] = i
        results.append(res)
    return {
        "profile": profile,
        "criteria": results,
        "pass": all(r["passed"] for r in results),
    }
