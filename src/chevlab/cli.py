"""Command-line interface.

Every subcommand builds a plain-dict report and emits it as canonical JSON:
sorted keys, compact separators, floats rendered as 12-significant-digit
decimal strings, one trailing newline.  A growth series or target count can
be CSV instead, a str that `emit` writes as it is; a --check report cannot.  Exit codes: 0 ok, 2 usage or input error, 3 a cap was exceeded,
4 a hypothesis/precondition fails, 5 a checked mathematical statement failed.

No environment variable is read, so identical argv (and variety files) give
identical report bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import (
    acceptance,
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
from .errors import ArtifactError, CapError, HypothesisError, TheoremError
from .logscaled import LogScaled, _decimal


def emit(report):
    """Render a report to canonical bytes: a str (CSV) as itself, ending in a
    newline, anything else as canonical JSON."""
    if isinstance(report, str):
        return (report if report.endswith("\n") else report + "\n").encode()
    return (_json(report) + "\n").encode()


def _json(x):
    """Compact JSON with keys sorted as strings; floats, Fractions and other
    objects become strings, floats to 12 significant digits.  Integers stay
    JSON numbers at any size: their digits come from logscaled._decimal,
    because json.dumps, like str(), refuses integers past 4,300 digits."""
    if isinstance(x, LogScaled):
        return _json(x.to_json())
    if isinstance(x, dict):
        items = sorted((str(k), v) for k, v in x.items())
        return "{" + ",".join(json.dumps(k) + ":" + _json(v) for k, v in items) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(map(_json, x)) + "]"
    if isinstance(x, (bool, str)) or x is None:
        return json.dumps(x)
    if isinstance(x, int):
        return "-" * (x < 0) + _decimal(abs(x))
    if isinstance(x, float):
        return json.dumps("{:.12g}".format(x))
    return json.dumps(str(x) if isinstance(x, Fraction) else repr(x))


def _field(q):
    """The field of a group command; characteristic 2 is out of scope."""
    p, e = groups._require_odd_char(q)
    return gf.make_field(p, e)


def _spec(args):
    return groups.GroupSpec(args.group, args.n)


def _parse_eta(text):
    return tuple(int(x) for x in text.split(","))


def _genset(args, spec, F):
    if args.gens == "standard":
        return growth.GenSet.standard(spec, F)
    if args.size < 0:
        raise ValueError("--size must be >= 0, got {}".format(args.size))
    rng = random.Random(args.seed)
    if args.gens == "random":
        return growth.GenSet.random_symmetric(spec, F, args.size, rng)
    return growth.GenSet.random_subset(spec, F, args.size, rng)


def _add_group_args(p, with_q=True):
    p.add_argument("--group", required=True,
                   choices=("SL", "Sp", "SOeven", "SOodd"))
    p.add_argument("--n", required=True, type=int)
    if with_q:
        p.add_argument("--q", required=True, type=int)


def _add_gen_args(p):
    p.add_argument("--gens", default="standard",
                   choices=("standard", "random", "subset"))
    p.add_argument("--size", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=10 ** 7)


def _parse_target(text, F):
    if text is None:
        return None
    if text == "torus":
        return ("torus", ())
    if text == "nonrs":
        return ("nonrs",)
    kind, _, rest = text.partition(":")
    if kind == "class":
        return ("class", tuple(F.parse(v) for v in rest.split(",")))
    if kind == "torus":
        return ("torus", _parse_eta(rest))
    if kind == "torus_nonrs":
        return ("torus_nonrs", _parse_eta(rest) if rest else ())
    raise ValueError("unknown target {!r}".format(text))


def _cmd_order(args):
    spec = _spec(args)
    report = {
        "group": spec.ser(args.q),
        "q": args.q,
        "method": args.method,
        "order": groups.group_order(spec, args.q),
    }
    if args.method == "bfs":
        F = _field(args.q)
        from . import bfs
        ball = bfs.closure(F, spec.N, groups.standard_generators(spec, F),
                           cap=args.cap)
        report["bfs_order"] = len(ball)
        report["agree"] = report["bfs_order"] == report["order"]
    return report


def _cmd_diameter(args):
    spec = _spec(args)
    F = _field(args.q)
    A = _genset(args, spec, F)
    d = growth.diameter(A, cap=args.cap)
    return {
        "group": spec.ser(args.q),
        "q": args.q,
        "gens": args.gens,
        "size": len(A),
        "seed": args.seed,
        "cap": args.cap,
        "diameter": d,
        "bound_exponent": constants.diameter_exponent(spec.r)[0],
        "hypotheses": groups.hypotheses_ok(spec, args.q, "main"),
    }


def _cmd_growth(args):
    if args.check and args.format == "csv":
        raise ValueError("--check reports are JSON only; drop --format csv")
    spec = _spec(args)
    F = _field(args.q)
    A = _genset(args, spec, F)
    base = {"group": spec.ser(args.q), "q": args.q, "gens": args.gens,
            "seed": args.seed, "cap": args.cap}
    if args.check == "ruzsa":
        base.update(growth.ruzsa_check(A, args.k, cap=args.cap))
        return base
    if args.check == "olson":
        base.update(growth.olson_check(A, cap=args.cap))
        return base
    if args.check == "np":
        base.update(growth.np_check(A, cap=args.cap))
        return base
    if args.check == "dichotomy":
        base.update(growth.growth_dichotomy_check(A, args.l, cap=args.cap))
        return base
    target = _parse_target(args.target, F)
    if args.format == "csv":
        return growth.series_csv(A, args.t_max, target, cap=args.cap)
    if target is not None:
        base.update(growth.intersect_count(A, args.t_max, target,
                                           cap=args.cap))
        return base
    ball = growth.ball_series(A, args.t_max, cap=args.cap)
    base["ball_sizes"] = [ball.size_at(t) for t in range(1, args.t_max + 1)]
    base["saturated_at"] = ball.saturated_at
    return base


def _cmd_escape(args):
    spec = _spec(args)
    F = _field(args.q)
    A = _genset(args, spec, F)
    text = args.variety
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    V = varieties.variety_loads(F, text.replace(";", "\n"))
    point = tuple(F.parse(v) for v in args.point.split(","))
    inst = escape.EscapeInstance(F, spec.N, A.mats, V, point, args.action)
    if args.route == "element":
        cert = escape.shitov_escape(inst, cap=args.cap)
    else:
        cert = escape.escape_point(inst, cap=args.cap)
    return {
        "group": spec.ser(args.q),
        "route": args.route,
        "action": args.action,
        "k_found": cert.k_found,
        "bound": cert.bound,
        "witness": linalg.mat_ser(F, spec.N, cert.witness),
        "verified_noncontainment": cert.verified_noncontainment,
        "seed": args.seed,
        "cap": args.cap,
    }


def _cmd_classify(args):
    spec = _spec(args)
    F = _field(args.q)
    mat = linalg.mat_parse(F, spec.N, args.matrix)
    g = groups.GroupElement(spec, F, mat)  # validates membership
    record = classify.classification_record(F, spec.N, g.mat)
    record["group"] = spec.ser(args.q)
    return record


def _cmd_degree(args):
    spec = _spec(args)
    exact, bound, ok = degrees.degree_bound_check(spec)
    return {
        "group": "{}_{}".format(spec.family, spec.n),
        "exact": exact,
        "table_bound": bound,
        "class_bound": degrees.cl_degree_bound(spec),
        "pass": ok,
    }


def _cmd_constants(args):
    which = args.which
    r = args.r
    if which == "clg":
        c1, c2 = constants.clg_constants(r, args.t)
        return {"which": which, "r": r, "t": args.t, "C1": c1, "C2": c2}
    if which == "torus":
        c1, c2, c1_full = constants.torus_constants(r, args.t)
        return {"which": which, "r": r, "t": args.t,
                "C1": c1, "C2": c2, "C1_full": c1_full}
    if which == "growth":
        pairs = constants.growth_pairs(r, args.l)
        return {"which": which, "r": r, "l": args.l,
                "pairs": [{"m": m, "eps": eps} for m, eps in pairs]}
    if which == "diameter":
        exponent, q_threshold = constants.diameter_exponent(r)
        return {"which": which, "r": r, "exponent": exponent,
                "q_threshold": q_threshold}
    if which == "appendix":
        return constants.appendix_constants(r, args.d, args.D, args.t)
    if which == "suite":
        return constants.proof_inequality_suite(r)
    if which == "asymptotic":
        out = constants.asymptotic_constants(r)
        out["which"] = which
        return out
    raise ValueError("unknown constants selector {!r}".format(which))


def _cmd_torus_cert(args):
    spec = _spec(args)
    F = _field(args.q)
    t = groups.TorusSpec(spec, _parse_eta(args.eta))
    mode = "adjoint" if args.mode == "adjoint" else "lie_bracket"
    cert = torus_lab.rank_certificate(t, F, mode, seed=args.seed)
    return {
        "group": spec.ser(args.q),
        "eta": list(t.eta),
        "mode": cert.mode,
        "seed": cert.seed,
        "achieved_rank": cert.achieved_rank,
        "expected_rank": (spec.ell + 1) * (spec.r - 1),
        "flags": cert.flags,
        "witnesses": [w.ser() for w in cert.witnesses],
    }


def _cmd_verify(args):
    report = acceptance.run_all(args.profile)
    for crit in report["criteria"]:
        sys.stdout.write("criterion {} [{}]: {}\n".format(
            crit["index"], crit["name"],
            "PASS" if crit["passed"] else "FAIL"))
    sys.stdout.flush()
    return report


def build_parser():
    ap = argparse.ArgumentParser(
        prog="chevlab",
        description="Computational laboratory for finite classical matrix "
                    "groups: orders, diameters, growth, escape, and "
                    "explicit constants.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="group order by formula and/or BFS")
    _add_group_args(p)
    p.add_argument("--method", default="formula", choices=("formula", "bfs"))
    p.add_argument("--cap", type=int, default=10 ** 7)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("diameter", help="exact Cayley-graph diameter")
    _add_group_args(p)
    _add_gen_args(p)
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser("growth", help="ball series, targets, growth checks")
    _add_group_args(p)
    _add_gen_args(p)
    p.add_argument("--t-max", type=int, default=6)
    p.add_argument("--target", default=None)
    p.add_argument("--check", default=None,
                   choices=("ruzsa", "olson", "np", "dichotomy"))
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("escape", help="escape-from-subvariety certificates")
    _add_group_args(p)
    _add_gen_args(p)
    p.add_argument("--variety", required=True,
                   help="variety description: a file path, or inline text "
                        "'ambient=m dim=d deg=D; poly; poly'")
    p.add_argument("--point", required=True, help="comma-separated coords")
    p.add_argument("--action", default="left_multiplication",
                   choices=("left_multiplication", "conjugation"))
    p.add_argument("--route", default="point", choices=("point", "element"))
    p.set_defaults(func=_cmd_escape)

    p = sub.add_parser("classify", help="regular-semisimplicity record")
    _add_group_args(p)
    p.add_argument("--matrix", required=True,
                   help="comma-separated flat matrix entries")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("degree", help="exact degree vs table bound")
    _add_group_args(p, with_q=False)
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("constants", help="explicit constants and suites")
    p.add_argument("--which", required=True,
                   choices=("clg", "torus", "growth", "diameter",
                            "appendix", "suite", "asymptotic"))
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--D", type=int, default=1)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("torus-cert", help="torus independence certificate")
    _add_group_args(p)
    p.add_argument("--eta", required=True, help="comma-separated integers")
    p.add_argument("--mode", default="lie", choices=("lie", "adjoint"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_torus_cert)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--profile", default="quick", choices=("quick", "desk"))
    p.set_defaults(func=_cmd_verify)

    return ap


def run(argv=None):
    """Parse argv, run the subcommand, write the report; return exit code."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        report = args.func(args)
    except CapError as exc:
        sys.stderr.write("cap exceeded: {}\n".format(exc))
        return 3
    except HypothesisError as exc:
        sys.stderr.write("hypothesis fails: {}\n".format(exc))
        return 4
    except TheoremError as exc:
        sys.stderr.write("theorem check failed: {}\n".format(exc))
        return 5
    except (ArtifactError, ValueError) as exc:
        sys.stderr.write("error: {}\n".format(exc))
        return 2
    sys.stdout.buffer.write(emit(report))
    sys.stdout.flush()
    if args.command == "verify" and not report["pass"]:
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
