"""The three workloads: their seeded inputs, operations and output checks.

`build(name, seed)` returns a list of Op.  Each Op's `run` calls the program
and is the only part that is timed; its `check` compares the result with the
independent computations in oracles.py and runs untimed.  Inputs are made in
`build` from the seed alone, and every round repeats the same operations on
the same inputs, so per-round counts repeat exactly.

All calls go through module attributes (`bfs.closure(...)`), so that the
traced run sees them once trace.py has wrapped the layers.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys

import numpy as np

import checks
import oracles
from chevlab import (
    bfs,
    classify,
    cli,
    constants,
    escape,
    gf,
    groups,
    growth,
    torus_lab,
    varieties,
)
from oracles import Field, require

WORKLOADS = ("closure", "sampled_sets", "kernels")


class Op:
    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def build(name, seed):
    if name == "closure":
        return _closure_ops(seed)
    if name == "sampled_sets":
        return _sampled_ops(seed)
    if name == "kernels":
        return _kernel_ops(seed)
    raise ValueError("unknown workload {!r}".format(name))


def _rng(seed, label):
    return random.Random("{}:{}".format(seed, label))


def _as_array(elements, N):
    return np.asarray(elements, dtype=np.int64).reshape(-1, N, N)


def _member_check(family, field):
    p = field.p
    if family == "Sp":
        return lambda X: oracles.is_symplectic_batch(X, p)
    if field.e == 1:
        return lambda X: oracles.det_batch_modp(X, p) == 1
    return lambda X: np.array([field.det(tuple(int(v) for v in m.ravel()),
                                         X.shape[-1]) == 1 for m in X])


def _random_word(field, N, gens, length, rng):
    """A seeded product of generators, formed with the benchmark's arithmetic."""
    out = tuple(1 if i == j else 0 for i in range(N) for j in range(N))
    for _ in range(length):
        out = field.flat_matmul(out, gens[rng.randrange(len(gens))], N)
    return out


def _same_modulus(F, field):
    """Element encodings only compare when both sides use one modulus."""
    require(F.e == 1 or tuple(F.modulus) == field.modulus,
            "program modulus {} != benchmark modulus {}".format(F.modulus, field.modulus))


class _Lazy:
    """A value computed on first use, so it is built in a check, not in set-up."""

    def __init__(self, make):
        self._make = make
        self._value = None

    def get(self):
        if self._value is None:
            self._value = self._make()
        return self._value


def _check_ball(ball, field, N, gens, family, order, rng, ref=None):
    """Full closure: order, series, distinctness, membership, and the
    reference closure when one is given."""
    elements = _as_array(ball.elements, N)
    checks.count_equals(len(ball), order, "closure size vs |G|")
    checks.distinct_elements(field, elements, order)
    a1 = len(np.unique(field.keys(_as_array(gens, N))))
    checks.series_properties(ball.sizes, ball.saturated_at, order, a1)
    checks.members(_member_check(family, field), elements, rng, 256)
    if ref is None:
        checks.bfs_layers(field, elements, ball.sizes, ball.saturated_at, gens)
    else:
        checks.series_against_reference(ball.sizes, ball.saturated_at, ref)
        checks.layers_against_reference(field, elements, ball.sizes, ref)


# --- closure ---

def _closure_ops(seed):
    ops = []
    sl = lambda n: groups.GroupSpec("SL", n)
    sp2 = groups.GroupSpec("Sp", 2)
    cases = [
        ("SL", sl(2), gf.make_field(127), Field(127), None),
        ("SL", sl(3), gf.make_field(5), Field(5), None),
        ("Sp", sp2, gf.make_field(3), Field(3), None),
        ("SL", sl(2), gf.make_field(5, 2), Field(5, 2), "basis"),
    ]
    refs = {}
    for family, spec, F, field, kind in cases:
        _same_modulus(F, field)
        N = spec.N
        if kind == "basis":
            # transvections along the F_5-basis {1, x} of GF(25) generate
            # SL(2,25); the standard set (parameters +-1) does not
            x = field.p
            gens = [(1, 0, 0, 1)]
            for c in (1, x):
                gens += [(1, c, 0, 1), (1, 0, c, 1)]
        else:
            gens = groups.standard_generators(spec, F)
        order = oracles.checked_order(family, N, field.q)
        small = order <= 60000
        ref = _Lazy(lambda field=field, N=N, gens=gens: oracles.ref_closure(field, N, gens))
        refs[(family, N, field.q)] = (ref, gens, F, field)
        label = "closure {}({},{})".format(family, N, field.q)

        def run(F=F, N=N, gens=gens):
            return bfs.closure(F, N, gens)

        def check(ball, field=field, N=N, gens=gens, family=family, order=order,
                  ref=ref, small=small, label=label):
            _check_ball(ball, field, N, gens, family, order,
                        _rng(seed, label), ref.get() if small else None)

        ops.append(Op(label, run, check))

    # conjugacy-class orbits of seeded elements
    for family, N, q, count in (("Sp", 4, 3, 4), ("SL", 3, 5, 4)):
        ref, gens, F, field = refs[(family, N, q)]
        order = oracles.order(family, N, q)
        rng = _rng(seed, "orbit {}".format(family))
        member = _member_check(family, field)
        for i in range(count):
            g = _random_word(field, N, gens, 40, rng)
            require(bool(member(_as_array([g], N))[0]), "seeded start not in the group")

            def run(F=F, N=N, gens=gens, g=g):
                return bfs.orbit_closure(F, N, gens, g)

            def check(orbit, family=family, field=field, N=N, g=g, ref=ref, order=order):
                if family == "Sp":
                    elems = ref.get().elements()
                    gm = np.array(g, dtype=np.int64).reshape(N, N)
                    comm = ((gm @ elems) % field.p == (elems @ gm) % field.p).all(axis=(1, 2))
                    cen = int(comm.sum())
                else:
                    cen = oracles.centralizer_order_sl(field, N, g)
                checks.orbit_stabilizer(len(orbit), cen, order)

            ops.append(Op("orbit {}({},{}) #{}".format(family, N, q, i), run, check))
    return ops


# --- sampled sets ---

def _sampled_ops(seed):
    ops = []
    plan = ([("SL", 2, 7, 2 + i % 3) for i in range(36)]
            + [("Sp", 2, 3, 2 + i % 3) for i in range(6)]
            + [("SL", 3, 5, 3)])
    fields = {}
    for j, (family, n, q, s) in enumerate(plan):
        spec = groups.GroupSpec(family, n)
        if q not in fields:
            fields[q] = (gf.make_field(q), Field(q))
        F, field = fields[q]
        N = spec.N
        order = oracles.checked_order(family, N, q)
        label = "sampled {}({},{}) s={} #{}".format(family, N, q, s, j)

        def run(spec=spec, F=F, N=N, s=s, order=order, label=label):
            rng = _rng(seed, label)
            rejected = []
            while True:
                A = growth.GenSet.random_symmetric(spec, F, s, rng)
                if len(A) != 2 * s + 1:
                    continue  # an involution or a repeat: keep |A| fixed per slot
                ball = bfs.closure(F, N, A.mats)
                if len(ball) == order:
                    break
                rejected.append((A, ball))
            ruzsa = [growth.ruzsa_check(A, k) for k in (4, 5, 6)]
            return A, ball, ruzsa, growth.olson_check(A), rejected

        def check(out, family=family, field=field, N=N, order=order, label=label):
            A, ball, ruzsa, olson, rejected = out
            mats = _as_array(A.mats, N)
            keys = field.keys(mats)
            ident = field.keys(np.eye(N, dtype=np.int64)[None])[0]
            require(ident in keys, "generating set lacks the identity")
            require(bool(_member_check(family, field)(mats).all()),
                    "generating set holds a non-member")
            prods = field.keys(field.matmul(mats[:, None], mats[None, :]))
            prods = prods.reshape(len(mats), len(mats))
            require(bool((prods == ident).any(axis=1).all()),
                    "generating set is not symmetric")
            a1 = len(np.unique(keys))
            small = order <= 60000
            for B, rb in rejected:
                require(len(rb) < order, "rejected set generates the group")
                if small:
                    ref = oracles.ref_closure(field, N, B.mats)
                    checks.series_against_reference(rb.sizes, rb.saturated_at, ref)
            ref = oracles.ref_closure(field, N, A.mats, None if small else 6)
            _check_ball(ball, field, N, A.mats, family, order, _rng(seed, label),
                        ref if small else None)
            if not small:
                checks.count_equals(list(ball.sizes[:6]), ref.sizes, "first six ball sizes")
                checks.layers_against_reference(
                    field, _as_array(ball.elements, N)[:len(ref)], ball.sizes, ref)
            sizes = ref.sizes + [ref.sizes[-1]] * 6
            for rep, k in zip(ruzsa, (4, 5, 6)):
                checks.count_equals(list(rep["sizes"])[:k], sizes[:k], "Ruzsa sizes")
                lhs = sizes[k - 1] * a1 ** (k - 3)
                rhs = sizes[2] ** (k - 2)
                require(rep["lhs"] == lhs and rep["rhs"] == rhs, "Ruzsa sides differ")
                require(rep["pass"] is True and lhs <= rhs, "Ruzsa inequality fails")
            a3 = sizes[2]
            want = {"|A|": a1, "|A^3|": a3, "order": order,
                    "branch_A3_is_G": a3 == order, "branch_doubling": a3 >= 2 * a1}
            for key, value in want.items():
                checks.count_equals(olson[key], value, "Olson " + key)
            require(olson["pass"] is True and (a3 == order or a3 >= 2 * a1),
                    "Olson dichotomy fails")

        ops.append(Op(label, run, check))

    # tripling sets of Nikolov-Pyber threshold size in SL(2,11)
    spec = groups.GroupSpec("SL", 2)
    F11, f11 = gf.make_field(11), Field(11)
    thr = oracles.np_threshold(3, 1, 11)
    order = oracles.checked_order("SL", 2, 11)
    for j in range(6):
        label = "tripling SL(2,11) #{}".format(j)

        def run(label=label):
            A = growth.GenSet.random_subset(spec, F11, thr - 1, _rng(seed, label))
            return A, growth.np_check(A)

        def check(out, label=label):
            A, rep = out
            mats = _as_array(A.mats, 2)
            keys = f11.keys(mats)
            require(len(np.unique(keys)) == len(keys) == thr, "set size != threshold")
            require(bool(_member_check("SL", f11)(mats).all()), "set holds a non-member")
            a3 = oracles.ref_closure(f11, 2, A.mats, 3).sizes[-1]
            want = {"|A|": thr, "threshold": thr, "skipped": False,
                    "|A^3|": a3, "order": order, "pass": True}
            for key, value in want.items():
                checks.count_equals(rep[key], value, "tripling " + key)
            checks.count_equals(a3, order, "|A^3| vs |G| (tripling theorem)")

        ops.append(Op(label, run, check))
    return ops


# --- kernels ---

def _capture_cli(argv):
    """Run cli.run in-process; return (exit code, stdout bytes)."""
    saved_out, saved_err = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stderr = io.StringIO()
    try:
        code = cli.run(argv)
        sys.stdout.flush()
        return code, sys.stdout.buffer.getvalue()
    finally:
        sys.stdout.detach()
        sys.stdout, sys.stderr = saved_out, saved_err


def _sl2_depths(field, gens):
    ref = oracles.ref_closure(field, 2, gens)
    return ref, ref.elements(), ref.depth_array()


def _count_paths(k):
    """Tuples of vertex-disjoint monotone lattice paths w_i from (2i-k, 0)
    to (0, k-2i), i = 1..k//2, by brute force."""
    def paths(x0, y1):
        out = []

        def walk(x, y, seen):
            if (x, y) == (0, y1):
                out.append(frozenset(seen))
                return
            if x < 0:
                walk(x + 1, y, seen + [(x + 1, y)])
            if y < y1:
                walk(x, y + 1, seen + [(x, y + 1)])
        walk(x0, 0, [(x0, 0)])
        return out

    families = [paths(2 * i - k, k - 2 * i) for i in range(1, k // 2 + 1)]
    count = 0

    def extend(i, used):
        nonlocal count
        if i == len(families):
            count += 1
            return
        for pth in families[i]:
            if not (pth & used):
                extend(i + 1, used | pth)
    extend(0, frozenset())
    return count


def _torus_rows(field, family, n, eta, witnesses, mode):
    """t and the witness images of t, as flat rows, by the benchmark's own
    torus basis and matrix arithmetic."""
    p = field.p
    N = 2 * n + (1 if family == "SOodd" else 0)
    params = oracles.nullspace(field, [[x % p for x in eta]], n)
    basis = []
    for a in params:
        m = np.zeros((N, N), dtype=np.int64)
        for i, x in enumerate(a):
            if family == "Sp":
                m[i, i], m[n + i, n + i] = x, (-x) % p
            else:
                m[2 * i, 2 * i + 1], m[2 * i + 1, 2 * i] = x, (-x) % p
        basis.append(m)
    om = oracles.omega(n) % p if family == "Sp" else None
    rows = [b.ravel().tolist() for b in basis]
    for w in witnesses:
        W = np.array(w, dtype=np.int64).reshape(N, N) % p
        if mode == "lie_bracket":
            if family == "Sp":
                ok = ((W.T @ om + om @ W) % p == 0).all()
            else:
                ok = ((W.T + W) % p == 0).all()
            require(bool(ok), "witness is not in the Lie algebra")
            images = [(W @ b - b @ W) % p for b in basis]
        else:
            if family == "Sp":
                require(bool(oracles.is_symplectic_batch(W[None], p)[0]),
                        "witness is not symplectic")
                Winv = (-om @ W.T @ om) % p
            else:
                require(bool(((W.T @ W) % p == np.eye(N, dtype=np.int64)).all())
                        and field.det(tuple(W.ravel().tolist()), N) == 1,
                        "witness is not in SO")
                Winv = W.T
            images = [(W @ b % p) @ Winv % p for b in basis]
        rows += [m.ravel().tolist() for m in images]
    return rows, len(params)


TORUS_PLANS = (
    ("Sp", 2, 3, 5, ((0, 1), (1, -1), (2, 1))),
    ("SOodd", 3, 3, 11, ((0, 0, 1), (1, 0, 1), (1, 1, 2))),
    ("SOeven", 4, 3, 11, ((0, 0, 0, 1), (1, 0, 2, 1), (0, 1, 1, 1))),
)
TORUS_SEED = 7
ELL = {"Sp": lambda n: 2 * n + 1, "SOodd": lambda n: 2 * n + 1,
       "SOeven": lambda n: 2 * n - 1}


def _kernel_ops(seed):
    ops = []
    sl2 = groups.GroupSpec("SL", 2)
    sp2 = groups.GroupSpec("Sp", 2)

    # regular semisimplicity over all of SL(2,31), and classes of samples
    F31, f31 = gf.make_field(31), Field(31)
    own31 = oracles.sl2_elements(31)
    order31 = oracles.checked_order("SL", 2, 31)

    def run_nonrs():
        M = growth.materialize(sl2, F31)
        return len(M.ball), classify.nonrs_count_in_group(F31, 2, M.ball)

    def check_nonrs(out):
        size, count = out
        checks.count_equals(size, order31, "|SL(2,31)|")
        tr = (own31[:, 0, 0] + own31[:, 1, 1]) % 31
        own = int(((tr * tr) % 31 == 4).sum())
        checks.count_equals(count, 2 * 31 * 31, "non-rs count vs 2q^2")
        checks.count_equals(count, own, "non-rs count vs tr^2 = 4")

    ops.append(Op("nonrs SL(2,31)", run_nonrs, check_nonrs))

    rng = _rng(seed, "classes")
    samples = [tuple(int(v) for v in own31[rng.randrange(len(own31))].ravel())
               for _ in range(4)]
    gens31 = groups.standard_generators(sl2, F31)

    def run_classes():
        M = growth.materialize(sl2, F31)
        return [(classify.centralizer(F31, 2, g, M.ball),
                 classify.conjugacy_class(F31, 2, g, gens31)) for g in samples]

    def check_classes(out):
        for g, (cen, cl) in zip(samples, out):
            gm = np.array(g).reshape(2, 2)
            own = int(((gm @ own31 % 31) == (own31 @ gm % 31)).all(axis=(1, 2)).sum())
            C = _as_array(cen, 2)
            checks.count_equals(len(C), own, "centralizer size")
            require(bool(((gm @ C % 31) == (C @ gm % 31)).all()),
                    "centralizer element does not commute")
            require(bool((oracles.det_batch_modp(C, 31) == 1).all()),
                    "centralizer element not in SL")
            checks.distinct_elements(f31, C, own)
            checks.orbit_stabilizer(len(cl), own, order31)

    ops.append(Op("classes SL(2,31)", run_classes, check_classes))

    # non-rs elements of the 4-ball of Sp(4,3)
    F3, f3 = gf.make_field(3), Field(3)
    A_sp = growth.GenSet.standard(sp2, F3)

    def run_intersect():
        return growth.intersect_count(A_sp, 4, ("nonrs",))

    def check_intersect(rep):
        ref = oracles.ref_closure(f3, 4, A_sp.mats, 4)
        polys = oracles.charpoly_int_batch(ref.elements()) % 3
        uniq, inv = np.unique(polys, axis=0, return_inverse=True)
        bad = np.array([oracles.has_repeated_root(f3, u) for u in uniq])
        checks.count_equals(rep["count"], int(bad[inv.ravel()].sum()), "non-rs in the 4-ball")
        checks.count_equals(rep["ball_size"], ref.sizes[3], "|A^4|")
        checks.count_equals((rep["dim_V"], rep["dim_G"]), (9, 10), "dimensions")

    ops.append(Op("intersect nonrs Sp(4,3) t=4", run_intersect, check_intersect))

    # characteristic polynomials over GF(25)
    F25, f25 = gf.make_field(5, 2), Field(5, 2)
    _same_modulus(F25, f25)
    rng = _rng(seed, "charpoly")
    mats = [(N, tuple(rng.randrange(25) for _ in range(N * N)))
            for N in [3] * 120 + [4] * 60]

    def run_charpoly():
        return [classify.char_poly(F25, N, m) for N, m in mats]

    def check_charpoly(out):
        for (N, m), coeffs in zip(mats, out):
            checks.charpoly(f25, N, m, coeffs)

    ops.append(Op("char_poly GF(25)", run_charpoly, check_charpoly))

    # point count of a split quadric in six variables over F_7
    F7 = gf.make_field(7)
    rng = _rng(seed, "quadric")
    a = [rng.randrange(1, 7) for _ in range(4)]
    text = "{}*x1*x4+{}*x2*x5+{}*x3*x6-{}".format(*a)

    def run_points():
        V = varieties.VarietySpec(6, [varieties.poly_parse(F7, 6, text)], 5, 2)
        return varieties.point_count(V, F7)

    def check_points(rep):
        checks.count_equals(rep["count"], 7 ** 5 - 7 ** 2, "split quadric count q^5 - q^2")
        checks.count_equals((rep["bound"], rep["pass"]), (2 * 7 ** 5, True), "D q^d bound")

    ops.append(Op("point_count quadric F_7", run_points, check_points))

    # escape instances, point route and element route
    for q, count in ((7, 4), (11, 4)):
        F, field = gf.make_field(q), Field(q)
        gens = groups.standard_generators(sl2, F)
        ref, elems, depths = _sl2_depths(field, gens)
        flat = elems.reshape(-1, 4)
        index = {int(k): i for i, k in enumerate(field.keys(elems))}
        rng = _rng(seed, "escape {}".format(q))
        made = 0
        while made < count:
            terms = {}
            for _ in range(3):
                exps = [0, 0, 0, 0]
                for _ in range(rng.randrange(1, 3)):
                    exps[rng.randrange(4)] += 1
                terms[tuple(exps)] = rng.randrange(1, q)
            D = max(sum(e) for e in terms)
            point = elems[rng.randrange(len(elems))]
            moved = (elems @ point % q).reshape(-1, 4)
            esc_point = oracles.poly_eval_batch(terms, moved, q) != 0
            esc_elem = oracles.poly_eval_batch(terms, flat, q) != 0
            if not (esc_point.any() and esc_elem.any()):
                continue
            made += 1
            pt = tuple(int(v) for v in point.ravel())

            def run(F=F, gens=gens, terms=terms, D=D, pt=pt):
                V = varieties.VarietySpec(4, [varieties.Poly(F, 4, terms)], 3, D)
                inst = escape.EscapeInstance(F, 2, gens, V, pt, "left_multiplication")
                return escape.escape_point(inst), escape.shitov_escape(inst)

            def check(out, field=field, index=index, depths=depths, D=D,
                      esc_point=esc_point, esc_elem=esc_elem):
                cert, scert = out
                require(cert.verified_noncontainment is True, "orbit not verified")
                bound = sum(D ** (3 - d + 1) for d in range(4))
                for c, esc, b in ((cert, esc_point, bound),
                                  (scert, esc_elem, 11 * D * 3 ** D * math.log(2))):
                    w = index[int(field.keys(_as_array([c.witness], 2))[0])]
                    checks.escape_witness(depths, esc, c.k_found, w, b)

            ops.append(Op("escape SL(2,{}) #{}".format(q, made), run, check))

    # torus rank certificates, both modes.  The certificate seed is fixed (the
    # acceptance suite's 7), not drawn from the benchmark seed: the greedy
    # completion dead-ends on about 1% of seeds over F_3 (see CHANGES.md),
    # which would make failures depend on the seed.
    for family, n, p_lie, p_adj, etas in TORUS_PLANS:
        spec = groups.GroupSpec(family, n)
        for mode, p, eta_list in (("lie_bracket", p_lie, etas), ("adjoint", p_adj, etas[:1])):
            F, field = gf.make_field(p), Field(p)
            for eta in eta_list:
                t = groups.TorusSpec(spec, eta)

                def run(t=t, F=F, mode=mode):
                    return torus_lab.rank_certificate(t, F, mode, seed=TORUS_SEED)

                def check(cert, field=field, family=family, n=n, eta=eta, mode=mode):
                    rows, dim_t = _torus_rows(field, family, n, eta,
                                              [w.mat for w in cert.witnesses], mode)
                    checks.rank_equals(field, rows, cert.achieved_rank,
                                       (ELL[family](n) + 1) * dim_t)

                ops.append(Op("torus {}({}) {} {}".format(family, n, mode, eta), run, check))

    # constants
    def check_suite(rep):
        want = 2
        for r in range(1, 65):
            want += 14 + 7 * (1 + (r >= 2) + (r >= 3) + (r >= 4))
            if r >= 2:
                want += 3 + (r >= 3)
        checks.count_equals((rep["pass"], rep["failures"], rep["checks"]),
                            (True, [], want), "inequality suite")

    ops.append(Op("proof_inequality_suite(64)",
                  lambda: constants.proof_inequality_suite(64), check_suite))

    appendix_args = [(r, d, D) for r in range(1, 5) for d in range(2 * r * r + r)
                     for D in (1, 2)]

    def check_appendix(reps):
        for (r, d, D), rep in zip(appendix_args, reps):
            _check_appendix(rep, r, d, D)

    ops.append(Op("appendix chains r<=4",
                  lambda: [constants.appendix_constants(*a) for a in appendix_args],
                  check_appendix))

    def run_exact():
        out = []
        for r in (1, 2):
            c1, c2 = constants.clg_constants(r, 1)
            out.append((c1.to_json(), (2 * r) ** (38 * r * r)))
            out.append((c2.to_json(), (2 * r) ** (21 * r * r) + 2))
            out.append((constants.diameter_exponent(r)[1].to_json(), (2 * r) ** (6 * r)))
            (m1, _), (m2, _) = constants.growth_pairs(r, 1)
            out.append((m1.to_json(), (2 * r) ** (45 * r ** 3)))
            out.append((m2.to_json(), (2 * r) ** (22 * r * r) + 8))
            if r >= 2:
                _, t2, t1 = constants.torus_constants(r, 1)
                out.append((t1.to_json(), (2 * r) ** (19 * r * r)))
                out.append((t2.to_json(), (2 * r) ** (45 * r ** 3 - 1)))
        return out

    def check_exact(out):
        for rep, exact in out:
            checks.exact_value(rep, exact, "constant")

    ops.append(Op("exact constants r<=2", run_exact, check_exact))

    # the README CLI examples, run in-process
    for argv, check in _cli_examples(seed):
        def run(argv=argv):
            return _capture_cli(argv)

        def check_cli(out, check=check, argv=argv):
            code, data = out
            checks.count_equals(code, 0, "exit code of " + " ".join(argv))
            check(data)

        ops.append(Op("cli " + " ".join(argv[:1] + argv[2:5]), run, check_cli))
    return ops


def _check_appendix(rep, r, d, D):
    e_d = (d + 1) * (4 * r * r + 2 * r - d) // 2
    k = 2 * (2 * r + 1) ** ((2 * r + 1) ** 2)
    checks.count_equals((rep["pass"], rep["e_d"]), (True, e_d), "appendix e(d)")
    checks.ln_matches(rep["k_ln"], math.log(k), "appendix ln k")
    if d >= 1:
        checks.exact_value(rep["C2"], (2 ** e_d - 1) * k + 2 ** e_d, "appendix C2")
    else:
        checks.exact_value(rep["C1"], 2 * D, "appendix C1(0, D)")


def _json(data):
    return json.loads(data.decode())


def _cli_examples(seed):
    """(argv, check) pairs for the README examples, `verify` excluded."""
    rng = _rng(seed, "cli")
    f7, f3, f5, f11 = Field(7), Field(3), Field(5), Field(11)
    std = lambda q: [(1, 0, 0, 1), (1, 1, 0, 1), (1, q - 1, 0, 1), (1, 0, 1, 1), (1, 0, q - 1, 1)]
    out = []

    def order_formula(data):
        checks.count_equals(_json(data)["order"], oracles.checked_order("SL", 2, 5), "order")
    out.append((["order", "--group", "SL", "--n", "2", "--q", "5"], order_formula))

    def order_bfs(data):
        rep = _json(data)
        want = oracles.checked_order("Sp", 4, 3)
        checks.count_equals((rep["order"], rep["bfs_order"], rep["agree"]),
                            (want, want, True), "order --method bfs")
    out.append((["order", "--group", "Sp", "--n", "2", "--q", "3", "--method", "bfs"], order_bfs))

    def diameter(data):
        ref = oracles.ref_closure(f7, 2, std(7))
        rep = _json(data)
        checks.count_equals((rep["diameter"], rep["size"]), (len(ref.layers) - 1, 5), "diameter")
    out.append((["diameter", "--group", "SL", "--n", "2", "--q", "7"], diameter))

    def growth_csv(data):
        ref = oracles.ref_closure(f5, 2, std(5), 6)
        elems, depths = ref.elements(), ref.depth_array()
        diag = (elems[:, 0, 1] == 0) & (elems[:, 1, 0] == 0)
        sizes = ref.sizes + [ref.sizes[-1]] * 6
        want = ["t,ball_size,target_count"] + [
            "{},{},{}".format(t, sizes[t - 1], int((diag & (depths <= t)).sum()))
            for t in range(1, 7)]
        checks.count_equals(data.decode().splitlines(), want, "growth csv")
    out.append((["growth", "--group", "SL", "--n", "2", "--q", "5", "--t-max", "6",
                 "--target", "torus", "--format", "csv"], growth_csv))

    def growth_np(data):
        rep = _json(data)
        thr = oracles.np_threshold(3, 1, 11)
        want = {"threshold": thr, "|A|": 799, "skipped": False, "pass": True,
                "|A^3|": oracles.checked_order("SL", 2, 11)}
        require(thr <= 799, "threshold above the set size")
        for key, value in want.items():
            checks.count_equals(rep[key], value, "growth np " + key)
    out.append((["growth", "--group", "SL", "--n", "2", "--q", "11", "--gens", "subset",
                 "--size", "798", "--check", "np", "--seed", str(rng.randrange(10 ** 6))],
                growth_np))

    def escape_ex(data):
        rep = _json(data)
        ref = oracles.ref_closure(f7, 2, std(7))
        elems, depths = ref.elements(), ref.depth_array()
        w = tuple(int(v) for v in rep["witness"].split(","))
        keys = f7.keys(elems)
        idx = int(np.nonzero(keys == f7.keys(_as_array([w], 2))[0])[0][0])
        require(rep["verified_noncontainment"] is True, "orbit not verified")
        checks.escape_witness(depths, elems[:, 0, 0] != 1, rep["k_found"], idx, 3)
    out.append((["escape", "--group", "SL", "--n", "2", "--q", "7", "--variety",
                 "ambient=4 dim=2 deg=1; x1-1", "--point", "1,0,0,1"], escape_ex))

    sp_gens = groups.standard_generators(groups.GroupSpec("Sp", 2), gf.make_field(7))
    g = _random_word(f7, 4, sp_gens, 12, rng)
    require(bool(oracles.is_symplectic_batch(_as_array([g], 4), 7)[0]), "sample not symplectic")

    def classify_ex(data):
        rep = _json(data)
        coeffs = [int(c) for c in rep["charpoly"]]
        want = oracles.charpoly_int_batch(_as_array([g], 4))[0] % 7
        checks.count_equals(coeffs, want.tolist(), "classify charpoly")
        checks.regular_semisimple_flag(f7, coeffs, rep["regular_semisimple"])
        checks.count_equals(rep["disc"] == "0", not rep["regular_semisimple"], "disc vs flag")
    out.append((["classify", "--group", "Sp", "--n", "2", "--q", "7", "--matrix",
                 ",".join(str(v) for v in g)], classify_ex))

    def degree(data):
        rep = _json(data)
        exact = _count_paths(5)
        checks.count_equals(
            (rep["exact"], rep["table_bound"]["exact"], rep["class_bound"]["factorial_form"],
             rep["class_bound"]["closed_form"], rep["pass"]),
            (exact, str(2 ** 8), 6 * exact, 2 ** 12 * 2 ** 4, True), "degree Sp_4")
    out.append((["degree", "--group", "Sp", "--n", "2"], degree))

    def clg(data):
        rep = _json(data)
        checks.exact_value(rep["C1"], 4 ** 152, "clg C1")
        checks.exact_value(rep["C2"], 4 ** 84 + 2, "clg C2")
    out.append((["constants", "--which", "clg", "--r", "2"], clg))

    def appendix(data):
        _check_appendix(_json(data), 2, 1, 1)
    out.append((["constants", "--which", "appendix", "--r", "2", "--d", "1", "--D", "1"],
                appendix))

    def torus_cert(data):
        rep = _json(data)
        wits = [[int(v) for v in w.split(",")] for w in rep["witnesses"]]
        rows, dim_t = _torus_rows(f3, "SOeven", 4, (0, 0, 0, 1), wits, "lie_bracket")
        checks.count_equals(rep["expected_rank"], 8 * dim_t, "torus expected rank")
        checks.rank_equals(f3, rows, rep["achieved_rank"], 8 * dim_t)
    out.append((["torus-cert", "--group", "SOeven", "--n", "4", "--q", "3",
                 "--eta", "0,0,0,1"], torus_cert))
    return out
