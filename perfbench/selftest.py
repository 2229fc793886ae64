"""Self-test of the benchmark's checks and oracles.

    python3 perfbench/selftest.py

Each check is fed a genuine program output, which it must accept, and
corrupted copies (a dropped or duplicated element, an off-by-one ball size, a
wrong char-poly coefficient, a wrong rank, ...), each of which it must
reject.  The oracles are also tested against brute force.  Exits 1 if any
case goes the wrong way.
"""

from __future__ import annotations

import os
import random
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from chevlab import (  # noqa: E402
    bfs, classify, constants, escape, gf, groups, torus_lab, varieties)
from oracles import CheckFailed, Field  # noqa: E402

RESULTS = []


def expect(label, accept, fn, *args):
    try:
        fn(*args)
        got = True
    except CheckFailed:
        got = False
    RESULTS.append((label, got == accept))
    print("{:4} {} ({})".format("ok" if got == accept else "FAIL", label,
                                "accepted" if got else "rejected"))


class FakeBall:
    def __init__(self, elements, sizes, saturated_at):
        self.elements, self.sizes, self.saturated_at = elements, sizes, saturated_at

    def __len__(self):
        return len(self.elements)


def test_oracles():
    f5 = Field(5)
    own = oracles.sl2_elements(5)
    RESULTS.append(("sl2 enumeration has |SL(2,5)| elements",
                    len(np.unique(f5.keys(own))) == len(own) == oracles.order_sl(2, 5)))
    ref = oracles.ref_closure(f5, 2, [(1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1)])
    RESULTS.append(("reference closure of SL(2,5) is the enumerated group",
                    set(f5.keys(ref.elements()).tolist()) == set(f5.keys(own).tolist())))
    sp = oracles.ref_closure(Field(3), 4, groups.standard_generators(
        groups.GroupSpec("Sp", 2), gf.make_field(3)))
    RESULTS.append(("reference closure of Sp(4,3) has the formula order",
                    len(sp) == oracles.order_sp(4, 3) == 51840))
    f25 = Field(5, 2)
    rng = random.Random(0)
    ok = True
    for _ in range(200):
        a, b, c = (rng.randrange(25) for _ in range(3))
        ok &= f25.mul(a, f25.mul(b, c)) == f25.mul(f25.mul(a, b), c)
        ok &= f25.mul(a, f25.add(b, c)) == f25.add(f25.mul(a, b), f25.mul(a, c))
        ok &= a == 0 or f25.mul(a, f25.inv(a)) == 1
    RESULTS.append(("GF(25) tables satisfy the field axioms on samples", ok))
    RESULTS.append(("Nikolov-Pyber threshold by integer arithmetic",
                    oracles.np_threshold(3, 1, 11) == 798))
    RESULTS.append(("brute-force path count P(5) = 24", workloads._count_paths(5) == 24))
    for label, ok in RESULTS[-6:]:
        print("{:4} {}".format("ok" if ok else "FAIL", label))


def test_ball_checks():
    spec, F, f7 = groups.GroupSpec("SL", 2), gf.make_field(7), Field(7)
    gens = groups.standard_generators(spec, F)
    ball = bfs.closure(F, 2, gens)
    ref = oracles.ref_closure(f7, 2, gens)
    elems = np.asarray(ball.elements).reshape(-1, 2, 2)
    order = oracles.order_sl(2, 7)

    def full(b):
        workloads._check_ball(b, f7, 2, gens, "SL", order, random.Random(1), ref)

    def large(b):
        workloads._check_ball(b, f7, 2, gens, "SL", order, random.Random(1))

    genuine = FakeBall(elems, list(ball.sizes), ball.saturated_at)
    expect("genuine SL(2,7) ball", True, full, genuine)
    expect("genuine SL(2,7) ball, large-group checks", True, large, genuine)
    dropped = FakeBall(elems[:-1], list(ball.sizes), ball.saturated_at)
    expect("dropped element", False, full, dropped)
    expect("dropped element, large-group checks", False, large, dropped)
    dup = elems.copy()
    dup[-1] = dup[0]
    expect("duplicated element", False, full, FakeBall(dup, list(ball.sizes), ball.saturated_at))
    expect("duplicated element, large-group checks", False, large,
           FakeBall(dup, list(ball.sizes), ball.saturated_at))
    for t in (0, 2, len(ball.sizes) - 1):
        sizes = list(ball.sizes)
        sizes[t] += 1
        expect("ball size at t={} off by one".format(t + 1), False, full,
               FakeBall(elems, sizes, ball.saturated_at))
        expect("ball size at t={} off by one, large-group checks".format(t + 1), False,
               large, FakeBall(elems, sizes, ball.saturated_at))
    swapped = elems.copy()
    swapped[[1, -1]] = swapped[[-1, 1]]
    expect("element moved to another layer", False, full,
           FakeBall(swapped, list(ball.sizes), ball.saturated_at))
    foreign = elems.copy()
    foreign[5] = [[2, 0], [0, 2]]  # det 4: not in SL
    expect("non-member in a layer", False, full,
           FakeBall(foreign, list(ball.sizes), ball.saturated_at))
    expect("non-member, large-group checks (sampled)", False,
           lambda: checks.members(workloads._member_check("SL", f7),
                                  foreign[5:6], random.Random(0), 4))
    expect("saturation depth off by one", False, full,
           FakeBall(elems, list(ball.sizes), ball.saturated_at + 1))
    sub = list(ball.sizes)
    sub[1] = sub[0] * sub[0] + 1
    expect("|A^2| > |A|^2", False, checks.series_properties, sub, ball.saturated_at,
           order, sub[0])


def test_orbit_and_escape():
    f7, F = Field(7), gf.make_field(7)
    gens = groups.standard_generators(groups.GroupSpec("SL", 2), F)
    g = (2, 0, 0, 4)
    orbit = bfs.orbit_closure(F, 2, gens, g)
    cen = oracles.centralizer_order_sl(f7, 2, g)
    expect("genuine orbit-stabilizer", True, checks.orbit_stabilizer, len(orbit), cen, 336)
    expect("orbit one element short", False, checks.orbit_stabilizer, len(orbit) - 1, cen, 336)

    terms = {(1, 0, 0, 0): 1, (0, 0, 0, 0): 6}  # x1 - 1
    ref = oracles.ref_closure(f7, 2, gens)
    elems, depths = ref.elements(), ref.depth_array()
    V = varieties.VarietySpec(4, [varieties.Poly(F, 4, terms)], 3, 1)
    inst = escape.EscapeInstance(F, 2, gens, V, (1, 0, 0, 1), "left_multiplication")
    cert = escape.escape_point(inst)
    esc = oracles.poly_eval_batch(terms, elems.reshape(-1, 4), 7) != 0
    keys = f7.keys(elems).tolist()
    w = keys.index(int(f7.keys(np.array(cert.witness).reshape(1, 2, 2))[0]))
    expect("genuine escape witness", True, checks.escape_witness, depths, esc,
           cert.k_found, w, 4)
    expect("escape k_found off by one", False, checks.escape_witness, depths, esc,
           cert.k_found + 1, w, 4)
    stay = int(np.nonzero(~esc & (depths == cert.k_found))[0][0])
    expect("witness that stays on the variety", False, checks.escape_witness, depths,
           esc, cert.k_found, stay, 4)
    deeper = int(np.nonzero(esc & (depths == cert.k_found + 1))[0][0])
    expect("non-minimal escape witness", False, checks.escape_witness, depths, esc,
           cert.k_found + 1, deeper, 4)
    expect("escape k_found above the bound", False, checks.escape_witness, depths, esc,
           cert.k_found, w, cert.k_found - 1)


def test_kernel_checks():
    F25, f25 = gf.make_field(5, 2), Field(5, 2)
    rng = random.Random(3)
    for N in (3, 4):
        m = tuple(rng.randrange(25) for _ in range(N * N))
        coeffs = list(classify.char_poly(F25, N, m))
        expect("genuine char poly over GF(25), N={}".format(N), True,
               checks.charpoly, f25, N, m, coeffs)
        for i in range(N):
            bad = list(coeffs)
            bad[i] = f25.add(bad[i], 1)
            expect("char poly c_{} wrong, N={}".format(i, N), False,
                   checks.charpoly, f25, N, m, bad)

    f7 = Field(7)
    g = workloads._random_word(f7, 4, groups.standard_generators(
        groups.GroupSpec("Sp", 2), gf.make_field(7)), 12, rng)
    rec = classify.classification_record(gf.make_field(7), 4, g)
    coeffs = [int(c) for c in rec["charpoly"]]
    expect("genuine regular-semisimple flag", True, checks.regular_semisimple_flag,
           f7, coeffs, rec["regular_semisimple"])
    expect("flipped regular-semisimple flag", False, checks.regular_semisimple_flag,
           f7, coeffs, not rec["regular_semisimple"])

    f3 = Field(3)
    spec = groups.GroupSpec("SOeven", 4)
    cert = torus_lab.rank_certificate(groups.TorusSpec(spec, (0, 0, 0, 1)),
                                      gf.make_field(3), "lie_bracket", seed=5)
    wits = [w.mat for w in cert.witnesses]
    rows, dim_t = workloads._torus_rows(f3, "SOeven", 4, (0, 0, 0, 1), wits, "lie_bracket")
    expect("genuine torus rank", True, checks.rank_equals, f3, rows,
           cert.achieved_rank, 8 * dim_t)
    expect("claimed torus rank off by one", False, checks.rank_equals, f3, rows,
           cert.achieved_rank + 1, 8 * dim_t)
    rows2, _ = workloads._torus_rows(f3, "SOeven", 4, (0, 0, 0, 1),
                                     wits[:-1] + [wits[0]], "lie_bracket")
    expect("repeated witness (rank drops)", False, checks.rank_equals, f3, rows2,
           cert.achieved_rank, 8 * dim_t)

    c1, _ = constants.clg_constants(2, 1)
    rep = c1.to_json()
    expect("genuine exact constant", True, checks.exact_value, rep, 4 ** 152, "C1")
    expect("exact constant off by one", False, checks.exact_value,
           dict(rep, exact=str(4 ** 152 + 1)), 4 ** 152, "C1")
    expect("ln off by 1e-6", False, checks.exact_value,
           dict(rep, ln=str(float(rep["ln"]) * (1 + 1e-6))), 4 ** 152, "C1")


def main():
    test_oracles()
    test_ball_checks()
    test_orbit_and_escape()
    test_kernel_checks()
    bad = [label for label, ok in RESULTS if not ok]
    print("{} cases, {} wrong".format(len(RESULTS), len(bad)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
