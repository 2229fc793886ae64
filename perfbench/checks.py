"""Checks of program outputs against the independent computations in oracles.

Each check takes plain data (arrays, lists, dicts) pulled out of a program
result, so that the self-test can hand it corrupted copies.  A check raises
oracles.CheckFailed on the first disagreement.
"""

from __future__ import annotations

import numpy as np

from oracles import (
    cayley_hamilton_holds,
    has_repeated_root,
    ln_close,
    locate,
    rank,
    require,
)

def series_against_reference(sizes, saturated_at, ref):
    """The program's ball series equals the reference closure's."""
    n = len(ref.sizes)
    require(list(sizes[:n]) == [int(s) for s in ref.sizes],
            "ball series {} != reference {}".format(list(sizes[:n]), ref.sizes))
    require(all(s == ref.sizes[-1] for s in sizes[n:]),
            "series moves after the reference saturates")
    want_sat = len(ref.layers) - 1 if ref.saturated else None
    require(saturated_at == want_sat,
            "saturated_at {} != reference {}".format(saturated_at, want_sat))


def layers_against_reference(field, elements, sizes, ref):
    """Each BFS layer holds exactly the reference layer's elements."""
    keys = field.keys(elements)
    require(len(keys) == len(ref), "{} elements, reference has {}".format(
        len(keys), len(ref)))
    bounds = [0, 1] + [int(s) for s in sizes[:len(ref.layers) - 1]]
    for t, layer in enumerate(ref.layers):
        got = np.sort(keys[bounds[t]:bounds[t + 1]])
        want = np.sort(field.keys(layer))
        require(got.shape == want.shape and (got == want).all(),
                "layer {} differs from the reference".format(t))


def series_properties(sizes, saturated_at, order, a1):
    """Strictly increasing until saturation, ends at |G|, and
    |A^(t+1)| <= |A^t| |A|."""
    require(saturated_at is not None, "closure did not saturate")
    require(len(sizes) >= saturated_at >= 1, "saturated_at out of range")
    head = list(sizes[:saturated_at])
    require(head[0] == a1, "|A^1| = {} != |A| = {}".format(head[0], a1))
    require(all(x < y for x, y in zip(head, head[1:])),
            "series not strictly increasing before saturation")
    require(all(s == head[-1] for s in sizes[saturated_at:]),
            "series moves after saturation")
    require(head[-1] == order, "series ends at {} != |G| = {}".format(head[-1], order))
    require(all(y <= x * a1 for x, y in zip(head, head[1:])),
            "|A^(t+1)| > |A^t| |A|")


def bfs_layers(field, elements, sizes, saturated_at, gens, chunk=1 << 18):
    """The layers the series cuts from the element list are the word-length
    spheres of a symmetric generating set: the identity comes first, every
    product x*g is listed, lies at most one layer from x, and each element
    past the identity has a neighbour one layer down."""
    N = elements.shape[-1]
    keys = field.keys(elements)
    counts = np.diff([0, 1] + [int(s) for s in sizes[:saturated_at]])
    require(int(counts.sum()) == len(keys) and (counts > 0).all(),
            "series does not partition the element list into layers")
    require(bool((elements[0] == np.eye(N, dtype=np.int64)).all()),
            "the identity is not first")
    depth = np.repeat(np.arange(len(counts)), counts)
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    for lo in range(0, len(keys), chunk):
        block = elements[lo:lo + chunk]
        d = depth[lo:lo + chunk]
        lowest = d.copy()
        for g in np.asarray(gens, dtype=np.int64).reshape(-1, N, N):
            nk = field.keys(field.matmul(block, g))
            pos = locate(sorted_keys, nk)
            require(bool((sorted_keys[pos] == nk).all()), "a product x*g is missing")
            nd = depth[by_key[pos]]
            require(bool((np.abs(nd - d) <= 1).all()), "x and x*g are two layers apart")
            lowest = np.minimum(lowest, nd)
        require(bool((lowest[d > 0] == d[d > 0] - 1).all()),
                "an element has no neighbour one layer down")


def distinct_elements(field, elements, count):
    keys = field.keys(elements)
    require(len(keys) == count, "{} elements listed, {} claimed".format(
        len(keys), count))
    require(bool((np.diff(np.sort(keys)) != 0).all()), "closure lists an element twice")


def members(is_member, elements, rng, samples):
    """A seeded sample of the elements satisfies the defining equations."""
    idx = np.array([rng.randrange(len(elements)) for _ in range(samples)])
    require(bool(np.all(is_member(elements[idx]))),
            "a sampled element fails the defining equations")


def orbit_stabilizer(orbit_size, centralizer_size, order):
    require(orbit_size * centralizer_size == order,
            "|orbit| {} * |C(g)| {} != |G| {}".format(
                orbit_size, centralizer_size, order))


def charpoly(field, N, mat, coeffs):
    """Monic, Cayley-Hamilton, c_(N-1) = -tr and c_0 = (-1)^N det."""
    coeffs = [int(c) for c in coeffs]
    require(len(coeffs) == N + 1 and coeffs[N] == 1, "char poly not monic of degree N")
    tr = 0
    for i in range(N):
        tr = field.add(tr, mat[i * N + i])
    require(coeffs[N - 1] == field.neg(tr), "c_(N-1) != -trace")
    det = field.det(mat, N)
    require(coeffs[0] == (det if N % 2 == 0 else field.neg(det)), "c_0 != (-1)^N det")
    require(cayley_hamilton_holds(field, N, mat, coeffs), "Cayley-Hamilton fails")


def regular_semisimple_flag(field, coeffs, flag):
    require(flag == (not has_repeated_root(field, coeffs)),
            "regular-semisimple flag disagrees with gcd(f, f')")


def rank_equals(field, rows, claimed, expected):
    require(claimed == expected, "claimed rank {} != (ell+1) dim t = {}".format(
        claimed, expected))
    got = rank(field, rows)
    require(got == expected, "recomputed rank {} != {}".format(got, expected))


def escape_witness(depths, escapes, k_found, witness_index, bound):
    """The witness escapes, sits at depth k_found, nothing shallower escapes,
    and k_found is within the bound."""
    require(bool(escapes[witness_index]), "witness does not leave the variety")
    require(int(depths[witness_index]) == k_found, "witness depth != k_found")
    shallower = depths < k_found
    require(not bool(escapes[shallower].any()), "k_found is not minimal")
    require(k_found <= bound, "k_found {} above the bound {}".format(k_found, bound))


def exact_value(reported, exact, label):
    """A LogScaled-style JSON record carries the exact integer and its ln."""
    require(reported["exact"] == str(exact),
            "{}: exact value differs from the benchmark's integer".format(label))
    require(ln_close(reported["ln"], exact),
            "{}: ln differs from math.log by more than 1e-9".format(label))


def ln_matches(ln_reported, ln_wanted, label):
    require(abs(float(ln_reported) - ln_wanted) <= 1e-9 * max(1.0, abs(ln_wanted)),
            "{}: ln {} != {}".format(label, ln_reported, ln_wanted))


def count_equals(got, want, label):
    require(got == want, "{}: {} != {}".format(label, got, want))
