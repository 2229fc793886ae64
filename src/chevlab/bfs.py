"""Layered breadth-first closure engine for matrix groups over GF(q).

One engine serves every field.  Matrices are int64 arrays of field encodings
(see gf.py), held as N row codes each: a row's base-q integer, or an np.void
of its bytes when q^N >= 2^63.  A matrix key (`pack`) is the base-q^N integer
of its row codes, or an np.void of their bytes when q^(N*N) >= 2^63.  Row i
of X g depends only on row i of X, so a layer step of `closure` maps the
frontier's distinct rows by every generator in one `linalg.mul` call, keys
each product from that table one generator at a time, keeps first
occurrences (`_unique`: one np.sort of key << b | index when that fits in 63
bits), drops visited keys (np.searchsorted) and gathers the row codes of the
rest.  `orbit_closure` conjugates whole matrices (left multiplication is not
a row map).  Identity generators are dropped, as their products are the
frontier.  Kept rows stay in first-occurrence order, generator-major then
frontier order, so the generator list fixes element order and ball series.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import BallCapExceeded
from .linalg import as_array, identity, invert, matmul, mul

# glibc keeps freed heap blocks resident until malloc_trim hands them back
_malloc_trim = getattr(ctypes.pythonapi, "malloc_trim", lambda pad: 0)


class Ball:
    """The result of a layered closure: its elements' row codes in BFS order,
    layer offsets and the ball series.  Elements are decoded on each read."""

    def __init__(self, F, N, layers, sizes, saturated_at):
        self.F, self.N = F, N
        self.codes = np.concatenate(layers)       # (M, N) row codes, BFS order
        # layer t (word length t) is codes[offsets[t]:offsets[t + 1]]
        self.offsets = np.cumsum([0] + [len(x) for x in layers])
        self.sizes = sizes                        # sizes[t-1] = |A^t|
        self.saturated_at = saturated_at

    def __len__(self):
        return len(self.codes)

    @property
    def elements(self):
        """The (M, N, N) int64 elements in BFS order."""
        return _decode(self.F, self.N, self.codes)

    def keys(self):
        """The key (`pack`) of each element, in BFS order."""
        return _code(self.codes, self.F.q ** self.N)

    def layer(self, t):
        return _decode(self.F, self.N, self.codes[self.offsets[t]:self.offsets[t + 1]])

    def size_at(self, t):
        """|A^t|, held at the last size computed for t past it."""
        if t < 1:
            raise ValueError("t must be >= 1")
        return self.sizes[min(t, len(self.sizes)) - 1]

    def depth_array(self):
        """Word length of each element, in BFS order."""
        return np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))

    def mats(self):
        """Iterate elements as flat tuples of ints in BFS order."""
        for start in range(0, len(self), 4096):
            flat = _decode(self.F, self.N, self.codes[start:start + 4096])
            yield from map(tuple, flat.reshape(len(flat), -1).tolist())


def _code(a, base):
    """The last axis of `a` as one base-`base` int64 when it fits, else as np.void bytes."""
    n = a.shape[-1]
    if base ** n < 1 << 63:
        return a @ base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, n * a.itemsize)))[..., 0]


def _decode(F, N, codes):
    """The (..., N) int64 rows of an (...) array of row codes."""
    if codes.dtype == np.int64:
        return codes[..., None] // F.q ** np.arange(N - 1, -1, -1, dtype=np.int64) % F.q
    return codes[..., None].view(np.int64).copy()


def pack(F, N, X):
    """One sortable key per matrix of the (M, N, N) array X."""
    return _code(_code(X.reshape(-1, N, N), F.q), F.q ** N)


def keys_of(F, N, mats):
    """The sorted distinct keys of a collection of flat matrices."""
    return np.unique(pack(F, N, as_array(F, N, mats)))


def symmetry_fault(F, N, mats):
    """Why a list of flat invertible matrices is not a symmetric set holding
    the identity, or None if it is one: symmetric means that its sorted
    distinct keys equal those of its inverses."""
    if identity(N) not in mats:
        return "must contain the identity"
    X = as_array(F, N, mats)
    if not np.array_equal(keys_of(F, N, X), keys_of(F, N, invert(F, X))):
        return "must be symmetric"


def _unique(keys, inverse=False):
    """np.unique(keys, return_index=True, return_inverse=inverse).  Keys of
    nonnegative int64 that fit in 63 bits with their index are sorted as key
    << b | index, so equal keys come out in index order; others by argsort."""
    n = len(keys)
    b = max(n - 1, 0).bit_length()
    if keys.dtype == np.int64 and n and keys.min() >= 0 and int(keys.max()) >> (63 - b) == 0:
        keys = keys << b    # a new array: the steps below work in place to bound memory
        keys |= np.arange(n)
        keys.sort()
        order = keys & ((1 << b) - 1)
        keys >>= b
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    fresh = np.ones(n, dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    if not inverse:
        return keys[fresh], order[fresh]
    where = np.empty(n, dtype=np.intp)
    where[order] = np.cumsum(fresh) - 1
    return keys[fresh], order[fresh], where


def _step(keys, visited):
    """The indices of unvisited keys, first occurrences only, and the visited
    keys with theirs merged in."""
    keys, first = _unique(keys)
    pos = np.searchsorted(visited, keys)
    new = visited[np.minimum(pos, len(visited) - 1)] != keys
    return np.sort(first[new]), np.insert(visited, pos[new], keys[new])


def closure(F, N, gens, cap=10 ** 7, t_max=None):
    """BFS over words in `gens` from the identity, up to t_max or saturation:
    a Ball whose sizes[t-1] counts the words of length at most t, the empty
    word included, so it is the t-ball |A^t| when gens holds the identity.
    Raises BallCapExceeded once a layer takes the ball past cap."""
    if t_max is not None and t_max < 1:
        raise ValueError("t_max must be >= 1")
    gens = as_array(F, N, gens)
    gens = gens[~(gens == np.eye(N, dtype=np.int64)).all(axis=(1, 2))]
    frontier = _code(np.eye(N, dtype=np.int64), F.q)[None]
    visited = _code(frontier, F.q ** N)
    layers = [frontier]
    sizes, saturated_at = [], None
    t = 0
    while True:
        t += 1
        rows, _, inverse = _unique(frontier.ravel(), inverse=True)
        images = _code(mul(F, _decode(F, N, rows), gens), F.q)
        inverse = inverse.reshape(-1, N)
        keys = np.concatenate([visited[:0]] + [_code(x[inverse], F.q ** N) for x in images])
        keep, visited = _step(keys, visited)
        frontier = images[(keep // len(inverse))[:, None], inverse[keep % len(inverse)]]
        sizes.append(len(visited))
        if not len(frontier):
            saturated_at = t - 1
            break
        layers.append(frontier)
        if len(visited) > cap:
            raise BallCapExceeded("closure exceeded cap {}".format(cap))
        if t_max is not None and t >= t_max:
            break
    ball = Ball(F, N, layers, sizes, saturated_at)
    del layers, rows, inverse, images, keys, keep, visited
    _malloc_trim(0)     # so that a caller's peak memory does not stack on the freed layers
    return ball


def orbit_closure(F, N, gens, start, cap=10 ** 7):
    """Orbit of `start` under conjugation x -> g x g^-1 by the generators,
    as the sorted array of its keys."""
    garr = as_array(F, N, gens)
    garr = garr[~(garr == np.eye(N, dtype=np.int64)).all(axis=(1, 2))]
    giarr = invert(F, garr)
    frontier = as_array(F, N, start)
    visited = pack(F, N, frontier)
    while len(frontier):
        prods = matmul(F, garr[:, None], mul(F, frontier, giarr))
        keep, visited = _step(pack(F, N, prods), visited)
        frontier = prods.reshape(-1, N, N)[keep]
        if len(visited) > cap:
            raise BallCapExceeded("orbit exceeded cap {}".format(cap))
    return visited
