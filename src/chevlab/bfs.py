"""Layered breadth-first closure engine for matrix groups over GF(q).

One engine serves every field.  Matrices are int64 arrays of field encodings
(see gf.py), and one layer step, shared by `closure` and `orbit_closure`:
  * forms the layer's products with one batched field product
    (`linalg.mul`);
  * packs each N x N matrix into one sortable key (`pack`): the base-q
    integer of its entries when q^(N*N) < 2^63, else a fixed-width np.void
    view of its bytes;
  * sorts the keys to drop repeats, keeping each key's first occurrence,
    tests the rest against the sorted visited keys with np.searchsorted, and
    merges the new keys into them.

Kept rows stay in first-occurrence order, which is generator-major then
frontier order, fixed by the input generator list, so element order, depths
and ball series are schedule-independent.
"""

from __future__ import annotations

import numpy as np

from .errors import BallCapExceeded
from .linalg import as_array, identity, invert, matmul, mul


class Ball:
    """The result of a layered closure: elements in BFS order, layer offsets
    and the ball series."""

    def __init__(self, F, N, layers, sizes, saturated_at):
        self.F = F
        self.N = N
        self.elements = np.concatenate(layers)   # (M, N, N) int64, BFS order
        # layer t (word length t) is elements[offsets[t]:offsets[t + 1]]
        self.offsets = np.cumsum([0] + [len(x) for x in layers])
        self.sizes = sizes                        # sizes[t-1] = |A^t|
        self.saturated_at = saturated_at

    def __len__(self):
        return len(self.elements)

    def layer(self, t):
        return self.elements[self.offsets[t]:self.offsets[t + 1]]

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
        flat = self.elements.reshape(len(self), -1)
        for start in range(0, len(flat), 4096):
            yield from map(tuple, flat[start:start + 4096].tolist())


def pack(F, N, X):
    """One sortable key per matrix of the (M, N, N) array X."""
    flat = X.reshape(len(X), N * N)
    if F.q ** (N * N) < 1 << 63:
        return flat @ F.q ** np.arange(N * N - 1, -1, -1, dtype=np.int64)
    dt = np.dtype(np.uint8 if F.q <= 1 << 8 else np.uint16 if F.q <= 1 << 16 else np.uint32)
    raw = np.ascontiguousarray(flat, dtype=dt)
    return raw.view(np.dtype((np.void, N * N * dt.itemsize))).ravel()


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


def _step(F, N, prods, visited):
    """The products not yet visited, first occurrence first, and the visited
    keys with theirs merged in."""
    prods = prods.reshape(-1, N, N)
    keys = pack(F, N, prods)
    # np.unique(return_index=True) sorts stably: three times slower than this
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    keys, first = keys[starts], np.minimum.reduceat(order, starts)
    pos = np.searchsorted(visited, keys)
    new = visited[np.minimum(pos, len(visited) - 1)] != keys
    return prods[np.sort(first[new])], np.insert(visited, pos[new], keys[new])


def closure(F, N, gens, cap=10 ** 7, t_max=None):
    """BFS over words in `gens` starting from the identity.

    Returns a Ball whose sizes sequence is |A^1|, |A^2|, ... up to t_max or
    saturation.  Requires the identity to be in the generated ball semantics:
    sizes are cumulative (gens should contain the identity for |A^t| to mean
    the t-ball of A literally).
    """
    if t_max is not None and t_max < 1:
        raise ValueError("t_max must be >= 1")
    gens = as_array(F, N, gens)
    frontier = np.eye(N, dtype=np.int64)[None]
    visited = pack(F, N, frontier)
    layers = [frontier]
    sizes = []
    saturated_at = None
    t = 0
    while True:
        t += 1
        frontier, visited = _step(F, N, mul(F, frontier, gens), visited)
        sizes.append(len(visited))
        if not len(frontier):
            saturated_at = t - 1
            break
        layers.append(frontier)
        if len(visited) > cap:
            raise BallCapExceeded("closure exceeded cap {}".format(cap))
        if t_max is not None and t >= t_max:
            break
    return Ball(F, N, layers, sizes, saturated_at)


def orbit_closure(F, N, gens, start, cap=10 ** 7):
    """Orbit of `start` under conjugation x -> g x g^-1 by the generators,
    as the sorted array of its keys."""
    garr = as_array(F, N, gens)
    giarr = invert(F, garr)
    frontier = as_array(F, N, start)
    visited = pack(F, N, frontier)
    while len(frontier):
        prods = matmul(F, garr[:, None], mul(F, frontier, giarr))
        frontier, visited = _step(F, N, prods, visited)
        if len(visited) > cap:
            raise BallCapExceeded("orbit exceeded cap {}".format(cap))
    return visited
