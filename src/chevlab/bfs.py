"""Layered breadth-first closure engine for matrix groups over GF(q).

One engine serves every field.  Matrices are int64 arrays of field encodings
(see gf.py), and one layer step, shared by `closure` and `orbit_closure`:
  * forms the layer's products with one batched field product (`mul`);
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

import math

import numpy as np

from .errors import BallCapExceeded
from .linalg import inv


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
        self._index = None

    def __len__(self):
        return len(self.elements)

    def layer(self, t):
        return self.elements[self.offsets[t]:self.offsets[t + 1]]

    def depth_array(self):
        """Word length of each element, in BFS order."""
        return np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))

    def key_of(self, mat):
        return key_of(self.F, mat)

    def depth_of(self, mat):
        if self._index is None:
            keys = pack(self.F, self.N, self.elements)
            order = np.argsort(keys)
            self._index = keys[order], order
        keys, order = self._index
        key = self.key_of(mat)
        i = np.searchsorted(keys, key)
        if i == len(keys) or keys[i] != key:
            return None
        return int(np.searchsorted(self.offsets, order[i], side="right")) - 1

    def mats(self):
        """Iterate elements as flat tuples of ints in BFS order."""
        flat = self.elements.reshape(len(self), -1)
        for start in range(0, len(flat), 4096):
            yield from map(tuple, flat[start:start + 4096].tolist())


def as_array(F, N, mats):
    """Flat matrices as an (M, N, N) int64 array of encodings."""
    arr = np.array(mats, dtype=np.int64).reshape(-1, N, N)
    return arr % F.p if F.e == 1 else arr


def _digits(F, a):
    """The F_p coordinates of encodings, on a new last axis (low degree first)."""
    return a[..., None] // F.p ** np.arange(F.e) % F.p


def _regular(F, gens):
    """Each (N, N) matrix over GF(p^e) as the (N e, N e) matrix over F_p of
    its action on coordinate rows: entry y becomes the block of x -> x*y."""
    p, e, N = F.p, F.e, gens.shape[-1]
    rows = [_digits(F, gens)]           # rows[d][..., k, j, :] = t^d * y_kj
    red = -np.array(F.modulus[:e], dtype=np.int64) % p   # t^e = sum red_i t^i
    for _ in range(e - 1):
        last = rows[-1]
        rows.append((np.concatenate([np.zeros_like(last[..., :1]), last[..., :-1]], -1)
                     + last[..., -1:] * red) % p)
    rep = np.swapaxes(np.stack(rows, -2), -3, -2)
    return rep.reshape(len(gens), N * e, N * e)


def mul(F, X, gens):
    """The field products X @ g for every g in the (G, N, N) array gens, as
    one array of shape (G,) + X.shape."""
    p, e, N = F.p, F.e, X.shape[-1]
    shape = (len(gens),) + X.shape
    if e > 1:
        gens = _regular(F, gens)
        X = _digits(F, X)
    rows = X.reshape(-1, N * e)
    out = np.empty((len(gens),) + rows.shape, dtype=np.int64)
    for g, o in zip(gens, out):
        np.matmul(rows, g, out=o)
    out %= p
    if e > 1:
        out = out.reshape(shape + (e,)) @ p ** np.arange(e)
    return out.reshape(shape)


def lmul(F, g, X):
    """The field product g @ X for one (N, N) matrix g, as (X^T g^T)^T."""
    T = lambda A: np.swapaxes(A, -1, -2)
    return T(mul(F, T(X), T(g)[None])[0])


def pack(F, N, X):
    """One sortable key per matrix of the (M, N, N) array X."""
    flat = X.reshape(len(X), N * N)
    if F.q ** (N * N) < 1 << 63:
        return flat @ F.q ** np.arange(N * N - 1, -1, -1, dtype=np.int64)
    dt = np.dtype(np.uint8 if F.q <= 1 << 8 else np.uint16 if F.q <= 1 << 16 else np.uint32)
    raw = np.ascontiguousarray(flat, dtype=dt)
    return raw.view(np.dtype((np.void, N * N * dt.itemsize))).ravel()


def key_of(F, mat):
    """The key of one flat matrix, as `pack` makes it."""
    N = math.isqrt(len(mat))
    return pack(F, N, as_array(F, N, mat))[0]


def keys_of(F, N, mats):
    """The sorted distinct keys of a collection of flat matrices."""
    return np.unique(pack(F, N, as_array(F, N, mats)))


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
    giarr = as_array(F, N, [inv(F, N, tuple(g)) for g in gens])
    frontier = as_array(F, N, start)
    visited = pack(F, N, frontier)
    while len(frontier):
        prods = np.stack([lmul(F, g, x) for g, x in zip(garr, mul(F, frontier, giarr))])
        frontier, visited = _step(F, N, prods, visited)
        if len(visited) > cap:
            raise BallCapExceeded("orbit exceeded cap {}".format(cap))
    return visited
