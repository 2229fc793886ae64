"""Arithmetic, enumeration and elimination written apart from chevlab.

Every check in this benchmark compares the program's output with a value
computed here, or with a property the mathematics guarantees.  Nothing in
this module imports chevlab: fields are lookup tables built from scratch,
group orders come from closed formulas written in a different form from the
program's, and the reference closure dedups with packed int64 keys and
sorted-array membership instead of the program's byte keys and dicts.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """A program output disagrees with an independent computation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# --- finite fields as lookup tables ---

class Field:
    """GF(p) or GF(p^2) with elements encoded as c0 + p*c1.

    For e = 2 the modulus is x^2 + c1 x + c0 with the smallest encoding
    c0 + p*c1 among the polynomials without a root in GF(p), which is the
    encoding convention chevlab documents for its default modulus.
    """

    def __init__(self, p, e=1):
        if e not in (1, 2):
            raise ValueError("only prime fields and quadratic extensions")
        self.p, self.e, self.q = p, e, p ** e
        q = self.q
        enc = np.arange(q)
        if e == 1:
            self.modulus = ()
            self.ADD = (enc[:, None] + enc[None, :]) % p
            self.MUL = (enc[:, None] * enc[None, :]) % p
        else:
            self.modulus = next(
                (c0, c1, 1) for c in range(p * p)
                for c0, c1 in [(c % p, c // p)]
                if all((x * x + c1 * x + c0) % p for x in range(p)))
            c0, c1, _ = self.modulus
            a0, a1 = enc % p, enc // p
            self.ADD = ((a0[:, None] + a0[None, :]) % p
                        + p * ((a1[:, None] + a1[None, :]) % p))
            lo = a0[:, None] * a0[None, :]
            mid = a0[:, None] * a1[None, :] + a1[:, None] * a0[None, :]
            hi = a1[:, None] * a1[None, :]
            # x^2 = -c1 x - c0
            self.MUL = ((lo - c0 * hi) % p) + p * ((mid - c1 * hi) % p)
        self.NEG = np.array([int(np.nonzero(self.ADD[a] == 0)[0][0])
                             for a in range(q)])
        self.INV = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            self.INV[a] = int(np.nonzero(self.MUL[a] == 1)[0][0])
        self._add = self.ADD.tolist()
        self._mul = self.MUL.tolist()
        self._neg = self.NEG.tolist()
        self._inv = self.INV.tolist()

    # scalar arithmetic
    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def from_int(self, n):
        return n % self.p

    # batched matrices: arrays of shape (..., N, N) with entries in range(q)
    def matmul(self, X, Y):
        if self.e == 1:
            return (X @ Y) % self.p
        N = X.shape[-1]
        acc = self.MUL[X[..., :, 0, None], Y[..., None, 0, :]]
        for k in range(1, N):
            acc = self.ADD[acc, self.MUL[X[..., :, k, None], Y[..., None, k, :]]]
        return acc

    def keys(self, X):
        """One int64 key per matrix: its entries as base-q digits."""
        flat = np.asarray(X, dtype=np.int64).reshape(-1, X.shape[-1] ** 2)
        weights = self.q ** np.arange(flat.shape[1], dtype=np.int64)
        return flat @ weights

    def det(self, mat, N):
        """Determinant of one flat matrix by elimination."""
        m = [list(mat[i * N:(i + 1) * N]) for i in range(N)]
        d = 1
        for c in range(N):
            piv = next((r for r in range(c, N) if m[r][c]), None)
            if piv is None:
                return 0
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                d = self.neg(d)
            d = self.mul(d, m[c][c])
            ip = self.inv(m[c][c])
            for r in range(c + 1, N):
                f = self.mul(m[r][c], ip)
                if f:
                    m[r] = [self.sub(x, self.mul(f, y)) for x, y in zip(m[r], m[c])]
        return d

    def flat_matmul(self, a, b, N):
        out = []
        for i in range(N):
            for j in range(N):
                acc = 0
                for k in range(N):
                    acc = self.add(acc, self.mul(a[i * N + k], b[k * N + j]))
                out.append(acc)
        return tuple(out)


def det_batch_modp(X, p):
    """Determinants mod p of an (M, N, N) integer array, N in {2, 3}."""
    X = np.asarray(X, dtype=np.int64)
    N = X.shape[-1]
    if N == 2:
        return (X[:, 0, 0] * X[:, 1, 1] - X[:, 0, 1] * X[:, 1, 0]) % p
    if N == 3:
        a = X[:, 0, 0] * ((X[:, 1, 1] * X[:, 2, 2] - X[:, 1, 2] * X[:, 2, 1]) % p)
        b = X[:, 0, 1] * ((X[:, 1, 0] * X[:, 2, 2] - X[:, 1, 2] * X[:, 2, 0]) % p)
        c = X[:, 0, 2] * ((X[:, 1, 0] * X[:, 2, 1] - X[:, 1, 1] * X[:, 2, 0]) % p)
        return (a - b + c) % p
    raise ValueError("batched determinant is written for N = 2, 3")


def omega(n):
    N = 2 * n
    om = np.zeros((N, N), dtype=np.int64)
    om[:n, n:] = np.eye(n, dtype=np.int64)
    om[n:, :n] = -np.eye(n, dtype=np.int64)
    return om


def is_symplectic_batch(X, p):
    """x^T O x = O mod p for each matrix of an (M, 2n, 2n) array."""
    X = np.asarray(X, dtype=np.int64)
    om = omega(X.shape[-1] // 2) % p
    lhs = (np.swapaxes(X, 1, 2) @ om % p) @ X % p
    return (lhs == om).all(axis=(1, 2))


# --- group orders, from closed formulas ---

def order_sl(n, q):
    """|SL_n(F_q)| = q^(n(n-1)/2) prod_{i=2..n} (q^i - 1)."""
    out = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        out *= q ** i - 1
    return out


def order_sp(N, q):
    """|Sp_N(F_q)| = q^(m^2) prod_{i=1..m} (q^(2i) - 1), N = 2m."""
    m = N // 2
    out = q ** (m * m)
    for i in range(1, m + 1):
        out *= q ** (2 * i) - 1
    return out


def order(family, N, q):
    return order_sl(N, q) if family == "SL" else order_sp(N, q)


LITERAL_ORDERS = {
    ("Sp", 4, 3): 51840,
    ("SL", 3, 5): 372000,
    ("SL", 2, 127): 2048256,
    ("SL", 2, 25): 15600,
    ("SL", 2, 5): 120,
    ("SL", 2, 7): 336,
    ("SL", 2, 11): 1320,
    ("SL", 2, 31): 29760,
}


def checked_order(family, N, q):
    """The formula order, required to equal the literal value when listed."""
    value = order(family, N, q)
    lit = LITERAL_ORDERS.get((family, N, q))
    require(lit is None or lit == value,
            "order formula {} != literal {} for {}({},{})".format(
                value, lit, family, N, q))
    return value


# --- reference closure ---

class RefBall:
    """BFS layers of a closure: layers[t] holds the new elements at depth t."""

    def __init__(self, layers, saturated):
        self.layers = layers
        self.saturated = saturated
        self.sizes = list(np.cumsum([len(x) for x in layers[1:]]) + 1)

    def __len__(self):
        return self.sizes[-1] if self.sizes else 1

    def elements(self):
        return np.concatenate(self.layers, axis=0)

    def depth_array(self):
        return np.concatenate([np.full(len(x), t) for t, x in enumerate(self.layers)])


def _isin_sorted(values, sorted_arr):
    pos = np.searchsorted(sorted_arr, values)
    pos[pos == len(sorted_arr)] = 0
    return sorted_arr[pos] == values


def first_occurrences(keys):
    """(sorted distinct keys, index of each one's first occurrence), by a
    stable sort (np.unique is much slower on this numpy)."""
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    head = np.ones(len(sk), dtype=bool)
    head[1:] = sk[1:] != sk[:-1]
    return sk[head], order[head]


def locate(sorted_keys, keys):
    """Positions of keys in a sorted array (queried in sorted order, which
    is several times faster than random order)."""
    order = np.argsort(keys)
    pos = np.empty(len(keys), dtype=np.int64)
    pos[order] = np.searchsorted(sorted_keys, keys[order])
    return np.minimum(pos, len(sorted_keys) - 1)


def ref_closure(field, N, gens, t_max=None):
    """Breadth-first closure of the identity under right multiplication."""
    gens = np.asarray(gens, dtype=np.int64).reshape(-1, N, N)
    ident = np.eye(N, dtype=np.int64)[None]
    seen = np.sort(field.keys(ident))
    layers = [ident]
    frontier = ident
    t = 0
    while t_max is None or t < t_max:
        t += 1
        prods = np.concatenate([field.matmul(frontier, g) for g in gens])
        keys = field.keys(prods)
        uniq, first = first_occurrences(keys)
        fresh = ~_isin_sorted(uniq, seen)
        if not fresh.any():
            return RefBall(layers, True)
        frontier = prods[np.sort(first[fresh])]
        seen = np.union1d(seen, uniq[fresh])
        layers.append(frontier)
    return RefBall(layers, False)


# --- linear algebra over a Field ---

def row_reduce(field, rows, ncols):
    """Reduced row echelon form; returns (rows, pivot columns)."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        ip = field.inv(work[r][c])
        work[r] = [field.mul(ip, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def rank(field, rows):
    if not rows:
        return 0
    return len(row_reduce(field, rows, len(rows[0]))[1])


def nullspace(field, rows, ncols):
    red, pivots = row_reduce(field, rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(red, pivots):
            vec[pc] = field.neg(row[fc])
        basis.append(vec)
    return basis


def centralizer_order_sl(field, N, g):
    """|C_SL(g)|: enumerate the commutant of g in Mat_N, count det = 1."""
    p = field.p
    eqs = []
    for i in range(N):
        for j in range(N):
            row = [0] * (N * N)
            for k in range(N):
                row[k * N + j] = (row[k * N + j] + g[i * N + k]) % p
                row[i * N + k] = (row[i * N + k] - g[k * N + j]) % p
            eqs.append(row)
    basis = np.array(nullspace(field, eqs, N * N), dtype=np.int64)
    d = len(basis)
    require(p ** d <= 4 * 10 ** 6, "commutant too large to enumerate")
    coeffs = np.stack(np.meshgrid(*[np.arange(p)] * d, indexing="ij"), -1).reshape(-1, d)
    mats = (coeffs @ basis % p).reshape(-1, N, N)
    return int((det_batch_modp(mats, p) == 1).sum())


# --- SL_2(F_p) by direct enumeration ---

def sl2_elements(p):
    """All (a, b, c, d) with ad - bc = 1 over F_p, as an (M, 2, 2) array."""
    a, b, c = np.meshgrid(np.arange(1, p), np.arange(p), np.arange(p), indexing="ij")
    a, b, c = a.ravel(), b.ravel(), c.ravel()
    inv = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    d = (1 + b * c) % p * inv[a] % p
    part1 = np.stack([a, b, c, d], -1)
    bb, dd = np.meshgrid(np.arange(1, p), np.arange(p), indexing="ij")
    bb, dd = bb.ravel(), dd.ravel()
    cc = (-inv[bb]) % p
    part0 = np.stack([np.zeros_like(bb), bb, cc, dd], -1)
    return np.concatenate([part1, part0]).reshape(-1, 2, 2)


# --- characteristic polynomials ---

def charpoly_int_batch(X):
    """Integer characteristic polynomials by Faddeev-LeVerrier, low degree
    first, of an (M, N, N) array with small nonnegative entries."""
    X = np.asarray(X, dtype=np.int64)
    M, N, _ = X.shape
    coeffs = np.zeros((M, N + 1), dtype=np.int64)
    coeffs[:, N] = 1
    ident = np.eye(N, dtype=np.int64)
    Mk = np.zeros_like(X)
    for k in range(1, N + 1):
        Mk = X @ (Mk + coeffs[:, N - k + 1, None, None] * ident)
        tr = np.trace(Mk, axis1=1, axis2=2)
        require((tr % k == 0).all(), "Faddeev-LeVerrier division not exact")
        coeffs[:, N - k] = -tr // k
    return coeffs


def _poly_strip(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(field, a, b):
    a = list(a)
    ib = field.inv(b[-1])
    while len(a) >= len(b):
        c = field.mul(a[-1], ib)
        s = len(a) - len(b)
        for i, y in enumerate(b):
            a[s + i] = field.sub(a[s + i], field.mul(c, y))
        _poly_strip(a)
    return a


def has_repeated_root(field, coeffs):
    """True iff the monic polynomial has a repeated root over the closure:
    gcd(f, f') is not constant (or f' = 0)."""
    f = _poly_strip([int(c) for c in coeffs])
    df = _poly_strip([field.mul(field.from_int(i), f[i]) for i in range(1, len(f))])
    if not df:
        return True
    a, b = f, df
    while b:
        a, b = b, _poly_rem(field, a, b)
    return len(a) > 1


def cayley_hamilton_holds(field, N, mat, coeffs):
    """sum c_i M^i = 0, with M^i formed by the table arithmetic."""
    acc = [0] * (N * N)
    power = tuple(1 if i == j else 0 for i in range(N) for j in range(N))
    for i, c in enumerate(coeffs):
        if c:
            acc = [field.add(x, field.mul(c, y)) for x, y in zip(acc, power)]
        power = field.flat_matmul(power, mat, N)
    return all(x == 0 for x in acc)


# --- polynomials over F_p as term dicts ---

def poly_eval_batch(terms, points, p):
    """Evaluate {exponent tuple: coeff} at each row of an (M, m) array mod p."""
    points = np.asarray(points, dtype=np.int64)
    acc = np.zeros(len(points), dtype=np.int64)
    for exps, c in terms.items():
        val = np.full(len(points), c % p, dtype=np.int64)
        for i, e in enumerate(exps):
            for _ in range(e):
                val = val * points[:, i] % p
        acc = (acc + val) % p
    return acc


# --- integers ---

def icbrt_ceil(n):
    """Smallest x >= 0 with x^3 >= n."""
    lo, hi = 0, 1
    while hi ** 3 < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** 3 >= n:
            hi = mid
        else:
            lo = mid + 1
    return lo


def np_threshold(dim, r, q):
    """Smallest n with 27 n^3 >= 64 q^(3 dim - r), i.e. n >= (4/3) q^(dim - r/3)."""
    return icbrt_ceil(-(-64 * q ** (3 * dim - r) // 27))


def ln_close(reported, exact, tol=1e-9):
    """A reported natural log agrees with math.log of an exact integer."""
    want = math.log(exact)
    return abs(float(reported) - want) <= tol * max(1.0, abs(want))
