"""Multivariate polynomials over F_q, variety records (the declared degree
held to the Bezout product of the defining degrees), exhaustive point
counting, and the text file format.

Declared dimension and degree are caller inputs (no dimension theory here);
the point-count report checks them against the |V(F_q)| <= D q^d bound.
"""

from __future__ import annotations

import re

import numpy as np

from . import linalg
from .errors import AmbientMismatch, AmbientTooLarge, ArityMismatch


class Poly:
    """A multivariate polynomial: dict of exponent tuple -> nonzero coeff."""

    def __init__(self, F, nvars, terms):
        self.F = F
        self.nvars = nvars
        clean = {}
        for exps, coeff in (terms.items() if isinstance(terms, dict) else terms):
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ArityMismatch("exponent vector length != nvars")
            if exps in clean:
                raise ValueError("duplicate exponent vector {}".format(exps))
            coeff = coeff % F.q if F.e == 1 else coeff
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    @property
    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def evaluate(self, points):
        """P at an (..., nvars) array of encodings, as an (...) array; a
        single point is the same array with no leading axis.  Values stay F_p
        coordinate rows: a product by x is a matmul by the regular
        representation of x, and a sum is an addition mod p."""
        F, p = self.F, self.F.p
        X = np.asarray(points, dtype=np.int64)
        if X.shape[-1:] != (self.nvars,):
            raise ArityMismatch("point length {} != nvars {}".format(
                X.shape[-1] if X.ndim else 0, self.nvars))
        times = linalg._regular(F, X[..., None, None])   # (..., nvars, e, e)
        acc = np.zeros(X.shape[:-1] + (1, F.e), dtype=np.int64)
        for exps, coeff in self.terms.items():
            val = linalg._digits(F, np.array([coeff]))   # (1, e)
            for i, e in enumerate(exps):
                for _ in range(e):
                    val = val @ times[..., i, :, :] % p
            acc = (acc + val) % p
        return acc[..., 0, :] @ p ** np.arange(F.e)

    def ser(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            bits = [self.F.ser(coeff)]
            for i, e in enumerate(exps):
                if e == 1:
                    bits.append("x{}".format(i + 1))
                elif e > 1:
                    bits.append("x{}^{}".format(i + 1, e))
            parts.append("*".join(bits))
        return "+".join(parts)

    def __repr__(self):
        return "Poly({})".format(self.ser())


_TERM_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def poly_parse(F, nvars, text):
    """Parse the text grammar: terms like '2*x1^3*x2' joined by '+'/'-'."""
    text = text.replace("−", "-").replace(" ", "")
    if not text:
        raise ValueError("empty polynomial text")
    # split into signed terms
    chunks = re.split(r"(?=[+-])", text)
    terms = {}
    for chunk in chunks:
        if not chunk:
            continue
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        coeff = F.from_int(sign)
        exps = [0] * nvars
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError("malformed term in {!r}".format(text))
            m = _TERM_FACTOR.match(factor)
            if m:
                idx = int(m.group(1)) - 1
                if idx < 0 or idx >= nvars:
                    raise ArityMismatch("variable x{} out of range".format(idx + 1))
                exps[idx] += int(m.group(2) or 1)
            else:
                coeff = F.mul(coeff, F.from_int(int(factor)))
        key = tuple(exps)
        terms[key] = F.add(terms.get(key, 0), coeff)
    return Poly(F, nvars, {k: v for k, v in terms.items() if v})


class VarietySpec:
    """Ambient dimension, defining polynomials, declared dim and degree."""

    def __init__(self, ambient, polys, declared_dim, declared_deg):
        if declared_dim > ambient:
            raise ValueError("declared_dim exceeds the ambient dimension")
        if declared_deg < 1:
            raise ValueError("declared_deg must be >= 1")
        bezout = 1
        for P in polys:
            if P.nvars != ambient:
                raise AmbientMismatch("polynomial arity != ambient")
            bezout *= max(P.total_degree, 1)
        if declared_deg > bezout:
            raise ValueError(
                "declared_deg {} exceeds the Bezout budget {}".format(
                    declared_deg, bezout))
        self.ambient = ambient
        self.polys = list(polys)
        self.declared_dim = declared_dim
        self.declared_deg = declared_deg

    def contains(self, points):
        """Which points of an (..., ambient) array lie on the variety."""
        mask = np.ones(np.shape(points)[:-1], dtype=bool)
        for P in self.polys:
            mask &= P.evaluate(points) == 0
        return mask

    def __repr__(self):
        return "VarietySpec(ambient={}, dim={}, deg={}, {} polys)".format(
            self.ambient, self.declared_dim, self.declared_deg, len(self.polys))


_SLAB = 1 << 15  # points per slab of the point-count scan


def point_count(V, F, cap=10 ** 8):
    """Exact |V(F_q)| by one in-order scan of F_q^ambient (the last
    coordinate turning fastest) in slabs of _SLAB points, with the D q^d
    report."""
    total = F.q ** V.ambient
    if total > cap:
        raise AmbientTooLarge("q^ambient = {} exceeds cap {}".format(total, cap))
    place = F.q ** np.arange(V.ambient - 1, -1, -1, dtype=np.int64)
    count = 0
    for start in range(0, total, _SLAB):
        index = np.arange(start, min(start + _SLAB, total), dtype=np.int64)
        count += int(V.contains(index[:, None] // place % F.q).sum())
    bound = V.declared_deg * F.q ** V.declared_dim
    return {
        "count": count,
        "bound": bound,
        "pass": count <= bound,
        "ambient": V.ambient,
        "declared_dim": V.declared_dim,
        "declared_deg": V.declared_deg,
        "q": F.q,
    }


# --- text file format ---

def variety_loads(F, text):
    """Load a variety from the text format: header 'ambient=m dim=d deg=D'
    then one polynomial per line."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty variety file")
    pairs = [kv.split("=") for kv in lines[0].split()]
    if any(len(kv) != 2 for kv in pairs):
        raise ValueError("malformed variety header {!r}".format(lines[0]))
    header = dict(pairs)
    missing = [key for key in ("ambient", "dim", "deg") if key not in header]
    if missing:
        raise ValueError("variety header lacks {}".format(
            ", ".join(key + "=" for key in missing)))
    ambient = int(header["ambient"])
    polys = [poly_parse(F, ambient, ln) for ln in lines[1:]]
    return VarietySpec(ambient, polys, int(header["dim"]), int(header["deg"]))
