"""LogScaled: nonnegative reals stored as (iterated) natural logarithms.

A value is (height, top) meaning exp applied `height` times to `top`.
Ordinary constants live at height 1 (top = natural log of the value); the
appendix recursions need height 2 because even the logarithm of
(2D)^(2^(14 d r^4)) overflows a double for moderate r.

When the value is also representable as an exact big integer under a size cap
it is carried along, and built on the first read of `exact`.  Whether there
is one is decided from bit-length bounds that the log gives; only bounds that
straddle the cap build it early.  Exact-vs-log agreement within 1e-9 relative
slack is an invariant, checked whenever an integer is built.  Comparisons
refuse to decide within a 1e-6 relative slack band (returning 0 / raising
Indeterminate), unless both sides are exact.
"""

from __future__ import annotations

import decimal
import functools
import math
from fractions import Fraction

from .errors import Indeterminate

EXACT_BIT_CAP = 2_000_000  # keep exact integers up to ~600k decimal digits
REL_SLACK = 1e-6


class LogScaled:
    __slots__ = ("height", "top", "_exact", "_build")

    def __init__(self, height, top, exact=None, build=None):
        if height < 0:
            raise ValueError("height must be >= 0")
        self.height = height
        self.top = float(top)
        self._exact = None
        self._build = build
        if (exact is not None or build is not None) and height != 1:
            raise ValueError("exact integers only make sense at height 1")
        if exact is not None:
            self._set(exact)

    def _set(self, n):
        lnx = _ln_big(n)
        if abs(lnx - self.top) > 1e-9 * max(1.0, abs(self.top)):
            raise ValueError("exact/log disagreement beyond slack")
        self._exact = n

    @property
    def exact(self):
        """The exact integer, built on first read, or None."""
        if self._build is not None:
            self._set(self._build())
            self._build = None
        return self._exact

    def _has_exact(self):
        return self._exact is not None or self._build is not None

    def _bits(self):
        """Bounds (lo, hi) on the bit length of the exact integer: from the log
        within the agreement slack, or the bit length itself once built."""
        if self._exact is not None:
            return self._exact.bit_length(), self._exact.bit_length()
        x, eps = self.top / math.log(2), 2e-9 * max(1.0, abs(self.top)) / math.log(2)
        return math.floor(x - eps) + 1, math.floor(x + eps) + 1

    # --- constructors ---

    @staticmethod
    def from_exact(n):
        if n < 0:
            raise ValueError("LogScaled values are nonnegative")
        if n == 0:
            return LogScaled(0, 0.0)
        if n.bit_length() > EXACT_BIT_CAP:
            return LogScaled(1, _ln_big(n))
        return LogScaled(1, _ln_big(n), n)

    @staticmethod
    def from_ln(lnv):
        return LogScaled(1, lnv)

    @staticmethod
    def from_float(x):
        if x < 0:
            raise ValueError("LogScaled values are nonnegative")
        if x == 0:
            return LogScaled(0, 0.0)
        return LogScaled(1, math.log(x))

    @staticmethod
    def power(base, exponent):
        """base ** exponent with base an int > 0 and exponent int/Fraction."""
        if base <= 0:
            raise ValueError("base must be positive")
        build = None
        if (isinstance(exponent, int) and exponent >= 0
                and exponent * base.bit_length() <= EXACT_BIT_CAP):
            build = lambda: base ** exponent
        return LogScaled(1, float(exponent) * _ln_big(base), build=build)

    # --- views ---

    @property
    def ln_value(self):
        """Natural log of the value; only finite-representable for height <= 1."""
        if self.height == 0:
            return math.log(self.top) if self.top > 0 else float("-inf")
        if self.height == 1:
            return self.top
        raise OverflowError("ln overflows a double at height {}".format(self.height))

    def ln(self):
        """The logarithm, as a LogScaled one level down."""
        if self.height == 0:
            return LogScaled.from_float(math.log(self.top))
        if self.height == 1:
            return LogScaled.from_float(self.top) if self.top > 0 else LogScaled(0, 0.0)
        return LogScaled(self.height - 1, self.top)

    def exp(self):
        return LogScaled(self.height + 1, self.top)

    def normalized(self):
        """Lower the height while the top survives as a double."""
        h, t = self.height, self.top
        while h >= 2 and t < 700.0:
            t = math.exp(t)
            h -= 1
        return self if h == self.height else LogScaled(h, t)

    # --- arithmetic (heights 0/1 only; towers are compared, not combined) ---

    def mul(self, other):
        other = _coerce(other)
        a, b = self.normalized(), other.normalized()
        if a.height > 1 or b.height > 1:
            raise ValueError("generic mul is not supported at tower height >= 2")
        return _derived(a.ln_value + b.ln_value, (a, b), lambda x, y: x * y)

    def add(self, other):
        other = _coerce(other)
        a, b = self.normalized(), other.normalized()
        if a.height > 1 or b.height > 1:
            raise ValueError("generic add is not supported at tower height >= 2")
        return _derived(_logaddexp(a.ln_value, b.ln_value), (a, b), lambda x, y: x + y)

    def pow(self, exponent):
        a = self.normalized()
        if a.height > 1:
            raise ValueError("generic pow is not supported at tower height >= 2")
        build = None
        if a._has_exact() and isinstance(exponent, int) and exponent >= 0:
            # the cap bounds exponent * (bit length of a), not the power's
            lo, hi = a._bits()
            if exponent * max(hi, 1) <= EXACT_BIT_CAP or (
                    exponent * max(lo, 1) <= EXACT_BIT_CAP
                    and exponent * max(a.exact.bit_length(), 1) <= EXACT_BIT_CAP):
                build = lambda: a.exact ** exponent
        return LogScaled(1, float(exponent) * a.ln_value, build=build)

    # --- comparison ---

    def cmp(self, other):
        """-1 / 0 / 1 with 0 meaning 'inside the slack band' (indeterminate),
        where two exact values compare exactly."""
        other = _coerce(other)
        a, b = self.normalized(), other.normalized()
        k = max(a.height, b.height, 1)
        ta = _lower(a, k)
        tb = _lower(b, k)
        if ta is None or tb is None:
            # one side collapsed to a non-positive iterated log: it is smaller
            if ta is None and tb is None:
                return 0
            return -1 if ta is None else 1
        if abs(ta - tb) > REL_SLACK * max(abs(ta), abs(tb), 1.0):
            return -1 if ta < tb else 1
        if self._has_exact() and other._has_exact():
            return (self.exact > other.exact) - (self.exact < other.exact)
        return 0

    def require_cmp(self, other, expected, context=""):
        got = self.cmp(other)
        if got == 0:
            raise Indeterminate("comparison inside slack band: " + context)
        return got == expected

    def __repr__(self):
        if self.height <= 1:
            tag = "~e^{:.6g}".format(self.ln_value)
        else:
            tag = "tower(h={}, top={:.6g})".format(self.height, self.top)
        if self._has_exact() and self._bits()[0] <= 64 and self.exact.bit_length() <= 64:
            tag += " ={}".format(self.exact)
        return "LogScaled({})".format(tag)

    def to_json(self):
        out = {"height": self.height, "top": _fmt(self.top)}
        if self.height == 1:
            out["ln"] = _fmt(self.top)
        out["exact"] = _decimal(self.exact) if self.exact is not None else None
        return out


def _fmt(x):
    """12-significant-digit decimal string, the report formatting contract."""
    return "{:.12g}".format(x)


def _decimal(n):
    """The decimal string of an int >= 0 of any size.  str() refuses more than
    4,300 digits (sys.get_int_max_str_digits), and that limit is global to the
    interpreter, so the digits come from the decimal module instead: split n
    into bit halves and recombine them in exact Decimal arithmetic."""
    @functools.lru_cache(maxsize=None)
    def two_to(w):
        return D(2) ** w if w <= 4096 else two_to(w >> 1) * two_to(w - (w >> 1))

    def convert(n, w):
        if w <= 4096:
            return D(n)
        h = w >> 1
        hi = n >> h
        return convert(n - (hi << h), h) + convert(hi, w - h) * two_to(h)

    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def _ln_big(n):
    """math.log for arbitrarily large positive ints."""
    if n <= 0:
        raise ValueError("positive input required")
    bits = n.bit_length()
    if bits <= 512:
        return math.log(n)
    shift = bits - 512
    return math.log(n >> shift) + shift * math.log(2.0)


def _logaddexp(x, y):
    if x < y:
        x, y = y, x
    return x + math.log1p(math.exp(y - x))


def _derived(lnv, parts, build):
    """The value e^lnv, carrying build(*exacts) when every part carries an
    exact integer and the result has at most EXACT_BIT_CAP bits.  Bit-length
    bounds from lnv decide that; the integer is built here only when they
    straddle the cap, and otherwise on first read."""
    out = LogScaled.from_ln(lnv)
    if all(x._has_exact() for x in parts):
        make = lambda: build(*(x.exact for x in parts))
        lo, hi = out._bits()
        if hi <= EXACT_BIT_CAP:
            out._build = make
        elif lo <= EXACT_BIT_CAP:
            n = make()
            if n.bit_length() <= EXACT_BIT_CAP:
                out._set(n)
    return out


def _lower(v, k):
    """log^k of the value, computed as log^(k-height) of the top; None if it dies."""
    t = v.top
    h = v.height
    while h < k:
        if t <= 0:
            return None
        t = math.log(t)
        h += 1
    return t


def _coerce(x):
    if isinstance(x, LogScaled):
        return x
    if isinstance(x, int):
        return LogScaled.from_exact(x)
    if isinstance(x, Fraction):
        return LogScaled.from_float(float(x))
    if isinstance(x, float):
        return LogScaled.from_float(x)
    raise TypeError("cannot interpret {!r} as LogScaled".format(x))
