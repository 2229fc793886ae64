import math
import random

from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from chevlab import logscaled
from chevlab.logscaled import REL_SLACK, LogScaled, _ln_big, _logaddexp
from chevlab.errors import Indeterminate


def test_from_exact_round_trip():
    for n in (1, 2, 7, 10 ** 6, 2 ** 100):
        v = LogScaled.from_exact(n)
        assert v.exact == n
        assert abs(v.ln_value - _ln_big(n)) < 1e-12 * max(1, _ln_big(n))


def test_power_matches_big_integers():
    rng = random.Random(3)
    for _ in range(30):
        b = rng.randrange(2, 12)
        e = rng.randrange(1, 60)
        v = LogScaled.power(b, e)
        assert v.exact == b ** e


def test_mul_add_pow_against_exact():
    a = LogScaled.from_exact(12345)
    b = LogScaled.from_exact(678)
    assert a.mul(b).exact == 12345 * 678
    assert a.add(b).exact == 12345 + 678
    assert a.pow(3).exact == 12345 ** 3


def test_cmp_ordering():
    a = LogScaled.power(2, 1000)
    b = LogScaled.power(3, 1000)
    assert a.cmp(b) < 0
    assert b.cmp(a) > 0
    assert a.cmp(a) == 0


def test_cmp_across_heights():
    # exp(exp(5)) vastly exceeds e^100
    tall = LogScaled(2, 5.0)
    flat = LogScaled.from_ln(100.0)
    assert tall.cmp(flat) > 0
    assert flat.cmp(tall) < 0


def test_require_cmp_raises_inside_slack_band():
    a = LogScaled.from_ln(100.0)
    b = LogScaled.from_ln(100.0 * (1 + 1e-9))
    assert a.cmp(b) == 0  # inside the relative slack band
    with pytest.raises(Indeterminate):
        a.require_cmp(b, -1)


def test_huge_exponent_stays_in_log_space():
    v = LogScaled.power(4, 10 ** 9)
    assert v.exact is None  # beyond the exact-bit cap
    assert abs(v.ln_value - 10 ** 9 * math.log(4)) < 1e-3


def test_to_json_format():
    v = LogScaled.from_exact(256)
    d = v.to_json()
    assert d["exact"] == "256"
    assert d["height"] == 1
    assert d["ln"] == "{:.12g}".format(math.log(256))


def test_logaddexp_helper():
    for x, y in ((0.0, 0.0), (10.0, 1.0), (500.0, 499.0)):
        want = math.log(math.exp(x - max(x, y)) + math.exp(y - max(x, y)))
        assert abs(_logaddexp(x, y) - (max(x, y) + want)) < 1e-12


def test_ln_big_matches_float_log():
    for n in (2, 10, 12345, 2 ** 40):
        assert abs(_ln_big(n) - math.log(n)) < 1e-12 * math.log(n)
    # a number far beyond float range
    n = 3 ** 5000
    assert abs(_ln_big(n) - 5000 * math.log(3)) < 1e-6


# --- the eager oracle: every exact integer built at once ---

class Eager:
    """LogScaled as it was before exact integers became lazy (height 1 and
    positive values only); it reads the cap from chevlab.logscaled."""

    def __init__(self, top, exact=None):
        self.top, self.exact = float(top), exact

    @staticmethod
    def from_exact(n):
        return Eager(_ln_big(n), n if n.bit_length() <= logscaled.EXACT_BIT_CAP else None)

    @staticmethod
    def power(base, exponent):
        fits = exponent * base.bit_length() <= logscaled.EXACT_BIT_CAP
        return Eager(exponent * _ln_big(base), base ** exponent if fits else None)

    def _fit(self, top, n):
        return Eager(top, n if n is not None and n.bit_length() <= logscaled.EXACT_BIT_CAP
                     else None)

    def mul(self, other):
        both = self.exact is not None and other.exact is not None
        return self._fit(self.top + other.top, self.exact * other.exact if both else None)

    def add(self, other):
        both = self.exact is not None and other.exact is not None
        return self._fit(_logaddexp(self.top, other.top),
                         self.exact + other.exact if both else None)

    def pow(self, k):
        fits = (self.exact is not None
                and k * max(self.exact.bit_length(), 1) <= logscaled.EXACT_BIT_CAP)
        return Eager(k * self.top, self.exact ** k if fits else None)

    def cmp(self, other):
        if self.exact is not None and other.exact is not None:
            return (self.exact > other.exact) - (self.exact < other.exact)
        if abs(self.top - other.top) <= REL_SLACK * max(abs(self.top), abs(other.top), 1.0):
            return 0
        return -1 if self.top < other.top else 1

    def to_json(self):
        return {"height": 1, "top": "{:.12g}".format(self.top),
                "ln": "{:.12g}".format(self.top),
                "exact": str(self.exact) if self.exact is not None else None}


@st.composite
def lazy_and_eager(draw, cap):
    """A random expression of leaves and mul/add/pow, built both ways, with
    leaves near the cap so that bit-length bounds straddle it."""
    leaf = st.one_of(
        st.one_of(st.integers(1, 3), st.integers(1, 10 ** 6)).map(lambda n: ("exact", n)),
        st.integers(cap - 3, cap + 2).flatmap(
            lambda j: st.sampled_from([("exact", 2 ** j - 2), ("exact", 2 ** j - 1),
                                       ("exact", 2 ** j), ("exact", 3 ** (j * 2 // 3))])),
        st.tuples(st.sampled_from([2, 3, 4, 8, 10, 40]), st.integers(0, cap)).map(
            lambda t: ("power",) + t))
    steps = draw(st.lists(st.tuples(st.sampled_from(["mul", "add", "pow", "leaf"]),
                                    leaf, st.integers(0, 4)), max_size=6))
    values = []

    def make(node):
        if node[0] == "exact":
            return LogScaled.from_exact(node[1]), Eager.from_exact(node[1])
        return LogScaled.power(*node[1:]), Eager.power(*node[1:])

    cur = make(draw(leaf))
    values.append(cur)
    for op, node, k in steps:
        if op == "leaf":
            cur = make(node)
        elif op == "pow":
            cur = cur[0].pow(k), cur[1].pow(k)
        else:
            other = make(node)
            cur = getattr(cur[0], op)(other[0]), getattr(cur[1], op)(other[1])
        values.append(cur)
    return values


@settings(max_examples=300, deadline=None)
@given(st.integers(8, 200), st.data())
def test_lazy_exact_matches_eager(cap, data):
    with patch.object(logscaled, "EXACT_BIT_CAP", cap):
        values = data.draw(lazy_and_eager(cap))
        for lazy, eager in values:
            # availability is decided before any integer is read
            assert lazy._has_exact() == (eager.exact is not None)
            lo, hi = lazy._bits()
            if eager.exact is not None:
                assert lo <= eager.exact.bit_length() <= hi
        for (a, ea), (b, eb) in zip(values, values[1:] + values[:1]):
            assert a.cmp(b) == ea.cmp(eb)
            # in the slack band two exact values still compare exactly
            one = LogScaled.from_exact(1), Eager.from_exact(1)
            assert a.cmp(a.add(one[0])) == ea.cmp(ea.add(one[1]))
            assert a.cmp(a) == ea.cmp(ea) == 0
        for lazy, eager in values:
            assert lazy.to_json() == eager.to_json()
            assert lazy.exact == eager.exact


def test_power_builds_its_integer_only_when_read():
    v = LogScaled.power(127, 200_000)  # ~1.4 M bits, under the cap
    assert v._build is not None and v._exact is None
    assert v.cmp(LogScaled.power(128, 200_000)) == -1
    assert v._exact is None
    assert v.exact == 127 ** 200_000
