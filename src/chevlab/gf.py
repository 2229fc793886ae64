"""Exact arithmetic in GF(p^e).

Elements are carried around as canonical integer encodings: the element with
coefficient vector (c_0, ..., c_{e-1}) (low degree first, all in [0, p)) is
encoded as sum c_i * p^i.  For prime fields this is just the residue.  The
encoding set is exactly range(q), which keeps enumeration loops trivial.
FieldSpec holds the arithmetic.
"""

from __future__ import annotations

from .errors import DivisionByZero, NonPrimeCharacteristic, ReducibleModulus

MAX_Q = 1 << 20
MAX_E = 4


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_divmod(num, den, p):
    """Divide coefficient lists (low degree first) over GF(p). den monic-izable."""
    num = list(num)
    out = [0] * max(len(num) - len(den) + 1, 0)
    inv_lead = pow(den[-1], p - 2, p)
    for shift in range(len(num) - len(den), -1, -1):
        coeff = num[shift + len(den) - 1] * inv_lead % p
        out[shift] = coeff
        if coeff:
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - coeff * c) % p
    while num and num[-1] == 0:
        num.pop()
    return out, num


def _is_irreducible(coeffs, p):
    """coeffs: monic polynomial, low degree first, length e+1."""
    e = len(coeffs) - 1
    if e < 1 or coeffs[-1] != 1:
        return False
    # no roots in GF(p) rules out degree-1 factors
    for a in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    if e <= 3:
        return True
    # e == 4: also exclude irreducible quadratic factors by trial division
    for c0 in range(p):
        for c1 in range(p):
            den = [c0, c1, 1]
            _, rem = _poly_divmod(coeffs, den, p)
            if not rem:
                return False
    return True


def _default_modulus(p, e):
    """Lexicographically least monic irreducible of degree e over GF(p).

    'Least' orders coefficient vectors by the same base-p integer encoding used
    for elements, so the choice is deterministic and portable.
    """
    for enc in range(p ** e):
        coeffs = []
        v = enc
        for _ in range(e):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ReducibleModulus("no irreducible modulus found (impossible for prime p)")


class FieldSpec:
    """An immutable description of GF(p^e) with exact arithmetic on encodings."""

    def __init__(self, p, e=1, modulus=None):
        if not _is_prime(p):
            raise NonPrimeCharacteristic("characteristic {} is not prime".format(p))
        if e < 1 or e > MAX_E:
            raise ValueError("extension degree must be in 1..{}".format(MAX_E))
        if p ** e > MAX_Q:
            raise ValueError("q = {}^{} exceeds the 2^20 element-carrier cap".format(p, e))
        self.p = p
        self.e = e
        self.q = p ** e
        if e == 1:
            self.modulus = ()
        else:
            if modulus is None:
                modulus = _default_modulus(p, e)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ReducibleModulus(
                    "modulus must be monic of degree {}".format(e))
            if not _is_irreducible(list(modulus), p):
                raise ReducibleModulus(
                    "modulus {} is reducible over GF({})".format(modulus, p))
            self.modulus = modulus
        # reduction table for x^e in terms of lower powers: x^e = -sum m_i x^i
        if e > 1:
            self._red = tuple((-c) % p for c in self.modulus[:e])

    # --- identity / hashing ---

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return "GF({})".format(self.p)
        return "GF({}^{}; mod={})".format(self.p, self.e, list(self.modulus))

    # --- encoding helpers ---

    def coeffs(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def encode(self, coeffs):
        a = 0
        for c in reversed(coeffs):
            a = a * self.p + (c % self.p)
        return a

    def from_int(self, n):
        """Embed an ordinary integer as a constant field element."""
        return n % self.p

    def ser(self, a):
        return ":".join(str(c) for c in self.coeffs(a))

    def parse(self, text):
        coeffs = [int(part) for part in text.split(":")]
        if len(coeffs) != self.e:
            raise ValueError("expected {} coefficients".format(self.e))
        return self.encode(coeffs)

    # --- arithmetic on encodings ---

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += (-a % p) % p * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p = self.p
        if self.e == 1:
            return a * b % p
        e = self.e
        ca = self.coeffs(a)
        cb = self.coeffs(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce degrees >= e using x^e = red
        for deg in range(2 * e - 2, e - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for i, rc in enumerate(self._red):
                    prod[deg - self.e + i] = (prod[deg - self.e + i] + c * rc) % p
        return self.encode(prod[:e])

    def pow(self, a, k):
        if k < 0:
            return self.pow(self.inv(a), -k)
        if self.e == 1:
            return pow(a, k, self.p)
        result = 1
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("division by zero in {}".format(self))
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def elements(self):
        return range(self.q)


def factor_prime_power(q):
    """Split q = p^e into (p, e); raises if q is not a prime power."""
    if q < 2:
        raise ValueError("{} is not a prime power".format(q))
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    e = 0
    v = q
    while v % p == 0:
        v //= p
        e += 1
    if v != 1:
        raise ValueError("{} is not a prime power".format(q))
    return p, e


def make_field(p, e=1, modulus=None):
    """Build a validated FieldSpec for GF(p^e)."""
    return FieldSpec(p, e, modulus)
