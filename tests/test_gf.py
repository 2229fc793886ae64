import random

import pytest

from chevlab import gf
from chevlab.errors import (
    DivisionByZero,
    NonPrimeCharacteristic,
    ReducibleModulus,
)


def test_prime_field_arithmetic_exhaustive():
    F = gf.make_field(7)
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.mul(a, b) == (a * b) % 7
            assert F.sub(a, b) == (a - b) % 7
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, 6) == 1  # Fermat


def test_extension_field_axioms():
    F = gf.make_field(3, 2)
    assert F.q == 9
    elems = list(F.elements())
    assert len(elems) == 9
    # commutativity / associativity / distributivity, exhaustively
    for a in elems:
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    for a in elems:
        if a != 0:
            assert F.mul(a, F.inv(a)) == F.from_int(1)
            assert F.pow(a, 8) == F.from_int(1)


def test_ser_parse_round_trip():
    for F in (gf.make_field(5), gf.make_field(2, 3), gf.make_field(3, 2)):
        for a in F.elements():
            assert F.parse(F.ser(a)) == a


def test_factor_prime_power():
    assert gf.factor_prime_power(7) == (7, 1)
    assert gf.factor_prime_power(8) == (2, 3)
    assert gf.factor_prime_power(121) == (11, 2)
    with pytest.raises(Exception):
        gf.factor_prime_power(6)
    with pytest.raises(Exception):
        gf.factor_prime_power(1)


def test_bad_fields():
    with pytest.raises(NonPrimeCharacteristic):
        gf.make_field(6)
    with pytest.raises(ReducibleModulus):
        gf.make_field(5, 2, modulus=(4, 0, 1))  # x^2 + 4 = (x-1)(x+1) mod 5


def test_division_errors_and_element_wrapper():
    F = gf.make_field(5)
    with pytest.raises(DivisionByZero):
        F.inv(0)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(1)
    F = gf.make_field(11)
    for _ in range(50):
        a = rng.randrange(1, 11)
        k = rng.randrange(0, 30)
        acc = 1
        for _ in range(k):
            acc = F.mul(acc, a)
        assert F.pow(a, k) == acc
