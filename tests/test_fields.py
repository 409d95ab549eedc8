import random
from fractions import Fraction

import pytest

from detfold.algebra import QQ, PrimeField, is_prime
from detfold.errors import InputError, Rejection


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 2147483647}
    for n in list(primes) + [1, 0, 4, 9, 15, 21, 91, 2147483645]:
        assert is_prime(n) == (n in primes)


def test_prime_field_requires_prime():
    with pytest.raises(InputError):
        PrimeField(15)
    with pytest.raises(InputError):
        PrimeField(2**31 + 11)
    with pytest.raises(Rejection):
        PrimeField(2)


@pytest.mark.parametrize("q", [3, 7, 13, 10007])
def test_field_axioms_fp(q):
    gf = PrimeField(q)
    rng = random.Random(q)
    for _ in range(200):
        a = gf.from_int(rng.randrange(q))
        b = gf.from_int(rng.randrange(1, q))
        assert gf.div(a * b, b) == a
        assert gf.from_int(a + (-a)) == gf.zero()
        assert gf.from_int(a * gf.one()) == a
        assert gf.from_int((a + b) - b) == a
        assert type(a) is int and 0 <= a < q


def test_field_axioms_rationals():
    rng = random.Random(0)
    for _ in range(200):
        a = Fraction(rng.randrange(-50, 50), rng.randrange(1, 20))
        b = Fraction(rng.randrange(1, 50), rng.randrange(1, 20))
        assert (a * b) / b == a
    # stored reduced with positive denominator by construction
    x = Fraction(6, -4)
    assert (x.numerator, x.denominator) == (-3, 2)


@pytest.mark.parametrize("q", [7, 13, 17, 101, 2147483647])
def test_fp_sqrt(q):
    gf = PrimeField(q)
    rng = random.Random(q)
    for _ in range(50):
        a = gf.from_int(rng.randrange(q))
        r = gf.sqrt(a)
        if r is not None:
            assert r * r % q == a
    # every square has a root found
    for v in range(min(q, 60)):
        a = gf.from_int(v)
        sq = a * a % q
        r = gf.sqrt(sq)
        assert r is not None and r * r % q == sq


def test_rational_sqrt():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-1)) is None
    assert QQ.sqrt(Fraction(0)) == 0


def test_fp_fraction_coercion():
    gf = PrimeField(7)
    assert gf.coerce(Fraction(1, 2)) == gf.from_int(4)
    with pytest.raises(Rejection):
        gf.coerce(Fraction(1, 7))
