import random
from fractions import Fraction

import pytest

from detfold.algebra import field_from_name, is_prime
from detfold.algebra.fields import checked_prime, format_coeff, fraction_mod, isqrt_exact, sqrt_mod
from detfold.errors import InputError, Rejection


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 2147483647}
    for n in list(primes) + [1, 0, 4, 9, 15, 21, 91, 2147483645]:
        assert is_prime(n) == (n in primes)


def test_prime_field_requires_prime():
    with pytest.raises(InputError):
        checked_prime(15)
    with pytest.raises(InputError):
        checked_prime(2**31 + 11)
    with pytest.raises(Rejection):
        checked_prime(2)
    assert checked_prime(2**31 - 1) == 2**31 - 1
    # a field is named by its characteristic, with the same refusals
    assert [field_from_name(n) for n in ("rational", "fp:7")] == [0, 7]
    with pytest.raises(InputError):
        field_from_name("fp:15")
    with pytest.raises(Rejection):
        field_from_name("fp:2")


@pytest.mark.parametrize("q", [3, 7, 13, 10007])
def test_field_axioms_fp(q):
    # division mod q is the reduction of the fraction a b / b
    rng = random.Random(q)
    for _ in range(200):
        a = rng.randrange(q)
        b = rng.randrange(1, q)
        assert fraction_mod(Fraction(a * b, b), q) == a
        assert fraction_mod(Fraction(a, b), q) * b % q == a
        assert type(fraction_mod(Fraction(a, b), q)) is int and 0 <= fraction_mod(Fraction(a, b), q) < q


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
    rng = random.Random(q)
    for _ in range(50):
        a = rng.randrange(q)
        r = sqrt_mod(a, q)
        if r is not None:
            assert r * r % q == a and r <= q - r
    # every square has a root found
    for v in range(min(q, 60)):
        sq = v * v % q
        r = sqrt_mod(sq, q)
        assert r is not None and r * r % q == sq


def test_rational_sqrt():
    assert isqrt_exact(9) == 3
    assert isqrt_exact(2) is None
    assert isqrt_exact(-1) is None
    assert isqrt_exact(0) == 0
    assert isqrt_exact(10**40) == 10**20


def test_fp_fraction_coercion():
    assert fraction_mod(Fraction(1, 2), 7) == 4
    with pytest.raises(Rejection, match="denominator of 1/7 vanishes mod 7"):
        fraction_mod(Fraction(1, 7), 7)


def test_coefficient_printing():
    assert [format_coeff(c) for c in (3, Fraction(-3, 4), Fraction(6, 3))] == ["3", "-3/4", "2"]
    assert format_coeff(3, 6) == "1/2"
    # past the int -> str digit limit (4300 by default) a coefficient still prints, exactly
    assert format_coeff(Fraction(-(10**4999), 7)) == "-1" + "0" * 4999 + "/7"
