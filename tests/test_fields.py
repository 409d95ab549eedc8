import random
from fractions import Fraction

import pytest

from detfold.algebra import QQ, PrimeField, QuadExt, QuadExtElt, is_prime
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
        assert (a * b) / b == a
        assert a + (-a) == gf.zero()
        assert a * gf.one() == a
        assert (a + b) - b == a


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
            assert r * r == a
    # every square has a root found
    for v in range(min(q, 60)):
        a = gf.from_int(v)
        sq = a * a
        r = gf.sqrt(sq)
        assert r is not None and r * r == sq


def test_rational_sqrt():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-1)) is None
    assert QQ.sqrt(Fraction(0)) == 0


def test_quadratic_extension_rational():
    ext = QuadExt(QQ, Fraction(2))
    r = ext.root()
    assert r * r == ext.coerce(2)
    a = ext.coerce(Fraction(3, 2)) + r
    inv = a.inverse()
    assert a * inv == ext.one()
    with pytest.raises(InputError):
        QuadExt(QQ, Fraction(4))  # a square: no extension needed


def test_quadratic_extension_fp():
    gf = PrimeField(13)
    d = gf.from_int(2)
    assert gf.sqrt(d) is None
    ext = QuadExt(gf, d)
    rng = random.Random(5)
    for _ in range(100):
        a = ext.coerce(gf.from_int(rng.randrange(13))) + ext.root() * gf.from_int(rng.randrange(13))
        if a:
            assert a * a.inverse() == ext.one()
    # any base element becomes a square in the quadratic extension: a
    # non-square v is d times a square x^2, so v = (x sqrt d)^2
    for v in range(1, 13):
        a = gf.from_int(v)
        x = gf.sqrt(a)
        s = ext.coerce(x) if x is not None else ext.root() * gf.sqrt(a / d)
        assert s * s == ext.coerce(a)


@pytest.mark.parametrize("base", [QQ, PrimeField(13)])
def test_quadratic_extension_base_scalar_product(base):
    # a base scalar multiplies both coordinates; the result equals the
    # product with the scalar coerced into the extension
    ext = QuadExt(base, 2)
    x = QuadExtElt(base.coerce(Fraction(3, 4)), base.coerce(-5), ext)
    scalars = [0, 7, Fraction(-2, 3)] + ([base.from_int(6)] if base.char else [])
    for c in scalars:
        assert x * c == c * x == x * ext.coerce(c)
    with pytest.raises(InputError, match="mixed quadratic extensions"):
        x * QuadExt(base, 5).root()


def test_fp_fraction_coercion():
    gf = PrimeField(7)
    assert gf.coerce(Fraction(1, 2)) == gf.from_int(4)
    with pytest.raises(Rejection):
        gf.coerce(Fraction(1, 7))
