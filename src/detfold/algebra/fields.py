"""The fields Q and F_q, each given by its characteristic q: 0 for Q, the
prime otherwise.

Rationals are plain ``fractions.Fraction`` or ``int`` values, prime-field
elements plain ``int`` residues in [0, q), reduced mod q by whoever builds a
result from them (`residue`).  This module holds what the characteristic
alone does not say: primality, square roots, the reduction of a fraction mod
q and the printing of long coefficients.  No floating point anywhere.
"""

from __future__ import annotations

import itertools
from decimal import Decimal
from fractions import Fraction

from ..errors import InputError, Rejection

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the primes to 37, deterministic below 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_WORD_PRIMES = [2**61 - 1]


def word_primes():
    """The primes below 2^61, descending from 2^61 - 1: the moduli of the
    modular gcd and of the resultant's vanishing test, generated once and
    kept."""
    for i in itertools.count():
        if i == len(_WORD_PRIMES):
            _WORD_PRIMES.append(next(n for n in range(_WORD_PRIMES[-1] - 2, 2, -2) if is_prime(n)))
        yield _WORD_PRIMES[i]


def residue(v: int, q: int) -> int:
    """The integer v in the field of characteristic q: its residue mod q over
    F_q, v itself over Q (q = 0)."""
    return v % q if q else v


def sqrt_mod(a: int, q: int):
    """A square root of a mod the odd prime q by Tonelli-Shanks: the smaller
    residue of the two, or None when a is not a square."""
    v = a % q
    if v == 0:
        return 0
    if pow(v, (q - 1) // 2, q) != 1:
        return None
    if q % 4 == 3:
        r = pow(v, (q + 1) // 4, q)
    else:
        s, e = q - 1, 0
        while s % 2 == 0:
            s //= 2
            e += 1
        n = 2
        while pow(n, (q - 1) // 2, q) != q - 1:
            n += 1
        x = pow(v, (s + 1) // 2, q)
        b = pow(v, s, q)
        g = pow(n, s, q)
        r_exp = e
        while True:
            t, m = b, 0
            while t != 1:
                t = t * t % q
                m += 1
            if m == 0:
                r = x
                break
            gs = pow(g, 2 ** (r_exp - m - 1), q)
            x = x * gs % q
            b = b * gs * gs % q
            g = gs * gs % q
            r_exp = m
    return min(r, q - r)


def isqrt_exact(n: int):
    """The square root of the integer n over Q, or None when n is not a square."""
    import math

    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def format_coeff(c, den: int = 1) -> str:
    """c / den, for an int or Fraction c, as text, also past the
    interpreter's int -> str digit limit (4300 by default), where Decimal
    converts integers of any size."""
    if den != 1:
        c = Fraction(c, den)
    try:
        return str(c)
    except ValueError:
        num = str(Decimal(c.numerator))
        return num if c.denominator == 1 else f"{num}/{Decimal(c.denominator)}"


def fraction_mod(x: Fraction, q: int) -> int:
    """The rational x as a residue mod the prime q; refused when q divides
    its denominator."""
    if x.denominator % q == 0:
        raise Rejection(f"denominator of {x} vanishes mod {q}")
    return x.numerator * pow(x.denominator, -1, q) % q


def decimal(text: str) -> int:
    """The integer written in text with ASCII decimal digits alone.  Anything
    else raises ValueError, also what int() reads: a sign, spaces,
    underscores, or the digits of other scripts."""
    if not (text.isascii() and text.isdecimal()):
        raise ValueError(f"not a decimal numeral: {text!r}")
    return int(text)


def checked_prime(q: int) -> int:
    """q, the characteristic of F_q: a prime below 2^31, and odd so that
    quadratic forms behave."""
    if not isinstance(q, int) or q >= 2**31 or not is_prime(q):
        raise InputError(f"field modulus must be a prime below 2^31, got {q}")
    if q == 2:
        raise Rejection("characteristic 2 is unsupported (symmetric forms degenerate)")
    return q


def field_name(q: int) -> str:
    """The name of the field of characteristic q: 'rational' or 'fp:Q'."""
    return f"fp:{q}" if q else "rational"


def field_from_name(name: str) -> int:
    """The characteristic of the field named 'rational' (0) or 'fp:Q' (Q)."""
    if name == "rational":
        return 0
    if name.startswith("fp:"):
        try:
            q = decimal(name[3:])
        except ValueError:
            raise InputError(f"bad field spec {name!r}") from None
        return checked_prime(q)
    raise InputError(f"unknown field {name!r} (expected 'rational' or 'fp:Q')")
