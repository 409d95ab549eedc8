"""Exact scalar fields: rationals and prime fields F_q.

Rationals are plain ``fractions.Fraction`` (always reduced, positive
denominator).  Prime-field elements are plain ``int`` residues in [0, q):
sums, differences and products are reduced mod q by whoever builds a result
from them (``MultiPoly`` on construction), and each field divides by its
``div``.  No floating point anywhere.
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


class RationalField:
    """The field of exact rationals; elements are fractions.Fraction."""

    char = 0
    name = "rational"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise InputError(f"cannot coerce {x!r} into the rational field")

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        return a / b

    def sqrt(self, a: Fraction):
        """Exact square root, or None when a is not a square."""
        if a < 0:
            return None
        num, den = a.numerator, a.denominator
        rn = _isqrt_exact(num)
        rd = _isqrt_exact(den)
        if rn is None or rd is None:
            return None
        return Fraction(rn, rd)

    def sort_key(self, a: Fraction):
        return (a.numerator, a.denominator)

    def format(self, a: Fraction) -> str:
        try:
            return str(a)
        except ValueError:
            # int -> str refuses more digits than the interpreter's limit
            # (4300 by default); Decimal converts integers of any size
            num = str(Decimal(a.numerator))
            return num if a.denominator == 1 else f"{num}/{Decimal(a.denominator)}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational-field")

    def __repr__(self):
        return "QQ"


def _isqrt_exact(n: int):
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


QQ = RationalField()


class PrimeField:
    """F_q for a prime q < 2^31 (q > 2 so quadratic forms behave)."""

    def __init__(self, q: int):
        if not isinstance(q, int) or q >= 2**31 or not is_prime(q):
            raise InputError(f"field modulus must be a prime below 2^31, got {q}")
        if q == 2:
            raise Rejection("characteristic 2 is unsupported (symmetric forms degenerate)")
        self.q = q
        self.char = q
        self.name = f"fp:{q}"

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.q

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.q
        if isinstance(x, Fraction):
            if x.denominator % self.q == 0:
                raise Rejection(f"denominator of {x} vanishes mod {self.q}")
            return self.div(x.numerator, x.denominator)
        raise InputError(f"cannot coerce {x!r} into F_{self.q}")

    def div(self, a: int, b: int) -> int:
        """a / b, for residues or integers with b a unit mod q."""
        return a * pow(b, -1, self.q) % self.q

    def sqrt(self, a: int):
        """Tonelli-Shanks; returns the smaller-residue root, or None."""
        v, q = a % self.q, self.q
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

    def sort_key(self, a: int):
        return (a,)

    def format(self, a: int) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("prime-field", self.q))

    def __repr__(self):
        return f"GF({self.q})"


def field_from_name(name: str):
    """Parse 'rational' or 'fp:Q' into a field object."""
    if name == "rational":
        return QQ
    if name.startswith("fp:"):
        try:
            q = int(name[3:])
        except ValueError:
            raise InputError(f"bad field spec {name!r}") from None
        return PrimeField(q)
    raise InputError(f"unknown field {name!r} (expected 'rational' or 'fp:Q')")
