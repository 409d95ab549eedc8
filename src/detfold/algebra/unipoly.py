"""Dense univariate polynomial helpers over an exact field.

Polynomials are lists of coefficients in ascending degree with no trailing
zeros.  Includes gcd / squarefree machinery and complete rational-root
extraction by p-adic lifting.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import InputError
from .fields import QQ, is_prime


def trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def deg(p: list) -> int:
    return len(p) - 1


def divmod_poly(p: list, d: list, field) -> tuple[list, list]:
    d = trim(list(d))
    if not d:
        raise ZeroDivisionError("univariate division by zero")
    r = trim(list(p))
    if len(r) < len(d):
        return [], r
    q = [field.zero()] * (len(r) - len(d) + 1)
    dl = d[-1]
    while r and len(r) >= len(d):
        if not r[-1]:
            r.pop()
            continue
        k = len(r) - len(d)
        c = r[-1] / dl
        q[k] = c
        for i in range(len(d)):
            r[k + i] = r[k + i] - c * d[i]
        r.pop()
    return trim(q), trim(r)


def monic(p: list) -> list:
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def gcd_poly(p: list, q: list, field) -> list:
    a, b = trim(list(p)), trim(list(q))
    while b:
        _, r = divmod_poly(a, b, field)
        a, b = b, r
    return monic(a)


def derivative(p: list, field) -> list:
    return trim([p[i] * field.from_int(i) for i in range(1, len(p))])


def squarefree_part(p: list, field) -> list:
    """p divided by gcd(p, p'); same roots, all simple (char 0 or char > deg)."""
    if not p:
        return p
    g = gcd_poly(p, derivative(p, field), field)
    if deg(g) <= 0:
        return monic(list(p))
    q, r = divmod_poly(p, g, field)
    if r:
        raise InputError("squarefree division not exact")
    return monic(q)


def is_squarefree(p: list, field) -> bool:
    if not p:
        return False
    g = gcd_poly(p, derivative(p, field), field)
    return deg(g) <= 0


# ---------------------------------------------------------------------------
# Rational roots by p-adic lifting (Loos 1983)
# ---------------------------------------------------------------------------


def rational_roots(coeffs: list[Fraction]) -> tuple[dict[Fraction, int], int]:
    """Rational roots with multiplicities of a nonzero polynomial over Q.

    Returns (roots, cofactor_degree), cofactor_degree being the degree of the
    part with no rational roots; the roots are always all found.  Loos,
    "Computing rational zeros of integral polynomials by p-adic expansion"
    (SIAM J. Comput. 12, 1983): every rational root a/b of the squarefree part
    s = s_d t^d + ... + s_0, in integers, has a | s_0 and b | s_d.  Take the
    smallest odd prime p dividing neither s_0 nor s_d at which every root of s
    mod p is simple (any p not dividing the discriminant will do), find those
    roots by evaluation, Newton-lift each one until p^k > 2 |s_0| |s_d|,
    reconstruct a/b with |a| <= |s_0| and 0 < b <= |s_d|, and count how often
    b t - a divides the polynomial exactly.
    """
    p = trim([Fraction(c) for c in coeffs])
    if not p:
        raise InputError("rational_roots of the zero polynomial")
    roots: dict[Fraction, int] = {}
    z = 0
    while not p[0]:
        p.pop(0)
        z += 1
    if z:
        roots[Fraction(0)] = z
    if deg(p) <= 0:
        return roots, 0
    s = _integral(squarefree_part(p, QQ))
    ds = [i * c for i, c in enumerate(s)][1:]
    a_bound, b_bound = abs(s[0]), abs(s[-1])
    prime = 3
    while True:
        if s[0] % prime and s[-1] % prime:
            zeros = [r for r in range(prime) if not _horner_mod(s, r, prime)]
            if all(_horner_mod(ds, r, prime) for r in zeros):
                break
        prime += 2
        while not is_prime(prime):
            prime += 2
    work = _integral(p)
    for r in zeros:
        mod = prime
        while mod <= 2 * a_bound * b_bound:
            mod *= mod
            r = (r - _horner_mod(s, r, mod) * pow(_horner_mod(ds, r, mod), -1, mod)) % mod
        cand = _reconstruct(r, mod, a_bound, b_bound)
        while cand is not None and (quo := _divide_linear(work, cand)) is not None:
            work = quo
            roots[cand] = roots.get(cand, 0) + 1
    return roots, deg(work)


def _integral(p: list[Fraction]) -> list[int]:
    den = math.lcm(*(c.denominator for c in p))
    return [int(c * den) for c in p]


def _horner_mod(s: list[int], x: int, mod: int) -> int:
    v = 0
    for c in reversed(s):
        v = (v * x + c) % mod
    return v


def _reconstruct(r: int, mod: int, a_bound: int, b_bound: int) -> Fraction | None:
    """The a/b with a = b*r mod mod, |a| <= a_bound and 0 < b <= b_bound, if any
    (unique when mod > 2 a_bound b_bound): the extended Euclidean remainder
    sequence of (mod, r), stopped at the first remainder <= a_bound (MCA 5.26)."""
    r0, t0, r1, t1 = mod, 0, r, 1
    while r1 > a_bound:
        q = r0 // r1
        r0, t0, r1, t1 = r1, t1, r0 - q * r1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    return Fraction(r1, t1) if 0 < t1 <= b_bound else None


def _divide_linear(c: list[int], root: Fraction) -> list[int] | None:
    """c / (b t - a) for root = a/b, in integers (Gauss's lemma), or None when
    root is not a root of c."""
    a, b = root.numerator, root.denominator
    quo = [0] * (len(c) - 1)
    carry = 0  # c_k + a q_k, which b must divide
    for k in range(len(c) - 1, 0, -1):
        quo[k - 1], rem = divmod(c[k] + carry, b)
        if rem:
            return None
        carry = a * quo[k - 1]
    return quo if c[0] + carry == 0 else None
