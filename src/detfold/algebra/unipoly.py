"""Dense univariate polynomial helpers over an exact field.

Polynomials are lists of coefficients in ascending degree with no trailing
zeros.  Includes gcd / squarefree machinery and complete rational-root
extraction (trial division plus Pollard rho for the endpoint coefficients,
with an explicit incompleteness flag if factoring ever gives up).
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


def add(p: list, q: list, field) -> list:
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else field.zero()
        b = q[i] if i < len(q) else field.zero()
        out.append(a + b)
    return trim(out)


def mul(p: list, q: list, field) -> list:
    if not p or not q:
        return []
    out = [field.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    return trim(out)


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


def eval_poly(p: list, x, field):
    total = field.zero()
    for c in reversed(p):
        total = total * x + c
    return total


# ---------------------------------------------------------------------------
# Integer factoring support for rational roots
# ---------------------------------------------------------------------------

_TRIAL_BOUND = 100_000
_RHO_BUDGET = 200_000


def _pollard_rho(n: int, rng_c: int = 1) -> int | None:
    if n % 2 == 0:
        return 2
    x, y, d = 2, 2, 1
    c = rng_c
    count = 0
    while d == 1:
        x = (x * x + c) % n
        y = (y * y + c) % n
        y = (y * y + c) % n
        d = math.gcd(abs(x - y), n)
        count += 1
        if count > _RHO_BUDGET:
            return None
    return d if d != n else None


def factorize(n: int) -> dict[int, int] | None:
    """Prime factorization of n > 0, or None when the budget runs out."""
    if n <= 0:
        raise InputError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        split = None
        for c in (1, 2, 3, 5, 7):
            split = _pollard_rho(m, c)
            if split:
                break
        if split is None:
            return None
        stack.extend([split, m // split])
    return factors


def _divisors(factors: dict[int, int], cap: int = 200_000) -> list[int] | None:
    divs = [1]
    for p, e in factors.items():
        cur = list(divs)
        pk = 1
        new = []
        for _ in range(e):
            pk *= p
            new.extend(d * pk for d in cur)
        divs.extend(new)
        if len(divs) > cap:
            return None
    return sorted(divs)


def rational_roots(coeffs: list[Fraction]) -> tuple[dict[Fraction, int], int, bool]:
    """Rational roots with multiplicities of a nonzero polynomial over Q.

    Returns (roots, cofactor_degree, complete) where cofactor_degree is the
    degree of the part with no rational roots.  complete is False only when
    the endpoint coefficients could not be factored within budget, in which
    case only roots of small height are reported.
    """
    p = trim([Fraction(c) for c in coeffs])
    if not p:
        raise InputError("rational_roots of the zero polynomial")
    roots: dict[Fraction, int] = {}
    # strip powers of t (root zero)
    z = 0
    while p and not p[0]:
        p.pop(0)
        z += 1
    if z:
        roots[Fraction(0)] = z
    if deg(p) <= 0:
        return roots, 0, True
    # clear denominators to a primitive integer polynomial
    den = 1
    for c in p:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    ints = [c // g for c in ints]

    a0, an = abs(ints[0]), abs(ints[-1])
    f0, fn = factorize(a0), factorize(an)
    complete = f0 is not None and fn is not None
    if complete:
        nums = _divisors(f0)
        dens = _divisors(fn)
        if nums is None or dens is None:
            complete = False
    if not complete:
        nums = list(range(1, 1001))
        dens = list(range(1, 101))

    candidates = set()
    for b in dens:
        for a in nums:
            if math.gcd(a, b) == 1:
                candidates.add(Fraction(a, b))
                candidates.add(Fraction(-a, b))

    # cheap modular prune before exact evaluation
    p1, p2 = 2_147_483_647, 998_244_353
    ints1 = [c % p1 for c in ints]
    ints2 = [c % p2 for c in ints]
    survivors = []
    for cand in candidates:
        a, b = cand.numerator, cand.denominator
        if a % p1 == 0 or b % p1 == 0 or a % p2 == 0 or b % p2 == 0:
            survivors.append(cand)
            continue
        if _eval_mod(ints1, a, b, p1) == 0 and _eval_mod(ints2, a, b, p2) == 0:
            survivors.append(cand)

    work = p
    for cand in sorted(survivors):
        if deg(work) <= 0:
            break
        while deg(work) > 0 and not eval_poly(work, cand, QQ):
            divisor = [-cand, Fraction(1)]
            work, rem = divmod_poly(work, divisor, QQ)
            if rem:
                raise InputError("root division left a remainder")
            roots[cand] = roots.get(cand, 0) + 1
    return roots, deg(work), complete


def _eval_mod(ints: list[int], a: int, b: int, p: int) -> int:
    """f(a/b) * b^deg mod p via Horner on the homogenized form."""
    total = 0
    bp = 1
    for c in reversed(ints):
        total = (total * a + c * bp) % p
        bp = bp * b % p
    return total
