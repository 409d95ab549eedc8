"""Dense univariate polynomials as integer or residue lists.

Polynomials are lists of coefficients in ascending degree with no trailing
zeros.  Includes modular gcds, resultants and complete rational-root
extraction by p-adic lifting, and the packed kernel that evaluates forms on
the lines of P^2(F_q) (`pack_lines`, `common_zeros`).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from ..errors import InputError
from .fields import is_prime, word_primes


def trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def deg(p: list) -> int:
    return len(p) - 1


def gcd_int(*polys: list[int]) -> list[int]:
    """The primitive gcd in Z[t] of trimmed integer lists, by Brown's modular
    method (J. ACM 18, 1971; MCA ch. 6) on their nonzero primitive parts,
    with lead the gcd of their leading coefficients.  The monic gcds mod word
    primes not dividing lead, scaled by lead, are combined by CRT into the
    symmetric range; an image of higher degree than the lowest seen comes
    from an unlucky prime and is skipped, one of lower degree restarts the
    CRT.  The primitive part of the candidate is the gcd once it divides
    every list exactly."""
    polys = [p for p in map(_primitive, polys) if p]
    if len(polys) < 2:
        return polys[0] if polys else []
    lead = math.gcd(*(p[-1] for p in polys))
    acc, mod = [], 1
    for prime in word_primes():
        if not lead % prime:
            continue
        image = polys[0]
        for p in polys[1:]:
            image = gcd_mod(image, p, prime)
            if len(image) == 1:
                return [1]
        image = [lead * c % prime for c in image]
        if acc and len(image) > len(acc):
            continue
        acc, mod = (crt(acc, mod, image, prime), mod * prime) if len(image) == len(acc) else (image, prime)
        cand = _primitive([symmetric(c, mod) for c in acc])
        if all(_quotient(p, cand) is not None for p in polys):
            return cand


def gcd_mod(a: list[int], b: list[int], mod: int) -> list[int]:
    """Monic gcd mod a prime of integer coefficient lists, by Euclid."""
    a, b = (trim([c % mod for c in x]) for x in (a, b))
    while b:
        a, b = b, _rem_mod(a, b, mod)
    if not a:
        return a
    inv = pow(a[-1], -1, mod)
    return [c * inv % mod for c in a]


def _rem_mod(a: list[int], b: list[int], mod: int) -> list[int]:
    """Remainder of a by b mod a prime; both reduced, b with nonzero lead."""
    r, db = list(a), len(b) - 1
    inv = pow(b[-1], -1, mod)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k] * inv % mod
        if c:
            r[k - db : k] = [(x - c * y) % mod for x, y in zip(r[k - db : k], b)]
    return trim(r[:db])


def resultant_mod(a: list[int], b: list[int], mod: int) -> int:
    """Res_{m,n}(a, b) mod a prime, for residue lists of formal degrees
    m = len(a) - 1 and n = len(b) - 1, by Euclid (MCA ch. 6).  A zero formal
    lead drops a degree: Res_{m,n} = (-1)^n b_n Res_{m-1,n} when a_m = 0, and
    a_m Res_{m,n-1} when b_n = 0.  Otherwise, after a swap to m >= n (sign
    (-1)^{mn}), Res_{n,m}(b, a) = b_n^{m-k} Res_{n,k}(b, r) for the remainder
    r of a mod b, of degree k."""
    res = 1
    while True:
        m, n = len(a) - 1, len(b) - 1
        if not m or not n:
            return res * pow(a[0], n, mod) * pow(b[0], m, mod) % mod
        if not a[-1]:
            res, a = res * b[-1] * (-1) ** n % mod, a[:-1]
        elif not b[-1]:
            res, b = res * a[-1] % mod, b[:-1]
        else:
            if m < n:
                a, b, m, n, res = b, a, n, m, res * (-1) ** (m * n)
            r = _rem_mod(a, b, mod)
            if not r:
                return 0
            res = res * (-1) ** (m * n) * pow(b[-1], m - len(r) + 1, mod) % mod
            a, b = b, r


def resultant_int(a: list[int], b: list[int]) -> int:
    """Res(a, b) of integer lists of degrees m, n >= 1 with nonzero leads, by
    the subresultant PRS (Collins, J. ACM 14, 1967; Cohen, GTM 138, 3.3.7):
    the pseudo-remainder of a by b, for a drop of d = deg a - deg b, is
    divided exactly by g h^d, g the lead of the previous divisor and h that
    of the previous subresultant (both 1 at first), then h <- g^d / h^(d-1);
    each step with deg a and deg b odd flips the sign."""
    s = 1
    if len(a) < len(b):
        a, b, s = b, a, (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = 1
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        d = m - n
        if m & n & 1:
            s = -s
        r, lb = list(a), b[-1]
        for k in range(m, n - 1, -1):
            c = r.pop()
            r = [lb * x for x in r]
            if c:
                r[k - n : k] = [x - c * y for x, y in zip(r[k - n : k], b)]
        if not trim(r):
            return 0
        div = g * h**d
        a, b, g = b, [c // div for c in r], b[-1]
        if d:
            h = g**d // h ** (d - 1)
    m = len(a) - 1
    return s * (b[0] ** m // h ** (m - 1))


def crt(acc: list[int], mod: int, image: list[int], prime: int) -> list[int]:
    """Residues mod mod * prime agreeing with acc mod mod and image mod prime."""
    inv = pow(mod, -1, prime)
    return [a + mod * ((b - a) * inv % prime) for a, b in zip(acc, image)]


def symmetric(c: int, mod: int) -> int:
    """The representative of c mod mod in (-mod/2, mod/2]."""
    return c - mod if 2 * c > mod else c


def _quotient(a: list[int], d: list[int]) -> list[int] | None:
    """a / d in Z[t] by exact long division, or None when d does not divide a
    there; d is trimmed and nonzero."""
    r, n = list(a), len(d)
    quo = [0] * max(len(r) - n + 1, 0)
    for k in range(len(r) - n, -1, -1):
        quo[k], rem = divmod(r[k + n - 1], d[-1])
        if rem:
            return None
        r[k : k + n] = [x - quo[k] * y for x, y in zip(r[k : k + n], d)]
    return None if any(r) else quo


# ---------------------------------------------------------------------------
# Rational roots by p-adic lifting (Loos 1983)
# ---------------------------------------------------------------------------


def rational_roots(coeffs: list[int]) -> tuple[dict[Fraction, int], int]:
    """Rational roots with multiplicities of a nonzero integer polynomial (a
    rational one is cleared of denominators first).

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
    work = _integral(coeffs)
    if not work:
        raise InputError("rational_roots of the zero polynomial")
    roots: dict[Fraction, int] = {}
    z = next(i for i, c in enumerate(work) if c)
    if z:
        roots[Fraction(0)] = z
        work = work[z:]
    if deg(work) <= 0:
        return roots, 0
    s = _quotient(work, gcd_int(work, [i * c for i, c in enumerate(work)][1:]))
    ds = [i * c for i, c in enumerate(s)][1:]
    a_bound, b_bound = abs(s[0]), abs(s[-1])
    prime = 3
    while True:
        if s[0] % prime and s[-1] % prime:
            zeros = [r for r in range(prime) if not horner_mod(s, r, prime)]
            if all(horner_mod(ds, r, prime) for r in zeros):
                break
        prime += 2
        while not is_prime(prime):
            prime += 2
    for r in zeros:
        mod = prime
        while mod <= 2 * a_bound * b_bound:
            mod *= mod
            r = (r - horner_mod(s, r, mod) * pow(horner_mod(ds, r, mod), -1, mod)) % mod
        cand = _reconstruct(r, mod, a_bound, b_bound)
        while cand is not None and (quo := _divide_linear(work, cand)) is not None:
            work = quo
            roots[cand] = roots.get(cand, 0) + 1
    return roots, deg(work)


def _integral(p: list) -> list[int]:
    """The primitive integer multiple of a list of integers or fractions,
    trimmed."""
    p = trim(list(p))
    den = math.lcm(*(c.denominator for c in p))
    return _primitive([c.numerator * (den // c.denominator) for c in p])


def _primitive(c: list[int]) -> list[int]:
    """An integer list divided by the gcd of its entries."""
    g = math.gcd(*c)
    return c if g == 1 else [k // g for k in c]


def horner_mod(s: list[int], x: int, mod: int) -> int:
    v = 0
    for c in reversed(s):
        v = (v * x + c) % mod
    return v


_POWER_COLUMNS: dict = {}  # (q, w) -> [column k for k = 0, 1, ...]


def power_columns(q: int, w: int, n: int) -> list:
    """The first n power columns: t^k mod q for t = 0..q-1, consecutive lanes
    of w bits of one integer in the machine's byte order; made once per (q, w)
    and kept.  A combination of them holds in lane t its polynomial's value at
    t (Kronecker substitution) while every lane stays below 2^w."""
    cols = _POWER_COLUMNS.setdefault((q, w), [])
    while len(cols) < n:
        column = b"".join(pow(t, len(cols), q).to_bytes(w // 8, sys.byteorder) for t in range(q))
        cols.append(int.from_bytes(column, sys.byteorder))
    return cols


def lanes(v: int, q: int, w: int):
    """The lanes t = 0..q-1 of a nonnegative combination v of `power_columns`
    of width w, 32 or 64 bits, as an array of integers."""
    return memoryview(v.to_bytes(q * w // 8, sys.byteorder)).cast("I" if w == 32 else "Q")


def lane_width(q: int, d: int) -> int:
    """The lane width of `pack_lines` for forms of degree <= d: 32 bits while
    a lane's bound (d+1)^2 (q-1)^3 stays below 2^32, else 64."""
    return 32 if (d + 1) ** 2 * (q - 1) ** 3 < 2**32 else 64


def pack_lines(p: dict, q: int, w: int) -> tuple:
    """The form p, given by integer terms in three variables, on the lines
    (a : b : t), a = 0 and a = 1: lists of (j, P_j) with p(a, b, t) =
    sum_j b^j P_j(t), P_j packed by residue coefficients as its values at
    t = 0..q-1 in lanes of w bits (Kronecker substitution).  A lane of a
    combination holds at most (d+1)^2 (q-1)^3, d = deg p."""
    cols = power_columns(q, w, max(map(sum, p), default=0) + 1)
    out = ({}, {})
    for (i, j, k), c in p.items():
        for part in out[bool(i):]:
            part.setdefault(j, [0] * len(cols))[k] += c
    return tuple([(j, sum(c % q * col for c, col in zip(row, cols))) for j, row in part.items()] for part in out)


def line_lanes(packed: tuple, a: int, b: int, q: int, w: int):
    """The values at t = 0..q-1 of a `pack_lines` form on the line (a : b : t),
    as lanes: one combination of its packed parts."""
    return lanes(sum(pow(b, j, q) * P for j, P in packed[a]), q, w)


def common_zeros(systems: list, lines, q: int, w: int) -> list:
    """The points (a, b, t) of `lines`, pairs ((a, b), ts), where every
    `pack_lines` form of systems vanishes; a later form is combined only
    while some t of the line is alive."""
    found = []
    for (a, b), ts in lines:
        alive = ts
        for packed in systems:
            values = line_lanes(packed, a, b, q, w)
            alive = [t for t in alive if not values[t] % q]
            if not alive:
                break
        found += [(a, b, t) for t in alive]
    return found


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
