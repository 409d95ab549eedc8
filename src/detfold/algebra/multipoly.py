"""Polynomial arithmetic on term dicts.

A polynomial is a dict mapping exponent tuples to nonzero coefficients in
the field of characteristic q: Fractions or ints over Q (q = 0), residues in
[0, q) over F_q.  The parser returns one, and every computation takes them,
with integer coefficients wherever a representation is analysed:
`mul_terms`, `det_terms`, `diff_terms`, `resultant` and the `dense` forms
evaluated by `form_values`.  `format_terms` prints one.
"""

from __future__ import annotations

import functools
import math
from operator import add, mul

from ..errors import DegenerateResultant, InputError
from .fields import format_coeff, residue, word_primes
from .unipoly import horner_mod, resultant_int, resultant_mod

VARS_X = ("x1", "x2", "x3")
VARS_XU = ("x1", "x2", "x3", "u1", "u2", "u3")


def format_terms(terms: dict, vars: tuple, den: int = 1) -> str:
    """The polynomial with these terms, each coefficient divided by den, as
    text in graded lexicographic order (total degree first, then
    x1 > x2 > ...), so output is deterministic."""
    if not terms:
        return "0"
    items = sorted(terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
    parts = []
    for idx, (e, c) in enumerate(items):
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(vars, e) if k > 0)
        cs = format_coeff(c, den)
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        if mono and mag == "1":
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = mag
        if idx == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def _grlex_key(e: tuple):
    return (sum(e), tuple(-k for k in reversed(e)))


def degree(terms: dict) -> int:
    """The degree of a nonzero form given by its terms."""
    return max(map(sum, terms))


def mul_terms(a: dict, b: dict, q: int = 0) -> dict:
    """The product of two term dicts (exponent tuple -> coefficient), without
    its zero terms, each coefficient reduced mod q over F_q (q > 0)."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return residues(out, q)


def det_terms(rows: list, q: int = 0) -> dict:
    """The determinant of a square matrix of integer term dicts, by cofactor
    expansion along the first row, its coefficients reduced mod q over F_q
    (q > 0)."""
    if len(rows) == 1:
        return residues(rows[0][0], q)
    total: dict = {}
    for j, a in enumerate(rows[0]):
        if a:
            minor = det_terms([row[:j] + row[j + 1 :] for row in rows[1:]])
            for e, v in mul_terms(a, minor).items():
                total[e] = total.get(e, 0) + (-v if j % 2 else v)
    return residues(total, q)


def diff_terms(terms: dict, i: int, q: int = 0) -> dict:
    """The partial derivative in the i-th variable of integer terms, reduced
    mod q over F_q (q > 0)."""
    return residues({e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in terms.items() if e[i]}, q)


def residues(terms: dict, q: int) -> dict:
    """The terms with nonzero coefficients in characteristic q: residues mod
    q over F_q, the coefficients themselves over Q (q = 0)."""
    return {e: r for e, c in terms.items() if (r := residue(c, q))}


def resultant(f: dict, g: dict, i: int) -> dict:
    """Sylvester resultant, with respect to x_i, of two polynomials given by
    integer terms (exponent tuple -> int), as integer terms.

    The result is free of x_i; it vanishes identically iff f and g share a
    factor involving x_i.  Over F_q the residues are taken as integers and
    the result is reduced by the caller.  Computed in one big-integer pass by
    Kronecker substitution (von zur Gathen & Gerhard, Modern Computer
    Algebra, 8.4): the packed terms of `_packed` of every power of x_i are
    summed at t = 2^k, `resultant_int` runs the subresultant PRS on the two
    integer polynomials in x_i, and the coefficients are read off as signed
    base-2^k digits.  k exceeds the bit length of B = 2 |f|_1^n |g|_1^m
    (1-norms of the coefficients, m and n the degrees in x_i), the row-sum
    bound on every Sylvester minor, so both leads stay nonzero at 2^k, every
    division of the PRS exact in Z[t] stays exact there, and the digits are
    unique.
    """
    fp, gp, top, others, base = _packed(f, g, i)
    n1, n2 = (sum(abs(c) for pairs in p for _, c in pairs) for p in (fp, gp))
    k = (2 * n1 ** (len(gp) - 1) * n2 ** (len(fp) - 1)).bit_length() + 1
    r = resultant_int(*([sum(c << k * t for t, c in pairs) for pairs in p] for p in (fp, gp)))
    terms, mask, half, width = {}, (1 << k) - 1, 1 << (k - 1), len(next(iter(f)))
    for texp in range(top + 1):
        c = r & mask
        if c >= half:  # the digit is signed, in (-2^(k-1), 2^(k-1))
            c -= 1 << k
        r = (r - c) >> k
        if c:
            e = [0] * width
            for j in others:
                texp, e[j] = divmod(texp, base)
            terms[tuple(e)] = c
    return terms


def resultant_vanishes(f: dict, g: dict, i: int, q: int = 0) -> bool:
    """Whether `resultant(f, g, i)` vanishes over Q (q = 0) or mod the prime
    q, from values of the packed determinant mod q over F_q, mod the first
    word prime over Q, at t = 0, 1, ... for at most min(N + 1, prime) points:
    a nonzero value proves the resultant nonzero, and over F_q with q > N
    all-zero values prove it zero."""
    fp, gp, top, *_ = _packed(f, g, i)
    prime = q or next(word_primes())
    fc, gc = ([_residues(pairs, prime) for pairs in p] for p in (fp, gp))
    if any(_packed_value(fc, gc, t, prime) for t in range(min(top + 1, prime))):
        return False
    return (bool(q) and prime > top) or not any(residue(c, q) for c in resultant(f, g, i).values())


def _packed(f: dict, g: dict, i: int):
    """(fp, gp, N, others, base): the coefficients of x_i^0..x_i^m in f and
    x_i^0..x_i^n in g, as (t-exponent, integer) pairs, with the variables at
    the indices `others` packed into t by Kronecker substitution with base
    D+1, D = deg f * deg g, which bounds every exponent of the resultant; and
    its t-degree bound N."""
    if not f or not g:
        raise InputError("resultant of the zero polynomial")
    m, n = max(e[i] for e in f), max(e[i] for e in g)
    if m <= 0 or n <= 0:
        raise DegenerateResultant(f"input free of variable {i}: degrees ({m}, {n})")
    others = [j for j in range(len(next(iter(f)))) if j != i and (any(e[j] for e in f) or any(e[j] for e in g))]
    base = max(map(sum, f)) * max(map(sum, g)) + 1
    top = (base - 1) * base ** (len(others) - 1) if others else 0
    weights = [(j, base**k) for k, j in enumerate(others)]
    fp, gp = ([[] for _ in range(d + 1)] for d in (m, n))
    for terms, out in ((f, fp), (g, gp)):
        for e, c in terms.items():
            out[e[i]].append((sum(e[j] * w for j, w in weights), c))
    return fp, gp, top, others, base


def _residues(pairs: list, prime: int) -> list:
    """The t-coefficient list, mod prime, of packed (t-exponent, c) pairs."""
    cs = [0] * (max((t for t, _ in pairs), default=-1) + 1)
    for t, c in pairs:
        cs[t] = c % prime
    return cs


def _packed_value(fc: list, gc: list, t: int, prime: int) -> int:
    """The packed Sylvester determinant at the formal degrees, at t, mod prime."""
    return resultant_mod(*([horner_mod(c, t, prime) for c in cs] for cs in (fc, gc)), prime)


@functools.cache
def monomials(d: int) -> tuple:
    """The exponents of degree d in three variables, in graded-lex order."""
    return tuple((a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1))


def dense(terms: dict, d: int) -> tuple:
    """A form of degree d in three variables, given by integer terms, as
    (d, its coefficients of `monomials(d)`)."""
    return d, [terms.get(e, 0) for e in monomials(d)]


def form_values(forms: list, n, q: int = 0) -> list[int]:
    """The values of `dense` forms at the integer vector n, reduced mod q over
    F_q: each the dot product of its coefficients with the monomials of its
    degree at n, which are computed once per degree."""
    x, y, z = n
    table: dict = {}
    out = []
    for d, coeffs in forms:
        if d not in table:
            table[d] = [x**a * y**b * z**c for a, b, c in monomials(d)]
        v = sum(map(mul, coeffs, table[d]))
        out.append(residue(v, q))
    return out


def clear_denominators(polys: list, q: int = 0) -> tuple[list[dict], int]:
    """The integer terms of c p for each polynomial p, and c: over Q the lcm
    of all their denominators, over F_q 1, the terms their residues."""
    if q:
        return [residues(p, q) for p in polys], 1
    # pairwise, not by a star-call, which would build a tuple of all the denominators
    c = functools.reduce(math.lcm, (v.denominator for p in polys for v in p.values()), 1)
    return [{e: v.numerator * (c // v.denominator) for e, v in p.items()} for p in polys], c
