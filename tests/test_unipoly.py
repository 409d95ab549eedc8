import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from hypothesis import assume, given, settings, strategies as st

from detfold.algebra import VARS_X
from detfold.algebra.fields import word_primes
from detfold.algebra.unipoly import (
    gcd_int,
    horner_mod,
    lane_width,
    lanes,
    line_lanes,
    pack_lines,
    power_columns,
    rational_roots,
    resultant_int,
    trim,
)
from reference import Poly, coerce, divmod_poly, euclid_gcd, gcd_poly, is_squarefree, monic, squarefree_part, sylvester_det
from test_curves import _form


def test_rational_roots_examples():
    roots, cof = rational_roots([0, -1, 0, 1])  # t^3 - t
    assert roots == {Fraction(-1): 1, Fraction(0): 1, Fraction(1): 1}
    assert cof == 0

    roots, cof = rational_roots([1, 0, 1])  # t^2 + 1
    assert roots == {} and cof == 2

    roots, cof = rational_roots([1, 0, 0, 1])  # t^3 + 1
    assert roots == {Fraction(-1): 1} and cof == 2


def test_rational_roots_multiplicity_and_fractions():
    # (2t - 1)^2 (t + 3) = 4t^3 + 8t^2 - 11t + 3
    roots, cof = rational_roots([Fraction(c) for c in (3, -11, 8, 4)])
    assert roots == {Fraction(1, 2): 2, Fraction(-3): 1}
    assert cof == 0


def test_rational_roots_random_planted():
    rng = random.Random(23)
    for _ in range(30):
        planted = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(3)]
        poly = [Fraction(1)]
        for r in planted:
            new = [Fraction(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                new[i + 1] += c
                new[i] += c * (-r)
            poly = new
        roots, cof = rational_roots(poly)
        assert cof == 0
        expect: dict = {}
        for r in planted:
            expect[r] = expect.get(r, 0) + 1
        assert roots == expect


def test_gcd_and_squarefree():
    f = 0
    # (t-1)^2 (t+2)
    p = [Fraction(2), Fraction(-3), Fraction(0), Fraction(1)]
    assert not is_squarefree(p, f)
    sf = squarefree_part(p, f)
    roots, cof = rational_roots(sf)
    assert set(roots) == {Fraction(1), Fraction(-2)}
    assert all(m == 1 for m in roots.values())

    a = [Fraction(-1), Fraction(0), Fraction(1)]  # t^2 - 1
    b = [Fraction(1), Fraction(1)]  # t + 1
    g = gcd_poly(a, b, f)
    assert g == [Fraction(1), Fraction(1)]


def test_divmod_property():
    rng = random.Random(4)
    f = 0
    for _ in range(40):
        p = [Fraction(rng.randrange(-9, 10)) for _ in range(rng.randrange(1, 7))]
        d = [Fraction(rng.randrange(-9, 10)) for _ in range(rng.randrange(1, 4))]
        while not any(d):
            d = [Fraction(rng.randrange(-9, 10)) for _ in range(rng.randrange(1, 4))]
        q, r = divmod_poly(p, d, f)
        assert _add(_mul(q, d), r) == trim(list(p))
        assert len(r) < len(trim(list(d))) or not r


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def _add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def _planted(roots, cofactor):
    """cofactor times the product of (t - r) over roots, ascending."""
    poly = [Fraction(c) for c in cofactor]
    for r in roots:
        poly = _mul(poly, [-r, Fraction(1)])
    return poly


def _assert_fast_and_complete(coeffs, expect_roots, expect_cof):
    start = time.perf_counter()
    roots, cof = rational_roots(coeffs)
    assert time.perf_counter() - start < 1.0
    assert roots == expect_roots and cof == expect_cof


def test_rational_roots_primorial_end_coefficients():
    # n + t^2 + n t^3 with n the product of the first 12 primes: candidates
    # a/b from the divisors of both end coefficients number 4096^2
    n = 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        n *= p
    _assert_fast_and_complete([n, 0, 1, n], {}, 3)
    # with planted roots whose numerators and denominators divide n
    poly = _planted([Fraction(7 * 37, 11 * 13), Fraction(-2 * 31, 29)], [n, 0, 1, n])
    _assert_fast_and_complete(poly, {Fraction(259, 143): 1, Fraction(-62, 29): 1}, 3)


def test_rational_roots_unfactorable_constant():
    # a0 = 3 * (2^61 - 1) * (2^89 - 1) has two prime factors beyond the reach
    # of trial division and Pollard rho; the planted roots -(2^61 - 1) and 3
    # have numerators dividing the new constant term
    a0 = 3 * (2**61 - 1) * (2**89 - 1)
    _assert_fast_and_complete([a0, 0, 1, 1], {}, 3)
    mersenne = Fraction(-(2**61 - 1))
    poly = _planted([mersenne, Fraction(3)], [a0, 0, 1, 1])
    _assert_fast_and_complete(poly, {mersenne: 1, Fraction(3): 1}, 3)


def _small_reference_roots(coeffs):
    """Roots with multiplicities of a small integer polynomial, by trying every
    a/b with a dividing the lowest nonzero and b the leading coefficient."""
    poly = trim([Fraction(c) for c in coeffs])
    roots: dict = {}
    ends = [abs(int(c)) for c in (next(c for c in poly if c), poly[-1])]
    divisors = [[d for d in range(1, e + 1) if e % d == 0] for e in ends]
    candidates = {Fraction(0)} | {Fraction(sign * a, b) for a in divisors[0] for b in divisors[1] for sign in (1, -1)}
    for r in candidates:
        while len(poly) > 1:
            quo, rem = divmod_poly(poly, [-r, Fraction(1)], 0)
            if rem:
                break
            poly = quo
            roots[r] = roots.get(r, 0) + 1
    return roots


_fractions = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    planted=st.lists(_fractions, min_size=1, max_size=6),
    cofactor=st.lists(st.integers(-50, 50), min_size=1, max_size=4).filter(lambda c: c[-1] != 0),
)
def test_rational_roots_planted_property(planted, cofactor):
    # the planted roots of large height plus the cofactor's own roots, each
    # with its multiplicity; the degree left over has no rational root
    expect = _small_reference_roots(cofactor)
    for r in planted:
        expect[r] = expect.get(r, 0) + 1
    roots, cof = rational_roots(_planted(planted, cofactor))
    assert roots == expect
    assert cof == len(planted) + len(cofactor) - 1 - sum(expect.values())


_rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))
_huge = st.integers(-(2**140), 2**140).map(Fraction)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    common=st.lists(st.one_of(_rationals, _huge), min_size=1, max_size=4),
    a=st.lists(_rationals, min_size=1, max_size=5),
    b=st.lists(_rationals, min_size=1, max_size=5),
)
def test_gcd_over_q_equals_euclid(common, a, b):
    # a planted common factor whose coefficients may exceed 2^130, so the
    # scaled images need several 61-bit primes before the candidate divides
    p, q = _mul(common, a), _mul(common, b)
    g = gcd_poly(p, q, 0)
    assert g == euclid_gcd(p, q, 0)
    if p and q:
        assert not divmod_poly(g, monic(trim(list(common))), 0)[1]


_ints = st.integers(-50, 50)
_huge_ints = st.integers(-(2**140), 2**140)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    common=st.lists(st.one_of(_ints, _huge_ints), min_size=1, max_size=4),
    a=st.lists(_ints, min_size=1, max_size=5),
    b=st.lists(_ints, min_size=1, max_size=5),
    third=st.lists(_ints, min_size=1, max_size=5),
    scale=st.integers(1, 12),
)
def test_gcd_int_equals_euclid_up_to_a_scalar(common, a, b, third, scale):
    # integer products with a planted common factor, one of them scaled so
    # that it is not primitive: the gcd is primitive, and it is Euclid's
    # monic gcd over Q times a rational scalar; so is the gcd of three lists,
    # the third possibly zero, against Euclid folded over them
    p, q = trim([scale * int(c) for c in _mul(common, a)]), [int(c) for c in _mul(common, b)]
    assume(p and q)
    g = gcd_int(p, q)
    assert math.gcd(*g) == 1
    want = euclid_gcd([Fraction(c) for c in p], [Fraction(c) for c in q], 0)
    assert monic([Fraction(c) for c in g]) == want
    r = trim([int(x) for x in _mul(common, third)])
    g = gcd_int(p, r, q)
    assert math.gcd(*g) == 1
    assert monic([Fraction(c) for c in g]) == (euclid_gcd(want, [Fraction(c) for c in r], 0) if r else want)


def test_gcd_int_of_coprime_and_zero_lists():
    assert gcd_int([-1, 1], [2, 1]) == [1]
    assert gcd_int([], [6, -4]) == [3, -2]
    assert gcd_int([4, 2], []) == [2, 1]
    assert gcd_int([-1, 1], [], [2, 1]) == [1] and gcd_int([], [6, -4], []) == [3, -2]


@pytest.mark.parametrize("prime", [3, 13, 2**31 - 1])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_gcd_over_fp_equals_euclid(prime, data):
    elts = st.integers(0, prime - 1).map(lambda c: coerce(prime, c))
    common, a, b = (data.draw(st.lists(elts, min_size=1, max_size=n)) for n in (4, 5, 5))
    p, q = (_mul(common, x) for x in (a, b))
    assert gcd_poly(p, q, prime) == euclid_gcd(p, q, prime)


def test_gcd_over_q_past_a_bad_and_an_unlucky_prime():
    big = next(word_primes())
    # the leading coefficients are multiples of the first prime, which is skipped
    p = _mul([Fraction(3), Fraction(big)], [Fraction(1), Fraction(2 * big)])
    q = _mul([Fraction(3), Fraction(big)], [Fraction(5), Fraction(big)])
    assert gcd_poly(p, q, 0) == euclid_gcd(p, q, 0) == [Fraction(3, big), Fraction(1)]
    # (t + 2)(t - 1) and (t + 2)(t - 1 - big) share t - 1 mod the first prime
    # only: its image has degree 2, the next prime's degree 1 restarts the CRT
    p = _mul([Fraction(2), Fraction(1)], [Fraction(-1), Fraction(1)])
    q = _mul([Fraction(2), Fraction(1)], [Fraction(-1 - big), Fraction(1)])
    assert gcd_poly(p, q, 0) == [Fraction(2), Fraction(1)]
    assert gcd_poly([Fraction(-1), Fraction(1)], [Fraction(-1 - big), Fraction(1)], 0) == [Fraction(1)]
    # t + 2^100 needs two primes; the second prime of the source is unlucky
    # for the cofactors t - 1 and t - 1 - second, so its image is skipped
    second = next(p for i, p in enumerate(word_primes()) if i == 1)
    common = [Fraction(2**100), Fraction(1)]
    p = _mul(common, [Fraction(-1), Fraction(1)])
    q = _mul(common, [Fraction(-1 - second), Fraction(1)])
    assert gcd_poly(p, q, 0) == common


@pytest.mark.parametrize(("w", "q"), [(32, 3), (32, 29), (32, 223), (64, 449), (64, 997)])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_lanes_match_horner(w, q, data):
    # every lane of a combination of seven power columns is its polynomial's
    # value mod q; coefficients up to (q - 1)^2, as when the plane scan scales
    # residue forms by residues, give lanes up to 7 (q - 1)^3, which needs 64
    # bits at q = 997, and the list of seven (q - 1)^2 gives the largest
    s = data.draw(st.one_of(st.just([(q - 1) ** 2] * 7), st.lists(st.integers(0, (q - 1) ** 2), max_size=7)))
    values = lanes(sum(c * col for c, col in zip(s, power_columns(q, w, 7))), q, w)
    assert [values[t] % q for t in range(q)] == [horner_mod(s, t, q) for t in range(q)]


@pytest.mark.parametrize("q", [3, 443, 449, 997])
@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(data=st.data())
def test_packed_lines_match_horner(q, data):
    # a sextic's lanes are 32 bits wide up to q = 443 and 64 bits from
    # q = 449; every lane is congruent to the form's value on its line,
    # for a drawn form and for every monomial of degree <= 6 with
    # coefficient q - 1, where several terms share a power of x2 and of x3
    w = lane_width(q, 6)
    assert w == (32 if q <= 443 else 64)
    drawn = _form(data.draw, q, data.draw(st.integers(1, 6)))
    assume(not drawn.is_zero)
    full = Poly(q, VARS_X, {e: coerce(q, -1) for e in product(range(7), repeat=3) if sum(e) <= 6})
    for form in (drawn, full):
        packed = pack_lines(form.terms, q, w)
        for a, b in ((1, data.draw(st.integers(0, q - 1))), (1, q - 1), (0, 1), (0, 0)):
            uni = [0] * 7
            for (i, j, k), c in form.terms.items():
                uni[k] += c * a**i * b**j
            values = line_lanes(packed, a, b, q, w)
            assert [values[t] % q for t in range(q)] == [horner_mod(uni, t, q) for t in range(q)]


# (t - 2) times cofactors of degrees 4 and 3: the PRS reaches the common
# factor after several steps and then a zero remainder
_COMMON = [-2, 1]
_PRS_CASES = {
    "degree_1": ([3, 2], [1, -4, 5, 0, 7]),
    "both_odd": ([2, -1, 0, 3], [1, 4, 0, 0, 0, -2]),
    "gaps": ([5, 0, -3, 0, 0, 0, 2], [-1, 4, 1, 3]),
    "zero_late": ([int(c) for c in _mul(_COMMON, [5, -1, 3, 0, 1])], [int(c) for c in _mul(_COMMON, [7, 0, -1, 2])]),
}


@pytest.mark.parametrize("case", list(_PRS_CASES))
def test_resultant_int_equals_sylvester_determinant(case):
    # each order of the arguments, so the swap to deg a >= deg b and the
    # sign (-1)^(mn) of odd degrees are both taken
    a, b = _PRS_CASES[case]
    for x, y in ((a, b), (b, a)):
        assert resultant_int(x, y) == sylvester_det(x, y)
    assert (resultant_int(a, b) == 0) == (case == "zero_late")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_resultant_int_property(data):
    # degrees 1..7, leads nonzero; half the draws keep only even powers in a,
    # so steps drop two or more degrees
    lists = [data.draw(st.lists(st.integers(-30, 30), min_size=2, max_size=8)) for _ in range(2)]
    if data.draw(st.booleans()):
        lists[0] = [c if i % 2 == 0 else 0 for i, c in enumerate(lists[0])]
    a, b = (trim(x) for x in lists)
    assume(len(a) > 1 and len(b) > 1)
    assert resultant_int(a, b) == sylvester_det(a, b)
