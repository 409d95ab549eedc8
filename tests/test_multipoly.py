import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from detfold.algebra import VARS_X, VARS_XU, parse_poly
from detfold.algebra.parser import MAX_DEGREE, MAX_LITERAL_DIGITS, MAX_NESTING, PolyParseError, _Parser
from detfold.errors import DegenerateResultant, InputError, ToolError
from detfold.points import ProjPoint
from reference import (
    Poly,
    ReferenceParser,
    bareiss_resultant,
    coerce,
    degree_in,
    diff,
    evaluate,
    involves,
    map_field,
    parse,
    poly_resultant,
    poly_resultant_vanishes,
    reference_parse_poly,
    substitute,
    term_evaluate,
    try_divide,
)


class TestParser:
    def test_fermat_cubic(self):
        f = parse("x1^3 + x2^3 + x3^3")
        assert f.degree() == 3 and len(f.terms) == 3

    def test_zero(self):
        f = parse("0")
        assert f.is_zero and f.is_homogeneous()

    def test_cancellation(self):
        f = parse("x1 + x2 - x2")
        assert f == parse("x1")

    def test_rational_literals(self):
        f = parse("1/2*x1 - 3/4*x2")
        assert f.terms[(1, 0, 0)] == Fraction(1, 2)
        assert f.terms[(0, 1, 0)] == Fraction(-3, 4)

    def test_parentheses_and_products(self):
        f = parse("(x1 + x2)*(x1 - x2)")
        assert f == parse("x1^2 - x2^2")

    def test_six_variables(self):
        f = parse("x1*u1^2 + x2*u2^2", 0, VARS_XU)
        assert f.degree() == 3

    def test_syntax_error_reports_position(self):
        with pytest.raises(PolyParseError) as e:
            parse("x1 + + x2")
        assert "position" in str(e.value)

    def test_unknown_variable(self):
        with pytest.raises(PolyParseError):
            parse("x1 + y")

    def test_non_homogeneous_rejected(self):
        with pytest.raises(InputError):
            parse("x1 + x2*x3")

    def test_nesting_and_literal_limits(self):
        # parentheses nest up to MAX_NESTING deep and a literal has up to
        # MAX_LITERAL_DIGITS digits; one more is a parse error at its token
        n, d = MAX_NESTING, MAX_LITERAL_DIGITS
        assert parse("(" * n + "x1" + ")" * n) == parse("x1")
        assert parse(" + ".join(["(x1)"] * (n + 1))).terms[(1, 0, 0)] == n + 1  # depth, not count
        with pytest.raises(PolyParseError, match=f"nested deeper than {n} .at position {n}"):
            parse("(" * (n + 1) + "x1" + ")" * (n + 1))
        assert parse("9" * d + "*x1").terms[(1, 0, 0)] == 10**d - 1
        with pytest.raises(PolyParseError, match=f"longer than {d} digits .at position 5"):
            parse("x1 + " + "9" * (d + 1) + "*x1")

    def test_degree_limit(self):
        # a product or power may reach MAX_DEGREE; one more is a parse error at
        # its operator, raised before the product is formed; only nonzero
        # terms count, so a product with zero has no degree
        d = MAX_DEGREE
        assert d >= 9  # the degree-9 curves of the squarefree tests parse
        assert parse(f"x1^{d}").degree() == d
        with pytest.raises(PolyParseError, match=f"degree higher than {d} .at position 2."):
            parse(f"x1^{d + 1}")
        with pytest.raises(PolyParseError, match="degree higher than"):
            parse("x1^" + "9" * 4000)
        line = "(x1 + 2*x2 + 3*x3)"
        assert parse("*".join([line] * d)).degree() == d
        with pytest.raises(PolyParseError, match=f"degree higher than {d} .at position {d * len(line) + d - 1}."):
            parse("*".join([line] * (d + 1)))
        assert parse(f"x1^{d - 6}*x2^6").degree() == d
        with pytest.raises(PolyParseError, match=f"at position {len(str(d - 5)) + 3}."):
            parse(f"x1^{d - 5}*x2^6")
        assert parse(f"0*x1^{d}*x2").is_zero
        assert parse(f"(x1 - x1)*x2^{d}*x3").is_zero
        # over F_7 the literal 7 is zero where it is read, and so is a sum
        # 3 + 4 where it is formed
        assert parse(f"7*x1^{d}*x2", 7).is_zero
        assert parse(f"(3*x1^{d} + 4*x1^{d})*x2", 7).is_zero
        with pytest.raises(PolyParseError, match="degree higher than"):
            parse(f"7*x1^{d}*x2")

    @pytest.mark.parametrize("field", [0, 3, 7, 2147483647],
                             ids=["qq", "f3", "f7", "f2^31-1"])
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_reference_parser(self, field, data):
        # expressions with sums, products, nested parentheses, runs of unary
        # minus, fractions (some with denominators that vanish mod q) and
        # powers, of degree at most MAX_DEGREE, some with one inserted token
        # that makes them malformed: the term-dict parser and the former one
        # give equal polynomials with equal coefficient types, or the same
        # error and message
        vars = data.draw(st.sampled_from([VARS_X, VARS_XU]))
        text, _ = data.draw(_expressions(vars, MAX_DEGREE, 0))
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + data.draw(st.sampled_from(["+", ")", "/", "^", "x4", "/0", "^0", "-"])) + text[at:]

        def outcome(parse):
            try:
                p = parse()
            except ToolError as e:
                return type(e).__name__, str(e)
            return dict(p), {e: type(c) for e, c in p.items()}

        assert outcome(lambda: _Parser(text, vars, field).parse()) == outcome(
            lambda: ReferenceParser(text, vars, field).parse())
        assert outcome(lambda: parse_poly(text, vars, field)) == outcome(
            lambda: reference_parse_poly(text, vars, field))

    def test_sign_runs_fold(self):
        # a run of unary minus signs of any length folds to its parity
        x1 = parse("x1", 0)
        assert parse("-" * 3000 + "x1") == x1
        assert parse("x2 - " + "-" * 3000 + "x1") == parse("x2 - x1")
        assert parse("2*" + "-" * 3001 + "x1") == -2 * x1

    def test_print_coefficient_past_int_str_limit(self):
        # int -> str refuses more than 4300 digits by default; a coefficient
        # of 5000 digits still prints, exactly
        f = Poly(0, VARS_X, {(1, 0, 0): Fraction(-(10**4999), 7), (0, 1, 0): Fraction(1)})
        assert str(f) == "-1" + "0" * 4999 + "/7*x1 + x2"

    def test_print_parse_round_trip(self):
        rng = random.Random(7)
        for _ in range(30):
            f = _random_homogeneous(rng, 0, degree=rng.randrange(1, 5))
            if f.is_zero:
                continue
            assert parse(str(f)) == f


@st.composite
def _expressions(draw, vars, budget, depth):
    """(text, bound): a sum of one to three products of one to three factors
    in vars, and a bound on its degree of at most budget, the sum of each
    product's factor bounds.  A factor is a literal, a fraction, a variable
    with an optional power, or, inside fewer than three open parentheses, a
    parenthesized expression, each after a run of zero to three minus signs."""
    terms, bound = [], 0
    for k in range(draw(st.integers(1, 3))):
        factors, used = [], 0
        for _ in range(draw(st.integers(1, 3))):
            kinds = ["int", "fraction"] + (["variable"] if used < budget else [])
            kinds += ["parentheses"] if depth < 3 else []
            kind = draw(st.sampled_from(kinds))
            text = "-" * draw(st.integers(0, 3))
            if kind == "int":
                text += str(draw(st.one_of(st.integers(0, 20), st.integers(0, 10**30))))
            elif kind == "fraction":
                text += f"{draw(st.integers(0, 50))}/{draw(st.integers(1, 15))}"
            elif kind == "variable":
                power = draw(st.integers(1, budget - used))
                text += draw(st.sampled_from(vars)) + (f"^{power}" if power > 1 or draw(st.booleans()) else "")
                used += power
            else:
                inner, d = draw(_expressions(vars, budget - used, depth + 1))
                text += f"({inner})"
                used += d
            factors.append(text)
        sign = draw(st.sampled_from(["", "-"] if k == 0 else [" + ", " - ", " - -"]))
        terms.append(sign + draw(st.sampled_from(["*", " * "])).join(factors))
        bound = max(bound, used)
    return "".join(terms), bound


def _random_homogeneous(rng, field, degree, vars=VARS_X):
    terms = {}
    n = len(vars)
    for _ in range(rng.randrange(1, 6)):
        parts = sorted(rng.randrange(degree + 1) for _ in range(n - 1))
        exps = []
        prev = 0
        for p in parts:
            exps.append(p - prev)
            prev = p
        exps.append(degree - prev)
        c = rng.randrange(-5, 6)
        if c:
            terms[tuple(exps)] = coerce(field, c)
    return Poly(field, vars, terms)


class TestEvalDiff:
    def test_eval_simple(self):
        f = parse("x1*x2*x3")
        assert evaluate(f, (1, 1, 1)) == 1

    def test_eval_root(self):
        f = parse("x1^3 + x2^3 + x3^3")
        assert evaluate(f, (0, 1, -1)) == 0

    def test_eval_identity_family_cubic(self):
        # sum over rows of (row.x)^2 x_i with the identity matrix
        f = parse("x1^3 + x2^3 + x3^3")
        assert evaluate(f, (0, 0, 1)) == 1

    def test_eval_dimension_mismatch(self):
        f = parse("x1")
        with pytest.raises(InputError):
            evaluate(f, (1, 2))

    def test_diff(self):
        f = parse("x1^3")
        assert diff(f, "x1") == parse("3*x1^2")
        g = parse("x1*u1^2", 0, VARS_XU)
        assert diff(g, "u1") == parse("2*x1*u1", 0, VARS_XU)

    def test_euler_identity(self):
        rng = random.Random(3)
        for _ in range(40):
            d = rng.randrange(1, 7)
            f = _random_homogeneous(rng, 0, d)
            if f.is_zero:
                continue
            lhs = Poly.zero(0, VARS_X)
            for v in VARS_X:
                lhs = lhs + Poly.variable(0, VARS_X, v) * diff(f, v)
            assert lhs == f.scale(d)

    def test_substitute_scalars(self):
        f = parse("x1^2*x3 - 3*x2^3 + x1*x2*x3")
        g = substitute(f, {"x3": Fraction(1, 2), "x1": 2})
        assert g.terms == {(0, 0, 0): 2, (0, 3, 0): -3, (0, 1, 0): 1}
        rng = random.Random(5)
        for field in (0, 13):
            for _ in range(20):
                f = _random_homogeneous(rng, field, rng.randrange(1, 6))
                point = [coerce(field, rng.randrange(-4, 5)) for _ in VARS_X]
                part = substitute(f, {"x2": point[1]})
                assert not involves(part, "x2")
                assert evaluate(part, point) == evaluate(f, point)
                assert substitute(f, dict(zip(VARS_X, point))).terms == (
                    {(0, 0, 0): evaluate(f, point)} if evaluate(f, point) else {}
                )

    def test_zero_nonzero_verdict_representative_independent(self):
        f = parse("x1^2*x3 - x2^3")
        p = ProjPoint(0, (2, 2, 2), "x")
        assert p.coords == (1, 1, 1)
        assert bool(evaluate(f, p.coords)) == bool(evaluate(f, (2, 2, 2)))

    @pytest.mark.parametrize("field", [0, 13, (2**31 - 1)], ids=["qq", "f13", "f2^31-1"])
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_evaluate_equals_term_loop(self, field, data):
        # non-homogeneous polynomials in three or six variables, with
        # denominators in the coefficients and in the point over Q, and
        # residues up to q - 1 over F_q
        vars = data.draw(st.sampled_from([VARS_X, VARS_XU]))
        big = 2**31 if field == 0 else field
        coeffs = st.builds(Fraction, st.integers(-big, big), st.integers(1, 50) if field == 0 else st.just(1))
        exps = st.tuples(*[st.integers(0, 4)] * len(vars)).filter(lambda e: sum(e) <= 6)
        terms = data.draw(st.dictionaries(exps, coeffs.map(lambda c: coerce(field, c)), max_size=8))
        # the reference `evaluate`, the value oracle of the other tests,
        # against the term-by-term loop, at two points
        f = Poly(field, vars, terms)
        for _ in range(2):
            point = data.draw(st.tuples(*[coeffs] * len(vars)))
            assert evaluate(f, point) == term_evaluate(f, point)


class TestResultant:
    def test_common_factor_gives_zero(self):
        f = parse("x1^2 - x2^2")
        g = parse("x1 - x2")
        assert poly_resultant(f, g, "x1").is_zero

    def test_three_by_three_sylvester(self):
        # oracle: explicit 3x3 determinant of the Sylvester matrix
        # rows: [1, 0, x2^2], [1, -x2, 0], [0, 1, -x2]
        f = parse("x1^2 + x2^2")
        g = parse("x1 - x2")
        x2 = parse("x2", 0)
        expected = (-x2) * (-x2) - (x2 * x2).scale(-1)
        assert poly_resultant(f, g, "x1") == expected
        assert expected == parse("2*x2^2")

    def test_two_by_two_sylvester(self):
        # oracle: det [[x2, 0], [1, x2]] = x2^2 (rows of f = x1*x2, then g = x1 + x2)
        f = parse("x1*x2")
        g = parse("x1 + x2")
        assert poly_resultant(f, g, "x1") == parse("x2^2")

    def test_degenerate_signalled(self):
        f = parse("x2^2")
        g = parse("x1 + x2")
        with pytest.raises(DegenerateResultant):
            poly_resultant(f, g, "x1")

    def test_planted_common_factor_property(self):
        gf = 13
        rng = random.Random(11)
        for _ in range(25):
            common = _random_homogeneous(rng, gf, 1)
            a = _random_homogeneous(rng, gf, 2)
            b = _random_homogeneous(rng, gf, 1)
            if common.is_zero or a.is_zero or b.is_zero:
                continue
            if not (involves(common, "x1") and involves(a, "x1") and involves(b, "x1")):
                continue
            f, g = common * a, common * b
            assert poly_resultant(f, g, "x1").is_zero
        hits = 0
        for _ in range(25):
            f = _random_homogeneous(rng, gf, 2)
            g = _random_homogeneous(rng, gf, 2)
            if f.is_zero or g.is_zero or not (involves(f, "x1") and involves(g, "x1")):
                continue
            r = poly_resultant(f, g, "x1")
            if not r.is_zero:
                hits += 1
        assert hits > 0  # generic pairs are coprime

    def test_field_without_integer_lift_rejected(self):
        # coefficients that are neither rationals nor residues mod q, here
        # opaque symbols in characteristic 0, have no integer lift for the
        # Sylvester determinant
        f = Poly(0, VARS_X, {(1, 0, 0): "a", (0, 1, 0): "b"})
        with pytest.raises(InputError):
            poly_resultant(f, f, "x1")

    @pytest.mark.parametrize("case", ["qq", "f13", "homogeneous", "lead_vanishes", "big", "gaps", "wide"])
    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(data=st.data())
    def test_equals_polynomial_ring_bareiss(self, case, data):
        # qq: non-integer rational coefficients, bivariate as in an affine chart;
        # f13: the same over F_13; homogeneous: trivariate forms, so two
        # variables remain; lead_vanishes: the leading coefficient of f in x2
        # is x1 - k, zero at a small integer k, as first and as second
        # argument; big: numerators up to 10^40, so the packing base 2^k is
        # wide; gaps: f has only even powers of x2, so PRS steps drop two or
        # more degrees; wide: degrees up to 6 in x2
        field = 13 if case == "f13" else 0
        height = 10**40 if case == "big" else 6
        coeffs = st.builds(Fraction, st.integers(-height, height), st.integers(1, 4))
        var = "x1" if case == "homogeneous" else "x2"
        degrees = (4, 6) if case == "wide" else (2, 3)
        f = data.draw(_polys(field, coeffs, case == "homogeneous", degrees))
        g = data.draw(_polys(field, coeffs, case == "homogeneous", degrees))
        if case == "gaps":
            f = Poly(0, VARS_X, {(a, 2 * b, c): v for (a, b, c), v in f.terms.items()})
        assume(involves(f, var) and involves(g, var))
        if case == "lead_vanishes":
            top = degree_in(f, "x2") + 1
            k = data.draw(st.integers(0, max(top + 1, f.degree()) * g.degree()))
            lead = Poly.variable(0, VARS_X, "x1") - Poly.constant(0, VARS_X, k)
            f = lead * Poly.variable(0, VARS_X, "x2") ** top + f
            assert poly_resultant(g, f, var) == bareiss_resultant(g, f, var)
        assert poly_resultant(f, g, var) == bareiss_resultant(f, g, var)


    @pytest.mark.parametrize("q", [None, 3, 5, 7], ids=["qq", "f3", "f5", "f7"])
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_vanishing_test_equals_resultant(self, q, data):
        # over F_3, F_5 and F_7 the t-degree bound is at least q for most
        # draws, so the all-zero values there leave the verdict to the
        # resultant; a planted linear factor in var makes it vanish
        field = q if q else 0
        coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)) if q is None else st.integers(-6, 6)
        homogeneous = data.draw(st.booleans())
        var = "x1" if homogeneous else "x2"
        f = data.draw(_polys(field, coeffs, homogeneous))
        g = data.draw(_polys(field, coeffs, homogeneous))
        if data.draw(st.booleans()):
            c = [coerce(field, data.draw(coeffs)) for _ in range(3)]
            common = Poly(field, VARS_X, {(1, 0, 0): c[0], (0, 1, 0): c[1], (0, 0, 1): c[2] if homogeneous else 0})
            f, g = common * f, common * g
        assume(involves(f, var) and involves(g, var))
        assert poly_resultant_vanishes(f, g, var) == poly_resultant(f, g, var).is_zero

    def test_vanishing_test_falls_back_when_the_word_prime_divides(self):
        # Res_x2(x2 + p x1, x2) = -p x1 is zero mod p = 2^61 - 1 at every t
        # but not over Q, so the values mod p cannot decide
        p = 2**61 - 1
        f = parse(f"x2 + {p}*x1")
        g = parse("x2")
        assert poly_resultant(f, g, "x2") == parse(f"{-p}*x1")
        assert not poly_resultant_vanishes(f, g, "x2")


@st.composite
def _polys(draw, field, coeffs, homogeneous, degrees=(2, 3)):
    """Up to five terms of degree at most d in (x1, x2), or of degree exactly
    d in (x1, x2, x3) when homogeneous, d drawn from the range degrees."""
    degree = draw(st.integers(*degrees))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.integers(0, degree))
        b = draw(st.integers(0, degree - a))
        e = (a, b, degree - a - b) if homogeneous else (a, b, 0)
        terms[e] = coerce(field, draw(coeffs))
    return Poly(field, VARS_X, terms)


class TestResidues:
    @pytest.mark.parametrize("q", [3, 13, 2**31 - 1])
    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_elements_are_plain_residues(self, q, data):
        # over F_q every coefficient of a built polynomial is an int in
        # [1, q), whatever integers went in, a value is an int in [0, q), and
        # a point's coordinates are ints in [0, q) leading with 1; points
        # with equal integer coordinates over different fields are unequal
        big = st.integers(-(2**70), 2**70)
        f, g = (data.draw(_polys(q, big, True)) for _ in range(2))
        assume(involves(f, "x1") and involves(g, "x1"))
        c = data.draw(big)
        h = data.draw(_polys(0, st.builds(Fraction, big, st.sampled_from([1, 2, 4])), True))
        raw = Poly(q, VARS_X, {(1, 1, 0): c, (0, 0, 2): q, (2, 0, 0): -1})
        built = [f + g, f - g, f * g, f**3, f.scale(c), diff(f, "x1"), diff(g, "x3"), map_field(h, q),
                 poly_resultant(f, g, "x1"), raw]
        for p in built:
            assert all(type(k) is int and 0 < k < q for k in p.terms.values()), p
        coords = data.draw(st.tuples(big, big, big).filter(lambda v: any(x % q for x in v)))
        value = evaluate(f, coords)
        assert type(value) is int and 0 <= value < q
        point = ProjPoint(q, coords, "x")
        assert all(type(x) is int and 0 <= x < q for x in point.coords)
        assert next(x for x in point.coords if x) == 1
        small = (1,) + data.draw(st.tuples(st.integers(0, 6), st.integers(0, 6)))
        over = [ProjPoint(f, small, "x") for f in (7, 11, 0)]
        assert over[0].coords == over[1].coords == over[2].coords == small
        assert over[0] != over[1] and over[0] != over[2] and over[1] != over[2]


class TestMisc:
    def test_try_divide(self):
        f = parse("x1^2 - x2^2")
        g = parse("x1 - x2")
        q = try_divide(f, g)
        assert q == parse("x1 + x2")
        assert try_divide(parse("x1^2 + x2^2"), g) is None

    def test_reduction_compatibility(self):
        # eval over Q then reduce equals eval of the reduced polynomial
        rng = random.Random(19)
        gf = 11
        for _ in range(40):
            f = _random_homogeneous(rng, 0, rng.randrange(1, 5))
            if f.is_zero:
                continue
            pt = tuple(rng.randrange(-10, 10) for _ in range(3))
            lhs = coerce(gf, evaluate(f, pt))
            rhs = evaluate(map_field(f, gf), tuple(coerce(gf, c) for c in pt))
            assert lhs == rhs

    def test_grlex_printing_deterministic(self):
        f = parse("x3^2*x1 + x2^3 + x1^3 + x1*x2*x3")
        assert str(f) == "x1^3 + x2^3 + x1*x2*x3 + x1*x3^2"
