import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from detfold.algebra import VARS_X, field_name, int_rank_det
from detfold.algebra.multipoly import monomials
from detfold.curves import (
    _certify_s_c,
    is_node,
    is_reduced_curve,
    plane_solutions,
    singular_points,
)
from detfold.detrep import _expected_degree, gram_rank_kernel, reduce_rep, validate_rep
from detfold.errors import InputError, Rejection
from detfold.examples import build_example
from detfold.fourfold import net_conics
from detfold.points import ProjPoint, sorted_points
from detfold.spin import config_predicates, geometric_genus
from reference import Poly, bivar_gcd, coerce, diff, evaluate, fraction_plane_solutions_qq, ints, map_field, p2_reps, parse, reference_is_reduced, rep_sextic, try_divide
from test_couples import scaled_ex42ii_reps
from test_oracle import random_reps


def _p(s, f=0):
    return parse(s, f)


def _reduced(h):
    """`is_reduced_curve` on the integer terms of a polynomial."""
    return is_reduced_curve(ints(h), h.q)


class TestSingularPoints:
    def test_six_lines(self):
        ex = build_example("ex42ii")
        scan = singular_points(ex.rep.sextic_terms, 0, ex.rep.components)
        assert len(scan.points) == 15 and scan.complete
        pts = {p.coords for p in scan.points}
        for raw in ((0, 0, 1), (1, -2, 1), (1, 1, -2), (-5, 1, 1)):
            assert ProjPoint(0, raw, "x").coords in pts

    def test_factored_systems_left_unresolved_are_recorded(self):
        # x3 = 0 meets the smooth conic in the two points x1^2 = 2 x2^2; every
        # other system of the three components is rational or empty
        comps = (_p("x3"), _p("x1^2 - 2*x2^2 + x2*x3"), _p("x1"))
        h = comps[0] * comps[1] * comps[2]
        terms = [ints(c) for c in comps]
        scan = singular_points(ints(h), 0, terms)
        assert (scan.unresolved, scan.unresolved_in) == (2, [(0, 1)])
        # s_c is certified when a component of each such system divides D;
        # x1 divides x1^3 but takes no part in the system (0, 1)
        assert _certify_s_c(scan.unresolved_in, terms, ints(_p("x2*x3^2")))
        assert not _certify_s_c(scan.unresolved_in, terms, ints(_p("x1^3")))

    def test_nodal_cubic_rational_mode(self):
        scan = singular_points(ints(_p("x2^2*x3 - x1^3 + x1^2*x3")), 0)
        assert [p.coords for p in scan.points] == [ProjPoint(0, (0, 0, 1), "x").coords]
        assert scan.complete

    def test_smooth_fermat_sextic_exhaustive(self):
        gf = 7
        scan = singular_points(ints(parse("x1^6 + x2^6 + x3^6", gf)), gf)
        assert scan.points == [] and scan.complete

    def test_gradient_vanishes_on_returned_points(self):
        ex = build_example("ex42ii")
        h = rep_sextic(ex.rep)
        scan = singular_points(ex.rep.sextic_terms, 0, ex.rep.components)
        for p in scan.points:
            assert not evaluate(h, p.coords)
            for v in VARS_X:
                assert not evaluate(diff(h, v), p.coords)

    def test_non_reduced_rejected(self):
        with pytest.raises(Rejection, match="reduced"):
            singular_points(ints(_p("x1^2*x2^2*x3^2")), 0)

    def test_factored_and_exhaustive_agree_mod_q(self):
        for name in ("ex42ii", "prop44"):
            ex = build_example(name)
            h = rep_sextic(ex.rep)
            for q in (7, 11, 13):
                ff = singular_points(ints(map_field(h, q)), q)
                factored = singular_points(ints(h), 0, ex.rep.components)
                reduced = {ProjPoint(q, p.coords, "x").coords for p in factored.points}
                assert reduced <= {p.coords for p in ff.points}
                if factored.complete:
                    assert reduced == {p.coords for p in ff.points}

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(lines=st.lists(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=3, max_size=3), min_size=3, max_size=3))
    def test_elimination_nodes_reduce_into_the_scan(self, lines):
        # ex42ii members: six lines in general position, so 15 rational nodes
        # (nonzero coefficients keep l4, l5, l6 off the coordinate points).
        # Without its factorization the sextic goes through resultant
        # elimination over Q; every node must be found, and its primitive
        # integer representative, on which h and its partials vanish over Z,
        # must reduce to a singular point of the exhaustive scan mod p
        params = {k: " + ".join(f"{c}*x{i + 1}" for i, c in enumerate(l)) for k, l in zip(("l4", "l5", "l6"), lines)}
        try:
            ex = build_example("ex42ii", params)
        except Rejection:
            assume(False)
        h = rep_sextic(ex.rep)
        scan = singular_points(ints(h), 0)
        coeffs = [[ln.get(e, 0) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] for ln in ex.rep.components]
        nodes = {
            ProjPoint(0, (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]), "x")
            for i, a in enumerate(coeffs)
            for b in coeffs[i + 1 :]
        }
        assert len(nodes) == 15 and set(scan.points) == nodes and scan.complete
        for q in (7, 11, 13):
            try:
                ff = singular_points(ints(map_field(h, q)), q)
            except Rejection:
                continue  # h mod q is not reduced
            for node in nodes:
                den = math.lcm(*(c.denominator for c in node.coords))
                n = [int(c * den) for c in node.coords]
                g = math.gcd(*n)
                assert ProjPoint(q, [c // g for c in n], "x") in ff.points


@st.composite
def line_coeffs(draw):
    """A line's coefficients in [-3, 3]; a coordinate line one time in five."""
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, 2))
        return tuple(int(k == i) for k in range(3))
    return draw(st.tuples(*[st.integers(-3, 3)] * 3).filter(any))


def _line(coeffs):
    return Poly(0, VARS_X, {tuple(int(k == i) for k in range(3)): c for i, c in enumerate(coeffs)})


def _product(lines):
    out = Poly.constant(0, VARS_X, 1)
    for ln in lines:
        out = out * _line(ln)
    return out


class TestRationalSolver:
    @pytest.mark.parametrize(
        "system,message",
        [
            (["x3*x1", "x3*x2"], "vanishes identically on the line x3=0"),
            (["x1*x2", "x2*x3"], "every eliminant vanished"),
            # x1 = x3 is a common line: the fibre over x1 = 1 has no nonzero
            # polynomial, with and without a polynomial involving x2
            (["x1 - x3", "x1*x2 - x2*x3"], "vertical line"),
            (["x1 - x3", "x1^2 - x3^2"], "vertical line"),
            (["x1*x3 - x3^2", "x1^2 - x3^2"], "vertical line"),
        ],
    )
    def test_positive_dimensional_rejections(self, system, message):
        with pytest.raises(Rejection, match=message):
            plane_solutions([ints(_p(s)) for s in system], 0)

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(f=st.lists(line_coeffs(), min_size=1, max_size=3), g=st.lists(line_coeffs(), min_size=1, max_size=3))
    def test_line_arrangements_solved_exactly(self, f, g):
        # two products of rational lines with no common line meet exactly in
        # the pairwise meets a x b, all rational; this reaches several points
        # over one x1 and points on x3 = 0
        def cross(a, b):
            return tuple(a[(k + 1) % 3] * b[(k + 2) % 3] - a[(k + 2) % 3] * b[(k + 1) % 3] for k in range(3))

        assume(all(any(cross(a, b)) for a in f for b in g))
        sol = plane_solutions([ints(_product(f)), ints(_product(g))], 0)
        assert set(sol.points) == {ProjPoint(0, cross(a, b), "x") for a in f for b in g}
        assert sol.unresolved == 0

    @pytest.mark.parametrize(
        "system, points",
        [
            # (1:0:0) a common zero, next to points in the chart and on x3 = 0
            (["x2*(x1 - x2)", "x3*(x1 + x3)"], [(1, 0, 0), (-1, 0, 1), (1, 1, 0), (1, 1, -1)]),
            # (1:0:0) a zero of the first polynomial only
            (["x2*x3", "x1^2 - x2^2 - x3^2"], [(1, 0, 1), (-1, 0, 1), (1, 1, 0), (-1, 1, 0)]),
            # the first polynomial vanishes on the whole line x3 = 0
            (["x3*(x1 - x2)", "x1^2 - 4*x2^2"], [(0, 0, 1), (2, 1, 0), (-2, 1, 0)]),
            # the first polynomial vanishes on the fibre x1 = 2 of the chart
            (["(x1 - 2*x3)*x2", "x2^2 - 4*x3^2 + (x1 - 2*x3)*x3"], [(2, 2, 1), (2, -2, 1), (1, 0, 0), (6, 0, 1)]),
        ],
        ids=["100-common", "100-not-common", "line-x3", "fibre"],
    )
    def test_pinned_systems(self, system, points):
        polys = [_p(s) for s in system]
        expected = {ProjPoint(0, pt, "x") for pt in points}
        assert all(not evaluate(f, p.coords) for f in polys for p in expected)
        sol = plane_solutions(list(map(ints, polys)), 0)
        assert set(sol.points) == expected and len(sol.points) == len(expected)
        assert sol.unresolved == 0

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_solutions_are_common_zeros(self, data):
        # every point the rational solver returns, from the chart or from the
        # line x3 = 0, is a zero of every polynomial of the system: the
        # singular-point system of a random rep's sextic and its net of conics
        rep = data.draw(st.one_of(reps_with_base_points(), scaled_ex42ii_reps()))
        h = rep_sextic(rep)
        conics = [Poly(0, VARS_X, c) for c in net_conics(rep)]
        for system in ([h] + [diff(h, v) for v in VARS_X], conics):
            try:
                sol = plane_solutions(list(map(ints, system)), 0)
            except Rejection:
                continue
            for p in sol.points:
                assert not any(evaluate(f, p.coords) for f in system), p

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_integer_solver_equals_fraction_reference(self, data):
        # 2-4 products of 1-3 lines with coefficients in [-7, 7], each scaled
        # by a fraction and some times the conic x1^2 + x2^2 - 3 x3^2, which
        # has no rational point: the integer solver and the former solver on
        # fractions give the same points and unresolved degree, or the same
        # rejection
        polys = []
        for _ in range(data.draw(st.integers(2, 4))):
            lines = data.draw(st.lists(st.tuples(*[st.integers(-7, 7)] * 3).filter(any), min_size=1, max_size=3))
            p = _product(lines) * Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
            polys.append(p * _p("x1^2 + x2^2 - 3*x3^2") if data.draw(st.booleans()) else p)

        def solve(solver, system):
            try:
                sol = solver(system)
            except Rejection as e:
                return str(e)
            return [p.coords for p in sol.points], sol.unresolved

        assert solve(lambda system: plane_solutions(system, 0), list(map(ints, polys))) == solve(fraction_plane_solutions_qq, polys)


@st.composite
def reps_with_base_points(draw):
    """A rep over Q whose linear block is the sum of x_k A^T S_k A, S_k the
    matrix of the form u_i u_j, {i, j, k} = {1, 2, 3}, for a random
    invertible A: its net of conics is the conics through the three points
    A^-1 e_i.  The quadrics and the corner cubic have coefficients that are
    mostly 0; matrices validate_rep rejects are dropped."""
    a = [[draw(st.integers(-3, 3)) for _ in range(3)] for _ in range(3)]
    assume(int_rank_det(a)[1])
    m = [[None] * 4 for _ in range(4)]
    for r in range(3):
        for c in range(r, 3):
            terms = {}
            for k in range(3):
                i, j = (t for t in range(3) if t != k)
                terms[tuple(int(t == k) for t in range(3))] = Fraction(a[i][r] * a[j][c] + a[j][r] * a[i][c])
            m[r][c] = m[c][r] = Poly(0, VARS_X, terms)
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
    for i in range(4):
        d = _expected_degree(i, 3)
        m[i][3] = m[3][i] = Poly(0, VARS_X, {e: Fraction(draw(coeff)) for e in monomials(d)})
    try:
        return validate_rep(m, 0)
    except Rejection:
        assume(False)


def reference_solutions(polys, field):
    """Common zeros of polys at every canonical representative of P^2(F_q),
    each point tested through the reference `evaluate`."""
    pts = []
    for rep in p2_reps(field):
        coords = tuple(coerce(field, c) for c in rep)
        if all(not evaluate(p, coords) for p in polys):
            pts.append(ProjPoint(field, coords, "x"))
    return sorted_points(pts)


def _form(draw, field, degree):
    mons = [e for e in product(range(degree + 1), repeat=3) if sum(e) == degree]
    coeffs = draw(st.lists(st.integers(0, field - 1), min_size=len(mons), max_size=len(mons)))
    return Poly(field, VARS_X, {e: coerce(field, c) for e, c in zip(mons, coeffs)})


def _var(field, name, power=1):
    return Poly.variable(field, VARS_X, name) ** power


@st.composite
def random_systems(draw, field):
    """One to three random forms of degrees 1 to 6."""
    return [_form(draw, field, draw(st.integers(1, 6))) for _ in range(draw(st.integers(1, 3)))]


@st.composite
def rep_gradients(draw, field):
    """The sextic h of a random representation and its three partials."""
    h = rep_sextic(draw(random_reps(field)))
    return [h] + [diff(h, v) for v in VARS_X]


@st.composite
def systems_on_x1_line(draw, field):
    """x1^m and x1*g + l*h with l a linear form in x2, x3: the zeros lie on the
    line x1 = 0, at the roots of l*h there."""
    m, d = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    c2, c3 = draw(st.integers(0, field - 1)), draw(st.integers(0, field - 1))
    l = _var(field, "x2") * c2 + _var(field, "x3") * c3
    f = _var(field, "x1") * _form(draw, field, d - 1) + l * _form(draw, field, d - 1)
    return [_var(field, "x1", m), f]


@st.composite
def systems_at_001(draw, field):
    """x1^m, x2^n and a form f: the only possible zero is (0:0:1), a zero
    exactly when f has no x3^d term."""
    d = draw(st.integers(1, 4))
    f = _form(draw, field, d)
    if draw(st.booleans()):
        f = Poly(field, VARS_X, {e: c for e, c in f.terms.items() if e != (0, 0, d)})
    return [_var(field, "x1", draw(st.integers(1, 3))), _var(field, "x2", draw(st.integers(1, 3))), f]


@st.composite
def systems_on_a_line(draw, field):
    """Multiples l*g of one linear form l: the whole line l = 0 is a zero."""
    line = draw(st.sampled_from(["x1", "x3", "random"]))
    l = _form(draw, field, 1) if line == "random" else _var(field, line)
    assume(not l.is_zero)
    return [l * _form(draw, field, draw(st.integers(0, 3))) for _ in range(draw(st.integers(1, 3)))]


@st.composite
def systems_sharing_pairwise(draw, field):
    """A*B, A*C and B*C for random lines or conics A, B and C: every pairwise
    resultant vanishes, while the zeros, the meets of two of A, B and C, stay
    finite unless two of them share a component."""
    a, b, c = (_form(draw, field, draw(st.integers(1, 2))) for _ in range(3))
    assume(not (a.is_zero or b.is_zero or c.is_zero))
    return [a * b, a * c, b * c]


SYSTEMS = {
    "pairwise": systems_sharing_pairwise,
    "random": random_systems,
    "x1-line": systems_on_x1_line,
    "point-001": systems_at_001,
    "whole-line": systems_on_a_line,
    "rep-gradient": rep_gradients,
}


class TestScanKernel:
    """The plane solver over F_q against a scan of P^2(F_q) by the reference
    `evaluate`."""

    @pytest.mark.parametrize("kind", sorted(SYSTEMS))
    @pytest.mark.parametrize("q", [5, 7, 11])
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_reference_scan(self, q, kind, data):
        polys = data.draw(SYSTEMS[kind](q))
        assume(any(not p.is_zero for p in polys))
        got = plane_solutions(list(map(ints, polys)), q)
        assert got.complete and got.unresolved == 0
        assert got.points == reference_solutions(polys, q)
        if kind in ("x1-line", "point-001"):
            assert all(not p.coords[0] for p in got.points)
        if kind == "point-001":
            assert len(got.points) <= 1
        if kind == "whole-line":
            assert len(got.points) >= q + 1

    @pytest.mark.parametrize("q", [3, 5, 7])
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_singular_points_match_reference_scan(self, q, data):
        # over F_q the sextic's singular points are solved from its partials
        # alone when q > 3 (Euler's relation) and with h itself at q = 3: both
        # give the common zeros of h and its partials
        h = rep_sextic(data.draw(random_reps(q)))
        system = [h] + [diff(h, v) for v in VARS_X]
        if not reference_is_reduced(h):
            with pytest.raises(Rejection, match="not reduced"):
                singular_points(ints(h), q)
        else:
            assert singular_points(ints(h), q).points == reference_solutions(system, q)

    def test_six_lines_need_64_bit_lanes(self):
        # six lines with large residue coefficients at q = 997, where a scan
        # of P^2 by the line kernel (`unipoly.pack_lines`) needs lanes of 64
        # bits: their product alone has no eliminant, so every x1 of the
        # chart is a root, and its zeros are the 6 (q + 1) - 15 points of
        # the six lines, each line parametrized by two of its points
        q = 997
        rng = random.Random(0)
        lines = [[rng.randrange(1, q) for _ in range(3)] for _ in range(6)]
        h = Poly.constant(q, VARS_X, 1)
        on_lines = set()
        for a1, a2, a3 in lines:
            h = h * Poly(q, VARS_X, {(1, 0, 0): coerce(q, a1), (0, 1, 0): coerce(q, a2), (0, 0, 1): coerce(q, a3)})
            u, v = (0, a3, -a2), (-a3, 0, a1)
            on_lines |= {ProjPoint(q, [s * x + t * y for x, y in zip(u, v)], "x") for s, t in [(1, t) for t in range(q)] + [(0, 1)]}
        assert len(on_lines) == 6 * (q + 1) - 15
        assert set(plane_solutions([ints(h)], q).points) == on_lines

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_p2_reps_cover_the_plane(self, q):
        # the enumeration the oracle and the reference scans walk: each point
        # of P^2(F_q) once, canonically scaled
        reps = list(p2_reps(q))
        assert len(set(reps)) == len(reps) == q * q + q + 1
        assert all(ProjPoint(q, r, "x").coords == r for r in reps)
        every = {ProjPoint(q, v, "x") for v in product(range(q), repeat=3) if any(v)}
        assert every == {ProjPoint(q, r, "x") for r in reps}

    def test_known_zeros_on_x1_line_and_at_001(self):
        gf = 7
        x1, x2, x3 = (_var(gf, v) for v in VARS_X)
        on_x1 = plane_solutions([ints(x1 * x1), ints(x1 * x3 + (x2 - x3 * 3) * x2)], gf).points
        assert [p.coords for p in on_x1] == [ProjPoint(gf, c, "x").coords for c in ((0, 0, 1), (0, 3, 1))]
        at_001 = plane_solutions([ints(x1), ints(x2 * x2), ints(x1 * x3 + x2 * x2)], gf).points
        assert [p.coords for p in at_001] == [ProjPoint(gf, (0, 0, 1), "x").coords]


class TestIsNode:
    def test_node(self):
        c = _p("x2^2*x3 - x1^3 + x1^2*x3")
        assert is_node(ints(c), ProjPoint(0, (0, 0, 1), "x"))

    def test_cusp(self):
        c = _p("x2^2*x3 - x1^3")
        assert not is_node(ints(c), ProjPoint(0, (0, 0, 1), "x"))

    def test_two_lines(self):
        assert is_node(ints(_p("x1*x2")), ProjPoint(0, (0, 0, 1), "x"))

    def test_other_charts(self):
        # the Hessian block is taken on the two coordinates other than the
        # point's leading one
        assert is_node(ints(_p("x1*x2*x3 + x2^3 + x3^3")), ProjPoint(0, (1, 0, 0), "x"))
        assert not is_node(ints(_p("x2^2*x1 - x3^3")), ProjPoint(0, (1, 0, 0), "x"))
        assert is_node(ints(_p("x1^2*x2 - x3^2*x2 + x1^3")), ProjPoint(0, (0, 1, 0), "x"))
        # (x1 + x2)^2 + x1^3 is a cusp: h12^2 = h11*h22 with h12 != 0
        assert not is_node(ints(_p("x1^2*x3 + 2*x1*x2*x3 + x2^2*x3 + x1^3")), ProjPoint(0, (0, 0, 1), "x"))
        assert is_node(ints(_p("x1^2*x3 - x2^2*x3 + x1^3")), ProjPoint(0, (0, 0, 1), "x"))

    def test_smooth_point_raises(self):
        with pytest.raises(Rejection, match="not a singular point"):
            is_node(ints(_p("x1*x2")), ProjPoint(0, (1, 1, 1), "x"))


class TestClassification:
    def test_ex42ii(self):
        ex = build_example("ex42ii")
        cl = ex.rep.classification
        assert len(cl.sing_c) == 15
        assert len(cl.s_theta) == 12 and len(cl.s_theta_tilde) == 12
        s_c = {p.coords for p in cl.s_c}
        expect = {ProjPoint(0, t, "x").coords for t in ((1, -2, 1), (1, 1, -2), (-5, 1, 1))}
        assert s_c == expect

    def test_prop44_over_f13(self):
        ex = build_example("prop44")
        cl = reduce_rep(ex.rep, 13).classification
        assert len(cl.sing_c) == 12
        assert cl.s_theta == cl.sing_c and cl.s_theta_tilde == cl.sing_c
        assert cl.s_c == [] and cl.complete

    def test_rmk31_node_in_tilde_minus_theta(self):
        ex = build_example("rmk31")
        cl = ex.rep.classification
        rec = next(r for r in cl.records if r.point.coords == ProjPoint(0, (0, 0, 1), "x").coords)
        assert rec.rank == 3 and rec.on_d

    def test_s_theta_subset_of_tilde_everywhere(self):
        for name in ("ex42i", "ex42ii", "prop44", "rmk31", "ex43_quartic_two_lines"):
            ex = build_example(name)
            for q in (None, 7, 13):
                field = 0 if q is None else q
                cl = reduce_rep(ex.rep, field).classification
                assert set(p.coords for p in cl.s_theta) <= set(p.coords for p in cl.s_theta_tilde)

    def test_cuspidal_rejected(self):
        z = Poly.zero(0, VARS_X)
        from detfold.detrep import validate_rep

        # block determinant x1^3 + x2^2*x3 has a cusp at (0:0:1)
        cusp_block = [
            [z, _p("x1"), _p("x2"), z],
            [_p("x1"), _p("-x3"), z, z],
            [_p("x2"), z, _p("-x1"), z],
            [z, z, z, _p("x1^3 + 2*x2^3 + 5*x3^3")],
        ]
        rep = validate_rep(cusp_block, 0)
        with pytest.raises(Rejection, match="node"):
            rep.classification

    def test_bezout_count_for_general_position_unions(self):
        # six lines in general position: 15 = C(6,2) pairwise intersections
        ex = build_example("ex42ii")
        cl = ex.rep.classification
        degrees = [max(map(sum, c)) for c in ex.rep.components]
        expected = sum(
            degrees[i] * degrees[j]
            for i in range(len(degrees))
            for j in range(i + 1, len(degrees))
        )
        assert len(cl.sing_c) == expected


class TestRankStratification:
    @pytest.mark.parametrize("q", [7, 11, 13])
    def test_exhaustive_trichotomy(self, q):
        for name in ("ex42ii", "prop44", "rmk31"):
            ex = build_example(name)
            rep = reduce_rep(ex.rep, q)
            sing = {
                p.coords
                for p in singular_points(rep.sextic_terms, q).points
            }
            for coords in p2_reps(q):
                pt = ProjPoint(q, coords, "x")
                _, rank, _ = gram_rank_kernel(rep, pt)
                on_curve = not evaluate(rep_sextic(rep), pt.coords)
                if not on_curve:
                    assert rank == 4
                elif pt.coords in sing:
                    assert rank in (2, 3)
                else:
                    assert rank == 3


class TestComponentGenera:
    def test_examples(self):
        assert geometric_genus(1, 0) == 0
        assert geometric_genus(3, 0) == 1
        assert geometric_genus(5, 5) == 1

    def test_negative_rejected(self):
        with pytest.raises(Rejection):
            geometric_genus(2, 1)

    def test_all_rational(self):
        assert config_predicates([(1, 0)] * 6).all_components_rational
        assert not config_predicates([(3, 0), (3, 1)]).all_components_rational


def _form_in(draw, field, degree, vars=(0, 1, 2)):
    """A random form of the given degree in the listed variables, coefficients -3..3."""
    mons = [e for e in product(range(degree + 1), repeat=3)
            if sum(e) == degree and all(e[v] == 0 for v in range(3) if v not in vars)]
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(mons), max_size=len(mons)))
    return Poly(field, VARS_X, {e: coerce(field, c) for e, c in zip(mons, coeffs)})


@st.composite
def square_times_cofactor(draw, field):
    """g^2 times a cofactor, g a form in one, two or three variables; degree 4 to 6."""
    vars = draw(st.sampled_from([(0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2)]))
    dg = draw(st.integers(1, 2))
    g = _form_in(draw, field, dg, vars)
    assume(not g.is_zero)
    return g * g * _form_in(draw, field, draw(st.integers(max(0, 4 - 2 * dg), 6 - 2 * dg)))


@st.composite
def p_power_products(draw, field):
    """Products of factors c x_k^p + (a form of degree p in the other two
    variables), squared when the product is one cubic, otherwise times a
    random cofactor; degree at most 6."""
    p = field
    h = Poly.constant(field, VARS_X, 1)
    for _ in range(draw(st.integers(1, 6 // p))):
        k = draw(st.integers(0, 2))
        c = coerce(field, draw(st.integers(1, p - 1)))
        xk = Poly.variable(field, VARS_X, VARS_X[k]) ** p
        h = h * (xk * c + _form_in(draw, field, p, [v for v in range(3) if v != k]))
    if h.degree() * 2 <= 6 and draw(st.booleans()):
        return h * h
    return h * _form_in(draw, field, draw(st.integers(max(0, 4 - h.degree()), 6 - h.degree())))


@st.composite
def random_curve(draw, field):
    """A plain random quartic, quintic or sextic."""
    return _form_in(draw, field, draw(st.integers(4, 6)))


REDUCEDNESS_DRAWS = {"square": square_times_cofactor, "p-power": p_power_products, "random": random_curve}


class TestReducedness:
    def test_square_factor_detected(self):
        assert not _reduced(_p("x1^2*x2^4"))
        assert not _reduced(_p("x3^2*x1^4"))
        assert _reduced(_p("x1*x2*x3"))
        assert _reduced(_p("x1^3 + x2^3 + x3^3"))

    def test_bivar_gcd(self):
        a = _p("x1^2 - x2^2")
        b = _p("x1^2 + 2*x1*x2 + x2^2")
        g = bivar_gcd(a, b)
        assert try_divide(g, _p("x1 + x2")) is not None and g.degree() == 1

    @pytest.mark.parametrize("g", ["x1", "x2", "x3", "x1 + x2", "x2 - x3", "x1 + 2*x3", "x1^2 + x2^2"])
    def test_square_of_a_form_missing_a_variable(self, g):
        # each is caught by one content only: not all three resultants vanish here
        h = _p(g) ** 2 * _p("x1^2 + x2^2 + x3^2 + x1*x2")
        assert not _reduced(h) and not reference_is_reduced(h)
        assert _reduced(_p(g) * _p("x1^2 + x2^2 + x3^2 + x1*x2"))

    @pytest.mark.parametrize("a, b", [(0, 1), (1, 2), (2, 0)])
    def test_two_cubics_with_vanishing_partials_over_f3(self, a, b):
        # x_a and x_b occur only as cubes in one factor each, so the resultants
        # in x_a and x_b vanish although the product is reduced
        f3 = 3
        h = Poly.constant(f3, VARS_X, 1)
        for k in (a, b):
            x, y, z = (VARS_X[(k + m) % 3] for m in range(3))
            h = h * _p(f"{x}^3 + {y}^2*{z} + {y}*{z}^2", f3)
        assert _reduced(h) and reference_is_reduced(h)
        assert not _reduced(_p("x1^3 + x2^2*x3 + x2*x3^2", f3) ** 2)

    def test_degree_bound(self):
        with pytest.raises(InputError, match="degree < 3"):
            _reduced(_p("x1^9 + x2^9 + x3^8*x1", 3))
        assert _reduced(_p("x1^9 + x2^9 + x3^8*x1"))

    @pytest.mark.parametrize("field, kind", [
        (field, kind) for field in (0, 3, 5, 7)
        for kind in REDUCEDNESS_DRAWS if kind != "p-power" or field in (3, 5)
    ], ids=lambda v: field_name(v) if isinstance(v, int) else v)
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_prs_reference(self, field, kind, data):
        h = data.draw(REDUCEDNESS_DRAWS[kind](field))
        assume(not h.is_zero)
        assert _reduced(h) == reference_is_reduced(h)
        if kind == "square":
            assert not _reduced(h)

