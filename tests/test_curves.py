import random

import pytest

from detfold.algebra import QQ, MultiPoly, PrimeField, VARS_X, parse_poly
from detfold.curves import (
    PlaneCurve,
    analysis_context,
    bivar_gcd,
    is_node,
    is_reduced_curve,
    plane_solutions,
    singular_points,
)
from detfold.detrep import gram_rank_kernel, reduce_rep
from detfold.errors import Rejection
from detfold.examples import build_example
from detfold.points import ProjPoint
from detfold.spin import config_predicates, geometric_genus


def _p(s, f=QQ):
    return parse_poly(s, VARS_X, f)


class TestSingularPoints:
    def test_six_lines(self):
        ex = build_example("ex42ii")
        from detfold.detrep import derived_equations

        sextic = derived_equations(ex.rep).sextic
        scan = singular_points(PlaneCurve(sextic, tuple(ex.components)), QQ)
        assert len(scan.points) == 15 and scan.complete
        pts = {p.coords for p in scan.points}
        for raw in ((0, 0, 1), (1, -2, 1), (1, 1, -2), (-5, 1, 1)):
            assert ProjPoint(QQ, raw, "x").coords in pts

    def test_nodal_cubic_rational_mode(self):
        c = PlaneCurve(_p("x2^2*x3 - x1^3 + x1^2*x3"))
        scan = singular_points(c, QQ)
        assert [p.coords for p in scan.points] == [ProjPoint(QQ, (0, 0, 1), "x").coords]
        assert scan.complete

    def test_smooth_fermat_sextic_exhaustive(self):
        gf = PrimeField(7)
        c = PlaneCurve(parse_poly("x1^6 + x2^6 + x3^6", VARS_X, gf))
        scan = singular_points(c, gf)
        assert scan.points == [] and scan.complete

    def test_gradient_vanishes_on_returned_points(self):
        ex = build_example("ex42ii")
        from detfold.detrep import derived_equations

        h = derived_equations(ex.rep).sextic
        scan = singular_points(PlaneCurve(h, tuple(ex.components)), QQ)
        for p in scan.points:
            assert not h.evaluate(p.coords)
            for v in VARS_X:
                assert not h.diff(v).evaluate(p.coords)

    def test_non_reduced_rejected(self):
        with pytest.raises(Rejection, match="reduced"):
            singular_points(PlaneCurve(_p("x1^2*x2^2*x3^2")), QQ)

    def test_factored_and_exhaustive_agree_mod_q(self):
        for name in ("ex42ii", "prop44"):
            ex = build_example(name)
            from detfold.detrep import derived_equations

            h = derived_equations(ex.rep).sextic
            for q in (7, 11, 13):
                gf = PrimeField(q)
                ff = singular_points(PlaneCurve(h.map_field(gf)), gf)
                factored = singular_points(
                    PlaneCurve(h, tuple(ex.components)), QQ
                )
                reduced = {p.map_field(gf).coords for p in factored.points}
                assert reduced <= {p.coords for p in ff.points}
                if factored.complete:
                    assert reduced == {p.coords for p in ff.points}


class TestIsNode:
    def test_node(self):
        c = _p("x2^2*x3 - x1^3 + x1^2*x3")
        assert is_node(c, ProjPoint(QQ, (0, 0, 1), "x"))

    def test_cusp(self):
        c = _p("x2^2*x3 - x1^3")
        assert not is_node(c, ProjPoint(QQ, (0, 0, 1), "x"))

    def test_two_lines(self):
        assert is_node(_p("x1*x2"), ProjPoint(QQ, (0, 0, 1), "x"))

    def test_smooth_point_raises(self):
        with pytest.raises(Rejection, match="not a singular point"):
            is_node(_p("x1*x2"), ProjPoint(QQ, (1, 1, 1), "x"))


class TestClassification:
    def test_ex42ii(self):
        ex = build_example("ex42ii")
        cl = analysis_context(ex.rep, QQ, ex.components).classification
        assert len(cl.sing_c) == 15
        assert len(cl.s_theta) == 12 and len(cl.s_theta_tilde) == 12
        s_c = {p.coords for p in cl.s_c}
        expect = {ProjPoint(QQ, t, "x").coords for t in ((1, -2, 1), (1, 1, -2), (-5, 1, 1))}
        assert s_c == expect

    def test_prop44_over_f13(self):
        ex = build_example("prop44")
        cl = analysis_context(ex.rep, PrimeField(13), ex.components).classification
        assert len(cl.sing_c) == 12
        assert cl.s_theta == cl.sing_c and cl.s_theta_tilde == cl.sing_c
        assert cl.s_c == [] and cl.complete

    def test_rmk31_node_in_tilde_minus_theta(self):
        ex = build_example("rmk31")
        cl = analysis_context(ex.rep, QQ, ex.components).classification
        rec = next(r for r in cl.records if r.point.coords == ProjPoint(QQ, (0, 0, 1), "x").coords)
        assert rec.rank == 3 and rec.on_d

    def test_s_theta_subset_of_tilde_everywhere(self):
        for name in ("ex42i", "ex42ii", "prop44", "rmk31", "ex43_quartic_two_lines"):
            ex = build_example(name)
            for q in (None, 7, 13):
                field = QQ if q is None else PrimeField(q)
                cl = analysis_context(ex.rep, field, ex.components).classification
                assert set(p.coords for p in cl.s_theta) <= set(p.coords for p in cl.s_theta_tilde)

    def test_cuspidal_rejected(self):
        z = MultiPoly.zero(QQ, VARS_X)
        from detfold.detrep import validate_rep

        # block determinant x1^3 + x2^2*x3 has a cusp at (0:0:1)
        cusp_block = [
            [z, _p("x1"), _p("x2"), z],
            [_p("x1"), _p("-x3"), z, z],
            [_p("x2"), z, _p("-x1"), z],
            [z, z, z, _p("x1^3 + 2*x2^3 + 5*x3^3")],
        ]
        rep = validate_rep(cusp_block, QQ)
        with pytest.raises(Rejection, match="node"):
            analysis_context(rep, QQ).classification

    def test_bezout_count_for_general_position_unions(self):
        # six lines in general position: 15 = C(6,2) pairwise intersections
        ex = build_example("ex42ii")
        cl = analysis_context(ex.rep, QQ, ex.components).classification
        degrees = [c.degree() for c in ex.components]
        expected = sum(
            degrees[i] * degrees[j]
            for i in range(len(degrees))
            for j in range(i + 1, len(degrees))
        )
        assert len(cl.sing_c) == expected


class TestRankStratification:
    @pytest.mark.parametrize("q", [7, 11, 13])
    def test_exhaustive_trichotomy(self, q):
        gf = PrimeField(q)
        for name in ("ex42ii", "prop44", "rmk31"):
            ex = build_example(name)
            rep = reduce_rep(ex.rep, gf)
            from detfold.detrep import derived_equations

            der = derived_equations(rep)
            sing = {
                p.coords
                for p in singular_points(PlaneCurve(der.sextic), gf).points
            }
            reps = [(1, b, c) for b in range(q) for c in range(q)]
            reps += [(0, 1, c) for c in range(q)]
            reps.append((0, 0, 1))
            for coords in reps:
                pt = ProjPoint(gf, coords, "x")
                _, rank, _, _ = gram_rank_kernel(rep, pt)
                on_curve = not der.sextic.evaluate(pt.coords)
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


class TestReducedness:
    def test_square_factor_detected(self):
        assert not is_reduced_curve(_p("x1^2*x2^4"))
        assert not is_reduced_curve(_p("x3^2*x1^4"))
        assert is_reduced_curve(_p("x1*x2*x3"))
        assert is_reduced_curve(_p("x1^3 + x2^3 + x3^3"))

    def test_bivar_gcd(self):
        a = _p("x1^2 - x2^2")
        b = _p("x1^2 + 2*x1*x2 + x2^2")
        g = bivar_gcd(a, b)
        assert g.try_divide(_p("x1 + x2")) is not None and g.degree() == 1
