from fractions import Fraction
from itertools import combinations, product

import pytest

from detfold.algebra import VARS_X
from detfold.detrep import reduce_rep, validate_rep
from detfold.errors import InputError, Rejection
from detfold.examples import build_example
from detfold.fourfold import (
    base_locus,
    brute_force_oracle,
    couples_and_intersections,
    oracle_matches_assembly,
    singular_locus_X,
    split_rank2_fiber,
)
from detfold.points import ProjPoint
from reference import Poly, evaluate, field_sqrt, matrix_rank, parse, plane_forms, plane_span, rep_fourfold


def _p(s, f=0):
    return parse(s, f)


class TestSplit:
    def test_prop44_split_001(self):
        ex = build_example("prop44")
        pair = split_rank2_fiber(ex.rep, ProjPoint(0, (0, 0, 1), "x"))
        assert pair.root is not None
        # the fiber forms (a1, a2, a3, b), each scaled to lead with 1: the planes u3 = +-t
        forms = {tuple(str(Fraction(c, next(x for x in form if x))) for c in form) for form in plane_forms(pair)}
        assert forms == {("0", "0", "1", "1"), ("0", "0", "1", "-1")}

    def test_prop44_split_010(self):
        ex = build_example("prop44")
        pair = split_rank2_fiber(ex.rep, ProjPoint(0, (0, 1, 0), "x"))
        assert pair.root is not None
        for form in plane_forms(pair):
            # u2 = +-x2 on each plane
            basis = plane_span(pair.point, form, 0)
            assert len(basis) == 3

    def test_conjugate_split(self):
        # diag(x1, x2, x3, f) with f(0,0,1) = 1: fiber form u3^2 + t^2 over (0:0:1)
        z = Poly.zero(0, VARS_X)
        rep = validate_rep(
            [
                [_p("x1"), z, z, z],
                [z, _p("x2"), z, z],
                [z, z, _p("x3"), z],
                [z, z, z, _p("x1^3 + x2^3 + x3^3")],
            ],
            0,
        )
        pair = split_rank2_fiber(rep, ProjPoint(0, (0, 0, 1), "x"))
        assert pair.root is None
        ratio = pair.disc / Fraction(-1)
        assert field_sqrt(0, ratio) is not None  # discriminant is -1 up to a square

    def test_split_requires_rank_2(self):
        ex = build_example("prop44")
        with pytest.raises(Rejection, match="rank"):
            split_rank2_fiber(ex.rep, ProjPoint(0, (1, 1, 1), "x"))

    def test_planes_lie_on_fourfold(self):
        # verified internally by split_rank2_fiber; re-check one plane by hand
        ex = build_example("prop44")
        pair = split_rank2_fiber(ex.rep, ProjPoint(0, (0, 0, 1), "x"))
        F = rep_fourfold(ex.rep)
        for form in plane_forms(pair):
            for vec in plane_span(pair.point, form, 0):
                assert not evaluate(F, vec)


class TestBaseLocus:
    def test_ex42i_three_points(self):
        ex = build_example("ex42i")
        pts, complete = base_locus(ex.rep)
        assert complete
        assert {p.coords for p in pts} == {
            ProjPoint(0, (1, 0, 0), "u").coords,
            ProjPoint(0, (0, 1, 0), "u").coords,
            ProjPoint(0, (0, 0, 1), "u").coords,
        }

    def test_ex42ii_empty(self):
        ex = build_example("ex42ii")
        pts, complete = base_locus(ex.rep)
        assert pts == [] and complete

    def test_prop44_empty(self):
        ex = build_example("prop44")
        pts, complete = base_locus(ex.rep)
        assert pts == [] and complete

    def test_degenerate_net_rejected(self):
        # det M = -x1*x2*x3^4 is nonzero but det G vanishes identically
        z = Poly.zero(0, VARS_X)
        rep = validate_rep(
            [
                [_p("x1"), z, z, z],
                [z, z, z, _p("x3^2")],
                [z, z, _p("x2"), z],
                [z, _p("x3^2"), z, _p("x1^3 + x2^3 + 7*x3^3")],
            ],
            0,
        )
        with pytest.raises(Rejection, match="degenerate"):
            base_locus(rep)
        # D = x1^3 is nonzero, but the net spans a single conic
        rep = validate_rep(
            [
                [_p("x1"), z, z, z],
                [z, _p("x1"), z, z],
                [z, z, _p("x1"), z],
                [z, z, z, _p("x2^3 + x3^3")],
            ],
            0,
        )
        with pytest.raises(Rejection, match="not finite"):
            base_locus(rep)

    def test_shared_component_rejected(self):
        # D = (x1 + x2)^3 is nonzero, and the net's two nonzero conics are
        # both u1^2 + u2^2 + u3^2
        z = Poly.zero(0, VARS_X)
        l = _p("x1 + x2")
        rep = validate_rep(
            [[l, z, z, z], [z, l, z, z], [z, z, l, z], [z, z, z, _p("x1^3 + x2^3 + x3^3")]],
            0,
        )
        with pytest.raises(Rejection, match="net of conics shares a component: base locus is one-dimensional"):
            base_locus(rep)


class TestSingularLocus:
    def test_ex42ii_three_vertices(self):
        ex = build_example("ex42ii")
        locus = singular_locus_X(ex.rep)
        assert {p.coords for p in locus.points} == {
            ProjPoint(0, t, "p5").coords
            for t in ((1, -2, 1, 0, 0, 0), (1, 1, -2, 0, 0, 0), (-5, 1, 1, 0, 0, 0))
        }
        assert locus.base_points == []
        assert len(locus.points) == len(ex.rep.classification.s_c) == 3
        assert locus.all_double

    def test_ex42i_base_only(self):
        ex = build_example("ex42i")
        locus = singular_locus_X(ex.rep)
        assert len(locus.points) == 3 and locus.cone_vertices == []
        assert len(ex.rep.classification.s_c) == 0
        assert len(locus.points) == len(ex.rep.classification.s_c) + 3

    def test_prop44_smooth(self):
        ex = build_example("prop44")
        locus = singular_locus_X(ex.rep)
        assert locus.points == [] and locus.smooth

    def test_vertices_never_in_plane(self):
        for name in ("ex42ii", "ex43_quartic_two_lines", "ex43_quintic_line"):
            ex = build_example(name)
            locus = singular_locus_X(ex.rep)
            for v in locus.cone_vertices:
                assert any(v.coords[:3])


class TestOracle:
    def test_ex42ii_mod7(self):
        ex = build_example("ex42ii")
        pts = brute_force_oracle(ex.rep, 7)
        gf = 7
        expected = {
            ProjPoint(gf, t, "p5").coords
            for t in ((1, 5, 1, 0, 0, 0), (1, 1, 5, 0, 0, 0), (2, 1, 1, 0, 0, 0))
        }
        assert {p.coords for p in pts} == expected

    def test_prop44_mod13_empty(self):
        ex = build_example("prop44")
        assert brute_force_oracle(ex.rep, 13) == []

    def test_ex42i_mod7_base_points(self):
        ex = build_example("ex42i")
        pts = brute_force_oracle(ex.rep, 7)
        gf = 7
        assert {p.coords for p in pts} == {
            ProjPoint(gf, t, "p5").coords
            for t in ((0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
        }

    def test_budget(self):
        # 2 (q^2 + q + 1) > ORACLE_BUDGET at q = 227: refused before any work
        ex = build_example("prop44")
        with pytest.raises(InputError, match="budget"):
            brute_force_oracle(ex.rep, 227)

    def test_budget_counts_candidates(self, monkeypatch):
        # diag(x1, x1, x1, x2^3 + x3^3): every stratum with x1 = 0 has rank 0,
        # and its q^3 candidates are refused before any is tested.  Such a
        # stratum enumerates the q^2 points of its two outer kernel
        # directions, and each line along the third is cut by a gcd
        import detfold.fourfold as fourfold

        repeats = []

        def recording(*args, repeat=1):
            repeats.append(repeat)
            return product(*args, repeat=repeat)

        def no_plane(*args, repeat=1):
            if repeat == 2:
                raise AssertionError("a rank-0 stratum enumerated over budget")
            return product(*args, repeat=repeat)

        z = Poly.zero(0, VARS_X)
        x1 = _p("x1")
        rep = validate_rep([[x1, z, z, z], [z, x1, z, z], [z, z, x1, z], [z, z, z, _p("x2^3 + x3^3")]], 0)
        # at q = 13 they fit, 2 * 183 + 169 + 14 * 13^3 <= 10^5: the 14 points
        # of u1^2 + u2^2 + u3^2 = 0 in P, and (1:0:0:0:0:0)
        monkeypatch.setattr(fourfold, "product", recording)
        assert len(brute_force_oracle(rep, 13)) == 15
        assert 2 in repeats  # the enumeration the guard below watches
        monkeypatch.setattr(fourfold, "product", no_plane)
        with pytest.raises(InputError, match="budget"):
            brute_force_oracle(rep, 61)

    def test_matches_assembly_all_examples(self):
        for name in ("ex42i", "ex42ii", "prop44", "rmk31"):
            ex = build_example(name)
            for q in (7, 13):
                ok, _, _ = oracle_matches_assembly(ex.rep, q)
                assert ok, f"{name} mod {q}"


class TestCouples:
    def test_prop44_couples_f13(self):
        ex = build_example("prop44")
        rpt = couples_and_intersections(reduce_rep(ex.rep, 13))
        assert len(rpt.pairs) == 12
        assert rpt.cross_ok
        # all 12 couples split over F_13, and each of the 66 * 4 cross plane
        # pairs spans a P^4 of P^5, so meets in one point
        assert all(pr.root is not None for pr in rpt.pairs)
        gf = 13
        for pa, pb in combinations(rpt.pairs, 2):
            for form_a in plane_forms(pa):
                for form_b in plane_forms(pb):
                    span = plane_span(pa.point, form_a, gf) + plane_span(pb.point, form_b, gf)
                    assert matrix_rank(span, gf) == 5

    def test_prop44_pinned_cross_point(self):
        ex = build_example("prop44")
        rpt = couples_and_intersections(ex.rep)
        pairs = {str(pr.point): pr for pr in rpt.pairs}
        pts = set()
        for form_a in plane_forms(pairs["(0:0:1)"]):
            for form_b in plane_forms(pairs["(0:1:0)"]):
                (a1, a2, a3), (b1, b2, b3) = form_a[:3], form_b[:3]
                meet = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
                pts.add(ProjPoint(0, (0, 0, 0) + meet, "p5"))
        assert pts == {ProjPoint(0, (0, 0, 0, 1, 0, 0), "p5")}

    def test_within_couple_line(self):
        ex = build_example("prop44")
        pair = split_rank2_fiber(ex.rep, ProjPoint(0, (0, 0, 1), "x"))
        rows = [v for form in plane_forms(pair) for v in plane_span(pair.point, form, 0)]
        assert matrix_rank(rows, 0) == 4  # intersection is a projective line

    def test_ex42ii_cross_checks_over_q(self):
        ex = build_example("ex42ii")
        rpt = couples_and_intersections(ex.rep)
        assert len(rpt.pairs) == 12
        assert rpt.cross_ok
        assert any(pr.root is None for pr in rpt.pairs)
