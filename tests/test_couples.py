"""Cross meets of couples of planes: the u-line test against the conic gcd.

`fourfold._cross_check` decides whether two planes from distinct couples
meet in one point by the cross product of their u-lines inside P.
`reference_cross_check` is the former check: the gcd of the two restricted
conics u^T G(p) u, and a 6-column nullspace per plane pair whenever both
couples split over one field.  The two must agree on the verdict and on the
points.
"""

from fractions import Fraction

import pytest

from detfold.algebra import QQ, MultiPoly, PrimeField, QuadExt, nullspace
from detfold.curves import analysis_context
from detfold.examples import build_example
from detfold.fourfold import (
    Plane,
    PlanePair,
    _conic_common_factor,
    _cross_check,
    couples_and_intersections,
)
from detfold.points import ProjPoint


def _restricted_conic(rep, p):
    field = rep.field
    terms: dict = {}
    for i in range(3):
        for j in range(3):
            v = rep.entry(i, j).evaluate(p.coords)
            if not v:
                continue
            e = [0, 0, 0]
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = terms.get(tuple(e), field.zero()) + v
    return MultiPoly(field, ("u1", "u2", "u3"), {e: c for e, c in terms.items() if c})


def reference_cross_check(rep, pa, pb, field):
    """The conic gcd decides the verdict; when both couples split over one
    field, each plane pair must also meet in a 1-dimensional nullspace, which
    gives its point."""
    g = _conic_common_factor(_restricted_conic(rep, pa.point), _restricted_conic(rep, pb.point), field)
    ok = g.degree() == 0
    extracted = {}
    if pa.field == pb.field:
        for ia, plane_a in enumerate(pa.planes):
            for ib, plane_b in enumerate(pb.planes):
                rows = [list(f) for f in plane_a.forms] + [list(f) for f in plane_b.forms]
                ns = nullspace(rows, 6, pa.field)
                if len(ns) != 1:
                    ok = False
                    continue
                extracted[(ia, ib)] = ProjPoint(pa.field, ns[0], "p5")
    return ok, extracted


def _pair(base, point, lines, disc=None):
    """A couple over `point` whose planes have the given u-lines; entries of
    a line are base-field scalars or (a, b) for a + b*sqrt(disc)."""
    fld = base if disc is None else QuadExt(base, disc)
    p = ProjPoint(base, point, "x")
    zero = fld.zero()
    planes = []
    for line in lines:
        u = [fld.coerce(c) if not isinstance(c, tuple) else c[0] * fld.one() + c[1] * fld.root() for c in line]
        forms = (
            (fld.one(), zero, zero, zero, zero, zero),
            (zero, fld.one(), zero, zero, zero, zero),
            (zero, zero, zero, *u),
        )
        planes.append(Plane(forms=forms, field=fld))
    return PlanePair(point=p, planes=tuple(planes), field=fld, disc=disc)


class TestLineBranches:
    def test_rational_double_line_over_extension_meets_base_couple(self):
        # a double-line couple split over Q(sqrt 2) has the rational line
        # u1 = 0 twice; a base-field couple over another point contains it
        pa = _pair(QQ, (0, 0, 1), [(2, 0, 0), (1, 0, 0)], disc=Fraction(2))
        pb = _pair(QQ, (0, 1, 0), [(1, 0, 0), (0, 1, 0)])
        ok, points = _cross_check(pa, pb)
        assert not ok and points == {}
        # Q(sqrt 2) and Q(sqrt 3) are not one field, but both couples hold
        # the rational line u1 = 0
        pc = _pair(QQ, (0, 1, 0), [(1, 0, 0), (3, 0, 0)], disc=Fraction(3))
        assert not _cross_check(pa, pc)[0]

    def test_fq_couples_over_different_discs_share_a_line(self):
        gf = PrimeField(7)
        # sqrt 5 = 2 sqrt 3 in F_49, so 4 sqrt 5 = sqrt 3 there
        pa = _pair(gf, (0, 0, 1), [(1, (0, 1), 0), (1, (0, -1), 0)], disc=3)
        pb = _pair(gf, (0, 1, 0), [(1, (0, 4), 0), (1, (0, -4), 0)], disc=5)
        assert not _cross_check(pa, pb)[0]
        # lines 1 + sqrt 5 . u2 are not a rescaling of 1 + sqrt 3 . u2
        pc = _pair(gf, (0, 1, 0), [(1, (0, 1), 0), (1, (0, -1), 0)], disc=5)
        assert _cross_check(pa, pc)[0]

    def test_q_sqrt2_and_sqrt8_lines_that_are_one_line(self):
        # sqrt 8 = 2 sqrt 2, so u1 + (sqrt 8 / 2) u2 = u1 + sqrt 2 u2
        pa = _pair(QQ, (0, 0, 1), [(1, (0, 1), 0), (1, (0, -1), 0)], disc=Fraction(2))
        half = Fraction(1, 2)
        pb = _pair(QQ, (0, 1, 0), [(1, (0, half), 0), (1, (0, -half), 0)], disc=Fraction(8))
        assert not _cross_check(pa, pb)[0]

    def test_irrational_lines_over_sqrt2_and_sqrt3_meet_in_points(self):
        pa = _pair(QQ, (0, 0, 1), [(1, (0, 1), 0), (1, (0, -1), 0)], disc=Fraction(2))
        pb = _pair(QQ, (0, 1, 0), [(1, (0, 1), 0), (1, (0, -1), 0)], disc=Fraction(3))
        ok, points = _cross_check(pa, pb)
        assert ok and points == {}  # no common field, so no point recorded

    def test_base_line_against_extension_line(self):
        # u1 = 0 against u1 + sqrt 2 u2 = 0: the meet (0:0:0 : 0:0:1) is
        # computed in Q(sqrt 2) but recorded only for one field of splitting
        pa = _pair(QQ, (0, 0, 1), [(1, (0, 1), 0), (1, (0, -1), 0)], disc=Fraction(2))
        pb = _pair(QQ, (0, 1, 0), [(1, 0, 0), (0, 1, 0)])
        assert _cross_check(pa, pb) == (True, {})
        pc = _pair(QQ, (0, 1, 0), [(1, 0, 0), (0, 1, 0)], disc=Fraction(2))
        ok, points = _cross_check(pa, pc)
        assert ok and len(points) == 4
        assert points[(0, 0)] == ProjPoint(pa.field, (0, 0, 0, 0, 0, 1), "p5")


# prop44 members (the matrix A) and ex42ii members (the lines l4, l5, l6),
# each with good reduction at 7, 11 and 13
_MEMBERS = [
    ("prop44", {}),
    ("prop44", {"A": "-1,0,0,-2,-1,1,-2,-2,-1"}),
    ("ex42ii", {}),
    ("ex42ii", {"l4": "-x1 - 3*x2 + 3*x3", "l5": "-3*x1 + 3*x2 + x3", "l6": "x1 - 2*x2 + x3"}),
]


@pytest.mark.parametrize("name,params", _MEMBERS)
@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(11), PrimeField(13)], ids=str)
def test_line_test_matches_reference(name, params, field):
    ex = build_example(name, params)
    ctx = analysis_context(ex.rep, field, ex.components)
    rpt = couples_and_intersections(ctx)
    assert rpt.pairs and not any(pr.degenerate for pr in rpt.pairs)
    cross_ok = True
    cross_points = {}
    for i, pa in enumerate(rpt.pairs):
        for j in range(i + 1, len(rpt.pairs)):
            pb = rpt.pairs[j]
            ok, points = reference_cross_check(ctx.rep, pa, pb, field)
            assert _cross_check(pa, pb) == (ok, points), (pa.point, pb.point)
            cross_ok = cross_ok and ok
            cross_points.update({(i, j) + key: pt for key, pt in points.items()})
    assert (rpt.cross_ok, rpt.cross_points) == (cross_ok, cross_points)
