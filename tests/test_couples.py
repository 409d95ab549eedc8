"""Couples of planes: the checks at the point against polynomial references.

`fourfold._cross_check` decides whether two planes from distinct couples
meet in one point by the cross product of their u-lines inside P.
`reference_cross_check` is the former check: the gcd of the two restricted
conics u^T G(p) u, and, whenever both couples split over one field, rank 5
for the six vectors spanning each pair of planes in P^5.  The two must agree
on the verdict, on the named family members and on random reps.
`_conic_common_factor`, the former shared-component test of the base locus,
is the reference for its rank test too.

`fourfold._verify_pair` checks each plane of a couple by six values of the
fiber quadric; it must refuse perturbed fiber forms, and on random reps every
F_q-point of a base-field couple plane must lie on the fourfold.
"""

import io
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from detfold.algebra import QQ, MultiPoly, PrimeField, QuadExt, VARS_X, matrix_rank, parse_poly
from detfold.cli import main as cli_main
from detfold.curves import analysis_context
from detfold.detrep import validate_rep
from detfold.errors import ConsistencyError, Rejection
from detfold.examples import build_example
from detfold.fourfold import (
    Plane,
    PlanePair,
    _cross_check,
    _verify_pair,
    base_locus,
    couples_and_intersections,
    net_conics,
    split_rank2_fiber,
)
from detfold.points import ProjPoint, p2_reps
from detfold.repfile import parse_rep_file
from reference import bivar_gcd, plane_span
from test_oracle import random_reps

GOLDEN = Path(__file__).parent / "golden"


def _conic_common_factor(a, b, field):
    """Common factor of two conics: their bivariate gcd in the chart x3 = 1,
    or x3 when it divides both."""
    ax, bx = (MultiPoly(field, VARS_X, dict(c.terms)) for c in (a, b))
    g = bivar_gcd(ax.substitute({"x3": 1}), bx.substitute({"x3": 1}))
    if g.degree() == 0:
        x3 = MultiPoly.variable(field, VARS_X, "x3")
        if ax.try_divide(x3) is not None and bx.try_divide(x3) is not None:
            return x3
    return g


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
    field, each plane pair must also span a P^4, that is meet in one point."""
    g = _conic_common_factor(_restricted_conic(rep, pa.point), _restricted_conic(rep, pb.point), field)
    ok = g.degree() == 0
    if pa.field == pb.field:
        for plane_a in pa.planes:
            for plane_b in pb.planes:
                span = plane_span(pa.point, plane_a.form, pa.field) + plane_span(pb.point, plane_b.form, pa.field)
                ok = ok and matrix_rank(span, pa.field) == 5
    return ok


def _pair(base, point, lines, disc=None):
    """A couple over `point` whose planes have the given u-lines; entries of
    a line are base-field scalars or (a, b) for a + b*sqrt(disc)."""
    fld = base if disc is None else QuadExt(base, disc)
    p = ProjPoint(base, point, "x")
    planes = []
    for line in lines:
        u = [fld.coerce(c) if not isinstance(c, tuple) else c[0] * fld.one() + c[1] * fld.root() for c in line]
        planes.append(Plane(form=(*u, fld.zero()), field=fld))
    return PlanePair(point=p, planes=tuple(planes), field=fld, disc=disc)


class TestLineBranches:
    def test_rational_double_line_over_extension_meets_base_couple(self):
        # a double-line couple split over Q(sqrt 2) has the rational line
        # u1 = 0 twice; a base-field couple over another point contains it
        pa = _pair(QQ, (0, 0, 1), [(2, 0, 0), (1, 0, 0)], disc=Fraction(2))
        pb = _pair(QQ, (0, 1, 0), [(1, 0, 0), (0, 1, 0)])
        assert not _cross_check(pa, pb)
        # Q(sqrt 2) and Q(sqrt 3) are not one field, but both couples hold
        # the rational line u1 = 0
        pc = _pair(QQ, (0, 1, 0), [(1, 0, 0), (3, 0, 0)], disc=Fraction(3))
        assert not _cross_check(pa, pc)

    def test_fq_couples_over_different_discs_share_a_line(self):
        gf = PrimeField(7)
        # sqrt 5 = 2 sqrt 3 in F_49, so 4 sqrt 5 = sqrt 3 there
        pa = _pair(gf, (0, 0, 1), [(1, (0, 1), 0), (1, (0, -1), 0)], disc=3)
        pb = _pair(gf, (0, 1, 0), [(1, (0, 4), 0), (1, (0, -4), 0)], disc=5)
        assert not _cross_check(pa, pb)
        # lines 1 + sqrt 5 . u2 are not a rescaling of 1 + sqrt 3 . u2
        pc = _pair(gf, (0, 1, 0), [(1, (0, 1), 0), (1, (0, -1), 0)], disc=5)
        assert _cross_check(pa, pc)

    def test_q_sqrt2_and_sqrt8_lines_that_are_one_line(self):
        # sqrt 8 = 2 sqrt 2, so u1 + (sqrt 8 / 2) u2 = u1 + sqrt 2 u2
        pa = _pair(QQ, (0, 0, 1), [(1, (0, 1), 0), (1, (0, -1), 0)], disc=Fraction(2))
        half = Fraction(1, 2)
        pb = _pair(QQ, (0, 1, 0), [(1, (0, half), 0), (1, (0, -half), 0)], disc=Fraction(8))
        assert not _cross_check(pa, pb)

    def test_irrational_lines_over_sqrt2_and_sqrt3_meet_in_points(self):
        pa = _pair(QQ, (0, 0, 1), [(1, (0, 1), 0), (1, (0, -1), 0)], disc=Fraction(2))
        pb = _pair(QQ, (0, 1, 0), [(1, (0, 1), 0), (1, (0, -1), 0)], disc=Fraction(3))
        assert _cross_check(pa, pb)

    def test_base_line_against_extension_line(self):
        # u1 = 0 against u1 + sqrt 2 u2 = 0: both planes hold the meet
        # (0:0:0 : 0:0:1), whether the base couple is split over Q or Q(sqrt 2)
        pa = _pair(QQ, (0, 0, 1), [(1, (0, 1), 0), (1, (0, -1), 0)], disc=Fraction(2))
        pb = _pair(QQ, (0, 1, 0), [(1, 0, 0), (0, 1, 0)])
        assert _cross_check(pa, pb)
        pc = _pair(QQ, (0, 1, 0), [(1, 0, 0), (0, 1, 0)], disc=Fraction(2))
        assert _cross_check(pa, pc)
        meet = [0, 0, 0, 0, 0, 1]
        for pair in (pa, pc):
            span = plane_span(pair.point, pair.planes[0].form, pa.field)
            assert matrix_rank(span + [meet], pa.field) == 3


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
    for pa, pb in combinations(rpt.pairs, 2):
        ok = reference_cross_check(ctx.rep, pa, pb, field)
        assert _cross_check(pa, pb) == ok, (pa.point, pb.point)
        cross_ok = cross_ok and ok
    assert rpt.cross_ok == cross_ok


# ---------------------------------------------------------------------------
# The plane check of a couple
# ---------------------------------------------------------------------------


def _with_form(pair, form):
    """The pair with its first plane's fiber form replaced."""
    bad = replace(pair.planes[0], form=tuple(form))
    return replace(pair, planes=(bad, pair.planes[1]))


def _conjugate_split_rep():
    # diag(x1, x2, x3, f) with f(0,0,1) = 1: over (0:0:1) the fiber form is
    # u3^2 + t^2, which splits over Q(i) only
    z = MultiPoly.zero(QQ, VARS_X)
    x1, x2, x3 = (MultiPoly.variable(QQ, VARS_X, v) for v in VARS_X)
    f = parse_poly("x1^3 + x2^3 + x3^3", VARS_X, QQ)
    return validate_rep([[x1, z, z, z], [z, x2, z, z], [z, z, x3, z], [z, z, z, f]], QQ)


_COUPLES = {
    "Q": lambda: (analysis_context(build_example("prop44").rep), (0, 0, 1)),
    "F_13": lambda: (analysis_context(build_example("prop44").rep, PrimeField(13)), (0, 1, 0)),
    "Q(i)": lambda: (analysis_context(_conjugate_split_rep()), (0, 0, 1)),
}


@pytest.mark.parametrize("which", list(_COUPLES))
def test_perturbed_plane_refused(which):
    ctx, point = _COUPLES[which]()
    pair = split_rank2_fiber(ctx, ProjPoint(ctx.field, point, "x"))
    assert (pair.disc is not None) == (which == "Q(i)")
    F = ctx.rep.fourfold
    _verify_pair(pair, F)  # the split itself passes
    form = pair.planes[0].form
    one, zero = pair.field.one(), pair.field.zero()
    # the u-part (a1, a2, a3), then the t-part b
    for index in range(4):
        moved = list(form)
        moved[index] = moved[index] + one
        with pytest.raises(ConsistencyError, match="not inside the fourfold"):
            _verify_pair(_with_form(pair, moved), F)
    with pytest.raises(ConsistencyError, match="coincides with the plane P"):
        _verify_pair(_with_form(pair, [zero] * 3 + [form[3]]), F)
    with pytest.raises(ConsistencyError, match="meet along a line"):
        _verify_pair(_with_form(pair, pair.planes[1].form), F)


def test_plane_with_isotropic_basis_refused():
    # prop44 mod 13 over (1:0:0): Q vanishes at the three basis points of the
    # plane u1 + 2 u3 + 12 t = 0 but not on the plane, so the pairwise sums
    # (the off-diagonal polar values) are needed to refuse it
    ctx = analysis_context(build_example("prop44").rep, PrimeField(13))
    pair = split_rank2_fiber(ctx, ProjPoint(ctx.field, (1, 0, 0), "x"))
    form = [ctx.field.from_int(c) for c in (1, 0, 2, 12)]
    with pytest.raises(ConsistencyError, match="not inside the fourfold"):
        _verify_pair(_with_form(pair, form), ctx.rep.fourfold)


_DEGENERATE_COUPLE = """field rational
vars x1 x2 x3
row 0: x1, 0, 0, x3^2
row 1: 0, x2, 0, 0
row 2: 0, 0, x1+x2, 0
row 3: x3^2, 0, 0, x1^3+2*x2^3+3*x1*x2*x3
"""


@pytest.mark.parametrize("field,rc", [(None, 0), ("fp:31", 0), ("fp:37", 1)])
def test_degenerate_couple_reports(tmp_path, field, rc):
    # over (0:0:1) the conic block vanishes: one plane of the couple is P
    path = tmp_path / "degenerate.rep"
    path.write_text(_DEGENERATE_COUPLE)
    stem = "degenerate_couple." + (field or "rational").replace(":", "")
    for flag, ext in (([], "flat"), (["--json"], "json")):
        buf = io.StringIO()
        args = ["analyze", str(path)] + (["--field", field] if field else []) + flag
        assert cli_main(args, out=buf) == rc
        assert buf.getvalue() == (GOLDEN / f"{stem}.{ext}").read_text(), (stem, ext)


def test_degenerate_couple_has_p_as_a_plane():
    ctx = analysis_context(parse_rep_file(_DEGENERATE_COUPLE), PrimeField(31))
    pair = split_rank2_fiber(ctx, ProjPoint(ctx.field, (0, 0, 1), "x"))
    assert pair.degenerate
    assert [not any(plane.form[:3]) for plane in pair.planes].count(True) == 1
    _verify_pair(pair, ctx.rep.fourfold)


@st.composite
def reps_with_a_rank2_fiber(draw, field, second=False):
    """Random reps whose fiber over (0:0:1) has rank 2: the x3-power
    coefficients of the entries, which are the matrix at (0:0:1), are
    replaced by a v v^T + b w w^T.  With `second` the fiber over (0:1:0),
    through the x2-power coefficients, has rank 2 as well; about half of
    those draws keep the u-parts of v and w and the scalars a, b there, so
    that the two couples share their lines in P."""
    rep = draw(random_reps(field))
    q = field.q
    vec = st.lists(st.integers(0, q - 1), min_size=4, max_size=4)
    v, w = (draw(vec) for _ in range(2))
    a, b = (draw(st.integers(1, q - 1)) for _ in range(2))
    fibers = [(2, v, w, a, b)]
    if second:
        if draw(st.booleans()):
            v, w = (x[:3] + [draw(st.integers(0, q - 1))] for x in (v, w))
        else:
            v, w = (draw(vec) for _ in range(2))
            a, b = (draw(st.integers(1, q - 1)) for _ in range(2))
        fibers.append((1, v, w, a, b))
    entries = [list(row) for row in rep.entries]
    for k, v, w, a, b in fibers:
        for i in range(4):
            for j in range(4):
                top = [0, 0, 0]
                top[k] = 3 if i == j == 3 else 2 if 3 in (i, j) else 1
                terms = dict(entries[i][j].terms)
                terms[tuple(top)] = field.from_int(a * v[i] * v[j] + b * w[i] * w[j])
                entries[i][j] = MultiPoly(field, VARS_X, terms)
    try:
        return validate_rep(entries, field)
    except Rejection:
        assume(False)


@pytest.mark.parametrize("q", [5, 7])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_base_field_couple_planes_lie_on_the_fourfold(q, data):
    # exhaustive over the plane: a nonzero plane cubic has at most 3q + 1 of
    # its q^2 + q + 1 points
    field = PrimeField(q)
    ctx = analysis_context(data.draw(reps_with_a_rank2_fiber(field)))
    try:
        pairs = couples_and_intersections(ctx).pairs
    except Rejection:
        assume(False)
    F = ctx.rep.fourfold
    for pair in pairs:
        if pair.disc is not None:
            continue
        for plane in pair.planes:
            basis = plane_span(pair.point, plane.form, field)
            assert len(basis) == 3
            for c in p2_reps(q):
                point = [sum(k * b[i] for k, b in zip(c, basis)) for i in range(6)]
                assert not F.evaluate(point), (pair.point, plane.form)


@pytest.mark.parametrize("q", [5, 7])
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_cross_verdict_matches_reference_on_random_reps(q, data):
    field = PrimeField(q)
    ctx = analysis_context(data.draw(reps_with_a_rank2_fiber(field, second=True)))
    try:
        rpt = couples_and_intersections(ctx)
    except Rejection:
        assume(False)
    live = [pr for pr in rpt.pairs if not pr.degenerate]
    ok = all(reference_cross_check(ctx.rep, pa, pb, field) for pa, pb in combinations(live, 2))
    assert rpt.cross_ok == ok


# ---------------------------------------------------------------------------
# The shared-component test of the base locus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [5, 7])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_base_locus_share_test_matches_gcd(q, data):
    # random nets, and nets l(x) S with one symmetric S, whose conics are
    # all multiples of one
    field = PrimeField(q)
    rep = data.draw(random_reps(field))
    if data.draw(st.booleans()):
        l = [field.from_int(c) for c in data.draw(st.lists(st.integers(0, q - 1), min_size=3, max_size=3))]
        s = data.draw(st.lists(st.integers(0, q - 1), min_size=6, max_size=6))
        sym = [[s[0], s[1], s[2]], [s[1], s[3], s[4]], [s[2], s[4], s[5]]]
        entries = [list(row) for row in rep.entries]
        for i in range(3):
            for j in range(3):
                entries[i][j] = MultiPoly(
                    field, VARS_X, {tuple(int(t == k) for t in range(3)): l[k] * sym[i][j] for k in range(3)}
                )
        try:
            rep = validate_rep(entries, field)
        except Rejection:
            assume(False)
    ctx = analysis_context(rep)
    conics = [c for c in net_conics(rep) if not c.is_zero]
    assume(not ctx.rep.d_cubic.is_zero and len(conics) >= 2)
    g = conics[0]
    for c in conics[1:]:
        g = _conic_common_factor(g, c, field)
    try:
        base_locus(ctx)
        shares = False
    except Rejection as e:
        shares = "shares a component" in str(e)
    assert shares == (g.degree() > 0)
