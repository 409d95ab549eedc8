"""Couples of planes: the checks at the point against polynomial references.

`fourfold._cross_ok` decides whether planes from distinct couples meet in
single points by comparing keys of their lines inside P: each rational line,
and the conic of a pair of conjugate lines.  `reference_cross_check` is the
former check: the gcd of the two restricted conics u^T G(p) u, and, whenever
both couples split over the base field, rank 5 for the six vectors spanning
each pair of planes in P^5.  The two must agree on the verdict, on the named
family members and on random reps.  `_conic_common_factor`, the former
shared-component test of the base locus, is the reference for its rank test
too.

`fourfold._verify_pair` checks a couple (alpha, beta, disc), in integers at
the integer vector of its point (`reference.pair_ints`), against the polar
matrix of the fiber quadric; it must refuse perturbed alpha and beta,
and on random reps F must be a nonzero multiple of
t ((alpha . v)^2 - disc (beta . v)^2) on the whole fiber span, for couples
split over the base field and over its quadratic extension alike.

The per-point path on integer vectors (`is_node`, `gram_rank_kernel`,
`split_rank2_fiber`, `_verify_pair`, `_line_keys`) must give the verdicts of
the field-object path kept in `reference`, on random reps over F_q and on
rational reps whose points and entries have large denominators.
"""

import io
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from detfold.algebra import VARS_X
from detfold.algebra.multipoly import form_values
from detfold.cli import main as cli_main
from detfold.curves import SingClassification, is_node, singular_points
from detfold.detrep import UPPER, embed_fiber_vector, gram_rank_kernel, reduce_rep, validate_rep
from detfold.errors import ConsistencyError, Rejection
from detfold.examples import build_example
from detfold.fourfold import (
    PlanePair,
    _cross_ok,
    _line_keys,
    _verify_pair,
    base_locus,
    couples_and_intersections,
    net_conics,
    singular_locus_X,
    split_rank2_fiber,
)
from detfold.points import ProjPoint, sorted_points
from detfold.repfile import parse_rep_file
import reference as ref
from reference import Poly, bivar_gcd, coerce, dense_rep, elt, evaluate, field_sqrt, matrix_rank, pair_ints, parse, plane_forms, plane_span, rep_d_cubic, rep_entry, rep_fourfold, rep_sextic, substitute, term_polar_matrix, try_divide
from test_oracle import random_reps

GOLDEN = Path(__file__).parent / "golden"


def _conic_common_factor(a, b, field):
    """Common factor of two conics: their bivariate gcd in the chart x3 = 1,
    or x3 when it divides both."""
    ax, bx = (Poly(field, VARS_X, dict(c.terms)) for c in (a, b))
    g = bivar_gcd(substitute(ax, {"x3": 1}), substitute(bx, {"x3": 1}))
    if g.degree() == 0:
        x3 = Poly.variable(field, VARS_X, "x3")
        if try_divide(ax, x3) is not None and try_divide(bx, x3) is not None:
            return x3
    return g


def _restricted_conic(rep, p):
    field = rep.q
    terms: dict = {}
    for i in range(3):
        for j in range(3):
            v = evaluate(rep_entry(rep, i, j), p.coords)
            if not v:
                continue
            e = [0, 0, 0]
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = terms.get(tuple(e), coerce(field, 0)) + v
    return Poly(field, ("u1", "u2", "u3"), {e: c for e, c in terms.items() if c})


def reference_cross_check(rep, pa, pb, field):
    """The conic gcd decides the verdict; when both couples split over the
    base field, each plane pair must also span a P^4, that is meet in one
    point."""
    g = _conic_common_factor(_restricted_conic(rep, pa.point), _restricted_conic(rep, pb.point), field)
    ok = g.degree() == 0
    if pa.root is not None and pb.root is not None:
        for form_a in plane_forms(pa):
            for form_b in plane_forms(pb):
                span = plane_span(pa.point, form_a, field) + plane_span(pb.point, form_b, field)
                ok = ok and matrix_rank(span, field) == 5
    return ok


def _pair(base, point, alpha, beta, disc):
    """The couple over `point` with the planes (alpha +- sqrt(disc) beta) . (u, t) = 0,
    its lines keyed by `_line_keys` on its integers; with both u-parts zero
    (both planes are P, draws the tests drop) it has no lines."""
    disc = coerce(base, disc)
    pair = PlanePair(
        point=ProjPoint(base, point, "x"),
        alpha=tuple((coerce(base, c) for c in alpha)),
        beta=tuple((coerce(base, c) for c in beta)),
        disc=disc,
        root=field_sqrt(base, disc),
        lines=frozenset(),
    )
    a, b, d = pair_ints(pair)
    if not any(pair.alpha[:3]) and not any(pair.beta[:3]):
        return pair
    return replace(pair, lines=_line_keys(a[:3], b[:3], d, field_sqrt(base, coerce(base, d)), base))


def _verify(pair, rep):
    """`_verify_pair` on a couple given by base-field data."""
    _verify_pair(rep, pair.point, *pair_ints(pair))


class TestLineBranches:
    def test_rational_double_line_over_extension_meets_base_couple(self):
        # (1 +- sqrt 2) u1 +- sqrt 2 t = 0 split over Q(sqrt 2) has the
        # rational line u1 = 0 twice; a base-field couple over another point,
        # with the lines u1 = 0 and u2 = 0, contains it
        pa = _pair(0, (0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1), 2)
        pb = _pair(0, (0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0), 1)
        assert not _cross_ok([pa, pb])
        # Q(sqrt 2) and Q(sqrt 3) are not one field, but both couples hold
        # the rational line u1 = 0
        pc = _pair(0, (0, 1, 0), (1, 0, 0, 0), (0, 0, 0, 1), 3)
        assert not _cross_ok([pa, pc])

    def test_fq_couples_over_different_discs_share_a_line(self):
        gf = 7
        # sqrt 5 = 2 sqrt 3 in F_49, so 4 sqrt 5 = sqrt 3 there: the lines
        # u1 +- sqrt 3 u2 = 0 and u1 +- 4 sqrt 5 u2 = 0 are one pair
        pa = _pair(gf, (0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), 3)
        pb = _pair(gf, (0, 1, 0), (1, 0, 0, 0), (0, 4, 0, 0), 5)
        assert not _cross_ok([pa, pb])
        # lines u1 +- sqrt 5 u2 = 0 are not a rescaling of u1 +- sqrt 3 u2 = 0
        pc = _pair(gf, (0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), 5)
        assert _cross_ok([pa, pc])

    def test_q_sqrt2_and_sqrt8_lines_that_are_one_line(self):
        # sqrt 8 = 2 sqrt 2, so u1 + (sqrt 8 / 2) u2 = u1 + sqrt 2 u2
        pa = _pair(0, (0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), 2)
        pb = _pair(0, (0, 1, 0), (1, 0, 0, 0), (0, Fraction(1, 2), 0, 0), 8)
        assert not _cross_ok([pa, pb])

    def test_one_line_written_with_opposite_signs(self):
        # u1 + u2 = 0 is a line of the split u1 +- u2 over (0:0:1) and the
        # double line of (-2 u1 - 2 u2) +- sqrt 2 t over (0:1:0)
        pa = _pair(0, (0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), 1)
        pb = _pair(0, (0, 1, 0), (-2, -2, 0, 0), (0, 0, 0, 1), 2)
        assert not _cross_ok([pa, pb])

    def test_irrational_lines_over_sqrt2_and_sqrt3_meet_in_points(self):
        pa = _pair(0, (0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), 2)
        pb = _pair(0, (0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), 3)
        assert _cross_ok([pa, pb])

    def test_base_line_against_extension_line(self):
        # u1 +- sqrt 2 u2 = 0 against the lines u1 = 0 and u2 = 0 of a base
        # couple: the planes u1 = 0 and u1 + sqrt 2 u2 = 0 both hold the meet
        # (0:0:0 : 0:0:1)
        pa = _pair(0, (0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), 2)
        pb = _pair(0, (0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0), 1)
        assert _cross_ok([pa, pb])
        meet = [0, 0, 0, 0, 0, 1]
        for vec in (pa.alpha, pa.beta):
            assert not sum(c * m for c, m in zip(vec[:3], meet[3:]))
        span = plane_span(pb.point, plane_forms(pb)[0], 0)
        assert matrix_rank(span + [meet], 0) == 3


def test_cross_verdict_covers_every_pair_of_couples():
    # the first and the third couple share the line u1 = 0, with a couple
    # between them that shares nothing
    pa = _pair(0, (0, 0, 1), (1, 1, 0, 0), (1, -1, 0, 0), 1)
    pb = _pair(0, (0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), 2)
    pc = _pair(0, (1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0), 1)
    assert _cross_ok([pa, pb]) and _cross_ok([pb, pc])
    assert not _cross_ok([pa, pb, pc])


def _lines_over_fq2(pair, q, n):
    """The u-lines alpha_u +- s beta_u of a couple over F_q, s^2 = disc, with
    entries (a, b) = a + b sqrt(n) of F_q^2 for a fixed non-square n."""
    s = (pair.root, 0) if pair.root is not None else (0, next(k for k in range(1, q) if k * k * n % q == pair.disc))
    return [
        [((a + sign * s[0] * b) % q, sign * s[1] * b % q) for a, b in zip(pair.alpha[:3], pair.beta[:3])]
        for sign in (1, -1)
    ]


def _same_line(la, lb, q, n):
    """The cross product of two lines over F_q^2 vanishes."""
    def mul(x, y):
        return (x[0] * y[0] + n * x[1] * y[1]) % q, (x[0] * y[1] + x[1] * y[0]) % q

    return all(mul(la[i], lb[j]) == mul(la[j], lb[i]) for i, j in combinations(range(3), 2))


@pytest.mark.parametrize("q", [3, 5, 7])
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_line_keys_match_lines_over_fq2(q, data):
    # the verdict of the keys against the lines themselves, computed in F_q^2;
    # the second couple is fresh, or has the first one's lines written with
    # alpha scaled by c and disc by k^2, or shares one line of a base split
    n = next(v for v in range(2, q) if field_sqrt(q, coerce(q, v)) is None)
    vec = st.lists(st.integers(0, q - 1), min_size=4, max_size=4)
    unit = st.integers(1, q - 1)
    alpha, beta, disc = data.draw(vec), data.draw(vec), data.draw(unit)
    first = _pair(q, (0, 0, 1), alpha, beta, disc)
    how = data.draw(st.sampled_from(["fresh", "rewritten", "one line"]))
    if how == "rewritten":
        c, k = data.draw(unit), data.draw(unit)
        second = (
            [c * a for a in alpha],
            [c * b * pow(k, -1, q) for b in beta],
            disc * k * k,
        )
    elif how == "one line" and first.root is not None:
        line, other = plane_forms(first)[0], [elt(q, c) for c in data.draw(vec)]
        second = ([(x + y) / 2 for x, y in zip(line, other)], [(x - y) / 2 for x, y in zip(line, other)], 1)
    else:
        second = (data.draw(vec), data.draw(vec), data.draw(unit))
    pairs = [first, _pair(q, (0, 1, 0), *second)]
    lines = [_lines_over_fq2(pr, q, n) for pr in pairs]
    assume(all(any(c != (0, 0) for c in line) for two in lines for line in two))  # no plane is P
    shared = any(_same_line(la, lb, q, n) for la in lines[0] for lb in lines[1])
    assert _cross_ok(pairs) == (not shared)


# prop44 members (the matrix A) and ex42ii members (the lines l4, l5, l6),
# each with good reduction at 7, 11 and 13
_MEMBERS = [
    ("prop44", {}),
    ("prop44", {"A": "-1,0,0,-2,-1,1,-2,-2,-1"}),
    ("ex42ii", {}),
    ("ex42ii", {"l4": "-x1 - 3*x2 + 3*x3", "l5": "-3*x1 + 3*x2 + x3", "l6": "x1 - 2*x2 + x3"}),
]


@pytest.mark.parametrize("name,params", _MEMBERS)
@pytest.mark.parametrize("field", [0, 7, 11, 13], ids=lambda q: f"GF({q})" if q else "QQ")
def test_line_test_matches_reference(name, params, field):
    ex = build_example(name, params)
    rep = reduce_rep(ex.rep, field)
    rpt = couples_and_intersections(rep)
    assert rpt.pairs and not any(pr.degenerate for pr in rpt.pairs)
    cross_ok = True
    for pa, pb in combinations(rpt.pairs, 2):
        ok = reference_cross_check(rep, pa, pb, field)
        assert _cross_ok([pa, pb]) == ok, (pa.point, pb.point)
        cross_ok = cross_ok and ok
    assert rpt.cross_ok == cross_ok


# ---------------------------------------------------------------------------
# The plane check of a couple
# ---------------------------------------------------------------------------


def _conjugate_split_rep():
    # diag(x1, x2, x3, f) with f(0,0,1) = 1: over (0:0:1) the fiber form is
    # u3^2 + t^2, which splits over Q(i) only
    z = Poly.zero(0, VARS_X)
    x1, x2, x3 = (Poly.variable(0, VARS_X, v) for v in VARS_X)
    f = parse("x1^3 + x2^3 + x3^3")
    return validate_rep([[x1, z, z, z], [z, x2, z, z], [z, z, x3, z], [z, z, z, f]], 0)


_COUPLES = {
    "Q": lambda: (build_example("prop44").rep, (0, 0, 1)),
    "F_13": lambda: (reduce_rep(build_example("prop44").rep, 13), (0, 1, 0)),
    "Q(i)": lambda: (_conjugate_split_rep(), (0, 0, 1)),
}


def _with_forms(pair, first, second):
    """The base-field couple with the fiber forms first = alpha + root beta
    and second = alpha - root beta."""
    two = elt(pair.point.q, 2)
    alpha = tuple((x + y) / two for x, y in zip(first, second))
    beta = tuple((x - y) / (two * pair.root) for x, y in zip(first, second))
    return replace(pair, alpha=alpha, beta=beta)


@pytest.mark.parametrize("which", list(_COUPLES))
def test_perturbed_plane_refused(which):
    rep, point = _COUPLES[which]()
    pair = split_rank2_fiber(rep, ProjPoint(rep.q, point, "x"))
    assert (pair.root is None) == (which == "Q(i)")
    _verify(pair, rep)  # the split itself passes
    # each entry of alpha, then of beta: the u-part, then the t-part; a move
    # that leaves alpha and beta dependent fails the line test instead
    for name in ("alpha", "beta"):
        for index in range(4):
            vec = list(getattr(pair, name))
            vec[index] = vec[index] + coerce(rep.q, 1)
            moved = replace(pair, **{name: tuple(vec)})
            dependent = matrix_rank([list(moved.alpha), list(moved.beta)], rep.q) < 2
            message = "meet along a line" if dependent else "not inside the fourfold"
            with pytest.raises(ConsistencyError, match=message):
                _verify(moved, rep)
    if pair.root is not None:
        # the first plane replaced by P, t = 0: its product with the second
        # plane is not the fiber quadric (conjugate planes are P together)
        first, second = plane_forms(pair)
        with pytest.raises(ConsistencyError, match="not inside the fourfold"):
            _verify(_with_forms(pair, [0, 0, 0, first[3]], second), rep)
    with pytest.raises(ConsistencyError, match="meet along a line"):
        _verify(replace(pair, beta=pair.alpha), rep)
    with pytest.raises(ConsistencyError, match="meet along a line"):
        _verify(replace(pair, disc=coerce(rep.q, 0)), rep)


def test_plane_with_isotropic_basis_refused():
    # prop44 mod 13 over (1:0:0): Q vanishes at the three basis points of the
    # plane u1 + 2 u3 + 12 t = 0 with t = 1 but not on the plane; the couple
    # of that plane and a true plane of the fiber is refused
    rep = reduce_rep(build_example("prop44").rep, 13)
    pair = split_rank2_fiber(rep, ProjPoint(rep.q, (1, 0, 0), "x"))
    bad = [coerce(rep.q, c) for c in (1, 0, 2, 12)]
    with pytest.raises(ConsistencyError, match="not inside the fourfold"):
        _verify(_with_forms(pair, bad, plane_forms(pair)[1]), rep)


@pytest.mark.parametrize("field,rc", [(None, 0), ("fp:31", 0), ("fp:37", 1)])
def test_degenerate_couple_reports(field, rc):
    # over (0:0:1) the conic block vanishes: one plane of the couple is P
    stem = "degenerate_couple." + (field or "rational").replace(":", "")
    path = GOLDEN / "degenerate_couple.rep"
    for flag, ext in (([], "flat"), (["--json"], "json")):
        buf = io.StringIO()
        args = ["analyze", str(path)] + (["--field", field] if field else []) + flag
        assert cli_main(args, out=buf) == rc
        assert buf.getvalue() == (GOLDEN / f"{stem}.{ext}").read_text(), (stem, ext)


def test_degenerate_couple_has_p_as_a_plane():
    rep = parse_rep_file((GOLDEN / "degenerate_couple.rep").read_text())
    rep = reduce_rep(rep, 31)
    pair = split_rank2_fiber(rep, ProjPoint(rep.q, (0, 0, 1), "x"))
    assert pair.degenerate and pair.root is not None
    assert [not any(form[:3]) for form in plane_forms(pair)].count(True) == 1
    _verify(pair, rep)


@pytest.mark.parametrize("field", [0, 7, 13], ids=lambda q: f"GF({q})" if q else "QQ")
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_polar_matrix_matches_term_by_term_read(field, data):
    # the ten Gram forms taken at the integer vector n = den p read c den S
    # G S, S = diag(1, 1, 1, den), c the rep's common denominator and G the
    # Gram matrix at p: divided back and doubled, exactly the polar matrix
    # that F's terms read at p one at a time, independently of M; over Q at
    # points with denominators, on dense reps
    if field == 0:
        rep = dense_rep(data.draw(st.integers(0, 2**16)), 5)
        coord = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    else:
        rep = data.draw(random_reps(field))
        coord = st.integers(0, field - 1)
    coords = data.draw(st.tuples(coord, coord, coord).filter(any))
    point = ProjPoint(field, coords, "x")
    n, den = point.ints()
    gram = dict(zip(UPPER, form_values(rep.gram_forms, n, field)))
    c, s = rep.den * den, (1, 1, 1, den)
    read = [[2 * elt(field, gram[min(k, l), max(k, l)]) / (c * s[k] * s[l]) for l in range(4)] for k in range(4)]
    assert read == term_polar_matrix(rep_fourfold(rep), point)


@st.composite
def reps_with_a_rank2_fiber(draw, field, second=False):
    """Random reps whose fiber over (0:0:1) has rank 2: the x3-power
    coefficients of the entries, which are the matrix at (0:0:1), are
    replaced by a v v^T + b w w^T.  With `second` the fiber over (0:1:0),
    through the x2-power coefficients, has rank 2 as well; about half of
    those draws keep the u-parts of v and w and the scalars a, b there, so
    that the two couples share their lines in P."""
    rep = draw(random_reps(field))
    q = field
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
    entries = [[rep_entry(rep, i, j) for j in range(4)] for i in range(4)]
    for k, v, w, a, b in fibers:
        for i in range(4):
            for j in range(4):
                top = [0, 0, 0]
                top[k] = 3 if i == j == 3 else 2 if 3 in (i, j) else 1
                terms = dict(entries[i][j].terms)
                terms[tuple(top)] = coerce(field, a * v[i] * v[j] + b * w[i] * w[j])
                entries[i][j] = Poly(field, VARS_X, terms)
    try:
        return validate_rep(entries, field)
    except Rejection:
        assume(False)


@pytest.mark.parametrize("q", [5, 7])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_couple_planes_lie_on_the_fourfold(q, data):
    # F(t p, u) = lambda t ((alpha . v)^2 - disc (beta . v)^2) for one
    # lambda != 0 at every v = (u, t) in F_q^4.  Both sides have degree <= 3
    # < q in each variable, so they agree as polynomials, and both planes
    # (alpha +- sqrt(disc) beta) . v = 0 lie on the fourfold, whether they
    # split over F_q or over F_q^2
    rep = data.draw(reps_with_a_rank2_fiber(q))
    try:
        pairs = couples_and_intersections(rep).pairs
    except Rejection:
        assume(False)
    terms = list(rep_fourfold(rep).terms.items())
    for pair in pairs:
        p, alpha, beta = pair.point.coords, pair.alpha, pair.beta
        values = []
        for v in product(range(q), repeat=4):
            *u, t = v
            coords = [t * c for c in p] + u
            lhs = 0
            for e, c in terms:
                for x, k in zip(coords, e):
                    c *= x**k
                lhs += c
            a, b = (sum(x * y for x, y in zip(vec, v)) for vec in (alpha, beta))
            values.append((lhs % q, t * (a * a - pair.disc * b * b) % q))
        lead, pivot = next((lhs, rhs) for lhs, rhs in values if rhs)
        assert lead, pair.point
        assert all(lhs * pivot % q == rhs * lead % q for lhs, rhs in values), pair.point


@pytest.mark.parametrize("q", [5, 7])
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_cross_verdict_matches_reference_on_random_reps(q, data):
    rep = data.draw(reps_with_a_rank2_fiber(q, second=True))
    try:
        rpt = couples_and_intersections(rep)
    except Rejection:
        assume(False)
    live = [pr for pr in rpt.pairs if not pr.degenerate]
    ok = all(reference_cross_check(rep, pa, pb, q) for pa, pb in combinations(live, 2))
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
    rep = data.draw(random_reps(q))
    if data.draw(st.booleans()):
        l = [coerce(q, c) for c in data.draw(st.lists(st.integers(0, q - 1), min_size=3, max_size=3))]
        s = data.draw(st.lists(st.integers(0, q - 1), min_size=6, max_size=6))
        sym = [[s[0], s[1], s[2]], [s[1], s[3], s[4]], [s[2], s[4], s[5]]]
        entries = [[rep_entry(rep, i, j) for j in range(4)] for i in range(4)]
        for i in range(3):
            for j in range(3):
                entries[i][j] = Poly(
                    q, VARS_X, {tuple(int(t == k) for t in range(3)): l[k] * sym[i][j] for k in range(3)}
                )
        try:
            rep = validate_rep(entries, q)
        except Rejection:
            assume(False)
    conics = [Poly(q, VARS_X, c) for c in net_conics(rep) if c]
    assume(not rep_d_cubic(rep).is_zero and len(conics) >= 2)
    g = conics[0]
    for c in conics[1:]:
        g = _conic_common_factor(g, c, q)
    try:
        base_locus(rep)
        shares = False
    except Rejection as e:
        shares = "shares a component" in str(e)
    assert shares == (g.degree() > 0)


# ---------------------------------------------------------------------------
# The per-point path against the field-object reference
# ---------------------------------------------------------------------------


def _outcome(f):
    """f()'s result, or the kind and message of the Rejection or
    ConsistencyError it raises."""
    try:
        return f()
    except (Rejection, ConsistencyError) as e:
        return type(e).__name__, str(e)


@st.composite
def scaled_ex42ii_reps(draw):
    """ex42ii with three random lines, so that its nodes have denominators;
    moved to P^T M P for P = [[I, w], [0, 1]], w three random linear forms,
    which keeps the sextic and D but gives each cone vertex (-t w(p), t) a
    nonzero u-part; and scaled to D M D for a diagonal D of fractions with
    denominators up to 10^6, so that the entries have denominators too."""
    coeff = st.integers(-9, 9)
    lines = {key: "{}*x1 + {}*x2 + {}*x3".format(*(draw(coeff) for _ in range(3))) for key in ("l4", "l5", "l6")}
    try:
        rep = build_example("ex42ii", lines).rep
    except Rejection:
        assume(False)
    xs = [Poly.variable(0, VARS_X, v) for v in VARS_X]
    w = [sum((x.scale(draw(coeff)) for x in xs), Poly.zero(0, VARS_X)) for _ in range(3)]
    m = [[rep_entry(rep, i, j) for j in range(4)] for i in range(4)]
    lw = [sum((m[i][k] * w[k] for k in range(3)), m[i][3]) for i in range(3)]  # L w + q
    corner = sum((w[i] * (lw[i] + m[i][3]) for i in range(3)), m[3][3])  # w^T L w + 2 q . w + f
    for i in range(3):
        m[i][3] = m[3][i] = lw[i]
    m[3][3] = corner
    scale = st.builds(Fraction, st.integers(1, 10**6).map(lambda n: n * draw(st.sampled_from([1, -1]))), st.integers(1, 10**6))
    d = [draw(scale) for _ in range(4)]
    entries = [[m[i][j].scale(d[i] * d[j]) for j in range(4)] for i in range(4)]
    try:
        return validate_rep(entries, 0, [Poly(0, VARS_X, c) for c in rep.components])
    except Rejection:  # a quadric or the corner cancelled to a lower degree
        assume(False)


def _compare_per_point(rep):
    """Node verdicts, fiber ranks, on_d, cone vertices, couples (how many,
    root is None, degenerate) and the cross verdict of the integer path equal
    those of the field-object reference, or both raise the same message."""
    field, sextic = rep.q, rep_sextic(rep)
    scan = _outcome(lambda: singular_points(rep.sextic_terms, field, rep.components))
    classification = _outcome(lambda: rep.classification)
    if isinstance(scan, tuple):  # a sextic that is not reduced, refused by both paths
        assert classification == scan and not ref.reference_is_reduced(sextic)
        return
    points = scan.points
    new_pairs, ref_pairs, ref_vertices = [], [], []
    for p in points:
        assert _outcome(lambda: is_node(rep.sextic_terms, p)) == _outcome(lambda: ref.field_is_node(sextic, p))
        new = _outcome(lambda: gram_rank_kernel(rep, p))
        old = _outcome(lambda: ref.field_gram_rank_kernel(rep, p))
        if isinstance(old[0], str):
            assert new == old
            continue
        (_, rank, kernel), (_, ref_rank, _, basis) = new, old
        assert rank == ref_rank
        vertex = ProjPoint(field, embed_fiber_vector(p, kernel), "p5") if rank == 3 else None
        ref_vertex = ref.field_embed_fiber_vector(p, basis[0], field) if rank == 3 else None
        assert vertex == ref_vertex
        on_d = not evaluate(rep_d_cubic(rep), p.coords)
        if isinstance(classification, SingClassification):
            assert {r.point: r.on_d for r in classification.records}[p] == on_d
        if rank == 3 and not on_d:
            ref_vertices.append(ref_vertex)
        if rank == 2:
            pair = _outcome(lambda: split_rank2_fiber(rep, p))
            ref_pair = _outcome(lambda: ref.field_split_rank2_fiber(rep, p))
            if isinstance(ref_pair, tuple):
                assert pair == ref_pair
                continue
            assert ((pair.root is None), pair.degenerate) == ((ref_pair.root is None), ref_pair.degenerate)
            new_pairs.append(pair)
            ref_pairs.append(ref_pair)
    assert _cross_ok([pr for pr in new_pairs if not pr.degenerate]) == ref.field_cross_ok(
        [pr for pr in ref_pairs if not pr.degenerate]
    )
    if isinstance(classification, SingClassification):
        couples = _outcome(lambda: couples_and_intersections(rep))
        if isinstance(couples, tuple):  # a rank-2 fiber refused: the reference refused it too
            assert len(ref_pairs) < sum(r.rank == 2 for r in classification.records)
        else:
            assert len(couples.pairs) == len(ref_pairs)
            assert couples.cross_ok == ref.field_cross_ok([pr for pr in ref_pairs if not pr.degenerate])
        locus = _outcome(lambda: singular_locus_X(rep))
        if not isinstance(locus, tuple):
            assert locus.cone_vertices == sorted_points(ref_vertices)


@pytest.mark.parametrize("q", [5, 7, 11, 13])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_integer_path_equals_field_reference_over_fq(q, data):
    rep = data.draw(reps_with_a_rank2_fiber(q, second=True) if data.draw(st.booleans()) else random_reps(q))
    _compare_per_point(rep)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(rep=scaled_ex42ii_reps())
def test_integer_path_equals_field_reference_over_q(rep):
    _compare_per_point(rep)
