"""Singularity analysis of plane curves: locating singular points over the
rationals (resultant elimination) or a prime field (exhaustive scan),
certifying nodes, and classifying the singular points of a discriminant
sextic by fiber rank and membership in the auxiliary cubic D.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .algebra import field_name, int_rank_det, residue, resultant, resultant_vanishes, unipoly
from .algebra.multipoly import clear_denominators, degree, dense, diff_terms, form_values, monomials, mul_terms
from .detrep import SymDetRep, gram_rank_kernel
from .errors import ConsistencyError, InputError, Rejection
from .points import P2_SCAN_BUDGET, ProjPoint, p2_lines, sorted_points

# ---------------------------------------------------------------------------
# Solving small homogeneous systems on the projective plane
# ---------------------------------------------------------------------------


@dataclass
class PlaneSolutions:
    points: list
    unresolved: int = 0  # total degree of eliminant factors without rational roots
    # component indices of each factored system that left solutions unresolved
    unresolved_in: list = dc_field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.unresolved


def plane_solutions(polys: list[dict], q: int) -> PlaneSolutions:
    """Common zeros in P^2 over the field of characteristic q of forms given
    by integer terms (residues over F_q).

    Over a prime field the scan is exhaustive and always complete.  Over the
    rationals, resultant elimination finds every rational solution; genuinely
    irrational solutions are tallied in `unresolved`, which flips `complete`.
    A positive-dimensional solution set raises Rejection.
    """
    polys = [p for p in polys if p]
    if not polys:
        raise Rejection("empty system: solution set is the whole plane")
    if not all(map(degree, polys)):  # a nonzero constant has no zeros
        return PlaneSolutions([])
    return _plane_solutions_fq(polys, q) if q else _plane_solutions_qq(polys)


def _plane_solutions_fq(polys, q: int) -> PlaneSolutions:
    """Exhaustive scan of P^2(F_q) in plain integers, one line at a time: a
    polynomial's values on a line are one integer combination of its packed
    forms (`unipoly.pack_lines`, `unipoly.common_zeros`)."""
    if q * q + q + 1 > P2_SCAN_BUDGET:
        raise InputError(f"scan budget exceeded: P^2(F_{q}) has {q * q + q + 1} points > {P2_SCAN_BUDGET}")
    w = unipoly.lane_width(q, max(map(degree, polys)))
    systems = [unipoly.pack_lines(p, q, w) for p in polys]
    pts = [ProjPoint(q, rep, "x") for rep in unipoly.common_zeros(systems, p2_lines(q), q, w)]
    return PlaneSolutions(sorted_points(pts))


def curve_terms(polys: list) -> list[dict]:
    """The integer terms of a builder's polynomials over Q at one common
    denominator, for checks that read them up to a scalar: their zero sets,
    and the determinant of a block of them."""
    return clear_denominators(polys)[0]


def _rekeyed(terms: dict, k: int) -> dict:
    """The terms with x_k set to 1: each exponent's k-th entry made 0, the
    coefficients of equal exponents summed, which a form never has."""
    out: dict = {}
    for e, c in terms.items():
        e = e[:k] + (0,) + e[k + 1 :]
        out[e] = out[e] + c if e in out else c
    return out


def _in_x(terms: dict, v: int, n: int = 1, d: int = 1) -> list[int]:
    """The integer list in x_v, v = 0 or 1, of d^D p at x_w = n/d, w = 1 - v,
    D = deg_{x_w} p, for the integer terms of p, the exponent of x3 ignored:
    each c x_v^j x_w^i contributes c n^i d^(D-i) to x_v^j."""
    w = 1 - v
    top = max(e[w] for e in terms)
    out = [0] * (max(e[v] for e in terms) + 1)
    for e, c in terms.items():
        out[e[v]] += c * n ** e[w] * d ** (top - e[w])
    return unipoly.trim(out)


def _common_roots(unis: list) -> tuple[dict, int]:
    """Rational roots, with multiplicities, of the gcd of nonzero integer
    lists, and the degree of the gcd's part without rational roots."""
    g = unipoly.gcd_int(*unis)
    if len(g) == 1:
        return {}, 0
    return unipoly.rational_roots(g)


def _plane_solutions_qq(polys) -> PlaneSolutions:
    """Rational solutions, on the polynomials' integer terms.  In the chart
    x3 = 1 (`_rekeyed`) the eliminants in x1 are the integer lists of the
    polynomials free of x2 and of resultants in x2 (`resultant`, until
    there are three eliminants); over each root n/d of their gcd the points
    are the roots in x2 of the gcd of the nonzero fibres d^D p(n/d, x2, 1),
    D = deg_x1 p.  On the line x3 = 0 they are the
    roots in x1 of the gcd of the polynomials at x2 = 1, and (1:0:0) when
    each polynomial's value there, the sum of its terms in x1 alone, is 0.
    Every point but (1:0:0) is a root of every nonzero fibre or line
    polynomial, and a zero one vanishes there, so it is a common zero by
    construction and is not tested again."""
    pts = []
    unresolved = 0

    # chart x3 = 1
    aff = [_rekeyed(t, 2) for t in polys]
    if not any(set(t) == {(0, 0, 0)} for t in aff):
        with_x2 = [t for t in aff if any(e[1] for e in t)]
        elim = [_in_x(t, 0) for t in aff if not any(e[1] for e in t)]
        for f, g in combinations(with_x2, 2):
            if len(elim) >= 3:
                break
            r = resultant(f, g, 1)
            if r:
                elim.append(_in_x(r, 0))
        if not elim:
            raise Rejection(
                "elimination degenerated: every eliminant vanished "
                "(curve not reduced or solution set positive-dimensional)"
            )
        roots, cof = _common_roots(elim)
        unresolved += cof
        for a in roots:
            # the polynomials free of x2 are eliminants and vanish at a
            fibre = [u for u in (_in_x(t, 1, a.numerator, a.denominator) for t in aff) if u]
            if not fibre:
                raise Rejection("solution set contains a vertical line (positive-dimensional)")
            broots, cof = _common_roots(fibre)
            unresolved += cof
            pts += [ProjPoint(0, (a, b, 1), "x") for b in broots]

    # line x3 = 0
    line = [t for t in ({e: c for e, c in t.items() if not e[2]} for t in polys) if t]
    if not line:
        raise Rejection("system vanishes identically on the line x3=0 (positive-dimensional)")
    if not any(set(t) == {(0, 0, 0)} for t in line):
        if not any(sum(c for e, c in t.items() if not e[1]) for t in line):
            pts.append(ProjPoint(0, (1, 0, 0), "x"))
        roots, cof = _common_roots([_in_x(t, 0) for t in line])
        unresolved += cof
        pts += [ProjPoint(0, (r, 1, 0), "x") for r in roots]
    return PlaneSolutions(sorted_points(pts), unresolved)


# ---------------------------------------------------------------------------
# Reducedness (squarefree) testing
# ---------------------------------------------------------------------------


def is_reduced_curve(h: dict, q: int) -> bool:
    """Squarefree test for a plane curve form h over Q or F_q, given by
    integer terms (residues over F_q), deg h < 3 q over F_q.

    A square factor g^2 of h is found by the variables g involves.  When g is
    free of x_k, g^2 divides the content of h as a polynomial in x_k, taken
    as a univariate gcd in x_i with x_j = 1, (i, j) = (k+1, k+2) cyclically;
    the cyclic choice keeps every coordinate square in one of the three
    contents.  When g involves all three variables, for every k it is a
    factor of h and h_k involving x_k, so the resultant in x_k vanishes in a
    chart x_w = 1, w != k.  For squarefree h, the k-th resultant vanishes
    only through an irreducible factor with zero k-th partial, of degree at
    least char in x_k.  By Euler's relation no factor involving x_a and x_b
    has both partials zero, so all three resultants vanish only when
    deg h >= 3 char.  Below that bound, which every sextic over Q or F_q with
    q odd meets, the test is exact; at or above it InputError is raised.
    The contents are gcds of the integer terms (`gcd_int` over Q, `gcd_mod`
    over F_q), and the resultants are tested on them too; a content c is
    squarefree when gcd(c, c') is 1.
    """
    if not h:
        return False
    if q and degree(h) >= 3 * q:
        raise InputError(f"squarefree test needs degree < 3 * {q}, got {degree(h)}")
    gcd = (lambda a, b: unipoly.gcd_mod(a, b, q)) if q else unipoly.gcd_int
    for k in range(3):
        i = (k + 1) % 3
        coeffs: dict = {}
        for e, c in h.items():
            coeffs.setdefault(e[k], {})[e[i]] = c
        content: list = []
        for row in coeffs.values():
            content = gcd(content, [row.get(a, 0) for a in range(max(row) + 1)])
        if len(gcd(content, [a * c for a, c in enumerate(content)][1:])) > 1:
            return False
    for k in range(3):
        chart = _rekeyed(h, (k + 1) % 3)
        dk = diff_terms(chart, k, q)
        if not dk:
            if not any(e[k] for e in chart):
                return True  # h is free of x_k
            continue  # h_k = 0: h itself is the shared factor
        if not any(e[k] for e in dk) or not resultant_vanishes(chart, dk, k, q):
            return True
    return False


# ---------------------------------------------------------------------------
# Singular points and node certification
# ---------------------------------------------------------------------------


def singular_points(h: dict, q: int, components: tuple | None = None) -> PlaneSolutions:
    """Singular points over the field of characteristic q of a reduced plane
    curve h given by integer terms (residues over F_q); given a factorization
    of h by the integer terms of its components, validated by the caller,
    one system of components at a time."""
    if not is_reduced_curve(h, q):
        raise Rejection("curve is not reduced (square factor detected)")
    if components is not None:
        return _singular_points_factored(components, q)
    sol = plane_solutions([h] + [diff_terms(h, i, q) for i in range(3)], q)
    form = [dense(h, degree(h))]
    for p in sol.points:
        if form_values(form, p.ints()[0], q)[0]:
            raise ConsistencyError(f"claimed singular point {p} is not on the curve")
    return sol


def _singular_points_factored(comps, q: int) -> PlaneSolutions:
    """The meets of each pair of components, given by integer terms, and the
    singular points of each component; `unresolved_in` records which of
    these systems left solutions unresolved, by their component indices."""
    pts: set = set()
    unresolved = 0
    unresolved_in = []
    for i, ci in enumerate(comps):
        systems = [((i, j), [ci, comps[j]]) for j in range(i + 1, len(comps))]
        if degree(ci) != 1:  # a line has no singular points of its own
            systems.append(((i,), [ci] + [diff_terms(ci, k, q) for k in range(3)]))
        for idx, system in systems:
            sol = plane_solutions(system, q)
            pts.update(sol.points)
            unresolved += sol.unresolved
            if sol.unresolved:
                unresolved_in.append(idx)
    return PlaneSolutions(sorted_points(pts), unresolved, unresolved_in)


# the Hessian entries h_ij, i <= j, in the order of `node_partials`
HESSIAN = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def node_partials(h: dict) -> list:
    """h, its gradient and its Hessian entries (`HESSIAN`) as `dense` forms
    of h's integer terms, derived once for node tests at many points."""
    d = degree(h)
    grad = [diff_terms(h, i) for i in range(3)]
    hess = [diff_terms(grad[i], j) for i, j in HESSIAN]
    return [dense(h, d)] + [dense(g, d - 1) for g in grad] + [dense(t, d - 2) for t in hess]


def is_node(h: dict, p: ProjPoint, partials=None) -> bool:
    """True iff the curve of integer terms h has an ordinary double point
    (node) at p.

    In the chart where p's leading coordinate x_k is 1, the quadratic part of
    h at p is half the Hessian block on the two other coordinates i, j, so p
    is a node exactly when h_ij^2 - h_ii h_jj != 0 there (char != 2).  The
    forms are taken at the integer vector n = den p (`ProjPoint.ints`), where
    one of degree e takes den^e times its value at p, so each test is
    unchanged.  `partials` is `node_partials(h)` when the caller tests many
    points.
    """
    q = p.q
    n = p.ints()[0]
    value, *grad_hess = form_values(partials or node_partials(h), n, q)
    if value or any(grad_hess[:3]):
        raise Rejection(f"point {p} is not a singular point of the curve")
    hess = dict(zip(HESSIAN, grad_hess[3:]))
    k = next(i for i, c in enumerate(n) if c)
    i, j = (m for m in range(3) if m != k)
    return bool(residue(hess[i, j] ** 2 - hess[i, i] * hess[j, j], q))


# ---------------------------------------------------------------------------
# Classification of discriminant-sextic singularities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingRecord:
    point: ProjPoint
    rank: int
    on_d: bool
    gram: tuple  # integer Gram matrix of the fiber quadric over point (gram_rank_kernel)
    kernel: tuple | None  # a kernel vector of a rank-3 fiber at point, else None


@dataclass
class SingClassification:
    records: list
    complete: bool
    unresolved: int
    s_c_certified: bool  # S_C determination is exact even if points are missing
    notes: list = dc_field(default_factory=list)

    @property
    def sing_c(self):
        return [r.point for r in self.records]

    @property
    def s_theta(self):
        return [r.point for r in self.records if r.rank == 2]

    @property
    def s_theta_tilde(self):
        return [r.point for r in self.records if r.on_d]

    @property
    def s_c(self):
        return [r.point for r in self.records if not r.on_d]


def classify_singularities(rep: SymDetRep) -> SingClassification:
    """Locate Sing(C), certify nodality, and split into the rank/D strata,
    over the rep's field and with the factorization it carries, if any."""
    q = rep.q
    sextic = rep.sextic_terms
    scan = singular_points(sextic, q, rep.components)

    records = []
    partials = node_partials(sextic)
    d_form = [dense(rep.d_terms, 3)]
    for p in scan.points:
        if not is_node(sextic, p, partials):
            raise Rejection(f"singular point {p} is not a node; the sextic is not nodal")
        gram, rank, kernel = gram_rank_kernel(rep, p)
        if rank == 4:
            raise ConsistencyError(f"full-rank fiber at claimed singular point {p}")
        on_d = not form_values(d_form, p.ints()[0], q)[0]
        if rank == 2 and not on_d:
            raise ConsistencyError(
                f"rank-2 fiber at {p} must lie on the cubic D (minors all vanish)"
            )
        records.append(SingRecord(point=p, rank=rank, on_d=on_d,
                                  gram=tuple(map(tuple, gram)), kernel=kernel))

    s_c_certified = scan.complete
    notes = []
    if not scan.complete and rep.components is not None:
        s_c_certified = _certify_s_c(scan.unresolved_in, rep.components, rep.d_terms)
        if s_c_certified:
            notes.append("unlisted singular points certified to lie on D by divisibility")
    if not scan.complete:
        notes.append(f"singular-point list incomplete over {field_name(q)}: "
                     f"{scan.unresolved} solutions live in extensions")
    return SingClassification(
        records=records,
        complete=scan.complete,
        unresolved=scan.unresolved,
        s_c_certified=s_c_certified,
        notes=notes,
    )


def _certify_s_c(unresolved_in, comps, d_terms) -> bool:
    """True when every potentially-missing singular point provably lies on D.

    Sufficient condition per factored system that left solutions unresolved
    (a pair of components or one component's internal locus, given by its
    component indices): one involved component c divides the cubic D, so its
    whole zero set is on D.  Components and D are given by integer terms over
    Q.  For D != 0, c divides D exactly when D lies in the span of the forms
    c m, m the monomials of degree deg D - deg c: those are independent, so
    D adds no rank to them.
    """
    if not d_terms:
        return True
    d = degree(d_terms)
    divides = []
    for c in comps:
        rows = [mul_terms(c, {m: 1}) for m in monomials(d - degree(c))] + [d_terms]
        divides.append(int_rank_det([dense(t, d)[1] for t in rows])[0] < len(rows))
    return all(any(divides[i] for i in idx) for idx in unresolved_in)
