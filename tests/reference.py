"""Polynomial-ring references for checks that detfold makes by values at
points or by integer resultants.

`reference_is_reduced` is the former squarefree test of a plane curve: the
gcd of the chart x3 = 1 with its two partials, by a bivariate primitive PRS
(`bivar_gcd`), plus a check that x3^2 does not divide the form.  Over a
perfect field it is exact in every characteristic: an irreducible factor of a
squarefree affine curve dividing both partials would have both partials
zero, hence be a p-th power.  `nullspace` and `coeffs_in` are the kernel
basis and the coefficient view the former plane and resultant checks used.
`plane_forms` gives the two fiber forms alpha +- root beta of a couple split
over the base field, and `plane_span` turns a fiber form back into three
vectors of P^5 for checks by values of F.  `dense_rep` draws a seeded
(1,1,1;2;3) representation over Q with every coefficient nonzero in
general, the input on which rational elimination is hardest.  `p2_reps`
walks P^2(F_q) point by point for the exhaustive references.

`euclid_gcd`, `term_evaluate` and `bareiss_resultant` are the former field
arithmetic kernels that the integer ones replaced: Euclid on field elements,
the value at a point summed term by term, and the Sylvester determinant by
fraction-free elimination over the polynomial ring.  `divmod_poly` and
`squarefree_part` are the long division and squarefree part on field
elements, and `fraction_plane_solutions_qq` is the former rational plane
solver, which took its eliminants, fibres and gcds as lists of fractions.  `sylvester_det` is the
same determinant for univariate integer lists, by Gauss-Jordan over Q.
`term_polar_matrix` is the former read of a fiber's polar matrix, term by
term off F, which the cached forms of `SymDetRep.fiber_forms` replaced.
"""

import random
from itertools import combinations

from detfold.algebra import QQ, VARS_X, MultiPoly, resultant, unipoly
from detfold.algebra.linalg import _echelon, _kernel_basis
from detfold.curves import PlaneSolutions, _to_unicoeffs
from detfold.detrep import _expected_degree, validate_rep
from detfold.errors import InputError, Rejection
from detfold.points import ProjPoint, p2_lines, sorted_points


def dense_rep(seed, height):
    """A symmetric (1,1,1;2;3) rep over Q whose upper-triangle entries carry
    every monomial of their degree, each coefficient drawn uniformly from
    [-height, height] by random.Random(seed), entry by entry in row order."""
    rng = random.Random(seed)
    rows = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            d = _expected_degree(i, j)
            terms = {(a, b, d - a - b): QQ.from_int(rng.randint(-height, height))
                     for a in range(d, -1, -1) for b in range(d - a, -1, -1)}
            rows[i][j] = rows[j][i] = MultiPoly(QQ, VARS_X, terms)
    return validate_rep(rows, QQ)


def p2_reps(q):
    """The q^2+q+1 canonical representatives of P^2(F_q), as residue triples,
    generated one at a time."""
    for (a, b), ts in p2_lines(q):
        for t in ts:
            yield (a, b, t)


def euclid_gcd(p, q, field):
    """Monic gcd of two univariates by Euclid on field elements."""
    a, b = unipoly.trim(list(p)), unipoly.trim(list(q))
    while b:
        _, r = divmod_poly(a, b, field)
        a, b = b, r
    return unipoly.monic(a)


def divmod_poly(p, d, field):
    """Quotient and remainder of univariates by long division over field."""
    d = unipoly.trim(list(d))
    if not d:
        raise ZeroDivisionError("univariate division by zero")
    r = unipoly.trim(list(p))
    if len(r) < len(d):
        return [], r
    q = [field.zero()] * (len(r) - len(d) + 1)
    dl = d[-1]
    while r and len(r) >= len(d):
        if not r[-1]:
            r.pop()
            continue
        k = len(r) - len(d)
        c = r[-1] / dl
        q[k] = c
        for i in range(len(d)):
            r[k + i] = r[k + i] - c * d[i]
        r.pop()
    return unipoly.trim(q), unipoly.trim(r)


def squarefree_part(p, field):
    """p divided by gcd(p, p'); same roots, all simple (char 0 or char > deg)."""
    if not p:
        return p
    g = unipoly.gcd_poly(p, unipoly.derivative(p, field), field)
    if unipoly.deg(g) <= 0:
        return unipoly.monic(list(p))
    q, r = divmod_poly(p, g, field)
    if r:
        raise InputError("squarefree division not exact")
    return unipoly.monic(q)


def _fraction_common_roots(unis: list) -> tuple[dict, int]:
    """Rational roots, with multiplicities, of the gcd of nonzero univariates
    over Q, and the degree of the gcd's part without rational roots."""
    g = unis[0]
    for u in unis[1:]:
        g = unipoly.gcd_poly(g, u, QQ)
    if unipoly.deg(g) == 0:
        return {}, 0
    return unipoly.rational_roots(g)


def fraction_plane_solutions_qq(polys, field) -> PlaneSolutions:
    """Rational solutions: in the chart x3 = 1 the roots of the eliminants in
    x1, then over each root the roots in x2 of the fibre; on the line x3 = 0
    the point (1:0:0) and the roots in x1 in the chart x2 = 1.  Each candidate
    is tested against every polynomial."""
    pts: set = set()
    unresolved = 0
    one, zero = field.one(), field.zero()

    def keep(cand):
        if all(not p.evaluate(cand) for p in polys):
            pts.add(ProjPoint(field, cand, "x"))

    # chart x3 = 1
    aff = [p.substitute({"x3": 1}) for p in polys]
    aff = [p for p in aff if not p.is_zero]
    if not any(p.degree() == 0 for p in aff):
        with_x2 = [p for p in aff if p.involves("x2")]
        elim = [_to_unicoeffs(p, "x1") for p in aff if not p.involves("x2")]
        for f, g in combinations(with_x2, 2):
            if len(elim) >= 3:
                break
            r = resultant(f, g, "x2")
            if not r.is_zero:
                elim.append(_to_unicoeffs(r, "x1"))
        if not elim:
            raise Rejection(
                "elimination degenerated: every eliminant vanished "
                "(curve not reduced or solution set positive-dimensional)"
            )
        roots, cof = _fraction_common_roots(elim)
        unresolved += cof
        for a in roots:
            # the polynomials free of x2 are eliminants and vanish at a
            fibre = [_to_unicoeffs(p.substitute({"x1": a}), "x2") for p in aff]
            fibre = [u for u in fibre if u]
            if not fibre:
                raise Rejection("solution set contains a vertical line (positive-dimensional)")
            broots, cof = _fraction_common_roots(fibre)
            unresolved += cof
            for b in broots:
                keep((a, b, one))

    # line x3 = 0
    line = [p.substitute({"x3": 0}) for p in polys]
    line = [p for p in line if not p.is_zero]
    if not line:
        raise Rejection("system vanishes identically on the line x3=0 (positive-dimensional)")
    if not any(p.degree() == 0 for p in line):
        keep((one, zero, zero))
        roots, cof = _fraction_common_roots([_to_unicoeffs(p.substitute({"x2": 1}), "x1") for p in line])
        unresolved += cof
        for r in roots:
            keep((r, one, zero))
    return PlaneSolutions(sorted_points(pts), unresolved)


def term_evaluate(f, values):
    """Value of f at a point, one field product at a time."""
    vals = [f.field.coerce(v) for v in values]
    total = f.field.zero()
    for e, c in f.terms.items():
        t = c
        for v, k in zip(vals, e):
            for _ in range(k):
                t = t * v
        total = total + t
    return total


def term_polar_matrix(F, p):
    """The 4x4 symmetric matrix of 2 B, B the polar form of Q with
    F(t p, u) = t Q(u, t), in the coordinates (u1, u2, u3, t); read off F at
    p in the base field."""
    zero = p.field.zero()
    polar = [[zero] * 4 for _ in range(4)]
    for e, c in F.terms.items():
        for x, k in zip(p.coords, e[:3]):
            if k:
                c = c * x**k
        # the u-t monomial of this term is z_i z_j; a square gets c twice
        i, j = (n for n, k in enumerate(e[3:] + (2 - sum(e[3:]),)) for _ in range(k))
        polar[i][j] = polar[i][j] + c
        polar[j][i] = polar[j][i] + c
    return polar


def bareiss_resultant(f, g, var):
    """Sylvester determinant of f and g in var over the polynomial ring,
    fraction-free (Bareiss)."""
    m, n = f.degree_in(var), g.degree_in(var)
    zero = MultiPoly.zero(f.field, f.vars)
    rows = []
    for p, copies in ((f, n), (g, m)):
        lead_first = list(reversed(coeffs_in(p, var)))
        for i in range(copies):
            rows.append([zero] * i + lead_first + [zero] * (copies - 1 - i))
    size = m + n
    sign, prev = 1, MultiPoly.constant(f.field, f.vars, 1)
    for k in range(size - 1):
        if rows[k][k].is_zero:
            sel = next((i for i in range(k + 1, size) if not rows[i][k].is_zero), None)
            if sel is None:
                return zero
            rows[k], rows[sel] = rows[sel], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                q = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]).try_divide(prev)
                assert q is not None, "non-exact Bareiss division"
                rows[i][j] = q
            rows[i][k] = zero
        prev = rows[k][k]
    return -rows[-1][-1] if sign < 0 else rows[-1][-1]


def sylvester_det(a, b):
    """Sylvester determinant of ascending integer lists a and b at the
    formal degrees len(a) - 1 and len(b) - 1."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    _, pivots, det = _echelon(rows, m + n, QQ)
    return det if len(pivots) == m + n else 0


def nullspace(rows, ncols, field):
    """Deterministic basis of the right kernel of a rectangular matrix."""
    m, pivots, _det = _echelon(rows, ncols, field)
    return _kernel_basis(m, pivots, ncols, field)


def plane_forms(pair):
    """The fiber forms (a1, a2, a3, b) of the two planes of a couple split
    over the base field."""
    return [[a + s * b for a, b in zip(pair.alpha, pair.beta)] for s in (pair.root, -pair.root)]


def plane_span(point, form, field):
    """Three vectors spanning the plane of fiber form (a1, a2, a3, b) over
    the point p: the kernel of a . u + b t on (u1, u2, u3, t), embedded in
    P^5 by (u, t) -> (t p, u)."""
    p = [field.coerce(c) for c in point.coords]
    return [[t * c for c in p] + u for *u, t in nullspace([list(form)], 4, field)]


def coeffs_in(p, var):
    """Coefficients (as MultiPoly in the same ring) of powers of var, ascending."""
    i = p.vars.index(var)
    buckets = [dict() for _ in range(max(p.degree_in(var), 0) + 1)]
    for e, c in p.terms.items():
        buckets[e[i]][e[:i] + (0,) + e[i + 1 :]] = c
    return [MultiPoly(p.field, p.vars, b) for b in buckets]


def _bivar_content_pp(p, main, aux):
    """Content (univariate in aux) of p seen as a polynomial in main."""
    cont = []
    for c in coeffs_in(p, main):
        u = _to_unicoeffs(c, aux)
        if u:
            cont = unipoly.gcd_poly(cont, u, p.field) if cont else unipoly.monic(list(u))
    return cont


def _uni_to_poly(u, var, field):
    idx = VARS_X.index(var)
    terms = {}
    for k, c in enumerate(u):
        if c:
            e = [0, 0, 0]
            e[idx] = k
            terms[tuple(e)] = c
    return MultiPoly(field, VARS_X, terms)


def _primitive_in(p, main, aux):
    cont = _bivar_content_pp(p, main, aux)
    if unipoly.deg(cont) <= 0:
        return p
    q = p.try_divide(_uni_to_poly(cont, aux, p.field))
    assert q is not None, "content division failed"
    return q


def _pseudo_rem(f, g, main):
    dg = g.degree_in(main)
    lead_g = coeffs_in(g, main)[dg]
    r = f
    while not r.is_zero and r.degree_in(main) >= dg:
        dr = r.degree_in(main)
        lead_r = coeffs_in(r, main)[dr]
        shift = MultiPoly.variable(r.field, r.vars, main) ** (dr - dg)
        r = r * lead_g - g * shift * lead_r
    return r


def bivar_gcd(f, g, main="x1", aux="x2"):
    """GCD of two bivariate polynomials (x3-free) via a primitive PRS."""
    field = f.field
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    if not f.involves(main) and not g.involves(main):
        a = unipoly.gcd_poly(_to_unicoeffs(f, aux), _to_unicoeffs(g, aux), field)
        return _uni_to_poly(a, aux, field)
    if not f.involves(main) or not g.involves(main):
        free, other = (f, g) if not f.involves(main) else (g, f)
        a = unipoly.gcd_poly(_to_unicoeffs(free, aux), _bivar_content_pp(other, main, aux), field)
        return _uni_to_poly(a, aux, field)

    ccont = unipoly.gcd_poly(_bivar_content_pp(f, main, aux), _bivar_content_pp(g, main, aux), field)
    a, b = f, g
    if a.degree_in(main) < b.degree_in(main):
        a, b = b, a
    a = _primitive_in(a, main, aux)
    b = _primitive_in(b, main, aux)
    while not b.is_zero and b.involves(main):
        r = _pseudo_rem(a, b, main)
        a, b = b, _primitive_in(r, main, aux) if not r.is_zero else r
    if b.is_zero:
        gc = a
    elif not b.involves(main):
        # a nonzero remainder free of main kills any main-dependent common part
        gc = MultiPoly.constant(field, f.vars, 1)
    else:
        gc = b
    return gc * _uni_to_poly(ccont if ccont else [field.one()], aux, field)


def reference_is_reduced(h):
    """Squarefree test of a plane curve form by the PRS gcd with its partials."""
    if h.is_zero:
        return False
    if min(e[2] for e in h.terms) >= 2:
        return False
    chart = h.substitute({"x3": 1})
    if chart.degree() == 0:
        return True  # h = c * x3^(0 or 1)
    g1 = bivar_gcd(chart, chart.diff("x1"))
    g2 = bivar_gcd(g1, chart.diff("x2"))
    return g2.degree() == 0
