"""Fiber quadrics of the projection from the plane P, the base locus of the
net of conics, assembly of Sing(X), rank-2 fiber splitting into couples of
planes, and an exhaustive finite-field oracle for independent verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import product

from .algebra import MultiPoly, PrimeField, QuadExt, QuadExtElt, VARS_X, VARS_XU, matrix_rank, nullspace
from .curves import AnalysisContext, SingClassification, analysis_context, bivar_gcd, plane_solutions
from .detrep import (
    SymDetRep,
    derived_equations,
    embed_fiber_vector,
    gram_rank_kernel,
    p3_forms,
    reduce_rep,
    vanishes_on_plane,
)
from .errors import ConsistencyError, InputError, Rejection
from .points import ORACLE_BUDGET, ProjPoint, p2_reps, sorted_points


# ---------------------------------------------------------------------------
# Splitting a rank-2 fiber into its couple of planes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plane:
    """Projective 2-plane in P^5 given by three independent linear forms."""

    forms: tuple  # 3 rows of 6 scalars
    field: object

    def basis(self) -> list:
        return nullspace([list(f) for f in self.forms], 6, self.field)

    @cached_property
    def u_line(self) -> list:
        """The u-part of the third form, scaled to lead with 1: inside P the
        plane is the line u_line . u = 0.  Its entries lie in the base field
        whenever they can (as for a double line split over an extension)."""
        line = self.forms[2][3:]
        lead = next(c for c in line if c)
        line = [c / lead for c in line]
        if isinstance(self.field, QuadExt) and not any(c.b for c in line):
            line = [c.a for c in line]
        return line


@dataclass(frozen=True)
class PlanePair:
    point: ProjPoint
    planes: tuple  # two Plane values over `field`
    field: object  # base field or quadratic extension
    disc: object | None  # adjoined non-square, None for a base-field split
    degenerate: bool = False  # one member is the projection plane P itself


def split_rank2_fiber(ctx: AnalysisContext, p: ProjPoint, gram=None) -> PlanePair:
    """Write the rank-2 fiber quadric over p as a product of two planes.

    Splits over the base field when the reduced binary form's discriminant is
    a square, otherwise over the quadratic extension by that discriminant.
    Both planes are verified to lie on the fourfold by substitution.  `gram`
    is the fiber's Gram matrix when the classification already holds it.
    """
    base = ctx.field
    if gram is None:
        gram, rank, _det, _kern = gram_rank_kernel(ctx.rep, p)
        if rank != 2:
            raise Rejection(f"fiber at {p} has rank {rank}, not 2; no couple of planes there")

    idx = _nonsingular_principal_pair(gram, base)
    i, j = idx
    a2 = [[gram[i][i], gram[i][j]], [gram[j][i], gram[j][j]]]
    det2 = a2[0][0] * a2[1][1] - a2[0][1] * a2[1][0]
    inv = [
        [a2[1][1] / det2, -a2[0][1] / det2],
        [-a2[1][0] / det2, a2[0][0] / det2],
    ]
    # Q(v) = L(v)^T A2^{-1} L(v) with L = rows i,j of the Gram matrix
    li = list(gram[i])
    lj = list(gram[j])
    a = inv[0][0]
    b = inv[0][1]
    c = inv[1][1]
    disc = b * b - a * c
    sq = base.sqrt(disc)
    if sq is not None:
        fld = base
        s = sq
        lift = lambda v: v
    else:
        fld = QuadExt(base, disc)
        s = fld.root()
        lift = fld.coerce
    # factor a z1^2 + 2b z1 z2 + c z2^2 into two linear forms in (z1, z2)
    av, bv, cv = lift(a), lift(b), lift(c)
    if av:
        f1 = ([fld.one(), (bv - s) / av], av)
        f2 = ([fld.one(), (bv + s) / av], fld.one())
    elif cv:
        f1 = ([(bv - s) / cv, fld.one()], cv)
        f2 = ([(bv + s) / cv, fld.one()], fld.one())
    else:
        f1 = ([fld.one(), fld.zero()], bv + bv)
        f2 = ([fld.zero(), fld.one()], fld.one())
    planes = []
    for coeffs, _scale in (f1, f2):
        # linear form on (u1,u2,u3,t): coeffs[0]*L_i + coeffs[1]*L_j
        lin4 = [coeffs[0] * lift(li[k]) + coeffs[1] * lift(lj[k]) for k in range(4)]
        planes.append(_plane_from_fiber_form(p, lin4, fld))
    # with an identically-zero conic block the fiber quadric contains P
    # itself; flag the pair instead of treating it as an internal error
    conic_rank = matrix_rank([row[:3] for row in gram[:3]], base)
    pair = PlanePair(
        point=p,
        planes=tuple(planes),
        field=fld,
        disc=None if sq is not None else disc,
        degenerate=(conic_rank == 0),
    )
    _verify_pair(pair, ctx.derived.fourfold)
    return pair


def _nonsingular_principal_pair(gram, field):
    for i in range(4):
        for j in range(i + 1, 4):
            d = gram[i][i] * gram[j][j] - gram[i][j] * gram[j][i]
            if d:
                return (i, j)
    raise ConsistencyError("rank-2 symmetric matrix without invertible principal 2x2 block")


def _plane_from_fiber_form(p: ProjPoint, lin4, fld) -> Plane:
    """Extend [alpha.u, beta*t] on the fiber 3-space to a plane in P^5."""
    base_forms = p3_forms(p, p.field)
    k = next(i for i, c in enumerate(p.coords) if c)
    zero = fld.zero()
    third = [zero] * 6
    third[3], third[4], third[5] = lin4[0], lin4[1], lin4[2]
    third[k] = third[k] + lin4[3]  # t equals x_k on the canonical fiber chart
    forms = [tuple(fld.coerce(c) for c in f) for f in base_forms]
    forms.append(tuple(third))
    return Plane(forms=tuple(forms), field=fld)


def _verify_pair(pair: PlanePair, F: MultiPoly) -> None:
    fld = pair.field
    for plane in pair.planes:
        if _is_plane_p(plane) and not pair.degenerate:
            raise ConsistencyError(f"fiber plane over {pair.point} coincides with the plane P")
        basis = plane.basis()
        if len(basis) != 3:
            raise ConsistencyError("plane forms are not independent")
        if not vanishes_on_plane(F, basis, fld):
            raise ConsistencyError(f"claimed plane over {pair.point} is not inside the fourfold")
    rows = [list(f) for f in pair.planes[0].forms] + [list(f) for f in pair.planes[1].forms]
    if matrix_rank(rows, fld) != 4:
        raise ConsistencyError("planes of a couple must meet along a line")


def _is_plane_p(plane: Plane) -> bool:
    # the two forms from p3_forms have no u-part, so the plane is
    # P = {x1=x2=x3=0} exactly when the third form has none either
    return not any(plane.forms[2][3:])


# ---------------------------------------------------------------------------
# Base locus of the net of conics
# ---------------------------------------------------------------------------


def net_conics(rep: SymDetRep) -> list[MultiPoly]:
    """The three conics u^T G(e_k) u spanning the net, as polynomials in u."""
    field = rep.field
    uvars = ("u1", "u2", "u3")
    out = []
    for k, xv in enumerate(VARS_X):
        terms: dict = {}
        for i in range(3):
            for j in range(3):
                cof = rep.entry(i, j).terms.get(
                    tuple(1 if t == k else 0 for t in range(3))
                )
                if cof is None or not cof:
                    continue
                e = [0, 0, 0]
                e[i] += 1
                e[j] += 1
                key = tuple(e)
                terms[key] = terms.get(key, field.zero()) + cof
        out.append(MultiPoly(field, uvars, {e: c for e, c in terms.items() if c}))
    return out


def base_locus(ctx: AnalysisContext):
    """Common zeros in P of the net of conics; at most 3 points for valid input."""
    field = ctx.field
    if ctx.derived.d_cubic.is_zero:
        raise Rejection("the cubic D vanishes identically; the net of conics is degenerate")
    conics = [c for c in net_conics(ctx.rep) if not c.is_zero]
    if len(conics) < 2:
        raise Rejection("net of conics is degenerate: base locus is not finite")
    g = _relabel_u_to_x(conics[0], field)
    for c in conics[1:]:
        g = _conic_common_factor(g, c, field)
        if g.degree() == 0:
            break
    if g.degree() != 0:
        raise Rejection("net of conics shares a component: base locus is one-dimensional")
    relabeled = [_relabel_u_to_x(c, field) for c in conics]
    sol = plane_solutions(relabeled, field)
    pts = [ProjPoint(field, p.coords, "u") for p in sol.points]
    if len(pts) > 3:
        raise Rejection(
            f"base locus has {len(pts)} points; a valid associated pair allows at most 3"
        )
    if len(pts) == 3 and matrix_rank([list(p.coords) for p in pts], field) != 3:
        raise Rejection("three collinear base points; not a valid associated pair")
    return pts, sol.complete


def _conic_common_factor(a: MultiPoly, b: MultiPoly, field) -> MultiPoly:
    ax = _relabel_u_to_x(a, field)
    bx = _relabel_u_to_x(b, field)
    # common factor must show up in some affine chart or be x3 itself
    g = bivar_gcd(ax.substitute({"x3": 1}), bx.substitute({"x3": 1}))
    if g.degree() == 0:
        x3 = MultiPoly.variable(field, VARS_X, "x3")
        if x3.divides(ax) and x3.divides(bx):
            return x3
    return g


def _relabel_u_to_x(p: MultiPoly, field) -> MultiPoly:
    return MultiPoly(field, VARS_X, dict(p.terms))


# ---------------------------------------------------------------------------
# Assembly and verification of Sing(X)
# ---------------------------------------------------------------------------


@dataclass
class SingularLocusX:
    cone_vertices: list
    base_points: list  # embedded in P^5 (points of the plane P)
    all_double: bool
    smooth: bool
    bounds_ok: bool
    base_complete: bool
    classification: SingClassification

    @property
    def points(self) -> list:
        return sorted_points(self.cone_vertices + self.base_points)


def singular_locus_X(ctx: AnalysisContext) -> SingularLocusX:
    field = ctx.field
    classification = ctx.classification
    vertices = []
    for record in classification.records:
        if record.on_d:
            continue
        if record.rank != 3:
            raise ConsistencyError(
                f"point {record.point} off D must have a rank-3 fiber, found {record.rank}"
            )
        vertex = embed_fiber_vector(record.point, record.kernel[0], field)
        if not any(vertex.coords[:3]):
            raise ConsistencyError(f"cone vertex over {record.point} sits inside P")
        vertices.append(vertex)
    bpts, b_complete = base_locus(ctx)
    embedded_b = [
        ProjPoint(field, (field.zero(),) * 3 + p.coords, "p5") for p in bpts
    ]
    F = ctx.derived.fourfold
    grads = {v: F.diff(v) for v in VARS_XU}
    hessian = [grads[v].diff(w) for n, v in enumerate(VARS_XU) for w in VARS_XU[n:]]
    all_double = True
    for pt in vertices + embedded_b:
        if F.evaluate(pt.coords):
            raise ConsistencyError(f"assembled point {pt} does not lie on the fourfold")
        for v, g in grads.items():
            if g.evaluate(pt.coords):
                raise ConsistencyError(f"assembled point {pt} is not singular (dF/d{v} != 0)")
        # the quadratic part of F in the chart of pt's leading coordinate x_k
        # is half the Hessian block off row and column k; Euler's relation
        # H(pt) pt = 2 grad F(pt) = 0 makes that block zero exactly when the
        # whole Hessian is (char != 2)
        if not any(h.evaluate(pt.coords) for h in hessian):
            all_double = False
    n_sc = len(classification.s_c)
    n_sing = len(vertices) + len(embedded_b)
    bounds_ok = n_sc <= n_sing <= n_sc + 3 and len(bpts) <= 3
    smooth = (
        n_sing == 0
        and classification.s_c_certified
        and b_complete
    )
    return SingularLocusX(
        cone_vertices=sorted_points(vertices),
        base_points=sorted_points(embedded_b),
        all_double=all_double,
        smooth=smooth,
        bounds_ok=bounds_ok,
        base_complete=b_complete,
        classification=classification,
    )


# ---------------------------------------------------------------------------
# Exhaustive finite-field oracle
# ---------------------------------------------------------------------------


def brute_force_oracle(rep: SymDetRep, q: int) -> list[ProjPoint]:
    """All points of P^5(F_q) where the fourfold and its six partials vanish.

    Works stratum by stratum in the x-part.  On x = 0 (the plane P) every
    point of P^2(F_q) in u is tested.  Over each other x-point the three
    u-partials of F are affine-linear in u, so they are solved mod q and only
    their q^(3-rank) solutions are tested.  Uses F and its partials alone,
    never the fiber theory the assembly rests on.  Returns canonically sorted
    points.
    """
    if q**5 > ORACLE_BUDGET:
        raise InputError(f"enumeration budget exceeded: {q}^5 > 10^9")
    gf = PrimeField(q)
    F = derived_equations(reduce_rep(rep, gf)).fourfold
    # F, its x-partials, then its u-partials, each as
    # {u-exponent: [(coefficient, x-exponent), ...]} over the integers
    polys = []
    for p in [F] + [F.diff(v) for v in VARS_XU]:
        split: dict = {}
        for e, c in p.terms.items():
            split.setdefault(e[3:], []).append((c.v, e[:3]))
        polys.append(split)
    if any(sum(eu) > 1 for p in polys[4:] for eu in p):
        raise ConsistencyError("a u-partial of the fourfold is not affine-linear in u")
    x_exps = {e for p in polys for terms in p.values() for _c, e in terms}

    def at_x(xc):
        # each polynomial with x fixed at xc, as {u-exponent: nonzero residue}
        x1, x2, x3 = xc
        mono = {e: x1 ** e[0] * x2 ** e[1] * x3 ** e[2] for e in x_exps}
        out = []
        for p in polys:
            fixed = {}
            for eu, terms in p.items():
                acc = 0
                for c, e in terms:
                    acc += c * mono[e]
                if acc % q:
                    fixed[eu] = acc % q
            out.append(fixed)
        return out

    def all_vanish(fixed, u):
        u1, u2, u3 = u
        for p in fixed:
            acc = 0
            for e, c in p.items():
                acc += c * u1 ** e[0] * u2 ** e[1] * u3 ** e[2]
            if acc % q:
                return False
        return True

    on_p = at_x((0, 0, 0))
    found = [(0, 0, 0) + u for u in p2_reps(q) if all_vanish(on_p, u)]
    for xc in p2_reps(q):
        fixed = at_x(xc)
        rows = [[p.get(e, 0) for e in _U_UNITS] + [p.get((0, 0, 0), 0)] for p in fixed[4:]]
        solved = _solve_affine_mod(rows, q)
        if solved is None:
            continue
        base, kernel = solved
        for ts in product(range(q), repeat=len(kernel)):
            u = tuple((base[i] + sum(t * v[i] for t, v in zip(ts, kernel))) % q for i in range(3))
            if all_vanish(fixed, u):
                found.append(xc + u)

    pts = [ProjPoint(gf, [gf.from_int(c) for c in coords], "p5") for coords in found]
    return sorted_points(pts)


_U_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _solve_affine_mod(rows: list[list[int]], q: int):
    """Solutions u of A u + b = 0 (mod q) for rows [A | b], by Gauss-Jordan.

    Returns None when the system is inconsistent, else (u0, kernel): one
    solution and a basis of the kernel of A, one vector per free column.
    """
    n = len(rows[0]) - 1
    m = [[v % q for v in row] for row in rows]
    pivots = []
    for col in range(n):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][col], -1, q)
        m[r] = [v * inv % q for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(v - f * w) % q for v, w in zip(m[i], m[r])]
        pivots.append(col)
    if any(row[n] for row in m[len(pivots):]):
        return None
    u0 = [0] * n
    for r, col in enumerate(pivots):
        u0[col] = -m[r][n] % q
    kernel = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = -m[r][free] % q
        kernel.append(v)
    return u0, kernel


def assembly_points_mod_q(rep: SymDetRep, q: int, components=None) -> list[ProjPoint]:
    """Sing(X)(F_q) assembled from the rank stratification, for oracle comparison."""
    return singular_locus_X(analysis_context(rep, PrimeField(q), components)).points


def oracle_matches_assembly(rep: SymDetRep, q: int, components=None) -> tuple[bool, list, list]:
    # the assembly first: a rep it rejects raises before the oracle's scan
    assembled = assembly_points_mod_q(rep, q, components=components)
    oracle = brute_force_oracle(rep, q)
    return (
        {p.coords for p in oracle} == {p.coords for p in assembled},
        oracle,
        assembled,
    )


# ---------------------------------------------------------------------------
# Couples of planes and their mutual intersections
# ---------------------------------------------------------------------------


@dataclass
class CouplesReport:
    pairs: list  # each couple meets itself in a line, checked by _verify_pair
    cross_ok: bool  # planes from distinct couples meet in single points
    cross_points: dict  # (i, j, a, b) -> ProjPoint for base-field computable meets
    notes: list = dc_field(default_factory=list)


def couples_and_intersections(ctx: AnalysisContext) -> CouplesReport:
    rank2 = [r for r in ctx.classification.records if r.rank == 2]
    rank2.sort(key=lambda r: r.point.sort_key())
    pairs = [split_rank2_fiber(ctx, r.point, r.gram) for r in rank2]
    notes = []
    cross_ok = True
    cross_points = {}
    for i in range(len(pairs)):
        if pairs[i].degenerate:
            continue
        for j in range(i + 1, len(pairs)):
            if pairs[j].degenerate:
                continue
            ok, extracted = _cross_check(pairs[i], pairs[j])
            if not ok:
                cross_ok = False
            for key, pt in extracted.items():
                cross_points[(i, j) + key] = pt
    if any(pr.disc is not None for pr in pairs):
        notes.append("some couples split only over a quadratic extension")
    n_degen = sum(1 for pr in pairs if pr.degenerate)
    if n_degen:
        notes.append(
            f"{n_degen} rank-2 fiber(s) have an identically-zero conic block: "
            "the fiber quadric contains the projection plane P itself and is "
            "excluded from cross-intersection checks"
        )
    return CouplesReport(
        pairs=pairs,
        cross_ok=cross_ok,
        cross_points=cross_points,
        notes=notes,
    )


def _cross_check(pa: PlanePair, pb: PlanePair):
    """Planes from distinct couples must meet in exactly one point.

    The x-forms of a plane over p cut out span(P, p), and the spans over two
    distinct points meet exactly in P.  Inside P a plane is the line
    l . u = 0 of its `u_line` l, so two cross planes meet in the single point
    (0:0:0 : la x lb) exactly when that cross product is nonzero.  The
    points are recorded when both couples split over one field.
    """
    ok = True
    extracted = {}
    for ia, plane_a in enumerate(pa.planes):
        for ib, plane_b in enumerate(pb.planes):
            lines = _common_field(plane_a.u_line, plane_b.u_line)
            if lines is None:
                continue  # irrational lines over different fields never coincide
            (a1, a2, a3), (b1, b2, b3) = lines
            meet = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
            if not any(meet):
                ok = False
            elif pa.field == pb.field:
                zero = pa.field.zero()
                extracted[(ia, ib)] = ProjPoint(pa.field, (zero, zero, zero) + meet, "p5")
    return ok, extracted


def _common_field(la: list, lb: list):
    """Two u-lines over one field, or None when they lie in quadratic
    extensions of Q that are not one field.  A base-field line needs no
    map: extension arithmetic takes base scalars as they are.  Q(sqrt db)
    maps into Q(sqrt da) by sqrt db = r sqrt da whenever r = sqrt(db/da)
    exists; over F_q it always does."""
    fa, fb = (line[0].field if isinstance(line[0], QuadExtElt) else None for line in (la, lb))
    if fa is None or fb is None or fa == fb:
        return la, lb
    r = fa.base.sqrt(fb.d / fa.d)
    if r is None:
        return None
    return la, [QuadExtElt(c.a, c.b * r, fa) for c in lb]
