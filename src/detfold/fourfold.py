"""Fiber quadrics of the projection from the plane P, the base locus of the
net of conics, assembly of Sing(X), rank-2 fiber splitting into couples of
planes, and an exhaustive finite-field oracle for independent verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product

from .algebra import MultiPoly, PrimeField, QuadExt, QuadExtElt, VARS_X, VARS_XU, matrix_rank
from .curves import AnalysisContext, SingClassification, analysis_context, plane_solutions
from .detrep import SymDetRep, embed_fiber_vector, gram_rank_kernel, reduce_rep
from .errors import ConsistencyError, InputError, Rejection
from .points import ORACLE_BUDGET, ProjPoint, p2_reps, sorted_points


# ---------------------------------------------------------------------------
# Splitting a rank-2 fiber into its couple of planes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plane:
    """A plane of a couple over p: the hyperplane a . u + b t = 0 of the
    fiber 3-space span(P, p), the points (t p, u), given by its fiber form
    (a1, a2, a3, b)."""

    form: tuple  # 4 scalars over `field`
    field: object

    @cached_property
    def u_line(self) -> list:
        """(a1, a2, a3) scaled to lead with 1: inside P the plane is the line
        u_line . u = 0.  Its entries lie in the base field whenever they can
        (as for a double line split over an extension)."""
        line = self.form[:3]
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
    Both planes are verified to lie on the fourfold by `_verify_pair`.  `gram`
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
        factors = ([fld.one(), (bv - s) / av], [fld.one(), (bv + s) / av])
    elif cv:
        factors = ([(bv - s) / cv, fld.one()], [(bv + s) / cv, fld.one()])
    else:
        factors = ([fld.one(), fld.zero()], [fld.zero(), fld.one()])
    # each factor c1 L_i + c2 L_j is the fiber form of one plane
    planes = tuple(
        Plane(form=tuple(c1 * lift(li[k]) + c2 * lift(lj[k]) for k in range(4)), field=fld)
        for c1, c2 in factors
    )
    # with an identically-zero conic block the fiber quadric contains P
    # itself; flag the pair instead of treating it as an internal error
    conic_rank = matrix_rank([row[:3] for row in gram[:3]], base)
    pair = PlanePair(
        point=p,
        planes=planes,
        field=fld,
        disc=None if sq is not None else disc,
        degenerate=(conic_rank == 0),
    )
    _verify_pair(pair, ctx.rep.fourfold)
    return pair


def _nonsingular_principal_pair(gram, field):
    for i in range(4):
        for j in range(i + 1, 4):
            d = gram[i][i] * gram[j][j] - gram[i][j] * gram[j][i]
            if d:
                return (i, j)
    raise ConsistencyError("rank-2 symmetric matrix without invertible principal 2x2 block")


def _verify_pair(pair: PlanePair, F: MultiPoly) -> None:
    """Both planes of a couple lie on the fourfold and meet in a line.

    The planes lie in span(P, p), the points (t p, u), where F(t p, u) =
    t Q(u, t) because F vanishes on P.  A plane other than P, of fiber form
    (a, b), lies on the fourfold exactly when the quadratic form Q vanishes
    on it: at a basis w1, w2, w3 with t = 1 and at their pairwise sums, that
    is (char != 2) when its polar form B(wi, wj) vanishes for i <= j.  Two
    such planes meet in a line exactly when their forms have rank 2.
    """
    p, fld = pair.point, pair.field
    polar = _fiber_polar_matrix(F, p)
    for plane in pair.planes:
        a, b = plane.form[:3], plane.form[3]
        if not any(a):
            if not pair.degenerate:
                raise ConsistencyError(f"fiber plane over {p} coincides with the plane P")
            continue  # P itself lies on the fourfold
        m = next(i for i, c in enumerate(a) if c)
        basis = []
        for ones in ((), *((i,) for i in range(3) if i != m)):
            w = [fld.one() if i in ones else fld.zero() for i in range(3)] + [fld.one()]
            w[m] = -sum((a[i] for i in ones), b) / a[m]
            basis.append(w)
        images = [[sum((r[j] * w[j] for j in range(4) if w[j]), fld.zero()) for r in polar] for w in basis]
        for i, j in combinations_with_replacement(range(3), 2):
            if sum((x * y for x, y in zip(basis[i], images[j])), fld.zero()):
                raise ConsistencyError(f"claimed plane over {p} is not inside the fourfold")
    fa, fb = (plane.form for plane in pair.planes)
    if not any(fa[i] * fb[j] - fa[j] * fb[i] for i, j in combinations(range(4), 2)):
        raise ConsistencyError("planes of a couple must meet along a line")


def _fiber_polar_matrix(F: MultiPoly, p: ProjPoint) -> list:
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


# ---------------------------------------------------------------------------
# Base locus of the net of conics
# ---------------------------------------------------------------------------


def net_conics(rep: SymDetRep) -> list[MultiPoly]:
    """The three conics u^T G(e_k) u spanning the net, with u1, u2, u3 named
    x1, x2, x3 so that `plane_solutions` takes them."""
    field = rep.field
    out = []
    for k in range(3):
        unit = tuple(int(t == k) for t in range(3))
        terms: dict = {}
        for i in range(3):
            for j in range(3):
                cof = rep.entry(i, j).terms.get(unit)
                if cof:
                    e = tuple((t == i) + (t == j) for t in range(3))
                    terms[e] = terms.get(e, field.zero()) + cof
        out.append(MultiPoly(field, VARS_X, terms))
    return out


def base_locus(ctx: AnalysisContext):
    """Common zeros in P of the net of conics; at most 3 points for valid input."""
    field = ctx.field
    if ctx.rep.d_cubic.is_zero:
        raise Rejection("the cubic D vanishes identically; the net of conics is degenerate")
    conics = [c for c in net_conics(ctx.rep) if not c.is_zero]
    if len(conics) < 2:
        raise Rejection("net of conics is degenerate: base locus is not finite")
    # D != 0, so not every conic of the net is singular and the conics share
    # no line; they share a component only when all are multiples of one conic
    monos = sorted({e for c in conics for e in c.terms})
    if matrix_rank([[c.terms.get(e, field.zero()) for e in monos] for c in conics], field) < 2:
        raise Rejection("net of conics shares a component: base locus is one-dimensional")
    sol = plane_solutions(conics, field)
    pts = [ProjPoint(field, p.coords, "u") for p in sol.points]
    if len(pts) > 3:
        raise Rejection(
            f"base locus has {len(pts)} points; a valid associated pair allows at most 3"
        )
    if len(pts) == 3 and matrix_rank([list(p.coords) for p in pts], field) != 3:
        raise Rejection("three collinear base points; not a valid associated pair")
    return pts, sol.complete


# ---------------------------------------------------------------------------
# Assembly and verification of Sing(X)
# ---------------------------------------------------------------------------


@dataclass
class SingularLocusX:
    cone_vertices: list
    base_points: list  # embedded in P^5 (points of the plane P)
    all_double: bool
    smooth: bool
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
    F = ctx.rep.fourfold
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
    smooth = not vertices and not embedded_b and classification.s_c_certified and b_complete
    return SingularLocusX(
        cone_vertices=sorted_points(vertices),
        base_points=sorted_points(embedded_b),
        all_double=all_double,
        smooth=smooth,
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
    u-partials of F are affine-linear in u and are solved mod q, by Cramer's
    rule where their 3x3 block is invertible.  On the solutions u0 + sum
    t_j k_j, F is a polynomial of degree <= 2 in t; only its zeros among the
    q^(3-rank) values of t are tested against F and all six partials.  Uses
    F and its partials alone, never the fiber theory the assembly rests on.
    Returns canonically sorted points.  The points of P, the strata and the
    candidates together may not exceed ORACLE_BUDGET: the first two are
    counted before any work, each stratum's candidates as they accrue.
    """
    tested = 2 * (q * q + q + 1)
    over_budget = f"enumeration budget exceeded: the oracle over F_{q} tests more than {ORACLE_BUDGET} points"
    if tested > ORACLE_BUDGET:
        raise InputError(over_budget)
    gf = PrimeField(q)
    F = reduce_rep(rep, gf).fourfold
    # F, its x-partials, then its u-partials, each as {u-exponent:
    # [(coefficient, index of the x-exponent in x_index), ...]} over the integers
    polys, x_index = [], {}
    for p in [F] + [F.diff(v) for v in VARS_XU]:
        split: dict = {}
        for e, c in p.terms.items():
            split.setdefault(e[3:], []).append((c.v, x_index.setdefault(e[:3], len(x_index))))
        polys.append(split)
    if any(sum(eu) > 1 for p in polys[4:] for eu in p):
        raise ConsistencyError("a u-partial of the fourfold is not affine-linear in u")
    # the u-partials as rows [A | b], and each u-monomial of F (of degree
    # <= 2) as the product of two of u1, u2, u3, 1
    u_rows = [{e: p.get(e, []) for e in _U_UNITS + ((0, 0, 0),)} for p in polys[4:]]
    factors = [([i for i in range(3) for _ in range(eu[i])] + [3, 3])[:2] for eu in polys[0]]

    def values(p, mono):
        # the u-coefficients of p with x fixed, mod q
        out = []
        for terms in p.values():
            acc = 0
            for c, i in terms:
                acc += c * mono[i]
            out.append(acc % q)
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

    on_p = [dict(zip(p, values(p, [int(not any(e)) for e in x_index]))) for p in polys]
    found = [(0, 0, 0) + u for u in p2_reps(q) if all_vanish(on_p, u)]
    for xc in p2_reps(q):
        p1, p2, p3 = ([1, x, x * x, x * x * x] for x in xc)  # F is a cubic
        mono = [p1[a] * p2[b] * p3[d] for a, b, d in x_index]
        solved = _solve_affine_mod([values(p, mono) for p in u_rows], q)
        if solved is None:
            continue
        base, kernel = solved
        tested += q ** len(kernel)
        if tested > ORACLE_BUDGET:
            raise InputError(over_budget)
        # the solutions are u = sum T_s cols[s][:3] with T = (1, t_1, ..., t_k),
        # and on them F is the sum of c T_s T_r over its terms (s, r, c)
        cols = [base + [1]] + [v + [0] for v in kernel]
        f_x = list(zip(factors, values(polys[0], mono)))
        terms = []
        for s, col_s in enumerate(cols):
            for r, col_r in enumerate(cols):
                c = sum([w * col_s[i] * col_r[j] for (i, j), w in f_x]) % q
                if c:
                    terms.append((s, r, c))
        fixed = []
        for ts in product(range(q), repeat=len(kernel)):
            t = (1,) + ts
            val = 0
            for s, r, c in terms:
                val += c * t[s] * t[r]
            if val % q:
                continue
            u = tuple(sum(a * col[i] for a, col in zip(t, cols)) % q for i in range(3))
            fixed = fixed or [dict(zip(p, values(p, mono))) for p in polys]
            if all_vanish(fixed, u):
                found.append(xc + u)

    pts = [ProjPoint(gf, [gf.from_int(c) for c in coords], "p5") for coords in found]
    return sorted_points(pts)


_U_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _solve_affine_mod(rows: list[list[int]], q: int):
    """Solutions u of A u + b = 0 (mod q) for rows [A | b].

    Returns None when the system is inconsistent, else (u0, kernel): one
    solution and a basis of the kernel of A, one vector per free column.  An
    invertible 3x3 A is solved by Cramer's rule, u0 = -adj(A) b / det A, with
    the cross products of A's rows as the columns of adj(A); any other A by
    Gauss-Jordan.
    """
    n = len(rows[0]) - 1
    if len(rows) == n == 3:
        r1, r2, r3 = rows
        c23, c31, c12 = _cross(r2, r3), _cross(r3, r1), _cross(r1, r2)
        det = (r1[0] * c23[0] + r1[1] * c23[1] + r1[2] * c23[2]) % q
        if det:
            s = -pow(det, -1, q)
            return [s * (r1[3] * a + r2[3] * b + r3[3] * c) % q for a, b, c in zip(c23, c31, c12)], []
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
    notes: list = dc_field(default_factory=list)


def couples_and_intersections(ctx: AnalysisContext) -> CouplesReport:
    rank2 = [r for r in ctx.classification.records if r.rank == 2]
    rank2.sort(key=lambda r: r.point.sort_key())
    pairs = [split_rank2_fiber(ctx, r.point, r.gram) for r in rank2]
    live = [pr for pr in pairs if not pr.degenerate]
    cross_ok = all(_cross_check(pa, pb) for pa, pb in combinations(live, 2))
    notes = []
    if any(pr.disc is not None for pr in pairs):
        notes.append("some couples split only over a quadratic extension")
    n_degen = len(pairs) - len(live)
    if n_degen:
        notes.append(
            f"{n_degen} rank-2 fiber(s) have an identically-zero conic block: "
            "the fiber quadric contains the projection plane P itself and is "
            "excluded from cross-intersection checks"
        )
    return CouplesReport(pairs=pairs, cross_ok=cross_ok, notes=notes)


def _cross_check(pa: PlanePair, pb: PlanePair) -> bool:
    """Planes from distinct couples must meet in exactly one point.

    The planes over two distinct points lie in span(P, p) and span(P, p'),
    which meet exactly in P.  Inside P a plane is the line l . u = 0 of its
    `u_line` l, so two cross planes meet in the single point
    (0:0:0 : la x lb) exactly when that cross product is nonzero.
    """
    for plane_a in pa.planes:
        for plane_b in pb.planes:
            lines = _common_field(plane_a.u_line, plane_b.u_line)
            if lines is None:
                continue  # irrational lines over different fields never coincide
            if not any(_cross(*lines)):
                return False
    return True


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
