"""Fiber quadrics of the projection from the plane P, the base locus of the
net of conics, assembly of Sing(X), rank-2 fiber splitting into couples of
planes, and an exhaustive finite-field oracle for independent verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import mul

from .algebra import VARS_XU, cross, int_rank_det, primitive, residue
from .algebra.fields import checked_prime, isqrt_exact, sqrt_mod
from .algebra.multipoly import dense, det_terms, diff_terms, form_values, residues
from .algebra.unipoly import common_zeros, gcd_mod, horner_mod, lane_width, lanes, line_lanes, pack_lines
from .curves import plane_solutions
from .detrep import UPPER, SymDetRep, embed_fiber_vector, gram_rank_kernel, reduce_rep
from .errors import ConsistencyError, InputError, Rejection
from .points import ORACLE_BUDGET, ProjPoint, p2_lines, sorted_points


# ---------------------------------------------------------------------------
# Splitting a rank-2 fiber into its couple of planes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanePair:
    """The couple of planes over p: the hyperplanes (alpha +- s beta) . (u, t)
    = 0 of the fiber 3-space span(P, p), the points (t p, u), with s^2 =
    disc.  alpha, beta and disc lie in the base field; root is s when disc
    is a square there, else None and the planes are conjugate over the
    quadratic extension by sqrt(disc).  lines holds the keys of the
    couple's lines inside P (`_line_keys`)."""

    point: ProjPoint
    alpha: tuple
    beta: tuple
    disc: object
    root: object | None
    lines: frozenset
    degenerate: bool = False  # one member is the projection plane P itself


def split_rank2_fiber(rep: SymDetRep, p: ProjPoint, gram=None) -> PlanePair:
    """Write the rank-2 fiber quadric over p as a product of two planes.

    On the integer Gram matrix G of `gram_rank_kernel` at n = den p, with
    (i, j) the first principal pair where G_ii G_jj - G_ij^2 != 0 and
    z = (l_i . v, l_j . v) for its rows l, Q is a nonzero multiple of
    a z1^2 + 2b z1 z2 + c z2^2, a, b, c = G_jj, -G_ij, G_ii.  So the integers
    alpha, beta, disc = a l_i + b l_j, l_j, b^2 - ac give the planes (alpha
    +- sqrt(disc) beta) . v = 0, or l_i + l_j, l_i - l_j, 1 when a = c = 0.
    They split over the base field when disc is a square there, otherwise
    over the quadratic extension by it.  `_verify_pair` and `_line_keys` work
    on these integers; alpha and beta are then taken to p by
    diag(den, den, den, 1) and kept as base-field data.  `gram` is G when
    the classification already holds it.
    """
    q = rep.q
    if gram is None:
        gram, rank, _kernel = gram_rank_kernel(rep, p)
        if rank != 2:
            raise Rejection(f"fiber at {p} has rank {rank}, not 2; no couple of planes there")
    pairs = [(i, j) for i, j in combinations(range(4), 2) if residue(gram[i][i] * gram[j][j] - gram[i][j] ** 2, q)]
    if not pairs:
        raise ConsistencyError("rank-2 symmetric matrix without invertible principal 2x2 block")
    i, j = pairs[0]
    a, b, c = gram[j][j], -gram[i][j], gram[i][i]
    li, lj = gram[i], gram[j]
    if not a:  # z1 and z2 change roles
        a, c, li, lj = c, a, lj, li
    if a:
        # a Q = (a z1 + b z2)^2 - disc z2^2
        alpha, beta, disc = [a * x + b * y for x, y in zip(li, lj)], lj, b * b - a * c
    else:
        # z1 z2 = ((z1 + z2)^2 - (z1 - z2)^2) / 4
        alpha, beta, disc = [x + y for x, y in zip(li, lj)], [x - y for x, y in zip(li, lj)], 1
    _verify_pair(rep, p, alpha, beta, disc)
    root = sqrt_mod(disc, q) if q else isqrt_exact(disc)
    den = p.ints()[1]
    at_p = [tuple(residue(x, q) for x in (den * v[0], den * v[1], den * v[2], v[3])) for v in (alpha, beta)]
    # with an identically-zero conic block the fiber quadric contains P
    # itself; flag the pair instead of treating it as an internal error
    return PlanePair(
        point=p,
        alpha=at_p[0],
        beta=at_p[1],
        disc=residue(disc, q),
        root=root,
        lines=_line_keys(alpha[:3], beta[:3], disc, root, q),
        degenerate=not any(x for row in gram[:3] for x in row[:3]),
    )


def _verify_pair(rep: SymDetRep, p: ProjPoint, alpha, beta, disc: int) -> None:
    """Both planes of a couple lie on the fourfold and meet in a line, for
    the integers alpha, beta and disc of `split_rank2_fiber` at the integer
    vector n = den p.

    The planes lie in span(P, p), the points (t p, u), where F(t p, u) =
    t Q(u, t) because F vanishes on P.  With v = (u, t) their product is
    (alpha . v)^2 - disc (beta . v)^2, so both lie on the fourfold when Q is
    a nonzero multiple of it: when the Gram matrix of Q, read off the
    entries' forms at n (`SymDetRep.gram_forms`), is a nonzero multiple of
    alpha alpha^T - disc beta beta^T, compared cross-multiplied.  The two
    planes are distinct, so meet in a line, exactly when disc != 0 and some
    2x2 minor of alpha and beta is nonzero.
    """
    q = rep.q
    minors = (alpha[k] * beta[l] - alpha[l] * beta[k] for k, l in combinations(range(4), 2))
    if not residue(disc, q) or not any(residue(m, q) for m in minors):
        raise ConsistencyError("planes of a couple must meet along a line")
    gram = form_values(rep.gram_forms, p.ints()[0], q)  # both matrices are symmetric: UPPER
    planes = [residue(alpha[k] * alpha[l] - disc * beta[k] * beta[l], q) for k, l in UPPER]
    lead, pivot = next((x, y) for x, y in zip(gram, planes) if y)
    if not lead or any(residue(x * pivot - y * lead, q) for x, y in zip(gram, planes)):
        raise ConsistencyError(f"claimed plane over {p} is not inside the fourfold")


# ---------------------------------------------------------------------------
# Base locus of the net of conics
# ---------------------------------------------------------------------------


def net_conics(rep: SymDetRep) -> list[dict]:
    """The three conics u^T G(e_k) u spanning the net, as the integer terms
    of c times them (residues over F_q), with u1, u2, u3 read as x1, x2, x3
    so that `plane_solutions` takes them: entry (i, j) of the linear block,
    i <= j, gives its x_k coefficient to u_i u_j, doubled for i != j."""
    out = []
    for k in range(3):
        unit = tuple(int(t == k) for t in range(3))
        terms = {
            tuple((m == i) + (m == j) for m in range(3)): t[unit] if i == j else 2 * t[unit]
            for (i, j), t in zip(UPPER, rep.upper)
            if j < 3 and unit in t
        }
        out.append(residues(terms, rep.q))
    return out


def base_locus(rep: SymDetRep):
    """Common zeros in P of the net of conics; at most 3 points for valid input."""
    q = rep.q
    if not rep.d_terms:
        raise Rejection("the cubic D vanishes identically; the net of conics is degenerate")
    conics = [c for c in net_conics(rep) if c]
    if len(conics) < 2:
        raise Rejection("net of conics is degenerate: base locus is not finite")
    # D != 0, so not every conic of the net is singular and the conics share
    # no line; they share a component only when all are multiples of one conic
    monos = sorted({e for terms in conics for e in terms})
    if int_rank_det([[terms.get(e, 0) for e in monos] for terms in conics], q)[0] < 2:
        raise Rejection("net of conics shares a component: base locus is one-dimensional")
    sol = plane_solutions(conics, q)
    pts = [ProjPoint(q, p.coords, "u") for p in sol.points]
    if len(pts) > 3:
        raise Rejection(
            f"base locus has {len(pts)} points; a valid associated pair allows at most 3"
        )
    if len(pts) == 3 and not int_rank_det([p.ints()[0] for p in pts], q)[1]:
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

    @property
    def points(self) -> list:
        return sorted_points(self.cone_vertices + self.base_points)


def singular_locus_X(rep: SymDetRep) -> SingularLocusX:
    """Sing(X) of the fourfold over the rep's field, assembled from the cone
    vertices over s_c and the base points of the net of conics.  Each point
    is tested on its integer vector w by `_third_derivatives`."""
    q = rep.q
    classification = rep.classification
    vertices = []
    for record in classification.records:
        if record.on_d:
            continue
        if record.rank != 3:
            raise ConsistencyError(
                f"point {record.point} off D must have a rank-3 fiber, found {record.rank}"
            )
        w = embed_fiber_vector(record.point, record.kernel)
        if not any(residue(c, q) for c in w[:3]):
            raise ConsistencyError(f"cone vertex over {record.point} sits inside P")
        vertices.append((ProjPoint(q, w, "p5"), w))
    bpts, b_complete = base_locus(rep)
    embedded_b = [(ProjPoint(q, (0, 0, 0) + p.coords, "p5"), (0, 0, 0) + p.ints()[0]) for p in bpts]
    all_double = True
    if vertices or embedded_b:
        third = _third_derivatives(rep.fourfold_terms)
    for pt, w in vertices + embedded_b:
        # Euler's relation: the Hessian is T w, the gradient (T w) w / 2 and
        # F itself (T w) w . w / 6, each exact over the integers
        hessian = [[sum(map(mul, tij, w)) for tij in ti] for ti in third]
        grad = [sum(map(mul, row, w)) // 2 for row in hessian]
        if residue(sum(map(mul, grad, w)) // 3, q):
            raise ConsistencyError(f"assembled point {pt} does not lie on the fourfold")
        for v, g in zip(VARS_XU, grad):
            if residue(g, q):
                raise ConsistencyError(f"assembled point {pt} is not singular (dF/d{v} != 0)")
        # the quadratic part of F in the chart of pt's leading coordinate x_k
        # is half the Hessian block off row and column k; Euler's relation
        # H(pt) pt = 2 grad F(pt) = 0 makes that block zero exactly when the
        # whole Hessian is (char != 2)
        if not any(residue(h, q) for row in hessian for h in row):
            all_double = False
    smooth = not vertices and not embedded_b and classification.s_c_certified and b_complete
    return SingularLocusX(
        cone_vertices=sorted_points(pt for pt, _ in vertices),
        base_points=sorted_points(pt for pt, _ in embedded_b),
        all_double=all_double,
        smooth=smooth,
        base_complete=b_complete,
    )


def _third_derivatives(F: dict) -> list:
    """T[i][j][k], the third partial of the cubic form F in x_i, x_j, x_k
    (in x1..x3, u1..u3), over F's integer terms: a term c z^e gives
    c prod(e_m!) at every ordering of the multiset e."""
    T = [[[0] * 6 for _ in range(6)] for _ in range(6)]
    for e, c in F.items():
        value = c * math.prod(map(math.factorial, e))
        for i, j, k in set(permutations([m for m, a in enumerate(e) for _ in range(a)])):
            T[i][j][k] = value
    return T


# ---------------------------------------------------------------------------
# Exhaustive finite-field oracle
# ---------------------------------------------------------------------------


def brute_force_oracle(rep: SymDetRep, q: int) -> list[ProjPoint]:
    """All points of P^5(F_q) where the fourfold and its six partials vanish.

    Works stratum by stratum in the x-part.  The three u-partials of F are
    affine-linear in u, rows [A | b] of forms in x with F = f + b.u + u.Au/2,
    so `_cramer_forms` builds Delta = det A, N = -adj(A) b and Phi = 2 Delta
    f + b.N once per call.  Delta and Phi are packed once (`pack_lines`), so
    on each line (a : b : t) of strata their values at every t are one
    combination of power columns each, and only the t where Phi(t) = 0 are
    visited.  A stratum x with Phi(x) != 0 holds no point: where Delta(x) !=
    0 the one solution u0 = N(x)/Delta(x) has Phi(x) = 2 Delta(x) F(x, u0),
    and where Delta(x) = 0 and A u0 = -b is solvable, Phi(x) = -b.adj(A) b =
    -u0.A adj(A) A u0 = 0.  Where Delta(x) = 0 the rows at x are solved by
    `_solve_singular_mod`; F is the constant F(x, u0) = f + b.u0/2 on u0 +
    span(kernel), where its u-gradient vanishes, so (q odd) the stratum is
    skipped when 2f + b.u0 != 0.  Otherwise, for each point u0 of
    the coset's other directions, the line u0 + s v along its last kernel
    vector v keeps only the common roots in s of the three x-partials
    (`_coset_roots`).  Every candidate left is tested against the
    x-partials, F and the u-partials, each fixed at x when a candidate first
    reaches it.  The conics left on the plane P (x = 0) are scanned line by
    line with the same kernel.  Uses F and its partials alone, never the
    fiber theory the assembly rests on.  Returns canonically sorted points.
    The points of P, the strata and the candidates together may not exceed
    ORACLE_BUDGET: the first two are counted before any work, a stratum's
    q^(3 - rank) candidates as they accrue, the one candidate of each
    full-rank stratum skipped for Phi(t) != 0 once per line.
    """
    tested = 2 * (q * q + q + 1)
    over_budget = f"enumeration budget exceeded: the oracle over F_{q} tests more than {ORACLE_BUDGET} points"
    if tested > ORACLE_BUDGET:
        raise InputError(over_budget)
    F = reduce_rep(rep, checked_prime(q)).fourfold_terms
    # the x-partials of F, F, then its u-partials, in the order candidates are
    # tested, each as {u-exponent: the terms of its form in x}
    split = []
    for p in [diff_terms(F, i, q) for i in range(3)] + [F] + [diff_terms(F, i, q) for i in range(3, 6)]:
        parts: dict = {}
        for e, c in p.items():
            parts.setdefault(e[3:], {})[e[:3]] = c
        split.append(parts)
    if any(sum(eu) > 1 for p in split[4:] for eu in p):
        raise ConsistencyError("a u-partial of the fourfold is not affine-linear in u")
    if any(sum(eu) > 2 for eu in split[3]):
        raise ConsistencyError("the fourfold has a term of u-degree above 2")
    polys = [(list(p), [dense(t, sum(next(iter(t)))) for t in p.values()]) for p in split]
    # [A | b] row by row, then f: forms in x of degrees 1, 2 and 3
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
    entries = [p.get(e, {}) for p in split[4:] for e in units] + [split[3].get((0, 0, 0), {})]
    # the rows and f at x as the 64-bit lanes of one sum of products (values < 10 q^4)
    stack = [(e, sum(t.get(e, 0) << 64 * k for k, t in enumerate(entries))) for e in {e for t in entries for e in t}]
    delta, phi, num = _cramer_forms([entries[0:4], entries[4:8], entries[8:12]], entries[12], q)
    num_forms = [dense(n, 4) for n in num]
    w = lane_width(q, 6)  # Phi is a sextic
    packed_delta, packed_phi = pack_lines(delta, q, w), pack_lines(phi, q, w)

    def value(x, fixed, n, u):
        # polynomial n at (x, u), each fixed at x, into `fixed`, when first needed
        while len(fixed) <= n:
            eus, forms = polys[len(fixed)]
            fixed.append(list(zip(eus, form_values(forms, x, q))))
        u1, u2, u3 = u
        return sum(c * u1 ** e[0] * u2 ** e[1] * u3 ** e[2] for e, c in fixed[n]) % q

    # on P, x = 0, F and its u-partials vanish (F contains P); the conics left
    # are the x-partials' terms free of x, as forms in u
    on_p = [{eu: t[(0, 0, 0)] for eu, t in p.items() if (0, 0, 0) in t} for p in split[:3]]
    on_p = [pack_lines(conic, q, w) for conic in on_p]
    found = [(0, 0, 0) + u for u in common_zeros(on_p, p2_lines(q), q, w)]

    for (a, b), ts in p2_lines(q):
        dl, pl = line_lanes(packed_delta, a, b, q, w), line_lanes(packed_phi, a, b, q, w)
        hits = [t for t in ts if not pl[t] % q]
        tested += sum(1 for t in ts if pl[t] % q and dl[t] % q)  # full-rank strata skipped
        for t in hits:
            x = (a, b, t)
            det = dl[t] % q
            if det:
                inv = pow(det, -1, q)
                base, kernel = [n * inv % q for n in form_values(num_forms, x, q)], []
            else:
                *at_x, f0 = [v % q for v in lanes(sum(c * a**i * b**j * t**k for (i, j, k), c in stack), 13, 64)]
                rows = [at_x[0:4], at_x[4:8], at_x[8:12]]
                solved = _solve_singular_mod(rows, q)
                if solved is None:
                    continue
                base, kernel = solved
            tested += q ** len(kernel)
            if tested > ORACLE_BUDGET:
                raise InputError(over_budget)
            # 2 F(x, u0) = 2 f + b.u0, as A u0 = -b
            if kernel and (2 * f0 + sum(r[3] * u for r, u in zip(rows, base))) % q:
                continue
            fixed, cands = [], [] if kernel else [base]
            if kernel:
                *outer, v = kernel
                for ks in product(range(q), repeat=len(outer)):
                    u0 = [(c + sum(s * k[i] for s, k in zip(ks, outer))) % q for i, c in enumerate(base)]
                    line = [[(c + s * d) % q for c, d in zip(u0, v)] for s in (0, 1, -1)]
                    roots = _coset_roots(((value(x, fixed, n, u) for u in line) for n in range(3)), q)
                    cands += [[(c + s * d) % q for c, d in zip(u0, v)] for s in roots]
            found += [x + tuple(u) for u in cands if not any(value(x, fixed, n, u) for n in range(7))]
        if tested > ORACLE_BUDGET:
            raise InputError(over_budget)

    pts = [ProjPoint(q, coords, "p5") for coords in found]
    return sorted_points(pts)


def _cramer_forms(rows: list, f: dict, q: int) -> tuple:
    """(Delta, Phi, N) for rows [A | b] and f of forms in x, as residue terms
    mod q: Delta = det A, N = -adj(A) b, so that A N = -Delta b, and Phi =
    2 Delta f + b.N, which is 2 Delta F(x, u0) where u0 = N/Delta.  By
    Cramer's rule N_k is minus det A with its column k replaced by b, and
    Phi is the determinant of A bordered by b and 2 f."""
    a = [row[:3] for row in rows]
    b = [row[3] for row in rows]
    num = [det_terms([r[:k] + [c] + r[k + 1 :] for r, c in zip(a, b)], q) for k in range(3)]
    bordered = [r + [c] for r, c in zip(a, b)] + [b + [{e: 2 * c for e, c in f.items()}]]
    return det_terms(a, q), det_terms(bordered, q), [{e: -c % q for e, c in n.items()} for n in num]


def _coset_roots(quadratics, q: int) -> list[int]:
    """The common roots s in F_q of quadratics in s, each given by its values
    at s = 0, 1, -1 (q odd): those of their gcd, none when it is constant and
    every s when it is zero."""
    g, half = [], (q + 1) // 2
    for g0, g1, gm in quadratics:
        g = gcd_mod(g, [g0, (g1 - gm) * half, (g1 + gm) * half - g0], q)
        if len(g) == 1:
            return []
    return [-g[0] % q] if len(g) == 2 else [s for s in range(q) if not horner_mod(g, s, q)]


def _solve_singular_mod(rows: list[list[int]], q: int):
    """Solutions u of A u + b = 0 (mod q) for residue rows [A | b], A
    symmetric with det A = 0: None when there are none, else (u0, kernel), one
    solution and a basis of the kernel of A, all in closed form.  When a
    principal 2x2 minor m_k of A is nonzero (there is one when A has rank 2,
    since adj A = c v v^T != 0), the first such k gives equations i, j by
    Cramer's rule with u_k = 0, consistent exactly when equation k holds, and
    the kernel v with v_k = 1 from the same minor.  Otherwise A has rank <= 1,
    A = c w w^T.  A nonzero A_kk makes column k span the image: the system is
    consistent exactly when b_i A_kk = b_k A_ik for every i, u0 = -(b_k /
    A_kk) e_k, and the kernel is spanned by e_j - (A_kj / A_kk) e_k, j != k.
    With every A_kk zero, A = 0 and u is free when b = 0."""
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        minor = (rows[i][i] * rows[j][j] - rows[i][j] * rows[j][i]) % q
        if minor:
            inv = pow(minor, -1, q)
            u0, v = [0] * 3, [0] * 3
            v[k] = 1
            for w, c in ((u0, 3), (v, k)):  # rows i, j of A w = -column c
                w[i] = (rows[i][j] * rows[j][c] - rows[j][j] * rows[i][c]) * inv % q
                w[j] = (rows[j][i] * rows[i][c] - rows[i][i] * rows[j][c]) * inv % q
            if (rows[k][i] * u0[i] + rows[k][j] * u0[j] + rows[k][3]) % q:
                return None
            return u0, [v]
    k = next((k for k in range(3) if rows[k][k]), None)
    if k is None:
        return None if any(r[3] for r in rows) else ([0] * 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    akk, bk = rows[k][k], rows[k][3]
    if any((r[3] * akk - bk * r[k]) % q for r in rows):
        return None
    inv = pow(akk, -1, q)
    u0, kernel = [0] * 3, []
    u0[k] = -bk * inv % q
    for j in range(3):
        if j != k:
            v = [0] * 3
            v[j], v[k] = 1, -rows[k][j] * inv % q
            kernel.append(v)
    return u0, kernel


def assembly_points_mod_q(rep: SymDetRep, q: int) -> list[ProjPoint]:
    """Sing(X)(F_q) assembled from the rank stratification, for oracle comparison."""
    return singular_locus_X(reduce_rep(rep, checked_prime(q))).points


def oracle_matches_assembly(rep: SymDetRep, q: int) -> tuple[bool, list, list]:
    # the assembly first: a rep it rejects raises before the oracle's scan
    assembled = assembly_points_mod_q(rep, q)
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


def couples_and_intersections(rep: SymDetRep) -> CouplesReport:
    rank2 = [r for r in rep.classification.records if r.rank == 2]
    rank2.sort(key=lambda r: r.point.sort_key())
    pairs = [split_rank2_fiber(rep, r.point, r.gram) for r in rank2]
    live = [pr for pr in pairs if not pr.degenerate]
    notes = []
    if any(pr.root is None for pr in pairs):
        notes.append("some couples split only over a quadratic extension")
    n_degen = len(pairs) - len(live)
    if n_degen:
        notes.append(
            f"{n_degen} rank-2 fiber(s) have an identically-zero conic block: "
            "the fiber quadric contains the projection plane P itself and is "
            "excluded from cross-intersection checks"
        )
    return CouplesReport(pairs=pairs, cross_ok=_cross_ok(live), notes=notes)


def _cross_ok(pairs: list) -> bool:
    """Planes from distinct couples meet in single points.

    The planes over two distinct points lie in span(P, p) and span(P, p'),
    which meet exactly in P.  Inside P a plane is the line of its form's
    u-part, and two cross planes meet in one point unless those lines
    coincide.  So no key of `_line_keys` may occur for two couples.
    """
    seen: set = set()
    for pair in pairs:
        if not seen.isdisjoint(pair.lines):
            return False
        seen |= pair.lines
    return True


def _line_keys(au, bu, disc: int, root, q: int) -> frozenset:
    """Keys of a couple's lines inside P, from the integer u-parts au, bu of
    alpha and beta of `split_rank2_fiber`, disc, and root, a square root of
    disc in the base field or None: two couples share a line exactly when
    they share a key.  A line over the base field is its own key as a
    `primitive` vector (over Q with a positive lead, over F_q with lead 1):
    the one line when au and bu are dependent, both lines au +- s bu of a
    base-field split otherwise.  Two conjugate lines share one key, their
    primitive product: a couple holding one of them holds the other too,
    since a quadratic extension holding the lines of both couples has a
    single conjugation."""
    if not any(residue(c, q) for c in cross(au, bu)):
        return frozenset({primitive(au if any(residue(c, q) for c in au) else bu, q)})
    if root is not None:
        return frozenset(primitive([x + s * y for x, y in zip(au, bu)], q) for s in (int(root), -int(root)))
    entries = combinations_with_replacement(range(3), 2)
    return frozenset({primitive([au[i] * au[j] - disc * bu[i] * bu[j] for i, j in entries], q)})
