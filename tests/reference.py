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
term off F, independently of M; `SymDetRep.gram_forms` at p give half of it.

`monic`, `gcd_poly`, `derivative` and `is_squarefree` are the former
univariate routines on field elements that detfold no longer needs.

`poly_resultant` and `poly_resultant_vanishes` take `resultant` and
`resultant_vanishes`, which work on integer terms, to polynomials over
their field.  `ReferenceParser` and `reference_parse_poly` are the former
parser, which built every sub-expression as a polynomial.

`ints` clears a polynomial of denominators, for the detfold routines that
take integer terms.  `evaluate`, `diff`, `involves` and `map_field` are the
former polynomial methods for values at points, partials, the variables a
polynomial involves and reduction mod q, which detfold no longer needs: it
reads the integer terms its representation holds.

`Poly` is a term dict over the field of characteristic q (0 for Q), the
former polynomial class, with its ring operations: the constructors
`zero`, `constant` and `variable`, `+`, `-`, `*`, `**` and `scale`.
`degree_in`, `substitute`, `lead` and `try_divide` are the former methods
that went with them, and `_to_unicoeffs` the former coefficient list of a
univariate polynomial.  detfold builds its polynomials through the parser
or from integer terms, and its factorization checks multiply and divide
integer terms; the references and the tests build theirs with these.
`parse` reads one from text, and `rep_entry`, `rep_sextic`, `rep_d_cubic`
and `rep_fourfold` read M's entries, det M, D and F off a representation,
which holds their integer terms.

Over F_q these references compute with `Residue`, an int in [0, q) whose
operators stay in F_q; `coerce` takes an int or Fraction into the field of
characteristic q, a plain residue over F_q or a Fraction over Q, and `elt`
to a field element here.  A `Residue` is an int, so detfold takes it back
as the residue it is.  `field_sqrt` is the former square root in a field.

`_echelon`, `matrix_rank` and `kernel_rank_det` (Gauss-Jordan on field
elements) and the `field_` routines are the former per-point path, which
the integer vector of each point replaced: the node test
(`field_is_node`), the fiber's Gram matrix, rank and kernel
(`field_gram_rank_kernel`), the split of a rank-2 fiber into a
`FieldPlanePair`, its check against F (`_field_verify_pair`) and the keys
of its lines (`_field_line_keys`, `field_cross_ok`).  `pair_ints` takes a
couple's base-field data to the integers `fourfold._verify_pair` and
`fourfold._line_keys` take.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import index

from detfold.algebra import VARS_X, VARS_XU, format_terms, parse_poly, resultant, resultant_vanishes, unipoly
from detfold.algebra.fields import fraction_mod, isqrt_exact, sqrt_mod
from detfold.algebra.multipoly import _grlex_key, mul_terms, residues
from detfold.algebra.parser import MAX_NESTING, PolyParseError, _tokenize
from detfold.curves import PlaneSolutions
from detfold.detrep import _expected_degree, validate_rep
from detfold.errors import ConsistencyError, InputError, Rejection
from detfold.points import ProjPoint, p2_lines, sorted_points


class Residue(int):
    """An element of F_q: a residue in [0, q) whose arithmetic with integers
    and other residues is reduced mod q, with division by the inverse."""

    def __new__(cls, v, q):
        self = super().__new__(cls, v % q)
        self.q = q
        return self

    def __add__(self, o):
        return Residue(int(self) + index(o), self.q)

    __radd__ = __add__

    def __sub__(self, o):
        return Residue(int(self) - index(o), self.q)

    def __rsub__(self, o):
        return Residue(index(o) - int(self), self.q)

    def __mul__(self, o):
        return Residue(int(self) * index(o), self.q)

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-int(self), self.q)

    def __truediv__(self, o):
        return Residue(int(self) * pow(index(o), -1, self.q), self.q)

    def __rtruediv__(self, o):
        return Residue(index(o) * pow(int(self), -1, self.q), self.q)

    def __pow__(self, e):
        return Residue(pow(int(self), e, self.q), self.q)


def coerce(q, x):
    """x in the field of characteristic q: a Fraction over Q, a plain
    residue over F_q, where a fraction is reduced by `fraction_mod`."""
    if not isinstance(x, (int, Fraction)):
        raise InputError(f"cannot coerce {x!r} into the field of characteristic {q}")
    if not q:
        return Fraction(x)
    return x % q if isinstance(x, int) else fraction_mod(x, q)


def elt(q, x):
    """x as an element of the field of characteristic q here: a `Residue`
    over F_q, a Fraction over Q."""
    x = coerce(q, x)
    return Residue(x, q) if q else x


def field_sqrt(q, a):
    """A square root of a in the field of characteristic q, or None: over Q
    of a Fraction, from its numerator and denominator."""
    if q:
        return sqrt_mod(a, q)
    a = Fraction(a)
    rn, rd = isqrt_exact(a.numerator), isqrt_exact(a.denominator)
    return None if rn is None or rd is None else Fraction(rn, rd)


class Poly(dict):
    """A polynomial over the field of characteristic q (0 for Q): its term
    dict in `vars`, each coefficient reduced mod q on construction
    (`residues`), so that detfold takes it wherever it takes terms.  It
    knows its degree, equality and printed form, and has the ring operations
    detfold no longer needs: sums, differences, products, powers and scalar
    multiples, each a `Poly`, for the references and for building test
    polynomials."""

    __slots__ = ("q", "vars")

    def __init__(self, q, vars, terms):
        super().__init__(residues(terms, q))
        self.q, self.vars = q, vars

    @classmethod
    def zero(cls, q, vars) -> "Poly":
        return cls(q, vars, {})

    @classmethod
    def constant(cls, q, vars, c) -> "Poly":
        return cls(q, vars, {(0,) * len(vars): coerce(q, c)})

    @classmethod
    def variable(cls, q, vars, name: str) -> "Poly":
        if name not in vars:
            raise InputError(f"unknown variable {name!r}")
        return cls(q, vars, {tuple(1 if v == name else 0 for v in vars): coerce(q, 1)})

    @property
    def terms(self) -> dict:
        return self

    @property
    def is_zero(self) -> bool:
        return not self

    def degree(self):
        """Total degree; None for the zero polynomial."""
        return max(map(sum, self)) if self else None

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self}) <= 1

    def __eq__(self, other):
        if isinstance(other, Poly) and (self.vars, self.q) != (other.vars, other.q):
            return False
        return dict.__eq__(self, other)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.items()))))

    def __str__(self) -> str:
        return format_terms(self, self.vars)

    def __repr__(self):
        return f"Poly({self})"

    def __add__(self, other) -> "Poly":
        _check(self, other)
        terms = dict(self)
        for e, c in other.items():
            terms[e] = terms[e] + c if e in terms else c
        return Poly(self.q, self.vars, terms)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return -(self - other)

    def __neg__(self) -> "Poly":
        return Poly(self.q, self.vars, {e: -c for e, c in self.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        _check(self, other)
        return Poly(self.q, self.vars, mul_terms(self, other))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = coerce(self.q, c)
        return Poly(self.q, self.vars, {e: k * c for e, k in self.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise InputError("negative polynomial power")
        out = Poly.constant(self.q, self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def _check(a, b):
    if not isinstance(b, Poly) or a.vars != b.vars or a.q != b.q:
        raise InputError("polynomial ring mismatch")


def parse(text: str, q: int = 0, vars: tuple = VARS_X) -> Poly:
    """`parse_poly` of text over the field of characteristic q, as a `Poly`."""
    return Poly(q, vars, parse_poly(text, vars, q))


def scaled(rep, terms: dict, n: int, vars: tuple = VARS_X) -> Poly:
    """The polynomial over the rep's field whose c^n multiple has these
    integer terms, c the rep's common denominator."""
    s = rep.den**n
    return Poly(rep.q, vars, terms if s == 1 else {e: Fraction(v, s) for e, v in terms.items()})


def rep_entry(rep, i, j) -> Poly:
    """Entry (i, j) of the rep's matrix M."""
    return scaled(rep, rep.entry(i, j), 1)


def rep_sextic(rep) -> Poly:
    """det M, the discriminant sextic."""
    return scaled(rep, rep.sextic_terms, 4)


def rep_d_cubic(rep) -> Poly:
    """The cubic D, det of the linear 3x3 block of M."""
    return scaled(rep, rep.d_terms, 3)


def rep_fourfold(rep) -> Poly:
    """The fourfold F, in x1..x3, u1..u3."""
    return scaled(rep, rep.fourfold_terms, 1, VARS_XU)


def degree_in(p, var: str) -> int:
    """The degree of p in var; -1 for the zero polynomial."""
    i = p.vars.index(var)
    return max((e[i] for e in p.terms), default=-1)


def substitute(p, mapping: dict) -> Poly:
    """p with scalars (of its field or coercible) put for variables (var
    name -> scalar), in the same ring."""
    subs = [(p.vars.index(v), coerce(p.q, c)) for v, c in mapping.items()]
    out: dict = {}
    for e, c in p.terms.items():
        e = list(e)
        for i, s in subs:
            if e[i]:
                c = c * s ** e[i]
                e[i] = 0
        e = tuple(e)
        out[e] = out.get(e, 0) + c
    return Poly(p.q, p.vars, out)


def lead(p):
    """(exponent, coefficient) of the graded-lex leading term."""
    e = max(p.terms, key=_grlex_key)
    return e, p.terms[e]


def try_divide(p, divisor):
    """The exact quotient p / divisor, or None if division is not exact."""
    _check(p, divisor)
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = Poly(p.q, p.vars, p)
    out = Poly.zero(p.q, p.vars)
    de, dc = lead(divisor)
    while not rem.is_zero:
        re_, rc = lead(rem)
        qe = tuple(a - b for a, b in zip(re_, de))
        if any(k < 0 for k in qe):
            return None
        qterm = Poly(p.q, p.vars, {qe: elt(p.q, rc) / elt(p.q, dc)})
        out = out + qterm
        rem = rem - qterm * divisor
    return out


def _to_unicoeffs(p, var: str) -> list:
    """The coefficient list in var of a polynomial free of every other
    variable."""
    idx = p.vars.index(var)
    out = [coerce(p.q, 0)] * (degree_in(p, var) + 1)
    for e, c in p.terms.items():
        if any(k > 0 for i, k in enumerate(e) if i != idx):
            raise InputError(f"polynomial not univariate in {var}")
        out[e[idx]] = c
    return unipoly.trim(out)


def monic(p: list) -> list:
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def gcd_poly(p: list, q: list, field) -> list:
    """Monic gcd, in plain integers: over F_q Euclid on residues, over Q
    `gcd_int` of the primitive integer parts."""
    if field:
        a, b = ([coerce(field, c) for c in x] for x in (p, q))
        return [elt(field, c) for c in unipoly.gcd_mod(a, b, field)]
    return monic([Fraction(c) for c in unipoly.gcd_int(unipoly._integral(p), unipoly._integral(q))])


def derivative(p: list, field) -> list:
    return unipoly.trim([p[i] * elt(field, i) for i in range(1, len(p))])


def is_squarefree(p: list, field) -> bool:
    if not p:
        return False
    g = gcd_poly(p, derivative(p, field), field)
    return unipoly.deg(g) <= 0


def dense_rep(seed, height):
    """A symmetric (1,1,1;2;3) rep over Q whose upper-triangle entries carry
    every monomial of their degree, each coefficient drawn uniformly from
    [-height, height] by random.Random(seed), entry by entry in row order."""
    rng = random.Random(seed)
    rows = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            d = _expected_degree(i, j)
            terms = {(a, b, d - a - b): Fraction(rng.randint(-height, height))
                     for a in range(d, -1, -1) for b in range(d - a, -1, -1)}
            rows[i][j] = rows[j][i] = Poly(0, VARS_X, terms)
    return validate_rep(rows, 0)


def p2_reps(q):
    """The q^2+q+1 canonical representatives of P^2(F_q), as residue triples,
    generated one at a time."""
    for (a, b), ts in p2_lines(q):
        for t in ts:
            yield (a, b, t)


def ints(p):
    """The integer terms of den * p, den the lcm of p's denominators over Q;
    over F_q its residues."""
    return _cleared(p)[0]


def _cleared(p):
    """(integer terms of den * p, den): over Q den is the lcm of p's
    denominators, over F_q the terms are the residues and den is 1."""
    if p.q:
        return dict(p.terms), 1
    if not all(isinstance(c, (int, Fraction)) for c in p.values()):
        raise InputError("no integer lift of coefficients that are not rationals")
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}, den


def evaluate(p, values):
    """The value of p at a coordinate tuple (scalars of its field or
    coercible): over Q the point and the coefficients are cleared of
    denominators and the sum, homogenized by powers of the point's
    denominator, is divided once; over F_q the sum is of residues."""
    if len(values) != len(p.vars):
        raise InputError(f"dimension mismatch: {len(p.vars)} variables, {len(values)} coordinates")
    q = p.q
    vals = [coerce(q, v) for v in values]
    terms, scale = _cleared(p)
    top = p.degree() or 0
    if q:
        den, xs = 1, vals
    else:
        den = math.lcm(*(v.denominator for v in vals))
        xs = [v.numerator * (den // v.denominator) for v in vals]
    total = sum(c * math.prod(map(pow, xs, e)) * den ** (top - sum(e)) for e, c in terms.items())
    return total % q if q else Fraction(total, scale * den**top)


def diff(p, var):
    """The partial derivative of p in var, in p's ring."""
    i = p.vars.index(var)
    return Poly(p.q, p.vars, {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in p.terms.items() if e[i]})


def involves(p, var) -> bool:
    i = p.vars.index(var)
    return any(e[i] for e in p.terms)


def map_field(p, field):
    """p with its coefficients coerced into field (reduced mod q)."""
    return Poly(field, p.vars, {e: coerce(field, c) for e, c in p.terms.items()})


def euclid_gcd(p, q, field):
    """Monic gcd of two univariates by Euclid on field elements."""
    a, b = ([elt(field, c) for c in unipoly.trim(list(x))] for x in (p, q))
    while b:
        _, r = divmod_poly(a, b, field)
        a, b = b, r
    return monic(a)


def divmod_poly(p, d, field):
    """Quotient and remainder of univariates by long division over field."""
    d = [elt(field, c) for c in unipoly.trim(list(d))]
    if not d:
        raise ZeroDivisionError("univariate division by zero")
    r = [elt(field, c) for c in unipoly.trim(list(p))]
    if len(r) < len(d):
        return [], r
    q = [elt(field, 0)] * (len(r) - len(d) + 1)
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
    g = gcd_poly(p, derivative(p, field), field)
    if unipoly.deg(g) <= 0:
        return monic([elt(field, c) for c in p])
    q, r = divmod_poly(p, g, field)
    if r:
        raise InputError("squarefree division not exact")
    return monic(q)


def _fraction_common_roots(unis: list) -> tuple[dict, int]:
    """Rational roots, with multiplicities, of the gcd of nonzero univariates
    over Q, and the degree of the gcd's part without rational roots."""
    g = unis[0]
    for u in unis[1:]:
        g = gcd_poly(g, u, 0)
    if unipoly.deg(g) == 0:
        return {}, 0
    return unipoly.rational_roots(g)


def fraction_plane_solutions_qq(polys) -> PlaneSolutions:
    """Rational solutions: in the chart x3 = 1 the roots of the eliminants in
    x1, then over each root the roots in x2 of the fibre; on the line x3 = 0
    the point (1:0:0) and the roots in x1 in the chart x2 = 1.  Each candidate
    is tested against every polynomial."""
    pts: set = set()
    unresolved = 0
    one, zero = Fraction(1), Fraction(0)

    def keep(cand):
        if all(not evaluate(p, cand) for p in polys):
            pts.add(ProjPoint(0, cand, "x"))

    # chart x3 = 1
    aff = [substitute(p, {"x3": 1}) for p in polys]
    aff = [p for p in aff if not p.is_zero]
    if not any(p.degree() == 0 for p in aff):
        with_x2 = [p for p in aff if involves(p, "x2")]
        elim = [_to_unicoeffs(p, "x1") for p in aff if not involves(p, "x2")]
        for f, g in combinations(with_x2, 2):
            if len(elim) >= 3:
                break
            r = poly_resultant(f, g, "x2")
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
            fibre = [_to_unicoeffs(substitute(p, {"x1": a}), "x2") for p in aff]
            fibre = [u for u in fibre if u]
            if not fibre:
                raise Rejection("solution set contains a vertical line (positive-dimensional)")
            broots, cof = _fraction_common_roots(fibre)
            unresolved += cof
            for b in broots:
                keep((a, b, one))

    # line x3 = 0
    line = [substitute(p, {"x3": 0}) for p in polys]
    line = [p for p in line if not p.is_zero]
    if not line:
        raise Rejection("system vanishes identically on the line x3=0 (positive-dimensional)")
    if not any(p.degree() == 0 for p in line):
        keep((one, zero, zero))
        roots, cof = _fraction_common_roots([_to_unicoeffs(substitute(p, {"x2": 1}), "x1") for p in line])
        unresolved += cof
        for r in roots:
            keep((r, one, zero))
    return PlaneSolutions(sorted_points(pts), unresolved)


def term_evaluate(f, values):
    """Value of f at a point, one field product at a time."""
    vals = [elt(f.q, v) for v in values]
    total = elt(f.q, 0)
    for e, c in f.terms.items():
        t = elt(f.q, c)
        for v, k in zip(vals, e):
            for _ in range(k):
                t = t * v
        total = total + t
    return total


def term_polar_matrix(F, p):
    """The 4x4 symmetric matrix of 2 B, B the polar form of Q with
    F(t p, u) = t Q(u, t), in the coordinates (u1, u2, u3, t); read off F at
    p in the base field."""
    zero = elt(p.q, 0)
    polar = [[zero] * 4 for _ in range(4)]
    for e, c in F.terms.items():
        c = elt(p.q, c)
        for x, k in zip(p.coords, e[:3]):
            if k:
                c = c * x**k
        # the u-t monomial of this term is z_i z_j; a square gets c twice
        i, j = (n for n, k in enumerate(e[3:] + (2 - sum(e[3:]),)) for _ in range(k))
        polar[i][j] = polar[i][j] + c
        polar[j][i] = polar[j][i] + c
    return polar


def poly_resultant(f, g, var):
    """`resultant` on two polynomials: the resultant in var of their cleared
    integer terms divided by sf^n sg^m, sf and sg their denominators and m, n
    their degrees in var, in their ring."""
    _check(f, g)
    (fi, sf), (gi, sg) = _cleared(f), _cleared(g)
    i = f.vars.index(var)
    r = resultant(fi, gi, i)
    scale = sf ** degree_in(g, var) * sg ** degree_in(f, var)
    return Poly(f.q, f.vars, r if f.q else {e: Fraction(c, scale) for e, c in r.items()})


def poly_resultant_vanishes(f, g, var):
    """`resultant_vanishes` on two polynomials, over their field."""
    _check(f, g)
    return resultant_vanishes(_cleared(f)[0], _cleared(g)[0], f.vars.index(var), f.q)


def bareiss_resultant(f, g, var):
    """Sylvester determinant of f and g in var over the polynomial ring,
    fraction-free (Bareiss)."""
    m, n = degree_in(f, var), degree_in(g, var)
    zero = Poly.zero(f.q, f.vars)
    rows = []
    for p, copies in ((f, n), (g, m)):
        lead_first = list(reversed(coeffs_in(p, var)))
        for i in range(copies):
            rows.append([zero] * i + lead_first + [zero] * (copies - 1 - i))
    size = m + n
    sign, prev = 1, Poly.constant(f.q, f.vars, 1)
    for k in range(size - 1):
        if rows[k][k].is_zero:
            sel = next((i for i in range(k + 1, size) if not rows[i][k].is_zero), None)
            if sel is None:
                return zero
            rows[k], rows[sel] = rows[sel], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                q = try_divide(rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j], prev)
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
    _, pivots, det = _echelon(rows, m + n, 0)
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
    p = [elt(field, c) for c in point.coords]
    return [[t * c for c in p] + u for *u, t in nullspace([list(form)], 4, field)]


def coeffs_in(p, var):
    """Coefficients (as Poly in the same ring) of powers of var, ascending."""
    i = p.vars.index(var)
    buckets = [dict() for _ in range(max(degree_in(p, var), 0) + 1)]
    for e, c in p.terms.items():
        buckets[e[i]][e[:i] + (0,) + e[i + 1 :]] = c
    return [Poly(p.q, p.vars, b) for b in buckets]


def _bivar_content_pp(p, main, aux):
    """Content (univariate in aux) of p seen as a polynomial in main."""
    cont = []
    for c in coeffs_in(p, main):
        u = _to_unicoeffs(c, aux)
        if u:
            cont = gcd_poly(cont, u, p.q) if cont else monic([elt(p.q, c) for c in u])
    return cont


def _uni_to_poly(u, var, field):
    idx = VARS_X.index(var)
    terms = {}
    for k, c in enumerate(u):
        if c:
            e = [0, 0, 0]
            e[idx] = k
            terms[tuple(e)] = c
    return Poly(field, VARS_X, terms)


def _primitive_in(p, main, aux):
    cont = _bivar_content_pp(p, main, aux)
    if unipoly.deg(cont) <= 0:
        return p
    q = try_divide(p, _uni_to_poly(cont, aux, p.q))
    assert q is not None, "content division failed"
    return q


def _pseudo_rem(f, g, main):
    dg = degree_in(g, main)
    lead_g = coeffs_in(g, main)[dg]
    r = f
    while not r.is_zero and degree_in(r, main) >= dg:
        dr = degree_in(r, main)
        lead_r = coeffs_in(r, main)[dr]
        shift = Poly.variable(r.q, r.vars, main) ** (dr - dg)
        r = r * lead_g - g * shift * lead_r
    return r


def bivar_gcd(f, g, main="x1", aux="x2"):
    """GCD of two bivariate polynomials (x3-free) via a primitive PRS."""
    field = f.q
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    if not involves(f, main) and not involves(g, main):
        a = gcd_poly(_to_unicoeffs(f, aux), _to_unicoeffs(g, aux), field)
        return _uni_to_poly(a, aux, field)
    if not involves(f, main) or not involves(g, main):
        free, other = (f, g) if not involves(f, main) else (g, f)
        a = gcd_poly(_to_unicoeffs(free, aux), _bivar_content_pp(other, main, aux), field)
        return _uni_to_poly(a, aux, field)

    ccont = gcd_poly(_bivar_content_pp(f, main, aux), _bivar_content_pp(g, main, aux), field)
    a, b = f, g
    if degree_in(a, main) < degree_in(b, main):
        a, b = b, a
    a = _primitive_in(a, main, aux)
    b = _primitive_in(b, main, aux)
    while not b.is_zero and involves(b, main):
        r = _pseudo_rem(a, b, main)
        a, b = b, _primitive_in(r, main, aux) if not r.is_zero else r
    if b.is_zero:
        gc = a
    elif not involves(b, main):
        # a nonzero remainder free of main kills any main-dependent common part
        gc = Poly.constant(field, f.vars, 1)
    else:
        gc = b
    return gc * _uni_to_poly(ccont if ccont else [coerce(field, 1)], aux, field)


def reference_is_reduced(h):
    """Squarefree test of a plane curve form by the PRS gcd with its partials."""
    if h.is_zero:
        return False
    if min(e[2] for e in h.terms) >= 2:
        return False
    chart = substitute(h, {"x3": 1})
    if chart.degree() == 0:
        return True  # h = c * x3^(0 or 1)
    g1 = bivar_gcd(chart, diff(chart, "x1"))
    g2 = bivar_gcd(g1, diff(chart, "x2"))
    return g2.degree() == 0


# ---------------------------------------------------------------------------
# The former per-point path on field elements
# ---------------------------------------------------------------------------


def _echelon(rows: list[list], ncols: int, field):
    """Gauss-Jordan elimination shared by the routines below.

    Returns the reduced rows, the (row, column) of each pivot in order, and
    the product of the pivots signed by the row swaps (the determinant when
    the matrix is square of full rank).
    """
    m = [[elt(field, c) for c in row] for row in rows]
    det = elt(field, 1)
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        prow = len(pivots)
        if prow == len(m):
            break
        sel = next((r for r in range(prow, len(m)) if m[r][col]), None)
        if sel is None:
            continue
        if sel != prow:
            m[prow], m[sel] = m[sel], m[prow]
            det = -det
        pv = m[prow][col]
        det = det * pv
        inv = elt(field, 1) / pv
        m[prow] = [c * inv for c in m[prow]]
        for r in range(len(m)):
            if r != prow and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[prow])]
        pivots.append((prow, col))
    return m, pivots, det


def matrix_rank(rows: list[list], field) -> int:
    """Rank of an arbitrary (possibly rectangular) matrix."""
    if not rows:
        return 0
    return len(_echelon(rows, len(rows[0]), field)[1])


def _kernel_basis(m: list[list], pivots: list, ncols: int, field) -> list[list]:
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [elt(field, 0)] * ncols
        v[fc] = elt(field, 1)
        for r, pc in pivots:
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def kernel_rank_det(rows: list[list], field) -> tuple[int, object, list[list]]:
    """Rank, determinant and reduced-echelon kernel basis of a square matrix.

    The kernel basis is deterministic: one vector per free column, unit entry
    at the free column, pivot entries back-substituted.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError("kernel_rank_det expects a square matrix")
    m, pivots, det = _echelon(rows, n, field)
    rank = len(pivots)
    return rank, det if rank == n else elt(field, 0), _kernel_basis(m, pivots, n, field)


def field_node_partials(h: Poly) -> tuple:
    """The gradient of h and its Hessian entries h_ij (i <= j), keyed by (i, j),
    derived once for node tests at many points."""
    grad = [diff(h, v) for v in VARS_X]
    hess = {(i, j): diff(grad[i], VARS_X[j]) for i in range(3) for j in range(i, 3)}
    return grad, hess


def field_is_node(h: Poly, p: ProjPoint, partials=None) -> bool:
    """True iff the curve has an ordinary double point (node) at p.

    In the chart where p's leading coordinate x_k is 1, the quadratic part of
    h at p is half the Hessian block on the two other coordinates i, j, so p
    is a node exactly when h_ij^2 - h_ii h_jj != 0 there (char != 2).
    `partials` is `node_partials(h)` when the caller tests many points.
    """
    grad, hess = partials or field_node_partials(h)
    if evaluate(h, p.coords) or any(evaluate(g, p.coords) for g in grad):
        raise Rejection(f"point {p} is not a singular point of the curve")
    k = next(i for i, c in enumerate(p.coords) if c)
    i, j = (m for m in range(3) if m != k)
    hii, hij, hjj = (elt(h.q, evaluate(hess[key], p.coords)) for key in ((i, i), (i, j), (j, j)))
    return bool(hij * hij - hii * hjj)


def field_gram_rank_kernel(rep, p: ProjPoint):
    """Gram matrix of the fiber quadric Q_p in coordinates (u1,u2,u3,t), read
    off the symmetric rep on and above the diagonal, with rank, det and kernel."""
    if p.space != "x":
        raise Rejection("fiber points live in the plane of the discriminant curve")
    vals = p.coords
    upper = {(i, j): elt(rep.q, evaluate(rep_entry(rep, i, j), vals)) for i in range(4) for j in range(i, 4)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(4)] for i in range(4)]
    rank, det, basis = kernel_rank_det(gram, rep.q)
    if rank <= 1:
        raise Rejection(
            f"fiber Gram matrix at {p} has rank {rank} <= 1; "
            "not a valid determinantal representation"
        )
    return gram, rank, det, basis


def field_embed_fiber_vector(p: ProjPoint, vec, field) -> ProjPoint:
    """Send (u1,u2,u3,t) over p=(a:b:c) to (t*a : t*b : t*c : u1 : u2 : u3)."""
    u1, u2, u3, t = (coerce(field, v) for v in vec)
    a, b, c = p.coords
    return ProjPoint(field, (t * a, t * b, t * c, u1, u2, u3), "p5")


def field_fiber_forms(rep) -> dict:
    """F's forms in x of the u-t monomials z_i z_j, keyed by (i, j), i <= j,
    z = (u1, u2, u3, t), a square's form doubled: with F(t p, u) = t Q(u, t),
    the polar matrix of Q at p holds the forms' values at p."""
    forms: dict = {}
    for e, c in rep_fourfold(rep).items():
        i, j = (n for n, k in enumerate(e[3:] + (2 - sum(e[3:]),)) for _ in range(k))
        forms.setdefault((i, j), {})[e[:3]] = c + c if i == j else c
    return {ij: Poly(rep.q, VARS_X, terms) for ij, terms in forms.items()}


@dataclass(frozen=True)
class FieldPlanePair:
    """The couple of planes over p: the hyperplanes (alpha +- s beta) . (u, t)
    = 0 of the fiber 3-space span(P, p), the points (t p, u), with s^2 =
    disc.  alpha, beta and disc lie in the base field; root is s when disc
    is a square there, else None and the planes are conjugate over the
    quadratic extension by sqrt(disc)."""

    point: ProjPoint
    alpha: tuple
    beta: tuple
    disc: object
    root: object | None
    degenerate: bool = False  # one member is the projection plane P itself


def field_split_rank2_fiber(rep, p: ProjPoint, gram=None) -> FieldPlanePair:
    """Write the rank-2 fiber quadric over p as a product of two planes.

    The planes split over the base field when the reduced binary form's
    discriminant is a square, otherwise over the quadratic extension by that
    discriminant; either way the couple is kept as base-field data.  It is
    verified to lie on the fourfold by `_verify_pair`.  `gram` is the fiber's
    Gram matrix when the classification already holds it.
    """
    if gram is None:
        gram, rank, _det, _kern = field_gram_rank_kernel(rep, p)
        if rank != 2:
            raise Rejection(f"fiber at {p} has rank {rank}, not 2; no couple of planes there")

    i, j = _nonsingular_principal_pair(gram)
    # Q(v) = L(v)^T A2^{-1} L(v) with L = rows i, j of the Gram matrix and
    # A2^{-1} = [[a, b], [b, c]], so Q = a z1^2 + 2b z1 z2 + c z2^2 in z = L v
    det2 = gram[i][i] * gram[j][j] - gram[i][j] * gram[j][i]
    a, b, c = gram[j][j] / det2, -gram[i][j] / det2, gram[i][i] / det2
    li, lj = gram[i], gram[j]
    if not a:  # z1 and z2 change roles
        a, c, li, lj = c, a, lj, li
    disc = b * b - a * c
    if a:
        # a Q = (a z1 + b z2)^2 - disc z2^2
        alpha = tuple(x + b / a * y for x, y in zip(li, lj))
        beta = tuple(-y / a for y in lj)
    else:
        # Q = 2b z1 z2 and disc = b^2: alpha +- b beta are z1 and z2
        alpha = tuple((x + y) / 2 for x, y in zip(li, lj))
        beta = tuple((x - y) / (2 * b) for x, y in zip(li, lj))
    # with an identically-zero conic block the fiber quadric contains P
    # itself; flag the pair instead of treating it as an internal error
    pair = FieldPlanePair(
        point=p,
        alpha=alpha,
        beta=beta,
        disc=disc,
        root=field_sqrt(rep.q, disc),
        degenerate=not any(x for row in gram[:3] for x in row[:3]),
    )
    _field_verify_pair(pair, rep)
    return pair


def _nonsingular_principal_pair(gram):
    for i in range(4):
        for j in range(i + 1, 4):
            d = gram[i][i] * gram[j][j] - gram[i][j] * gram[j][i]
            if d:
                return (i, j)
    raise ConsistencyError("rank-2 symmetric matrix without invertible principal 2x2 block")


def _field_verify_pair(pair, rep) -> None:
    """Both planes of a couple lie on the fourfold and meet in a line.

    The planes lie in span(P, p), the points (t p, u), where F(t p, u) =
    t Q(u, t) because F vanishes on P.  With v = (u, t) their product is
    (alpha . v)^2 - disc (beta . v)^2, so both lie on the fourfold when Q is
    a nonzero multiple of it: when the polar matrix of Q, read off F at p,
    is a nonzero multiple of 2 (alpha alpha^T - disc beta beta^T).  The two
    planes are distinct, so meet in a line, exactly when disc != 0 and
    alpha, beta are independent.
    """
    p, alpha, beta, disc = pair.point, pair.alpha, pair.beta, pair.disc
    if not disc or matrix_rank([list(alpha), list(beta)], p.q) < 2:
        raise ConsistencyError("planes of a couple must meet along a line")
    polar = _field_polar_matrix(rep, p)
    upper = [(k, l) for k in range(4) for l in range(k, 4)]  # both matrices are symmetric
    planes = {(k, l): alpha[k] * alpha[l] - disc * beta[k] * beta[l] for k, l in upper}
    lead, pivot = next((polar[k][l], planes[k, l]) for k, l in upper if planes[k, l])
    if not lead or any(polar[k][l] * pivot != planes[k, l] * lead for k, l in upper):
        raise ConsistencyError(f"claimed plane over {p} is not inside the fourfold")


def _field_polar_matrix(rep, p: ProjPoint) -> list:
    """The 4x4 symmetric matrix of 2 B, B the polar form of Q with
    F(t p, u) = t Q(u, t), in the coordinates (u1, u2, u3, t): the forms of
    `field_fiber_forms` at p, in the base field."""
    vals = {ij: elt(p.q, evaluate(form, p.coords)) for ij, form in field_fiber_forms(rep).items()}
    zero = elt(p.q, 0)
    return [[vals.get((min(i, j), max(i, j)), zero) for j in range(4)] for i in range(4)]


def field_cross_ok(pairs: list) -> bool:
    """Planes from distinct couples meet in single points.

    The planes over two distinct points lie in span(P, p) and span(P, p'),
    which meet exactly in P.  Inside P a plane is the line of its form's
    u-part, and two cross planes meet in one point unless those lines
    coincide.  So no key of `_line_keys` may occur for two couples.
    """
    seen: set = set()
    for pair in pairs:
        keys = _field_line_keys(pair)
        if not seen.isdisjoint(keys):
            return False
        seen |= keys
    return True


def _field_line_keys(pair) -> set:
    """Keys of a couple's lines inside P: two couples share a line exactly
    when they share a key.  A line over the base field, normalized to lead
    with 1, is its own key: the one line when alpha and beta have dependent
    u-parts, both lines of a base-field split otherwise.  Two conjugate lines
    share one key, their normalized product: a couple holding one of them
    holds the other too, since a quadratic extension holding the lines of
    both couples has a single conjugation."""
    au, bu = pair.alpha[:3], pair.beta[:3]
    if not any(_field_cross(au, bu)):
        return {_normalized(au if any(au) else bu)}
    if pair.root is not None:
        return {_normalized([x + s * y for x, y in zip(au, bu)]) for s in (pair.root, -pair.root)}
    entries = combinations_with_replacement(range(3), 2)
    return {_normalized([au[i] * au[j] - pair.disc * bu[i] * bu[j] for i, j in entries])}


def _normalized(v) -> tuple:
    lead = next(c for c in v if c)
    return tuple(c / lead for c in v)


def _field_cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def pair_ints(pair):
    """(alpha, beta, disc) of a couple in integers at the integer vector
    n = den p of its point, as `fourfold._verify_pair` and `_line_keys` take
    them: S alpha and S beta, S = diag(1, 1, 1, den), each cleared of
    denominators, and disc rescaled so that the planes
    (alpha +- sqrt(disc) beta) . v = 0 stay the same."""
    if pair.point.q:
        return [int(c) for c in pair.alpha], [int(c) for c in pair.beta], int(pair.disc)
    den = pair.point.ints()[1]
    a, b = ([*v[:3], v[3] * den] for v in (pair.alpha, pair.beta))
    la, lb = (math.lcm(*(c.denominator for c in v)) for v in (a, b))
    dn, dd = pair.disc.numerator, pair.disc.denominator
    return [int(c * la * lb * dd) for c in a], [int(c * la * lb) for c in b], dn * dd


class ReferenceParser:
    """The former parser: every sub-expression a `Poly`, built by its
    ring operations, with products taken term by term on field elements
    (`elt`) and `x^k` by repeated squaring.  It shares the tokenizer and the
    messages of `detfold.algebra.parser` and has no degree limit."""

    def __init__(self, text: str, vars: tuple, q: int):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.vars = vars
        self.q = q

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolyParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolyParseError(f"trailing input {tok[1]!r}", tok[2])
        return p

    def expr(self) -> Poly:
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        p = self.term()
        if negate:
            p = -p
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            p = p + t if op == "+" else p - t
        return p

    def term(self) -> Poly:
        p = self.factor()
        while self.peek()[0] == "*":
            self.take()
            p = self.mul(p, self.factor())
        return p

    def mul(self, a: Poly, b: Poly) -> Poly:
        out = Poly.zero(self.q, self.vars)
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = elt(self.q, c1) * elt(self.q, c2)
                out = out + Poly(self.q, self.vars, {e: c})
        return out

    def power(self, p: Poly, n: int) -> Poly:
        out = Poly.constant(self.q, self.vars, 1)
        while n:
            if n & 1:
                out = self.mul(out, p)
            p = self.mul(p, p)
            n >>= 1
        return out

    def factor(self) -> Poly:
        kind, text, pos = self.peek()
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise PolyParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.take()
            self.depth += 1
            p = self.expr()
            self.take(")")
            self.depth -= 1
            return p
        if kind == "-":
            negate = False
            while self.peek()[0] == "-":
                self.take()
                negate = not negate
            p = self.factor()
            return -p if negate else p
        if kind == "int":
            self.take()
            num = int(text)
            if self.peek()[0] == "/":
                self.take()
                dk, dt, dp = self.take()
                if dk != "int" or int(dt) <= 0:
                    raise PolyParseError("denominator must be a positive integer", dp)
                value = Fraction(num, int(dt))
            else:
                value = Fraction(num)
            return Poly.constant(self.q, self.vars, value)
        if kind == "name":
            self.take()
            if text not in self.vars:
                raise PolyParseError(f"unknown variable {text!r}", pos)
            p = Poly.variable(self.q, self.vars, text)
            if self.peek()[0] == "^":
                self.take()
                ek, et, ep = self.take()
                if ek != "int" or int(et) <= 0:
                    raise PolyParseError("exponent must be a positive integer", ep)
                p = self.power(p, int(et))
            return p
        raise PolyParseError(f"expected a factor, found {text!r}" if text else "unexpected end of input", pos)


def reference_parse_poly(text: str, vars: tuple, q: int) -> Poly:
    """`parse_poly` by `ReferenceParser`, with the same homogeneity check."""
    p = ReferenceParser(text, vars, q).parse()
    if not p.is_homogeneous():
        degs = sorted({sum(e) for e in p.terms})
        raise InputError(f"polynomial is not homogeneous (term degrees {degs}): {text!r}")
    return p
