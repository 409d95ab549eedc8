"""Symmetric 4x4 determinantal representations and their derived equations.

The matrix has linear forms in the upper-left 3x3 block, quadrics down the
last column/row, and a cubic in the corner.  Its determinant is a plane
sextic; the same data assembles a cubic fourfold containing the plane
P = {x1=x2=x3=0}, with the fiber coordinates (u1,u2,u3,t) embedded into P^5
by (u:t) -> (t*a, t*b, t*c, u1, u2, u3) over p = (a:b:c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from operator import mul

from .algebra import cross, field_name, int_rank_det, primitive, residue
from .algebra.fields import fraction_mod
from .algebra.multipoly import clear_denominators, degree, dense, det_terms, form_values, mul_terms, residues
from .errors import InputError, Rejection
from .points import ProjPoint

# the places (i, j), i <= j, on and above the diagonal of a symmetric 4x4 matrix
UPPER = tuple((i, j) for i in range(4) for j in range(i, 4))


# degree required of entry (i, j); zero entries are allowed anywhere
def _expected_degree(i: int, j: int) -> int:
    if i < 3 and j < 3:
        return 1
    if i == 3 and j == 3:
        return 3
    return 2


@dataclass(frozen=True)
class SymDetRep:
    q: int  # the characteristic of the rep's field: 0 for Q, the prime for F_q
    # the entries at `UPPER` as the integer terms of c M (residues over F_q),
    # and c, the lcm of their denominators (1 over F_q)
    upper: tuple
    den: int = 1
    # factorization of the sextic, multiplicity 1 each, as integer terms at
    # a common denominator of their own; set by validate_rep
    components: tuple | None = dc_field(default=None, compare=False)
    # characteristic -> this rep reduced into it, kept by reduce_rep
    reductions: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)

    def entry(self, i: int, j: int) -> dict:
        """The integer terms of entry (i, j) of c M."""
        return self.upper[UPPER.index((min(i, j), max(i, j)))]

    def _block(self, n: int) -> list:
        """The upper-left n x n block of c M as integer terms."""
        return [[self.entry(i, j) for j in range(n)] for i in range(n)]

    @cached_property
    def sextic_terms(self) -> dict:
        """det(c M) = c^4 det M, degree 6 in x, as integer terms (residues
        over F_q); expanded once, by `validate_rep`."""
        return det_terms(self._block(4), self.q)

    @cached_property
    def d_terms(self) -> dict:
        """c^3 D as integer terms, D the cubic det of the linear 3x3 block."""
        return det_terms(self._block(3), self.q)

    @cached_property
    def fourfold_terms(self) -> dict:
        """c F as integer terms in x and u (residues over F_q), F = u^T L u +
        2 q . u + f from the linear block L, the quadrics q of the last
        column and the corner cubic f: F = z^T M z at z = (u1, u2, u3, 1), so
        entry (i, j), i <= j, gives its terms times z_i z_j, doubled for
        i != j, and no term needs a product."""
        terms: dict = {}
        for (i, j), t in zip(UPPER, self.upper):
            u = tuple((i == k) + (j == k) for k in range(3))
            for e, c in t.items():
                terms[e + u] = c if i == j else 2 * c
        return residues(terms, self.q)

    @cached_property
    def gram_forms(self) -> list:
        """The entries of c M at `UPPER` as `dense` forms."""
        return [dense(t, _expected_degree(*ij)) for ij, t in zip(UPPER, self.upper)]

    @cached_property
    def classification(self):
        """The singularity classification of the sextic over the rep's field."""
        from .curves import classify_singularities

        return classify_singularities(self)


def validate_rep(entries, q: int, components: tuple | list | None = None) -> SymDetRep:
    """Check symmetry, the (1,1,1;2;3) degree profile, and det != 0 of a
    matrix of term dicts in x1, x2, x3 over the field of characteristic q; a
    factorization of the sextic, when given, must multiply out to it up to
    a scalar and have no two proportional components, both checked on the
    components' integer terms, which the rep keeps."""
    if len(entries) != 4 or any(len(r) != 4 for r in entries):
        raise Rejection("matrix must be 4x4")
    for i in range(4):
        for j in range(4):
            e = entries[i][j]
            if e:
                if len({sum(m) for m in e}) > 1:
                    raise Rejection(f"entry ({i+1},{j+1}) is not homogeneous")
                want = _expected_degree(i, j)
                if degree(e) != want:
                    raise Rejection(
                        f"entry ({i+1},{j+1}) has degree {degree(e)}, expected {want}"
                    )
    for i in range(4):
        for j in range(i + 1, 4):
            if entries[i][j] != entries[j][i]:
                raise Rejection(
                    f"matrix is not symmetric: entry ({i+1},{j+1}) differs from ({j+1},{i+1})"
                )
    upper, den = clear_denominators([entries[i][j] for i, j in UPPER], q)
    # each component is cleared apart from the entries, so den stays their lcm
    comps = None if components is None else tuple(clear_denominators(list(components), q)[0])
    rep = _curve(SymDetRep(q, tuple(upper), den, comps))
    if comps is not None:
        prod = reduce(lambda a, b: mul_terms(a, b, q), comps, {(0, 0, 0): 1})
        # a pair of forms is proportional when both have the same monomials
        # and their coefficient rows have rank at most 1
        proportional = [
            a.keys() == b.keys() and int_rank_det([list(a.values()), [b[e] for e in a]], q)[0] <= 1
            for a, b in [(prod, rep.sextic_terms), *combinations(comps, 2)]
        ]
        if not proportional[0]:
            raise Rejection("component product does not equal the curve equation")
        if any(proportional[1:]):
            raise Rejection("repeated component; curve is not reduced")
    return rep


def _curve(rep: SymDetRep) -> SymDetRep:
    if not rep.sextic_terms:
        raise Rejection("determinant vanishes identically; the discriminant sextic is not a curve")
    return rep


def reduce_rep(rep: SymDetRep, q: int) -> SymDetRep:
    """The representation over the field of characteristic q: rep itself when
    it already lies there, otherwise, once per prime q, its integer terms
    reduced mod q and divided by c there.  When q divides c the first
    coefficient whose denominator q divides is refused, as `fraction_mod`
    refuses it.  The reduction needs none of `validate_rep`'s shape checks: a
    form reduced mod q keeps its degree or vanishes, and `UPPER` makes it
    symmetric; only its determinant may vanish.  The factorization stays
    behind: the F_q scan needs none."""
    if rep.q == q:
        return rep
    if rep.q:
        name = field_name(rep.q)
        raise InputError(f"a representation over {name} can only be analysed over {name}")
    if q not in rep.reductions:
        if not rep.den % q:  # refuse the first coefficient that cannot be reduced
            for t in rep.upper:
                for c in t.values():
                    fraction_mod(Fraction(c, rep.den), q)
        inv = pow(rep.den, -1, q)
        upper = tuple(residues({e: c * inv for e, c in t.items()}, q) for t in rep.upper)
        rep.reductions[q] = _curve(SymDetRep(q, upper))
    return rep.reductions[q]


def gram_rank_kernel(rep: SymDetRep, p: ProjPoint):
    """Gram matrix of the fiber quadric Q_p in coordinates (u1,u2,u3,t), its
    rank, and at rank 3 a kernel vector at p (else None).  The matrix is
    `SymDetRep.gram_forms` at n = den p (`ProjPoint.ints`): entry (i, j) has
    degree 1 + [i = 3] + [j = 3], so it is c den S G S for G the matrix at p
    and S = diag(1, 1, 1, den), with G's rank and zero entries, and its
    kernel v gives G's kernel S v, returned `primitive`."""
    if p.space != "x":
        raise Rejection("fiber points live in the plane of the discriminant curve")
    q = rep.q
    n, den = p.ints()
    upper = dict(zip(UPPER, form_values(rep.gram_forms, n, q)))
    gram = [[upper[min(i, j), max(i, j)] for j in range(4)] for i in range(4)]
    rank = int_rank_det(gram, q)[0]
    if rank <= 1:
        raise Rejection(
            f"fiber Gram matrix at {p} has rank {rank} <= 1; "
            "not a valid determinantal representation"
        )
    kernel = None
    if rank == 3:
        for k in range(4):
            # at rank 3 the adjugate is s v v^T != 0; column k, up to sign,
            # is the signed 3x3 minors of the rows other than k
            rows = [row for r, row in enumerate(gram) if r != k]
            v = []
            for i in range(4):
                a, b, c = ([x for m, x in enumerate(row) if m != i] for row in rows)
                v.append((-1) ** i * sum(map(mul, a, cross(b, c))))
            if any(residue(x, q) for x in v):
                break
        kernel = primitive(v[:3] + [den * v[3]], q)
    return gram, rank, kernel


def vanishes_on_plane(F: dict, basis: list, q: int = 0) -> bool:
    """True when the cubic form F, given by integer terms in x1..x3, u1..u3
    (residues over F_q, q > 0), vanishes on the plane of P^5 spanned by three
    vectors b1, b2, b3 (of integers or fractions), checked at the ten points
    i b1 + j b2 + k b3 with i + j + k = 3, each cleared of denominators.
    Exact when 2 and 3 are invertible: as a polynomial in (i, j), with
    k = 3 - i - j, F on the plane has degree 3 and the four distinct roots
    i = 0..3 on the line j = 0, so j divides it, and the quotient vanishes
    at the six points with j >= 1, where the same argument runs one degree
    lower."""
    for i in range(4):
        for j in range(4 - i):
            k = 3 - i - j
            v = [i * a + j * b + k * c for a, b, c in zip(*basis)]
            den = math.lcm(*(x.denominator for x in v))
            n = [x.numerator * (den // x.denominator) for x in v]
            if residue(sum(c * math.prod(map(pow, n, e)) for e, c in F.items()), q):
                return False
    return True


def embed_fiber_vector(p: ProjPoint, vec) -> tuple:
    """The integer vector of the point (t p : u) of P^5 over p for an integer
    fiber vector vec = (u1, u2, u3, t): (t n, den u), n = den p
    (`ProjPoint.ints`)."""
    n, den = p.ints()
    *u, t = vec
    return tuple(t * c for c in n) + tuple(den * c for c in u)
