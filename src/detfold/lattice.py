"""Gram-matrix bookkeeping for the codimension-2 cycle classes spanned by the
projection plane and one plane from each couple.

With m couples the chosen classes are P, the second plane of the first
couple, and the first planes of all m couples: an (m+2)x(m+2) intersection
matrix with 3 on the diagonal, -1 against P and inside the first couple,
and 1 everywhere else.  Its determinant is computed exactly; a nonzero value
certifies rank m+2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import int_rank_det
from .errors import InputError, Rejection

# pairwise products underlying the Gram pattern
PLANE_SELF = 3  # P.P and P_{i,j}.P_{i,j}
PLANE_VS_P = -1  # P_{i,j}.P
WITHIN_COUPLE = -1  # P_{i,1}.P_{i,2}
ACROSS_COUPLES = 1  # P_{i,k}.P_{j,h}, i != j

# couples lie over nodes of a reduced nodal plane sextic, which has at most 15
MAX_COUPLES = 15


@dataclass(frozen=True)
class Ns2Report:
    m: int
    class_count: int
    gram: tuple
    det: int
    rank: int
    rank_lower_bound: int


def ns2_gram(m: int) -> Ns2Report:
    """Intersection matrix for m couples of planes plus the plane P."""
    if m < 1:
        raise Rejection("need at least one couple of planes")
    if m > MAX_COUPLES:
        raise InputError(f"{m} couples: a nodal plane sextic has at most {MAX_COUPLES} nodes")
    n = m + 2
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                gram[i][j] = PLANE_SELF
            elif i == 0 or j == 0:
                gram[i][j] = PLANE_VS_P
            elif {i, j} == {1, 2}:
                gram[i][j] = WITHIN_COUPLE
            else:
                gram[i][j] = ACROSS_COUPLES
    det = int_rank_det(gram)[1]
    return Ns2Report(
        m=m,
        class_count=2 * m + 1,
        gram=tuple(tuple(row) for row in gram),
        det=det,
        rank=n,
        rank_lower_bound=m + 2,
    )
