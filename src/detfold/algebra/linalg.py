"""Exact linear algebra on integer matrices and vectors, over Q or F_q."""

from __future__ import annotations

import math

from .fields import residue


def int_rank_det(rows: list[list[int]], q: int = 0) -> tuple[int, int]:
    """Rank and determinant (0 unless square of full rank) of an integer
    matrix over Q (q = 0) or over F_q, by fraction-free elimination (Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 22, 1968) that skips columns without a pivot.
    Each entry after a step is a minor of the matrix, so over Q the division
    by the previous pivot is exact; over F_q it is a product with its inverse."""
    m = [list(r) for r in rows]
    rank, prev, sign = 0, 1, 1
    for col in range(len(m[0]) if m else 0):
        sel = next((r for r in range(rank, len(m)) if residue(m[r][col], q)), None)
        if sel is None:
            continue
        if sel != rank:
            m[rank], m[sel], sign = m[sel], m[rank], -sign
        top, pv = m[rank], m[rank][col]
        inv = pow(prev, -1, q) if q else None
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            m[r] = [(a * pv - f * b) * inv % q if q else (a * pv - f * b) // prev for a, b in zip(m[r], top)]
        rank, prev = rank + 1, pv
    square = bool(m) and rank == len(m) == len(m[0])
    return rank, residue(sign * prev, q) if square else 0


def primitive(v, q: int = 0) -> tuple:
    """The canonical multiple of a nonzero integer vector: over Q (q = 0)
    divided by the gcd of its entries, with its first nonzero entry positive;
    over F_q the residues scaled so that entry is 1."""
    lead = next(c for c in v if residue(c, q))
    if q:
        inv = pow(lead, -1, q)
        return tuple(c * inv % q for c in v)
    g = math.gcd(*v) if lead > 0 else -math.gcd(*v)
    return tuple(c // g for c in v)


def cross(a, b) -> tuple:
    """The cross product of two 3-vectors."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
