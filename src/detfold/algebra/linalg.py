"""Exact linear algebra over a field, plus fraction-free integer determinants."""

from __future__ import annotations

from ..errors import InputError


def _echelon(rows: list[list], ncols: int, field):
    """Gauss-Jordan elimination shared by the routines below.

    Returns the reduced rows, the (row, column) of each pivot in order, and
    the product of the pivots signed by the row swaps (the determinant when
    the matrix is square of full rank).
    """
    m = [[field.coerce(c) for c in row] for row in rows]
    det = field.one()
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
        inv = field.one() / pv
        m[prow] = [c * inv for c in m[prow]]
        for r in range(len(m)):
            if r != prow and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[prow])]
        pivots.append((prow, col))
    return m, pivots, det


def _kernel_basis(m: list[list], pivots: list, ncols: int, field) -> list[list]:
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [field.zero()] * ncols
        v[fc] = field.one()
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
    return rank, det if rank == n else field.zero(), _kernel_basis(m, pivots, n, field)


def matrix_rank(rows: list[list], field) -> int:
    """Rank of an arbitrary (possibly rectangular) matrix."""
    if not rows:
        return 0
    return len(_echelon(rows, len(rows[0]), field)[1])


def int_det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (Bareiss, fraction-free)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError("determinant expects a square matrix")
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            sel = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if sel is None:
                return 0
            m[k], m[sel] = m[sel], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
