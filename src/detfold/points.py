"""Projective points in canonical form (first nonzero coordinate scaled to 1)."""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra.fields import format_coeff, fraction_mod
from .errors import InputError

SPACE_DIMS = {"x": 3, "u": 3, "p5": 6}


class ProjPoint:
    """Immutable projective point over the field of characteristic q,
    canonically scaled: Fraction coordinates over Q, residues over F_q."""

    __slots__ = ("coords", "space", "q")

    def __init__(self, q: int, coords, space: str):
        if space not in SPACE_DIMS:
            raise InputError(f"unknown ambient space {space!r}")
        if len(coords) != SPACE_DIMS[space]:
            raise InputError(
                f"point in {space} needs {SPACE_DIMS[space]} coordinates, got {len(coords)}"
            )
        if q:
            coords = tuple(c % q if isinstance(c, int) else fraction_mod(c, q) for c in coords)
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise InputError("(0:...:0) is not a projective point")
        if q:
            inv = pow(lead, -1, q)
            coords = tuple(c * inv % q for c in coords)
        else:
            coords = tuple(Fraction(c, lead) for c in coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    def ints(self) -> tuple:
        """(n, den): over Q the primitive integer vector n = den * coords, den
        the lcm of the denominators (the lead coordinate is 1); over F_q the
        coordinates themselves, residues, and 1."""
        if self.q:
            return self.coords, 1
        den = math.lcm(*(c.denominator for c in self.coords))
        return tuple(c.numerator * (den // c.denominator) for c in self.coords), den

    def sort_key(self):
        """Over Q each coordinate's (numerator, denominator), which orders
        the tuples, not the values, and so fixes the printed order."""
        return self.coords if self.q else tuple((c.numerator, c.denominator) for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.space == other.space and self.coords == other.coords and self.q == other.q

    def __hash__(self):
        return hash((self.space, self.coords))

    def __str__(self):
        return "(" + ":".join(map(format_coeff, self.coords)) + ")"

    def __repr__(self):
        return f"ProjPoint{self}"


def sorted_points(points) -> list[ProjPoint]:
    return sorted(points, key=lambda p: p.sort_key())


def format_points(points) -> str:
    pts = sorted_points(points)
    return "; ".join(str(p) for p in pts) if pts else "-"


# Budgets of the exhaustive F_q scans.  Over budget a scan raises InputError
# (exit 3): a P^2 scan before it starts, the oracle as soon as its count of
# points to test passes the budget.
P2_SCAN_BUDGET = 10**6  # points of P^2(F_q) one plane-solution scan visits: q <= 997
ORACLE_BUDGET = 10**5  # points the fourfold oracle tests: q <= 181 when every stratum has full rank


def p2_lines(q: int):
    """P^2(F_q) one line at a time: pairs ((a, b), ts) whose points are the
    canonical representatives (a : b : t), t in ts.  The lines are (1 : b : t)
    for each b, then (0 : 1 : t), then the single point (0 : 0 : 1)."""
    for b in range(q):
        yield (1, b), range(q)
    yield (0, 1), range(q)
    yield (0, 0), (1,)
