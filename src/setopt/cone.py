"""Polyhedral ordering cones and the margin calculus.

A cone is kept in H-representation, ``K = {y : A y >= 0}``, together
with a fixed interior direction ``e``.  Because ``A e > 0`` holds
componentwise, every shifted comparison ``y' (rel) y - eps*e`` reduces
to a single scalar threshold: the margin

    margin(y', y) = min_j  a_j.(y - y') / a_j.e

satisfies ``y' <=_K y - eps*e`` iff ``eps <= margin`` and
``y' <_K y - eps*e`` (interior) iff ``eps < margin``.  The whole
library leans on this reduction, so the cone must be validated before
anything else runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (Num, Vec, div, dot, norm_sq, num_finite,
                    resolve_tol, vsub)
from .errors import DimMismatch, NotInterior, NotPointed, ValidationError, ZeroRow
from .lp import LinearProgram, lp_feasible

DEFAULT_GAMMA = Fraction(1, 2)


@dataclass(frozen=True)
class Cone:
    rows: tuple  # J x m, rows a_j of the H-representation
    e: tuple     # interior direction, A e > 0
    m: int
    row_e: tuple  # a_j.e per row, positive; fixed once by validate_cone


def _rank(rows, m, tol) -> int:
    work = [list(r) for r in rows]
    rank = 0
    for col in range(m):
        pivot_row = None
        best = tol
        for i in range(rank, len(work)):
            if abs(work[i][col]) > best:
                best = abs(work[i][col])
                pivot_row = i
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        prow = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = div(work[i][col], prow[col])
                work[i] = [v - f * p for v, p in zip(work[i], prow)]
        rank += 1
        if rank == m:
            break
    return rank


def validate_cone(rows, e, tol=None) -> Cone:
    """Check pointedness, solidness, and well-formedness; return the cone.

    Raises ``ZeroRow``, ``NotPointed`` (rank deficiency), or
    ``NotInterior`` (some a_j.e <= 0).
    """
    rows = tuple(tuple(r) for r in rows)
    e = tuple(e)
    if not rows:
        raise ValidationError("cone needs at least one row")
    m = len(e)
    if m == 0:
        raise DimMismatch("interior direction is empty")
    for row in rows:
        if len(row) != m:
            raise DimMismatch(f"cone row of length {len(row)}, expected {m}")
    for v in e:
        if not num_finite(v):
            raise ValidationError("non-finite entry in interior direction")
    tol = resolve_tol(tol, *(v for row in rows for v in row), *e)
    for j, row in enumerate(rows):
        if any(not num_finite(v) for v in row):
            raise ValidationError(f"non-finite entry in cone row {j}")
        if all(abs(v) <= tol for v in row):
            raise ZeroRow(f"cone row {j} is zero")
    row_e = tuple(dot(row, e) for row in rows)
    for j, de in enumerate(row_e):
        if de <= tol:
            raise NotInterior(f"row {j} has a_j.e <= 0; e is not interior")
    if _rank(rows, m, tol) < m:
        raise NotPointed(f"cone rows have rank < {m}; cone is not pointed")
    return Cone(rows=rows, e=e, m=m, row_e=row_e)


def margin(y_from: Vec, y_to: Vec, cone: Cone) -> Num:
    """Largest eps with ``y_from <=_K y_to - eps*e`` (may be negative)."""
    d = vsub(y_to, y_from)
    return min(div(dot(row, d), de)
               for row, de in zip(cone.rows, cone.row_e))


def r_epsilon_sq(cone: Cone, eps: Num, gamma: Num = DEFAULT_GAMMA) -> Num:
    """Squared ball radius around eps*e that stays strictly inside the cone.

    Exact for rational data; used by the covering-based budget bound so
    that ball-membership tests stay threshold comparisons.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if not 0 < gamma < 1:
        raise ValidationError("gamma must lie strictly between 0 and 1")
    ratio_sq = min(div(de ** 2, norm_sq(row))
                   for row, de in zip(cone.rows, cone.row_e))
    return (gamma * eps) ** 2 * ratio_sq


def r_epsilon(cone: Cone, eps: Num, gamma: Num = DEFAULT_GAMMA) -> float:
    """Radius r with ``eps*e + r*B`` inside the cone interior (gamma < 1)."""
    return math.sqrt(float(r_epsilon_sq(cone, eps, gamma)))


def in_dual_cone(v: Vec, cone: Cone, tol=None) -> bool:
    """True iff v = A^T lambda for some lambda >= 0."""
    if len(v) != cone.m:
        raise DimMismatch("vector dimension differs from cone dimension")
    nrows = len(cone.rows)
    eq_lhs = tuple(tuple(cone.rows[j][d] for j in range(nrows))
                   for d in range(cone.m))
    prog = LinearProgram(
        objective=(0,) * nrows,
        eq_lhs=eq_lhs,
        eq_rhs=tuple(v),
        lower_bounds=(0,) * nrows,
    )
    return lp_feasible(prog, tol=tol).feasible
