"""Dense two-phase simplex over floats or exact rationals.

Every linear program arriving here is tiny (tens of variables at most:
polytope membership systems, dual-cone feasibility, slack
maximization), so a tableau with Bland's anti-cycling rule is both
fast enough and easy to trust.

A program whose resolved tolerance is 0 pivots on integers, every
number read exactly (a float is dyadic).  Its standard form is built on
ints, with no ``Fraction`` arithmetic: the rows and right-hand sides are
scaled by the common denominator of their entries times that of the
lower bounds (the artificial columns keep coefficient 1), and the
phase-two objective by its own; every row then shares one positive
denominator ``d``, and each pivot is an Edmonds-Bareiss update
``(t_ij * p - t_ic * t_rj) // d`` that divides exactly.  Scaling every
row by one positive factor multiplies the phase-one objective by that
factor and leaves the ratios unchanged, so each entering and leaving
choice has the sign and the order it has on the ``Fraction`` tableau:
the pivot sequence, status, value and point are the same, and
``Fraction``s are built only for the returned numbers.  A positive
tolerance keeps the dense tableau of true entries compared within
``tol``.

What a right-hand side leaves alone is prepared once per matrix: a
program checks its objective, rows and bounds, decides whether they are
rational and lays out its columns when it is built, and scales them for
a tableau kind on its first solve.  ``LinearProgram._with_ge_rhs``
copies share all of that, so a caller solving one matrix for many
targets (a polytope image, per target point) checks and scales only the
new right-hand side per solve.  The rows were scaled by the common
denominator ``s`` of their own entries; a solve multiplies them by
``lcm(s, r) // s``, ``r`` that of the right-hand sides, and scales the
right-hand sides to ``lcm(s, r)``, so every tableau entry is the one a
single scaling of the whole program gives, and the pivots, status, value
and point are unchanged.  The tolerance is resolved over the program
only when none is given.

Conventions:

* the objective is maximized;
* inequality rows mean ``row . x >= rhs``;
* ``lower_bounds`` gives a per-variable lower bound, ``None`` entries
  (or the whole field being ``None``) mean the variable is free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .arith import (DEFAULT_TOL, Num, div, dot, is_exact, lcd, num_finite,
                    resolve_tol)
from .errors import DimMismatch, IterationCapExceeded, ValidationError

ITERATION_CAP = 10_000

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LinearProgram:
    objective: tuple
    eq_lhs: tuple = ()
    eq_rhs: tuple = ()
    ge_lhs: tuple = ()
    ge_rhs: tuple = ()
    lower_bounds: Optional[tuple] = None
    # everything but the right-hand sides, checked once; ``_with_ge_rhs``
    # copies share it, so its scaled forms are built once per matrix
    _matrix: Optional[_Matrix] = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        if len(self.eq_lhs) != len(self.eq_rhs):
            raise DimMismatch("equality matrix and rhs differ in row count")
        if len(self.ge_lhs) != len(self.ge_rhs):
            raise DimMismatch("inequality matrix and rhs differ in row count")
        object.__setattr__(self, "_matrix", _Matrix(self))
        _check_finite((*self.eq_rhs, *self.ge_rhs))

    def _with_ge_rhs(self, ge_rhs: tuple) -> LinearProgram:
        """This program with ``ge_rhs`` as its inequality right-hand
        side; only the new numbers are checked."""
        if len(ge_rhs) != len(self.ge_lhs):
            raise DimMismatch("inequality matrix and rhs differ in row count")
        _check_finite(ge_rhs)
        copy = object.__new__(LinearProgram)
        copy.__dict__.update(self.__dict__, ge_rhs=ge_rhs)
        return copy

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def _check_finite(values):
    if not all(map(num_finite, values)):
        raise ValidationError("non-finite coefficient in linear program")


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    point: Optional[tuple]
    infeasibility: Num  # phase-one optimum; > 0 exactly when infeasible


@dataclass(frozen=True)
class Outcome:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[Num] = None
    point: Optional[tuple] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


class _Matrix:
    """A program's objective, constraint rows and lower bounds, checked
    once: the column map of the equality form, whether all are rational,
    and per tableau kind the rows scaled by their own common denominator
    (``scaled``), built on first use."""

    __slots__ = ("col_map", "ncols", "exact", "_forms")

    def __init__(self, prog: LinearProgram):
        nv = len(prog.objective)
        for row in (*prog.eq_lhs, *prog.ge_lhs):
            if len(row) != nv:
                raise DimMismatch(f"row of length {len(row)}, expected {nv}")
        lbs = prog.lower_bounds
        if lbs is None:
            lbs = (None,) * nv
        elif len(lbs) != nv:
            raise DimMismatch("lower_bounds length differs from variable count")
        numbers = [*prog.objective, *(v for row in prog.eq_lhs for v in row),
                   *(v for row in prog.ge_lhs for v in row),
                   *(lb for lb in lbs if lb is not None)]
        _check_finite(numbers)
        self.exact = all(map(is_exact, numbers))
        col_map = []
        ncols = 0
        for lb in lbs:
            if lb is None:
                col_map.append(("split", ncols, ncols + 1))
                ncols += 2
            else:
                col_map.append(("shift", ncols, lb))
                ncols += 1
        self.col_map, self.ncols = col_map, ncols + len(prog.ge_lhs)
        self._forms = {}

    def scaled(self, prog: LinearProgram, arith):
        """``(rows, shifts, scale, lb_scale, c, c_scale, const)`` in the
        numbers of ``arith``: the equality-form rows and their shifts
        ``row . lb`` times ``scale * lb_scale``, ``scale`` the common
        denominator of the rows alone; ``c`` and ``const`` as in
        ``_Standard``.  ``prog`` is this matrix's program or a copy."""
        form = self._forms.get(type(arith))
        if form is not None:
            return form
        num = arith.num
        col_map, ncols = self.col_map, self.ncols
        lb_scale = arith.scale([e[2] for e in col_map if e[0] == "shift"])

        def expand(row, scale):
            """``row`` and its shift ``row . lb``, both times
            ``scale * lb_scale``: a row at ``scale`` is integral, and
            so is a bound at ``lb_scale``."""
            full = scale * lb_scale
            out = [0] * ncols
            shift = 0
            for a, entry in zip(row, col_map):
                if entry[0] == "split":
                    a = num(a, full)
                    out[entry[1]] = a
                    out[entry[2]] = -a
                else:
                    out[entry[1]] = num(a, full)
                    shift += num(a, scale) * num(entry[2], lb_scale)
            return out, shift

        n_eq = len(prog.eq_lhs)
        cons = (*prog.eq_lhs, *prog.ge_lhs)
        slack0 = ncols - len(cons)
        scale = arith.scale([v for row in cons for v in row])
        rows, shifts = [], []
        for k, row in enumerate(cons):
            out, shift = expand(row, scale)
            if k >= n_eq:
                out[slack0 + k] = num(-1, scale * lb_scale)
            rows.append(out)
            shifts.append(shift)
        c_scale = arith.scale(prog.objective)
        c, const = expand(prog.objective, c_scale)
        c_scale *= lb_scale
        form = self._forms[type(arith)] = (
            rows, shifts, scale, lb_scale, c, c_scale,
            arith.value(const, c_scale))
        return form


class _Standard:
    """Equality-form program A z = b, z >= 0, maximize c.z + const, in
    the numbers of the tableau ``arith``: the rows and right-hand sides
    times ``scale``, ``c`` times ``c_scale`` (both 1 on the dense
    tableau), and ``const`` as a true value.  Only the right-hand sides
    are new; the rest comes from ``_Matrix.scaled``, rescaled when their
    denominators ask for it (module docstring)."""

    __slots__ = ("rows", "rhs", "scale", "c", "c_scale", "const", "ncols",
                 "col_map")

    def __init__(self, prog: LinearProgram, arith):
        mat = prog._matrix
        rows, shifts, scale, lb_scale, c, c_scale, const = mat.scaled(prog,
                                                                      arith)
        rhs = (*prog.eq_rhs, *prog.ge_rhs)
        full = math.lcm(scale, arith.scale(rhs))
        if full != scale:
            f = full // scale
            rows = [[v * f for v in row] for row in rows]
            shifts = [v * f for v in shifts]
        full *= lb_scale
        self.rows = rows
        self.rhs = [arith.num(b, full) - v for b, v in zip(rhs, shifts)]
        self.scale, self.c, self.c_scale, self.const = full, c, c_scale, const
        self.ncols, self.col_map = mat.ncols, mat.col_map

    def recover(self, z) -> tuple:
        out = []
        for entry in self.col_map:
            if entry[0] == "split":
                out.append(z[entry[1]] - z[entry[2]])
            else:
                out.append(z[entry[1]] + entry[2])
        return tuple(out)


class _Dense:
    """Tableau of true entries, floats or ``Fraction``s, read within ``tol``."""

    d = 1

    def __init__(self, tol):
        self.tol = tol

    @staticmethod
    def scale(values):
        return 1

    @staticmethod
    def num(x, scale):
        return x

    @staticmethod
    def pivot(tab, obj, r, c):
        prow = tab[r]
        piv = prow[c]
        tab[r] = prow = [div(v, piv) for v in prow]
        for i, row in enumerate(tab):
            if i != r and row[c] != 0:
                f = row[c]
                tab[i] = [v - f * p for v, p in zip(row, prow)]
        if obj[c] != 0:
            f = obj[c]
            for j, p in enumerate(prow):
                obj[j] -= f * p

    @staticmethod
    def compare(row, other, c):
        """Sign of ``row``'s ratio minus ``other``'s in column ``c``."""
        x, y = div(row[-1], row[c]), div(other[-1], other[c])
        return (x > y) - (x < y)

    @staticmethod
    def value(x, scale):
        return x


class _Integral:
    """Integer tableau: the true entries are ``T / d``, one positive
    ``d`` shared by every row and the objective row.

    Pivots are Edmonds-Bareiss updates, so every entry stays a minor of
    the scaled input and each division by the old ``d`` is exact.
    """

    tol = 0
    scale = staticmethod(lcd)  # the least common denominator of values

    def __init__(self):
        self.d = 1

    @staticmethod
    def num(x, scale):
        """``x`` times ``scale``, a multiple of its denominator."""
        n, d = x.as_integer_ratio()
        return n * (scale // d)

    def pivot(self, tab, obj, r, c):
        prow = tab[r]
        p, d = prow[c], self.d
        for i, row in enumerate([*tab, obj]):
            if i == r:
                continue
            f = row[c]
            if f:
                row[:] = [(v * p - f * w) // d for v, w in zip(row, prow)]
            elif p != d:
                row[:] = [v * p // d for v in row]
        if p < 0:  # only when pivoting out a leftover artificial
            for row in [*tab, obj]:
                row[:] = [-v for v in row]
            p = -p
        self.d = p

    @staticmethod
    def compare(row, other, c):
        # cross-multiplied: both rows hold a positive entry in column c
        return row[-1] * other[c] - other[-1] * row[c]

    @staticmethod
    def value(x, scale):
        return Fraction(x, scale)


def _run(tab, obj, basis, width, arith):
    """Bland-rule simplex on a tableau whose rhs is the last column."""
    tol = arith.tol
    iterations = 0
    while True:
        iterations += 1
        if iterations > ITERATION_CAP:
            raise IterationCapExceeded(
                f"simplex exceeded {ITERATION_CAP} iterations")
        enter = None
        for j in range(width):
            if obj[j] < -tol:
                enter = j
                break
        if enter is None:
            return OPTIMAL
        leave = None
        for i, row in enumerate(tab):
            if row[enter] > tol:
                if leave is None:
                    leave = i
                    continue
                sign = arith.compare(row, tab[leave], enter)
                if sign < 0 or (sign == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return UNBOUNDED
        arith.pivot(tab, obj, leave, enter)
        basis[leave] = enter


def _phase_one(std: _Standard, arith):
    """Returns (tab, basis, infeasibility) with artificials eliminated."""
    m = len(std.rows)
    n = std.ncols
    tab = []
    for i, (row, b) in enumerate(zip(std.rows, std.rhs)):
        row = row + [0] * m + [b]
        if row[-1] < 0:
            row = [-v for v in row]
        row[n + i] = 1
        tab.append(row)
    basis = [n + i for i in range(m)]
    obj = [0] * n + [1] * m + [0]
    for row in tab:
        for j in range(n + m + 1):
            obj[j] -= row[j]
    _run(tab, obj, basis, n + m, arith)
    infeasibility = arith.value(-obj[-1], arith.d * std.scale)
    if infeasibility > arith.tol:
        return None, None, infeasibility
    # Pivot leftover artificials out; a row with no real pivot is redundant.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = None
            for j in range(n):
                if abs(tab[i][j]) > arith.tol:
                    pivot_col = j
                    break
            if pivot_col is None:
                continue
            arith.pivot(tab, obj, i, pivot_col)
            basis[i] = pivot_col
        keep.append(i)
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    return tab, basis, infeasibility


def _extract(std: _Standard, tab, basis, arith) -> tuple:
    z = [0] * std.ncols
    for i, b in enumerate(basis):
        z[b] = arith.value(tab[i][-1], arith.d)
    return std.recover(z)


def _tol(prog: LinearProgram, tol):
    """``tol`` resolved, over the numbers of ``prog`` only when None."""
    if tol is None and not prog._matrix.exact:
        return DEFAULT_TOL
    return resolve_tol(tol, *prog.eq_rhs, *prog.ge_rhs)


def _arith(prog: LinearProgram, tol):
    """The integer tableau at tolerance 0, else the dense one."""
    tol = _tol(prog, tol)
    return _Dense(tol) if tol else _Integral()


def lp_feasible(prog: LinearProgram, tol=None) -> Feasibility:
    """Phase-one feasibility check; returns a witness point when feasible."""
    arith = _arith(prog, tol)
    std = _Standard(prog, arith)
    tab, basis, infeas = _phase_one(std, arith)
    if tab is None:
        return Feasibility(False, None, infeas)
    return Feasibility(True, _extract(std, tab, basis, arith), infeas)


def lp_maximize(prog: LinearProgram, tol=None) -> Outcome:
    arith = _arith(prog, tol)
    std = _Standard(prog, arith)
    tab, basis, _ = _phase_one(std, arith)
    if tab is None:
        return Outcome(INFEASIBLE)
    c = std.c
    obj = [-cj * arith.d for cj in c] + [0]
    for i, row in enumerate(tab):
        cb = c[basis[i]]
        if cb != 0:
            for j in range(std.ncols + 1):
                obj[j] += cb * row[j]
    status = _run(tab, obj, basis, std.ncols, arith)
    if status == UNBOUNDED:
        return Outcome(UNBOUNDED)
    value = arith.value(obj[-1], arith.d * std.c_scale) + std.const
    return Outcome(OPTIMAL, value, _extract(std, tab, basis, arith))


def check_point(prog: LinearProgram, point: Sequence[Num], tol=None) -> bool:
    """Verify that a point satisfies every constraint within tolerance."""
    tol = _tol(prog, tol)
    num = (lambda v: v) if tol else Fraction  # at 0, read exactly
    for row, b in zip(prog.eq_lhs, prog.eq_rhs):
        if abs(dot(map(num, row), map(num, point)) - num(b)) > tol:
            return False
    for row, b in zip(prog.ge_lhs, prog.ge_rhs):
        if dot(map(num, row), map(num, point)) < num(b) - tol:
            return False
    if prog.lower_bounds is not None:
        for x, lb in zip(point, prog.lower_bounds):
            if lb is not None and num(x) < num(lb) - tol:
                return False
    return True
