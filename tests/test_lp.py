import itertools
import random
from fractions import Fraction as F

import pytest

import setopt.lp
from setopt.arith import DEFAULT_TOL
from setopt.cone import in_dual_cone
from setopt.errors import DimMismatch, ValidationError
from setopt.lp import LinearProgram, check_point, lp_feasible, lp_maximize


def test_simplex_vertex_feasibility():
    prog = LinearProgram(objective=(F(0), F(0)),
                         eq_lhs=((F(1), F(1)),), eq_rhs=(F(1),),
                         lower_bounds=(F(0), F(0)))
    out = lp_feasible(prog, tol=0)
    assert out.feasible
    assert sum(out.point) == 1 and all(v >= 0 for v in out.point)
    assert check_point(prog, out.point, tol=0)


def test_contradictory_bounds_infeasible():
    prog = LinearProgram(objective=(F(0),), eq_lhs=((F(1),),),
                         eq_rhs=(F(-1),), lower_bounds=(F(0),))
    out = lp_feasible(prog, tol=0)
    assert not out.feasible
    assert out.infeasibility > 0


def test_unique_solution_recovered():
    prog = LinearProgram(objective=(F(0), F(0)),
                         eq_lhs=((F(1), F(-1)), (F(1), F(1))),
                         eq_rhs=(F(0), F(2)),
                         lower_bounds=(F(0), F(0)))
    out = lp_feasible(prog, tol=0)
    assert out.feasible and out.point == (F(1), F(1))


def test_single_bound_maximize():
    prog = LinearProgram(objective=(F(1),), ge_lhs=((F(-1),),), ge_rhs=(F(-1),))
    out = lp_maximize(prog, tol=0)
    assert out.is_optimal and out.value == 1 and out.point == (F(1),)


def test_free_unconstrained_unbounded():
    out = lp_maximize(LinearProgram(objective=(F(1),)), tol=0)
    assert out.status == "unbounded"


def test_simplex_vertex_maximize():
    prog = LinearProgram(objective=(F(1), F(0)),
                         eq_lhs=((F(1), F(1)),), eq_rhs=(F(1),),
                         lower_bounds=(F(0), F(0)))
    out = lp_maximize(prog, tol=0)
    assert out.is_optimal and out.value == 1 and out.point == (F(1), F(0))


def test_maximize_infeasible_status():
    prog = LinearProgram(objective=(F(1),), eq_lhs=((F(1),),),
                         eq_rhs=(F(-2),), lower_bounds=(F(0),))
    assert lp_maximize(prog, tol=0).status == "infeasible"


def test_dimension_mismatch_rejected():
    with pytest.raises(DimMismatch):
        LinearProgram(objective=(F(1), F(2)), eq_lhs=((F(1),),), eq_rhs=(F(1),))
    with pytest.raises(DimMismatch):
        LinearProgram(objective=(F(1),), lower_bounds=(F(0), F(0)))


def test_nan_rejected():
    with pytest.raises(ValidationError):
        LinearProgram(objective=(float("nan"),))


def test_out_of_range_tol_rejected():
    prog = LinearProgram(objective=(F(1),), ge_lhs=((F(-1),),),
                         ge_rhs=(F(-1),), lower_bounds=(F(0),))
    assert lp_maximize(prog, tol=0).value == 1
    for tol in (F(-1), float("nan")):
        with pytest.raises(ValidationError, match="tol must be"):
            lp_maximize(prog, tol=tol)
        with pytest.raises(ValidationError, match="tol must be"):
            lp_feasible(prog, tol=tol)
        # a NaN tol let check_point accept every point, -1 none
        with pytest.raises(ValidationError, match="tol must be"):
            check_point(prog, (F(1),), tol=tol)


def test_negative_lower_bounds_shift():
    # max x1 + x2 with x1 >= -2, x2 >= -3, x1 + x2 <= 0
    prog = LinearProgram(objective=(F(1), F(1)),
                         ge_lhs=((F(-1), F(-1)),), ge_rhs=(F(0),),
                         lower_bounds=(F(-2), F(-3)))
    out = lp_maximize(prog, tol=0)
    assert out.is_optimal and out.value == 0


def test_free_variable_negative_optimum():
    # min |style|: max -t subject to t >= 5 with t free
    prog = LinearProgram(objective=(F(-1),), ge_lhs=((F(1),),), ge_rhs=(F(5),))
    out = lp_maximize(prog, tol=0)
    assert out.is_optimal and out.value == -5 and out.point == (F(5),)


def _random_program(rng):
    nv = rng.randint(2, 5)
    nrows = rng.randint(1, 3)
    rows = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(nv))
                 for _ in range(nrows))
    rhs = tuple(F(rng.randint(-4, 4)) for _ in range(nrows))
    obj = tuple(F(rng.randint(-3, 3)) for _ in range(nv))
    return LinearProgram(objective=obj, eq_lhs=rows, eq_rhs=rhs,
                         lower_bounds=(F(0),) * nv)


def _basic_solution_optimum(prog):
    """Independent oracle: best objective over basic feasible solutions.

    Standard-form feasible regions are pointed, so a finite optimum is
    attained at some basic solution.
    """
    nv = prog.num_vars
    rows = [list(r) for r in prog.eq_lhs]
    rhs = list(prog.eq_rhs)
    best = None
    for size in range(min(len(rows), nv) + 1):
        for cols in itertools.combinations(range(nv), size):
            point = _solve_support(rows, rhs, cols, nv)
            if point is None or any(v < 0 for v in point):
                continue
            val = sum(o * v for o, v in zip(prog.objective, point))
            if best is None or val > best:
                best = val
    return best


def _solve_support(rows, rhs, cols, nv):
    m = len(rows)
    a = [[rows[i][c] for c in cols] + [rhs[i]] for i in range(m)]
    r = 0
    for c in range(len(cols)):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            return None
        a[r], a[piv] = a[piv], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        r += 1
    if any(a[i][-1] != 0 for i in range(r, m)):
        return None
    point = [F(0)] * nv
    for c, i in zip(cols, range(r)):
        point[c] = a[i][-1]
    if any(sum(rows[i][j] * point[j] for j in range(nv)) != rhs[i]
           for i in range(m)):
        return None
    return point


def _float_program(prog):
    def floats(values):
        return tuple(map(float, values))

    return LinearProgram(floats(prog.objective),
                         eq_lhs=tuple(map(floats, prog.eq_lhs)),
                         eq_rhs=floats(prog.eq_rhs),
                         lower_bounds=floats(prog.lower_bounds))


def test_against_basic_solution_enumeration():
    """Rational data pivots on integers, float data on the dense tableau."""
    rng = random.Random(2024)
    optimal_seen = infeasible_seen = 0
    for _ in range(60):
        prog = _random_program(rng)
        out = lp_maximize(prog, tol=0)
        approx = lp_maximize(_float_program(prog))
        oracle = _basic_solution_optimum(prog)
        assert approx.status == out.status
        if out.is_optimal:
            optimal_seen += 1
            assert oracle == out.value
            assert abs(approx.value - oracle) <= 1e-9
            assert check_point(prog, out.point, tol=0)
        elif out.status == "infeasible":
            infeasible_seen += 1
            assert oracle is None
    assert optimal_seen > 5 and infeasible_seen > 5


def test_two_phase_consistency():
    rng = random.Random(7)
    for _ in range(40):
        prog = _random_program(rng)
        zero = LinearProgram(objective=(F(0),) * prog.num_vars,
                             eq_lhs=prog.eq_lhs, eq_rhs=prog.eq_rhs,
                             lower_bounds=prog.lower_bounds)
        assert lp_feasible(prog, tol=0).feasible == lp_maximize(zero, tol=0).is_optimal


def test_determinism():
    rng = random.Random(99)
    for _ in range(20):
        prog = _random_program(rng)
        a = lp_maximize(prog, tol=0)
        b = lp_maximize(prog, tol=0)
        assert (a.status, a.value, a.point) == (b.status, b.value, b.point)


def test_float_mode_tolerance(orthant, monkeypatch):
    prog = LinearProgram(objective=(1.0, 0.0), eq_lhs=((1.0, 1.0),),
                         eq_rhs=(1.0,), lower_bounds=(0.0, 0.0))
    out = lp_maximize(prog)
    assert out.is_optimal and abs(out.value - 1.0) < 1e-9
    # at tol 0 every number is read as its exact rational, so float data
    # pivots on integers and the dense tableau is never built: its float
    # residuals compared with 0 declared x = (0.1, 0.2), x >= 0 infeasible
    dense = setopt.lp._Dense
    built = []
    monkeypatch.setattr(setopt.lp, "_Dense",
                        lambda tol: built.append(tol) or dense(tol))
    for rows in (((1, 0), (0, 1)), ((F(1), F(0)), (F(0), F(1))),
                 ((1.0, 0.0), (0.0, 1.0))):
        found = LinearProgram(objective=(0.0, 0.0), eq_lhs=rows,
                              eq_rhs=(0.1, 0.2), lower_bounds=(0, 0))
        for tol in (0, 0.0):
            out = lp_feasible(found, tol)
            assert out.feasible and out.infeasibility == 0
            assert out.point == (F(0.1), F(0.2))
            assert check_point(found, out.point, tol)
            best = lp_maximize(LinearProgram(
                objective=(1.0, 1.0), eq_lhs=rows, eq_rhs=(0.1, 0.2),
                lower_bounds=(0, 0)), tol)
            assert best.value == F(0.1) + F(0.2) and best.point == out.point
            assert in_dual_cone((0.1, 0.2), orthant, tol)
    assert built == []
    assert lp_feasible(found).feasible and built == [DEFAULT_TOL]
    # check_point reads exactly at tol 0 too: -9 * 0.1 + 0.9 is 0 in
    # floats and -2^-55 as rationals
    row = LinearProgram(objective=(0, 0), ge_lhs=((-9, 1),), ge_rhs=(0,))
    assert not check_point(row, (0.1, 0.9), 0)
    assert check_point(row, (0.1, 0.9), 1e-9)


def test_iteration_cap_raises(monkeypatch):
    from setopt.errors import IterationCapExceeded
    prog = LinearProgram(objective=(F(1), F(0)),
                         eq_lhs=((F(1), F(1)),), eq_rhs=(F(1),),
                         lower_bounds=(F(0), F(0)))
    monkeypatch.setattr(setopt.lp, "ITERATION_CAP", 0)
    with pytest.raises(IterationCapExceeded,
                       match="^simplex exceeded 0 iterations$"):
        lp_maximize(prog, tol=0)
