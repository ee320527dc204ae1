import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setopt.arith import dot
from setopt.cone import (in_dual_cone, margin, r_epsilon, r_epsilon_sq,
                         validate_cone)
from setopt.errors import NotInterior, NotPointed, ValidationError, ZeroRow


def test_orthant_validates():
    cone = validate_cone([[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])
    assert cone.m == 2 and cone.row_e == (1, 1)


def test_rank_deficiency_rejected():
    with pytest.raises(NotPointed):
        validate_cone([[F(1), F(0)]], [F(1), F(0)])


def test_boundary_direction_rejected():
    with pytest.raises(NotInterior):
        validate_cone([[F(1), F(0)], [F(0), F(1)]], [F(1), F(0)])


def test_zero_row_rejected():
    with pytest.raises(ZeroRow):
        validate_cone([[F(0), F(0)], [F(0), F(1)]], [F(1), F(1)])


def test_margin_hand_values(orthant, skew_cone):
    assert margin((F(0), F(0)), (F(2), F(3)), orthant) == 2
    assert margin((F(1), F(7)), (F(1), F(7)), orthant) == 0
    # rows (0,1),(1,-1) with e=(1,1/2): both slacks 1 over denominators 1/2
    assert margin((F(0), F(0)), (F(2), F(1)), skew_cone) == 2


def test_margin_threshold_contract(orthant):
    # y_from < y_to - eps*e componentwise iff eps < margin
    y_from, y_to = (F(0), F(0)), (F(2), F(3))
    mg = margin(y_from, y_to, orthant)
    for eps in (F(0), F(1), F(2), F(5, 2)):
        strictly_inside = all(
            t - eps * ev - f > 0
            for f, t, ev in zip(y_from, y_to, orthant.e))
        weakly_inside = all(
            t - eps * ev - f >= 0
            for f, t, ev in zip(y_from, y_to, orthant.e))
        assert strictly_inside == (eps < mg)
        assert weakly_inside == (eps <= mg)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=6, max_size=6),
       st.integers(1, 4))
def test_margin_superadditivity_and_translation(coords, den):
    cone = validate_cone([[F(1), F(0)], [F(1), F(2)]], [F(1), F(1)])
    a = (F(coords[0], den), F(coords[1], den))
    b = (F(coords[2], den), F(coords[3], den))
    c = (F(coords[4], den), F(coords[5], den))
    assert margin(a, c, cone) >= margin(a, b, cone) + margin(b, c, cone)
    shifted_a = tuple(x + y for x, y in zip(a, c))
    shifted_b = tuple(x + y for x, y in zip(b, c))
    assert margin(shifted_a, shifted_b, cone) == margin(a, b, cone)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=4, max_size=4))
def test_margin_order_consistency(coords):
    cone = validate_cone([[F(0), F(1)], [F(1), F(-1)]], [F(1), F(1, 2)])
    a = (F(coords[0]), F(coords[1]))
    b = (F(coords[2]), F(coords[3]))
    diff = tuple(y - x for x, y in zip(a, b))
    mg = margin(a, b, cone)
    assert (mg >= 0) == all(dot(row, diff) >= 0 for row in cone.rows)
    assert (mg > 0) == all(dot(row, diff) > 0 for row in cone.rows)


def test_r_epsilon_formula(orthant):
    assert r_epsilon(orthant, F(2), F(1, 2)) == pytest.approx(1.0)
    assert r_epsilon_sq(orthant, F(2), F(1, 2)) == 1


def test_r_epsilon_row_scale_invariance():
    a = validate_cone([[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])
    b = validate_cone([[F(2), F(0)], [F(0), F(2)]], [F(1), F(1)])
    assert r_epsilon_sq(a, F(3)) == r_epsilon_sq(b, F(3))


def test_r_epsilon_requires_positive_eps(orthant):
    with pytest.raises(ValidationError):
        r_epsilon(orthant, F(0))
    with pytest.raises(ValidationError):
        r_epsilon(orthant, F(1), gamma=F(1))


def test_r_epsilon_ball_stays_interior(skew_cone):
    eps = F(3, 2)
    r = r_epsilon(skew_cone, eps)
    center = [float(v) * float(eps) for v in skew_cone.e]
    for i in range(1000):
        ang = 2 * math.pi * i / 1000
        pt = (center[0] + r * math.cos(ang), center[1] + r * math.sin(ang))
        assert all(sum(float(rv) * pv for rv, pv in zip(row, pt)) > 0
                   for row in skew_cone.rows)


def test_dual_cone_membership(orthant, skew_cone):
    assert in_dual_cone((F(1), F(1)), orthant)
    assert not in_dual_cone((F(-1), F(0)), orthant)
    assert in_dual_cone((F(0), F(0)), orthant)
    # dual of {y2 >= 0, y1 >= y2} is spanned by (0,1) and (1,-1)
    assert in_dual_cone((F(1), F(0)), skew_cone)
    assert not in_dual_cone((F(0), F(-1)), skew_cone)
