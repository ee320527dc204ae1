"""Coverage beyond the planar orthant: higher image dimension, narrow
and redundant-row cones, mixed image kinds, and float-mode runs."""

import random
from fractions import Fraction as F

from setopt.cone import margin, validate_cone
from setopt.imagesets import finite_set, min_elements, polytope
from setopt.instance import Decision, build_instance, make_example
from setopt.setrelations import (LOWER, RELATION_KINDS, set_margin,
                                 set_relation)
from setopt.solver_direct import (CONCEPTS, TYPE_ONE, TYPE_TWO, WEAK,
                                  solve_direct, weak_threshold)
from setopt.vectorizer import (VP_KINDS, VP_MIN, VP_WEAK, brute_force_vp,
                               membership_vp, minimal_p, solve_weighted_sum)


def _random_instance(cone, rng, count=4, s_max=3, dim=2):
    decisions, images = [], []
    for i in range(count):
        decisions.append(Decision(str(i), (F(i),)))
        images.append(finite_set(
            [tuple(F(rng.randint(-4, 4)) for _ in range(dim))
             for _ in range(rng.randint(1, s_max))]))
    return build_instance(cone, decisions, images, exact=True)


def test_three_dimensional_oracle_equivalence():
    cone = validate_cone(
        [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]],
        [F(1), F(1), F(1)])
    rng = random.Random(31)
    for _ in range(6):
        inst = _random_instance(cone, rng, dim=3)
        for kind in (VP_WEAK, VP_MIN):
            for p in (1, 2):
                for eps in (F(0), F(1, 3)):
                    assert set(membership_vp(inst, p, eps, kind).members) == \
                        set(brute_force_vp(inst, p, eps, kind).members)
        t1 = set(solve_direct(inst, TYPE_ONE, 0).members)
        t2 = set(solve_direct(inst, TYPE_TWO, 0).members)
        wk = set(solve_direct(inst, WEAK, 0).members)
        assert t1 <= t2 <= wk


def test_narrow_cone_oracle_equivalence():
    # a strictly narrower order than the orthant: y1 >= y2/2 >= ... etc.
    cone = validate_cone([[F(2), F(-1)], [F(-1), F(2)]], [F(1), F(1)])
    rng = random.Random(57)
    for _ in range(8):
        inst = _random_instance(cone, rng)
        for kind in (VP_WEAK, VP_MIN):
            for p in (1, 2):
                for eps in (F(0), F(2, 5)):
                    assert set(membership_vp(inst, p, eps, kind).members) == \
                        set(brute_force_vp(inst, p, eps, kind).members)


def test_redundant_row_leaves_order_unchanged():
    base = validate_cone([[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])
    fat = validate_cone([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
                        [F(1), F(1)])
    rng = random.Random(3)
    for _ in range(40):
        a = (F(rng.randint(-6, 6)), F(rng.randint(-6, 6)))
        b = (F(rng.randint(-6, 6)), F(rng.randint(-6, 6)))
        # the extra row's ratio (d1+d2)/2 never undercuts min(d1, d2)
        assert margin(a, b, fat) == margin(a, b, base)
    img_a = finite_set([(F(0), F(0)), (F(2), F(-1))])
    img_b = finite_set([(F(1), F(1))])
    for eps in (F(0), F(1, 2)):
        assert set_relation(img_a, img_b, base, LOWER, eps)[0] == \
            set_relation(img_a, img_b, fat, LOWER, eps)[0]


def test_mixed_image_kinds_hand_case(orthant):
    # finite candidate against a polytope competitor whose hull strictly
    # dominates it: conv{(-2,0),(0,-2)} pushes (0,0) out by margin 1
    inst = build_instance(
        orthant,
        [Decision("a", (F(0),)), Decision("b", (F(1),))],
        [finite_set([(F(0), F(0))]),
         polytope([(F(-2), F(0)), (F(0), F(-2))])],
        exact=True)
    thresholds = weak_threshold(inst)
    assert thresholds == {"a": F(1), "b": F(0)}
    assert solve_direct(inst, WEAK, 0).members == ("b",)
    assert solve_direct(inst, WEAK, F(1)).members == ("a", "b")

    for p in (1, 2):
        report = membership_vp(inst, p, 0, VP_WEAK)
        assert report.members == ("b",)
        assert report.certificates["a"].dominated_by == "b"
    res = minimal_p(inst, "a", 0, VP_WEAK)
    assert res.never and res.reason == "b"
    assert minimal_p(inst, "b", 0, VP_WEAK).p_star == 1

    for p in (1, 2):
        assert membership_vp(inst, p, 0, VP_MIN).members == ("b",)
    # the finite image as left argument dominates the hull pointwise
    assert set_margin(inst.images[1], inst.images[0], orthant) == 1
    assert set_margin(inst.images[0], inst.images[1], orthant) == -2


def test_float_mode_golden_examples():
    inst = make_example("mfdvp", exact=False)
    assert not inst.exact
    assert solve_direct(inst, TYPE_TWO, 0).members == ("0", "1", "2")
    assert membership_vp(inst, 1, 0, VP_WEAK).members == ("1", "2")
    assert "0" in membership_vp(inst, 2, 0, VP_WEAK).members
    assert minimal_p(inst, "0", 0, VP_WEAK).p_star == 2
    for p in (1, 2, 3):
        assert "0" not in membership_vp(inst, p, 0, VP_MIN).members

    fan = make_example("t_one", {"g": 5}, exact=False)
    assert solve_direct(fan, TYPE_ONE, 0).members == ("1/4",)
    assert set(solve_direct(fan, TYPE_TWO, 0).members) == set(fan.labels)


def test_float_exact_mode_agreement_on_random_instances():
    for seed in (0, 6, 13):
        fl = make_example("random_finite", {"seed": seed}, exact=False)
        ex = make_example("random_finite", {"seed": seed}, exact=True)
        for eps_f, eps_e in ((0.0, F(0)), (0.25, F(1, 4))):
            assert solve_direct(fl, WEAK, eps_f).members == \
                solve_direct(ex, WEAK, eps_e).members
            for p in (1, 2):
                assert membership_vp(fl, p, eps_f, VP_WEAK).members == \
                    membership_vp(ex, p, eps_e, VP_WEAK).members


def test_float_cone_over_rational_points_resolves_the_float_tolerance():
    # the same rational points under a float cone and under its rational
    # copy: the float cone makes every question float, so tol=None must
    # resolve to the float default and the verdicts must agree
    rows = (("1/10", "7/10"), ("3/10", "-1/5"))
    cone_f = validate_cone([[float(F(v)) for v in r] for r in rows],
                           [1.0, 1.0])
    cone_x = validate_cone([[F(v) for v in r] for r in rows], [F(1), F(1)])
    decisions = [Decision(str(i), (F(i),)) for i in range(5)]
    for seed in range(60):
        rng = random.Random(seed)
        images = [finite_set([tuple(F(rng.randint(-6, 6), rng.randint(1, 3))
                                    for _ in range(2))
                              for _ in range(rng.randint(1, 4))])
                  for _ in range(5)]
        fl, ex = (build_instance(cone, decisions, images, exact=exact)
                  for cone, exact in ((cone_f, False), (cone_x, True)))
        for concept in CONCEPTS:
            assert solve_direct(fl, concept).members == \
                solve_direct(ex, concept).members, seed
        for kind in VP_KINDS:
            for p in (1, 2):
                assert membership_vp(fl, p, 0, kind).members == \
                    membership_vp(ex, p, 0, kind).members, seed
        for img in images:
            assert min_elements(img, cone_f) == min_elements(img, cone_x), seed
        for a in images:
            for b in images:
                for kind in RELATION_KINDS:
                    assert set_relation(a, b, cone_f, kind)[0] == \
                        set_relation(a, b, cone_x, kind)[0], seed


def test_float_weights_resolve_the_float_tolerance():
    inst = make_example("random_finite", {"seed": 2, "count": 6}, exact=True)
    labels = [s.label for s in solve_weighted_sum(inst, 1, [(F(1, 10),
                                                             F(1, 5))])]
    assert [s.label for s in solve_weighted_sum(inst, 1, [(0.1, 0.2)])] == \
        labels
