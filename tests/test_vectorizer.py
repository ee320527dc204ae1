import ast
import inspect
import itertools
import textwrap
from fractions import Fraction as F

import pytest

from setopt import imagesets, vectorizer
from setopt.cone import validate_cone
from setopt.errors import CapExceeded, ValidationError, WeightNotInDualCone
from setopt.imagesets import finite_set
from setopt.instance import Decision, build_instance, make_example
from setopt.setrelations import set_margin
from setopt.solver_direct import TYPE_TWO, WEAK, solve_direct
from setopt.vectorizer import (VP_MIN, VP_WEAK, _first_survivor,
                               brute_force_vp, candidate_pool,
                               covering_p_bound, covering_p_bound_global,
                               membership_vp, min_hitting_set, minimal_p,
                               solve_weighted_sum)


@pytest.fixture(scope="module")
def mfdvp():
    return make_example("mfdvp", exact=True)


def test_candidate_pools(mfdvp):
    pool = candidate_pool(mfdvp, "0")
    assert set(pool.points) == {(F(2), F(0)), (F(0), F(2))}
    assert pool.complete

    fan = make_example("t_one", {"g": 3}, exact=True)
    pool = candidate_pool(fan, "3/8")
    assert set(pool.points) == {(F(1), F(0)), (F(0), F(1)),
                                (F(3, 8), F(3, 8))}
    assert not pool.complete
    assert candidate_pool(fan, "3/8", p=3).complete

    singles = make_example("strict_min", {"g": 3}, exact=True)
    assert len(candidate_pool(singles, "1/2").points) == 1


def _oracle_hitting(sets):
    universe = sorted(set().union(*sets))
    for size in range(0, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            chosen = set(combo)
            if all(chosen & s for s in sets):
                return size
    return None


def test_min_hitting_set_exact_and_bounded():
    import random
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 8)
        sets = [frozenset(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 6))]
        best = min_hitting_set(sets)
        assert len(best) == _oracle_hitting(sets)
        assert all(set(best) & s for s in sets)
        limit = max(len(best) - 1, 0)
        if limit:
            bounded = min_hitting_set(sets, limit=limit - 1) if limit > 1 else None
        assert min_hitting_set(sets, limit=len(best)) is not None
        if len(best) > 1:
            assert min_hitting_set(sets, limit=len(best) - 1) is None


def test_min_hitting_set_rejects_empty_set():
    with pytest.raises(ValidationError):
        min_hitting_set([frozenset(), frozenset([1])])


def test_weak_membership_three_decisions(mfdvp):
    r1 = membership_vp(mfdvp, 1, 0, VP_WEAK)
    assert r1.members == ("1", "2")
    cert = r1.certificates["0"]
    assert not cert.member and cert.dominated_by in ("1", "2")
    r2 = membership_vp(mfdvp, 2, 0, VP_WEAK)
    assert r2.members == ("0", "1", "2")
    assert set(r2.certificates["0"].tuple_points) == \
        {(F(2), F(0)), (F(0), F(2))}
    # survival indices re-check: named component escapes the competitor
    surv = r2.certificates["0"].surviving
    assert set(surv) == {"0", "1", "2"}


def test_min_membership_always_excludes_first_decision(mfdvp):
    for p in range(1, 7):
        r = membership_vp(mfdvp, p, 0, VP_MIN)
        assert "0" not in r.members
        assert set(r.members) == {"1", "2"}
    cert = membership_vp(mfdvp, 2, 0, VP_MIN).certificates["0"]
    assert cert.dominated_by is not None
    assert cert.strict_component is not None


def test_min_membership_polytope_hull_family():
    inst = make_example("mfdvp_polytope", exact=True)
    for p in (1, 2, 3):
        r = membership_vp(inst, p, 0, VP_MIN)
        assert "0" not in r.members


def test_minimal_p_values(mfdvp):
    assert minimal_p(mfdvp, "0", 0, VP_WEAK).p_star == 2
    res = minimal_p(mfdvp, "1", 0, VP_WEAK)
    assert res.p_star == 1
    assert res.witness.tuple_points == ((F(1), F(-1)),)
    assert minimal_p(mfdvp, "0", 0, VP_MIN).never

    singles = make_example("strict_min", {"g": 3}, exact=True)
    assert minimal_p(singles, "0", 0, VP_WEAK).p_star == 1


def test_minimal_p_never_matches_direct():
    for seed in range(8):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        weak0 = set(solve_direct(inst, WEAK, 0).members)
        for dec in inst.decisions:
            res = minimal_p(inst, dec.label, 0, VP_WEAK)
            assert res.never == (dec.label not in weak0)
            if not res.never:
                at_p = membership_vp(inst, res.p_star, 0, VP_WEAK)
                assert dec.label in at_p.members
                if res.p_star > 1:
                    below = membership_vp(inst, res.p_star - 1, 0, VP_WEAK)
                    assert dec.label not in below.members


def test_fan_min_kind_keeps_endpoint():
    fan = make_example("t_one", {"g": 3}, exact=True)
    r = membership_vp(fan, 1, 0, VP_MIN)
    assert "1/2" in r.members
    assert r.certificates["1/2"].tuple_points == ((F(1), F(0)),)
    assert set(r.members) == {"1/4", "3/8", "1/2"}


def test_drifting_singletons_min_kind_at_positive_shift():
    inst = make_example("strict_min", {"g": 5}, exact=True)
    for eps in (F(1, 100), F(1, 10), F(1)):
        r = membership_vp(inst, 1, eps, VP_MIN)
        assert set(r.members) == set(inst.labels)


def test_oracle_equivalence_random():
    for seed in range(12):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        for kind in (VP_WEAK, VP_MIN):
            for p in (1, 2, 3):
                for eps in (F(0), F(1, 10), F(7, 10)):
                    fast = membership_vp(inst, p, eps, kind)
                    slow = brute_force_vp(inst, p, eps, kind)
                    assert set(fast.members) == set(slow.members), \
                        (seed, kind, p, eps)


def test_oracle_equivalence_skewed_cone(skew_cone):
    import random
    rng = random.Random(1234)
    for _ in range(6):
        decisions, images = [], []
        for i in range(4):
            decisions.append(Decision(str(i), (F(i),)))
            images.append(finite_set(
                [(F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
                 for _ in range(rng.randint(1, 4))]))
        inst = build_instance(skew_cone, decisions, images, exact=True)
        for kind in (VP_WEAK, VP_MIN):
            for p in (1, 2):
                for eps in (F(0), F(1, 3)):
                    assert set(membership_vp(inst, p, eps, kind).members) == \
                        set(brute_force_vp(inst, p, eps, kind).members)


def test_membership_monotone_in_budget():
    for seed in (2, 6):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        for kind in (VP_WEAK, VP_MIN):
            for eps in (F(0), F(1, 7)):
                prev = set()
                for p in (1, 2, 3, 4):
                    cur = set(membership_vp(inst, p, eps, kind).members)
                    assert prev <= cur
                    prev = cur


def test_projection_subset_of_direct():
    for seed in (0, 3, 7):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        for eps in (F(0), F(1, 7), F(7, 10)):
            weak_direct = set(solve_direct(inst, WEAK, eps).members)
            t2_direct = set(solve_direct(inst, TYPE_TWO, eps).members)
            for p in (1, 2, 3):
                assert set(membership_vp(inst, p, eps, VP_WEAK).members) <= weak_direct
                assert set(membership_vp(inst, p, eps, VP_MIN).members) <= t2_direct


def test_budget_equalities_on_small_family(mfdvp):
    weak0 = set(solve_direct(mfdvp, WEAK, 0).members)
    # |Omega| - 1 and max minimal-count budgets both close the gap
    assert set(membership_vp(mfdvp, 2, 0, VP_WEAK).members) == weak0
    p_pool = max(len(candidate_pool(mfdvp, lab).points)
                 for lab in mfdvp.labels)
    assert set(membership_vp(mfdvp, p_pool, 0, VP_WEAK).members) == weak0


def test_covering_budget_hand_value(orthant):
    inst = build_instance(
        orthant, [Decision("a", (F(0),))],
        [finite_set([(F(0), F(0)), (F(1), F(0)), (F(2), F(0))])],
        exact=True)
    # r = 0.5*1*1 = 1/2, covering radius 1/4: every point its own center
    assert covering_p_bound(inst, "a", F(1)) == 3
    assert covering_p_bound(inst, "a", F(100)) == 1
    single = build_instance(orthant, [Decision("a", (F(0),))],
                            [finite_set([(F(5), F(5))])], exact=True)
    for eps in (F(1, 10), F(1), F(10)):
        assert covering_p_bound(single, "a", eps) == 1


def test_covering_budget_sufficient():
    for seed in (1, 4, 9):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        weak0 = solve_direct(inst, WEAK, 0).members
        for eps in (F(1, 2), F(1)):
            for lab in weak0:
                p = covering_p_bound(inst, lab, eps)
                assert lab in membership_vp(inst, p, eps, VP_WEAK).members
            p_global = covering_p_bound_global(inst, eps)
            members = set(membership_vp(inst, p_global, eps, VP_WEAK).members)
            assert set(weak0) <= members


def test_weighted_sum_hand_values(mfdvp):
    sols = solve_weighted_sum(mfdvp, 1, [(F(1), F(1))])
    assert {(s.label, s.tuple_points) for s in sols} == {
        ("1", ((F(1), F(-1)),)), ("2", ((F(-1), F(1)),))}
    assert all(s.value == 0 for s in sols)

    singles = make_example("strict_min", {"g": 3}, exact=True)
    sols = solve_weighted_sum(singles, 1, [(F(0), F(1))])
    assert [s.label for s in sols] == ["0"]

    # duplicated identical blocks keep the label set (separability)
    one = {s.label for s in solve_weighted_sum(mfdvp, 1, [(F(1), F(1))])}
    two = {s.label for s in solve_weighted_sum(mfdvp, 2,
                                               [(F(1), F(1))] * 2)}
    assert one == two


def test_budget_and_tol_validation(mfdvp):
    # a min-kind tol of -1 answered ('0', '1', '2'), against ('1', '2')
    assert membership_vp(mfdvp, 2, 0, VP_MIN, tol=0).members == ("1", "2")
    with pytest.raises(ValidationError, match="tol must be"):
        membership_vp(mfdvp, 2, 0, VP_MIN, tol=F(-1))
    with pytest.raises(ValidationError, match="tol must be"):
        minimal_p(mfdvp, "0", tol=float("nan"))
    for check in (membership_vp, brute_force_vp):
        for p in (1.5, F(2), True, "2", 0):
            with pytest.raises(ValidationError, match="must be an integer"):
                check(mfdvp, p)


def test_weighted_sum_validation(mfdvp):
    with pytest.raises(WeightNotInDualCone):
        solve_weighted_sum(mfdvp, 1, [(F(-1), F(0))])
    with pytest.raises(ValidationError):
        solve_weighted_sum(mfdvp, 1, [(F(0), F(0))])
    with pytest.raises(ValidationError):
        solve_weighted_sum(mfdvp, 2, [(F(1), F(1))])


def test_weighted_sum_members_are_weakly_minimal():
    for seed in (2, 5, 8):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        weights_cases = [[(F(1), F(1))], [(F(1), F(2)), (F(3), F(1))]]
        for weights in weights_cases:
            sols = solve_weighted_sum(inst, len(weights), weights)
            members = set(membership_vp(inst, len(weights), 0,
                                        VP_WEAK).members)
            assert {s.label for s in sols} <= members


def test_min_members_retain_image_quality():
    for seed in (0, 5, 11):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        pmax = max(len(candidate_pool(inst, lab).points)
                   for lab in inst.labels)
        retained = membership_vp(inst, pmax, 0, VP_MIN).members
        assert retained
        for img in inst.images:
            assert any(set_margin(inst.image_of(r), img, inst.cone) >= 0
                       for r in retained)


def test_brute_force_caps_and_preconditions(mfdvp, monkeypatch):
    monkeypatch.setattr(vectorizer, "TUPLE_CAP", 5)
    with pytest.raises(CapExceeded, match="^24 candidate tuples exceed cap 5$"):
        brute_force_vp(mfdvp, 3, 0, VP_WEAK)
    poly = make_example("t_one", {"g": 3}, exact=True)
    with pytest.raises(ValidationError):
        brute_force_vp(poly, 1, 0, VP_WEAK)


def test_brute_force_reads_no_cache():
    for exact in (True, False):
        inst = make_example("random_finite", {"seed": 3}, exact=exact)
        for kind in (VP_WEAK, VP_MIN):
            brute_force_vp(inst, 2, F(1, 7) if exact else 1 / 7, kind)
            brute_force_vp(inst, 1, 0, kind, tol=F(1, 1000))
        assert all(img._products is None for img in inst.images)
        assert inst._memo == {}
    tree = ast.parse(textwrap.dedent(inspect.getsource(brute_force_vp)))
    names = ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} |
             {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})
    assert not names & {"_scaled", "_target", "_least", "_cone_products",
                        "point_margin", "_Margins", "margins", "positions",
                        "bars", "point_margin_with_witness", "dominators"}


def test_empty_candidate_pool_is_refused():
    # within tol 1 each point of a lies one-sidedly below the next, a
    # cycle, so min_elements keeps none of them; no search may answer
    # from that empty pool (the oracle answers ('a',))
    cone = validate_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1])
    a = finite_set([(F(0), F(0), F(0)), (F(11, 10), F(-11, 20), F(-11, 20)),
                    (F(11, 20), F(11, 20), F(-11, 10))])
    b = finite_set([(F(5), F(5), F(5))])
    inst = build_instance(cone, [Decision("a", (F(0),)),
                                 Decision("b", (F(1),))], [a, b], exact=True)
    assert imagesets.min_elements(a, cone, tol=1) == ()
    for ask in (lambda: membership_vp(inst, 2, 0, VP_WEAK, tol=1),
                lambda: minimal_p(inst, "a", 0, VP_WEAK, tol=1)):
        with pytest.raises(ValidationError, match=(
                "^decision 'a' has an empty candidate pool at tol 1$")):
            ask()
    assert brute_force_vp(inst, 2, 0, VP_WEAK, tol=1).members == ("a",)


def test_vectorizer_uses_no_private_name_of_imagesets():
    # the shifted dominance test and its exact/float fork live in imagesets
    tree = ast.parse(inspect.getsource(vectorizer))
    used = ({a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
             for a in n.names} |
            {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} |
            {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})
    private = {name for scope in (imagesets, imagesets.ImageSet)
               for name in vars(scope)
               if name.startswith("_") and not name.startswith("__")}
    assert private and not used & private


def test_float_dominance_at_the_tolerance_boundary(orthant_float,
                                                   boundary_cases):
    # the min kind's extra bit and its witness once used two float
    # formulas, and membership_vp raised where they disagreed
    cases = [(orthant_float, (0.3, 0.5),
              (1.0000000000000003e-09, 0.20000000099999996), 0.3, None),
             (orthant_float, (1.0, 1.5), (0.2, 0.7), 0.8, 0.0)]
    for cone, q, y, eps, tol in cases + boundary_cases:
        inst = build_instance(
            cone, [Decision("a", (0.0,)), Decision("b", (1.0,))],
            [finite_set([q]), finite_set([y])])
        for kind in (VP_WEAK, VP_MIN):
            assert membership_vp(inst, 1, eps, kind, tol).members == \
                brute_force_vp(inst, 1, eps, kind, tol).members


def test_points_within_tol_of_each_other_keep_their_decision(orthant):
    # min_elements once dropped both points of the first image at tol
    # 1/10: membership_vp failed on the empty pool and minimal_p
    # answered never
    inst = build_instance(
        orthant, [Decision("a", (F(0),)), Decision("b", (F(1),))],
        [finite_set([(F(0), F(0)), (F(1, 20), F(-1, 20))]),
         finite_set([(F(5), F(5))])], exact=True)
    for kind in (VP_WEAK, VP_MIN):
        assert membership_vp(inst, 1, 0, kind, F(1, 10)).members == ("a",)
        assert brute_force_vp(inst, 1, 0, kind, F(1, 10)).members == ("a",)
        result = minimal_p(inst, "a", 0, kind, F(1, 10))
        assert not result.never and result.p_star == 1


def test_weak_exclusion_witness_dominates_strictly(orthant, orthant_float):
    # (1, 0) is the first point of "b" to reach margin 0 against (1, 1),
    # but only (0, 0) exceeds it, as the weak kind's witness must
    for cone, cast in ((orthant, F), (orthant_float, float)):
        inst = build_instance(
            cone, [Decision("a", (cast(0),)), Decision("b", (cast(1),))],
            [finite_set([(cast(1), cast(1))]),
             finite_set([(cast(1), cast(0)), (cast(0), cast(0))])])
        cert = membership_vp(inst, 1, 0, VP_WEAK).certificates["a"]
        assert cert.dominated_by == "b"
        assert cert.witnesses[0].point == (0, 0)


def test_single_decision_always_member(orthant):
    inst = build_instance(orthant, [Decision("a", (F(0),))],
                          [finite_set([(F(0), F(0)), (F(1), F(1))])],
                          exact=True)
    for kind in (VP_WEAK, VP_MIN):
        for p in (1, 2):
            for eps in (F(0), F(1)):
                assert membership_vp(inst, p, eps, kind).members == ("a",)
                assert brute_force_vp(inst, p, eps, kind).members == ("a",)


def test_incomplete_flag_on_polytopes():
    fan = make_example("t_one", {"g": 3}, exact=True)
    r = membership_vp(fan, 1, 0, VP_WEAK)
    # every pool exceeds budget 1 (the half-grid image degenerates to a
    # segment with two minimal vertices, the others keep three)
    assert set(r.incomplete) == {"1/4", "3/8", "1/2"}
    # budget at the pool maximum clears the flag
    pmax = max(len(candidate_pool(fan, lab).points) for lab in fan.labels)
    r = membership_vp(fan, pmax, 0, VP_WEAK)
    assert r.incomplete == ()


def test_report_json_shape(mfdvp):
    data = membership_vp(mfdvp, 2, 0, VP_WEAK).to_json_dict()
    assert data["kind"] == VP_WEAK and data["p"] == 2
    assert data["members"] == ["0", "1", "2"]
    assert len(data["certificates"]) == 3


def _check_member_certificate(inst, report, eps):
    from setopt.imagesets import point_margin
    for lab in report.members:
        cert = report.certificates[lab]
        assert cert.member
        for comp_label, idx in cert.surviving.items():
            assert idx >= 0
            q = cert.tuple_points[idx]
            mu = point_margin(q, inst.image_of(comp_label), inst.cone)
            assert mu <= eps  # named component escapes strict domination


def _check_excluded_certificate(inst, report, eps):
    from setopt.cone import margin
    for lab, cert in report.certificates.items():
        if cert.member:
            continue
        dom = inst.image_of(cert.dominated_by)
        for q, wit in zip(cert.tuple_points, cert.witnesses):
            if wit.point is not None:
                assert wit.point in set(dom.points)
                assert margin(wit.point, q, inst.cone) > eps
            else:
                lam = wit.multipliers
                assert len(lam) == len(dom.points)
                assert all(l >= 0 for l in lam) and sum(lam) == 1


def test_weak_certificates_reverify(mfdvp):
    for p in (1, 2):
        for eps in (F(0), F(1, 7)):
            report = membership_vp(mfdvp, p, eps, VP_WEAK)
            _check_member_certificate(mfdvp, report, eps)
            _check_excluded_certificate(mfdvp, report, eps)
    fan = make_example("t_one", {"g": 3}, exact=True)
    report = membership_vp(fan, 2, 0, VP_WEAK)
    _check_member_certificate(fan, report, F(0))


def test_weak_witness_skips_a_tie_at_the_first_dominator(orthant,
                                                         monkeypatch):
    # b's first point ties with a's point (margin 0) and only its second
    # dominates strictly, so the weak-kind witness must be the second
    inst = build_instance(orthant, [("a", (F(0),)), ("b", (F(1),))],
                          [finite_set([(F(0), F(0))]),
                           finite_set([(F(0), F(-1)), (F(-1), F(-1))])],
                          exact=True)
    report = membership_vp(inst, 1, 0, VP_WEAK)
    cert = report.certificates["a"]
    assert not cert.member and cert.dominated_by == "b"
    assert cert.witnesses[0].point == (F(-1), F(-1))
    _check_excluded_certificate(inst, report, 0)
    # a dominators that ignores strict picks the tie, which is rejected
    dominators = vectorizer.dominators
    monkeypatch.setattr(vectorizer, "dominators",
                        lambda *args: dominators(*args[:5]))
    report = membership_vp(inst, 1, 0, VP_WEAK)
    assert report.certificates["a"].witnesses[0].point == (F(0), F(-1))
    with pytest.raises(AssertionError):
        _check_excluded_certificate(inst, report, 0)


def test_minimal_p_never_at_positive_shift():
    for seed in (0, 4):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        for eps in (F(1, 7), F(7, 10)):
            weak_eps = set(solve_direct(inst, WEAK, eps).members)
            for dec in inst.decisions:
                res = minimal_p(inst, dec.label, eps, VP_WEAK)
                assert res.never == (dec.label not in weak_eps)


def _first_survivor_by_enumeration(pool_size, kmax, weakdom, extra):
    for size in range(1, kmax + 1):
        for subset in itertools.combinations(range(pool_size), size):
            mask = sum(1 << i for i in subset)
            if not any(not mask & ~w and mask & x
                       for w, x in zip(weakdom, extra)):
                return subset
    return None


def test_first_survivor_matches_enumeration():
    import random
    rng = random.Random(91)
    found = none = 0
    for _ in range(600):
        n = rng.randint(1, 12)
        full = (1 << n) - 1
        weakdom, extra = [], []
        for _ in range(rng.randint(1, 8)):
            # mostly dense weak sets, as pools of minimal points give
            w = full
            for _ in range(rng.randint(0, 3)):
                w &= ~(1 << rng.randrange(n))
            x = w & rng.randrange(1 << n) if rng.random() < 0.8 else w
            weakdom.append(w)
            extra.append(x)
        if rng.random() < 0.1:  # a competitor dominating every subset
            weakdom.append(full)
            extra.append(full)
        for kmax in range(1, n + 1):
            want = _first_survivor_by_enumeration(n, kmax, weakdom, extra)
            assert _first_survivor(n, kmax, weakdom, extra) == want
            found += want is not None
            none += want is None
    assert found > 500 and none > 500


def _cover_front(n_front, h, seed):
    """Decision "0" holds an antichain of ``n_front`` points; each other
    decision strictly dominates every front point outside its escape
    set.  The escape sets come in ``h`` disjoint blocks of two sets that
    share one point, so both smallest budgets of "0" are ``h``."""
    import random
    rng = random.Random(seed)
    front = [(F(4 * i), F(4 * (n_front - 1 - i))) for i in range(n_front)]
    order = list(range(n_front))
    rng.shuffle(order)
    images = [finite_set(front)]
    for block in (order[b::h] for b in range(h)):
        common, rest = block[0], block[1:]
        cut = rng.randint(1, len(rest) - 1)
        for esc in ({common, *rest[:cut]}, {common, *rest[cut:]}):
            # one point strictly below each maximal run of dominated
            # front points, and below no escape point
            runs, run = [], []
            for i in range(n_front):
                if i not in esc:
                    run.append(i)
                elif run:
                    runs.append(run)
                    run = []
            if run:
                runs.append(run)
            images.append(finite_set(
                [(F(4 * r[0] - 1), F(4 * (n_front - 1 - r[-1]) - 1))
                 for r in runs]))
    decisions = [(str(i), (F(i),)) for i in range(len(images))]
    return build_instance(validate_cone([[1, 0], [0, 1]], [1, 1]),
                          decisions, images, exact=True)


def test_large_cover_front_budgets_finish(monkeypatch):
    # the cap checks below run on the last front, of 28 points
    for (n_front, h), seed in itertools.product(((100, 10), (28, 5)),
                                                (0, 1, 2)):
        inst = _cover_front(n_front, h, seed)
        for kind in (VP_WEAK, VP_MIN):
            # the pruned search visits a few hundred subsets here, where
            # enumeration by size meets about 10^5 before the survivor
            with monkeypatch.context() as m:
                m.setattr(vectorizer, "SUBSET_CAP", 2000)
                res = minimal_p(inst, "0", 0, kind)
            assert not res.never and res.p_star == h
            assert res.witness.member
            assert "0" not in membership_vp(inst, h - 1, 0, kind).members
        assert "0" not in membership_vp(inst, 2, 0, VP_WEAK).members
    monkeypatch.setattr(vectorizer, "SUBSET_CAP", 20)
    with pytest.raises(CapExceeded,
                       match="^min-kind search exceeds cap: 21 subsets$"):
        minimal_p(inst, "0", 0, VP_MIN)
    monkeypatch.setattr(vectorizer, "HITTING_CAP", 0)
    with pytest.raises(CapExceeded,
                       match="^hitting-set search exceeds cap of 0 nodes$"):
        minimal_p(inst, "0", 0, VP_WEAK)
