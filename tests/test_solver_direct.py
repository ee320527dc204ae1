import random
from fractions import Fraction as F

import pytest

import setopt.imagesets
from setopt.errors import ValidationError
from setopt.imagesets import finite_set
from setopt.instance import Decision, build_instance, make_example
from setopt.lp import lp_maximize
from setopt.setrelations import (LOWER, LOWER_STRICT, LOWER_STRONG,
                                 set_relation, verify_certificate)
from setopt.solver_direct import (TYPE_ONE, TYPE_TWO, WEAK, solve_direct,
                                  weak_threshold)
from setopt.vectorizer import VP_MIN, VP_WEAK, membership_vp, minimal_p


def _oracle_strictly_dominated(inst, j, eps):
    """Definition-level exclusion check for the weak concept on finite
    images: some competitor pushes every point of F(x_j) into its
    shifted strict dominance region."""
    cone = inst.cone
    target = inst.images[j].points
    for i in range(len(inst.images)):
        dominated_all = True
        for b in target:
            shifted = tuple(t - eps * e for t, e in zip(b, cone.e))
            if not any(all(sum(r * (s - y_) for r, s, y_ in
                               zip(row, shifted, y)) > 0
                           for row in cone.rows)
                       for y in inst.images[i].points):
                dominated_all = False
                break
        if dominated_all:
            return True
    return False


def test_three_decision_family_type_two_everything():
    inst = make_example("mfdvp", exact=True)
    assert solve_direct(inst, TYPE_TWO, 0).members == ("0", "1", "2")
    assert solve_direct(inst, WEAK, 0).members == ("0", "1", "2")


def test_drifting_singletons_type_two_origin_only():
    inst = make_example("strict_min", {"g": 3}, exact=True)
    report = solve_direct(inst, TYPE_TWO, 0)
    assert report.members == ("0",)
    for label, cert in report.certificates.items():
        assert cert.dominated_by == "0"
        i = inst.index_of(cert.dominated_by)
        j = inst.index_of(label)
        assert verify_certificate(inst.images[i], inst.images[j], inst.cone,
                                  cert.relation)


def test_polytope_fan_type_one_smallest_only():
    inst = make_example("t_one", {"g": 3}, exact=True)
    assert solve_direct(inst, TYPE_ONE, 0).members == ("1/4",)
    assert solve_direct(inst, TYPE_TWO, 0).members == ("1/4", "3/8", "1/2")


def _count_programs(monkeypatch) -> list:
    solves = []

    def counted(prog, tol=None):
        solves.append(prog)
        return lp_maximize(prog, tol)

    monkeypatch.setattr(setopt.imagesets, "lp_maximize", counted)
    return solves


@pytest.mark.parametrize("concept, kind", [(WEAK, LOWER_STRICT),
                                           (TYPE_ONE, LOWER),
                                           (TYPE_TWO, LOWER_STRONG)])
def test_exclusion_certificates_solve_no_second_program(concept, kind,
                                                        monkeypatch):
    # the margin matrix S (5 images of 3 vertices) would take 75 margin
    # programs and the type-two scan 27 strong slacks; the vertex bounds
    # settle all of S, so weak and type one solve only the 12 margins of
    # their 4 certificates (3 targets each), and type two solves 17
    # strong slacks: those of its certificates and of the strong bits
    # at a tie of the margin with the shift.
    # The question asked again reads what the instance keeps.
    solves = _count_programs(monkeypatch)
    params = {"seed": 5, "g": 5, "n": 1}
    inst = make_example("convex_polyhedral", params, exact=True)
    report = solve_direct(inst, concept)
    assert solve_direct(inst, concept) == report
    assert len(solves) == (17 if concept == TYPE_TWO else 12)
    assert len(report.certificates) == 4
    monkeypatch.undo()
    fresh = make_example("convex_polyhedral", params, exact=True)
    for label, cert in report.certificates.items():
        a = fresh.image_of(cert.dominated_by)
        b = fresh.image_of(label)
        assert cert.relation == set_relation(a, b, fresh.cone, kind)[1]
        assert verify_certificate(a, b, fresh.cone, cert.relation)


@pytest.mark.parametrize("kind, p, programs", [(VP_WEAK, 2, 9),
                                               (VP_MIN, 1, 9)])
def test_vectorized_membership_solves_few_programs(kind, p, programs,
                                                   monkeypatch):
    # one program per (competitor, pool point) would be 25 (5 images, one
    # minimal vertex each) on top of the pools' strong slacks; a vertex
    # with another vertex K-below it leaves the pool with no program and
    # the vertex bounds settle most table bits
    solves = _count_programs(monkeypatch)
    inst = make_example("convex_polyhedral", {"seed": 5, "g": 5, "n": 1},
                        exact=True)
    report = membership_vp(inst, p, 0, kind)
    assert sum(map(len, (inst.pool(i, 0) for i in range(5)))) == 5
    assert len(solves) == programs
    assert membership_vp(inst, p, 0, kind) == report
    assert len(solves) == programs
    assert report.members == ("1",)


def test_weak_matches_definition_oracle():
    for seed in range(10):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        for eps in (F(0), F(1, 3), F(1)):
            members = set(solve_direct(inst, WEAK, eps).members)
            expected = {d.label for j, d in enumerate(inst.decisions)
                        if not _oracle_strictly_dominated(inst, j, eps)}
            assert members == expected


def test_solution_chain_and_monotonicity():
    for seed in (0, 4, 8):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        prev_weak, prev_t2 = None, None
        for eps in (F(0), F(1, 4), F(1, 2), F(1), F(2)):
            t1 = set(solve_direct(inst, TYPE_ONE, eps).members)
            t2 = set(solve_direct(inst, TYPE_TWO, eps).members)
            wk = set(solve_direct(inst, WEAK, eps).members)
            assert t1 <= t2 <= wk
            if prev_weak is not None:
                assert prev_weak <= wk and prev_t2 <= t2
            prev_weak, prev_t2 = wk, t2


def test_weak_threshold_contract():
    inst = make_example("strict_min", {"g": 4}, exact=True)
    thresholds = weak_threshold(inst)
    assert all(t == 0 for t in thresholds.values())

    inst = make_example("mfdvp", exact=True)
    thresholds = weak_threshold(inst)
    assert thresholds["0"] <= 0 and "0" in solve_direct(inst, WEAK, 0).members

    rng = random.Random(6)
    for seed in range(6):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        thresholds = weak_threshold(inst)
        for _ in range(20):
            eps = F(rng.randint(0, 30), rng.randint(1, 7))
            members = set(solve_direct(inst, WEAK, eps).members)
            assert members == {lab for lab, t in thresholds.items()
                               if t <= eps}
        # thresholds themselves are boundary members
        for lab, t in thresholds.items():
            assert lab in solve_direct(inst, WEAK, t).members


def test_self_margin_keeps_antichain_thresholds_zero(orthant):
    inst = build_instance(
        orthant,
        [Decision("only", (F(0),))],
        [finite_set([(F(0), F(2)), (F(2), F(0))])], exact=True)
    assert weak_threshold(inst)["only"] == 0
    assert solve_direct(inst, WEAK, 0).members == ("only",)
    assert solve_direct(inst, TYPE_TWO, 0).members == ("only",)
    assert solve_direct(inst, TYPE_ONE, 0).members == ("only",)


def test_intersection_law():
    for seed in (1, 5):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        thresholds = weak_threshold(inst)
        wk0 = set(solve_direct(inst, WEAK, 0).members)
        positive = [t for t in thresholds.values() if t > 0]
        eps_grid = [F(1, 7), F(7, 10), F(3)]
        if positive:
            eps_grid.append(min(positive) / 2)
        inter = None
        for eps in eps_grid:
            cur = set(solve_direct(inst, WEAK, eps).members)
            inter = cur if inter is None else inter & cur
        assert inter == wk0
        t20 = set(solve_direct(inst, TYPE_TWO, 0).members)
        for eps in eps_grid:
            assert t20 <= set(solve_direct(inst, TYPE_TWO, eps).members)


def test_eps_validation():
    inst = make_example("mfdvp", exact=True)
    with pytest.raises(ValidationError):
        solve_direct(inst, WEAK, F(-1))
    with pytest.raises(ValidationError):
        solve_direct(inst, "bogus", 0)


def test_out_of_range_tol_is_refused():
    # a negative tol made every weak comparison fail: the answer at
    # tol 0 is ('0', '1', '2'), a tol of -1 answered ()
    inst = make_example("mfdvp", exact=True)
    assert solve_direct(inst, WEAK, 0, tol=0).members == ("0", "1", "2")
    for tol in (F(-1), -1e-9, float("nan"), float("inf"), "0", True):
        with pytest.raises(ValidationError, match="tol must be"):
            solve_direct(inst, WEAK, 0, tol=tol)


def test_report_json_shape():
    inst = make_example("strict_min", {"g": 3}, exact=True)
    report = solve_direct(inst, TYPE_TWO, 0)
    data = report.to_json_dict()
    assert data["concept"] == TYPE_TWO and data["members"] == ["0"]
    assert {c["label"] for c in data["certificates"]} == {"1/2", "1"}
    weak = solve_direct(inst, WEAK, 0).to_json_dict()
    assert set(weak["thresholds"]) == {"0", "1/2", "1"}


def test_an_explicit_float_zero_tol_is_exact(orthant):
    # tol=0.0 is tol 0: the thresholds stay exact, so 1/3 - 0.0 does not
    # round below the margin 1/3 of b over a
    a = finite_set([(F(0), F(0))])
    b = finite_set([(F(1, 3), F(1, 3))])
    for tol in (0, 0.0):
        inst = build_instance(orthant, [("a", (0,)), ("b", (1,))], [a, b])
        assert solve_direct(inst, WEAK, F(1, 3), tol).members == ("a", "b")
        assert not set_relation(a, b, orthant, LOWER_STRICT, F(1, 3), tol)[0]
        assert membership_vp(inst, 1, F(1, 3), VP_WEAK, tol=tol).members == (
            "a", "b")
        assert minimal_p(inst, "b", F(1, 3), VP_WEAK, tol=tol).p_star == 1
