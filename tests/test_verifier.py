from fractions import Fraction as F

import setopt.imagesets
import setopt.setrelations
import setopt.vectorizer
from setopt.verifier import (ConvexExperimentConfig, SuiteConfig,
                             convex_experiment, run_suite)


def _light_config():
    return SuiteConfig(seeds=(11, 22), polytope_seeds=(3,))


def test_suite_passes_on_light_config():
    report = run_suite(_light_config())
    assert report.checks
    assert report.hard_failures == []


def test_suite_deterministic():
    a = run_suite(_light_config())
    b = run_suite(_light_config())
    assert [(c.name, c.instance_id, c.passed) for c in a.checks] == \
        [(c.name, c.instance_id, c.passed) for c in b.checks]


def test_suite_reports_injected_fault(monkeypatch):
    real = setopt.vectorizer.brute_force_vp

    def corrupted(inst, p, eps=0, kind="weak", **kw):
        report = real(inst, p, eps, kind, **kw)
        if kind == "weak" and report.members:
            # flip one membership verdict
            report.members = tuple(report.members[1:])
        return report

    monkeypatch.setattr(setopt.vectorizer, "brute_force_vp", corrupted)
    report = run_suite(_light_config())
    failing = [c for c in report.hard_failures
               if c.name == "vp_oracle_equivalence"]
    assert failing
    assert failing[0].counterexample is not None
    assert "fast" in failing[0].counterexample


def test_suite_reports_injected_vertex_reduction_fault(monkeypatch):
    # a set margin taken as the max over B's points, not the min, exceeds
    # the point margin at B's centroid whenever B's vertex margins differ
    def corrupted(a, b, cone, tol=None):
        return max(setopt.imagesets.point_margin(pt, a, cone, tol)
                   for pt in b.points)

    monkeypatch.setattr(setopt.setrelations, "set_margin", corrupted)
    report = run_suite(SuiteConfig(seeds=(11,), polytope_seeds=(3, 4)))
    failing = {c.instance_id: c.counterexample for c in report.hard_failures
               if c.name == "relations_right_encoding_agreement"}
    assert sorted(failing) == sorted([
        "mfdvp_polytope", "t_one[g=5]", "convex_polyhedral[seed=3]",
        "convex_polyhedral[seed=4]"])
    assert all(len(ce["pair"]) == 2 for ce in failing.values())


def test_empty_eps_grid_runs_zero_shift_checks_only():
    config = SuiteConfig(seeds=(11,), polytope_seeds=(3,), eps_grid=())
    report = run_suite(config)
    assert report.hard_failures == []


def test_report_json_structure():
    report = run_suite(SuiteConfig(seeds=(11,), polytope_seeds=()))
    data = report.to_json_dict()
    assert data["total"] == len(report.checks)
    assert data["failed_hard"] == 0
    assert all("seconds" not in c for c in data["checks"])
    timed = report.to_json_dict(include_timing=True)
    assert all("seconds" in c for c in timed["checks"])


def test_convex_experiment_structure():
    config = ConvexExperimentConfig(seed=0, count=2, grid=7)
    report = convex_experiment(config)
    names = {c.name for c in report.checks}
    assert names == {"convex_soundness", "convex_agreement"}
    sound = [c for c in report.checks if c.name == "convex_soundness"]
    assert all(c.hard and c.passed for c in sound)
    agree = [c for c in report.checks if c.name == "convex_agreement"]
    assert all(not c.hard for c in agree)
    assert all("ratio" in c.counterexample for c in agree)


def test_convex_experiment_empty():
    report = convex_experiment(ConvexExperimentConfig(count=0))
    assert report.checks == []


def test_constant_image_family_full_agreement(orthant):
    # identical polytope everywhere: nothing dominates, every decision
    # weakly minimal and recovered at budget 1
    from setopt.imagesets import polytope
    from setopt.instance import Decision, build_instance
    from setopt.solver_direct import WEAK, solve_direct
    from setopt.vectorizer import VP_WEAK, membership_vp
    tri = [(F(0), F(0)), (F(2), F(0)), (F(0), F(2))]
    inst = build_instance(
        orthant,
        [Decision(str(i), (F(i),)) for i in range(4)],
        [polytope(tri) for _ in range(4)], exact=True)
    assert set(solve_direct(inst, WEAK, 0).members) == set(inst.labels)
    assert set(membership_vp(inst, 1, 0, VP_WEAK).members) == set(inst.labels)


def test_suite_includes_goldens():
    report = run_suite(_light_config())
    names = {c.name for c in report.checks}
    assert {"golden_three_decision_family", "golden_polytope_fan",
            "golden_drifting_singletons",
            "golden_truncated_nesting"} <= names


def test_suite_passes_in_float_mode():
    config = SuiteConfig(seeds=(11,), polytope_seeds=(3,), exact=False)
    report = run_suite(config)
    assert report.hard_failures == []
