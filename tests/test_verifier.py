import collections
import gc
import sys
import weakref
from fractions import Fraction as F

import setopt.imagesets
import setopt.instance
import setopt.setrelations
import setopt.solver_direct
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


def test_suite_reports_faults_in_pools_and_dominance(monkeypatch):
    # each fault is patched where its consumers bind the name: Instance
    # pools through instance.min_elements, min_elements and the strong
    # slack through imagesets.dominators, the vectorizer's witnesses
    # through its own binding
    real_min = setopt.instance.min_elements
    real_dom = setopt.imagesets.dominators

    def drop_last(image, cone, weak=False, tol=None):
        # a one-point pool is kept: an empty one is refused outright
        kept = real_min(image, cone, weak, tol)
        return kept[:-1] if len(kept) > 1 else kept

    def ignore_strict(image, cone, q, eps, tol, strict=False,
                      distinct=False):
        return real_dom(image, cone, q, eps, tol, distinct=distinct)

    faults = {
        "vp_oracle_equivalence":
            [(setopt.instance, "min_elements", drop_last)],
        "images_minimality_and_domination":
            [(setopt.imagesets, "dominators", ignore_strict),
             (setopt.vectorizer, "dominators", ignore_strict)]}
    for law, patches in faults.items():
        with monkeypatch.context() as m:
            for module, name, fault in patches:
                m.setattr(module, name, fault)
            report = run_suite(_small_config())
        assert law in {c.name for c in report.hard_failures}


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


def _small_config():
    return SuiteConfig(seeds=(11,), polytope_seeds=(3,))


def test_suite_asks_each_question_once(monkeypatch):
    # calls from the verifier's own frames, keyed by the instance (or the
    # image pair) and the arguments; the library's internal calls, such as
    # the certificates solve_direct builds, are not counted
    asked = collections.Counter()
    alive = []   # every keyed object stays alive, so its id stays unique

    def counted(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "setopt.verifier":
                alive.append(args)
                asked[(name,) + key(*args)] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(setopt.solver_direct, "solve_direct",
            lambda inst, concept, eps=0: (id(inst), concept, eps))
    counted(setopt.vectorizer, "membership_vp",
            lambda inst, p, eps=0, kind="weak": (id(inst), p, eps, kind))
    counted(setopt.imagesets, "hausdorff", lambda a, b: (id(a), id(b)))
    counted(setopt.setrelations, "set_margin",
            lambda a, b, cone: (id(a), id(b), id(cone)))
    counted(setopt.setrelations, "set_relation",
            lambda a, b, cone, kind, eps=0: (id(a), id(b), id(cone), kind, eps))
    report = run_suite(_small_config())
    assert report.hard_failures == []
    assert {key[0] for key in asked} == {
        "solve_direct", "membership_vp", "hausdorff", "set_margin",
        "set_relation"}
    assert [key for key, n in asked.items() if n > 1] == []


def test_suite_keeps_no_instance_alive(monkeypatch):
    refs = []
    real = setopt.instance.make_example

    def recording(*args, **kwargs):
        inst = real(*args, **kwargs)
        refs.append(weakref.ref(inst))
        return inst

    monkeypatch.setattr(setopt.instance, "make_example", recording)
    run_suite(_small_config())
    gc.collect()
    assert refs
    assert [r for r in refs if r() is not None] == []


# failing (law, instance) pairs under the two faults below, recorded
# before the laws shared their per-instance answers
_FAULT_PAIRS = sorted([
    ("direct_solution_chain", "cantor[T=4,N=6]"),
    ("direct_solution_chain", "convex_polyhedral[seed=3]"),
    ("direct_solution_chain", "mfdvp"),
    ("direct_solution_chain", "mfdvp_polytope"),
    ("direct_solution_chain", "random_finite[seed=11]"),
    ("direct_solution_chain", "strict_min"),
    ("golden_drifting_singletons", "strict_min[g=5]"),
    ("golden_polytope_fan", "t_one[g=5]"),
    ("golden_three_decision_family", "mfdvp"),
    ("vp_members_monotone_in_budget", "cantor[T=4,N=6]"),
    ("vp_members_monotone_in_budget", "mfdvp"),
    ("vp_members_monotone_in_budget", "random_finite[seed=11]"),
    ("vp_members_monotone_in_budget", "strict_min"),
    ("vp_min_members_retain_image_quality", "mfdvp"),
    ("vp_oracle_equivalence", "cantor[T=4,N=6]"),
    ("vp_oracle_equivalence", "mfdvp"),
    ("vp_oracle_equivalence", "random_finite[seed=11]"),
    ("vp_oracle_equivalence", "strict_min"),
    ("vp_positive_eps_union_laws", "mfdvp"),
    ("vp_projection_inside_direct", "mfdvp"),
    ("vp_projection_inside_direct", "random_finite[seed=11]"),
    ("vp_projection_inside_direct", "strict_min"),
])


def test_shared_answers_leave_no_law_blind(monkeypatch):
    real_direct = setopt.solver_direct.solve_direct
    real_vp = setopt.vectorizer.membership_vp

    def direct_fault(inst, concept, eps=0, tol=None):
        report = real_direct(inst, concept, eps, tol)
        if concept == "type2" and eps == 0 and report.members:
            report.members = report.members[:-1]
        return report

    def vp_fault(inst, p, eps=0, kind="weak", tol=None):
        report = real_vp(inst, p, eps, kind, tol)
        if kind == "min" and p == 2 and report.members:
            report.members = report.members[1:]
        return report

    monkeypatch.setattr(setopt.solver_direct, "solve_direct", direct_fault)
    monkeypatch.setattr(setopt.vectorizer, "membership_vp", vp_fault)
    report = run_suite(_small_config())
    assert sorted((c.name, c.instance_id) for c in report.checks
                  if not c.passed) == _FAULT_PAIRS
