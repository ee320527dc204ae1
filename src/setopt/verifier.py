"""Property suites: every library invariant exercised over built-in and
seeded random instances, plus the convex-graph budget experiment.

Failures are report content, never exceptions; a failing check always
carries a replayable counterexample payload (instance id, parameters,
offending labels).  Checks on finite instances are hard (the theory is
exact there); the convex experiment's disagreements are soft findings
because the grid restriction breaks its convexity hypothesis.

Each distinct library question (members of a concept or of a budget, a
set relation, a set margin, a Hausdorff distance) is asked once per
instance and suite: the laws on an instance read one shared ``_Facts``
object, which ``run_suite`` drops when it returns.
``CheckResult.seconds`` charges a shared fact to the first law that asks
for it; timings never enter reports.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import imagesets, instance as instance_mod, setrelations, solver_direct, vectorizer
from .arith import div, dot, format_number, ge, gt
from .cone import margin, r_epsilon, validate_cone
from .errors import SetoptError
from .imagesets import finite_set
from .lp import LinearProgram, lp_feasible, lp_maximize


@dataclass
class CheckResult:
    name: str
    instance_id: str
    passed: bool
    hard: bool = True
    counterexample: Optional[dict] = None
    seconds: float = 0.0

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {
            "name": self.name,
            "instance": self.instance_id,
            "passed": self.passed,
            "hard": self.hard,
            "counterexample": self.counterexample,
        }
        if include_timing:
            out["seconds"] = self.seconds
        return out


@dataclass
class SuiteReport:
    checks: list = field(default_factory=list)

    @property
    def hard_failures(self) -> list:
        return [c for c in self.checks if not c.passed and c.hard]

    @property
    def soft_findings(self) -> list:
        return [c for c in self.checks if not c.passed and not c.hard]

    def to_json_dict(self, include_timing: bool = False) -> dict:
        return {
            "total": len(self.checks),
            "failed_hard": len(self.hard_failures),
            "failed_soft": len(self.soft_findings),
            "checks": [c.to_json_dict(include_timing) for c in self.checks],
        }


@dataclass
class SuiteConfig:
    seeds: tuple = (11, 22, 33, 44, 55, 66)
    random_count: int = 6
    image_max: int = 4
    eps_grid: tuple = (Fraction(1, 7), Fraction(7, 10))
    p_range: tuple = (1, 2, 3)
    polytope_seeds: tuple = (3, 4)
    polytope_grid: int = 4
    exact: bool = True


@dataclass
class ConvexExperimentConfig:
    seed: int = 0
    count: int = 10
    grid: int = 17
    n: int = 1


def _labeled_instances(config: SuiteConfig):
    ex = config.exact
    out = [
        ("mfdvp", instance_mod.make_example("mfdvp", exact=ex)),
        ("strict_min", instance_mod.make_example("strict_min", {"g": 5}, exact=ex)),
        ("cantor[T=4,N=6]",
         instance_mod.make_example("cantor", {"T": 4, "N": 6}, exact=ex)),
    ]
    for seed in config.seeds:
        out.append((f"random_finite[seed={seed}]", instance_mod.make_example(
            "random_finite",
            {"seed": seed, "count": config.random_count,
             "s_max": config.image_max}, exact=ex)))
    return out


def _polytope_instances(config: SuiteConfig):
    out = [("mfdvp_polytope",
            instance_mod.make_example("mfdvp_polytope", exact=config.exact)),
           ("t_one[g=5]",
            instance_mod.make_example("t_one", {"g": 5}, exact=config.exact))]
    for seed in config.polytope_seeds:
        out.append((f"convex_polyhedral[seed={seed}]",
                    instance_mod.make_example(
                        "convex_polyhedral",
                        {"seed": seed, "g": config.polytope_grid},
                        exact=config.exact)))
    return out


def _run(name, inst_id, law, *args) -> CheckResult:
    """Time one hard check; ``law(*args)`` returns its counterexample,
    or ``None`` when the law holds."""
    started = time.perf_counter()
    ce = law(*args)
    return CheckResult(name, inst_id, ce is None, counterexample=ce,
                       seconds=time.perf_counter() - started)


def _per_instance(laws, instances, *args) -> list:
    """Every ``(name, law)`` on every instance, instance by instance."""
    return [_run(name, inst_id, law, subject, *args)
            for inst_id, subject in instances for name, law in laws]


class _Facts:
    """The library's answers about one instance, each asked once.

    Every question is looked up on its library module when first asked,
    so a replaced library function reaches every law.  Member sets are
    frozensets, so no law can change an answer another law reads.  A
    float shift is kept apart from an equal rational one: the two can
    resolve different tolerances."""

    def __init__(self, inst):
        self.inst = inst
        self._answers = {}

    def _once(self, key, ask):
        if key not in self._answers:
            self._answers[key] = ask()
        return self._answers[key]

    def members(self, concept, eps) -> frozenset:
        return self._once(
            ("members", concept, eps, isinstance(eps, float)),
            lambda: frozenset(solver_direct.solve_direct(
                self.inst, concept, eps).members))

    def vp_members(self, p, eps, kind) -> frozenset:
        return self._once(
            ("vp_members", p, eps, isinstance(eps, float), kind),
            lambda: frozenset(vectorizer.membership_vp(
                self.inst, p, eps, kind).members))

    def relation(self, i, j, kind, eps) -> bool:
        a, b = self.inst.images[i], self.inst.images[j]
        return self._once(
            ("relation", i, j, kind, eps, isinstance(eps, float)),
            lambda: setrelations.set_relation(a, b, self.inst.cone, kind,
                                              eps)[0])

    def set_margin(self, i, j):
        a, b = self.inst.images[i], self.inst.images[j]
        return self._once(("set_margin", i, j), lambda: setrelations.set_margin(
            a, b, self.inst.cone))

    def hausdorff(self, i, j) -> float:
        a, b = self.inst.images[i], self.inst.images[j]
        return self._once(("hausdorff", i, j),
                          lambda: imagesets.hausdorff(a, b))


# ---------------------------------------------------------------------------
# Linear-programming checks
# ---------------------------------------------------------------------------

def _random_standard_lp(rng):
    nv = rng.randint(2, 5)
    nrows = rng.randint(1, 3)
    rows = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(nv))
                 for _ in range(nrows))
    rhs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(nrows))
    obj = tuple(Fraction(rng.randint(-3, 3)) for _ in range(nv))
    return LinearProgram(objective=obj, eq_lhs=rows, eq_rhs=rhs,
                         lower_bounds=(Fraction(0),) * nv)


def _enumerate_basic_optimum(prog):
    """Best objective over basic feasible solutions (independent oracle)."""
    nv = prog.num_vars
    rows = [list(r) for r in prog.eq_lhs]
    rhs = list(prog.eq_rhs)
    m = len(rows)
    best = None
    subsets = (cols for size in range(min(m, nv) + 1)
               for cols in itertools.combinations(range(nv), size))
    for cols in subsets:
        sol = _solve_square(rows, rhs, cols)
        if sol is None:
            continue
        point = [Fraction(0)] * nv
        for c, v in zip(cols, sol):
            point[c] = v
        if any(v < 0 for v in point):
            continue
        if any(sum(r[j] * point[j] for j in range(nv)) != b
               for r, b in zip(rows, rhs)):
            continue
        val = sum(o * v for o, v in zip(prog.objective, point))
        if best is None or val > best:
            best = val
    return best


def _solve_square(rows, rhs, cols):
    m = len(rows)
    a = [[rows[i][c] for c in cols] + [rhs[i]] for i in range(m)]
    n = len(cols)
    r = 0
    for c in range(n):
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
    for i in range(r, m):
        if a[i][-1] != 0:
            return None
    return [a[i][-1] for i in range(r)]


def _lp_simplex_vs_basic_enumeration(seed):
    rng = random.Random(seed * 7919)
    for trial in range(8):
        prog = _random_standard_lp(rng)
        feas = lp_feasible(prog, tol=0)
        zero = LinearProgram(objective=(Fraction(0),) * prog.num_vars,
                             eq_lhs=prog.eq_lhs, eq_rhs=prog.eq_rhs,
                             lower_bounds=prog.lower_bounds)
        out0 = lp_maximize(zero, tol=0)
        if feas.feasible != out0.is_optimal:
            return {"trial": trial, "law": "two-phase"}
        out = lp_maximize(prog, tol=0)
        out_again = lp_maximize(prog, tol=0)
        if (out.status, out.value) != (out_again.status, out_again.value):
            return {"trial": trial, "law": "determinism"}
        oracle = _enumerate_basic_optimum(prog)
        if out.is_optimal:
            if oracle is None or out.value != oracle:
                return {"trial": trial, "law": "basic-solution",
                        "simplex": format_number(out.value),
                        "oracle": None if oracle is None
                        else format_number(oracle)}
        elif out.status == "infeasible" and oracle is not None:
            return {"trial": trial, "law": "infeasible-vs-basic"}
    return None


# ---------------------------------------------------------------------------
# Cone checks
# ---------------------------------------------------------------------------

def _suite_cones(exact):
    def n(v):
        return Fraction(v) if exact else float(v)
    orthant = validate_cone([[n(1), n(0)], [n(0), n(1)]], [n(1), n(1)])
    skew = validate_cone([[n(0), n(1)], [n(2), n(-1)]], [n(1), Fraction(1, 2) if exact else 0.5])
    return [("orthant", orthant), ("skew", skew)]


def _cone_margin_laws(cone, exact):
    tol = 0 if exact else 1e-9
    rng = random.Random(101)
    for trial in range(60):
        pts = [tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                     for _ in range(2)) for _ in range(3)]
        if not exact:
            pts = [tuple(float(v) for v in p) for p in pts]
        a, b, c = pts
        m_ac = margin(a, c, cone)
        m_ab = margin(a, b, cone)
        m_bc = margin(b, c, cone)
        if m_ac < m_ab + m_bc - tol:
            return {"law": "superadditivity", "trial": trial}
        shift = pts[0]
        lhs = margin(tuple(x + s for x, s in zip(a, shift)),
                     tuple(x + s for x, s in zip(b, shift)), cone)
        if abs(lhs - m_ab) > tol:
            return {"law": "translation", "trial": trial}
        diff = tuple(y - x for x, y in zip(a, b))
        in_cone = all(dot(row, diff) >= -tol for row in cone.rows)
        in_int = all(dot(row, diff) > tol for row in cone.rows)
        if ge(m_ab, 0, tol) != in_cone or gt(m_ab, 0, tol) != in_int:
            return {"law": "order-consistency", "trial": trial}
    return None


def _cone_safe_ball_containment(cone, exact):
    eps = Fraction(2) if exact else 2.0
    r = r_epsilon(cone, eps)
    center = [float(v) * float(eps) for v in cone.e]
    for i in range(1000):
        ang = 2 * math.pi * i / 1000
        pt = (center[0] + r * math.cos(ang), center[1] + r * math.sin(ang))
        if any(sum(float(rv) * pv for rv, pv in zip(row, pt)) <= 0
               for row in cone.rows):
            return {"law": "ball-containment", "sample": i}
    return None


CONE_LAWS = (("cone_margin_laws", _cone_margin_laws),
             ("cone_safe_ball_containment", _cone_safe_ball_containment))


# ---------------------------------------------------------------------------
# Image-set checks
# ---------------------------------------------------------------------------

def _images_minimality_and_domination(facts):
    inst = facts.inst
    for dec, img in zip(inst.decisions, inst.images):
        mins = set(imagesets.min_elements(img, inst.cone, weak=False))
        weaks = set(imagesets.min_elements(img, inst.cone, weak=True))
        if not (mins <= weaks <= set(img.points)):
            return {"law": "min-chain", "label": dec.label}
        if not imagesets.domination_check(img, inst.cone):
            return {"law": "domination", "label": dec.label}
    return None


def _images_internal_covering_laws(facts):
    inst = facts.inst
    eps_list = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
    if not inst.exact:
        eps_list = [float(e) for e in eps_list]
    for dec, img in zip(inst.decisions, inst.images):
        prev = None
        for eps in eps_list:
            res = imagesets.covering_number_internal(img, eps)
            greedy = imagesets.covering_number_internal(img, eps, exact_cap=0)
            if res.count > greedy.count:
                return {"law": "exact<=greedy", "label": dec.label}
            if not set(res.centers) <= set(img.points):
                return {"law": "centers-subset", "label": dec.label}
            covered = all(
                any(sum((a - c) ** 2 for a, c in zip(p, ctr)) <= eps * eps
                    for ctr in res.centers) for p in img.points)
            if not covered:
                return {"law": "covers", "label": dec.label}
            if prev is not None and res.count > prev:
                return {"law": "monotone-in-eps", "label": dec.label}
            prev = res.count
    return None


def _images_hausdorff_metric(facts):
    d = facts.hausdorff
    for a, b, c in itertools.islice(
            itertools.permutations(range(len(facts.inst.images)), 3), 12):
        dab, dba, dac, dcb = d(a, b), d(b, a), d(a, c), d(c, b)
        if abs(dab - dba) > 1e-9 or d(a, a) != 0:
            return {"law": "symmetry/identity"}
        if dab > dac + dcb + 1e-9:
            return {"law": "triangle"}
    return None


IMAGE_LAWS = (
    ("images_minimality_and_domination", _images_minimality_and_domination),
    ("images_internal_covering_laws", _images_internal_covering_laws),
    ("images_hausdorff_metric", _images_hausdorff_metric),
)


def _images_prune_idempotent(facts):
    for dec, img in zip(facts.inst.decisions, facts.inst.images):
        once = imagesets.prune_to_extreme(img.points)
        twice = imagesets.prune_to_extreme(once)
        if set(once) != set(twice):
            return {"label": dec.label}
    return None


# ---------------------------------------------------------------------------
# Relation checks
# ---------------------------------------------------------------------------

def _pairs(inst) -> list:
    return list(itertools.product(range(len(inst.images)), repeat=2))[:25]


def _relations_implication_chain(facts, config):
    for i, j in _pairs(facts.inst):
        for eps in [0] + list(config.eps_grid):
            strict = facts.relation(i, j, setrelations.LOWER_STRICT, eps)
            strong = facts.relation(i, j, setrelations.LOWER_STRONG, eps)
            lower = facts.relation(i, j, setrelations.LOWER, eps)
            if (strict and not strong) or (strong and not lower):
                return {"law": "chain", "pair": [i, j],
                        "eps": format_number(eps)}
    return None


def _relations_preorder_transitive(facts, config):
    def lower(i, j):
        return facts.relation(i, j, setrelations.LOWER, 0)
    for i, j, k in itertools.islice(
            itertools.product(range(len(facts.inst.images)), repeat=3), 64):
        if lower(i, j) and lower(j, k) and not lower(i, k):
            return {"triple": [i, j, k]}
    return None


def _relations_strict_threshold_law(facts, config):
    inst = facts.inst
    rng = random.Random(77)
    for i, j in _pairs(inst)[:10]:
        sm = facts.set_margin(i, j)
        probes = []
        for _ in range(18):
            delta = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            probes.append(sm + delta if inst.exact else float(sm) + float(delta))
        probes.append(sm)  # exact tie: strict must fail, non-strict hold
        for eps in probes:
            if eps < 0:
                continue
            strict = facts.relation(i, j, setrelations.LOWER_STRICT, eps)
            expected = gt(sm, eps, 0 if inst.exact else 1e-9)
            if strict != expected:
                return {"pair": [i, j], "eps": format_number(eps)}
    return None


RELATION_LAWS = (
    ("relations_implication_chain", _relations_implication_chain),
    ("relations_preorder_transitive", _relations_preorder_transitive),
    ("relations_strict_threshold_law", _relations_strict_threshold_law),
)


def _relations_right_encoding_agreement(facts):
    """The set margin, a minimum over B's vertices, is at most the margin
    at B's centroid, as the point margin against a convex A is concave."""
    inst = facts.inst
    tol = 0 if inst.exact else 1e-9
    for i, j in itertools.product(range(len(inst.images)), repeat=2):
        a, b = inst.images[i], inst.images[j]
        centroid = tuple(div(sum(c), len(b.points)) for c in zip(*b.points))
        if not ge(imagesets.point_margin(centroid, a, inst.cone),
                  facts.set_margin(i, j), tol):
            return {"pair": [i, j]}
    return None


# ---------------------------------------------------------------------------
# Direct-solver checks
# ---------------------------------------------------------------------------

def _direct_solution_chain(facts, config):
    for eps in [0] + list(config.eps_grid):
        t1 = facts.members(solver_direct.TYPE_ONE, eps)
        t2 = facts.members(solver_direct.TYPE_TWO, eps)
        wk = facts.members(solver_direct.WEAK, eps)
        if not (t1 <= t2 <= wk):
            return {"eps": format_number(eps), "type1": sorted(t1),
                    "type2": sorted(t2), "weak": sorted(wk)}
    return None


def _direct_eps_monotonicity(facts, config):
    prev_w, prev_t2 = None, None
    for eps in sorted([0] + list(config.eps_grid)):
        wk = facts.members(solver_direct.WEAK, eps)
        t2 = facts.members(solver_direct.TYPE_TWO, eps)
        if prev_w is not None and not (prev_w <= wk and prev_t2 <= t2):
            return {"eps": format_number(eps)}
        prev_w, prev_t2 = wk, t2
    return None


def _direct_weak_threshold_law(facts, config):
    inst = facts.inst
    thresholds = solver_direct.weak_threshold(inst)
    rng = random.Random(31)
    tol = 0 if inst.exact else 1e-9
    for _ in range(20):
        eps = Fraction(rng.randint(0, 40), rng.randint(1, 8))
        if not inst.exact:
            eps = float(eps)
        members = facts.members(solver_direct.WEAK, eps)
        expected = {lab for lab, t in thresholds.items()
                    if not gt(t, eps, tol)}
        if members != expected:
            return {"eps": format_number(eps), "members": sorted(members),
                    "expected": sorted(expected)}
    return None


def _direct_intersection_law(facts, config):
    inst = facts.inst
    positive = [t for t in solver_direct.weak_threshold(inst).values() if t > 0]
    adaptive = list(config.eps_grid)
    if positive:
        adaptive.append(min(positive) / 2)
    wk0 = facts.members(solver_direct.WEAK, 0)
    t20 = facts.members(solver_direct.TYPE_TWO, 0)
    inter = None
    for eps in adaptive:
        wke = facts.members(solver_direct.WEAK, eps)
        t2e = facts.members(solver_direct.TYPE_TWO, eps)
        if not t20 <= t2e:
            return {"law": "type2-in-eps", "eps": format_number(eps)}
        inter = wke if inter is None else (inter & wke)
    if adaptive and inter != wk0:
        return {"law": "weak-intersection", "intersection": sorted(inter),
                "weak0": sorted(wk0)}
    return None


DIRECT_LAWS = (
    ("direct_solution_chain", _direct_solution_chain),
    ("direct_eps_monotonicity", _direct_eps_monotonicity),
    ("direct_weak_threshold_law", _direct_weak_threshold_law),
    ("direct_intersection_law", _direct_intersection_law),
)


# ---------------------------------------------------------------------------
# Vectorizer checks
# ---------------------------------------------------------------------------

def _pmax(inst) -> int:
    return max(len(vectorizer.candidate_pool(inst, d.label).points)
               for d in inst.decisions)


def _vp_members_monotone_in_budget(facts, config):
    for kind in vectorizer.VP_KINDS:
        for eps in [0] + list(config.eps_grid):
            prev = None
            for p in config.p_range:
                mem = facts.vp_members(p, eps, kind)
                if prev is not None and not prev <= mem:
                    return {"law": "monotone-p", "kind": kind,
                            "eps": format_number(eps), "p": p}
                prev = mem
    return None


def _vp_projection_inside_direct(facts, config):
    for eps in [0] + list(config.eps_grid):
        direct_w = facts.members(solver_direct.WEAK, eps)
        direct_t2 = facts.members(solver_direct.TYPE_TWO, eps)
        for p in config.p_range:
            vw = facts.vp_members(p, eps, vectorizer.VP_WEAK)
            vm = facts.vp_members(p, eps, vectorizer.VP_MIN)
            if not (vw <= direct_w and vm <= direct_t2):
                return {"eps": format_number(eps), "p": p,
                        "law": "projection-subset"}
    return None


def _vp_oracle_equivalence(facts, config):
    inst = facts.inst
    for kind in vectorizer.VP_KINDS:
        for eps in [0] + list(config.eps_grid):
            for p in config.p_range:
                fast = facts.vp_members(p, eps, kind)
                slow = set(vectorizer.brute_force_vp(inst, p, eps, kind).members)
                if fast != slow:
                    return {"kind": kind, "p": p, "eps": format_number(eps),
                            "fast": sorted(fast), "oracle": sorted(slow)}
    return None


def _vp_minimal_budget_never_consistency(facts, config):
    inst = facts.inst
    direct_w0 = facts.members(solver_direct.WEAK, 0)
    for dec in inst.decisions:
        res = vectorizer.minimal_p(inst, dec.label, 0, vectorizer.VP_WEAK)
        if res.never == (dec.label in direct_w0):
            return {"label": dec.label, "never": res.never}
    return None


def _vp_finite_budget_equalities(facts, config):
    inst = facts.inst
    direct_w0 = facts.members(solver_direct.WEAK, 0)
    budgets = {
        "omega-minus-one": max(1, len(inst.decisions) - 1),
        "max-min-count": _pmax(inst),
    }
    for law, p_thm in budgets.items():
        mem = facts.vp_members(p_thm, 0, vectorizer.VP_WEAK)
        if mem != direct_w0:
            return {"law": law, "p": p_thm, "members": sorted(mem),
                    "direct": sorted(direct_w0)}
    return None


def _vp_min_members_retain_image_quality(facts, config):
    inst = facts.inst
    retained = facts.vp_members(_pmax(inst), 0, vectorizer.VP_MIN)
    for j, dec in enumerate(inst.decisions):
        if not any(ge(facts.set_margin(inst.index_of(r), j), 0, 0)
                   for r in sorted(retained)):
            return {"label": dec.label, "retained": sorted(retained)}
    return None


def _vp_positive_eps_union_laws(facts, config):
    inst = facts.inst
    direct_w0 = facts.members(solver_direct.WEAK, 0)
    pmax = _pmax(inst)
    for eps in config.eps_grid:
        uw = facts.vp_members(pmax, eps, vectorizer.VP_WEAK)
        um = facts.vp_members(pmax, eps, vectorizer.VP_MIN)
        if not (direct_w0 <= um and um <= uw and uw == um):
            return {"eps": format_number(eps), "weak_union": sorted(uw),
                    "min_union": sorted(um)}
    return None


def _vp_covering_budget_sufficient(facts, config):
    inst = facts.inst
    direct_w0 = facts.members(solver_direct.WEAK, 0)
    for eps in (e for e in config.eps_grid if e > 0):
        for lab in sorted(direct_w0):
            bound = vectorizer.covering_p_bound(inst, lab, eps)
            if lab not in facts.vp_members(bound, eps, vectorizer.VP_WEAK):
                return {"label": lab, "eps": format_number(eps),
                        "bound": bound}
    return None


def _vp_weighted_sum_soundness(facts, config):
    inst = facts.inst
    e = inst.cone.e
    weights_cases = [[e], [e, e],
                     [tuple(sum(row[d] for row in inst.cone.rows)
                            for d in range(inst.m))]]
    for weights in weights_cases:
        p = len(weights)
        sols = vectorizer.solve_weighted_sum(inst, p, weights)
        if not {s.label for s in sols} <= facts.vp_members(
                p, 0, vectorizer.VP_WEAK):
            return {"weights": [format_number(v) for w in weights for v in w]}
    return None


VP_LAWS = (
    ("vp_members_monotone_in_budget", _vp_members_monotone_in_budget),
    ("vp_projection_inside_direct", _vp_projection_inside_direct),
    ("vp_oracle_equivalence", _vp_oracle_equivalence),
    ("vp_minimal_budget_never_consistency",
     _vp_minimal_budget_never_consistency),
    ("vp_finite_budget_equalities", _vp_finite_budget_equalities),
    ("vp_min_members_retain_image_quality",
     _vp_min_members_retain_image_quality),
    ("vp_positive_eps_union_laws", _vp_positive_eps_union_laws),
    ("vp_covering_budget_sufficient", _vp_covering_budget_sufficient),
    ("vp_weighted_sum_soundness", _vp_weighted_sum_soundness),
)


def _vp_polytope_budget_equality(facts):
    inst = facts.inst
    direct_w0 = facts.members(solver_direct.WEAK, 0)
    p_thm = max(len(img.points) for img in inst.images)
    mem = facts.vp_members(p_thm, 0, vectorizer.VP_WEAK)
    if mem != direct_w0:
        return {"p": p_thm, "members": sorted(mem), "direct": sorted(direct_w0)}
    return None


# ---------------------------------------------------------------------------
# Instance checks
# ---------------------------------------------------------------------------

def _cantor_limit_structure():
    for i in range(8):
        pt = instance_mod.cantor_limit_point(i)
        if pt[0] + pt[1] != 2:
            return {"law": "limit-line", "i": i}
    cone = _suite_cones(True)[0][1]
    pts = [instance_mod.cantor_limit_point(i) for i in range(5)]
    if set(imagesets.min_elements(finite_set(pts), cone)) != set(pts):
        return {"law": "limit-antichain"}
    return None


def _generators_reproducible(exact):
    a = instance_mod.make_example("random_finite", {"seed": 5}, exact=exact)
    b = instance_mod.make_example("random_finite", {"seed": 5}, exact=exact)
    if a != b:
        return {"law": "seed-reproducibility"}
    return None


def _discretization_laws(facts):
    inst = facts.inst
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(3, 2)):
        if not inst.exact:
            eps = float(eps)
        disc = instance_mod.discretize_map(inst, eps)
        if not all(set(d.points) <= set(o.points)
                   for d, o in zip(disc.images, inst.images)):
            return {"law": "centers-subset", "eps": format_number(eps)}
        if instance_mod.instance_distance_sq(inst, disc) > eps * eps:
            return {"law": "distance-bound", "eps": format_number(eps)}
        p_disc = max(len(img.points) for img in disc.images)
        disc_facts = _Facts(disc)
        if disc_facts.members(solver_direct.WEAK, 0) != \
                disc_facts.vp_members(p_disc, 0, vectorizer.VP_WEAK):
            return {"law": "discretized-budget-equality",
                    "eps": format_number(eps)}
    return None


# ---------------------------------------------------------------------------
# Golden examples: the worked-example verdicts every release must reproduce
# ---------------------------------------------------------------------------

def _golden_three_decision_family(exact):
    inst = instance_mod.make_example("mfdvp", exact=exact)
    facts = _Facts(inst)
    if solver_direct.solve_direct(inst, solver_direct.TYPE_TWO, 0).members \
            != ("0", "1", "2"):
        return {"law": "type2-members"}
    if "0" in facts.vp_members(1, 0, vectorizer.VP_WEAK):
        return {"law": "weak-excluded-at-p1"}
    if "0" not in facts.vp_members(2, 0, vectorizer.VP_WEAK):
        return {"law": "weak-member-at-p2"}
    if vectorizer.minimal_p(inst, "0", 0, vectorizer.VP_WEAK).p_star != 2:
        return {"law": "weak-minimal-p"}
    if any("0" in facts.vp_members(p, 0, vectorizer.VP_MIN)
           for p in range(1, 7)):
        return {"law": "min-never"}
    return None


def _golden_polytope_fan(exact):
    fan = instance_mod.make_example("t_one", {"g": 5}, exact=exact)
    if solver_direct.solve_direct(fan, solver_direct.TYPE_ONE, 0).members \
            != ("1/4",):
        return {"law": "type1-members"}
    if _Facts(fan).members(solver_direct.TYPE_TWO, 0) != set(fan.labels):
        return {"law": "type2-members"}
    report_min = vectorizer.membership_vp(fan, 1, 0, vectorizer.VP_MIN)
    if "1/2" not in report_min.members or \
            report_min.certificates["1/2"].tuple_points[0][1] != 0:
        return {"law": "min-member-at-p1"}
    return None


def _golden_drifting_singletons(exact, eps_grid):
    singles = instance_mod.make_example("strict_min", {"g": 5}, exact=exact)
    if solver_direct.solve_direct(singles, solver_direct.TYPE_TWO,
                                  0).members != ("0",):
        return {"law": "type2-members"}
    facts = _Facts(singles)
    for eps in eps_grid:
        if facts.vp_members(1, eps, vectorizer.VP_MIN) != set(singles.labels):
            return {"law": "min-members", "eps": format_number(eps)}
    return None


def _golden_truncated_nesting(exact):
    trunc = instance_mod.make_example("cantor", {"T": 4, "N": 6}, exact=exact)
    res = vectorizer.minimal_p(trunc, "1", 0, vectorizer.VP_WEAK)
    if res.never or res.p_star != 4:  # budget equals truncation depth
        return {"law": "weak-minimal-p"}
    return None


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_suite(config: Optional[SuiteConfig] = None) -> SuiteReport:
    """Execute every invariant check plus the golden-example verdicts;
    deterministic given the config."""
    config = config or SuiteConfig()
    ex = config.exact
    finites = [(inst_id, _Facts(inst))
               for inst_id, inst in _labeled_instances(config)]
    polytopes = [(inst_id, _Facts(inst))
                 for inst_id, inst in _polytope_instances(config)]
    report = SuiteReport()
    checks = report.checks
    checks.extend(_run("lp_simplex_vs_basic_enumeration", f"seed={seed}",
                       _lp_simplex_vs_basic_enumeration, seed)
                  for seed in config.seeds)
    checks.extend(_per_instance(CONE_LAWS, _suite_cones(ex), ex))
    checks.extend(_per_instance(IMAGE_LAWS, finites))
    checks.extend(_per_instance(
        (("images_prune_idempotent", _images_prune_idempotent),), polytopes))
    checks.extend(_per_instance(RELATION_LAWS, finites + polytopes, config))
    checks.extend(_per_instance(
        (("relations_right_encoding_agreement",
          _relations_right_encoding_agreement),), polytopes))
    checks.extend(_per_instance(DIRECT_LAWS, finites + polytopes, config))
    checks.extend(_per_instance(VP_LAWS, finites, config))
    checks.extend(_per_instance(
        (("vp_polytope_budget_equality", _vp_polytope_budget_equality),),
        polytopes))
    checks.append(_run("cantor_limit_structure", "cantor",
                       _cantor_limit_structure))
    checks.append(_run("generators_reproducible", "random_finite[seed=5]",
                       _generators_reproducible, ex))
    checks.extend(_per_instance(
        (("discretization_laws", _discretization_laws),), finites))
    checks.append(_run("golden_three_decision_family", "mfdvp",
                       _golden_three_decision_family, ex))
    checks.append(_run("golden_polytope_fan", "t_one[g=5]",
                       _golden_polytope_fan, ex))
    checks.append(_run("golden_drifting_singletons", "strict_min[g=5]",
                       _golden_drifting_singletons, ex, config.eps_grid))
    checks.append(_run("golden_truncated_nesting", "cantor[T=4,N=6]",
                       _golden_truncated_nesting, ex))
    return report


def convex_experiment(config: Optional[ConvexExperimentConfig] = None) -> SuiteReport:
    """Budget n+1 on discretized convex-graph instances.

    The soundness direction (projected members inside the weak solution
    set) is a hard check; agreement of the two sets is reported softly
    because the grid breaks the convexity hypothesis of the exactness
    statement.
    """
    config = config or ConvexExperimentConfig()
    report = SuiteReport()
    for i in range(config.count):
        seed = config.seed + i
        inst_id = f"convex_polyhedral[seed={seed},g={config.grid}]"
        started = time.perf_counter()
        try:
            inst = instance_mod.make_example(
                "convex_polyhedral",
                {"seed": seed, "g": config.grid, "n": config.n})
        except SetoptError as exc:
            report.checks.append(CheckResult(
                "convex_generator", inst_id, False, hard=False,
                counterexample={"error": str(exc)},
                seconds=time.perf_counter() - started))
            continue
        wargmin = set(solver_direct.solve_direct(
            inst, solver_direct.WEAK, 0).members)
        vp = set(vectorizer.membership_vp(
            inst, config.n + 1, 0, vectorizer.VP_WEAK).members)
        report.checks.append(CheckResult(
            "convex_soundness", inst_id, vp <= wargmin,
            counterexample=None if vp <= wargmin
            else {"extra": sorted(vp - wargmin)},
            seconds=time.perf_counter() - started))
        ratio = len(vp & wargmin) / len(wargmin) if wargmin else 1.0
        report.checks.append(CheckResult(
            "convex_agreement", inst_id, ratio == 1.0, hard=False,
            counterexample={"ratio": ratio,
                            "disagreeing": sorted(wargmin - vp)},
            seconds=time.perf_counter() - started))
    return report
