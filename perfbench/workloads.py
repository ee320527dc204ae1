"""Seeded workloads: the instances, the questions, and how to ask them.

Every input is derived from the workload seed and the pass number, so
the same seed gives the same questions, and no two passes of one run
share instance content.  The library receives only the generated
instances (or instance files) through its public functions; each call
is looked up on the module at ask time, so the traced run's patches
apply to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

import setopt
from setopt import cli, verifier

# Session sizes.  The random instance is small enough that a run holds
# several passes, and every image has the same number of points, so
# passes cost about the same and a run's figures do not hinge on a few
# large draws.  The two cover fronts straddle HITTING_CAP (24) and the
# min-kind SUBSET_CAP (2^21 subsets), so the caps refuse questions on
# the larger one; each front has a fixed smallest budget.
RANDOM_COUNT = 10
RANDOM_POINTS = 6
RANDOM_BOUND = 50
COVER_SMALL, COVER_SMALL_BUDGET = 20, 4
COVER_LARGE, COVER_LARGE_BUDGET = 28, 5
COVER_SPACING = 4

# Polytope CLI sizes: small convex-graph instances, many per run, so a
# run averages over many random polytopes.  The fixed-content families
# are asked in the first pass only, because no (instance, question)
# pair may repeat within a process.
CLI_CONVEX = ({"n": 1, "g": 5}, {"n": 2, "g": 2})
CLI_FIRST_PASS = (("t_one", {"g": 5}), ("mfdvp_polytope", {}))


@dataclass
class Question:
    qid: str                 # unique within a run: "p<pass>/<session>/<what>"
    kind: str                # solve | threshold | vp | minimal_p | covering | cli | suite
    fn: str                  # public function name (module attribute)
    args: tuple = ()
    meta: dict = field(default_factory=dict)


@dataclass
class Session:
    """One instance (or instance file) and the questions asked about it."""
    name: str
    inst: Any
    questions: list
    truth: dict = field(default_factory=dict)   # generator-known answers


def _rng(seed: int, pass_idx: int, salt: str) -> random.Random:
    return random.Random(f"{seed}:{pass_idx}:{salt}")


def _num(exact: bool):
    return Fraction if exact else float


# ---------------------------------------------------------------------------
# Finite instances
# ---------------------------------------------------------------------------

def _orthant(exact: bool):
    one, zero = _num(exact)(1), _num(exact)(0)
    return setopt.validate_cone([[one, zero], [zero, one]], [one, one])


def random_instance(rng: random.Random, exact: bool):
    """``random_finite`` with every image of exactly RANDOM_POINTS points:
    integer coordinates drawn uniformly from [-RANDOM_BOUND, RANDOM_BOUND]."""
    num = _num(exact)
    images = [setopt.finite_set(
        [(num(rng.randint(-RANDOM_BOUND, RANDOM_BOUND)),
          num(rng.randint(-RANDOM_BOUND, RANDOM_BOUND)))
         for _ in range(RANDOM_POINTS)]) for _ in range(RANDOM_COUNT)]
    decisions = [(str(i), (num(i),)) for i in range(RANDOM_COUNT)]
    return setopt.build_instance(_orthant(exact), decisions, images, exact=exact)


def cover_instance(rng: random.Random, n_front: int, h: int, exact: bool):
    """Decision "0" has an antichain front of ``n_front`` points; every
    competitor strictly dominates all front points except its escape set.

    The front is split into ``h`` disjoint blocks and each block's escape
    sets share one point, so the minimum hitting set of the escape sets
    (the smallest budget, for both vectorization kinds) is exactly ``h``.
    The escape sets together cover the whole front, so the hitting-set
    universe is ``n_front``.  All coordinates are integers.
    """
    num = _num(exact)
    s = COVER_SPACING
    front = [(i * s, (n_front - 1 - i) * s) for i in range(n_front)]
    order = list(range(n_front))
    rng.shuffle(order)
    blocks = [order[b::h] for b in range(h)]
    escapes = []
    for blk in blocks:
        common = rng.choice(blk)
        rest = [i for i in blk if i != common]
        rng.shuffle(rest)
        cut = rng.randint(1, max(1, len(rest) - 1))
        escapes.append({common, *rest[:cut]})
        escapes.append({common, *rest[cut:]})
    images = [setopt.finite_set([tuple(num(v) for v in p) for p in front])]
    for esc in escapes:
        # one point strictly below each maximal run of dominated front
        # points, and not below any escape point
        runs, run = [], []
        for i in range(n_front):
            if i in esc:
                if run:
                    runs.append(run)
                run = []
            else:
                run.append(i)
        if run:
            runs.append(run)
        images.append(setopt.finite_set(
            [(num(r[0] * s - 1), num((n_front - 1 - r[-1]) * s - 1))
             for r in runs]))
    decisions = [(str(i), (num(i),)) for i in range(len(images))]
    return setopt.build_instance(_orthant(exact), decisions, images, exact=exact)


# ---------------------------------------------------------------------------
# Finite sessions (session_finite_exact / session_finite_float)
# ---------------------------------------------------------------------------

def _random_questions(tag, inst, rng, exact):
    eps17 = Fraction(1, 7) if exact else 1 / 7
    qs = []
    for concept in ("weak", "type1", "type2"):
        for eps_name, eps in (("0", 0), ("1_7", eps17)):
            qs.append(Question(f"{tag}/solve-{concept}-{eps_name}", "solve",
                               "solve_direct", (concept, eps),
                               {"concept": concept, "eps": eps}))
    qs.append(Question(f"{tag}/threshold", "threshold", "weak_threshold"))
    for p in (1, 2, 3):
        qs.append(Question(f"{tag}/vp-weak-{p}", "vp", "membership_vp",
                           (p, 0, "weak"), {"p": p, "kind": "weak", "eps": 0}))
    for p in (1, 2):
        qs.append(Question(f"{tag}/vp-min-{p}", "vp", "membership_vp",
                           (p, 0, "min"), {"p": p, "kind": "min", "eps": 0}))
    for label in rng.sample(list(inst.labels), 3):
        for kind in ("weak", "min"):
            qs.append(Question(f"{tag}/minp-{kind}-{label}", "minimal_p",
                               "minimal_p", (label, 0, kind),
                               {"label": label, "kind": kind, "eps": 0}))
    label = rng.choice(inst.labels)
    qs.append(Question(f"{tag}/covering-{label}", "covering",
                       "covering_p_bound", (label, 1),
                       {"label": label, "eps": 1}))
    return qs


def _cover_questions(tag, large):
    qs = [Question(f"{tag}/solve-weak-0", "solve", "solve_direct", ("weak", 0),
                   {"concept": "weak", "eps": 0})]
    if not large:
        qs += [Question(f"{tag}/solve-type1-0", "solve", "solve_direct",
                        ("type1", 0), {"concept": "type1", "eps": 0}),
               Question(f"{tag}/solve-type2-0", "solve", "solve_direct",
                        ("type2", 0), {"concept": "type2", "eps": 0})]
    for kind in ("weak", "min"):
        qs.append(Question(f"{tag}/vp-{kind}-2", "vp", "membership_vp",
                           (2, 0, kind), {"p": 2, "kind": kind, "eps": 0}))
    kinds = ("min",) if large else ("weak", "min")
    for kind in kinds:
        qs.append(Question(f"{tag}/minp-{kind}-0", "minimal_p", "minimal_p",
                           ("0", 0, kind), {"label": "0", "kind": kind, "eps": 0}))
    return qs


def finite_pass(seed: int, pass_idx: int, exact: bool) -> list:
    """Build one pass: a random instance and two cover instances."""
    rng = _rng(seed, pass_idx, "finite")
    inst = random_instance(rng, exact)
    tag = f"p{pass_idx}/random"
    sessions = [Session(tag, inst, _random_questions(tag, inst, rng, exact))]
    for name, size, h in (("cover_small", COVER_SMALL, COVER_SMALL_BUDGET),
                          ("cover_large", COVER_LARGE, COVER_LARGE_BUDGET)):
        cinst = cover_instance(rng, size, h, exact)
        tag = f"p{pass_idx}/{name}"
        sessions.append(Session(tag, cinst, _cover_questions(tag, size > COVER_SMALL),
                                {"front": "0", "p_star": h}))
    return sessions


def ask_finite(sess: Session, q: Question):
    return getattr(setopt, q.fn)(sess.inst, *q.args)


# ---------------------------------------------------------------------------
# Polytope CLI questions (cli_polytope_exact)
# ---------------------------------------------------------------------------

def cli_pass(seed: int, pass_idx: int, workdir: str) -> list:
    """Write this pass's instance files; one question list per file.

    Every convex-graph file has a fresh generator seed, so no
    (instance, question) pair is asked twice in one process.
    """
    rng = _rng(seed, pass_idx, "cli")
    specs = [("convex_polyhedral", dict(params, seed=rng.randrange(2 ** 31)))
             for params in CLI_CONVEX]
    if pass_idx == 0:
        specs += CLI_FIRST_PASS
    sessions = []
    for i, (name, params) in enumerate(specs):
        inst = setopt.make_example(name, params, exact=True)
        path = os.path.join(workdir, f"p{pass_idx}-{i}-{name}.json")
        setopt.save(inst, path)
        tag = f"p{pass_idx}/{name}{i}"
        label = rng.choice(inst.labels)
        sessions.append(Session(tag, path, _cli_questions(tag, path, label,
                                                          workdir)))
    return sessions


def _cli_questions(tag, path, label, workdir):
    qs = []

    def add(what, kind, argv, meta):
        out = os.path.join(workdir, tag.replace("/", "-") + f"-{what}.out.json")
        meta = dict(meta, out=out)
        qs.append(Question(f"{tag}/{what}", "cli", "run",
                           tuple(argv) + ("-i", path, "--exact", "-o", out),
                           dict(meta, verb=argv[0], kind=kind)))

    for concept in ("weak", "type1", "type2"):
        add(f"solve-{concept}", "solve", ["solve", "--concept", concept],
            {"concept": concept})
    for p in (1, 2):
        add(f"vp-weak-{p}", "vp", ["vectorize", "--p", str(p), "--kind", "weak"],
            {"p": p, "vp_kind": "weak"})
    add("vp-min-1", "vp", ["vectorize", "--p", "1", "--kind", "min"],
        {"p": 1, "vp_kind": "min"})
    for kind in ("weak", "min"):
        add(f"minp-{kind}", "minimal_p",
            ["minimal-p", "--x", label, "--kind", kind],
            {"label": label, "vp_kind": kind})
    return qs


def ask_cli(sess: Session, q: Question):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(q.args))
    return {"rc": rc, "stderr": err.getvalue()}


def read_cli_report(q: Question) -> Optional[dict]:
    try:
        with open(q.meta["out"], encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Verifier suite (verify_suite)
# ---------------------------------------------------------------------------

def suite_config(seed: int, pass_idx: int):
    """A reduced exact suite: one small random seed per question."""
    rng = _rng(seed, pass_idx, "suite")
    return verifier.SuiteConfig(
        seeds=(rng.randrange(1, 10 ** 6),), random_count=4, image_max=3,
        eps_grid=(), p_range=(1, 2), polytope_seeds=(),
        polytope_grid=3, exact=True)


def suite_pass(seed: int, pass_idx: int) -> list:
    """One ``run_suite`` question.  Set-up builds the suite's input
    instances through the public generators, which is the instance work
    ``run_suite`` then repeats internally; the set-up time is that cost."""
    config = suite_config(seed, pass_idx)
    for name, params in (("mfdvp", {}), ("strict_min", {"g": 5}),
                         ("cantor", {"T": 4, "N": 6}), ("mfdvp_polytope", {}),
                         ("t_one", {"g": 5})):
        setopt.make_example(name, params, exact=True)
    for s in config.seeds:
        setopt.make_example("random_finite", {"seed": s, "count": 4,
                                              "s_max": 3}, exact=True)
    tag = f"p{pass_idx}/suite"
    return [Session(tag, config, [Question(f"{tag}/run_suite", "suite",
                                           "run_suite")])]


def ask_suite(sess: Session, q: Question):
    return getattr(setopt, q.fn)(sess.inst)


@dataclass
class Workload:
    name: str
    build: Callable          # (seed, pass_idx, workdir) -> [Session]
    ask: Callable            # (Session, Question) -> answer
    exact: Optional[bool]


WORKLOADS = {
    "session_finite_exact": Workload(
        "session_finite_exact", lambda s, p, w: finite_pass(s, p, True),
        ask_finite, True),
    "session_finite_float": Workload(
        "session_finite_float", lambda s, p, w: finite_pass(s, p, False),
        ask_finite, False),
    "cli_polytope_exact": Workload("cli_polytope_exact", cli_pass, ask_cli, True),
    "verify_suite": Workload("verify_suite", lambda s, p, w: suite_pass(s, p),
                             ask_suite, True),
}
