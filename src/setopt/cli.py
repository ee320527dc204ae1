"""Command-line surface.

Every verb is a thin adapter over the library: it parses flags,
dispatches, prints a human-readable summary to stdout, and optionally
writes a machine report (JSON deterministic byte-for-byte; timings
never enter reports).  Exit codes: 0 success, 1 hard verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import instance as instance_mod
from . import plot as plot_mod
from . import solver_direct, vectorizer, verifier
from .arith import format_number, parse_number
from .errors import SetoptError


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> instance_mod.Instance:
    return instance_mod.load(args.instance, exact=args.exact)


def _parse_weights(text: str, exact: bool):
    return [tuple(parse_number(v.strip(), exact) for v in chunk.split(","))
            for chunk in map(str.strip, text.split(";")) if chunk]


def _cmd_example(args) -> int:
    params = {}
    for key in ("g", "T", "N", "seed", "count", "s_max", "n", "extra_rows"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    inst = instance_mod.make_example(args.name, params, exact=args.exact)
    if args.out:
        instance_mod.save(inst, args.out)
        print(f"wrote {args.name} instance with {len(inst.decisions)} "
              f"decisions to {args.out}")
    else:
        _write_json(instance_mod.to_json_dict(inst), None)
    return 0


def _cmd_solve(args) -> int:
    inst = _load(args)
    eps = parse_number(args.eps, inst.exact)
    report = solver_direct.solve_direct(inst, args.concept, eps)
    print(f"concept={args.concept} eps={format_number(eps)} "
          f"members={list(report.members)}")
    if args.out:
        _write_json(report.to_json_dict(), args.out)
    if args.csv:
        thresholds = report.thresholds or {}
        _write_csv(args.csv, inst, report, "concept,epsilon,threshold",
                   lambda label: f"{report.concept},{format_number(eps)},"
                   f"{format_number(thresholds.get(label, ''))}")
    return 0


def _write_csv(path, inst, report, columns, cells) -> None:
    """One line per decision: its label, 1 or 0 for membership in
    ``report``, then ``cells(label)`` under the header ``columns``."""
    members = set(report.members)
    lines = [f"label,member,{columns}"] + [
        f"{dec.label},{int(dec.label in members)},{cells(dec.label)}"
        for dec in inst.decisions]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_vectorize(args) -> int:
    inst = _load(args)
    eps = parse_number(args.eps, inst.exact)
    report = vectorizer.membership_vp(inst, args.p, eps, args.kind)
    print(f"kind={args.kind} p={args.p} eps={format_number(eps)} "
          f"members={list(report.members)}")
    if report.incomplete:
        print(f"incomplete pools (budget below vertex count): "
              f"{list(report.incomplete)}")
    if args.out:
        _write_json(report.to_json_dict(), args.out)
    if args.csv:
        _write_csv(args.csv, inst, report, "kind,p,epsilon",
                   lambda _: f"{report.kind},{report.p},{format_number(eps)}")
    return 0


def _cmd_minimal_p(args) -> int:
    inst = _load(args)
    eps = parse_number(args.eps, inst.exact)
    result = vectorizer.minimal_p(inst, args.x, eps, args.kind)
    if result.never:
        reason = f" (defeated by {result.reason})" if result.reason else ""
        print(f"x={args.x}: never a member at any budget{reason}")
    else:
        print(f"x={args.x}: p_star={result.p_star}")
    if args.out:
        _write_json(result.to_json_dict(), args.out)
    return 0


def _cmd_covering_p(args) -> int:
    inst = _load(args)
    eps = parse_number(args.eps, inst.exact)
    gamma = parse_number(args.gamma, inst.exact)
    bound = vectorizer.covering_p_bound(inst, args.x, eps, gamma)
    print(f"x={args.x}: covering budget p={bound}")
    if args.out:
        _write_json({"label": args.x, "eps": format_number(eps),
                     "gamma": format_number(gamma), "p": bound}, args.out)
    return 0


def _cmd_weighted_sum(args) -> int:
    inst = _load(args)
    weights = _parse_weights(args.weights, inst.exact)
    sols = vectorizer.solve_weighted_sum(inst, args.p, weights)
    for sol in sols:
        print(f"label={sol.label} value={format_number(sol.value)}")
    if args.out:
        _write_json({"solutions": [s.to_json_dict() for s in sols]}, args.out)
    return 0


def _cmd_discretize(args) -> int:
    inst = _load(args)
    eps = parse_number(args.eps, inst.exact)
    disc = instance_mod.discretize_map(inst, eps)
    if args.out:
        instance_mod.save(disc, args.out)
        sizes = [len(img.points) for img in disc.images]
        print(f"discretized at eps={format_number(eps)}; image sizes {sizes}; "
              f"wrote {args.out}")
    else:
        _write_json(instance_mod.to_json_dict(disc), None)
    return 0


def _cmd_distance(args) -> int:
    a = instance_mod.load(args.first, exact=args.exact)
    b = instance_mod.load(args.second, exact=args.exact)
    d = instance_mod.instance_distance(a, b)
    print(f"distance={d!r}")
    return 0


def _cmd_verify(args) -> int:
    config = verifier.SuiteConfig()
    if args.seed_count is not None:
        config.seeds = tuple(11 * (i + 1) for i in range(args.seed_count))
    report = verifier.run_suite(config)
    for check in report.checks:
        status = "PASS" if check.passed else ("FAIL" if check.hard else "SOFT")
        print(f"[{status}] {check.name} ({check.instance_id})")
    return _summary(report, args.out)


def _summary(report, out) -> int:
    """Print the check counts, write the report to ``out`` if given, and
    return the exit code: 1 on a hard failure."""
    hard = len(report.hard_failures)
    print(f"{len(report.checks)} checks, {hard} hard failures, "
          f"{len(report.soft_findings)} soft findings")
    if out:
        _write_json(report.to_json_dict(), out)
    return 1 if hard else 0


def _cmd_convex_exp(args) -> int:
    config = verifier.ConvexExperimentConfig(
        seed=args.seed, count=args.count, grid=args.g, n=args.n)
    report = verifier.convex_experiment(config)
    for check in report.checks:
        if check.name == "convex_agreement":
            ratio = check.counterexample["ratio"]
            print(f"{check.instance_id}: agreement={ratio:.3f} "
                  f"disagreeing={check.counterexample['disagreeing']}")
    return _summary(report, args.out)


def _cmd_plot(args) -> int:
    inst = _load(args)
    eps = parse_number(args.eps, inst.exact)
    report = solver_direct.solve_direct(inst, args.concept, eps)
    members = set(report.members)
    if inst.m == 2:
        text = plot_mod.render_svg(inst, members)
    else:
        text = plot_mod.render_csv(inst, members)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``func`` defaults name
    ``_cmd_*`` functions, which look up their modules when called."""
    parser = argparse.ArgumentParser(
        prog="setopt",
        description="Set optimization under the lower set less relation via "
                    "multiobjective vectorization.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, instance=True):
        if instance:
            p.add_argument("-i", "--instance", required=True,
                           help="instance JSON path")
        p.add_argument("-o", "--out", help="write machine report/output here")
        p.add_argument("--exact", action="store_true",
                       help="exact rational arithmetic (requires rational data)")

    p = sub.add_parser("example", help="generate a built-in instance")
    p.add_argument("name", choices=instance_mod.EXAMPLE_NAMES)
    p.add_argument("-o", "--out", help="output instance path")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--g", type=int, help="grid size")
    p.add_argument("--T", type=int, help="truncation depth")
    p.add_argument("--N", type=int, help="limit-image size (needs N >= T)")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int, help="number of decisions")
    p.add_argument("--s-max", dest="s_max", type=int, help="max image size")
    p.add_argument("--n", type=int, help="decision dimension (1 or 2)")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("solve", help="membership in the direct solution sets")
    common(p)
    p.add_argument("--concept", choices=solver_direct.CONCEPTS, default="weak")
    p.add_argument("--eps", default="0")
    p.add_argument("--csv", help="write per-decision CSV here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("vectorize", help="projected budget-p membership")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--kind", choices=vectorizer.VP_KINDS, default="weak")
    p.add_argument("--eps", default="0")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_vectorize)

    p = sub.add_parser("minimal-p", help="smallest sufficient budget")
    common(p)
    p.add_argument("--x", required=True, help="decision label")
    p.add_argument("--kind", choices=vectorizer.VP_KINDS, default="weak")
    p.add_argument("--eps", default="0")
    p.set_defaults(func=_cmd_minimal_p)

    p = sub.add_parser("covering-p", help="covering-based budget bound")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--gamma", default="1/2")
    p.set_defaults(func=_cmd_covering_p)

    p = sub.add_parser("weighted-sum", help="separable scalarization")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--weights", required=True,
                   help="semicolon-separated weight vectors, e.g. '1,1;0,1'")
    p.set_defaults(func=_cmd_weighted_sum)

    p = sub.add_parser("discretize", help="replace images by cover centers")
    common(p)
    p.add_argument("--eps", required=True)
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("distance", help="sup-Hausdorff instance distance")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("-o", "--out")
    p.add_argument("--seed-count", type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convex-exp", help="budget n+1 on convex-graph grids")
    p.add_argument("-o", "--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--g", type=int, default=17)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=_cmd_convex_exp)

    p = sub.add_parser("plot", help="SVG scatter of the image sets")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--concept", choices=solver_direct.CONCEPTS, default="weak")
    p.add_argument("--eps", default="0")
    p.set_defaults(func=_cmd_plot)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SetoptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
