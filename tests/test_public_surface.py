"""The call surface of the package, pinned: every function and
dataclass that ``setopt`` exports, with its parameter names in order.

A new, renamed or dropped parameter fails this test, so each change to
the public signatures shows up as a diff of the map below.
"""

import dataclasses
import inspect

import setopt

SURFACE = {
    "brute_force_vp": ("inst", "p", "eps", "kind", "tol"),
    "build_instance": ("cone", "decisions", "images", "metadata", "exact",
                       "tol"),
    "candidate_pool": ("inst", "label", "p", "tol"),
    "check_point": ("prog", "point", "tol"),
    "Cone": ("rows", "e", "m", "row_e"),
    "convex_experiment": ("config",),
    "ConvexExperimentConfig": ("seed", "count", "grid", "n"),
    "covering_number_internal": ("image", "eps", "exact_cap", "tol"),
    "covering_p_bound": ("inst", "label", "eps", "gamma", "tol"),
    "covering_p_bound_global": ("inst", "eps", "gamma", "tol"),
    "CoveringResult": ("count", "centers", "exact"),
    "Decision": ("label", "x"),
    "discretize_map": ("inst", "eps", "tol"),
    "domination_check": ("image", "cone", "tol"),
    "Feasibility": ("feasible", "point", "infeasibility"),
    "finite_set": ("points",),
    "hausdorff": ("a", "b"),
    "hausdorff_sq": ("a", "b"),
    "ImageSet": ("kind", "points"),
    "in_dual_cone": ("v", "cone", "tol"),
    "Instance": ("cone", "decisions", "images", "metadata", "exact"),
    "instance_distance": ("i1", "i2"),
    "LinearProgram": ("objective", "eq_lhs", "eq_rhs", "ge_lhs", "ge_rhs",
                      "lower_bounds"),
    "load": ("path", "exact", "tol"),
    "lp_feasible": ("prog", "tol"),
    "lp_maximize": ("prog", "tol"),
    "make_example": ("name", "params", "exact", "tol"),
    "margin": ("y_from", "y_to", "cone"),
    "membership_vp": ("inst", "p", "eps", "kind", "tol"),
    "min_elements": ("image", "cone", "weak", "tol"),
    "min_hitting_set": ("sets", "limit"),
    "minimal_p": ("inst", "label", "eps", "kind", "tol"),
    "minimal_vertices": ("image", "cone", "tol"),
    "MinimalPResult": ("label", "kind", "epsilon", "never", "p_star",
                       "witness", "reason", "incomplete"),
    "Outcome": ("status", "value", "point"),
    "point_margin": ("b", "image", "cone", "tol"),
    "polytope": ("vertices",),
    "prune_to_extreme": ("vertices", "tol"),
    "r_epsilon": ("cone", "eps", "gamma"),
    "RelationCertificate": ("holds", "kind", "epsilon", "witnesses",
                            "failing_target"),
    "run_suite": ("config",),
    "save": ("inst", "path"),
    "set_margin": ("a", "b", "cone", "tol"),
    "set_relation": ("a", "b", "cone", "kind", "eps", "tol"),
    "SolutionReport": ("concept", "epsilon", "members", "certificates",
                       "thresholds"),
    "solve_direct": ("inst", "concept", "eps", "tol"),
    "solve_weighted_sum": ("inst", "p", "weights", "tol"),
    "SuiteConfig": ("seeds", "random_count", "image_max", "eps_grid",
                    "p_range", "polytope_seeds", "polytope_grid", "exact"),
    "SuiteReport": ("checks",),
    "TupleCertificate": ("label", "tuple_points", "member", "surviving",
                         "dominated_by", "witnesses", "strict_component"),
    "validate_cone": ("rows", "e", "tol"),
    "verify_certificate": ("a", "b", "cone", "cert", "tol"),
    "VpReport": ("kind", "p", "epsilon", "members", "certificates",
                 "incomplete"),
    "weak_threshold": ("inst", "tol"),
}


def _exported(obj) -> bool:
    return inspect.isfunction(obj) or (inspect.isclass(obj)
                                       and dataclasses.is_dataclass(obj))


def test_public_surface_is_pinned():
    surface = {name: tuple(inspect.signature(obj).parameters)
               for name, obj in vars(setopt).items()
               if not name.startswith("_") and _exported(obj)}
    assert surface == SURFACE
