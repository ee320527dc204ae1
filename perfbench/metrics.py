"""Metric names and units printed by the benchmark (BENCHMARK.json lists
the same names; the self-test checks that the two agree)."""

END_TO_END = {
    "setup_s": "s",
    "questions_per_s": "1/s",
    "question_p50_ms": "ms",
    "question_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "failed_frac": "ratio",
    "lp.solves": "count",
    "lp.self_s": "s",
    "lp.nonoptimal": "count",
    "cone.margin_calls": "count",
    "cone.margin_distinct_frac": "ratio",
    "cone.self_s": "s",
    "imagesets.point_margin_calls": "count",
    "imagesets.point_margin_distinct_frac": "ratio",
    "imagesets.strong_slack_calls": "count",
    "imagesets.min_elements_calls": "count",
    "imagesets.minimal_vertices_calls": "count",
    "imagesets.self_s": "s",
    "setrelations.set_margin_calls": "count",
    "setrelations.set_margin_distinct_frac": "ratio",
    "setrelations.set_relation_calls": "count",
    "setrelations.self_s": "s",
    "solver_direct.margin_matrix_builds": "count",
    "solver_direct.margin_matrix_builds_per_instance": "ratio",
    "solver_direct.self_s": "s",
    "vectorizer.pool_builds": "count",
    "vectorizer.hitting_set_calls": "count",
    "vectorizer.hitting_set_s": "s",
    "vectorizer.cap_exceeded": "count",
    "vectorizer.oracle_s": "s",
    "vectorizer.self_s": "s",
    "verifier.self_s": "s",
    "instance.loads": "count",
    "instance.load_s": "s",
    "instance.build_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_values(t) -> dict:
    """Per-layer values derived from one traced pass (all but
    ``failed_frac`` and ``trace.overhead_frac``, which need the untraced
    pass and the checks)."""
    selfs = t.self_seconds()
    margin_calls = t.count("cone.margin")
    pm_calls = t.count("imagesets.point_margin_with_multipliers")
    sm_calls = t.count("setrelations.set_margin")
    builds = t.count("solver_direct.margin_matrix")
    # instances the benchmark built in set-up (question-time loads excluded)
    instances = t.count("instance.build_instance", under="bench.setup")
    values = {
        "lp.solves": t.count("lp.lp_maximize") + t.count("lp.lp_feasible"),
        "lp.self_s": selfs["lp"],
        "lp.nonoptimal": t.lp_nonoptimal,
        "cone.margin_calls": margin_calls,
        "cone.margin_distinct_frac": t.distinct_frac("margin", margin_calls),
        "cone.self_s": selfs["cone"],
        "imagesets.point_margin_calls": pm_calls,
        "imagesets.point_margin_distinct_frac":
            t.distinct_frac("point_margin", pm_calls),
        "imagesets.strong_slack_calls": t.count("imagesets.strong_membership_slack"),
        "imagesets.min_elements_calls": t.count("imagesets.min_elements"),
        "imagesets.minimal_vertices_calls": t.count("imagesets.minimal_vertices"),
        "imagesets.self_s": selfs["imagesets"],
        "setrelations.set_margin_calls": sm_calls,
        "setrelations.set_margin_distinct_frac":
            t.distinct_frac("set_margin", sm_calls),
        "setrelations.set_relation_calls": t.count("setrelations.set_relation"),
        "setrelations.self_s": selfs["setrelations"],
        "solver_direct.margin_matrix_builds": builds,
        "solver_direct.margin_matrix_builds_per_instance":
            builds / instances if instances else 0.0,
        "solver_direct.self_s": selfs["solver_direct"],
        "vectorizer.pool_builds": t.count("vectorizer.candidate_pool"),
        "vectorizer.hitting_set_calls": t.count("vectorizer.min_hitting_set"),
        "vectorizer.hitting_set_s": t.total_s("vectorizer.min_hitting_set"),
        "vectorizer.cap_exceeded": t.cap_exceeded,
        "vectorizer.oracle_s": t.total_s("vectorizer.brute_force_vp"),
        "vectorizer.self_s": selfs["vectorizer"],
        "verifier.self_s": selfs["verifier"],
        "instance.loads": t.count("instance.load"),
        "instance.load_s": t.total_s("instance.load"),
        "instance.build_s": t.total_s("instance.build_instance"),
        "cli.self_s": selfs["cli"],
    }
    return values
