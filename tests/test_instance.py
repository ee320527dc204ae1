import collections
import gc
import itertools
import json
import random
import weakref
from fractions import Fraction as F

import pytest

from setopt.cone import validate_cone
from setopt.errors import (DimMismatch, DuplicateLabel, EmptyImage,
                           NotInterior, ParseError, ValidationError)
import setopt.imagesets
from setopt.imagesets import (_in_hull, _target, finite_set, min_elements,
                              polytope, prune_to_extreme, question_tol,
                              strong_membership_slack)
from setopt.instance import (Decision, Instance, build_instance,
                             cantor_limit_point, cantor_point, discretize_map,
                             from_json_dict, halfplane_vertices,
                             instance_distance, instance_distance_sq, load,
                             make_example, save, to_json_dict)
from setopt.setrelations import LOWER_STRONG, set_relation
from setopt.solver_direct import TYPE_TWO, WEAK, solve_direct
from setopt.vectorizer import VP_MIN, VP_WEAK, _table, membership_vp


def test_round_trip_exact(tmp_path):
    inst = make_example("mfdvp", exact=True)
    path = tmp_path / "i.json"
    save(inst, path)
    again = load(path, exact=True)
    assert again == inst


def test_round_trip_float(tmp_path):
    inst = make_example("strict_min", {"g": 4}, exact=False)
    path = tmp_path / "i.json"
    save(inst, path)
    assert load(path, exact=False) == inst


def test_round_trip_polytope(tmp_path):
    inst = make_example("t_one", {"g": 4}, exact=True)
    path = tmp_path / "i.json"
    save(inst, path)
    assert load(path, exact=True) == inst


def test_duplicate_label_rejected(orthant):
    with pytest.raises(DuplicateLabel):
        build_instance(orthant,
                       [Decision("a", (F(0),)), Decision("a", (F(1),))],
                       [finite_set([(F(0), F(0))]),
                        finite_set([(F(1), F(1))])])


def test_dim_mismatch_rejected(orthant):
    with pytest.raises(DimMismatch):
        build_instance(orthant, [Decision("a", (F(0),))],
                       [finite_set([(F(0), F(0), F(0))])])


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"cone": [,]}')
    with pytest.raises(ParseError) as err:
        load(path)
    assert "line" in str(err.value)


def test_schema_errors_are_named():
    with pytest.raises(ParseError):
        from_json_dict({"decisions": [], "images": []})
    with pytest.raises(EmptyImage):
        from_json_dict({
            "cone": {"rows": [[1, 0], [0, 1]], "e": [1, 1]},
            "decisions": [{"label": "a", "x": [0]}],
            "images": [{"type": "finite", "points": []}],
        })
    with pytest.raises(NotInterior):
        from_json_dict({
            "cone": {"rows": [[1, 0], [0, 1]], "e": [1, 0]},
            "decisions": [{"label": "a", "x": [0]}],
            "images": [{"type": "finite", "points": [[0, 0]]}],
        })


def test_exact_mode_rejects_bare_floats():
    data = {
        "cone": {"rows": [[1, 0], [0, 1]], "e": [1, 1]},
        "decisions": [{"label": "a", "x": [0.5]}],
        "images": [{"type": "finite", "points": [[0, 0]]}],
    }
    with pytest.raises(ParseError):
        from_json_dict(data, exact=True)
    # rational strings are the exact-mode spelling
    data["decisions"][0]["x"] = ["1/2"]
    inst = from_json_dict(data, exact=True)
    assert inst.decisions[0].x == (F(1, 2),)


def test_rational_strings_parse_in_float_mode():
    data = {
        "cone": {"rows": [["1", 0], [0, 1]], "e": [1, 1]},
        "decisions": [{"label": "a", "x": ["1/4"]}],
        "images": [{"type": "finite", "points": [[0, "3/2"]]}],
    }
    inst = from_json_dict(data, exact=False)
    assert inst.decisions[0].x == (0.25,)
    assert inst.images[0].points[0] == (0.0, 1.5)


def test_unknown_example_rejected():
    with pytest.raises(ValidationError):
        make_example("nope")
    with pytest.raises(ValidationError):
        make_example("cantor", {"T": 5, "N": 4})


def test_nested_family_frozen_points():
    # positions read off the construction; all exact dyadic rationals
    assert cantor_point(0, 0) == (F(5, 2), F(-5, 2))
    assert cantor_point(0, 1) == (F(3), F(-2))
    assert cantor_point(1, 1) == (F(17, 4), F(-13, 4))
    assert cantor_point(0, 2) == (F(13, 4), F(-7, 4))
    assert cantor_point(1, 2) == (F(9, 2), F(-3))
    assert cantor_point(2, 2) == (F(31, 8), F(-19, 8))
    assert cantor_limit_point(0) == (F(7, 2), F(-3, 2))
    assert cantor_limit_point(1) == (F(19, 4), F(-11, 4))
    assert cantor_limit_point(2) == (F(33, 8), F(-17, 8))


def test_limit_points_on_diagonal_antichain(orthant):
    pts = [cantor_limit_point(i) for i in range(9)]
    assert all(p[0] + p[1] == 2 for p in pts)
    img = finite_set(pts)
    assert set(min_elements(img, orthant)) == set(pts)
    # midpoint recurrence toward the first limit point
    for i in range(1, 7):
        left = cantor_limit_point(i + 1)
        mid = tuple((a + b) / 2 for a, b in
                    zip(cantor_limit_point(0), cantor_limit_point(i)))
        assert left == mid


def test_cantor_images(orthant):
    inst = make_example("cantor", {"T": 3, "N": 4}, exact=True)
    assert inst.labels == ("0", "1/2", "2/3", "1")
    assert set(inst.image_of("1/2").points) == {cantor_point(0, 1),
                                                cantor_point(1, 1)}
    assert len(inst.image_of("1").points) == 5


def test_instance_distance(tmp_path):
    inst = make_example("random_finite", {"seed": 8}, exact=True)
    assert instance_distance(inst, inst) == 0
    shifted = build_instance(
        inst.cone, inst.decisions,
        [finite_set([(p[0] + F(1, 10), p[1]) for p in img.points])
         for img in inst.images],
        exact=True)
    assert instance_distance_sq(inst, shifted) == F(1, 100)
    assert instance_distance(inst, shifted) == pytest.approx(0.1)


def test_instance_distance_requires_same_decisions():
    a = make_example("random_finite", {"seed": 1, "count": 3}, exact=True)
    b = make_example("random_finite", {"seed": 1, "count": 4}, exact=True)
    with pytest.raises(ValidationError):
        instance_distance(a, b)


def test_discretize_hand_value(orthant):
    img = finite_set([(F(0), F(0)), (F(3, 10), F(0)), (F(1), F(0))])
    inst = build_instance(orthant, [Decision("a", (F(0),))], [img],
                          exact=True)
    disc = discretize_map(inst, F(7, 20))
    centers = set(disc.images[0].points)
    assert len(centers) == 2
    assert centers <= set(img.points)
    assert instance_distance_sq(inst, disc) <= F(7, 20) ** 2


def test_discretize_fine_eps_keeps_images():
    inst = make_example("random_finite", {"seed": 12}, exact=True)
    disc = discretize_map(inst, F(1, 100))
    for orig, new in zip(inst.images, disc.images):
        assert set(new.points) == set(dict.fromkeys(orig.points))


def test_discretize_singletons_unchanged(orthant):
    inst = make_example("strict_min", {"g": 4}, exact=True)
    disc = discretize_map(inst, F(5))
    assert all(len(img.points) == 1 for img in disc.images)


def test_discretize_bounds_random():
    for seed in (3, 5, 9):
        inst = make_example("random_finite", {"seed": seed}, exact=True)
        for eps in (F(1, 10), F(1, 2), F(2)):
            disc = discretize_map(inst, eps)
            assert all(set(d.points) <= set(o.points)
                       for d, o in zip(disc.images, inst.images))
            assert instance_distance_sq(inst, disc) <= eps * eps


def test_random_finite_reproducible():
    a = make_example("random_finite", {"seed": 42}, exact=True)
    b = make_example("random_finite", {"seed": 42}, exact=True)
    assert a == b
    c = make_example("random_finite", {"seed": 43}, exact=True)
    assert a != c


def test_generator_metadata_recorded():
    inst = make_example("random_finite", {"seed": 2, "count": 4}, exact=True)
    assert inst.metadata["generator"] == "random_finite"
    assert inst.metadata["params"]["seed"] == "2"


def test_halfplane_vertices_unit_box():
    rows = [(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))]
    rhs = [F(1), F(0), F(1), F(0)]
    verts = halfplane_vertices(rows, rhs)
    assert set(verts) == {(F(0), F(0)), (F(0), F(1)), (F(1), F(0)),
                          (F(1), F(1))}


def test_convex_polyhedral_reproducible_and_valid():
    a = make_example("convex_polyhedral", {"seed": 7, "g": 4}, exact=True)
    b = make_example("convex_polyhedral", {"seed": 7, "g": 4}, exact=True)
    assert a == b
    assert all(not img.is_finite and len(img.points) >= 3
               for img in a.images)


def test_all_examples_build():
    for name, params in (("t_one", {"g": 3}), ("strict_min", {"g": 3}),
                         ("cantor", {"T": 3, "N": 3}), ("mfdvp", {}),
                         ("mfdvp_polytope", {}),
                         ("random_finite", {"seed": 0}),
                         ("convex_polyhedral", {"seed": 0, "g": 3})):
        for exact in (False, True):
            inst = make_example(name, params, exact=exact)
            assert isinstance(inst, Instance)
            assert inst.exact == exact


def test_json_dict_is_json_serializable():
    inst = make_example("t_one", {"g": 3}, exact=True)
    text = json.dumps(to_json_dict(inst), sort_keys=True)
    assert '"polytope"' in text and '"1/4"' in text


def test_bad_image_type_named_in_parse_error():
    with pytest.raises(ParseError):
        from_json_dict({
            "cone": {"rows": [[1, 0], [0, 1]], "e": [1, 1]},
            "decisions": [{"label": "a", "x": [0]}],
            "images": [{"type": "blob", "points": [[0, 0]]}],
        })


def _built(inst) -> dict:
    """The prepared programs of ``inst``'s polytopes, by (image, kind)."""
    return {(i, kind): prog for i, img in enumerate(inst.images)
            if not img.is_finite and img._products is not None
            for kind, prog in zip(("margin", "slack"), img._products[1][4:])
            if prog is not None}


def test_polytope_programs_live_and_die_with_their_instance(tmp_path):
    # every prepared program hangs off its image, and nothing else holds
    # the image, its cone or the instance once the caller lets go
    path = tmp_path / "poly.json"
    params = {"seed": 5, "g": 5, "n": 1}
    save(make_example("convex_polyhedral", params, exact=True), path)
    inst = load(path, exact=True)
    solve_direct(inst, WEAK)
    solve_direct(inst, TYPE_TWO)
    membership_vp(inst, 1, 0, VP_MIN)
    assert all(img._products[0] is inst.cone for img in inst.images
               if img._products is not None)
    programs = list(_built(inst).values())
    assert {kind for _, kind in _built(inst)} == {"margin", "slack"}
    refs = [weakref.ref(x) for x in (inst, inst.cone, *inst.images,
                                     *programs)]
    del inst, programs
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_polytope_programs_are_built_on_first_solve(tmp_path, monkeypatch):
    # a cold weak question builds exactly the programs it solves, one per
    # (image, program kind), and none that it does not
    path = tmp_path / "poly.json"
    save(make_example("convex_polyhedral", {"seed": 5, "g": 5, "n": 1},
                      exact=True), path)
    inst = load(path, exact=True)
    solved = []

    def recorded(prog, tol=None):
        solved.append(prog._matrix)  # shared with the prepared program
        return real(prog, tol)

    real = setopt.imagesets.lp_maximize
    monkeypatch.setattr(setopt.imagesets, "lp_maximize", recorded)
    assert _built(inst) == {}
    solve_direct(inst, WEAK)
    built = _built(inst)
    assert {id(m) for m in solved} == {id(p._matrix) for p in built.values()}
    assert 0 < len(built) < 2 * len(inst.images)


def _lp_prune(points):
    """Reference filter: one LP per distinct point, which stays unless
    it lies in the hull of the others."""
    distinct = list(dict.fromkeys(points))
    return tuple(p for i, p in enumerate(distinct)
                 if len(distinct) == 1 or
                 not _in_hull(p, distinct[:i] + distinct[i + 1:], 0))


def test_load_prunes_hand_written_vertex_lists(tmp_path):
    # a file can hold any vertex list: repeats, interior points, points
    # on an edge, mixed denominators and negative rationals are pruned on
    # load to the LP filter's vertices in input order, and pruning again
    # changes nothing
    rng = random.Random(29)

    def rational():
        return F(rng.randint(-30, 30), rng.choice((1, 2, 3, 5, 7, 12)))

    lists = []
    for _ in range(40):
        corners = [(rational(), rational()) for _ in range(rng.randint(1, 6))]
        points = list(corners)
        for _ in range(rng.randint(0, 6)):
            a, b = rng.choice(corners), rng.choice(corners)
            t = F(rng.randint(0, 9), 9)  # on an edge or a chord
            points.append(tuple(u + t * (v - u) for u, v in zip(a, b)))
        points += rng.choices(points, k=rng.randint(0, 3))
        rng.shuffle(points)
        lists.append(points)
    path = tmp_path / "hand.json"
    path.write_text(json.dumps({
        "cone": {"rows": [["2", "1"], ["1", "3"]], "e": ["1", "1"]},
        "decisions": [{"label": str(i), "x": [i]} for i in range(len(lists))],
        "images": [{"type": "polytope",
                    "points": [[str(v) for v in p] for p in points]}
                   for points in lists]}))
    inst = load(path, exact=True)
    kinds = collections.Counter()
    for points, img in zip(lists, inst.images):
        assert img.points == _lp_prune(points), points
        assert prune_to_extreme(img.points) == img.points
        kinds["dropped"] += len(img.points) < len(set(points))
        kinds["repeats"] += len(set(points)) < len(points)
    assert load(path, exact=True) == inst
    assert min(kinds.values()) > 10, kinds


def _tie_layouts(rng, cone, eps_grid):
    """Two to four finite images of half-integer points, later images
    repeating earlier points, some moved by ``-eps*e`` for an ``eps``
    of the grid, so a competitor often holds a target's shifted point,
    first or after another point of the same margin."""
    images = []
    for _ in range(rng.randint(2, 4)):
        pts = []
        for _ in range(rng.randint(1, 4)):
            if images and rng.random() < 0.6:
                q = rng.choice(rng.choice(images))
                eps = rng.choice(eps_grid)
                pts.append(tuple(v - eps * e for v, e in zip(q, cone.e)))
            else:
                pts.append(tuple(F(rng.randint(-4, 4), 2) for _ in cone.e))
        images.append(pts)
    return images


def _assert_strong_bits_match_scans(inst, eps_grid, tols):
    targets = {q for img in inst.images for q in img.points}
    for tol, eps in itertools.product(tols, eps_grid):
        tol = question_tol(tol, inst.cone, inst.images, eps)
        for j, img in enumerate(inst.images):
            for q in targets:
                assert inst.strongly_dominates(j, q, eps, tol) == \
                    strong_membership_slack(q, img, inst.cone, tol, eps)[0]
        report = solve_direct(inst, TYPE_TWO, eps, tol)
        members, certificates = [], {}
        for b, label in zip(inst.images, inst.labels):
            for a, by in zip(inst.images, inst.labels):
                holds, cert = set_relation(a, b, inst.cone, LOWER_STRONG,
                                           eps, tol)
                if holds:
                    certificates[label] = (by, cert)
                    break
            else:
                members.append(label)
        assert report.members == tuple(members)
        assert {lab: (c.dominated_by, c.relation)
                for lab, c in report.certificates.items()} == certificates


def test_strong_bits_match_the_scan(orthant, skew_cone, orthant_float,
                                    boundary_cases):
    # the strong bit is read off the stored point margin and scans only
    # at a tie with the shifted point; it must agree with the scan in
    # both regimes, at an exact tol 0, a float tol 0 and a positive tol
    skew_float = validate_cone([[0.0, 1.0], [1.0, -1.0]], [1.0, 0.5])
    rng = random.Random(23)
    for cone, cast in ((orthant, F), (skew_cone, F),
                       (orthant_float, float), (skew_float, float)):
        eps_grid = tuple(map(cast, (0, F(1, 2), 1)))
        tols = (None, 0.0, cast(F(1, 1000)))
        for _ in range(12):
            images = _tie_layouts(rng, cone, eps_grid)
            inst = build_instance(
                cone, [(str(i), (cast(i),)) for i in range(len(images))],
                [finite_set([tuple(map(cast, p)) for p in pts])
                 for pts in images])
            _assert_strong_bits_match_scans(inst, eps_grid, tols)
    for cone, q, y, eps, tol in boundary_cases:
        inst = build_instance(cone, [("a", (0.0,)), ("b", (1.0,))],
                              [finite_set([q]), finite_set([y, q])])
        _assert_strong_bits_match_scans(inst, (eps,), (tol, None, 0.0,
                                                        1e-3))


# the skew cones of the polytope goldens (tests/test_golden_digests.py)
GOLDEN_CONES = (([[2, 1], [1, 3]], [1, 1]),
                ([[1, F(1, 3)], [F(1, 5), 1], [1, F(-1, 7)]], [1, 1]))


def _mask(bits) -> int:
    return sum(bit << i for i, bit in enumerate(bits))


def _bounds(inst, j, q):
    """Polytope ``j``'s vertex bounds of target ``q`` as ``Fraction``s,
    and the ``d`` of ``q``'s int row (1 for a position)."""
    lb, ub = inst._bounds(j, q, inst._bar(0, 0))[:2]
    _, den, coef = inst._ints[:3]
    d = 1 if isinstance(q, int) else _target(q, coef, den)[1]
    return F(lb, d * den), F(ub, d * den), d


def _assert_bounds_agree(inst, fresh, seen):
    """Every bit an exact polytope's vertex bounds settle is the one its
    programs decide, at eps 0, 1/7 and the margin itself, for every
    point of every image, by position, and the ``fresh`` points; finite
    images keep their own pools, and every table the vectorizer reads is
    the programs' and scans' own."""
    own = {}
    for g, y in enumerate(inst._points):
        own.setdefault(y, g)
    targets = list(own.values()) + fresh
    points = [inst._points[q] if isinstance(q, int) else q for q in targets]
    for j, img in enumerate(inst.images):
        if img.is_finite:
            assert inst.pool(j, 0) == min_elements(img, inst.cone)
            continue
        mus = [inst.point_margin(j, q, 0)[0] for q in points]
        for q, p, mu in zip(targets, points, mus):
            lb, ub, d = _bounds(inst, j, q)
            assert lb <= mu <= ub and (lb < ub or lb == mu)
            # at the tie bits are settled when lb == mu or ub == mu
            assert inst._bits(j, [q], mu, 0, True) == (0, 0)
            if lb < mu == ub:
                assert inst.strongly_dominates(j, q, mu, 0) == \
                    inst.strong_slack(j, p, mu, 0)[0]
                seen["lb < mu == ub"] += 1
            seen["d > 1"] += d > 1
            seen["lb == ub"] += lb == ub
            seen["tie settled"] += lb == mu or ub == mu
            seen["0 settled"] += lb > 0 or ub < 0
            if isinstance(q, int) and any(
                    b.is_finite and inst._first[k] <= q < inst._first[k + 1]
                    for k, b in enumerate(inst.images)):
                seen["finite target"] += 1
        for eps in (0, F(1, 7)):
            assert inst._bits(j, targets, eps, 0, True) == (
                _mask(mu > eps for mu in mus), 0)
            assert inst._bits(j, targets, eps, 0, False) == (
                _mask(mu >= eps for mu in mus),
                _mask(mu > eps or mu == eps and inst.strong_slack(j, p, eps,
                                                                  0)[0]
                      for p, mu in zip(points, mus)))
            assert not any(inst.strongly_dominates(j, q, eps, 0)
                           for q, mu in zip(targets, mus) if mu < eps)
        margin = dict(zip(points, mus))
        assert inst.set_margins(0)[j] == [
            min(map(margin.get, b.points)) for b in inst.images]
        assert inst.pool(j, 0) == tuple(
            v for v in img.points if not inst.strong_slack(j, v, 0, 0)[0])
    for idx, eps, kind in itertools.product(
            range(len(inst.images)), (0, F(1, 7)), (VP_WEAK, VP_MIN)):
        pool = inst.pool(idx, 0)
        mus = [[inst.point_margin(j, q, 0)[0] for q in pool]
               for j in range(len(inst.images))]
        dom = [_mask(mu > eps if kind == VP_WEAK else mu >= eps for mu in row)
               for row in mus]
        extra = [_mask(mu >= eps and strong_membership_slack(
                           q, img, inst.cone, 0, eps)[0]
                       for q, mu in zip(pool, row))
                 for img, row in zip(inst.images, mus)]
        assert _table(inst, kind, idx, eps, 0) == (
            dom, None if kind == VP_WEAK else extra)


def test_vertex_bounds_settle_only_what_the_programs_decide():
    # at tol 0 on rational data a polytope's vertex bounds lb <= mu <= ub
    # settle table bits, strong bits, set margins and pool members with
    # no program.  Convex-graph images under the orthant and the goldens'
    # skew cones, asked about every vertex of every image and fresh
    # points whose cone coordinates over an image's denominator need a
    # factor d > 1; polytopes in R^3, where lb < mu == ub can hold
    rng = random.Random(37)
    cones = [None] + [validate_cone(rows, e) for rows, e in GOLDEN_CONES]
    seen = collections.Counter()
    for seed, (n, g) in itertools.product(range(20),
                                          ((1, 5), (2, 2), (1, 3))):
        inst = make_example("convex_polyhedral",
                            {"seed": seed, "n": n, "g": g}, exact=True)
        inst = build_instance(cones[seed % 3] or inst.cone, inst.decisions,
                              inst.images)
        _assert_bounds_agree(inst, [
            tuple(F(rng.randint(-40, 40), rng.randint(2, 13)) for _ in "xy")
            for _ in range(9)], seen)
    space = validate_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1])
    # (1, 1, -1) has margin 1, that of the ideal point (-4, -2, -2),
    # where no vertex has more than 0, and (1, 1, -1) - e = (0, 0, -2)
    # lies above the edge point (-1, 0, -2): a tie with ub that only the
    # strong-slack program decides
    hand = polytope([tuple(map(F, v)) for v in (
        (-2, 4, 1), (-4, 3, -2), (4, -2, -2), (1, -2, -2), (1, -2, 4))])
    inst = build_instance(space, [("a", (0,))], [hand])
    assert _bounds(inst, 0, (1, 1, -1))[:2] == (0, 1)
    assert inst.strongly_dominates(0, (F(1), F(1), F(-1)), 1, 0)
    _assert_bounds_agree(inst, [(F(1), F(1), F(-1))], seen)
    for _ in range(2):
        images = [polytope([tuple(F(rng.randint(-4, 4)) for _ in range(3))
                            for _ in range(rng.randint(2, 5))])
                  for _ in range(5)]
        inst = build_instance(space, [(str(i), (i,)) for i in range(5)],
                              images)
        _assert_bounds_agree(inst, [
            tuple(F(rng.randint(-6, 6)) for _ in "xyz") for _ in range(8)],
            seen)
    assert min(seen.values()) > 5 and seen["d > 1"] > 1000, seen


def test_mixed_images_read_finite_pools_by_position():
    # instances mixing finite and polytope images: a finite pool is read
    # by position against polytope competitors, and fresh targets go
    # through _target; every bit, set margin, pool and table is the
    # programs' answer
    rng = random.Random(43)
    cones = [None] + [validate_cone(rows, e) for rows, e in GOLDEN_CONES]
    seen = collections.Counter()
    for seed in range(12):
        inst = make_example("convex_polyhedral",
                            {"seed": seed, "n": 1, "g": 4}, exact=True)
        images = [img if t % 2 else finite_set(
            list(img.points) + [tuple(F(rng.randint(-30, 30), rng.randint(
                1, 5)) for _ in "xy") for _ in range(rng.randint(0, 4))])
            for t, img in enumerate(inst.images)]
        inst = build_instance(cones[seed % 3] or inst.cone, inst.decisions,
                              images)
        _assert_bounds_agree(inst, [
            tuple(F(rng.randint(-40, 40), rng.randint(2, 11)) for _ in "xy")
            for _ in range(3)], seen)
    assert min(seen.values()) > 5 and seen["finite target"] > 100, seen


def test_float_shift_of_exact_polytopes_stays_with_the_program():
    # at an explicit tol 0 a float eps shifts the target in floats inside
    # the strong-slack program, which exact bounds cannot stand in for:
    # the strong bit stays the program's, so the min kind finds the
    # distinct witness its table promised
    for seed, n, g in ((5, 1, 3), (7, 2, 2), (9, 1, 4)):
        inst = make_example("convex_polyhedral",
                            {"seed": seed, "n": n, "g": g}, exact=True)
        for j, q in itertools.product(range(len(inst.images)),
                                      {v for b in inst.images
                                       for v in b.points}):
            assert inst.strongly_dominates(j, q, 1 / 7, 0) == \
                inst.strong_slack(j, q, 1 / 7, 0)[0]
        membership_vp(inst, 1, 1 / 7, VP_MIN, tol=0)
