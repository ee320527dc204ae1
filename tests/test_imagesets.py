import itertools
import math
import random
from fractions import Fraction as F

import pytest

import setopt.imagesets
from setopt.arith import dot, lcd, vscale, vsub
from setopt.cone import margin, validate_cone
from setopt.errors import EmptyImage, ValidationError
from setopt.imagesets import (_in_hull, covering_number_internal,
                              dominators, domination_check, finite_set,
                              hausdorff, hausdorff_sq,
                              min_elements, minimal_vertices, point_margin,
                              point_margin_with_multipliers,
                              point_margin_with_witness, polytope,
                              prune_to_extreme, strong_membership_slack)
from setopt.lp import LinearProgram, lp_maximize
from setopt.setrelations import RELATION_KINDS, set_relation


def pts(*coords):
    return [tuple(F(c) for c in p) for p in coords]


def test_empty_image_rejected():
    with pytest.raises(EmptyImage):
        finite_set([])


def test_min_elements_antichain(orthant):
    img = finite_set(pts((2, 0), (0, 2), (1, 1)))
    assert set(min_elements(img, orthant)) == set(img.points)


def test_min_elements_drops_dominated(orthant):
    img = finite_set(pts((2, 0), (0, 2), (2, 2)))
    assert set(min_elements(img, orthant)) == set(pts((2, 0), (0, 2)))


def test_min_elements_incomparable_pair(orthant):
    img = finite_set(pts((1, -1), (0, 2)))
    assert set(min_elements(img, orthant)) == set(img.points)


def test_min_elements_rejects_polytope(orthant):
    with pytest.raises(ValidationError):
        min_elements(polytope(pts((0, 0), (1, 0))), orthant)


def _oracle_minimal(points, cone, weak):
    """Definition-level scan, no margins: q dominates p when the
    difference lies in the cone (interior for weak) and differs."""
    out = []
    for p in points:
        dominated = False
        for q in points:
            if q == p:
                continue
            diff = tuple(a - b for a, b in zip(p, q))
            slacks = [sum(r * d for r, d in zip(row, diff))
                      for row in cone.rows]
            if weak:
                dominated = dominated or all(s > 0 for s in slacks)
            else:
                dominated = dominated or all(s >= 0 for s in slacks)
        if not dominated:
            out.append(p)
    return set(out)


def test_min_elements_vs_definition_oracle(orthant, skew_cone):
    rng = random.Random(4)
    for cone in (orthant, skew_cone):
        for _ in range(25):
            points = list({(F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
                           for _ in range(rng.randint(1, 6))})
            img = finite_set(points)
            for weak in (False, True):
                assert set(min_elements(img, cone, weak)) == \
                    _oracle_minimal(points, cone, weak)
            mins = set(min_elements(img, cone, False))
            weaks = set(min_elements(img, cone, True))
            assert mins <= weaks <= set(points)


def test_min_elements_keeps_points_within_tol_of_each_other(orthant):
    # each point lies within tol below the other; neither may remove the
    # other, or the pool comes back empty
    img = finite_set(pts((0, 0), (F(1, 20), F(-1, 20))))
    for weak in (False, True):
        assert set(min_elements(img, orthant, weak, F(1, 10))) == \
            set(img.points)


def test_min_elements_scans_each_distinct_point_once(orthant, orthant_float,
                                                     monkeypatch):
    # a dominated point's back test reads the list of points below its
    # dominator, which was scanned already, not a second scan of it
    targets = []

    class Counted(setopt.imagesets._Margins):
        def __init__(self, image, cone, q, tol):
            targets.append(q)
            super().__init__(image, cone, q, tol)

    monkeypatch.setattr(setopt.imagesets, "_Margins", Counted)
    chain = [(3, 3), (2, 2), (0, 4), (2, 2), (1, 1), (4, 0), (0, 4)]
    for cone, cast in ((orthant, F), (orthant_float, float)):
        img = finite_set([tuple(map(cast, p)) for p in chain])
        for weak, tol in itertools.product((False, True), (None, cast(0.5))):
            targets.clear()
            kept = min_elements(img, cone, weak, tol)
            assert len(targets) == len(set(targets)) == 5
            assert kept == tuple(map(img.points.__getitem__, (2, 4, 5)))


def test_min_elements_of_near_duplicates_never_empty(orthant, skew_cone,
                                                     orthant_float):
    rng = random.Random(12)
    for _ in range(60):
        # clusters of points at most 2/100 apart per coordinate, far
        # below the tolerance of 1/10
        points = [(F(cx) + F(rng.randint(-1, 1), 100),
                   F(cy) + F(rng.randint(-1, 1), 100))
                  for cx, cy in [(rng.randint(-3, 3), rng.randint(-3, 3))
                                 for _ in range(rng.randint(1, 3))]
                  for _ in range(rng.randint(2, 4))]
        for cone, cast in ((orthant, F), (skew_cone, F),
                           (orthant_float, float)):
            img = finite_set([tuple(map(cast, p)) for p in points])
            for weak in (False, True):
                assert min_elements(img, cone, weak, cast(F(1, 10)))


def test_point_margin_finite(orthant):
    assert point_margin((F(0), F(1)), finite_set(pts((0, 0))), orthant) == 0
    assert point_margin((F(2), F(3)),
                        finite_set(pts((0, 0), (5, 5))), orthant) == 2
    img = finite_set(pts((3, 1), (-2, 4)))
    for b in img.points:
        assert point_margin(b, img, orthant) >= 0


def test_point_margin_polytope_matches_vertex_scan_when_exact(orthant):
    # on a segment the fan of margins is maximized at a hull point; the
    # LP must match brute-force maximization over a fine hull sample
    verts = pts((0, 0), (4, -2))
    poly = polytope(verts)
    b = (F(3), F(1))
    mu = point_margin(b, poly, orthant)
    best = max(
        margin(tuple(l * v1 + (1 - l) * v2 for v1, v2 in zip(*verts)), b,
               orthant)
        for l in [F(i, 64) for i in range(65)])
    assert mu >= best
    # hand optimum: segment point (4t,-2t) gives min(3-4t, 1+2t),
    # maximized at t=1/3 with value 5/3
    assert mu == F(5, 3)


def test_hausdorff_hand_values():
    a = finite_set(pts((0, 0)))
    b = finite_set(pts((3, 4)))
    assert hausdorff(a, b) == 5.0
    assert hausdorff(a, a) == 0.0
    c = finite_set(pts((0, 0), (1, 0)))
    assert hausdorff(c, finite_set(pts((0, 0)))) == 1.0
    assert hausdorff_sq(c, finite_set(pts((0, 0)))) == 1


def test_hausdorff_metric_axioms(orthant):
    rng = random.Random(11)
    sets = [finite_set([(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
                        for _ in range(rng.randint(1, 4))])
            for _ in range(6)]
    for a, b, c in itertools.permutations(sets, 3):
        dab, dba = hausdorff(a, b), hausdorff(b, a)
        assert dab == pytest.approx(dba)
        assert hausdorff(a, b) <= hausdorff(a, c) + hausdorff(c, b) + 1e-9


def _oracle_min_cover(points, eps_sq):
    n = len(points)
    best = None
    for size in range(1, n + 1):
        for centers in itertools.combinations(range(n), size):
            if all(any(sum((a - c) ** 2 for a, c in zip(points[i], points[j]))
                       <= eps_sq for j in centers) for i in range(n)):
                return size
    return best


def test_covering_hand_and_oracle(orthant):
    img = finite_set(pts((0, 0), (1, 0), (2, 0)))
    res = covering_number_internal(img, F(1, 2))
    assert res.count == 3 and res.exact
    # closed balls: the middle point alone covers both neighbours at eps=1
    res = covering_number_internal(img, F(1))
    assert res.count == 1 and res.centers == (tuple(F(c) for c in (1, 0)),)
    assert covering_number_internal(finite_set(pts((7, 7))), F(1, 10)).count == 1

    rng = random.Random(5)
    for _ in range(20):
        points = list({(F(rng.randint(0, 5)), F(rng.randint(0, 5)))
                       for _ in range(rng.randint(1, 7))})
        img = finite_set(points)
        for eps in (F(1), F(2), F(3)):
            res = covering_number_internal(img, eps)
            assert res.exact
            assert res.count == _oracle_min_cover(points, eps * eps)
            assert set(res.centers) <= set(points)
            greedy = covering_number_internal(img, eps, exact_cap=0)
            assert not greedy.exact and res.count <= greedy.count


def test_covering_monotone_in_eps():
    img = finite_set(pts((0, 0), (3, 1), (5, 5), (-2, 2)))
    counts = [covering_number_internal(img, eps).count
              for eps in (F(1, 2), F(1), F(2), F(4), F(8))]
    assert counts == sorted(counts, reverse=True)


def test_covering_requires_positive_eps():
    with pytest.raises(ValidationError):
        covering_number_internal(finite_set(pts((0, 0))), F(0))


def test_prune_hand_values():
    dropped = prune_to_extreme(pts((0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))))
    assert set(dropped) == set(pts((0, 0), (1, 0), (0, 1)))
    triangle = pts((0, 0), (1, 0), (0, 1))
    assert set(prune_to_extreme(triangle)) == set(triangle)
    assert prune_to_extreme(pts((2, 2), (2, 2))) == tuple(pts((2, 2)))


def test_prune_idempotent():
    rng = random.Random(3)
    for _ in range(15):
        points = [(F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
                  for _ in range(rng.randint(1, 8))]
        once = prune_to_extreme(points)
        assert set(prune_to_extreme(once)) == set(once)


def _lp_prune(points):
    """Reference filter: one LP per distinct point, which stays unless
    it lies in the hull of the others."""
    distinct = list(dict.fromkeys(points))
    if len(distinct) == 1:
        return tuple(distinct)
    return tuple(p for i, p in enumerate(distinct)
                 if not _in_hull(p, distinct[:i] + distinct[i + 1:], 0))


def _planar_list(rng):
    """1-9 points on a half-integer grid: scattered, a collinear run
    among scattered points, or all on one line; often with repeats."""
    def grid():
        return (F(rng.randint(0, 8), 2), F(rng.randint(0, 8), 2))

    n = rng.randint(1, 9)
    kind = rng.choice(("scatter", "run", "line"))
    scattered = {"scatter": n, "run": n // 2, "line": 0}[kind]
    points = [grid() for _ in range(scattered)]
    if kind != "scatter":
        (x, y), step = grid(), (rng.randint(-2, 2), rng.randint(-2, 2))
        points += [(x + t * step[0], y + t * step[1])
                   for t in range(n - len(points))]
    for _ in range(rng.randint(0, 2)):
        points.insert(rng.randrange(len(points) + 1), rng.choice(points))
    rng.shuffle(points)
    return points


def test_planar_hull_sweep_matches_lp_filter():
    rng = random.Random(12)
    for _ in range(3000):
        points = _planar_list(rng)
        assert prune_to_extreme(points) == _lp_prune(points), points


def test_prune_lp_path_in_space_and_for_floats():
    cube = [(F(x), F(y), F(z)) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    inner = [(F(1), F(1), F(1)), (F(1), F(0), F(0)), (F(2), F(1), F(2))]
    assert prune_to_extreme(inner + cube + cube[:2]) == tuple(cube)
    square = [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (0.5, 0.0), (1.0, 1.0),
              (0.0, 1.0), (1.0, 0.0)]
    assert prune_to_extreme(square) == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0),
                                        (0.0, 1.0))


def test_domination_property_holds(orthant, skew_cone):
    rng = random.Random(9)
    for cone in (orthant, skew_cone):
        for _ in range(30):
            points = [(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
                      for _ in range(rng.randint(1, 6))]
            assert domination_check(finite_set(points), cone)
    assert domination_check(finite_set(pts((3, 3))), orthant)
    assert domination_check(finite_set(pts((2, 0), (0, 2))), orthant)


def test_minimal_vertices_of_fan(orthant):
    poly = polytope(pts((1, 0), (0, 1), (F(1, 4), F(1, 4))))
    assert set(minimal_vertices(poly, orthant)) == set(poly.points)
    dominated = polytope(pts((0, 0), (2, 0), (2, 2), (0, 2)))
    assert set(minimal_vertices(dominated, orthant)) == set(pts((0, 0)))


def test_strong_membership_slack_boundary(orthant):
    ends = pts((1, 0), (0, 1))
    for seg in (polytope(ends), finite_set(ends)):
        for eps in (F(0), F(1, 3)):
            # (1,0) lies on the set but no distinct point of seg + K
            # dominates it; the test shifts the target by eps*e first
            holds, _, _ = strong_membership_slack((1 + eps, eps), seg,
                                                  orthant, eps=eps)
            assert not holds
            holds, point, lam = strong_membership_slack(
                (2 + eps, 1 + eps), seg, orthant, eps=eps)
            assert holds and (point if seg.is_finite else lam) is not None


# cones (rows, e) in R^2 and R^3: the orthant and a skew cone each; the
# skew rows have denominators of their own
DIFF_CONES = (
    (((1, 0), (0, 1)), (1, 1)),
    (((1, F(-1, 3)), (F(-1, 2), 1)), (1, 1)),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1)),
    (((2, -1, 0), (0, 2, -1), (F(-1, 2), 0, 2)), (1, 1, 1)),
)
# mode -> (number conversion, tol passed by the caller)
DIFF_MODES = {
    "exact": (F, None),
    "float": (float, None),
    "exact_tol": (F, F(1, 1000)),
}


def _bits(x):
    """``x`` with every float as its hex string, so that an equality
    compares floats bit for bit (signed zeros included) and numbers by
    type as well as value."""
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    if isinstance(x, float):
        return x.hex()
    return type(x).__name__, x


def _fresh_margin(b, verts, cone):
    """The point-margin program of ``b``, built from scratch."""
    k = len(verts)
    return LinearProgram(
        objective=(1,) + (0,) * k,
        eq_lhs=((0,) + (1,) * k,),
        eq_rhs=(1,),
        ge_lhs=tuple((-dot(a, cone.e),) + tuple(-dot(a, v) for v in verts)
                     for a in cone.rows),
        ge_rhs=tuple(-dot(a, b) for a in cone.rows),
        lower_bounds=(None,) + (0,) * k)


def _fresh_slack(t, verts, cone):
    """The strong-slack program of the shifted target ``t``."""
    total = tuple(sum(col) for col in zip(*cone.rows))
    k = len(verts)
    return LinearProgram(
        objective=tuple(-dot(total, v) for v in verts),
        eq_lhs=((1,) * k,),
        eq_rhs=(1,),
        ge_lhs=tuple(tuple(-dot(a, v) for v in verts) for a in cone.rows),
        ge_rhs=tuple(-dot(a, t) for a in cone.rows),
        lower_bounds=(0,) * k)


def _integral_twin(prog):
    """``prog`` with every constraint row and right-hand side times
    their common denominator: integer data, the same feasible set, and
    at tol 0 the same integer tableau, so the same pivots."""
    rows = [*zip(prog.eq_lhs, prog.eq_rhs), *zip(prog.ge_lhs, prog.ge_rhs)]
    den = math.lcm(*[F(v).denominator for row, b in rows for v in (*row, b)])

    def scaled(pairs):
        return (tuple(tuple(int(v * den) for v in row) for row, _ in pairs),
                tuple(int(b * den) for _, b in pairs))

    (eq_lhs, eq_rhs), (ge_lhs, ge_rhs) = (
        scaled(rows[:len(prog.eq_lhs)]), scaled(rows[len(prog.eq_lhs):]))
    return LinearProgram(prog.objective, eq_lhs, eq_rhs, ge_lhs, ge_rhs,
                         prog.lower_bounds)


def _diff_cases(num):
    """Seeded ``(cone, image, targets)``: vertices, vertices shifted
    along e, and points with denominators 7, 11 and 13, so that the
    common denominator of the right-hand side changes from target to
    target."""
    rng = random.Random(41)
    for rows, e in DIFF_CONES:
        cone = validate_cone([[num(v) for v in r] for r in rows],
                             [num(v) for v in e])
        m = len(e)
        for _ in range(3):
            verts = [tuple(num(F(rng.randint(-9, 9), rng.randint(1, 4)))
                           for _ in range(m))
                     for _ in range(rng.randint(2, 5))]
            shift = num(F(rng.choice((-1, 1)), rng.randint(2, 5)))
            targets = (verts
                       + [tuple(y + shift * c for y, c in zip(v, cone.e))
                          for v in verts]
                       + [tuple(num(F(rng.randint(-40, 40), den))
                                for _ in range(m)) for den in (7, 11, 13)])
            yield cone, polytope(verts), targets


@pytest.mark.parametrize("mode", sorted(DIFF_MODES))
def test_prepared_programs_match_fresh_programs(mode, monkeypatch):
    """Each polytope image solves its margin and slack programs with a
    new right-hand side only; every solve answers as the same program
    built from scratch: status, value and point, floats bit for bit.
    Exact programs also answer as their integer twins, which need no
    common denominator of rows and right-hand sides."""
    num, tol = DIFF_MODES[mode]
    solved = []

    def recorded(prog, tol=None):
        out = lp_maximize(prog, tol)
        solved.append((prog, tol, out))
        return out

    monkeypatch.setattr(setopt.imagesets, "lp_maximize", recorded)
    cases = kinds = 0
    for cone, image, targets in _diff_cases(num):
        verts = image.points
        for t in targets:
            for eps in (num(0), num(F(1, 5))):
                solved.clear()
                mu, lam = point_margin_with_multipliers(t, image, cone, tol)
                holds, _, slack_lam = strong_membership_slack(
                    t, image, cone, tol, eps)
                shifted = tuple(y - eps * c for y, c in zip(t, cone.e))
                fresh = (_fresh_margin(t, verts, cone),
                         _fresh_slack(shifted, verts, cone))
                assert len(solved) == 2
                for (prog, used_tol, out), new in zip(solved, fresh):
                    assert _bits(prog.ge_rhs) == _bits(new.ge_rhs)
                    assert _bits(prog.ge_lhs) == _bits(new.ge_lhs)
                    assert _bits(prog.objective) == _bits(new.objective)
                    want = lp_maximize(new, used_tol)
                    if mode == "exact":  # also against a wrong row scale
                        twin = lp_maximize(_integral_twin(new), 0)
                        assert _bits(want) == _bits(twin)
                    assert out.status == want.status
                    assert _bits((out.value, out.point)) == _bits(
                        (want.value, want.point))
                    kinds |= 1 << ["optimal", "infeasible"].index(out.status)
                margin_out, slack_out = solved[0][2], solved[1][2]
                if margin_out.is_optimal:
                    assert _bits((mu, lam)) == _bits(
                        (margin_out.value, margin_out.point[1:]))
                assert (slack_lam is not None) == holds
                if holds:
                    assert _bits(slack_lam) == _bits(slack_out.point)
                cases += 1
    assert cases > 200 and kinds == 3


def test_image_under_two_cones_answers_as_fresh_images(orthant, skew_cone):
    # an image keeps the programs of the cone last asked; asking another
    # cone replaces them, and asking the first again rebuilds them
    verts = pts((0, 3), (1, 1), (3, 0), (F(5, 2), F(5, 2)))
    targets = verts + pts((2, 2), (F(1, 3), F(17, 7)), (-1, 4), (F(9, 2), 0))

    def answers(image, cone):
        return ([point_margin_with_multipliers(t, image, cone)
                 for t in targets] +
                [strong_membership_slack(t, image, cone, eps=eps)
                 for t in targets for eps in (0, F(1, 4))] +
                [minimal_vertices(image, cone)])

    image = polytope(verts)
    for cone in (orthant, skew_cone, orthant, skew_cone):
        assert answers(image, cone) == answers(polytope(verts), cone)
        assert image._products[0] is cone


def test_exact_ints_and_float_margins_answer_alike(orthant, skew_cone,
                                                   orthant_float):
    # integer points under cones whose a_j.e are powers of two make every
    # float margin exact, so the float regime at tol 0.0 must answer as
    # the int rows of the exact regime at tol 0, duplicates included
    skew_float = validate_cone([[0.0, 1.0], [1.0, -1.0]], [1.0, 0.5])
    rng = random.Random(16)

    def both(coords):
        return (finite_set([tuple(map(F, p)) for p in coords]),
                finite_set([tuple(map(float, p)) for p in coords]))

    def draw(size):
        coords = [(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(size)]
        return coords + rng.sample(coords, rng.randint(0, size))

    cases = 0
    for cone, fcone in ((orthant, orthant_float), (skew_cone, skew_float)):
        for _ in range(15):
            (a, fa), (b, fb) = both(draw(rng.randint(1, 5))), \
                both(draw(rng.randint(1, 3)))
            for weak in (False, True):
                assert min_elements(a, cone, weak, 0) == \
                    min_elements(fa, fcone, weak, 0.0)
            halves = [(F(rng.randint(-7, 7), 2), F(rng.randint(-7, 7), 2))
                      for _ in range(3)]
            for q in [*a.points, *b.points, *halves]:
                fq = tuple(map(float, q))
                assert point_margin_with_witness(q, a, cone, 0) == \
                    point_margin_with_witness(fq, fa, fcone, 0.0)
                for eps, strict, distinct in itertools.product(
                        (0, F(1, 2)), (False, True), (False, True)):
                    assert list(dominators(a, cone, q, eps, 0, strict,
                                           distinct)) == \
                        list(dominators(fa, fcone, fq, float(eps), 0.0,
                                        strict, distinct))
                    cases += 1
            for kind, eps in itertools.product(RELATION_KINDS, (0, F(1, 2))):
                assert set_relation(a, b, cone, kind, eps, 0) == \
                    set_relation(fa, fb, fcone, kind, float(eps), 0.0)
    assert cases > 1000


def test_integer_cone_coordinates_match_a_fraction_scan(orthant, skew_cone):
    # exact margins are read off ints: a target is scaled once to ints
    # over lcd(q), dotted with the cone's rows a_j / a_j.e over one
    # denominator c, and reduced by one gcd.  Coordinates k/d, d up to
    # 7, under cones whose a_j.e are not powers of two, against
    # cone.margin in Fractions
    three_row = validate_cone([[1, F(1, 3)], [F(1, 5), 1], [1, F(-1, 7)]],
                              [1, F(1, 2)])
    rng = random.Random(19)

    def point():
        return tuple(F(rng.randint(-12, 12), rng.randint(1, 7))
                     for _ in range(2))

    def image():
        coords = [point() for _ in range(rng.randint(1, 6))]
        return finite_set(coords + rng.sample(coords, rng.randint(0, 2)))

    reduced = kept = 0
    for cone in (orthant, skew_cone, three_row):
        for _ in range(6):
            a, b = image(), image()
            own = list(enumerate(a.points))
            for key, q in own + [(y, y) for y in b.points + (point(),)]:
                ms = [margin(y, q, cone) for y in a.points]
                best = max(ms)
                assert point_margin_with_witness(q, a, cone) == \
                    (best, a.points[ms.index(best)])
                for eps, strict, distinct in itertools.product(
                        (0, F(1, 3), F(5, 7)), (False, True), (False, True)):
                    peak = vsub(q, vscale(eps, cone.e))
                    want = [y for y, m in zip(a.points, ms)
                            if (m > eps if strict else m >= eps)
                            and not (distinct and y == peak)]
                    assert list(dominators(a, cone, key, eps, 0, strict,
                                           distinct)) == want
                    if distinct and not strict:
                        assert strong_membership_slack(q, a, cone, eps=eps) \
                            == ((True, want[0], None) if want
                                else (False, None, None))
                _, den, coef = setopt.imagesets._cone_products(a, cone)
                d = setopt.imagesets._target(q, coef, den)[1]
                if d < coef[1] * lcd(q):
                    reduced += 1
                else:
                    kept += 1
    # both sides of the gcd step ran
    assert reduced > 20 and kept > 20
