"""Image sets: finite point lists and polytopes given by vertices.

Operations on the values of a set-valued objective: minimal and weakly
minimal elements, the point margin against a shifted set, the points
that dominate a shifted point, Hausdorff distance, internal covering
numbers, extreme-point pruning, and the domination (external
stability) check.

An image keeps, for the last cone asked, the data its questions share.
A polytope keeps its two linear programs, the point margin and the
strong slack, built on the cone products ``a_j.v`` of its vertices and
prepared once (``lp``); a target changes only their right-hand side
``-A.t``, formed over ints for rational data.  A rational finite image
keeps the cone coordinates ``a_j.y / a_j.e`` of its points as ints over
one denominator, so that exact finite margins and dominance scans are
integer arithmetic (floats keep ``cone.margin``).  The kept data lives
and dies with the image.  Extreme-point pruning sweeps the hull (Andrew's
monotone chain) for exact planar vertex lists and solves one linear
program per vertex otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import (Num, Vec, dist_sq, dot, ge, gt, is_exact, num_finite,
                    resolve_tol, veq, vscale, vsub)
from .cone import Cone, margin
from .errors import DimMismatch, EmptyImage, ValidationError
from .lp import LinearProgram, lp_feasible, lp_maximize

FINITE = "finite"
POLYTOPE = "polytope"


@dataclass(frozen=True)
class ImageSet:
    kind: str                 # "finite" or "polytope"
    points: tuple             # points, or polytope vertices
    # (cone, _cone_products data) for the last cone asked, set on first
    # use; a class-level default, so an image never asked carries
    # nothing.  Points never change, so the data stays valid while the
    # cone is the same object.
    _products: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    @property
    def m(self) -> int:
        return len(self.points[0])

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE


def _checked(points) -> tuple:
    pts = tuple(tuple(p) for p in points)
    if not pts:
        raise EmptyImage("image set must be nonempty")
    m = len(pts[0])
    if m == 0:
        raise EmptyImage("points must have at least one coordinate")
    for p in pts:
        if len(p) != m:
            raise DimMismatch("points of mixed dimension in one image")
        for v in p:
            if not num_finite(v):
                raise ValidationError("non-finite coordinate in image set")
    return pts


def finite_set(points) -> ImageSet:
    return ImageSet(FINITE, _checked(points))


def polytope(vertices) -> ImageSet:
    return ImageSet(POLYTOPE, _checked(vertices))


def _dedupe(points):
    seen = []
    for p in points:
        if p not in seen:
            seen.append(p)
    return seen


def min_elements(image: ImageSet, cone: Cone, weak: bool = False,
                 tol=None) -> tuple:
    """Minimal (or, with ``weak=True``, weakly minimal) points of a finite set.

    A point survives when no distinct point dominates it through
    K minus the origin (interior of K for the weak variant).
    """
    if not image.is_finite:
        raise ValidationError("min_elements is defined for finite images only")
    tol = resolve_tol(tol, *(v for p in image.points for v in p))
    coords = _cone_products(image, cone) if tol == 0 else None
    if coords is not None:
        # not via dominators, which converts each point's row again per call
        first = {}
        for row, p in zip(coords[0], image.points):
            first.setdefault(row, p)
        # an int margin is >= 1 exactly when it is > 0
        return tuple(p for row, p in first.items() if not any(
            w != row and _least(row, w) >= int(weak) for w in first))
    pts = _dedupe(image.points)
    kept = []
    for p in pts:
        for q in pts:
            if q == p:
                continue
            mg = margin(q, p, cone)
            # within tol of each other, p and q each lie below the other,
            # so p drops only below a q it does not lie under in turn;
            # margin(p, q) <= -mg, so that needs a look only if mg <= tol
            if (gt(mg, 0, tol) if weak else ge(mg, 0, tol)) and (
                    mg > tol or not ge(margin(p, q, cone), 0, tol)):
                break
        else:
            kept.append(p)
    return tuple(kept)


def point_margin(b: Vec, image: ImageSet, cone: Cone, tol=None) -> Num:
    """Largest eps with ``b - eps*e`` inside ``image + K``.

    Finite images reduce to a max of margins; polytopes solve a small
    LP over convex multipliers.  Returns ``-inf`` only if the LP is
    numerically degenerate (impossible for finite images).
    """
    mu, _ = point_margin_with_multipliers(b, image, cone, tol)
    return mu


def point_margin_with_multipliers(b: Vec, image: ImageSet, cone: Cone,
                                  tol=None):
    """As ``point_margin`` but also returns the convex multipliers
    (``None`` for finite images, where the witness is the argmax point)."""
    if image.is_finite:
        return _finite_margin(b, image, cone)[0], None
    if len(b) != cone.m:
        raise DimMismatch("point dimension differs from cone dimension")
    prog, _, rows, ints = _cone_products(image, cone)
    prog = prog._with_ge_rhs(_neg_dots(rows, ints, b)[:-1])
    out = lp_maximize(prog, tol=tol)
    if not out.is_optimal:
        return float("-inf"), None
    return out.value, tuple(out.point[1:])


def strong_membership_slack(target: Vec, image: ImageSet, cone: Cone,
                            tol=None, eps: Num = 0):
    """Decide ``target - eps*e in image + K \\ {0}`` with a verifiable
    witness.

    Finite images: the first point of ``dominators`` distinct from the
    shifted target.  Polytopes: maximize the total cone slack
    ``sum_j a_j.(target - eps*e - V lam)`` over the membership system;
    pointedness (full row rank) makes a zero optimum collapse the cone
    element to the origin, so the relation holds exactly when the
    optimum is positive.

    Returns ``(holds, witness_point, multipliers)``.
    """
    if tol is None:
        tol = resolve_tol(None, eps, *target,
                          *(v for p in image.points for v in p))
    if image.is_finite:
        a = next(dominators(image, cone, target, eps, tol, distinct=True),
                 None)
        return (False, None, None) if a is None else (True, a, None)
    target = vsub(target, vscale(eps, cone.e))
    _, prog, rows, ints = _cone_products(image, cone)
    *rhs, neg_total = _neg_dots(rows, ints, target)
    out = lp_maximize(prog._with_ge_rhs(tuple(rhs)), tol=tol)
    if not out.is_optimal:
        return False, None, None
    value = out.value - neg_total  # plus sum_j a_j.target
    if gt(value, 0, tol):
        return True, None, tuple(out.point)
    return False, None, None


def dominators(image: ImageSet, cone: Cone, q: Vec, eps: Num, tol,
               strict: bool = False, distinct: bool = False):
    """The points ``y`` of a finite image, in image order, that dominate
    ``q`` at the shift: ``margin(y, q) >= eps`` (``> eps`` when
    ``strict``), and ``y != q - eps*e`` when ``distinct``.

    At tol 0 on rational data this compares integer cone coordinates;
    otherwise ``cone.margin`` is compared with ``eps`` within ``tol``.
    """
    scaled = _scaled(image, cone, q) if tol == 0 and is_exact(eps) else None
    if scaled is not None:
        rows, z, den = scaled
        shift = eps * den
        # an int margin is > shift exactly when it is >= floor(shift) + 1;
        # only equal points have equal rows, and no int row equals a
        # non-integral peak
        bar = math.floor(shift) + 1 if strict else math.ceil(shift)
        peak = tuple(v - shift for v in z) if distinct else None
        return (y for y, w in zip(image.points, rows)
                if _least(z, w) >= bar and w != peak)
    above = gt if strict else ge
    peak = vsub(q, vscale(eps, cone.e)) if distinct else None
    return (y for y in image.points if above(margin(y, q, cone), eps, tol)
            and not (distinct and veq(y, peak, tol)))


def _cone_products(image: ImageSet, cone: Cone):
    """A polytope's ``(margin, slack, rows, ints)``: the programs of
    ``point_margin_with_multipliers`` and ``strong_membership_slack``
    for the target 0, whose right-hand side ``-A.t`` is all a target
    changes, the rows ``a_1, ..., a_J, sum_j a_j`` and their
    ``_as_ints``.  A finite image's ``(rows, den, coef)``, None unless
    all is rational: ``rows[i][j] / den = a_j.y_i / a_j.e`` in ints, so
    ``margin(y_i, y_k) = min_j (rows[k][j] - rows[i][j]) / den`` and
    equal rows are equal points (A has full column rank), and ``coef[j]
    = a_j / a_j.e``.  Kept for the cone last asked."""
    kept = image._products
    if kept is None or kept[0] is not cone:
        kept = (cone, (_coordinates if image.is_finite else _products)(
            image.points, cone))
        object.__setattr__(image, "_products", kept)  # frozen dataclass
    return kept[1]


def _products(verts, cone) -> tuple:
    k = len(verts)
    rows = (*cone.rows, tuple(sum(col) for col in zip(*cone.rows)))
    ints = _as_ints(rows)
    *slack_rows, objective = zip(*(_neg_dots(rows, ints, v) for v in verts))
    zeros = (0,) * len(cone.rows)
    # max eps  s.t.  sum(lam) = 1,  A(b - eps*e - V lam) >= 0,  lam >= 0
    margin = LinearProgram(
        objective=(1,) + (0,) * k,
        eq_lhs=((0,) + (1,) * k,),
        eq_rhs=(1,),
        ge_lhs=tuple((-de,) + r for de, r in zip(cone.row_e, slack_rows)),
        ge_rhs=zeros,
        lower_bounds=(None,) + (0,) * k,
    )
    # max sum_j a_j.(t - V lam) - total.t  over the same system, lam >= 0
    slack = LinearProgram(
        objective=objective,
        eq_lhs=((1,) * k,),
        eq_rhs=(1,),
        ge_lhs=tuple(slack_rows),
        ge_rhs=zeros,
        lower_bounds=(0,) * k,
    )
    return margin, slack, rows, ints


def _as_ints(rows):
    """Each row as ``(ints, den)`` with ``row = ints / den``, or None
    unless all is rational."""
    if not all(is_exact(v) for r in rows for v in r):
        return None
    out = []
    for r in rows:
        den = math.lcm(*[v.denominator for v in r])
        out.append((tuple(v.numerator * (den // v.denominator) for v in r),
                    den))
    return out


def _neg_dots(rows, ints, v) -> tuple:
    """``-r.v`` for each of ``rows``: over ints, one ``Fraction`` per
    row, when ``ints`` (``_as_ints(rows)``) is not None and ``v`` is
    rational; otherwise by ``dot``."""
    if ints is None or not all(map(is_exact, v)):
        return tuple(-dot(r, v) for r in rows)
    d = math.lcm(*[x.denominator for x in v])
    z = [x.numerator * (d // x.denominator) for x in v]
    return tuple(Fraction(-sum([a * b for a, b in zip(r, z)]), den * d)
                 for r, den in ints)


def _coordinates(points, cone):
    if not all(is_exact(v) for r in (cone.e, *cone.rows, *points) for v in r):
        return None
    coef = tuple(tuple(Fraction(a) / de for a in row)
                 for row, de in zip(cone.rows, cone.row_e))
    zs = [_target(p, coef, 1) for p in points]
    den = math.lcm(*[d for _, d in zs])
    return tuple(tuple(v * (den // d) for v in z) for z, d in zs), den, coef


def _target(point, coef, den):
    """``(ints, d)``: the cone coordinates of a rational point times
    ``den``, as ints over a positive ``d``."""
    z = [sum(c * y for c, y in zip(crow, point)) * den for crow in coef]
    d = math.lcm(*[v.denominator for v in z])
    return tuple(v.numerator * (d // v.denominator) for v in z), d


def _scaled(image: ImageSet, cone: Cone, point):
    """``(rows, z, den)``: the integer coordinates of a finite image's
    points and of ``point`` over one denominator, or None."""
    coords = _cone_products(image, cone)
    if coords is None or not all(map(is_exact, point)):
        return None
    z, d = _target(point, coords[2], coords[1])
    rows = coords[0] if d == 1 else [tuple(d * v for v in w)
                                     for w in coords[0]]
    return rows, z, coords[1] * d


def _least(t, w) -> int:
    """``min_j t_j - w_j``: the scaled margin of row ``w`` to row ``t``."""
    return min([a - b for a, b in zip(t, w)])


def _finite_margin(b: Vec, image: ImageSet, cone: Cone):
    """``(point margin, i)`` of ``b`` against a finite image, ``i`` the
    first point attaining it."""
    if len(b) != cone.m:
        raise DimMismatch("point dimension differs from cone dimension")
    scaled = _scaled(image, cone, b)
    mus = ([margin(a, b, cone) for a in image.points] if scaled is None
           else [_least(scaled[1], w) for w in scaled[0]])
    best = max(mus)
    return (best if scaled is None else Fraction(best, scaled[2]),
            mus.index(best))


def minimal_vertices(image: ImageSet, cone: Cone, tol=None) -> tuple:
    """Vertices not dominated (through K minus the origin) by any point
    of their own polytope."""
    if image.is_finite:
        raise ValidationError("minimal_vertices expects a polytope image")
    kept = []
    for v in image.points:
        holds, _, _ = strong_membership_slack(v, image, cone, tol)
        if not holds:
            kept.append(v)
    return tuple(kept)


def directed_hausdorff_sq(points_a, points_b) -> Num:
    return max(min(dist_sq(a, b) for b in points_b) for a in points_a)


def hausdorff_sq(a: ImageSet, b: ImageSet) -> Num:
    if not (a.is_finite and b.is_finite):
        raise ValidationError("hausdorff distance is defined for finite images")
    if a.m != b.m:
        raise DimMismatch("images of different dimension")
    return max(directed_hausdorff_sq(a.points, b.points),
               directed_hausdorff_sq(b.points, a.points))


def hausdorff(a: ImageSet, b: ImageSet) -> float:
    return math.sqrt(float(hausdorff_sq(a, b)))


@dataclass(frozen=True)
class CoveringResult:
    count: int
    centers: tuple
    exact: bool


EXACT_COVER_CAP = 24


def covering_number_internal(image: ImageSet, eps: Num,
                             exact_cap: int = EXACT_COVER_CAP,
                             tol=None) -> CoveringResult:
    """Fewest points of the set itself whose eps-balls cover the set.

    Centers are restricted to the set, so the count sits between the
    free-center covering numbers at radii eps and eps/2 (a free center
    can be swapped for any set point its ball contains, doubling the
    radius); any overestimate of the budget it feeds stays valid.
    Exact branch-and-bound up to ``exact_cap`` distinct points, greedy
    beyond that (flagged ``exact=False``).
    """
    if not image.is_finite:
        raise ValidationError("covering numbers are computed for finite images")
    if eps <= 0:
        raise ValidationError("eps must be positive")
    return cover_by_sq_radius(image.points, eps * eps, exact_cap, tol)


def cover_by_sq_radius(points, radius_sq: Num, exact_cap: int = EXACT_COVER_CAP,
                       tol=None) -> CoveringResult:
    tol = resolve_tol(tol, *(v for p in points for v in p), radius_sq)
    pts = _dedupe(tuple(tuple(p) for p in points))
    n = len(pts)
    cover = [frozenset(j for j in range(n)
                       if dist_sq(pts[i], pts[j]) <= radius_sq + tol)
             for i in range(n)]
    chosen = _greedy_cover(cover, n)
    exact = n <= exact_cap
    if exact:
        chosen = _exact_cover(cover, n, chosen)
    return CoveringResult(len(chosen), tuple(pts[i] for i in chosen), exact)


def _greedy_cover(cover, n):
    uncovered = set(range(n))
    chosen = []
    while uncovered:
        best, best_gain = None, -1
        for i in range(n):
            gain = len(cover[i] & uncovered)
            if gain > best_gain:
                best, best_gain = i, gain
        chosen.append(best)
        uncovered -= cover[best]
    return chosen


def _exact_cover(cover, n, incumbent):
    """Branch-and-bound minimum set cover; branches on the element with
    the fewest candidate centers."""
    best = list(incumbent)

    def covers_of(elem, uncovered):
        return [i for i in range(n) if elem in cover[i]]

    def search(uncovered, chosen):
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        max_gain = max(len(cover[i] & uncovered) for i in range(n))
        lower = (len(uncovered) + max_gain - 1) // max_gain
        if len(chosen) + lower >= len(best):
            return
        elem = min(uncovered, key=lambda u: (len(covers_of(u, uncovered)), u))
        for i in covers_of(elem, uncovered):
            search(uncovered - cover[i], chosen + [i])

    search(frozenset(range(n)), [])
    return best


def prune_to_extreme(vertices, tol=None) -> tuple:
    """Drop duplicates and every point expressible as a convex
    combination of the others (idempotent), keeping the input order."""
    pts = _dedupe(tuple(tuple(p) for p in vertices))
    if not pts:
        raise EmptyImage("vertex list must be nonempty")
    if len(pts) == 1:
        return tuple(pts)
    coords = [v for p in pts for v in p]
    tol = resolve_tol(tol, *coords)
    if tol == 0 and len(pts[0]) == 2 and all(map(is_exact, coords)):
        return _planar_extreme(pts)
    kept = []
    for idx, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != idx]
        if not _in_hull(p, others, tol):
            kept.append(p)
    return tuple(kept)


def _planar_extreme(pts) -> tuple:
    """The vertices of the hull of distinct rational planar points, in
    input order: Andrew's monotone chain, dropping collinear points."""
    order = sorted(pts)

    def chain(seq):
        out = []
        for c in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (c[1] - ay) - (by - ay) * (c[0] - ax) > 0:
                    break
                out.pop()
            out.append(c)
        return out[:-1]

    hull = set(chain(order) + chain(order[::-1]))
    return tuple(p for p in pts if p in hull)


def _in_hull(p, others, tol) -> bool:
    k = len(others)
    m = len(p)
    eq_lhs = [(1,) * k]
    eq_rhs = [1]
    for d in range(m):
        eq_lhs.append(tuple(q[d] for q in others))
        eq_rhs.append(p[d])
    prog = LinearProgram(
        objective=(0,) * k,
        eq_lhs=tuple(eq_lhs),
        eq_rhs=tuple(eq_rhs),
        lower_bounds=(0,) * k,
    )
    return lp_feasible(prog, tol=tol).feasible


def domination_check(image: ImageSet, cone: Cone, tol=None) -> bool:
    """External stability: minimal elements exist and dominate the set.

    Must hold for every nonempty finite image under a pointed closed
    convex cone; exposed as a test oracle.
    """
    tol = resolve_tol(tol, *(v for p in image.points for v in p))
    mins = min_elements(image, cone, weak=False, tol=tol)
    if not mins:
        return False
    for a in image.points:
        if not any(ge(margin(mn, a, cone), 0, tol) for mn in mins):
            return False
    return True
