"""Image sets: finite point lists and polytopes given by vertices.

Operations on the values of a set-valued objective: minimal and weakly
minimal elements, point margins with their witnesses, the points that
dominate a shifted point, Hausdorff distance, internal covering
numbers, extreme-point pruning, and the domination (external
stability) check.

At tol 0 every number (cone via ``Cone.rational``, points, targets,
eps) is read exactly; a positive tol compares true values within tol.
A finite image's margins to one target come from one kernel,
``_Margins``: at tol 0 ints over one denominator, from the cone
coordinates ``a_j.y / a_j.e`` the image keeps as int rows, otherwise
``cone.margin`` values.  A target, like each of those rows, costs one
int conversion with no ``Fraction`` arithmetic (``_target``): scaled to
ints over its least common denominator, dotted with the cone's rows
``a_j / a_j.e`` kept as ints over one denominator, and reduced by one
gcd.  A polytope keeps the cone products ``a_j.v`` of its vertices, and
builds each of its two linear programs, the point margin and the strong
slack, on its first solve (``lp``); a target changes only their
right-hand side ``-A.t``.  ``Instance`` asks them only about its own
points, read by position, and at tol 0 reads every competitor's table
bits and strong bits off its own int rows: a finite image's best row
margin is the point margin, a polytope's lies between it and the ideal
point's (Gerth & Weidner, JOTA 67, 1990), so a program is solved, or a
finite image scanned, only at a tie, where the bounds leave a verdict
open, or for a certificate.  An image keeps this data for the last cone
and arithmetic asked.  Extreme-point pruning sweeps the hull (Andrew's
monotone chain) for planar vertex lists at tol 0 and solves one linear
program per vertex otherwise.  ``question_tol`` resolves every
question's default tolerance, over its cone, its images and its own
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import mul, sub

from .arith import (Num, Vec, ceil_floor, check_number, dist_sq, dot, gt,
                    ints_over, lcd, num_finite, resolve_tol, veq, vscale,
                    vsub)
from .cone import Cone, margin
from .errors import DimMismatch, EmptyImage, ValidationError
from .lp import LinearProgram, lp_feasible, lp_maximize

FINITE = "finite"
POLYTOPE = "polytope"


@dataclass(frozen=True)
class ImageSet:
    kind: str                 # "finite" or "polytope"
    points: tuple             # points, or polytope vertices
    # (cone, _cone_products data) for the last cone and arithmetic
    # asked, set on first use; a class-level default, so an image never
    # asked carries nothing.  Points never change, so the data stays
    # valid while the cone is the same object.
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


def question_tol(tol, cone: Cone, images, *numbers) -> Num:
    """``tol``, else 0 when every entry of ``cone``, of ``images`` and of
    the question's own ``numbers`` is rational, else ``DEFAULT_TOL``."""
    if tol is not None:
        return resolve_tol(tol)
    return resolve_tol(None, *cone.e, *chain(*cone.rows), *numbers,
                       *(v for img in images for p in img.points for v in p))


def finite_set(points) -> ImageSet:
    return ImageSet(FINITE, _checked(points))


def polytope(vertices) -> ImageSet:
    return ImageSet(POLYTOPE, _checked(vertices))


class _Margins:
    """The margin kernel of finite images: for a target point ``q``,
    ``margins`` yields ``margin(y, q)`` for each point ``y``, lazily and
    in image order; ``positions`` are the points' positions and ``t``
    that of ``q``.  At a resolved tol of 0 every number is read exactly:
    a position is an int row of cone coordinates over ``den`` (``d``
    times the image's), equal only for equal points as A has full column
    rank, and a margin the int ``min_j t_j - w_j``.  At a positive tol
    positions are the points, margins ``cone.margin`` values and ``den``
    None."""

    def __init__(self, image: ImageSet, cone: Cone, q: Vec, tol):
        self.tol, self.e, self.den = tol, cone.e, None
        if tol:
            self.t, self.positions = q, image.points
            self.margins = (margin(y, q, cone) for y in image.points)
            return
        rows, den, coef = _cone_products(image, cone.rational)
        t, d = _target(q, coef, den)  # an own point's row, with d == 1
        self.den, self.t = den * d, t
        self.positions = rows if d == 1 else (  # each scaled when read
            tuple([d * v for v in w]) for w in rows)
        self.margins = ((min(map(sub, t, w)) for w in rows) if d == 1 else
                        (min([a - d * b for a, b in zip(t, w)]) for w in rows))

    def bars(self, eps, distinct=False):
        """``(lo, hi, at_peak)``: a margin is ``>= eps`` within tol iff
        ``>= lo`` and ``> eps`` within tol iff ``> hi`` (over ints, once
        per call, ``ceil`` and ``floor`` of ``eps * den``); with
        ``distinct``, ``at_peak(w)`` tells whether ``w`` is the position
        of ``q - eps*e`` (None when no int row can be)."""
        if self.den is None:
            peak = vsub(self.t, vscale(eps, self.e)) if distinct else None
            return (eps - self.tol, eps + self.tol,
                    peak and (lambda w: veq(w, peak, self.tol)))
        lo, hi = ceil_floor(eps, self.den)
        return lo, hi, (tuple([v - lo for v in self.t]).__eq__
                        if distinct and lo == hi else None)

    def value(self, m) -> Num:
        return m if self.den is None else Fraction(m, self.den)


def min_elements(image: ImageSet, cone: Cone, weak: bool = False,
                 tol=None) -> tuple:
    """Minimal (or, with ``weak=True``, weakly minimal) points of a finite set.

    A point survives when no distinct point dominates it through
    K minus the origin (interior of K for the weak variant).
    """
    if not image.is_finite:
        raise ValidationError("min_elements is defined for finite images only")
    tol = question_tol(tol, cone, (image,))
    index = dict.fromkeys(image.points)  # each distinct point, in order
    if weak:
        return tuple(p for p in index
                     if not any(dominators(image, cone, p, 0, tol, True)))
    # the points within tol below each distinct point, one scan each
    below = {p: list(dominators(image, cone, p, 0, tol)) for p in index}
    # within tol of each other, p and q each lie below the other, so p
    # drops only below a q it does not lie under in turn (at tol 0 any
    # distinct q below p, as K is pointed); a q strictly below p never
    # has p below it, since margin(p, q) <= -margin(q, p)
    return tuple(p for p in index
                 if all(q == p or p in below[q] for q in below[p]))


def point_margin(b: Vec, image: ImageSet, cone: Cone, tol=None) -> Num:
    """Largest eps with ``b - eps*e`` inside ``image + K``.

    Finite images reduce to a max of margins; polytopes solve a small
    LP over convex multipliers.  Returns ``-inf`` only if the LP is
    numerically degenerate (impossible for finite images).
    """
    return point_margin_with_multipliers(b, image, cone, tol)[0]


def point_margin_with_multipliers(b: Vec, image: ImageSet, cone: Cone,
                                  tol=None):
    """As ``point_margin`` but also returns the convex multipliers
    (``None`` for finite images, where the witness is the argmax point)."""
    mu, witness = point_margin_with_witness(b, image, cone, tol)
    return mu, None if image.is_finite else witness


def point_margin_with_witness(b: Vec, image: ImageSet, cone: Cone,
                              tol=None):
    """``(point_margin, witness)``: for a finite image the first point
    attaining the margin, for a polytope the convex multipliers of the
    margin program (None when it is degenerate)."""
    if len(b) != cone.m:
        raise DimMismatch("point dimension differs from cone dimension")
    tol = question_tol(tol, cone, (image,), *b)
    if image.is_finite:
        scan = _Margins(image, cone, b, tol)
        ms = list(scan.margins)
        best = max(ms)
        return scan.value(best), image.points[ms.index(best)]
    prog, rows, ints = _program(image, cone, False, tol)
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
    tol = question_tol(tol, cone, (image,), eps, *target)
    if image.is_finite:
        a = next(dominators(image, cone, target, eps, tol, distinct=True),
                 None)
        return (False, None, None) if a is None else (True, a, None)
    if not tol:  # the shifted target read exactly
        cone, eps = cone.rational, Fraction(eps)
        target = tuple(map(Fraction, target))
    target = vsub(target, vscale(eps, cone.e))
    prog, rows, ints = _program(image, cone, True, tol)
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
    ``strict``), and ``y != q - eps*e`` when ``distinct``, each within
    ``tol``, a resolved one."""
    scan = _Margins(image, cone, q, tol)
    lo, hi, at_peak = scan.bars(eps, distinct)
    return (y for y, m, w in zip(image.points, scan.margins, scan.positions)
            if (m > hi if strict else m >= lo)
            and not (at_peak and at_peak(w)))


def _cone_products(image: ImageSet, cone: Cone, exact: bool = True):
    """A polytope's ``[rows, ints, slack_rows, objective, margin, slack]``:
    the rows ``a_1, ..., a_J, sum_j a_j``, when ``exact`` those as ints
    (else None), ``-r.v`` for each row ``r`` and vertex ``v``, and the
    slots of the programs ``_program`` builds.  A finite image's ``(rows,
    den, coef)``, always exact: ``rows[i][j] / den = a_j.y_i / a_j.e`` in
    ints, each row converted by ``_target``, and ``coef = (crows, c)``
    with ``crows[j] / c = a_j / a_j.e`` in ints.  ``exact`` asks for a
    rational cone.  Kept for the cone and the arithmetic last asked."""
    kept = image._products
    if kept is None or kept[0] is not cone or (kept[1][1] is None) == exact:
        kept = (cone, _coordinates(image.points, cone) if image.is_finite
                else _products(image.points, cone, exact))
        object.__setattr__(image, "_products", kept)  # frozen dataclass
    return kept[1]


def _products(verts, cone, exact) -> list:
    rows = (*cone.rows, tuple(sum(col) for col in zip(*cone.rows)))
    # each row as (ints, den), row = ints / den
    ints = ([(ints_over(r, den), den) for r in rows for den in [lcd(r)]]
            if exact else None)
    *slack_rows, objective = zip(*(_neg_dots(rows, ints, v) for v in verts))
    return [rows, ints, tuple(slack_rows), objective, None, None]


def _program(image: ImageSet, cone: Cone, slack: bool, tol):
    """``(program, rows, ints)``: the polytope's strong-slack program
    (else its point-margin program) for the target 0, whose right-hand
    side ``-A.t`` is all a target changes, built on its first solve."""
    cone = cone if tol else cone.rational  # at tol 0, read exactly
    kept = _cone_products(image, cone, not tol)
    if kept[4 + slack] is None:
        k, free = len(image.points), () if slack else (None,)  # eps free
        # margin: max eps  s.t.  sum(lam) = 1,  A(b - eps*e - V lam) >= 0,
        # lam >= 0;  slack: max sum_j a_j.(t - V lam) - total.t  s.t.
        # sum(lam) = 1,  A(t - V lam) >= 0,  lam >= 0
        kept[4 + slack] = LinearProgram(
            objective=kept[3] if slack else (1,) + (0,) * k,
            eq_lhs=((0,) * len(free) + (1,) * k,), eq_rhs=(1,),
            ge_lhs=kept[2] if slack else tuple(
                (-de,) + r for de, r in zip(cone.row_e, kept[2])),
            ge_rhs=(0,) * len(cone.rows), lower_bounds=free + (0,) * k)
    return kept[4 + slack], kept[0], kept[1]


def _neg_dots(rows, ints, v) -> tuple:
    """``-r.v`` for each of ``rows``: with ``ints`` (the rows as ints
    over their denominators) over ints, ``v`` read exactly, one
    ``Fraction`` per row; otherwise by ``dot``."""
    if ints is None:
        return tuple(-dot(r, v) for r in rows)
    d = lcd(v)
    z = ints_over(v, d)
    return tuple(Fraction(-sum([a * b for a, b in zip(r, z)]), den * d)
                 for r, den in ints)


def _coordinates(points, cone):
    """A finite image's ``_cone_products``, every number read exactly."""
    # a_j / a_j.e as ints over one denominator c, formed with the rows
    ratios = [[Fraction(a) / de for a in row]
              for row, de in zip(cone.rows, cone.row_e)]
    c = lcd(chain(*ratios))
    coef = tuple(ints_over(r, c) for r in ratios), c
    zs = [_target(p, coef, 1) for p in points]
    den = math.lcm(*[d for _, d in zs])
    return tuple(tuple([v * (den // d) for v in z]) for z, d in zs), den, coef


def _target(point, coef, den):
    """``(ints, d)``: the cone coordinates of a point, read exactly, times
    ``den``, as ints over the least positive ``d``.  With ``coef =
    (rows, c)``, the point scaled to ints ``z`` over ``lcd(point)``
    gives ``den * rows[j].z / (c * lcd(point))``, reduced by one gcd."""
    rows, c = coef
    over = lcd(point)
    z = ints_over(point, over)
    n = [den * sum(map(mul, r, z)) for r in rows]
    d = c * over
    g = math.gcd(d, *n)
    return tuple([v // g for v in n]), d // g


def minimal_vertices(image: ImageSet, cone: Cone, tol=None) -> tuple:
    """Vertices not dominated (through K minus the origin) by any point
    of their own polytope."""
    if image.is_finite:
        raise ValidationError("minimal_vertices expects a polytope image")
    return tuple(v for v in image.points
                 if not strong_membership_slack(v, image, cone, tol)[0])


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
    check_number(eps, positive=True)
    return cover_by_sq_radius(image.points, eps * eps, exact_cap, tol)


def cover_by_sq_radius(points, radius_sq: Num, exact_cap: int = EXACT_COVER_CAP,
                       tol=None) -> CoveringResult:
    check_number(radius_sq, "radius_sq")
    tol = resolve_tol(tol, *(v for p in points for v in p), radius_sq)
    pts = list(dict.fromkeys(tuple(p) for p in points))
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
    uncovered, chosen = set(range(n)), []
    while uncovered:  # the first center of largest gain
        best = max(range(n), key=lambda i: len(cover[i] & uncovered))
        chosen.append(best)
        uncovered -= cover[best]
    return chosen


def _exact_cover(cover, n, incumbent):
    """Branch-and-bound minimum set cover; branches on the element with
    the fewest candidate centers."""
    best = list(incumbent)
    covers = [[i for i in range(n) if elem in cover[i]] for elem in range(n)]

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
        elem = min(uncovered, key=lambda u: (len(covers[u]), u))
        for i in covers[elem]:
            search(uncovered - cover[i], chosen + [i])

    search(frozenset(range(n)), [])
    return best


def prune_to_extreme(vertices, tol=None) -> tuple:
    """Drop duplicates and every point expressible as a convex
    combination of the others (idempotent), keeping the input order."""
    pts = [tuple(p) for p in vertices]
    if not pts:
        raise EmptyImage("vertex list must be nonempty")
    coords = [v for p in pts for v in p]
    tol = resolve_tol(tol, *coords)
    if tol == 0 and len(pts[0]) == 2:
        return _planar_extreme(pts)
    pts = list(dict.fromkeys(pts))
    if len(pts) == 1:
        return tuple(pts)
    kept = []
    for idx, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != idx]
        if not _in_hull(p, others, tol):
            kept.append(p)
    return tuple(kept)


def _planar_extreme(pts) -> tuple:
    """The vertices of the hull of planar points, each once, in input
    order: Andrew's monotone chain on the points as exact ints over their
    common denominator, dropping repeats and collinear points."""
    den, first = lcd(chain(*pts)), {}
    for p in pts:  # each distinct point as ints, at its first occurrence
        first.setdefault(ints_over(p, den), p)
    order = sorted(first)

    def sweep(seq):
        out = []
        for cx, cy in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0:
                    break
                out.pop()
            out.append((cx, cy))
        return out[:-1]

    hull = set(sweep(order) + sweep(order[::-1])) or set(order)  # or one
    return tuple(p for z, p in first.items() if z in hull)


def _in_hull(p, others, tol) -> bool:
    k = len(others)  # sum(lam) = 1 and V lam = p, lam >= 0
    prog = LinearProgram(objective=(0,) * k, eq_lhs=((1,) * k, *zip(*others)),
                         eq_rhs=(1, *p), lower_bounds=(0,) * k)
    return lp_feasible(prog, tol=tol).feasible


def domination_check(image: ImageSet, cone: Cone, tol=None) -> bool:
    """External stability: minimal elements exist and dominate the set.

    Must hold for every nonempty finite image under a pointed closed
    convex cone; exposed as a test oracle.
    """
    tol = question_tol(tol, cone, (image,))
    mins = set(min_elements(image, cone, weak=False, tol=tol))
    return bool(mins) and all(
        any(y in mins for y in dominators(image, cone, a, 0, tol))
        for a in image.points)
