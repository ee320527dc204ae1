"""Problem instances: a finite list of labeled decisions, one image per
decision, an ordering cone, and an interior direction.

Includes JSON persistence (floats, or exact rationals written as
"p/q" strings), the sup-Hausdorff distance between instances over the
same decisions, covering-based discretization of finite-image
instances, and seeded generators for the worked examples and random
test families.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .arith import (Num, div, dot, format_vector, ge, is_exact,
                    parse_number, veq, vscale, vsub)
from .cone import Cone, validate_cone
from .errors import (DimMismatch, DuplicateLabel, EmptyImage, ParseError,
                     ValidationError)
from .imagesets import (FINITE, POLYTOPE, ImageSet, _coordinates, _target,
                        cover_by_sq_radius, finite_set, hausdorff_sq,
                        min_elements, point_margin_with_witness, polytope,
                        prune_to_extreme, strong_membership_slack)

EXAMPLE_NAMES = ("t_one", "strict_min", "cantor", "mfdvp", "mfdvp_polytope",
                 "random_finite", "convex_polyhedral")


@dataclass(frozen=True)
class Decision:
    label: str
    x: tuple


@dataclass(frozen=True, eq=True)
class Instance:
    cone: Cone
    decisions: tuple            # Decision, ...
    images: tuple               # ImageSet, ... parallel to decisions
    metadata: dict = field(default_factory=dict, hash=False)
    exact: bool = False
    # tol -> [point margins per image, pools (positions, points), set
    # margins, polytope strong slacks per image] and the points by position
    # with their int table (``_points``, ``_ints``), made on first use; the
    # fields they derive from are immutable, so none goes stale
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def n(self) -> int:
        return len(self.decisions[0].x)

    @property
    def m(self) -> int:
        return self.cone.m

    @property
    def labels(self) -> tuple:
        return tuple(d.label for d in self.decisions)

    def index_of(self, label: str) -> int:
        for i, d in enumerate(self.decisions):
            if d.label == label:
                return i
        raise ValidationError(f"unknown decision label {label!r}")

    def image_of(self, label: str) -> ImageSet:
        return self.images[self.index_of(label)]

    def _tables(self, tol):
        tables = self._memo.get(tol)
        if tables is None:
            tables = self._memo[tol] = [[{} for _ in self.images], {}, None,
                                        [{} for _ in self.images]]
        return tables

    @functools.cached_property
    def _first(self) -> tuple:
        """Where each image's points start in ``_points``, and the end."""
        return tuple(itertools.accumulate(
            (len(img.points) for img in self.images), initial=0))

    @functools.cached_property
    def _points(self) -> tuple:
        """Every point of every image by position, images in order."""
        return tuple(itertools.chain(*(img.points for img in self.images)))

    @functools.cached_property
    def _ints(self):
        """``(rows, den, coef, per, ideals)`` on rational data, else None:
        ``rows[g][j] / den = a_j.y / a_j.e`` in ints for the point at
        position ``g`` (``_coordinates``), each image's rows, and their
        least value per row (a polytope's ideal point)."""
        got = _coordinates(self._points, self.cone)
        per = got and [got[0][a:b] for a, b in zip(self._first,
                                                   self._first[1:])]
        return got and (*got, per, [tuple(map(min, zip(*r))) for r in per])

    def _bar(self, eps, tol):
        """``(eps * den, ceil, floor)`` on the int table at tol 0, or None."""
        if not tol and self._ints:
            shift = Fraction(eps) * self._ints[1]
            return shift, math.ceil(shift), math.floor(shift)

    def _bounds(self, j, q, bar):
        """``(lb, ub, lo, hi)`` in ints over ``d * den`` for the position or
        point ``q`` against polytope ``j``: the best vertex margin and the
        ideal point's, ``lb <= point_margin(q) <= ub`` (Gerth & Weidner,
        JOTA 67, 1990), and eps rounded up and down; None for a float point."""
        rows, den, coef, per, ideals = self._ints
        if not (isinstance(q, int) or all(map(is_exact, q))):
            return None
        z, d = (rows[q], 1) if isinstance(q, int) else _target(q, coef, den)
        gap = ((lambda w: min(map(operator.sub, z, w))) if d == 1 else
               (lambda w: min([a - d * b for a, b in zip(z, w)])))
        lo, hi = bar[1:] if d == 1 else (math.ceil(bar[0] * d),
                                         math.floor(bar[0] * d))
        return max(map(gap, per[j])), gap(ideals[j]), lo, hi

    def point_margin(self, j: int, point: tuple, tol):
        """``point_margin_with_witness`` of ``point`` against image ``j``,
        computed once per tol."""
        margins = self._tables(tol)[0][j]
        got = margins.get(point)  # one lookup: hashing Fractions is slow
        if got is None:
            got = margins[point] = point_margin_with_witness(
                point, self.images[j], self.cone, tol)
        return got

    def strong_slack(self, j: int, point: tuple, eps, tol):
        """``strong_membership_slack`` of ``point`` shifted by ``eps``
        against image ``j``: a polytope's computed once per tol, a finite
        image's scanned on each call (its witness is the first dominator
        in image order, which no stored quantity names)."""
        img = self.images[j]
        if img.is_finite:
            return strong_membership_slack(point, img, self.cone, tol, eps)
        slacks = self._tables(tol)[3][j]
        got = slacks.get((point, eps))
        if got is None:
            got = slacks[point, eps] = strong_membership_slack(
                point, img, self.cone, tol, eps)
        return got

    def _bits(self, j: int, targets, eps, tol, weak: bool) -> tuple:
        """``vectorizer._table``'s bitmasks of ``targets`` (positions or
        points) against polytope ``j``: those whose point margin is ``>
        eps`` (``weak``) or ``>= eps`` within tol, off its vertex bounds
        when both agree and else off the stored margin, and for the min
        kind those of them it strongly dominates (0 for the weak kind)."""
        bar, d, x = self._bar(eps, tol), 0, 0
        for i, q in enumerate(targets):
            b = bar and self._bounds(j, q, bar)
            cut = b and (b[3] + 1 if weak else b[2])  # a margin clears it
            if b and (b[0] >= cut) == (b[1] >= cut):
                hit = b[0] >= cut
            else:
                p = self._points[q] if isinstance(q, int) else q
                mu = self.point_margin(j, p, tol)[0]
                hit = mu > eps + tol if weak else mu >= eps - tol
            if hit:
                d |= 1 << i
                if not weak:
                    x |= self.strongly_dominates(j, q, eps, tol) << i
        return d, x

    def strongly_dominates(self, j: int, q, eps, tol) -> bool:
        """Whether ``point - eps*e`` lies in image ``j`` plus K minus the
        origin (``strong_slack(j, point, eps, tol)[0]``), for the point or
        position ``q``.  A finite image reads its stored point margin
        ``(mu, w)``: false when ``mu < eps`` within tol, true when ``w`` is
        not the shifted point (in exact arithmetic, when ``mu != eps``),
        and it scans only at that tie.  A polytope reads a stored strong
        slack, else at an exact eps its vertex bounds ``lb <= mu <= ub``,
        else its stored margin, and solves its program only at a tie (or
        at a float eps, which the program shifts by in floats)."""
        point = self._points[q] if isinstance(q, int) else q
        if not self.images[j].is_finite:
            got = self._tables(tol)[3][j].get((point, eps))
            bar = got is None and is_exact(eps) and self._bar(eps, tol)
            lb, ub, lo, hi = (bar and self._bounds(j, q, bar)
                              or (0,) * 4)  # no bounds: as at a tie
            if lb > hi or ub < lo:
                return lb > hi
            if not lb == lo == hi:  # lb < eps <= ub
                mu = self.point_margin(j, point, tol)[0]
                if mu != eps:
                    return mu > eps
            return (got or self.strong_slack(j, point, eps, tol))[0]
        mu, w = self.point_margin(j, point, tol)
        if not ge(mu, eps, tol):
            return False
        if tol == 0 and is_exact(mu):
            if mu != eps:
                return True
            eps = Fraction(eps)  # exact, as the kernel reads a float eps
        if not veq(w, vsub(point, vscale(eps, self.cone.e)), tol):
            return True
        return self.strong_slack(j, point, eps, tol)[0]

    def set_margins(self, tol) -> list:
        """``S[i][k] = set_margin(F(x_i), F(x_k))``, computed once per tol.
        Against an exact polytope, F(x_k)'s points go by increasing vertex
        bound ``lb`` until it reaches the least margin so far, and only
        those whose bounds differ solve a program."""
        tables = self._tables(tol)
        if tables[2] is None:
            k = range(len(self.images))
            tables[2] = [[self._set_margin(i, b, tol) for b in k] for i in k]
        return tables[2]

    def _set_margin(self, i, k, tol):
        points = self.images[k].points
        if self.images[i].is_finite or not (bar := self._bar(0, tol)):
            return min(self.point_margin(i, p, tol)[0] for p in points)
        low, den = math.inf, self._ints[1]  # low: times den
        bs = [self._bounds(i, g, bar) for g in range(*self._first[k:k + 2])]
        for (lb, ub, _, _), p in sorted(zip(bs, points),
                                        key=lambda bp: bp[0][0]):
            if lb >= low:
                break
            low = min(low, lb if lb == ub else
                      self.point_margin(i, p, tol)[0] * den)
        return Fraction(low, den)

    def pool(self, i: int, tol) -> tuple:
        """Minimal points of finite image ``i``, or a polytope's minimal
        vertices, once per tol; none (tol > 0) raises ``ValidationError``."""
        return self._pool(i, tol)[1]

    def _pool(self, i: int, tol) -> tuple:
        """``(positions, points)`` of ``pool(i, tol)``."""
        pools = self._tables(tol)[1]
        if i not in pools:
            img = self.images[i]
            if img.is_finite:  # min_elements returns objects of img.points
                pos = {id(p): t for t, p in enumerate(img.points)}
                at = [pos[id(p)] for p in min_elements(img, self.cone,
                                                       False, tol)]
            else:  # a vertex with another vertex K-below it is not minimal
                rows = self._bar(0, tol) and self._ints[3][i]
                at = [t for t, v in enumerate(img.points) if not (
                    rows and sum(min(map(operator.sub, rows[t], w)) >= 0
                                 for w in rows) > 1)
                      and not self.strong_slack(i, v, 0, tol)[0]]
            at = tuple(self._first[i] + t for t in at)
            pools[i] = at, tuple(map(self._points.__getitem__, at))
        if not pools[i][0]:
            raise ValidationError(f"decision {self.decisions[i].label!r} "
                                  f"has an empty candidate pool at tol {tol}")
        return pools[i]


def build_instance(cone: Cone, decisions, images, metadata=None,
                   exact: bool = False, tol=None) -> Instance:
    """Validate and canonicalize (polytope vertices pruned to extreme)."""
    decisions = tuple(Decision(str(d.label), tuple(d.x)) if isinstance(d, Decision)
                      else Decision(str(d[0]), tuple(d[1])) for d in decisions)
    images = tuple(images)
    if not decisions:
        raise ValidationError("an instance needs at least one decision")
    if len(images) != len(decisions):
        raise DimMismatch("images array must parallel the decisions array")
    labels = [d.label for d in decisions]
    if len(set(labels)) != len(labels):
        dup = next(l for l in labels if labels.count(l) > 1)
        raise DuplicateLabel(f"decision label {dup!r} appears twice")
    n = len(decisions[0].x)
    for d in decisions:
        if len(d.x) != n:
            raise DimMismatch(f"decision {d.label!r} has dimension {len(d.x)}, expected {n}")
    canon = []
    for d, img in zip(decisions, images):
        if img.m != cone.m:
            raise DimMismatch(
                f"image of {d.label!r} has dimension {img.m}, cone expects {cone.m}")
        if img.kind == POLYTOPE:
            img = polytope(prune_to_extreme(img.points, tol))
        canon.append(img)
    return Instance(cone=cone, decisions=decisions, images=tuple(canon),
                    metadata=dict(metadata or {}), exact=exact)


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------

def to_json_dict(inst: Instance) -> dict:
    return {
        "cone": {
            "rows": [format_vector(r) for r in inst.cone.rows],
            "e": format_vector(inst.cone.e),
        },
        "decisions": [{"label": d.label, "x": format_vector(d.x)}
                      for d in inst.decisions],
        "images": [{"type": img.kind,
                    "points": [format_vector(p) for p in img.points]}
                   for img in inst.images],
        "metadata": inst.metadata,
    }


def save(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


def from_json_dict(data: dict, exact: bool = False, tol=None) -> Instance:
    def num(v, where):
        try:
            return parse_number(v, exact)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from exc

    def vec(values, where):
        if not isinstance(values, list):
            raise ParseError(f"{where}: expected a list of numbers")
        return tuple(num(v, f"{where}[{i}]") for i, v in enumerate(values))

    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    for key in ("cone", "decisions", "images"):
        if key not in data:
            raise ParseError(f"missing required field {key!r}")
    cone_data = data["cone"]
    if not isinstance(cone_data, dict) or "rows" not in cone_data or "e" not in cone_data:
        raise ParseError("cone must be an object with 'rows' and 'e'")
    for where, value in (("cone.rows", cone_data["rows"]),
                         ("decisions", data["decisions"]),
                         ("images", data["images"])):
        if not isinstance(value, list):
            raise ParseError(f"{where}: expected a list")
    rows = [vec(r, f"cone.rows[{j}]") for j, r in enumerate(cone_data["rows"])]
    e = vec(cone_data["e"], "cone.e")
    cone = validate_cone(rows, e, tol)

    decisions = []
    for i, d in enumerate(data["decisions"]):
        if not isinstance(d, dict) or "label" not in d or "x" not in d:
            raise ParseError(f"decisions[{i}] must have 'label' and 'x'")
        decisions.append(Decision(str(d["label"]), vec(d["x"], f"decisions[{i}].x")))

    images = []
    for i, im in enumerate(data["images"]):
        if not isinstance(im, dict) or im.get("type") not in (FINITE, POLYTOPE):
            raise ParseError(f"images[{i}].type must be 'finite' or 'polytope'")
        pts = im.get("points")
        if not isinstance(pts, list) or not pts:
            raise EmptyImage(f"images[{i}] has no points")
        points = [vec(p, f"images[{i}].points[{j}]") for j, p in enumerate(pts)]
        images.append((finite_set if im["type"] == FINITE else polytope)(points))

    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("metadata must be an object")
    return build_instance(cone, decisions, images, metadata, exact, tol)


def load(path, exact: bool = False, tol=None) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}") from exc
    return from_json_dict(data, exact, tol)


# ---------------------------------------------------------------------------
# Distances and discretization
# ---------------------------------------------------------------------------

def instance_distance_sq(i1: Instance, i2: Instance) -> Num:
    if i1.decisions != i2.decisions:
        raise ValidationError("instances must share the same decision list")
    return max(hausdorff_sq(a, b) for a, b in zip(i1.images, i2.images))


def instance_distance(i1: Instance, i2: Instance) -> float:
    """Sup over decisions of the Hausdorff distance between paired images."""
    return math.sqrt(float(instance_distance_sq(i1, i2)))


def discretize_map(inst: Instance, eps: Num, tol=None) -> Instance:
    """Replace every finite image by its internal eps-cover centers.

    The result's images are subsets of the originals and the instance
    distance to the original is at most eps.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    new_images = []
    for img in inst.images:
        if not img.is_finite:
            raise ValidationError("discretize_map expects finite images")
        result = cover_by_sq_radius(img.points, eps * eps, tol=tol)
        new_images.append(finite_set(result.centers))
    meta = dict(inst.metadata)
    meta["discretization_eps"] = str(eps)
    return build_instance(inst.cone, inst.decisions, new_images, meta,
                          inst.exact, tol)


# ---------------------------------------------------------------------------
# Example generators
# ---------------------------------------------------------------------------

def _cast(value: Fraction, exact: bool) -> Num:
    return value if exact else float(value)

def _cast_vec(vec, exact: bool) -> tuple:
    return tuple(_cast(v, exact) for v in vec)


def _grid(lo: Fraction, hi: Fraction, count: int) -> list:
    if count < 1:
        raise ValidationError("grid size must be at least 1")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _orthant(exact: bool) -> Cone:
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    return validate_cone([[one, zero], [zero, one]], [one, one])


def make_example(name: str, params: Optional[dict] = None, *,
                 exact: bool = False, tol=None) -> Instance:
    """Build one of the shipped instance families by name.

    Names: ``t_one`` (polytope fan over a grid), ``strict_min``
    (singleton images drifting in one coordinate), ``cantor``
    (truncated piecewise-constant family with a nested limit image),
    ``mfdvp`` / ``mfdvp_polytope`` (three decisions defeating exact
    vectorization of type-two solutions at every budget),
    ``random_finite`` and ``convex_polyhedral`` (seeded generators).
    """
    params = dict(params or {})
    if name not in EXAMPLE_NAMES:
        raise ValidationError(f"unknown example name {name!r}")
    builder = {
        "t_one": _make_t_one,
        "strict_min": _make_strict_min,
        "cantor": _make_cantor,
        "mfdvp": _make_mfdvp,
        "mfdvp_polytope": functools.partial(_make_mfdvp, image=polytope),
        "random_finite": _make_random_finite,
        "convex_polyhedral": _make_convex_polyhedral,
    }[name]
    inst = builder(params, exact, tol)
    inst.metadata.update({"generator": name,
                          "params": {k: str(v) for k, v in params.items()}})
    return inst


def _make_t_one(params, exact, tol):
    g = int(params.get("g", 9))
    xs = _grid(Fraction(1, 4), Fraction(1, 2), g)
    cone = _orthant(exact)
    decisions, images = [], []
    for x in xs:
        decisions.append(Decision(str(x), (_cast(x, exact),)))
        verts = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (x, x)]
        images.append(polytope([_cast_vec(v, exact) for v in verts]))
    return build_instance(cone, decisions, images, {}, exact, tol)


def _make_strict_min(params, exact, tol):
    g = int(params.get("g", 5))
    xs = _grid(Fraction(0), Fraction(1), g)
    cone = _orthant(exact)
    decisions, images = [], []
    for x in xs:
        decisions.append(Decision(str(x), (_cast(x, exact),)))
        images.append(finite_set([_cast_vec((Fraction(0), x), exact)]))
    return build_instance(cone, decisions, images, {}, exact, tol)


def _cantor_base(i: int) -> tuple:
    y0 = (Fraction(5, 2), Fraction(-5, 2))
    if i == 0:
        return y0
    p = Fraction(1, 2 ** i)
    off = (1 + p + p / 2, 1 - 2 * p - p - p / 2)
    return (y0[0] + off[0], y0[1] + off[1])


def cantor_point(i: int, k: int) -> tuple:
    """Point i of the image shared by the k-th grid cell (0 <= i <= k)."""
    if not 0 <= i <= k:
        raise ValidationError("need 0 <= i <= k")
    base = _cantor_base(i)
    s = Fraction(1, 2 ** i) - Fraction(1, 2 ** k)  # sum of 2^-s for s in (i, k]
    return (base[0] + s, base[1] + s)


def cantor_limit_point(i: int) -> tuple:
    base = _cantor_base(i)
    p = Fraction(1, 2 ** i)
    return (base[0] + p, base[1] + p)


def _make_cantor(params, exact, tol):
    T = int(params.get("T", 6))
    N = int(params.get("N", 8))
    if T < 1:
        raise ValidationError("cantor needs T >= 1")
    if N < T:
        raise ValidationError("cantor needs N >= T")
    cone = _orthant(exact)
    decisions, images = [], []
    for t in range(1, T + 1):
        x = Fraction(t - 1, t)
        decisions.append(Decision(str(x), (_cast(x, exact),)))
        pts = [cantor_point(i, t - 1) for i in range(t)]
        images.append(finite_set([_cast_vec(p, exact) for p in pts]))
    decisions.append(Decision("1", (_cast(Fraction(1), exact),)))
    images.append(finite_set([_cast_vec(cantor_limit_point(i), exact)
                              for i in range(N + 1)]))
    return build_instance(cone, decisions, images, {}, exact, tol)


_MFDVP_IMAGES = {
    "0": [(2, 0), (0, 2)],
    "1": [(1, -1), (0, 2)],
    "2": [(2, 0), (-1, 1)],
}


def _make_mfdvp(params, exact, tol, image=finite_set):
    cone = _orthant(exact)
    decisions, images = [], []
    for lab, pts in _MFDVP_IMAGES.items():
        decisions.append(Decision(lab, (_cast(Fraction(int(lab)), exact),)))
        images.append(image(
            [_cast_vec((Fraction(a), Fraction(b)), exact) for a, b in pts]))
    return build_instance(cone, decisions, images, {}, exact, tol)


def _make_random_finite(params, exact, tol):
    seed = int(params.get("seed", 0))
    count = int(params.get("count", 6))
    s_max = int(params.get("s_max", 4))
    bound = int(params.get("bound", 5))
    if count < 1 or s_max < 1:
        raise ValidationError("random_finite needs count >= 1 and s_max >= 1")
    rng = random.Random(seed)
    cone = _orthant(exact)
    decisions, images = [], []
    for i in range(count):
        decisions.append(Decision(str(i), (_cast(Fraction(i), exact),)))
        size = rng.randint(1, s_max)
        pts = [(Fraction(rng.randint(-bound, bound)),
                Fraction(rng.randint(-bound, bound))) for _ in range(size)]
        images.append(finite_set([_cast_vec(p, exact) for p in pts]))
    return build_instance(cone, decisions, images, {}, exact, tol)


def halfplane_vertices(rows, rhs, tol=0):
    """Extreme points of {y in R^2 : rows . y <= rhs} (must be bounded).

    Enumerates intersections of constraint pairs and keeps the feasible
    ones; in two dimensions every such point is a vertex.
    """
    n = len(rows)
    cands = []
    for i in range(n):
        (a1, b1), r1 = rows[i], rhs[i]
        for j in range(i + 1, n):
            (a2, b2), r2 = rows[j], rhs[j]
            det = a1 * b2 - b1 * a2
            if abs(det) <= tol:
                continue
            y = (div(r1 * b2 - b1 * r2, det), div(a1 * r2 - r1 * a2, det))
            if all(rows[k][0] * y[0] + rows[k][1] * y[1] <= rhs[k] + tol
                   for k in range(n)):
                if y not in cands:
                    cands.append(y)
    return tuple(sorted(cands))


def _make_convex_polyhedral(params, exact, tol):
    seed = int(params.get("seed", 0))
    g = int(params.get("g", 5))
    n = int(params.get("n", 1))
    extra = int(params.get("extra_rows", 4))
    box = Fraction(int(params.get("box", 8)))
    if n not in (1, 2):
        raise ValidationError("convex_polyhedral supports n = 1 or 2")
    rng = random.Random(seed)
    cone = _orthant(exact)

    # graph {(x, y) : E x + C y <= h}; the anchor point sits inside every
    # slice, which keeps values nonempty, and box rows keep them compact
    anchor = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
    c_rows = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
              (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))]
    e_rows = [tuple(Fraction(0) for _ in range(n)) for _ in c_rows]
    h = [box + abs(anchor[0]), box + abs(anchor[0]),
         box + abs(anchor[1]), box + abs(anchor[1])]
    for _ in range(extra):
        c = (0, 0)
        while c == (0, 0):
            c = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        ev = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        slack = Fraction(rng.randint(1, 3))
        # x ranges over [0, 1]^n, so the max of ev.x is the positive part sum
        max_ex = sum(max(v, Fraction(0)) for v in ev)
        c_rows.append(c)
        e_rows.append(ev)
        h.append(max_ex + c[0] * anchor[0] + c[1] * anchor[1] + slack)

    decisions, images = [], []
    for xv in itertools.product(_grid(Fraction(0), Fraction(1), g), repeat=n):
        rhs = [h[k] - dot(e_rows[k], xv) for k in range(len(c_rows))]
        verts = halfplane_vertices(c_rows, rhs, 0)
        if not verts:
            continue  # degenerate slice; callers treat skips as reported gaps
        lab = ";".join(map(str, xv))
        decisions.append(Decision(lab, _cast_vec(xv, exact)))
        images.append(polytope([_cast_vec(v, exact) for v in verts]))
    if not decisions:
        raise ValidationError("degenerate polyhedral instance: all slices empty")
    return build_instance(cone, decisions, images, {}, exact, tol)
