"""Projected solution sets of the vectorized multiobjective problems.

Attaching a budget ``p`` of slack vectors ``y^1..y^p in F(x)`` to each
decision turns the set problem into a family of multiobjective
problems ordered by the product cone.  Decision membership reduces to
combinatorics over a candidate pool of minimal image points: one
table per decision, shift and tolerance holds each competitor's
bitmask of the pool points it dominates, and one search over it
answers membership at budget p (limited to p points) and the smallest
sufficient budget (unlimited).

* Weak kind: a tuple survives a competitor exactly when some component
  escapes the competitor's strictly-dominated region, so the search is
  a hitting-set question over the complements of the bitmasks (one
  per competitor), solved exactly by branch and bound.

* Min kind: a competitor dominates a tuple when every component is
  weakly dominated at the shift and at least one strictly so (with a
  witness distinct from the shifted component, a second bitmask); the
  predicate is not monotone in the tuple's value set, so a pruned
  depth-first search meets the subsets by increasing size, in
  lexicographic order.

Both searches refuse a question only when their node budget is spent.

Pools are the minimal elements of finite images (exact at every
budget, any shift: replacing a tuple entry by a minimal point below it
preserves survival) and the minimal vertices of polytope images (exact
once the budget reaches the pool size; below that the verdict is sound
but flagged incomplete).  Every competitor reads a pool by position
(``Instance._bits``), off the stored point margins, except that an
exact polytope's vertex bounds settle most bits with no program; the
min kind's distinct-witness bit comes from
``Instance.strongly_dominates``, which scans a finite image only at a
tie with the shifted point, and a certificate's witness from
``imagesets.dominators``, which at tol 0 compares integer cone
coordinates.  ``brute_force_vp`` re-derives membership from the raw
definitions over full images, on a table of its own, as the oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .arith import Num, div, format_number, format_vector, ge, gt, veq, \
    vscale, vsub
from .cone import DEFAULT_GAMMA, in_dual_cone, margin, r_epsilon_sq
from .errors import CapExceeded, ValidationError, WeightNotInDualCone
from .imagesets import cover_by_sq_radius, dominators, question_tol
from .instance import Instance
from .solver_direct import WEAK as DIRECT_WEAK
from .solver_direct import solve_direct

VP_WEAK = "weak"
VP_MIN = "min"
VP_KINDS = (VP_WEAK, VP_MIN)

HITTING_CAP = 200_000
SUBSET_CAP = 2_000_000
TUPLE_CAP = 2_000_000


@dataclass(frozen=True)
class PoolResult:
    points: tuple
    complete: bool


@dataclass(frozen=True)
class ComponentWitness:
    point: Optional[tuple] = None
    multipliers: Optional[tuple] = None

    def to_json_dict(self) -> dict:
        return {
            "point": None if self.point is None else format_vector(self.point),
            "multipliers": (None if self.multipliers is None
                            else format_vector(self.multipliers)),
        }


@dataclass
class TupleCertificate:
    label: str
    tuple_points: tuple
    member: bool
    surviving: Optional[dict] = None       # competitor label -> component idx
    dominated_by: Optional[str] = None
    witnesses: Optional[tuple] = None      # ComponentWitness per component
    strict_component: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "member": self.member,
            "tuple": [format_vector(pt) for pt in self.tuple_points],
            "surviving": self.surviving,
            "dominated_by": self.dominated_by,
            "witnesses": (None if self.witnesses is None
                          else [w.to_json_dict() for w in self.witnesses]),
            "strict_component": self.strict_component,
        }


@dataclass
class VpReport:
    kind: str
    p: int
    epsilon: Num
    members: tuple
    certificates: dict = field(default_factory=dict)
    incomplete: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.p,
            "epsilon": format_number(self.epsilon),
            "members": list(self.members),
            "incomplete": list(self.incomplete),
            "certificates": [self.certificates[lab].to_json_dict()
                             for lab in sorted(self.certificates)],
        }


@dataclass
class MinimalPResult:
    label: str
    kind: str
    epsilon: Num
    never: bool
    p_star: Optional[int] = None
    witness: Optional[TupleCertificate] = None
    reason: Optional[str] = None   # never: a competitor defeating every tuple
    incomplete: bool = False

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "epsilon": format_number(self.epsilon),
            "never": self.never,
            "p_star": self.p_star,
            "reason": self.reason,
            "incomplete": self.incomplete,
            "witness": (None if self.witness is None
                        else self.witness.to_json_dict()),
        }


def candidate_pool(inst: Instance, label: str, p: Optional[int] = None,
                   tol=None) -> PoolResult:
    """Minimal points (finite image) or minimal vertices (polytope).

    Finite pools certify membership at every budget; polytope pools
    are complete only once the budget reaches the pool size.
    """
    idx = inst.index_of(label)
    pool = inst.pool(idx, question_tol(tol, inst.cone, inst.images))
    complete = inst.images[idx].is_finite or (p is not None and p >= len(pool))
    return PoolResult(pool, complete)


# ---------------------------------------------------------------------------
# Minimum hitting set (exact branch and bound)
# ---------------------------------------------------------------------------

def min_hitting_set(sets, limit: Optional[int] = None):
    """Minimum-cardinality hitting set of a family of nonempty sets.

    With ``limit`` given, returns some hitting set of size <= limit or
    ``None`` when the minimum exceeds it.  Greedy warm start, branching
    on the smallest unhit set, lower bound from disjoint-set packing;
    ``CapExceeded`` once the search has visited ``HITTING_CAP`` nodes.
    """
    sets = [frozenset(s) for s in sets]
    if any(not s for s in sets):
        raise ValidationError("hitting set family must not contain empty sets")
    if not sets:
        return []

    uniq = []
    for s in sorted(set(sets), key=lambda s: (len(s), sorted(s))):
        if not any(t <= s for t in uniq):
            uniq.append(s)

    remaining = list(uniq)
    greedy = []
    while remaining:
        counts = {}
        for s in remaining:
            for e in s:
                counts[e] = counts.get(e, 0) + 1
        pick = min(counts, key=lambda e: (-counts[e], e))
        greedy.append(pick)
        remaining = [s for s in remaining if pick not in s]

    best = sorted(greedy)
    best_len = len(best)
    if limit is not None and limit + 1 < best_len:
        best, best_len = None, limit + 1

    def packing_bound(rem):
        used = set()
        count = 0
        for s in rem:
            if not (s & used):
                count += 1
                used |= s
        return count

    nodes = 0

    def search(rem, partial):
        nonlocal best, best_len, nodes
        nodes += 1
        if nodes > HITTING_CAP:
            raise CapExceeded(
                f"hitting-set search exceeds cap of {HITTING_CAP} nodes")
        if not rem:
            if len(partial) < best_len:
                best, best_len = sorted(partial), len(partial)
            return
        if len(partial) + packing_bound(rem) >= best_len:
            return
        target = min(rem, key=lambda s: (len(s), sorted(s)))
        for e in sorted(target):
            search([s for s in rem if e not in s], partial + [e])

    search(uniq, [])
    if best is not None and (limit is None or len(best) <= limit):
        return best
    return None


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def _witness(inst, j, g, eps, tol, strict=False,
             distinct=False) -> ComponentWitness:
    """Image j's evidence that it dominates the point at position ``g`` at
    the shift: a finite image's first dominating point, a polytope's
    margin multipliers, or with ``distinct`` the strong-slack witness
    other than the shifted point."""
    img = inst.images[j]
    if distinct:
        holds, point, lam = inst.strong_slack(j, g, eps, tol)
        if not holds:
            raise RuntimeError("internal: distinct witness requested but absent")
        return ComponentWitness(point=point, multipliers=lam)
    if img.is_finite:
        for y in dominators(img, inst.cone, inst._points[g], eps, tol,
                            strict):
            return ComponentWitness(point=y)
        raise RuntimeError("internal: witness requested but absent")
    return ComponentWitness(multipliers=inst.point_margin(j, g, tol)[1])


def _table(inst, kind, idx, eps, tol):
    """Per competitor x_j, the bitmask ``dom[j]`` of the indices of x_idx's
    pool it dominates at the shift (strictly for the weak kind, weakly
    for the min kind) and, for the min kind, ``extra[j]`` of those with a
    witness distinct from the shifted point; ``(dom, None)`` for the weak
    kind.  Every competitor reads the pool by position."""
    weak, at = kind == VP_WEAK, inst._pool(idx, tol)
    dom, extra = map(list, zip(*(inst._bits(j, at, eps, tol, weak)
                                 for j in range(len(inst.images)))))
    return dom, None if weak else extra


def _search(table, size, limit):
    """Increasing pool indices of a smallest index set that no competitor
    dominates, with at most ``limit`` members (None: any number), or
    None.  Weak kind: the set must hit every complement of ``dom[j]``,
    which fails outright once some x_j dominates the whole pool."""
    dom, extra = table
    if extra is not None:
        kmax = size if limit is None else min(limit, size)
        return _first_survivor(size, kmax, dom, extra)
    if (1 << size) - 1 in dom:
        return None
    return min_hitting_set([[i for i in range(size) if not d >> i & 1]
                            for d in dom], limit=limit)


def _first_survivor(pool_size, kmax, weakdom, extra):
    """Smallest, then lexicographically first, subset of at most kmax
    pool indices that no competitor dominates; None if there is none.

    Competitor j dominates a subset inside the bitmask ``weakdom[j]``
    that meets ``extra[j]``.  Per size, a depth-first search adds
    indices in increasing order, the order of ``itertools.combinations``.
    A prefix that j dominates needs a later index outside ``weakdom[j]``;
    it is pruned when pairwise disjoint needs outnumber the slots left.
    ``CapExceeded`` once ``SUBSET_CAP`` subsets have been visited."""
    visited, full = 0, (1 << pool_size) - 1

    def search(start, left, chosen, alive):
        # alive: the competitors whose weakdom holds every chosen index
        nonlocal visited
        visited += 1
        if visited > SUBSET_CAP:
            raise CapExceeded(f"min-kind search exceeds cap: {visited} subsets")
        later = full >> start << start
        used = packed = 0
        for need in sorted((later & ~weakdom[j] for j in alive
                            if chosen & extra[j]), key=int.bit_count):
            if not need:
                return None
            if not need & used:
                packed, used = packed + 1, used | need
        if packed > left:
            return None
        if not left:
            return chosen
        for i in range(start, pool_size - left + 1):
            found = search(i + 1, left - 1, chosen | 1 << i,
                           [j for j in alive if weakdom[j] >> i & 1])
            if found is not None:
                return found
        return None

    for size in range(1, kmax + 1):
        chosen = search(0, size, 0, range(len(weakdom)))
        if chosen is not None:
            return tuple(i for i in range(pool_size) if chosen >> i & 1)
    return None


def _pad(points, p):
    return (tuple(points) + (points[0],) * p)[:p]


def _member(inst, idx, pool, chosen, p, dom):
    """Member certificate: the chosen pool points padded to budget p and,
    per competitor, the first component it does not dominate (-1: none)."""
    pool_idx = _pad(chosen, p)
    surviving = {lab: next((t for t, i in enumerate(pool_idx)
                            if not d >> i & 1), -1)
                 for lab, d in zip(inst.labels, dom)}
    return TupleCertificate(inst.decisions[idx].label,
                            _pad([pool[i] for i in chosen], p), True,
                            surviving=surviving)


def _excluded(inst, idx, p, eps, tol, table):
    """Non-member certificate: the pool prefix padded to budget p, the
    first competitor dominating it, and its witnesses.  A weak-kind
    competitor dominating the whole pool is named first; a min-kind one
    must also dominate some prefix point with a distinct witness, the
    first such being the ``strict_component``."""
    dom, extra = table
    at = inst._pool(idx, tol)
    kmax = min(p, len(at))
    prefix, full = (1 << kmax) - 1, (1 << len(at)) - 1
    strict_pos = None
    if extra is None:
        j = min((j for j, d in enumerate(dom) if not prefix & ~d),
                key=lambda j: dom[j] != full)
    else:
        j = next(j for j, (d, x) in enumerate(zip(dom, extra))
                 if not prefix & ~d and prefix & x)
        strict_pos = next(t for t in range(kmax) if extra[j] >> t & 1)
    canonical = _pad(at[:kmax], p)
    witnesses = tuple(_witness(inst, j, g, eps, tol, strict=extra is None,
                               distinct=t == strict_pos)
                      for t, g in enumerate(canonical))
    return TupleCertificate(inst.decisions[idx].label,
                            tuple(map(inst._points.__getitem__, canonical)),
                            False, dominated_by=inst.labels[j],
                            witnesses=witnesses, strict_component=strict_pos)


def _check_budget(p) -> None:
    if isinstance(p, bool) or not isinstance(p, int) or p < 1:
        raise ValidationError(f"budget p must be an integer >= 1, got {p!r}")


def membership_vp(inst: Instance, p: int, eps: Num = 0, kind: str = VP_WEAK,
                  tol=None) -> VpReport:
    """Per-decision membership in the projected budget-p solution set."""
    if kind not in VP_KINDS:
        raise ValidationError(f"unknown vectorization kind {kind!r}")
    _check_budget(p)
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    tol = question_tol(tol, inst.cone, inst.images, eps)
    members = []
    certificates = {}
    incomplete = []
    for idx, dec in enumerate(inst.decisions):
        pr = candidate_pool(inst, dec.label, p, tol)
        if not pr.complete:
            incomplete.append(dec.label)
        pool = pr.points
        table = _table(inst, kind, idx, eps, tol)
        chosen = _search(table, len(pool), p)
        if chosen is None:
            cert = _excluded(inst, idx, p, eps, tol, table)
        else:
            cert = _member(inst, idx, pool, chosen, p, table[0])
            members.append(dec.label)
        certificates[dec.label] = cert
    return VpReport(kind, p, eps, tuple(members), certificates,
                    tuple(incomplete))


def minimal_p(inst: Instance, label: str, eps: Num = 0, kind: str = VP_WEAK,
              tol=None) -> MinimalPResult:
    """Smallest budget at which the decision joins the projected
    solution set, or Never when no budget works."""
    if kind not in VP_KINDS:
        raise ValidationError(f"unknown vectorization kind {kind!r}")
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    tol = question_tol(tol, inst.cone, inst.images, eps)
    idx = inst.index_of(label)
    pool = inst.pool(idx, tol)
    incomplete = not inst.images[idx].is_finite
    table = _table(inst, kind, idx, eps, tol)
    chosen = _search(table, len(pool), None)
    if chosen is None:
        # a weak-kind competitor strictly dominating the whole pool
        # defeats every tuple; vertex pools cannot certify a min-kind
        # Never, as non-vertex tuples remain unexplored
        weak = kind == VP_WEAK
        reason = (inst.labels[table[0].index((1 << len(pool)) - 1)]
                  if weak else None)
        return MinimalPResult(label, kind, eps, never=True, reason=reason,
                              incomplete=incomplete and not weak)
    p_star = len(chosen)
    # vertex pools make p_star an upper bound only: a non-vertex minimal
    # point could escape more competitors at once
    return MinimalPResult(
        label, kind, eps, never=False, p_star=p_star,
        witness=_member(inst, idx, pool, chosen, p_star, table[0]),
        incomplete=incomplete and p_star > 1)


# ---------------------------------------------------------------------------
# Covering-based budget bound
# ---------------------------------------------------------------------------

def covering_p_bound(inst: Instance, label: str, eps: Num,
                     gamma: Num = DEFAULT_GAMMA, tol=None) -> int:
    """Budget from the internal covering number of the image at the
    safe-ball radius; always sufficient for weak membership at eps."""
    if eps <= 0:
        raise ValidationError("eps must be positive")
    img = inst.image_of(label)
    if not img.is_finite:
        raise ValidationError("covering budgets need a finite image")
    tol = question_tol(tol, inst.cone, inst.images, eps, gamma)
    radius_sq = div(r_epsilon_sq(inst.cone, eps, gamma), 4)
    return cover_by_sq_radius(img.points, radius_sq, tol=tol).count


def covering_p_bound_global(inst: Instance, eps: Num,
                            gamma: Num = DEFAULT_GAMMA, tol=None) -> int:
    """Max of the per-decision bounds over the weakly minimal members."""
    members = solve_direct(inst, DIRECT_WEAK, 0, tol).members
    return max(covering_p_bound(inst, lab, eps, gamma, tol)
               for lab in members)


# ---------------------------------------------------------------------------
# Weighted-sum scalarization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedSumSolution:
    label: str
    tuple_points: tuple
    value: Num

    def to_json_dict(self) -> dict:
        return {"label": self.label,
                "tuple": [format_vector(p) for p in self.tuple_points],
                "value": format_number(self.value)}


def solve_weighted_sum(inst: Instance, p: int, weights, tol=None):
    """Minimize sum_i w_i . y^i over decisions and image tuples.

    The objective separates across components, so each decision's inner
    optimum is a sum of independent point scans; every returned
    decision is weakly minimal for the budget-p problem.
    """
    weights = [tuple(w) for w in weights]
    if len(weights) != p:
        raise ValidationError(f"expected {p} weight vectors, got {len(weights)}")
    if all(all(v == 0 for v in w) for w in weights):
        raise ValidationError("weights must not all be zero")
    tol = question_tol(tol, inst.cone, inst.images,
                       *itertools.chain(*weights))
    for w in weights:
        if len(w) != inst.m:
            raise ValidationError("weight dimension differs from image dimension")
        if not in_dual_cone(w, inst.cone, tol):
            raise WeightNotInDualCone(f"weight {w!r} is outside the dual cone")

    scored = []
    for dec, img in zip(inst.decisions, inst.images):
        total = 0
        picks = []
        for w in weights:
            best_pt, best_val = None, None
            for y in img.points:
                val = sum(a * b for a, b in zip(w, y))
                if best_val is None or val < best_val:
                    best_pt, best_val = y, val
            total += best_val
            picks.append(best_pt)
        scored.append((dec.label, tuple(picks), total))
    best_total = min(s[2] for s in scored)
    return [WeightedSumSolution(lab, pts, val)
            for lab, pts, val in scored if val <= best_total + tol]


# ---------------------------------------------------------------------------
# Definition-level oracle
# ---------------------------------------------------------------------------

def brute_force_vp(inst: Instance, p: int, eps: Num = 0, kind: str = VP_WEAK,
                   tol=None) -> VpReport:
    """Reference semantics for ``membership_vp`` on finite images.

    Candidate tuples are enumerated over the full image (no pool), and
    a competitor defeats a tuple per the raw product-order definition.
    Because each dominating component is drawn independently from the
    competitor's image, tuple-existence on the competitor side reduces
    to per-component existence; this is a logical identity, not an
    approximation, and keeps the oracle independent of the pool and
    hitting-set machinery it validates.

    Margins are computed here, once per call, from no image or instance
    cache, so a fault in the data the fast paths keep cannot reach the
    oracle.  At tol 0 on rational data a point y becomes the ints
    ``den * a_j.y / a_j.e`` (equal only for equal points, as A has full
    column rank), e the all-ones vector and eps ``eps * den``.
    """
    if kind not in VP_KINDS:
        raise ValidationError(f"unknown vectorization kind {kind!r}")
    _check_budget(p)
    if any(not img.is_finite for img in inst.images):
        raise ValidationError("the brute-force oracle needs finite images")
    tol = question_tol(tol, inst.cone, inst.images, eps)
    total = sum(len(img.points) ** p for img in inst.images)
    if total > TUPLE_CAP:
        raise CapExceeded(f"{total} candidate tuples exceed cap {TUPLE_CAP}")

    cone = inst.cone
    images = [img.points for img in inst.images]
    gauge, unit, bar = (lambda y, q: margin(y, q, cone)), cone.e, eps
    if tol == 0 and question_tol(None, cone, inst.images, eps) == 0:
        z = {y: [sum(Fraction(a) * v for a, v in zip(row, y)) / de
                 for row, de in zip(cone.rows, cone.row_e)]
             for y in itertools.chain(*images)}
        den = math.lcm(Fraction(eps).denominator,
                       *(v.denominator for zy in z.values() for v in zy))
        images = [[tuple(int(v * den) for v in z[y]) for y in pts]
                  for pts in images]
        gauge, unit, bar = ((lambda y, q: min([a - b for a, b in zip(q, y)])),
                            (1,) * len(cone.rows), int(eps * den))

    k = len(inst.decisions)
    members = []
    for idx, dec in enumerate(inst.decisions):
        pts = images[idx]
        strict = [[False] * len(pts) for _ in range(k)]
        weakdom = [[False] * len(pts) for _ in range(k)]
        extra = [[False] * len(pts) for _ in range(k)]
        for qi, q in enumerate(pts):
            shifted = vsub(q, vscale(bar, unit))
            for j in range(k):
                for y in images[j]:
                    mg = gauge(y, q)
                    if gt(mg, bar, tol):
                        strict[j][qi] = True
                    if ge(mg, bar, tol):
                        weakdom[j][qi] = True
                        if not veq(y, shifted, tol):
                            extra[j][qi] = True
                    if strict[j][qi] and extra[j][qi]:
                        break   # no later y changes this entry
        found = False
        for tup in itertools.product(range(len(pts)), repeat=p):
            if kind == VP_WEAK:
                dominated = any(all(strict[j][t] for t in tup)
                                for j in range(k))
            else:
                dominated = any(
                    all(weakdom[j][t] for t in tup) and
                    any(extra[j][t] for t in tup)
                    for j in range(k))
            if not dominated:
                found = True
                break
        if found:
            members.append(dec.label)
    return VpReport(kind, p, eps, tuple(members), {}, ())
