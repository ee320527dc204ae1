"""The lower set less relation and its strong and strict variants.

``A rel (B - eps*e)`` is decided pointwise over the points (or
vertices) of B:

* ``lower``        B - eps*e inside A + K         <=>  eps <= set_margin
* ``lower_strict`` B - eps*e inside A + int K     <=>  eps <  set_margin
* ``lower_strong`` B - eps*e inside A + K \\ {0}   per-target slack test

Vertex reduction on the right argument is valid because A + K,
A + int K, and A + K \\ {0} are convex whenever A is (pointedness keeps
K \\ {0} convex).  Every verdict carries a certificate that re-checks
independently of the solver path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arith import Num, dot, ge, gt, vscale, vsub
from .cone import Cone, margin
from .errors import DimMismatch, ValidationError
from .imagesets import (ImageSet, point_margin, point_margin_with_witness,
                        question_tol, strong_membership_slack)

LOWER = "lower"
LOWER_STRONG = "lower_strong"
LOWER_STRICT = "lower_strict"

RELATION_KINDS = (LOWER, LOWER_STRONG, LOWER_STRICT)


@dataclass(frozen=True)
class RelationWitness:
    target: tuple                      # point/vertex of B (unshifted)
    point: Optional[tuple] = None      # witness a in A (finite left arg)
    multipliers: Optional[tuple] = None  # convex weights over A's vertices


@dataclass(frozen=True)
class RelationCertificate:
    holds: bool
    kind: str
    epsilon: Num
    witnesses: tuple = ()
    failing_target: Optional[tuple] = None


def set_margin(a: ImageSet, b: ImageSet, cone: Cone, tol=None) -> Num:
    """Largest eps with ``A lower-set-less (B - eps*e)``."""
    if a.m != b.m:
        raise DimMismatch("images of different dimension")
    return min(point_margin(pt, a, cone, tol) for pt in b.points)


def set_relation(a: ImageSet, b: ImageSet, cone: Cone, kind: str,
                 eps: Num = 0, tol=None):
    """Decide the eps-shifted relation; returns ``(holds, certificate)``."""
    if kind not in RELATION_KINDS:
        raise ValidationError(f"unknown relation kind {kind!r}")
    if a.m != b.m:
        raise DimMismatch("images of different dimension")
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    tol = question_tol(tol, cone, (a, b), eps)
    if kind != LOWER_STRONG:
        return _margin_relation(
            a, b, cone, kind, eps, tol,
            lambda t: point_margin_with_witness(t, a, cone, tol))
    witnesses = []
    for target in b.points:
        holds, point, lam = strong_membership_slack(target, a, cone, tol, eps)
        if not holds:
            return False, RelationCertificate(False, kind, eps,
                                              failing_target=target)
        witnesses.append(RelationWitness(target, point, lam))
    return True, RelationCertificate(True, kind, eps, tuple(witnesses))


def _margin_relation(a: ImageSet, b: ImageSet, cone: Cone, kind: str,
                     eps: Num, tol, margin_of):
    """``set_relation`` for ``lower`` and ``lower_strict`` at a resolved
    tol; ``margin_of(target)`` is ``point_margin_with_witness`` of
    ``target`` against A, or a stored copy of it."""
    witnesses = []
    for target in b.points:
        mu, witness = margin_of(target)
        ok = gt(mu, eps, tol) if kind == LOWER_STRICT else ge(mu, eps, tol)
        if not ok:
            return False, RelationCertificate(False, kind, eps,
                                              failing_target=target)
        witnesses.append(RelationWitness(target, witness, None) if a.is_finite
                         else RelationWitness(target, None, witness))
    return True, RelationCertificate(True, kind, eps, tuple(witnesses))


def verify_certificate(a: ImageSet, b: ImageSet, cone: Cone,
                       cert: RelationCertificate, tol=None) -> bool:
    """Re-check a certificate from its raw ingredients only."""
    eps = cert.epsilon
    tol = question_tol(tol, cone, (a, b), eps)
    if not cert.holds:
        target = cert.failing_target
        if target is None or tuple(target) not in set(b.points):
            return False
        if cert.kind == LOWER_STRONG:
            return not strong_membership_slack(target, a, cone, tol, eps)[0]
        mu = point_margin(target, a, cone, tol)
        return not (gt(mu, eps, tol) if cert.kind == LOWER_STRICT
                    else ge(mu, eps, tol))
    targets = {tuple(w.target) for w in cert.witnesses}
    if targets != set(b.points):
        return False
    for w in cert.witnesses:
        shifted = vsub(w.target, vscale(eps, cone.e))
        if w.point is not None:
            if tuple(w.point) not in set(a.points):
                return False
            mg = margin(w.point, w.target, cone)
            if cert.kind == LOWER_STRICT and not gt(mg, eps, tol):
                return False
            if cert.kind == LOWER and not ge(mg, eps, tol):
                return False
            if cert.kind == LOWER_STRONG:
                if not ge(mg, eps, tol):
                    return False
                if all(abs(x - y) <= tol for x, y in zip(w.point, shifted)):
                    return False
        elif w.multipliers is not None:
            lam = w.multipliers
            if len(lam) != len(a.points):
                return False
            if any(l < -tol for l in lam) or abs(sum(lam) - 1) > tol:
                return False
            y = tuple(sum(l * v[d] for l, v in zip(lam, a.points))
                      for d in range(a.m))
            diff = vsub(shifted, y)
            slacks = [dot(row, diff) for row in cone.rows]
            if cert.kind == LOWER and not all(ge(s, 0, tol) for s in slacks):
                return False
            # margin-LP multipliers at optimum mu > eps leave every slack
            # at least (mu - eps) * a_j.e, hence strictly positive
            if cert.kind == LOWER_STRICT and not all(s > 0 for s in slacks):
                return False
            if cert.kind == LOWER_STRONG:
                if not all(ge(s, 0, tol) for s in slacks):
                    return False
                if not gt(sum(slacks), 0, tol):
                    return False
        else:
            return False
    return True
