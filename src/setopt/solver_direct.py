"""Exact set-approach solver over the finite decision list.

A decision x_k is weakly, type-one or type-two minimal (at shift eps)
iff no x_i excludes it.  With S[i][k] the largest shift with
``F(x_i)`` lower-set-less ``F(x_k)``, x_i excludes x_k when

* weak:     S[i][k] > eps (the strict relation holds),
* type-one: S[i][k] >= eps and S[k][i] < -eps,
* type-two: the strong relation holds at shift eps, each point of
  F(x_k) read by ``Instance.strongly_dominates`` (by position against a
  polytope): off the stored point margin (an exact polytope's stored
  strong slack or vertex bounds first), with a scan or program of F(x_i)
  only at a tie with the shifted point.

One scan per candidate meets the first such x_i in index order and
certifies the relation that excludes; the weak and type-one
certificates are built from the point margins and witnesses that
built S, with no second solve, and the type-two certificate of that
one pair from ``Instance.strong_slack`` (a scan for a finite image, the
stored program for a polytope).  S solves a polytope's margin program
only where its vertex bounds leave the minimum open, so a certificate
may solve the others.
Quantifiers run over the whole decision list including the candidate
itself, exactly as the solution concepts are defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .arith import Num, format_number, ge, gt
from .errors import ValidationError
from .imagesets import question_tol
from .instance import Instance
from .setrelations import (LOWER, LOWER_STRICT, LOWER_STRONG,
                           RelationCertificate, _margin_relation, _relation)

WEAK = "weak"
TYPE_ONE = "type1"
TYPE_TWO = "type2"

CONCEPTS = (WEAK, TYPE_ONE, TYPE_TWO)


@dataclass(frozen=True)
class ExclusionCertificate:
    dominated_by: str
    relation: RelationCertificate
    reverse_margin: Optional[Num] = None  # type-one: the failed back margin


@dataclass
class SolutionReport:
    concept: str
    epsilon: Num
    members: tuple
    certificates: dict = field(default_factory=dict)  # label -> certificate
    thresholds: Optional[dict] = None                 # weak concept only

    def to_json_dict(self) -> dict:
        out = {
            "concept": self.concept,
            "epsilon": format_number(self.epsilon),
            "members": list(self.members),
            "certificates": [
                {
                    "label": lab,
                    "dominated_by": cert.dominated_by,
                    "relation_holds": cert.relation.holds,
                    "relation_kind": cert.relation.kind,
                    "reverse_margin": (None if cert.reverse_margin is None
                                       else format_number(cert.reverse_margin)),
                }
                for lab, cert in sorted(self.certificates.items())
            ],
        }
        if self.thresholds is not None:
            out["thresholds"] = {lab: format_number(v)
                                 for lab, v in self.thresholds.items()}
        return out


def weak_threshold(inst: Instance, tol=None) -> dict:
    """Per label the exact shift at which weak membership begins:
    ``x in eps-weak members iff eps >= threshold(x)``."""
    mat = inst.set_margins(question_tol(tol, inst.cone, inst.images))
    k = len(inst.decisions)
    return {inst.decisions[j].label: max(mat[i][j] for i in range(k))
            for j in range(k)}


def solve_direct(inst: Instance, concept: str, eps: Num = 0,
                 tol=None) -> SolutionReport:
    if concept not in CONCEPTS:
        raise ValidationError(f"unknown concept {concept!r}")
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    tol = question_tol(tol, inst.cone, inst.images, eps)
    labels, images = inst.labels, inst.images
    k = len(labels)
    members, certificates = [], {}
    mat = inst.set_margins(tol) if concept != TYPE_TWO else None
    for j in range(k):
        for i in range(k):
            if concept == WEAK:
                holds = gt(mat[i][j], eps, tol)
            elif concept == TYPE_ONE:
                holds = ge(mat[i][j], eps, tol) and mat[j][i] < -eps - tol
            else:  # a polytope reads F(x_j) by position
                holds = all(inst.strongly_dominates(i, t, eps, tol) for t in (
                    images[j].points if images[i].is_finite else
                    range(*inst._first[j:j + 2])))
            if holds:
                break
        else:
            members.append(labels[j])
            continue
        if concept == TYPE_TWO:  # scans only for the excluding pair
            _, cert = _relation(
                images[j], LOWER_STRONG, eps,
                lambda target: inst.strong_slack(i, target, eps, tol))
        else:  # from the margins that built S
            _, cert = _margin_relation(
                images[i], images[j], inst.cone,
                LOWER_STRICT if concept == WEAK else LOWER, eps, tol,
                lambda target: inst.point_margin(i, target, tol))
        certificates[labels[j]] = ExclusionCertificate(
            labels[i], cert, mat[j][i] if concept == TYPE_ONE else None)
    thresholds = weak_threshold(inst, tol) if concept == WEAK else None
    return SolutionReport(concept, eps, tuple(members), certificates,
                          thresholds)
