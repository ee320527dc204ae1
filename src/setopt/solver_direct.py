"""Exact set-approach solver over the finite decision list.

Membership in the weakly minimal, type-one minimal, and type-two
minimal solution sets (and their eps-shifted variants) is decided from
the pairwise set-margin matrix: with S[i][k] the largest shift with
``F(x_i)`` lower-set-less ``F(x_k)``,

* weak:     x_k is a member  iff  max_i S[i][k] <= eps,
* type-one: no i with S[i][k] >= eps and S[k][i] < -eps,
* type-two: no i whose strong relation holds at shift eps.

Quantifiers run over the whole decision list including the candidate
itself, exactly as the solution concepts are defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .arith import Num, format_number, ge, gt
from .errors import ValidationError
from .instance import Instance
from .setrelations import (LOWER, LOWER_STRICT, LOWER_STRONG,
                           RelationCertificate, set_relation)

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
    mat = inst.set_margins(inst.resolve_tol(tol))
    k = len(inst.decisions)
    return {inst.decisions[j].label: max(mat[i][j] for i in range(k))
            for j in range(k)}


def solve_direct(inst: Instance, concept: str, eps: Num = 0,
                 tol=None) -> SolutionReport:
    if concept not in CONCEPTS:
        raise ValidationError(f"unknown concept {concept!r}")
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    tol = inst.resolve_tol(tol, eps)
    labels = inst.labels
    k = len(labels)
    members = []
    certificates = {}
    thresholds = None

    mat = inst.set_margins(tol) if concept != TYPE_TWO else None
    if concept == WEAK:
        thresholds = weak_threshold(inst, tol)
        for j in range(k):
            if not gt(thresholds[labels[j]], eps, tol):
                members.append(labels[j])
                continue
            dominator = next(i for i in range(k) if gt(mat[i][j], eps, tol))
            _, cert = set_relation(inst.images[dominator], inst.images[j],
                                   inst.cone, LOWER_STRICT, eps, tol)
            certificates[labels[j]] = ExclusionCertificate(
                labels[dominator], cert)
    elif concept == TYPE_TWO:
        for j in range(k):
            excluded = None
            for i in range(k):
                holds, cert = set_relation(inst.images[i], inst.images[j],
                                           inst.cone, LOWER_STRONG, eps, tol)
                if holds:
                    excluded = ExclusionCertificate(labels[i], cert)
                    break
            if excluded is None:
                members.append(labels[j])
            else:
                certificates[labels[j]] = excluded
    else:  # TYPE_ONE
        for j in range(k):
            violator = None
            for i in range(k):
                if ge(mat[i][j], eps, tol) and mat[j][i] < -eps - tol:
                    violator = i
                    break
            if violator is None:
                members.append(labels[j])
            else:
                _, cert = set_relation(inst.images[violator], inst.images[j],
                                       inst.cone, LOWER, eps, tol)
                certificates[labels[j]] = ExclusionCertificate(
                    labels[violator], cert, reverse_margin=mat[j][violator])
    return SolutionReport(concept, eps, tuple(members), certificates,
                          thresholds)
