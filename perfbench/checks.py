"""Correctness gate: every answer is checked outside the timed region.

A check never trusts the path it checks.  Vectorized membership on
finite instances is compared with the brute-force oracle; smallest
budgets are compared with oracle membership at ``p_star`` and
``p_star - 1`` (or with the budget the cover generator built in);
weak members must equal the labels whose weak threshold is at most
``eps``; every exclusion certificate is re-checked with
``setrelations.verify_certificate``; float verdicts must equal exact
ones; and with the default seed every verdict must match the file
recorded at the seed commit.  Tuple certificates are not re-checked.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import setopt
from setopt import CapExceeded

ORACLE_TUPLE_LIMIT = 50_000   # skip oracle calls that would enumerate more


def verdict(q, answer):
    """The mode-independent verdict of an answer (numbers as exact text)."""
    if q.kind in ("solve", "vp"):
        return sorted(answer.members)
    if q.kind == "threshold":
        return {lab: str(Fraction(v)) for lab, v in sorted(answer.items())}
    if q.kind == "minimal_p":
        return [answer.never, answer.p_star]
    if q.kind == "covering":
        return answer
    if q.kind == "suite":
        return [[c.name, c.instance_id, c.passed, c.hard] for c in answer.checks]
    if q.kind == "cli":
        return _cli_verdict(q, answer)
    raise ValueError(q.kind)


def _cli_verdict(q, report):
    if report is None:
        return None
    if q.meta["verb"] in ("solve", "vectorize"):
        return sorted(report["members"])
    return [report["never"], report["p_star"]]


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Gate:
    """Collects check failures per question id; a check that spans
    several answers charges the failure to one of the questions."""

    def __init__(self):
        self.problems = {}

    def fail(self, qid, message):
        self.problems.setdefault(qid, []).append(message)

    def expect(self, cond, qid, message):
        if not cond:
            self.fail(qid, message)


# ---------------------------------------------------------------------------
# Finite sessions
# ---------------------------------------------------------------------------

class _Oracle:
    """Memoized ``brute_force_vp`` verdicts for one instance."""

    def __init__(self, inst):
        self.inst = inst
        self.memo = {}

    def members(self, p, eps, kind):
        key = (p, eps, kind)
        if key not in self.memo:
            total = sum(len(img.points) ** p for img in self.inst.images)
            if total > ORACLE_TUPLE_LIMIT:
                self.memo[key] = None
            else:
                self.memo[key] = set(setopt.brute_force_vp(
                    self.inst, p, eps, kind).members)
        return self.memo[key]


def check_finite_session(sess, answers, gate, corrupt=False):
    """``answers`` maps qid -> answer for the questions that returned.

    With ``corrupt`` the first vectorized verdict is altered before it
    is checked; the self-test uses this to prove the gate catches it.
    """
    inst = sess.inst
    tol = 0 if inst.exact else 1e-9
    oracle = _Oracle(inst)
    solved = {}
    thresholds = None
    for q in sess.questions:
        if q.qid not in answers:
            continue
        ans = answers[q.qid]
        if q.kind == "vp":
            got = set(ans.members)
            if corrupt:
                got ^= {inst.labels[0]}
                corrupt = False
            want = oracle.members(q.meta["p"], q.meta["eps"], q.meta["kind"])
            gate.expect(want is None or got == want, q.qid,
                        f"membership_vp {sorted(got)} != oracle {sorted(want or ())}")
        elif q.kind == "solve":
            solved[(q.meta["concept"], q.meta["eps"])] = (q, ans)
            _check_certificates(inst, q, ans, gate)
        elif q.kind == "threshold":
            thresholds = (q, ans)
        elif q.kind == "minimal_p":
            _check_minimal_p(sess, oracle, q, ans, gate)
        elif q.kind == "covering":
            distinct = len(set(inst.image_of(q.meta["label"]).points))
            gate.expect(1 <= ans <= distinct, q.qid,
                        f"covering bound {ans} outside 1..{distinct}")
    if thresholds is not None:
        tq, thr = thresholds
        for (concept, eps), (q, rep) in solved.items():
            if concept != "weak":
                continue
            want = {lab for lab, t in thr.items() if not t > eps + tol}
            gate.expect(set(rep.members) == want, tq.qid,
                        f"weak members at eps={eps} differ from threshold law")
    for eps in {e for _, e in solved}:
        t1, t2, wk = (solved.get((c, eps)) for c in ("type1", "type2", "weak"))
        if t1 and t2 and wk:
            gate.expect(set(t1[1].members) <= set(t2[1].members)
                        <= set(wk[1].members), t2[0].qid,
                        "type1 <= type2 <= weak fails")


def _check_certificates(inst, q, rep, gate):
    eps = q.meta["eps"]
    members = set(rep.members)
    excluded = set(inst.labels) - members
    gate.expect(set(rep.certificates) == excluded, q.qid,
                "certificates do not cover exactly the excluded labels")
    for label, cert in rep.certificates.items():
        a = inst.image_of(cert.dominated_by)
        b = inst.image_of(label)
        ok = (cert.relation.holds
              and setopt.verify_certificate(a, b, inst.cone, cert.relation))
        if q.meta["concept"] == "type1":
            tol = 0 if inst.exact else 1e-9
            ok = ok and cert.reverse_margin < -eps - tol
        gate.expect(ok, q.qid, f"exclusion certificate for {label!r} fails")


def _check_minimal_p(sess, oracle, q, ans, gate):
    label, kind, eps = q.meta["label"], q.meta["kind"], q.meta["eps"]
    truth = sess.truth
    if truth.get("front") == label:
        gate.expect(not ans.never and ans.p_star == truth["p_star"], q.qid,
                    f"minimal_p {ans.p_star} != generated budget {truth['p_star']}")
        return
    if ans.never:
        for p in (1, 2):
            want = oracle.members(p, eps, kind)
            gate.expect(want is None or label not in want, q.qid,
                        f"never, but a member at p={p}")
        return
    at = oracle.members(ans.p_star, eps, kind)
    gate.expect(at is None or label in at, q.qid,
                f"not a member at p_star={ans.p_star}")
    if ans.p_star > 1:
        below = oracle.members(ans.p_star - 1, eps, kind)
        gate.expect(below is None or label not in below, q.qid,
                    f"already a member at p_star-1={ans.p_star - 1}")


# ---------------------------------------------------------------------------
# Polytope CLI questions
# ---------------------------------------------------------------------------

def check_cli_session(sess, reports, gate, corrupt=False):
    """``reports`` maps qid -> parsed report for the questions that returned."""
    by_what = {}
    for q in sess.questions:
        if q.qid not in reports:
            continue
        rep = reports[q.qid]
        if rep is None:
            gate.fail(q.qid, "report file missing or unreadable")
            continue
        if corrupt and q.meta["verb"] == "solve":
            rep = dict(rep, members=rep["members"][1:])
            corrupt = False
        by_what[q.qid.rsplit("/", 1)[1]] = (q, rep)
    weak = by_what.get("solve-weak")
    if weak:
        q, rep = weak
        want = sorted(lab for lab, t in rep["thresholds"].items()
                      if Fraction(t) <= 0)
        gate.expect(sorted(rep["members"]) == want, q.qid,
                    "weak members differ from the reported thresholds")
    sets = {what: set(rep["members"]) for what, (q, rep) in by_what.items()
            if q.meta["verb"] in ("solve", "vectorize")}
    if {"solve-type1", "solve-type2", "solve-weak"} <= set(sets):
        gate.expect(sets["solve-type1"] <= sets["solve-type2"] <= sets["solve-weak"],
                    by_what["solve-type2"][0].qid, "type1 <= type2 <= weak fails")
    for what, (q, rep) in by_what.items():
        if q.meta["verb"] == "solve":
            excluded = {c["label"] for c in rep["certificates"]}
            gate.expect(excluded.isdisjoint(rep["members"])
                        and all(c["relation_holds"] for c in rep["certificates"]),
                        q.qid, "exclusion certificates inconsistent")
        if q.meta["verb"] == "vectorize" and q.meta["vp_kind"] == "weak" \
                and "solve-weak" in sets:
            gate.expect(sets[what] <= sets["solve-weak"], q.qid,
                        "weak projected members not weakly minimal")
    if {"vp-weak-1", "vp-weak-2"} <= set(sets):
        gate.expect(sets["vp-weak-1"] <= sets["vp-weak-2"],
                    by_what["vp-weak-2"][0].qid, "weak membership not monotone in p")
    for kind, budgets in (("weak", (1, 2)), ("min", (1,))):
        mp = by_what.get(f"minp-{kind}")
        if not mp:
            continue
        q, rep = mp
        label = q.meta["label"]
        for p in budgets:
            if f"vp-{kind}-{p}" not in sets:
                continue
            want = not rep["never"] and rep["p_star"] <= p
            gate.expect((label in sets[f"vp-{kind}-{p}"]) == want, q.qid,
                        f"minimal-p disagrees with vectorize at p={p}")


# ---------------------------------------------------------------------------
# Verifier suite
# ---------------------------------------------------------------------------

def check_suite(q, report, gate, corrupt=False):
    hard = len(report.hard_failures) + (1 if corrupt else 0)
    gate.expect(report.checks and not hard, q.qid,
                f"{hard} hard failures in the property suite")


def check_cap_refusal(q, exc, gate):
    """Only the size caps may refuse a question; anything else is wrong."""
    gate.expect(isinstance(exc, CapExceeded), q.qid,
                f"raised {type(exc).__name__}: {exc}")
