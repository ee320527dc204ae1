#!/usr/bin/env python3
"""setopt benchmark: closed-loop questions against the library.

One client in one process and one thread asks one question at a time
and waits for the answer.  Usage, from the root of a checkout:

    python3 perfbench/run.py --workload session_finite_exact --seed 0 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, one table

``--trace 0`` measures the end-to-end metrics with tracing off.  Times
are CPU seconds of the benchmark process at a nominal machine speed
(see ``cpu_clock`` and ``reference_slice``).
``--trace 1`` asks the first pass of the workload twice, traced and then
untraced, and prints the per-layer split.  Every answer is checked
after the timed region; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the exit
code is 1 when any answer fails its check.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
EXPECTED = os.path.join(HERE, "expected_verdicts.json")
DEFAULT_SEED = 0
EXTRA_SETUPS = 4         # untimed set-ups after each pass, so setup_s is a median
# The CPU of a shared virtual machine runs the same code up to 1.5 times
# faster or slower for tens of seconds at a time.  A fixed reference
# slice, run between questions, measures that speed; a run's times are
# scaled to the speed at which one slice takes REF_NOMINAL_S.  One factor
# per run, not per pass: a single slice varies too much, and a pass of
# verify_suite (one question of several seconds) holds only three.
REF_PERIOD_S = 0.05      # question CPU time between two reference slices
REF_NOMINAL_S = 0.001
WORKLOAD_NAMES = ("session_finite_exact", "session_finite_float",
                  "cli_polytope_exact", "verify_suite")


def import_library():
    """Import ``setopt`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "setopt", "__init__.py")):
        raise SystemExit(f"perfbench: no library sources at {SRC}")
    sys.path.insert(0, SRC)
    import setopt
    if not os.path.abspath(setopt.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported setopt from {setopt.__file__}")
    return setopt


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its waited-for children.

    The library is single-threaded, CPU-bound Python, so on an idle
    machine this advances with the wall clock.  On a shared virtual
    machine it leaves out the time the host runs other guests on this
    virtual CPU (steal), which wall-clock time counts.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_slice() -> float:
    """CPU seconds of a fixed piece of pure-Python work (rational
    arithmetic, as in the library's exact mode) that calls nothing in the
    library, so a change to the library cannot change its cost.  Garbage
    collection is off during the slice, so neither can the size of the
    library's heap."""
    enabled = gc.isenabled()
    gc.disable()
    started = cpu_clock()
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        if acc > 5:
            acc -= 5
    seconds = cpu_clock() - started
    if enabled:
        gc.enable()
    return seconds


@dataclass
class Record:
    sess: Any
    q: Any
    cpu: float               # CPU seconds (cpu_clock)
    wall: float
    answer: Any = None
    error: Any = None        # the exception; its type name once checked
    seconds: float = 0.0     # cpu at the nominal speed in run_measured, else cpu


def ask_all(wl, sessions, records, tracer=None, slices=None):
    """Ask every question; with ``slices``, append a reference slice
    whenever REF_PERIOD_S of question CPU time has passed since the last."""
    since = 0.0
    for sess in sessions:
        for q in sess.questions:
            span = tracer.open(tracer.QUESTION) if tracer else None
            wall, started = time.perf_counter(), cpu_clock()
            try:
                answer, error = wl.ask(sess, q), None
            except Exception as exc:  # every failure is counted, none stops the run
                answer, error = None, exc
            seconds = cpu_clock() - started
            wall = time.perf_counter() - wall
            if tracer:
                tracer.close(span)
            records.append(Record(sess, q, seconds, wall, answer, error,
                                  seconds))
            since += seconds
            if slices is not None and since >= REF_PERIOD_S:
                slices.append(reference_slice())
                since = 0.0


def build(wl, seed, pass_idx, workdir, tracer=None):
    span = tracer.open(tracer.SETUP) if tracer else None
    started = cpu_clock()
    sessions = wl.build(seed, pass_idx, workdir)
    seconds = cpu_clock() - started
    if tracer:
        tracer.close(span)
    return sessions, seconds


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def check(wl, records, corrupt=False, gate=None, digests=None):
    """Run the correctness gate over ``records``, adding to ``gate`` and
    ``digests`` when given; returns (gate, verdict digests by qid)."""
    import checks
    from workloads import read_cli_report

    gate = checks.Gate() if gate is None else gate
    digests = {} if digests is None else digests
    by_sess = {}
    for rec in records:
        by_sess.setdefault(id(rec.sess), (rec.sess, []))[1].append(rec)
    for sess, recs in by_sess.values():
        answers = {}
        for rec in recs:
            if rec.error is not None:
                checks.check_cap_refusal(rec.q, rec.error, gate)
                continue
            answer = rec.answer
            if rec.q.kind == "cli":
                if answer["rc"] != 0:
                    refused = "exceeds cap" in answer["stderr"]
                    gate.expect(refused, rec.q.qid,
                                f"cli exit {answer['rc']}: {answer['stderr'].strip()}")
                    rec.error = RuntimeError(answer["stderr"].strip())
                    continue
                answer = read_cli_report(rec.q)
            answers[rec.q.qid] = answer
            digests[rec.q.qid] = checks.digest(checks.verdict(rec.q, answer))
        kind = recs[0].q.kind
        if kind == "cli":
            checks.check_cli_session(sess, answers, gate, corrupt)
        elif kind == "suite":
            for rec in recs:
                if rec.q.qid in answers:
                    checks.check_suite(rec.q, answers[rec.q.qid], gate, corrupt)
        else:
            checks.check_finite_session(sess, answers, gate, corrupt)
        corrupt = False
    return gate, digests


def compare_digests(gate, digests, reference, what):
    for qid, want in reference.items():
        if qid in digests and digests[qid] != want:
            gate.fail(qid, f"verdict differs from {what}")


def expected_for(workload: str) -> dict:
    family = workload.replace("_exact", "").replace("_float", "")
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            return json.load(fh).get(family, {})
    except FileNotFoundError:
        return {}


def float_reference(seed):
    """Exact-mode digests of the first pass, for the float == exact check."""
    import checks
    from workloads import WORKLOADS

    wl = WORKLOADS["session_finite_exact"]
    sessions, _ = build(wl, seed, 0, None)
    exact_records = []
    ask_all(wl, sessions, exact_records)
    return {r.q.qid: checks.digest(checks.verdict(r.q, r.answer))
            for r in exact_records if r.error is None}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - beta_cdf(1.0 - x, b, a)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    return math.exp(log_front) * _beta_cf(a, b, x) / a


def harrell_davis(sorted_values, q):
    """Harrell-Davis estimate of the q-quantile (Biometrika 69, 1982): a
    Beta-weighted mean of all order statistics.  Unlike a single order
    statistic it moves smoothly when the quantile falls in a gap between
    question kinds of very different cost."""
    n = len(sorted_values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    total, prev = 0.0, 0.0
    for i, v in enumerate(sorted_values, 1):
        cdf = beta_cdf(i / n, a, b)
        total += (cdf - prev) * v
        prev = cdf
    return total


def latency_quantile(values, q):
    """The q-quantile of latencies in which a failed question (inf) is
    slower than every answer: the Harrell-Davis estimate over the
    answered questions at the matching quantile, or inf when the
    quantile falls among the failed ones."""
    finite = sorted(v for v in values if not math.isinf(v))
    if q * len(values) >= len(finite):
        return math.inf
    return harrell_davis(finite, q * len(values) / len(finite))


def tail_percentile(n):
    """90, or the highest percentile with ten samples beyond it (>= 50)."""
    if n >= 100:
        return 90
    return max(50, math.floor(100 * (1 - 10 / n))) if n else 50


def end_to_end(records, failed, setup_times, peak_rss_mb):
    from metrics import END_TO_END
    tail = tail_percentile(len(records))

    def timings(clock):
        lat = [math.inf if r.q.qid in failed else clock(r) for r in records]
        busy = sum(clock(r) for r in records)
        good = sum(1 for r in records if r.q.qid not in failed)
        return (busy, good / busy if busy else 0.0,
                latency_quantile(lat, 0.5) * 1000,
                latency_quantile(lat, tail / 100) * 1000)

    busy, qps, p50, p90 = timings(lambda r: r.seconds)
    values = {
        "setup_s": statistics.median(setup_times),
        "questions_per_s": qps,
        "question_p50_ms": p50,
        "question_p90_ms": p90,
        "peak_rss_mb": peak_rss_mb,
    }
    wall_busy, wall_qps, wall_p50, wall_p90 = timings(lambda r: r.wall)
    cpu_busy, cpu_qps, cpu_p50, cpu_p90 = timings(lambda r: r.cpu)
    notes = [f"samples={len(records)} tail_percentile=p{tail} "
             f"setup_samples={len(setup_times)} busy_s={busy:.3f}",
             f"wall clock: busy_s={wall_busy:.3f} questions_per_s={wall_qps:.4g} "
             f"question_p50_ms={wall_p50:.4g} question_p90_ms(p{tail})={wall_p90:.4g}",
             f"cpu clock: busy_s={cpu_busy:.3f} questions_per_s={cpu_qps:.4g} "
             f"question_p50_ms={cpu_p50:.4g} question_p90_ms(p{tail})={cpu_p90:.4g}"]
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}, notes


def failed_ids(records, gate):
    return {r.q.qid for r in records if r.error is not None} | set(gate.problems)


def count_failed(records, failed):
    """Failed records; the traced run asks every question twice."""
    return sum(r.q.qid in failed for r in records)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_measured(wl, seed, seconds, workdir, corrupt=False):
    """Passes until ``seconds`` of set-up and question time have passed.

    Each pass is checked right after it, outside the timed region, and
    its answers are then dropped, so memory does not grow with the
    number of passes a run completes."""
    import checks

    setup_times = []
    extra_dir = fresh_dir(os.path.join(workdir, "extra"))
    gate, digests = checks.Gate(), {}
    records = []
    peak_rss_mb = 0.0
    timed = 0.0
    pass_idx = 0
    slices = []
    while pass_idx == 0 or timed < seconds:
        started = time.perf_counter()
        slices.append(reference_slice())
        sessions, s = build(wl, seed, pass_idx, workdir)
        setup_times.append(s)
        pass_records = []
        ask_all(wl, sessions, pass_records, slices=slices)
        slices.append(reference_slice())
        timed += time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check(wl, pass_records, corrupt and pass_idx == 0, gate, digests)
        for i in range(EXTRA_SETUPS):   # inputs of unused passes, never asked
            _, s = build(wl, seed, 100_000 + EXTRA_SETUPS * pass_idx + i, extra_dir)
            setup_times.append(s)
        for rec in pass_records:
            rec.sess = rec.answer = None
            rec.error = None if rec.error is None else type(rec.error).__name__
        records += pass_records
        pass_idx += 1

    if wl.exact is False:
        compare_digests(gate, digests, float_reference(seed),
                        "the exact-mode verdict")
    if seed == DEFAULT_SEED:
        compare_digests(gate, digests, expected_for(wl.name),
                        "the recorded verdict")
    scale = REF_NOMINAL_S / statistics.mean(slices)
    for rec in records:
        rec.seconds = rec.cpu * scale
    setup_times = [s * scale for s in setup_times]
    failed = failed_ids(records, gate)
    metrics, notes = end_to_end(records, failed, setup_times, peak_rss_mb)
    notes.append(f"speed scale to nominal: {scale:.4f} from {len(slices)} "
                 f"reference slices")
    notes.append(f"passes={pass_idx} "
                 f"failed_frac={count_failed(records, failed) / len(records):.4f}"
                 f" refused={sum(r.error is not None for r in records)}")
    return records, gate, failed, metrics, notes


def run_traced(wl, seed, workdir):
    """The first pass traced, then the same pass untraced (fresh objects,
    same content).  Spans are analysed and written, and the tracer is
    dropped, before the untraced pass, so its memory does not slow it."""
    from metrics import PER_LAYER, layer_values
    from tracing import Tracer

    tracer = Tracer()
    traced = []
    tracer.install()
    try:
        sessions, _ = build(wl, seed, 0, fresh_dir(os.path.join(workdir, "traced")),
                            tracer)
        ask_all(wl, sessions, traced, tracer)
    finally:
        tracer.remove()
    span_file = os.path.join(WORK, f"spans-{wl.name}-seed{seed}.tsv.gz")
    tracer.write(span_file)
    notes = [f"spans={len(tracer.ids)} written to {os.path.relpath(span_file, ROOT)}"]
    values = layer_values(tracer)
    del tracer
    gc.collect()

    plain = []
    sessions, _ = build(wl, seed, 0, fresh_dir(os.path.join(workdir, "plain")))
    ask_all(wl, sessions, plain)
    gate, digests = check(wl, plain)
    _, traced_digests = check(wl, traced)
    compare_digests(gate, traced_digests, digests, "the untraced verdict")
    records = plain + traced
    failed = failed_ids(records, gate)

    def qps(recs):
        busy = sum(r.seconds for r in recs)
        return sum(r.q.qid not in failed for r in recs) / busy if busy else 0.0

    values["failed_frac"] = count_failed(records, failed) / len(records)
    values["trace.overhead_frac"] = (qps(plain) / qps(traced) - 1
                                     if qps(traced) else 0.0)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    return records, gate, failed, metrics, notes


def run_one(args) -> int:
    import_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = fresh_dir(os.path.join(WORK, args.workload))
    if args.trace:
        records, gate, failed, metrics, notes = run_traced(wl, args.seed, workdir)
    else:
        records, gate, failed, metrics, notes = run_measured(
            wl, args.seed, args.seconds, workdir, corrupt=args.corrupt_one_verdict)
    shutil.rmtree(workdir, ignore_errors=True)
    for note in notes:
        print(f"# {args.workload}: {note}")
    for qid, problems in sorted(gate.problems.items())[:20]:
        print(f"# CHECK FAILED {qid}: {'; '.join(problems)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    correct = not gate.problems
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": count_failed(records, failed),
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb belongs to one."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(proc.stderr)
        if not lines:
            continue
        result = json.loads(lines[-1])
        failed_frac = result["failed"] / result["attempted"]
        rows.append((name, result, failed_frac))
        print(f"== {name}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} "
              f"failed_frac={failed_frac:.4f} ratio")
        for metric, m in result["metrics"].items():
            print(f"   {metric:48s} {m['value']:>14.6g} {m['unit']}")
    qps = {name: r["metrics"].get("questions_per_s", {}).get("value")
           for name, r, _ in rows}
    exact, flt = qps.get("session_finite_exact"), qps.get("session_finite_float")
    if exact and flt:
        print(f"== float/exact questions_per_s ratio: {flt / exact:.3f}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-one-verdict", action="store_true",
                        help="self-test: alter one verdict before checking")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
