#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of the library).

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs one pass (``--seconds 0``) untraced and
traced, each in its own process, and asserts that the last output line
is the result object with every metric of BENCHMARK.json, with its
unit.  It then alters one verdict inside the benchmark's own checking
code (``--corrupt-one-verdict``) and asserts that the run fails and
counts more failed questions than the clean run.  Last, it copies only
BENCHMARK.json and this directory to a scratch directory and asserts
that the benchmark refuses to run there without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("session_finite_exact", "session_finite_float",
             "cli_polytope_exact", "verify_suite")


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def expect_metrics(result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{what}: metrics {got} != declared {want}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, (what, name, m)
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
            (what, name, m)


def check_quantiles():
    """The Harrell-Davis estimate against values computed with
    ``scipy.stats.mstats.hdquantiles``, and the failed-question rule."""
    sys.path.insert(0, HERE)
    from run import latency_quantile

    assert abs(latency_quantile([1, 2, 3, 50, 60], 0.5) - 18.12352) < 1e-4
    assert abs(latency_quantile([3, 1, 2, 60, 50], 0.5) - 18.12352) < 1e-4
    assert latency_quantile([1, 2, 3, math.inf], 0.9) == math.inf
    assert latency_quantile([1, 2, 3, math.inf], 0.5) < 3
    print("ok quantiles: Harrell-Davis estimate and failed questions")


def main() -> int:
    check_quantiles()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in WORKLOADS:
        clean = None
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc, lines = bench("--workload", name, "--seed", "0",
                                "--seconds", "0", "--trace", trace)
            assert proc.returncode == 0, (name, trace, proc.stdout, proc.stderr)
            result = result_of(lines)
            assert result["correct"], (name, trace, proc.stdout)
            expect_metrics(result, declared, f"{name} trace={trace}")
            if trace == "0":
                clean = result
        proc, lines = bench("--workload", name, "--seed", "0", "--seconds", "0",
                            "--trace", "0", "--corrupt-one-verdict")
        bad = result_of(lines)
        assert proc.returncode == 1 and not bad["correct"], (name, proc.stdout)
        assert bad["failed"] > clean["failed"], (name, bad, clean)
        print(f"ok {name}: metrics and units present; a corrupted verdict "
              f"is counted ({clean['failed']} -> {bad['failed']} failed)")

    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, lines = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds",
                        "1", "--trace", "0", cwd=bare,
                        script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not any(l.startswith("{") for l in lines), \
        (proc.returncode, proc.stdout)
    print("ok bare directory: refused without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
