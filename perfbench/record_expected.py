#!/usr/bin/env python3
"""Record the verdicts of the default seed into expected_verdicts.json.

Run from the root of a checkout, at the commit whose verdicts are the
reference (exact mode; the float workload is compared with the same
digests):

    python3 perfbench/record_expected.py

Questions the library refuses (size caps) get no entry; runs that reach
a pass beyond the recorded ones check those answers by the oracle only.
Refuses to write anything if an answer fails the correctness gate.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

PASSES = {"session_finite": 30, "cli_polytope": 12, "verify_suite": 6}


def main() -> int:
    run.import_library()
    from workloads import WORKLOADS

    out = {}
    for family, workload in (("session_finite", "session_finite_exact"),
                             ("cli_polytope", "cli_polytope_exact"),
                             ("verify_suite", "verify_suite")):
        wl = WORKLOADS[workload]
        workdir = run.fresh_dir(os.path.join(run.WORK, "record"))
        records = []
        for pass_idx in range(PASSES[family]):
            sessions, _ = run.build(wl, run.DEFAULT_SEED, pass_idx, workdir)
            run.ask_all(wl, sessions, records)
        gate, digests = run.check(wl, records)
        if gate.problems:
            print(f"{workload}: {len(gate.problems)} answers fail the gate; "
                  "nothing written", file=sys.stderr)
            return 1
        out[family] = dict(sorted(digests.items()))
        print(f"{family}: {len(digests)} verdicts from {PASSES[family]} passes")
    shutil.rmtree(workdir, ignore_errors=True)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
