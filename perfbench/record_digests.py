"""Record the artifact digests of every bundled operation.

    python3 perfbench/record_digests.py

Runs each workload's operations on the bundled scenarios twice, from the
root of the repository, and writes the SHA-256 digests of their files to
``perfbench/baseline/digests.json``.  ``run.py`` then requires the same
digests of every bundled operation it runs.  The second run must give the
first run's digests; the script fails, and writes nothing, when it does not
or when an operation gives a wrong verdict or exit code.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import run
from scenarios import bundled_cases, write_cases
from workloads import WORKLOADS, cases_for, ops_for


def main():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    work = os.path.join(run.ROOT, ".perfbench_out", f"digests-{os.getpid()}")
    bundled = {c.name for c in bundled_cases()}
    runner = run.Runner(work)
    runner.cli = run.import_program()
    try:
        for workload in WORKLOADS:
            cases = [c for c in cases_for(workload, 0) if c.name in bundled]
            scenario_dir = os.path.join(work, "scenarios")
            write_cases(cases, os.path.join(run.ROOT, "scenarios"), scenario_dir)
            for _ in range(2):
                runner.run_pass(ops_for(workload, cases, scenario_dir))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    if runner.wrong:
        print("\n".join(runner.problems), file=sys.stderr)
        return 1
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(runner.first_hashes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(runner.first_hashes)} operations, "
          f"{runner.failed // 2} failed (no digest): {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
