"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 perfbench/steady.py --workload simulate_csv --seeds 1-10 [--out FILE]

Runs ``perfbench/run.py`` one seed after another (never in parallel, so
the runs do not compete for the cores) with ``run_seconds`` from
``BENCHMARK.json``, and prints for each end-to-end metric, the printed-only
ones included, the median and the spread: the distance between the first
and third quartile of the values (``statistics.quantiles(values, n=4)``)
over their median.  ``--out`` writes every run's result line, with the
printed metrics added under ``printed``, and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import END_TO_END_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if not med:
        return 0.0 if q[2] == q[0] else float("inf")
    return (q[2] - q[0]) / med


def printed_metrics(lines):
    """The end-to-end metrics a run printed as ``name: value unit``."""
    out = {}
    for line in lines:
        name, _, rest = line.partition(": ")
        if name in END_TO_END_UNITS:
            value, _, unit = rest.partition(" ")
            out[name] = {"value": float(value), "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, required=True,
                        help="inclusive range such as 1-10")
    parser.add_argument("--out", help="write runs and summary as JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["printed"] = printed_metrics(lines[:-1])
        result["seed"] = seed
        result["wall_s"] = time.perf_counter() - t0
        runs.append(result)
        print(seed, f"{result['wall_s']:.1f}s", result["correct"],
              result["attempted"], result["failed"],
              {k: round(v["value"], 4) for k, v in result["metrics"].items()},
              flush=True)

    summary = {}
    for name in END_TO_END_UNITS:
        values = [r["printed"][name]["value"] for r in runs]
        summary[name] = {"median": statistics.median(values),
                         "spread": spread(values) if len(values) > 1 else 0.0,
                         "unit": END_TO_END_UNITS[name]}
        print(f"{name}: median {summary[name]['median']:.6g} "
              f"spread {summary[name]['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "run_seconds": seconds, "runs": runs,
                       "summary": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
