"""Benchmark of the ``regularflow`` CLI on three closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload validate_suite --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout and its CLI is called
in-process (``regularflow.cli.main``), one operation after another.  Inputs
are the bundled scenarios plus seeded variants written under
``.perfbench_out/``, which the run removes when it ends.

Set-up (re-import of ``regularflow``, writing and loading every scenario,
one warm-up operation) runs ``SETUP_REPEATS`` times; ``setup_s`` is the
median.  Then
whole passes run until ``--seconds`` have gone by; the pass under way then
is finished, so there is always at least one.  A pass shorter than
``--seconds`` is thus measured at least twice.  With ``--trace 0`` the last line reports the
end-to-end metrics.  With ``--trace 1`` each operation of one pass runs
once untraced and once traced instead, and the last line reports the
per-layer metrics.

Every operation goes through the correctness gate (``gate.py``): ``failed``
counts operations that exited 3 or raised, and ``correct`` is false when any
operation gave a wrong verdict or exit code, or files that differ from the
reference: for a bundled scenario the SHA-256 digests recorded when the
benchmark was defined (``baseline/digests.json``, written by
``record_digests.py``), for a seeded variant the first run of the same
operation in this run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gate import Judgement, digest, judge  # noqa: E402
from scenarios import write_cases  # noqa: E402
from tracer import (  # noqa: E402
    CRITERIA, LAYERS, PACKAGE, ROOT as OUTSIDE, Tracer, wrappers_left)
from workloads import WARMUP, WORKLOADS, cases_for, ops_for  # noqa: E402

SETUP_REPEATS = 9
DIGESTS = os.path.join(HERE, "baseline", "digests.json")

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "op_p50_s": "s", "op_p90_s": "s",
    "fail_frac": "ratio", "wrong_frac": "ratio", "contract_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def import_program():
    """Fresh import of the CLI module from ``src/``."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE + ".cli")


def seed_digests():
    """Recorded artifact digests of every bundled operation, by
    ``<command>/<scenario>``."""
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Runs operations, judges them and keeps the run's tallies.  The files
    of an operation named in ``reference`` must have its digests; any other
    operation's must have those of its first run."""

    def __init__(self, work, reference=None):
        self.work = work
        self.cli = None
        self.reference = reference or {}
        self.first_hashes = dict(self.reference)
        self.latencies = []
        self.attempted = self.failed = self.wrong = 0
        self.contract = []
        self.problems = []

    def run_op(self, op, tracer=None):
        """Run one operation; returns its wall time in seconds and whether
        it failed."""
        elapsed, verdicts = 0.0, []
        for command in op.commands:
            out = os.path.join(self.work, "out", command, op.case.name)
            if os.path.isdir(out):
                shutil.rmtree(out)
            sink = io.StringIO()
            sid = tracer.open(OUTSIDE, command) if tracer else None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    code = self.cli.main(op.argv(command, out))
            except Exception as exc:  # the gate counts it as a failure
                code = exc
            finally:
                elapsed += time.perf_counter() - t0
                if tracer:
                    tracer.close(sid)
            verdicts.append(self.judge_command(command, op, code, out))
        self.attempted += 1
        status = next((s for s in ("failed", "wrong")
                       if any(v.status == s for v in verdicts)), "ok")
        self.failed += status == "failed"
        self.wrong += status == "wrong"
        return elapsed, status == "failed"

    def judge_command(self, command, op, code, out):
        """Gate one command's exit code and files, then delete the files."""
        key = f"{command}/{op.case.name}"
        try:
            verdict = judge(command, op.case, code, out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            verdict = Judgement("wrong", f"unreadable output: {exc!r}")
        if verdict.status == "ok":
            hashes = digest(out)
            first = self.first_hashes.setdefault(key, hashes)
            if first != hashes:
                verdict = Judgement("wrong", "files differ from the " + (
                    "recorded digests" if key in self.reference else "first run"))
        shutil.rmtree(out, ignore_errors=True)
        if verdict.status != "ok":
            self.problems.append(f"{verdict.status}: {key}: {verdict.reason}")
        self.contract += [(ratio, key) for ratio in verdict.contract]
        return verdict

    def run_pass(self, ops, tracer=None):
        """Run every operation of a pass; returns the summed wall time.
        Failed operations count in the pass but give no latency sample."""
        total = 0.0
        for op in ops:
            dt, failed = self.run_op(op, tracer)
            total += dt
            if not failed:
                self.latencies.append(dt)
        return total


def set_up(runner, workload, seed):
    """One set-up: import, scenario generation and loading, warm-up."""
    runner.cli = import_program()
    scenario_dir = os.path.join(runner.work, "scenarios")
    cases = cases_for(workload, seed)
    for path in write_cases(cases, os.path.join(ROOT, "scenarios"), scenario_dir):
        runner.cli.load_scenario(path)
    ops = ops_for(workload, cases, scenario_dir)
    runner.run_op(next(op for op in ops if op.case.name == WARMUP[workload]))
    return ops


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner, setup_times, pass_times):
    lat = runner.latencies
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_times),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": percentile(lat, 90),
        "fail_frac": runner.failed / runner.attempted,
        "wrong_frac": runner.wrong / runner.attempted,
        "contract_ratio": max(runner.contract, default=(0.0, None))[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(summary, untraced_s):
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    self_s, incl, calls = summary["self_s"], summary["incl"], summary["calls"]
    counters = summary["counters"]

    def counter(layer, name, i):
        return counters.get((layer, name), [0, 0.0, 0])[i]

    def n_calls(layer, names=None):
        return sum(c for (l, n), c in calls.items()
                   if l == layer and (names is None or n in names))

    quad_calls = n_calls("quadrature")
    quadpack = counter("quadrature", "_scipy_quad", 0)
    m = {
        "expressions.calls": (counter("expressions", "Expression.__call__", 0), "count"),
        "expressions.points": (counter("expressions", "Expression.__call__", 2), "count"),
        "quadrature.calls": (quad_calls, "count"),
        "quadrature.quadpack_calls": (quadpack, "count"),
        "quadrature.quadpack_per_call": (quadpack / quad_calls if quad_calls else 0.0,
                                         "ratio"),
        "quadrature.failures": (summary["quad_failures"], "count"),
        "regularity.criteria": (n_calls("regularity", CRITERIA), "count"),
        "simulator.ensemble_s": (incl.get(("simulator", "simulate_ensemble"), 0.0), "s"),
        "simulator.detect_s": (summary["detect_s"], "s"),
        "simulator.ivp_calls": (counter("simulator", "solve_ivp", 0), "count"),
        "simulator.ivp_nfev": (counter("simulator", "solve_ivp", 2), "count"),
        "field.invert_calls": (n_calls("field", {"invert_flow_1d"}), "count"),
        "field.brentq_calls": (counter("field", "brentq", 0), "count"),
        "field.ivp_nfev": (counter("field", "solve_ivp", 2), "count"),
        "scenario.load_s": (incl.get(("scenario", "load_scenario"), 0.0), "s"),
        "scenario.report_s": (incl.get(("scenario", "assumptions_report"), 0.0), "s"),
        "io.write_s": (sum(v for (l, _), v in incl.items() if l == "io"), "s"),
        "io.bytes_written": (summary["bytes_written"], "B"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["trace.outside_s"] = (self_s[OUTSIDE], "s")
    m["trace.pass_s"] = (summary["pass_s"], "s")
    m["trace.overhead_ratio"] = (summary["pass_s"] / untraced_s, "ratio")
    return m


def measure(workload, seed, seconds, trace, work):
    runner = Runner(work, seed_digests())
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = set_up(runner, workload, seed)
        setup_times.append(time.perf_counter() - t0)
    if not trace:
        pass_times = []
        start = time.perf_counter()
        while True:
            pass_times.append(runner.run_pass(ops))
            if time.perf_counter() - start >= seconds:
                break
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in
                   end_to_end(runner, setup_times, pass_times).items()}
        info = [f"passes: {len(pass_times)}",
                f"operations: {runner.attempted} attempted, {runner.failed} "
                f"failed, {runner.wrong} wrong",
                f"op latency samples: {len(runner.latencies)}",
                f"contract_ratio worst: {max(runner.contract, default=(0.0, None))[1]}"]
    else:
        # each operation runs once untraced and once traced, alternating
        # which goes first, so drift in machine speed hits both sums alike
        tracer = Tracer()
        untraced = 0.0
        for i, op in enumerate(ops):
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                if on:
                    with tracer:
                        runner.run_op(op, tracer)
                else:
                    untraced += runner.run_op(op)[0]
        left = wrappers_left()
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left}")
        summary = tracer.summary()
        metrics = per_layer(summary, untraced)
        info = [f"spans: {len(tracer.start)}",
                f"untraced pass: {untraced!r} s",
                f"quadrature.quadpack_per_call base: "
                f"{metrics['quadrature.calls'][0]} quadrature calls",
                f"self times: " + " ".join(
                    f"{k}={v:.6f}" for k, v in summary["self_s"].items()),
                f"self times sum: {sum(summary['self_s'].values())!r} s "
                f"of traced pass {summary['pass_s']!r} s"]
    return runner, metrics, info


def declared(kind):
    """Names of the ``kind`` metrics in BENCHMARK.json, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def report(header, runner, metrics, info, kind):
    """Print the run's notes and every metric with its unit, then, last,
    the one-line JSON result with the metrics BENCHMARK.json declares."""
    print(header)
    for line in info + runner.problems:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in declared(kind)},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, PACKAGE)) or \
            not os.path.isdir(os.path.join(ROOT, "scenarios")):
        print(f"error: no {PACKAGE} sources or bundled scenarios under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # one caller, one thread: keep the BLAS libraries numpy and scipy load
    # from starting worker threads of their own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    work = os.path.join(ROOT, ".perfbench_out",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        runner, metrics, info = measure(args.workload, args.seed, args.seconds,
                                        args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    report(f"workload: {args.workload} seed: {args.seed} trace: {args.trace}",
           runner, metrics, info, "per_layer" if args.trace else "end_to_end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
