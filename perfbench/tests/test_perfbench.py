"""Tests of the benchmark harness itself.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

import run
from gate import judge
from scenarios import Case, bundled_cases, write_cases
from tracer import Tracer, wrappers_left
from workloads import WORKLOADS, cases_for, ops_for

ROOT = os.path.dirname(run.HERE)
BUNDLED = os.path.join(ROOT, "scenarios")


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_scenarios(tmp_path, workload):
    write_cases(cases_for(workload, 7), BUNDLED, str(tmp_path / "a"))
    write_cases(cases_for(workload, 7), BUNDLED, str(tmp_path / "b"))
    write_cases(cases_for(workload, 8), BUNDLED, str(tmp_path / "c"))
    a, b, c = (_files(str(tmp_path / d)) for d in "abc")
    assert a == b
    assert a != c


def _runner(tmp_path):
    runner = run.Runner(str(tmp_path / "work"))
    runner.cli = run.import_program()
    return runner


def _write(directory, name, text):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write(text)


VALIDATE_TXT = """command: validate
seed: 0
scenario: one_gap_collide.json
analytic outcome: {outcome}
analytic criterion: one-gap-zero-velocity
analytic margin: -0.5
analytic witness: pair=(0.9999999, 1.0) time=3.0000000782
oracle found: yes t_first: 3.000000078247786 mode: Asymptotic
status: AGREE
---
"""


def test_gate_flags_an_injected_wrong_verdict(tmp_path):
    case = next(c for c in bundled_cases() if c.name == "one_gap_collide")
    good, bad = str(tmp_path / "good"), str(tmp_path / "bad")
    _write(good, "validate.txt", VALIDATE_TXT.format(outcome="Collision"))
    _write(bad, "validate.txt", VALIDATE_TXT.format(outcome="Regular"))
    assert judge("validate", case, 0, good).status == "ok"
    assert judge("validate", case, 0, bad).status == "wrong"
    _write(bad, "collision.txt", "found: no\nt_first: none\n")
    assert judge("simulate", case, 0, bad).status == "wrong"
    assert judge("validate", case, 3, good).status == "failed"
    runner = _runner(tmp_path)
    op = ops_for("simulate_csv", [case], str(tmp_path))[0]
    assert runner.judge_command("simulate", op, 1, good).status == "wrong"


def test_gate_flags_an_artifact_with_one_byte_changed(tmp_path):
    runner = _runner(tmp_path)
    op = ops_for("validate_suite", [Case(name="probe")], str(tmp_path))[0]
    out = str(tmp_path / "out")
    text = "command: report\nscenario: probe.json\n"
    for edited in (text, text, text.replace("probe", "prose")):
        _write(out, "assumptions.txt", edited)
        verdict = runner.judge_command("report", op, 0, out)
    assert verdict.status == "wrong"
    assert runner.problems == ["wrong: report/probe: files differ from the first run"]


def test_gate_holds_bundled_operations_to_the_recorded_digests(tmp_path):
    digests = run.seed_digests()
    # every bundled operation but the two known field failures has digests
    expected = {f"{command}/{op.case.name}"
                for w in WORKLOADS
                for op in ops_for(w, cases_for(w, 0), str(tmp_path))
                if op.case.data is None
                for command in op.commands}
    assert set(digests) == expected - {"field/smooth_collide",
                                       "field/smooth_regular"}
    # a file with the recorded digest passes, one byte changed does not
    text = "command: report\nscenario: probe.json\n"
    reference = {"report/probe": {"assumptions.txt": hashlib.sha256(
        text.encode()).hexdigest()}}
    runner = run.Runner(str(tmp_path / "work"), reference)
    op = ops_for("validate_suite", [Case(name="probe")], str(tmp_path))[0]
    out = str(tmp_path / "out")
    for edited, status in ((text, "ok"), (text.replace("probe", "prose"), "wrong")):
        _write(out, "assumptions.txt", edited)
        assert runner.judge_command("report", op, 0, out).status == status
    assert runner.problems == [
        "wrong: report/probe: files differ from the recorded digests"]


def test_no_wrapper_stays_installed_after_a_traced_run(tmp_path):
    runner = _runner(tmp_path)
    cli = runner.cli
    expression = sys.modules["regularflow.expressions"].Expression

    def bound():
        return (cli.load_scenario, cli._write, cli.simulator.solve_ivp,
                cli.field_mod.brentq, cli.quadrature._scipy_quad,
                vars(cli.regularity.quadrature)["potential"],
                vars(expression)["__call__"])

    originals = bound()
    cases = [c for c in bundled_cases() if c.name == "blowup"]
    write_cases(cases, BUNDLED, str(tmp_path / "s"))
    op = ops_for("validate_suite", cases, str(tmp_path / "s"))[0]
    tracer = Tracer()
    with tracer:
        assert all(a is not b for a, b in zip(bound(), originals))
        runner.run_op(op, tracer)
    assert runner.wrong == runner.failed == 0
    assert wrappers_left() == []
    assert all(a is b for a, b in zip(bound(), originals))
    summary = tracer.summary()
    assert summary["calls"][("scenario", "assumptions_report")] == 1
    assert summary["counters"][("expressions", "Expression.__call__")][0] > 0
    # the layers' self times and the time outside them add up to the op
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert len(roots) == 2  # report, then validate
    assert summary["pass_s"] == pytest.approx(
        sum(tracer.end[i] - tracer.start[i] for i in roots), rel=1e-12)
    assert sum(summary["self_s"].values()) == pytest.approx(summary["pass_s"],
                                                            rel=1e-9)


def test_tracing_refuses_a_program_without_a_wrapped_function(tmp_path,
                                                              monkeypatch):
    cli = _runner(tmp_path).cli
    monkeypatch.delattr(cli.simulator, "asymptotic_verdict_1d")
    with pytest.raises(LookupError, match="simulator.asymptotic_verdict_1d"):
        with Tracer():
            pass
    assert wrappers_left() == []


def test_every_metric_is_printed_with_its_name_and_unit(tmp_path):
    runner = run.Runner(str(tmp_path))
    runner.attempted, runner.latencies = 3, [0.5, 1.0, 2.0]
    runner.contract = [(0.25, "validate/x")]
    e2e = {k: (v, run.END_TO_END_UNITS[k]) for k, v in
           run.end_to_end(runner, [0.1, 0.2, 0.3], [3.5]).items()}
    layers = run.per_layer(Tracer().summary(), 1.0)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for kind, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            run.report("header", runner, metrics, ["note"], kind)
        lines = buf.getvalue().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        declared = {m["name"]: m["unit"] for m in manifest[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for name, (_, unit) in metrics.items():
            assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}")
                       for line in lines[:-1])
