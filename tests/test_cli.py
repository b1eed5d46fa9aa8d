"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import hashlib
import json
import math

import pytest

import regularflow.cli as cli
from regularflow.cli import main
from regularflow.regularity import REGULAR, Verdict
from regularflow.scenario import TWO_GAP_BOUND

from conftest import REPO_ROOT, SCENARIO_DIR, STEP_AT_REST, scenario_path

# SHA-256 of the artifacts of the bundled scenarios, recorded for the
# benchmark's byte gate; read only
DIGESTS = json.loads(
    (REPO_ROOT / "perfbench" / "baseline" / "digests.json").read_text())


def _write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _two_gap_payload(b=3.0):
    return {"domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
            "force": {"kind": "two_gap", "f1": 2.0, "f2": 1.0, "f3": 3.0,
                      "a": 2.0, "b": b},
            "velocity": "0", "horizon": "inf", "grid": [11]}


def _variable_mass_gap_payload():
    return {"domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
            "force": {"kind": "one_gap", "f1": 1.0, "f2": 2.0, "a": 2.0},
            "velocity": "0", "mass": "1 + x", "horizon": 3.0, "grid": [11]}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _grab(path, key):
    for line in path.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"{key} not found in {path}")


#############################################################
# check
#############################################################


def test_check_regular_exit_and_margin(tmp_path):
    p = _write_json(tmp_path, "tg.json", _two_gap_payload())
    code = main(["check", "--scenario", p, "--out", str(tmp_path)])
    assert code == 0
    out = tmp_path / "verdict.txt"
    assert _grab(out, "outcome") == "Regular"
    assert _grab(out, "criterion") == "two-gap-bound"
    # alpha (a - 1) - (b - a) with alpha = 14/9: exactly 5/9 in floats
    assert float(_grab(out, "margin")) == pytest.approx(5.0 / 9.0, rel=1e-15)
    assert any(line.startswith("trace:")
               for line in out.read_text().splitlines())


def test_check_collision_exit(tmp_path):
    code = main(["check", "--scenario", scenario_path("one_gap_collide"),
                 "--out", str(tmp_path)])
    assert code == 1
    out = tmp_path / "verdict.txt"
    assert _grab(out, "outcome") == "Collision"
    assert "time=" in _grab(out, "witness")


def test_check_inconclusive_exit(tmp_path):
    p = _write_json(tmp_path, "vm.json", _variable_mass_gap_payload())
    code = main(["check", "--scenario", p, "--out", str(tmp_path)])
    assert code == 2
    assert _grab(tmp_path / "verdict.txt", "outcome") == "Inconclusive"


def test_check_unknown_force_kind(tmp_path, capsys):
    payload = _two_gap_payload()
    payload["force"] = {"kind": "warp_drive"}
    p = _write_json(tmp_path, "bad.json", payload)
    code = main(["check", "--scenario", p, "--out", str(tmp_path)])
    assert code == 3
    assert "unknown force kind 'warp_drive'" in capsys.readouterr().err


def test_check_expression_error_names_position(tmp_path, capsys):
    payload = _two_gap_payload()
    payload["velocity"] = "x +* 2"
    p = _write_json(tmp_path, "bad.json", payload)
    code = main(["check", "--scenario", p, "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "expression parse failure" in err
    assert "line 1" in err and "column 4" in err
    assert err.count("line 1, column 4") == 1


def test_check_missing_file_and_bad_grid(tmp_path, capsys):
    assert main(["check", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 3
    p = _write_json(tmp_path, "tg.json", _two_gap_payload())
    assert main(["check", "--scenario", p, "--out", str(tmp_path),
                 "--grid", "2"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["simulate", "validate", "field"])
@pytest.mark.parametrize("flag,value", [
    ("--horizon", "-1"), ("--horizon", "0"), ("--horizon", "nan"),
    ("--horizon", "-inf"), ("--tol-collision", "0"),
    ("--tol-collision", "-0.5"), ("--tol-collision", "nan"),
    ("--tol-collision", "1"),
])
def test_out_of_range_flags_are_usage_errors(tmp_path, capsys, command, flag,
                                             value):
    assert main([command, "--scenario", scenario_path("smooth_regular"),
                 "--out", str(tmp_path), f"{flag}={value}"]) == 3
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# a bundled scenario, the dotted key of one of its values and the JSON text
# that replaces that value: a value of the wrong type or out of range
@pytest.mark.parametrize("name,key,text", [
    ("one_gap_regular", "grid", '["a"]'),
    ("one_gap_regular", "grid", "[null]"),
    ("one_gap_regular", "grid", "1e400"),
    ("one_gap_regular", "grid", "[2.5]"),
    ("one_gap_regular", "domain.lower", '["a"]'),
    ("central_regular", "domain.r_inner", '"a"'),
    ("one_gap_regular", "force.f1", '"x"'),
    ("halfspace_regular", "force.a", '"b"'),
    ("halfspace_regular", "force.axis", '"y"'),
    ("halfspace_regular", "force.axis", "1.5"),
    ("halfspace_regular", "force", '{"kind": "constant", "vector": ["a", 1]}'),
    ("halfspace_regular", "velocity", '["a", 0]'),
    ("halfspace_regular", "velocity", '{"matrix": [["a", 0], [0, 0]]}'),
    ("linear_monotone", "force.matrix", '[["a", 0], [0, 1]]'),
])
def test_malformed_values_are_parse_errors(tmp_path, capsys, name, key,
                                           text):
    data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    *parents, last = key.split(".")
    node = data
    for k in parents:
        node = node[k]
    node[last] = "@value@"
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data).replace('"@value@"', text))
    out = tmp_path / "out"
    assert main(["check", "--scenario", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not list(out.glob("*"))


def test_check_runs_are_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(["check", "--scenario", scenario_path("smooth_regular"),
                     "--out", str(out)])
        assert code == 0
        outs.append((out / "verdict.txt").read_bytes())
    assert outs[0] == outs[1]


def test_scalar_division_by_zero_is_a_data_error(tmp_path, capsys):
    # the margin search evaluates v at x = 0.5 itself; that must read as a
    # data error (3), not as the exit code of a found collision (1)
    payload = {"domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
               "force": {"kind": "smooth1d", "f": "1/(2 + y*y)"},
               "velocity": "1/(x - 0.5)^2", "horizon": 6.0}
    p = _write_json(tmp_path, "pole.json", payload)
    code = main(["validate", "--scenario", p, "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "'1/(x - 0.5)^2'" in err and "0.5" in err
    assert "division by zero" in err


def test_complex_intermediate_power_is_a_data_error(tmp_path, capsys):
    # sqrt of the complex power at x < 0 used to pass as its real part
    payload = {"domain": {"kind": "box", "lower": [-1.0], "upper": [1.0]},
               "force": {"kind": "smooth1d", "f": "1"},
               "velocity": "sqrt(x^0.5)", "horizon": 2.0}
    p = _write_json(tmp_path, "complex.json", payload)
    code = main(["check", "--scenario", p, "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "'sqrt(x^0.5)'" in err and "complex" in err


#############################################################
# simulate
#############################################################


def test_simulate_collision_artifacts(tmp_path):
    code = main(["simulate", "--scenario", scenario_path("arctan_collide"),
                 "--out", str(tmp_path), "--grid", "201"])
    assert code == 1
    report = tmp_path / "collision.txt"
    assert _grab(report, "found") == "yes"
    assert float(_grab(report, "t_first")) == pytest.approx(1.0, abs=0.01)
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,particle_index,x0,y,v"


def test_simulate_regular_exit(tmp_path):
    code = main(["simulate", "--scenario", scenario_path("smooth_regular"),
                 "--out", str(tmp_path), "--grid", "41"])
    assert code == 0
    assert _grab(tmp_path / "collision.txt", "found") == "no"


# README "Bundled scenarios": simulate exits 1 where the verdict is a collision
SIMULATE_EXIT = {
    "arctan_collide": 1, "blowup": 0, "central_regular": 0,
    "halfspace_collide": 1, "halfspace_regular": 0, "linear_monotone": 0,
    "one_gap_collide": 1, "one_gap_regular": 0, "smooth_collide": 1,
    "smooth_regular": 0, "two_gap_collide": 1, "two_gap_regular": 0,
    "variable_mass_collide": 1,
}


def test_simulate_exit_table_lists_every_bundled_scenario():
    assert sorted(SIMULATE_EXIT) == sorted(
        p.stem for p in SCENARIO_DIR.glob("*.json"))


@pytest.mark.parametrize("name", sorted(SIMULATE_EXIT))
def test_simulate_runs_are_byte_identical_on_every_bundled_scenario(
        tmp_path, name):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(["simulate", "--scenario", scenario_path(name),
                     "--out", str(out), "--grid", "9"])
        assert code == SIMULATE_EXIT[name]
        outs.append([(out / f).read_bytes()
                     for f in ("trajectory.csv", "collision.txt")])
    assert outs[0] == outs[1]


# the simulate runs that integrate Newton's equation (the 1D smooth
# flows, the multi-d flow and the radial ensemble) and one with a mass
# profile
@pytest.mark.parametrize("name", ["smooth_collide", "variable_mass_collide",
                                  "blowup", "linear_monotone",
                                  "central_regular"])
def test_simulate_writes_the_recorded_digest(tmp_path, name):
    code = main(["simulate", "--scenario", scenario_path(name),
                 "--out", str(tmp_path)])
    assert code == SIMULATE_EXIT[name]
    for f, digest in DIGESTS[f"simulate/{name}"].items():
        assert _sha256(tmp_path / f) == digest


def test_infinite_horizon_flag_matches_an_infinite_scenario_horizon(
        tmp_path):
    # one_gap_regular's file already says "inf"
    outs = []
    for sub, extra in (("file", []), ("flag", ["--horizon", "inf"])):
        out = tmp_path / sub
        assert main(["simulate", "--scenario",
                     scenario_path("one_gap_regular"),
                     "--out", str(out)] + extra) == 0
        outs.append([(out / f).read_bytes()
                     for f in ("trajectory.csv", "collision.txt")])
    assert outs[0] == outs[1]


def test_infinite_horizon_flag_simulates_on_the_default_horizon(tmp_path):
    # linear_monotone has no infinite-horizon verdict: --horizon inf runs
    # on the default horizon 10
    outs = []
    for horizon in ("inf", "10"):
        out = tmp_path / horizon
        assert main(["simulate", "--scenario",
                     scenario_path("linear_monotone"),
                     "--out", str(out), "--horizon", horizon]) == 0
        outs.append([(out / f).read_bytes()
                     for f in ("trajectory.csv", "collision.txt")])
    assert outs[0] == outs[1]


def test_exact_multid_detection_decides_an_infinite_horizon(tmp_path):
    # halfspace_collide with forces a tenth as strong, released at rest:
    # the first collision comes at t = 13.69, past the default horizon 10,
    # and the exact half-space oracle finds it on an infinite horizon
    with open(scenario_path("halfspace_collide"), encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["force"].update(f1=[0.0, 0.1], f2=[0.3, 0.05])
    payload["horizon"] = "inf"
    p = _write_json(tmp_path, "slow.json", payload)
    texts = []
    for sub, extra in (("file", []), ("flag", ["--horizon", "inf"])):
        out = tmp_path / sub
        assert main(["validate", "--scenario", p, "--out", str(out)]
                    + extra) == 0
        texts.append((out / "validate.txt").read_text())
    assert texts[0] == texts[1]
    assert "status: AGREE" in texts[0]
    assert main(["simulate", "--scenario", p,
                 "--out", str(tmp_path / "sim")]) == 1
    t_first = float(_grab(tmp_path / "sim" / "collision.txt", "t_first"))
    assert t_first == pytest.approx(13.69, abs=0.01)


def test_infinite_horizon_flag_validates_on_the_default_horizon(tmp_path):
    code = main(["validate", "--scenario", scenario_path("smooth_regular"),
                 "--out", str(tmp_path), "--horizon", "inf"])
    assert code == 0
    assert "status: AGREE" in (tmp_path / "validate.txt").read_text()


def test_simulate_without_uniform_mass_detects_on_the_default_horizon(
        tmp_path):
    # no infinite-horizon verdict without a shared acceleration: simulate
    # detects on horizon 10, as validate's oracle does
    payload = dict(_variable_mass_gap_payload(), horizon="inf")
    p = _write_json(tmp_path, "vm.json", payload)
    code = main(["simulate", "--scenario", p, "--out", str(tmp_path / "sim")])
    assert code == 1
    main(["validate", "--scenario", p, "--out", str(tmp_path / "val")])
    t_first = _grab(tmp_path / "sim" / "collision.txt", "t_first")
    assert f"oracle found: yes t_first: {t_first} mode: Exact" in \
        (tmp_path / "val" / "validate.txt").read_text().splitlines()


@pytest.mark.parametrize("horizon,code", [("2", 0), ("5", 1)])
def test_simulate_horizon_flag_bounds_the_detection(tmp_path, horizon, code):
    # one_gap_collide collides at t = 3.0 on its infinite horizon; a
    # --horizon is the detection horizon, not the asymptotic verdict's
    assert main(["simulate", "--scenario", scenario_path("one_gap_collide"),
                 "--horizon", horizon, "--out", str(tmp_path)]) == code
    if code:
        t_first = float(_grab(tmp_path / "collision.txt", "t_first"))
        assert t_first == pytest.approx(3.0, abs=1e-3)


@pytest.mark.parametrize("extra,codes", [
    ({"velocity": "-x"}, {"check": 1, "validate": 0, "simulate": 1}),
    # no criterion covers a constant force on varying mass
    ({"velocity": "0", "mass": "1 + x"},
     {"check": 2, "validate": 0, "simulate": 1}),
])
def test_one_dimensional_constant_force_exit_codes(tmp_path, extra, codes):
    # a 1D constant force answers with its 1-vector
    p = _write_json(tmp_path, "c.json", dict(
        {"domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
         "force": {"kind": "constant", "vector": [1.0]}, "horizon": "inf"},
        **extra))
    for command, code in codes.items():
        assert main([command, "--scenario", p,
                     "--out", str(tmp_path / command)]) == code


@pytest.mark.parametrize("force,velocity,codes", [
    ({"kind": "smooth1d", "f": "1/(2 + y*y)"}, "1 + x",
     {"check": 0, "validate": 0, "simulate": 0}),
    # x^1.5 has no real value left of 0, where the central stencil of v'
    # reaches
    ({"kind": "one_gap", "f1": 1.0, "f2": 2.0, "a": 2.0}, "x^1.5",
     {"check": 0, "validate": 0, "simulate": 0}),
    ({"kind": "two_gap", "f1": 2.0, "f2": 1.0, "f3": 3.0, "a": 2.0,
      "b": 3.0}, "0", {"check": 0, "validate": 0, "simulate": 0}),
    ({"kind": "constant", "vector": [1.0]}, "1 - x/2",
     {"check": 1, "validate": 0, "simulate": 1}),
    ({"kind": "halfspace_step", "f1": [1.0], "f2": [1.0], "a": 2.0}, "x",
     {"check": 0, "validate": 0, "simulate": 0}),
    # y = x cos t: every label reaches 0 at t = pi/2
    ({"kind": "linear", "matrix": [[-1.0]]}, "0",
     {"check": 2, "validate": 0, "simulate": 1}),
])
def test_every_one_dimensional_force_kind_runs_every_command(
        tmp_path, force, velocity, codes):
    p = _write_json(tmp_path, "line.json", {
        "domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
        "force": force, "velocity": velocity, "horizon": 3.0, "grid": [33]})
    for command, code in dict(codes, report=0, field=0).items():
        out = tmp_path / command
        extra = ["--horizon", "1.5"] if command == "field" else []
        assert main([command, "--scenario", p, "--out", str(out)] + extra) \
            == code, command
    status = _grab(tmp_path / "validate" / "validate.txt", "status")
    assert status == ("UNDECIDED" if force["kind"] == "linear" else "AGREE")
    if force["kind"] == "linear":
        t_first = float(_grab(tmp_path / "simulate" / "collision.txt",
                              "t_first"))
        assert abs(t_first - math.pi / 2) <= 1e-6


@pytest.mark.parametrize("f1", [[1.0, 1.0], [1.0, 0.0]])
def test_halfspace_step_split_on_the_first_axis(tmp_path, f1):
    # the normal level drops from 1 to 0.5 across x_1 = 2
    p = _write_json(tmp_path, "hs.json", {
        "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "force": {"kind": "halfspace_step", "f1": f1, "f2": [0.5, 3.0],
                  "a": 2.0, "axis": 0},
        "velocity": [0.0, 0.0], "horizon": 10.0, "grid": [13, 13]})
    assert main(["check", "--scenario", p, "--out", str(tmp_path)]) == 1
    assert _grab(tmp_path / "verdict.txt", "criterion") == "halfspace-step"
    assert main(["validate", "--scenario", p, "--out", str(tmp_path)]) == 0
    assert _grab(tmp_path / "validate.txt", "status") == "AGREE"


def test_check_on_a_moving_one_dimensional_halfspace_step(tmp_path):
    p = _write_json(tmp_path, "hs.json", {
        "domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
        "force": {"kind": "halfspace_step", "f1": [1.0], "f2": [1.0],
                  "a": 2.0},
        "velocity": "x", "horizon": 10.0, "grid": [11]})
    assert main(["check", "--scenario", p, "--out", str(tmp_path)]) == 0
    assert _grab(tmp_path / "verdict.txt", "outcome") == "Regular"


#############################################################
# validate
#############################################################


def test_validate_agreement(tmp_path):
    code = main(["validate", "--scenario", scenario_path("one_gap_collide"),
                 "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "validate.txt").read_text()
    assert "status: AGREE" in text
    assert "oracle found: yes" in text


def test_validate_agrees_on_a_line_halfspace_step(tmp_path):
    # known defect 11: the step's oracle was the numeric flow
    p = _write_json(tmp_path, "step.json", STEP_AT_REST)
    assert main(["validate", "--scenario", p, "--out", str(tmp_path)]) == 0
    assert _grab(tmp_path / "validate.txt", "status") == "AGREE"
    assert _grab(tmp_path / "validate.txt", "oracle found") == \
        "yes t_first: 4.242737981268987 mode: Exact"


def test_validate_undecided_does_not_fail(tmp_path):
    p = _write_json(tmp_path, "vm.json", _variable_mass_gap_payload())
    code = main(["validate", "--scenario", p, "--out", str(tmp_path)])
    assert code == 0
    assert "status: UNDECIDED" in (tmp_path / "validate.txt").read_text()


def test_validate_directory_sorted_and_deterministic(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    _write_json(suite, "b_second.json", _two_gap_payload())
    payload = _two_gap_payload()
    payload["force"] = {"kind": "one_gap", "f1": 2.0, "f2": 1.0, "a": 2.0}
    _write_json(suite, "a_first.json", payload)
    blobs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        code = main(["validate", "--scenario", str(suite), "--out", str(out)])
        assert code == 0
        blobs.append((out / "validate.txt").read_bytes())
    assert blobs[0] == blobs[1]
    text = blobs[0].decode()
    assert text.index("scenario: a_first.json") < \
        text.index("scenario: b_second.json")
    assert text.count("status: AGREE") == 2


@pytest.mark.parametrize("name,lines", [
    ("smooth_regular", ["analytic margin: 0.5000000000022917"]),
    ("smooth_collide", [
        "analytic margin: -3.83720676877347",
        "analytic witness: x=1.0 y=11.0",
        "oracle found: yes t_first: 1.6133719424472206 mode: Numeric"]),
    ("variable_mass_collide", [
        "analytic margin: -2.1320071634933564",
        "oracle found: yes t_first: 1.4142784251327483 mode: Exact"]),
    # micro-pair witnesses and asymptotic verdicts of the exact arcs
    ("one_gap_collide", [
        "analytic witness: pair=(0.9999999, 1.0) time=3.0000000766453523",
        "oracle found: yes t_first: 3.000000078247786 mode: Asymptotic"]),
    ("two_gap_collide", [
        "analytic witness: pair=(0.9999999, 1.0) time=14.430144910815372",
        "oracle found: yes t_first: 14.430144710038 mode: Asymptotic"]),
    ("halfspace_collide", [
        "oracle found: yes t_first: 4.329260560141602 mode: Exact"]),
    ("arctan_collide", [
        "analytic witness: pair=(0.0, 1e-06) time=1.0000000000003333",
        "oracle found: yes t_first: 1.0000000000003333 mode: Asymptotic"]),
    ("one_gap_regular", ["oracle found: no t_first: none mode: Asymptotic"]),
    ("two_gap_regular", ["oracle found: no t_first: none mode: Asymptotic"]),
    ("blowup", ["oracle found: no t_first: none mode: Numeric"]),
    ("linear_monotone", ["oracle found: no t_first: none mode: Numeric"]),
    ("central_regular", ["oracle found: no t_first: none mode: Numeric"]),
    ("halfspace_regular", ["oracle found: no t_first: none mode: Exact"]),
])
def test_validate_prints_the_recorded_smooth_force_digits(tmp_path, name,
                                                          lines):
    # margins and times printed with repr: every bit of the smooth-force
    # quadrature shows here, and every other byte in the recorded digest
    code = main(["validate", "--scenario", scenario_path(name),
                 "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "validate.txt").read_text().splitlines()
    for line in lines:
        assert line in text
    assert _sha256(tmp_path / "validate.txt") == \
        DIGESTS[f"validate/{name}"]["validate.txt"]


def test_validate_disagreement_exit(tmp_path, monkeypatch):
    # force a wrong analytic verdict; the oracle must win with exit 4
    fake = Verdict(outcome=REGULAR, criterion=TWO_GAP_BOUND, margin=1.0)
    monkeypatch.setattr(cli.regularity, "check_auto",
                        lambda s: (fake, []))
    code = main(["validate", "--scenario", scenario_path("arctan_collide"),
                 "--out", str(tmp_path)])
    assert code == 4
    assert "status: DISAGREE" in (tmp_path / "validate.txt").read_text()


#############################################################
# field / report
#############################################################


def test_field_artifacts(tmp_path):
    payload = {"domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
               "force": {"kind": "smooth1d", "f": "0"},
               "velocity": "x", "density": "1", "horizon": 3.0,
               "grid": [17]}
    p = _write_json(tmp_path, "fs.json", payload)
    code = main(["field", "--scenario", p, "--out", str(tmp_path)])
    assert code == 0
    header = (tmp_path / "field.csv").read_text().splitlines()[0]
    assert header == "t,y,u,rho_transport,rho_pushforward,res_euler,res_continuity"
    info = tmp_path / "field.txt"
    assert float(_grab(info, "mass_initial")) == pytest.approx(1.0, abs=1e-9)
    assert float(_grab(info, "mass_final")) == pytest.approx(1.0, abs=1e-6)


# SHA-256 of the parent's field.csv and field.txt; the benchmark's digests
# cover blowup but none of the other smooth-force runs
_SMOOTH_FIELD_DIGESTS = {
    "smooth_regular": {
        "field.csv":
            "ff0d2df0840dfea5c2c65f04ca8c1ea5fea8fc7c3aff8cc17b9decac73497da5",
        "field.txt":
            "77af1655bd22bf6b1edb6be75042c95ddfc76729965716e563736df7adeabcd0"},
    "smooth_collide": {
        "field.csv":
            "d80e8b07e0e889dfcb2e91fb7c13071f6175e2abea52826d83bc341c790c1718",
        "field.txt":
            "f60bb8540fce3522499e16abffd733e32e56d60bfd673ae55ad4cdbbb79af933"},
    "blowup": DIGESTS["field/blowup"],
}


@pytest.mark.parametrize("name,extra", [
    ("smooth_regular", []),
    ("smooth_collide", ["--horizon", "1.45"]),
    ("blowup", []),
])
def test_field_on_smooth_bundled_scenarios(tmp_path, name, extra):
    # the dense flow's energy check integrates the potential over a panel
    # 4e-13 wide here, narrower than QUADPACK can resolve
    code = main(["field", "--scenario", scenario_path(name),
                 "--out", str(tmp_path)] + extra)
    assert code == 0
    info = tmp_path / "field.txt"
    mass0 = float(_grab(info, "mass_initial"))
    assert float(_grab(info, "mass_final")) == pytest.approx(mass0, rel=1e-6)
    for f, digest in _SMOOTH_FIELD_DIGESTS[name].items():
        assert _sha256(tmp_path / f) == digest


@pytest.mark.parametrize("name,horizon", [
    ("arctan_collide", "0.9"), ("one_gap_collide", "2.7"),
    ("one_gap_regular", "5"), ("two_gap_collide", "13"),
    ("two_gap_regular", "5"), ("variable_mass_collide", "1.27"),
])
def test_field_runs_are_byte_identical_on_closed_form_flows(tmp_path, name,
                                                           horizon):
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(["field", "--scenario", scenario_path(name),
                     "--out", str(out), "--horizon", horizon])
        assert code == 0
        for f in ("field.csv", "field.txt"):
            assert _sha256(out / f) == DIGESTS[f"field/{name}"][f]


def test_field_requires_finite_horizon(tmp_path, capsys):
    code = main(["field", "--scenario", scenario_path("one_gap_regular"),
                 "--out", str(tmp_path)])
    assert code == 3
    assert "horizon" in capsys.readouterr().err


def test_field_refuses_an_infinite_horizon_flag(tmp_path, capsys):
    code = main(["field", "--scenario", scenario_path("smooth_regular"),
                 "--out", str(tmp_path), "--horizon", "inf"])
    assert code == 3
    assert "field needs a finite horizon" in capsys.readouterr().err
    assert not (tmp_path / "field.csv").exists()


def test_report_lists_assumptions(tmp_path):
    code = main(["report", "--scenario", scenario_path("one_gap_regular"),
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "assumptions.txt").read_text().splitlines()
    rows = [l for l in lines if l.startswith("criterion: ")]
    assert rows
    assert all("satisfied:" in r for r in rows)


@pytest.mark.parametrize("name", sorted(SIMULATE_EXIT))
def test_report_writes_the_recorded_digest(tmp_path, name):
    code = main(["report", "--scenario", scenario_path(name),
                 "--out", str(tmp_path)])
    assert code == 0
    assert _sha256(tmp_path / "assumptions.txt") == \
        DIGESTS[f"report/{name}"]["assumptions.txt"]
