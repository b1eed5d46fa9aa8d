"""Scenario construction, validation, JSON round trips, assumption reports."""

import dataclasses
import importlib.util
import json
import math
import struct
import sys

import numpy as np
import pytest

from regularflow.errors import (
    DimensionMismatch,
    HypothesisViolated,
    InvalidParameter,
    NotMonotone,
    ScenarioFormatError,
)
from regularflow.expressions import Expression, parse_expression
from regularflow.regularity import (
    check_auto,
    check_central,
    check_one_gap_general,
    check_smooth_general,
)
from regularflow.scenario import (
    REQUIRED,
    SCHEMA,
    Annulus,
    Box,
    Constant,
    ConstantVec,
    HalfSpaceStep,
    InitialData,
    Linear,
    OneGap,
    Smooth1D,
    TwoGap,
    assumptions_report,
    build_blowup_scenario,
    build_scenario,
    central_difference,
    constant_value,
    line_force,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

import oracles
from conftest import REPO_ROOT, SCENARIO_DIR, make_scenario


#############################################################
# Force model validation
#############################################################


def test_one_gap_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        OneGap(f1=0.0, f2=1.0, a=2.0)
    with pytest.raises(InvalidParameter):
        OneGap(f1=1.0, f2=-0.5, a=2.0)
    with pytest.raises(InvalidParameter):
        OneGap(f1=1.0, f2=1.0, a=1.0)     # step must sit beyond the labels


def test_two_gap_rejects_bad_orderings():
    with pytest.raises(InvalidParameter):
        TwoGap(f1=1.0, f2=2.0, f3=3.0, a=2.0, b=3.0)   # f2 < f1 violated
    with pytest.raises(InvalidParameter):
        TwoGap(f1=2.0, f2=1.0, f3=0.5, a=2.0, b=3.0)   # f2 < f3 violated
    with pytest.raises(InvalidParameter):
        TwoGap(f1=2.0, f2=1.0, f3=3.0, a=3.0, b=2.0)   # a < b violated


def test_halfspace_requires_push_toward_plane():
    with pytest.raises(InvalidParameter):
        HalfSpaceStep(f1=[0.0, -1.0], f2=[0.0, 1.0], a=2.0, axis=1)
    f = HalfSpaceStep(f1=[0.0, 1.0], f2=[1.0, 0.0], a=2.0, axis=-1)
    assert f.axis == 1


def test_linear_force_shapes():
    with pytest.raises(InvalidParameter):
        Linear(matrix=[[1.0, 2.0]])
    f = Linear(matrix=[[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(f([1.0, 1.0]), [1.0, 2.0])


@pytest.mark.parametrize("force", [
    Smooth1D(f=parse_expression("1/(2 + y^2)")),
    OneGap(f1=2.0, f2=1.0, a=2.0),
    TwoGap(f1=2.0, f2=1.0, f3=3.0, a=2.0, b=3.4),
    ConstantVec(vector=[1.5]),
    HalfSpaceStep(f1=[1.0], f2=[0.5], a=2.0),
    Linear(matrix=[[-0.7]], offset=[0.3]),
])
def test_line_force_has_the_scalar_bits_on_arrays(force):
    # the steps, -0.0 and a spread of positions; each value is the force's
    # own call on the position as a 1-vector
    ys = np.concatenate([[2.0, 3.4, -0.0, 0.1], np.linspace(-3.0, 6.0, 901)])
    f = line_force(force)
    out = f(ys)
    assert isinstance(out, np.ndarray) and out.shape == ys.shape
    scalars = [f(float(y)) for y in ys]
    assert all(type(v) is float for v in scalars)
    own = [float(np.ravel(force(np.array([y])))[0]) for y in ys]
    assert _bits(out) == _bits(scalars) == _bits(own)


def test_line_force_needs_a_one_dimensional_force():
    with pytest.raises(DimensionMismatch):
        line_force(ConstantVec(vector=[1.0, 0.0]))


def test_annulus_validation():
    with pytest.raises(InvalidParameter):
        Annulus(r_inner=2.0, r_outer=1.0)
    with pytest.raises(InvalidParameter):
        Annulus(r_inner=0.0, r_outer=1.0)


@pytest.mark.parametrize("cls,params,name", [
    (OneGap, dict(f1=1.0, f2=math.nan, a=2.0), "f2"),
    (OneGap, dict(f1=math.inf, f2=2.0, a=2.0), "f1"),
    (OneGap, dict(f1=1.0, f2=2.0, a=math.inf), "a"),
    (TwoGap, dict(f1=2.0, f2=1.0, f3=math.inf, a=2.0, b=3.0), "f3"),
    (HalfSpaceStep, dict(f1=[0.0, 1.0], f2=[math.nan, 1.5], a=2.0), "f2"),
])
def test_forces_refuse_non_finite_parameters(cls, params, name):
    # each passes its order conditions: nan fails only the comparisons it
    # meets, and inf satisfies f1 > 0, f2 < f3 and a > 1
    with pytest.raises(InvalidParameter, match=f"^{name} must be finite"):
        cls(**params)


#############################################################
# Grids
#############################################################


def test_box_axis_nodes_respect_openness():
    closed = Box(lower=(0.0,), upper=(1.0,))
    nodes = closed.axis_nodes(0, 5)
    assert nodes[0] == 0.0 and nodes[-1] == 1.0

    half_open = Box(lower=(0.0,), upper=(1.0,), lower_open=(True,),
                    upper_open=(False,))
    nodes = half_open.axis_nodes(0, 5)
    assert nodes[0] > 0.0 and nodes[-1] == 1.0

    open_box = Box(lower=(0.0,), upper=(1.0,), lower_open=(True,),
                   upper_open=(True,))
    nodes = open_box.axis_nodes(0, 5)
    assert nodes[0] > 0.0 and nodes[-1] < 1.0


def test_grid_points_shape():
    s = make_scenario(grid=[7])
    assert s.grid_1d().shape == (7,)
    s2 = scenario_from_dict({
        "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "force": {"kind": "constant", "vector": [0.0, 1.0]},
        "velocity": [0.0, 0.0],
        "grid": [4, 5],
    })
    assert s2.grid_points().shape == (20, 2)


def test_annulus_grid_is_interior():
    s = scenario_from_dict({
        "domain": {"kind": "annulus", "r_inner": 1.0, "r_outer": 2.0},
        "force": {"kind": "central", "u": "r"},
        "velocity": {"g": "1", "h": "0"},
        "grid": [6, 8],
    })
    pts = s.grid_points()
    assert pts.shape == (48, 2)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert np.all(radii > 1.0) and np.all(radii < 2.0)


#############################################################
# Derivative closures and validation hooks
#############################################################


def test_velocity_derivative_defaults_to_central_difference():
    s = make_scenario(velocity="sin(x) + x*x")
    for x in (0.2, 0.5, 0.8):
        ref = oracles.central_difference(lambda t: math.sin(t) + t * t, x)
        assert s.init.velocity_deriv(x) == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("text,x,slope", [
    ("x^2.5", 0.0, 0.0), ("(1 - x)^2.5", 1.0, 0.0), ("x^1.5", 0.25, 0.75)])
def test_the_derivative_stencil_stays_inside_a_profile_that_ends(text, x, slope):
    # the central stencil probes x - h at the lower end and x + h at the
    # upper one, where these profiles have no real value
    deriv = central_difference(parse_expression(text))
    assert deriv(x) == pytest.approx(slope, abs=1e-6)


def test_mass_derivative_default():
    s = make_scenario(force={"kind": "smooth1d", "f": "1"}, mass="1 + x*x")
    for x in (0.25, 0.75):
        assert s.init.mass_deriv(x) == pytest.approx(2.0 * x, abs=1e-6)


def test_nonpositive_mass_rejected():
    with pytest.raises(InvalidParameter):
        make_scenario(mass="x - 2")


def test_nonpositive_density_rejected():
    with pytest.raises(InvalidParameter):
        make_scenario(density="-1")


def test_velocity_is_zero_multid():
    s = scenario_from_dict({
        "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "force": {"kind": "constant", "vector": [0.0, 1.0]},
        "velocity": [0.0, 0.0],
        "grid": [5, 5],
    })
    assert s.velocity_is_zero()
    s2 = scenario_from_dict({
        "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "force": {"kind": "constant", "vector": [0.0, 1.0]},
        "velocity": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0]},
        "grid": [5, 5],
    })
    assert not s2.velocity_is_zero()


@pytest.mark.parametrize("profile,value", [
    (Constant(2.0), 2.0),
    (parse_expression("2"), 2.0),
    (parse_expression("-0.5"), -0.5),
    (parse_expression("y"), None),
    # constant in value, but the text names its variable
    (parse_expression("0*y"), None),
    (Constant(math.inf), None),
    # a Python callable is never taken for a constant
    (lambda y: 1.0, None),
])
def test_constant_value_reads_the_profile_not_samples(profile, value):
    assert constant_value(profile) == value


#############################################################
# JSON round trips and format errors
#############################################################


def test_round_trip_preserves_description(tmp_path):
    data = {
        "domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
        "force": {"kind": "one_gap", "f1": 2.0, "f2": 1.0, "a": 2.0},
        "velocity": "0",
        "horizon": "inf",
    }
    s = scenario_from_dict(data)
    path = tmp_path / "case.json"
    save_scenario(s, path)
    s2 = load_scenario(path)
    assert scenario_to_dict(s2) == scenario_to_dict(s) == data


def test_round_trip_is_stable_bytes(tmp_path):
    data = {
        "domain": {"kind": "box", "lower": [-5.0], "upper": [5.0]},
        "force": {"kind": "smooth1d", "f": "0"},
        "velocity": "-atan(x)",
        "horizon": 2.0,
        "grid": [101],
    }
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(scenario_from_dict(data), p1)
    save_scenario(load_scenario(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_unknown_force_kind_names_discriminator():
    with pytest.raises(ScenarioFormatError, match="warp_drive"):
        scenario_from_dict({
            "domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
            "force": {"kind": "warp_drive"},
        })


def test_unknown_top_level_key():
    with pytest.raises(ScenarioFormatError, match="frobnicate"):
        make_scenario(frobnicate=1)


def test_missing_sections():
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict({"force": {"kind": "smooth1d", "f": "0"}})
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict({"domain": {"kind": "box", "lower": [0], "upper": [1]}})


def test_missing_force_key_is_reported():
    with pytest.raises(ScenarioFormatError, match="f2"):
        make_scenario(force={"kind": "one_gap", "f1": 1.0, "a": 2.0})


def test_velocity_vector_length_checked():
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict({
            "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "force": {"kind": "constant", "vector": [0.0, 1.0]},
            "velocity": [0.0, 0.0, 0.0],
        })


def test_mass_rejected_for_multid():
    with pytest.raises(ScenarioFormatError, match="one-dimensional"):
        scenario_from_dict({
            "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "force": {"kind": "constant", "vector": [0.0, 1.0]},
            "mass": "1 + x",
        })


def test_build_scenario_rejects_a_mass_profile_in_multid():
    # no multi-d integrator or criterion reads a mass; a profile given to
    # one would be silently ignored
    box = Box(lower=(0.0, 0.0), upper=(1.0, 1.0))
    force = ConstantVec(vector=np.array([0.0, 1.0]))
    with pytest.raises(DimensionMismatch, match="one-dimensional"):
        build_scenario(domain=box, force=force,
                       init=InitialData(mass=Constant(2.0)))
    assert build_scenario(domain=box, force=force).dim == 2


def test_bad_horizon_rejected():
    with pytest.raises(ScenarioFormatError):
        make_scenario(horizon="soon")


def test_horizon_inf_string():
    assert make_scenario(horizon="inf").horizon == math.inf


def _fields(value):
    """A scenario's fields, nested, as comparable values: a profile by its
    text or value, an array as a list, any other callable by its type."""
    if isinstance(value, Expression):
        return repr(value)
    if isinstance(value, Constant):
        return "Constant", value.value
    if dataclasses.is_dataclass(value):
        return type(value).__name__, {k: _fields(v) for k, v in vars(value).items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return type(value).__name__ if callable(value) else value


def _benchmark_variants():
    # the seeded variants the benchmark writes for each workload
    spec = importlib.util.spec_from_file_location(
        "perfbench_scenarios", REPO_ROOT / "perfbench" / "scenarios.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)  # its dataclass looks itself up by name
    return [case.data for workload in ("validate_suite", "simulate_csv", "field_regular")
            for seed in range(1, 21) for case in bench.variant_cases(workload, seed)]


def test_every_scenario_in_use_round_trips_to_equal_fields(tmp_path):
    # each bundled file and benchmark variant is read, saved and read back
    # to the same fields: the reader refuses no input in use
    described = [json.loads(p.read_text()) for p in sorted(SCENARIO_DIR.glob("*.json"))]
    described += _benchmark_variants()
    assert len(described) == 13 + 20 * (4 + 4 + 1)
    path = tmp_path / "case.json"
    for data in described:
        s = scenario_from_dict(data)
        save_scenario(s, path)
        assert _fields(load_scenario(path)) == _fields(s)


def test_readme_key_table_is_the_schema():
    text = (REPO_ROOT / "README.md").read_text()
    text = text[text.index("## Scenario files"):]
    rows = set()
    for line in text[:text.index("\n## ")].splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0] in SCHEMA:
            rows.add((*cells[:4], cells[4] == "required"))
    schema = set()
    for section, kinds in SCHEMA.items():
        for kind, (_, keys) in kinds.items():
            kind = "" if section == "scenario" else kind
            if isinstance(keys, str):  # a velocity form of one bare value
                schema.add((section, kind, "", keys, True))
            else:
                schema |= {(section, kind, key, type_name, default is REQUIRED)
                           for key, (type_name, default) in keys.items()}
    assert rows == schema


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"domain": }')
    with pytest.raises(ScenarioFormatError, match="line 1"):
        load_scenario(path)


#############################################################
# Blow-up builder
#############################################################


def test_blowup_builder_exponential_curve():
    s = build_blowup_scenario(lambda t: np.exp(-t), samples=64)
    # v(x) = z'(t(x)) = -x and F(y) = z''(t(y)) = y for z = exp(-t)
    for x in (0.2, 0.5, 1.0):
        assert s.init.velocity(x) == pytest.approx(-x, abs=1e-5)
        assert s.force(x) == pytest.approx(x, abs=1e-5)
    assert s.domain.lower_open[0]      # label 0 never moves; keep it out


def test_blowup_builder_rejects_increasing_curve():
    with pytest.raises(NotMonotone):
        build_blowup_scenario(lambda t: 1.0 + t)


def test_blowup_builder_requires_unit_start():
    with pytest.raises(InvalidParameter):
        build_blowup_scenario(lambda t: 0.5 * np.exp(-t))


#############################################################
# Assumption reports
#############################################################


def test_assumptions_smooth_negative_velocity_flagged():
    s = make_scenario(force={"kind": "smooth1d", "f": "1"}, velocity="-1")
    rows = {c.criterion: c for c in assumptions_report(s)}
    assert rows["smooth-positive-velocity"].satisfied == "no"
    assert rows["smooth-general"].satisfied == "no"


def test_assumptions_unbounded_hypotheses_stay_unknown():
    # hypotheses quantified over an unbounded range are sampled to the
    # cutoff; absence of a violation cannot be promoted to "yes"
    s = make_scenario(force={"kind": "smooth1d", "f": "1"}, velocity="1 + x")
    rows = {c.criterion: c for c in assumptions_report(s)}
    assert rows["smooth-positive-velocity"].satisfied == "unknown"


def test_assumptions_halfspace_row_in_one_dimension():
    # 1D velocity samples are a flat array; the witness is a 1-tuple
    force = {"kind": "halfspace_step", "f1": [1.0], "f2": [1.0], "a": 2.0}
    rows = {c.criterion: c for c in assumptions_report(
        make_scenario(force=force, velocity="x", horizon=3.0))}
    assert rows["halfspace-step"].satisfied == "no"
    assert rows["halfspace-step"].witness == (1.0 / 511,)
    rows = {c.criterion: c for c in assumptions_report(
        make_scenario(force=force, velocity="0", horizon=3.0))}
    assert rows["halfspace-step"].satisfied == "yes"


@pytest.mark.parametrize("force,rows", [
    ({"kind": "constant", "vector": [1.0]}, ["constant-force-pair"]),
    ({"kind": "one_gap", "f1": 1.0, "f2": 0.0, "a": 2.0},
     ["one-gap-zero-velocity", "one-gap-general",
      "one-gap-slope-sufficient"]),
    ({"kind": "two_gap", "f1": 2.0, "f2": 1.0, "f3": 3.0, "a": 2.0, "b": 3.0},
     ["two-gap-bound"]),
])
def test_assumptions_level_forces_refuse_a_varying_mass(force, rows):
    # check leaves these forces Inconclusive for a varying mass, so no row
    # may claim its hypotheses hold
    s = make_scenario(force=force, velocity="0", mass="1 + x", horizon=3.0)
    report = assumptions_report(s)
    assert [c.criterion for c in report] == rows
    verdict, _ = check_auto(s)
    assert verdict.outcome == "Inconclusive"
    for c in report:
        assert (c.satisfied, c.witness) == ("no", None)
        assert verdict.reason.endswith(": " + c.detail)


def test_assumptions_gap_velocity_rows():
    s = make_scenario(force={"kind": "one_gap", "f1": 1.0, "f2": 2.0, "a": 2.0},
                      velocity="x")
    rows = {c.criterion: c for c in assumptions_report(s)}
    assert rows["one-gap-zero-velocity"].satisfied == "no"
    assert rows["one-gap-general"].satisfied == "yes"


def _raised_witness(check):
    """The witness a criterion raises, as a tuple of coordinates."""
    def witness(s):
        with pytest.raises(HypothesisViolated) as info:
            check(s)
        return tuple(float(c) for c in np.atleast_1d(info.value.witness))
    return witness


def _one_gap_general(s):
    f = s.force
    return check_one_gap_general(f.f1, f.f2, f.a, s.init.velocity,
                                 s.init.velocity_deriv)


def _moving_label_routed(s):
    # check_auto routes a moving release away from the half-space criterion
    _, trace = check_auto(s)
    assert dict(trace)["halfspace-step"].reason == (
        "the half-space step criterion needs particles released at rest")
    return s.moving_label()


def _spectrum_reason(s):
    _, trace = check_auto(s)
    return dict(trace)["linear-spectrum"].reason


_SQUARE = {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}
_ANNULUS = {"kind": "annulus", "r_inner": 1.0, "r_outer": 2.0}


@pytest.mark.parametrize("data,criterion,criterion_says", [
    (dict(force={"kind": "smooth1d", "f": "1"}, velocity="-1e-13"),
     "smooth-general", _raised_witness(check_smooth_general)),
    (dict(force={"kind": "smooth1d", "f": "1 - y"}, velocity="1 + x"),
     "smooth-general", _raised_witness(check_smooth_general)),
    (dict(force={"kind": "one_gap", "f1": 1.0, "f2": 2.0, "a": 2.0},
          velocity="-0.01*x"),
     "one-gap-general", _raised_witness(_one_gap_general)),
    ({"domain": _SQUARE, "force": {"kind": "halfspace_step", "f1": [0.0, 1.0],
                                   "f2": [0.0, 2.0], "a": 2.0},
      "velocity": [0.0, 0.1], "grid": [9, 9], "horizon": 5.0},
     "halfspace-step", _moving_label_routed),
    ({"domain": _ANNULUS, "force": {"kind": "central",
                                    "u": "-0.1*exp(-(r - 8)^2)"},
      "velocity": {"g": "1", "h": "0"}, "grid": [9, 12], "horizon": 3.0},
     "central-flight-time", _raised_witness(check_central)),
    ({"domain": _SQUARE, "force": {"kind": "linear",
                                   "matrix": [[0.0, 1.0], [-1.0, 0.0]]},
      "grid": [9, 9], "horizon": 2.0},
     "linear-spectrum", _spectrum_reason),
    ({"domain": _SQUARE, "force": {"kind": "linear",
                                   "matrix": [[-1.0, 0.0], [0.0, 1.0]]},
      "grid": [9, 9], "horizon": 2.0},
     "linear-spectrum", _spectrum_reason),
], ids=["tiny-negative-velocity", "force-not-positive-ahead",
        "one-gap-negative-velocity", "moving-halfspace", "central-inward",
        "complex-spectrum", "negative-spectrum"])
def test_report_rows_agree_with_the_criteria(data, criterion, criterion_says):
    # report and criterion sample the same hypothesis: a broken one reads
    # "no" at the witness the criterion raises (the reason, for the
    # spectrum test, which raises none)
    if "domain" not in data:
        data = dict(data, domain={"kind": "box", "lower": [0.0],
                                  "upper": [1.0]})
    s = scenario_from_dict(data)
    row = {c.criterion: c for c in assumptions_report(s)}[criterion]
    assert row.satisfied == "no"
    said = criterion_says(s)
    if criterion == "linear-spectrum":
        assert row.detail == said
    else:
        assert row.witness == said


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]
