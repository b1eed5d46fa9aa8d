"""Randomized invariants checked with hypothesis."""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regularflow.errors import RegularFlowError
from regularflow.quadrature import energy_profile, time_of_flight
from regularflow.regularity import (
    COLLISION,
    REGULAR,
    check_one_gap_general,
    check_one_gap_zero_v,
    check_two_gap,
)
from regularflow.scenario import load_scenario, scenario_from_dict, scenario_to_dict
from regularflow.simulator import NumericFlow1D, asymptotic_verdict_1d

from conftest import SCENARIO_DIR, make_scenario

level = st.floats(min_value=0.05, max_value=8.0)
offset = st.floats(min_value=0.05, max_value=4.0)


@settings(max_examples=60, deadline=None)
@given(f1=level, f2=level, a=st.floats(min_value=1.05, max_value=5.0))
def test_general_gap_criterion_reduces_to_rest_case(f1, f2, a):
    rest = check_one_gap_zero_v(f1, f2, a)
    general = check_one_gap_general(f1, f2, a, lambda x: 0.0, lambda x: 0.0)
    assert general.outcome == rest.outcome


@settings(max_examples=60, deadline=None)
@given(f2=level, d1=offset, d3=offset)
def test_two_gap_alpha_sign_tracks_far_minus_near(f2, d1, d3):
    f1, f3 = f2 + d1, f2 + d3
    verdict = check_two_gap(f1, f2, f3, a=2.0, b=2.5)
    alpha = verdict.diagnostics["alpha"]
    if f3 > f1:
        assert alpha > 0.0
    elif f3 < f1:
        assert alpha < 0.0
    else:
        assert alpha == 0.0


@settings(max_examples=60, deadline=None)
@given(f2=level, d1=offset, d3=offset,
       b1=st.floats(min_value=2.05, max_value=6.0),
       db=st.floats(min_value=0.05, max_value=3.0))
def test_two_gap_margin_decreases_linearly_in_outer_step(f2, d1, d3, b1, db):
    f1, f3 = f2 + d1, f2 + d3
    m1 = check_two_gap(f1, f2, f3, a=2.0, b=b1).margin
    m2 = check_two_gap(f1, f2, f3, a=2.0, b=b1 + db).margin
    assert m1 - m2 == pytest.approx(db, rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(f1=level, f2=level, a=st.floats(min_value=1.05, max_value=5.0),
       c=st.floats(min_value=0.0, max_value=3.0))
def test_scenario_serialization_round_trip(f1, f2, a, c):
    data = {"domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
            "force": {"kind": "one_gap", "f1": f1, "f2": f2, "a": a},
            "velocity": f"{c!r} * x", "horizon": "inf", "grid": [17]}
    s = scenario_from_dict(data)
    dumped = scenario_to_dict(s)
    assert dumped == json.loads(json.dumps(data))
    s2 = scenario_from_dict(dumped)
    for x in (0.0, 0.25, 0.8, 1.0):
        assert s2.init.velocity(x) == s.init.velocity(x)
        assert s2.force.f1 == s.force.f1


@settings(max_examples=25, deadline=None)
@given(f1=level, f2=level)
def test_asymptotic_oracle_matches_rest_margin(f1, f2):
    s = make_scenario(force={"kind": "one_gap", "f1": f1, "f2": f2, "a": 2.0},
                      horizon="inf", grid=[33])
    report = asymptotic_verdict_1d(s)
    assert report.found == (f2 < f1)


@settings(max_examples=15, deadline=None)
@given(c0=st.floats(min_value=-2.0, max_value=2.0),
       c1=st.floats(min_value=-2.0, max_value=2.0),
       d0=st.floats(min_value=-1.0, max_value=1.0),
       x0=st.floats(min_value=0.1, max_value=0.9))
def test_single_particle_energy_is_conserved(c0, c1, d0, x0):
    s = make_scenario(force={"kind": "smooth1d", "f": f"{c0!r} + {c1!r} * y"},
                      velocity=f"{d0!r}", horizon=1.5)
    traj = NumericFlow1D(s, [x0], 1.5)
    y = traj.y[:, 0]
    v = traj.v[:, 0]
    potential = -(c0 * y + 0.5 * c1 * y * y)
    energy = 0.5 * v * v + potential
    drift = abs(energy - energy[0]).max()
    assert drift <= 1e-7 * max(1.0, abs(energy[0]))


@settings(max_examples=60, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=0.5),
       span=st.floats(min_value=0.2, max_value=2.5),
       frac=st.floats(min_value=0.05, max_value=0.95),
       f=st.floats(min_value=0.2, max_value=4.0),
       v0=st.floats(min_value=0.1, max_value=3.0))
def test_flight_time_is_additive_when_resumed_at_arrival_speed(
        x, span, frac, f, v0):
    # splitting the path needs the same particle on both legs: the second
    # leg restarts from the arrival speed at the split point, not from the
    # initial-velocity profile evaluated there
    profile = energy_profile(force=lambda q: f, velocity=lambda z: v0,
                             velocity_deriv=lambda z: 0.0)
    z = x + span
    y = x + frac * span
    w = math.sqrt(v0 * v0 + 2.0 * f * (y - x))
    resumed = energy_profile(force=lambda q: f, velocity=lambda z: w,
                             velocity_deriv=lambda z: 0.0)
    t_xz = time_of_flight(profile, x, z).time
    t_xy = time_of_flight(profile, x, y).time
    t_yz = time_of_flight(resumed, y, z).time
    assert t_xz == pytest.approx(t_xy + t_yz, rel=1e-9)


BUNDLED = {p.stem: json.loads(p.read_text()) for p in sorted(SCENARIO_DIR.glob("*.json"))}
# values of every JSON type, each out of place in some slot
MUTANTS = (True, None, "a", [], [[1]], 1e308, -0.0)


def _nodes(node, path=()):
    """(path, value) of a JSON value and of everything inside it."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(value, path + (key,))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_a_mutated_bundled_scenario_loads_or_raises_a_regularflow_error(
        tmp_path_factory, data):
    # a leaf takes another value, an object loses a key or gains one the
    # schema does not name; the reader refuses, or the scenario builds
    scenario = copy.deepcopy(BUNDLED[data.draw(st.sampled_from(sorted(BUNDLED)))])
    nodes = list(_nodes(scenario))
    how = data.draw(st.sampled_from(("leaf", "drop", "add")))
    if how == "leaf":
        *parents, last = data.draw(st.sampled_from(
            [path for path, value in nodes if path and not isinstance(value, (dict, list))]))
    else:
        parents = data.draw(st.sampled_from(
            [path for path, value in nodes if isinstance(value, dict)]))
    target = scenario
    for key in parents:
        target = target[key]
    if how == "leaf":
        target[last] = data.draw(st.sampled_from(MUTANTS))
    elif how == "drop":
        del target[data.draw(st.sampled_from(sorted(target)))]
    else:
        target["unknown_key"] = 1
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(json.dumps(scenario))
    try:
        load_scenario(path)
    except RegularFlowError:
        pass
