"""Simulation oracle: exact propagation, numeric flows, collision search."""

import gc
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import DOP853

from regularflow import field, simulator
from regularflow.cli import main
from regularflow.errors import InvalidParameter, OriginApproach, StepFailure
from regularflow.scenario import (
    HalfSpaceStep,
    OneGap,
    TwoGap,
    constant_value,
    scenario_from_dict,
)
from regularflow.simulator import (
    asymptotic_verdict_1d,
    detect_collisions_1d,
    detect_collisions_multid,
    simulate_ensemble,
    write_collision_report,
    write_trajectory_csv,
)

import oracles
import scalar_arcs
from conftest import (
    CHUNKINGS,
    GAP_AT_REST,
    STEP_AT_REST,
    frame_ranges,
    load_bundled,
    make_scenario,
    one_label,
    traced_mib,
)


def _gap_scenario(f1, f2, a=2.0, **over):
    base = {"force": {"kind": "one_gap", "f1": f1, "f2": f2, "a": a},
            "horizon": "inf"}
    base.update(over)
    return make_scenario(**base)


#############################################################
# Exact piecewise propagation
#############################################################


def test_gap_trajectory_matches_root_finding_oracle():
    s = _gap_scenario(2.0, 1.0, velocity="x/3")
    for x0 in (0.1, 0.55, 0.9):
        _, position = one_label(s, x0)
        ref = oracles.one_gap_segments_by_roots(2.0, 1.0, 2.0, x0, x0 / 3.0)
        for t in (0.0, 0.4, 1.0, 1.7, 3.0, 6.0):
            want = oracles.piecewise_parabola_position(ref, t)
            assert position(t) == pytest.approx(want, rel=1e-12)


def test_gap_crossing_time_closed_form():
    s = _gap_scenario(2.0, 1.0)
    arcs, position = one_label(s, 0.3)
    assert len(arcs) == 2
    (t_a,) = arcs[1][0]
    assert t_a == pytest.approx(math.sqrt(1.7), rel=1e-12)
    assert position(t_a) == pytest.approx(2.0, rel=1e-12)


def test_gap_trajectory_scales_with_mass():
    # doubling the mass halves the acceleration: y(t; m=2) = y(t / sqrt(2))
    _, light = one_label(_gap_scenario(2.0, 1.0), 0.3)
    _, heavy = one_label(_gap_scenario(2.0, 1.0, mass="2"), 0.3)
    for t in (0.5, 1.0, 2.0, 4.0):
        assert heavy(t) == pytest.approx(light(t / math.sqrt(2.0)),
                                         rel=1e-12)


def _floats(arcs):
    """The arcs of one label as (start, y0, v0, a) tuples of floats."""
    return [tuple(float(np.ravel(c)[0]) for c in arc) for arc in arcs]


def test_pair_first_crossing_against_dense_sampling():
    s = _gap_scenario(2.0, 1.0)
    xi, xj = 0.90, 0.91
    arcs = simulator._gap_segments(s.force, np.array([xi, xj]), np.zeros(2),
                                   1.0)
    (t,) = simulator._first_crossings(arcs, [0], [1], 20.0)
    arcs_i, pos_i = one_label(s, xi)
    arcs_j, pos_j = one_label(s, xj)
    ref = oracles.first_meeting_time(pos_i, pos_j, 20.0)
    assert ref is not None
    assert t == pytest.approx(ref, abs=1e-9)
    ref_roots = oracles.pair_first_crossing_by_roots(
        _floats(arcs_i), _floats(arcs_j), 20.0)
    assert t == pytest.approx(ref_roots, rel=1e-12)


#############################################################
# Array kinematics against the scalar references
#############################################################


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


# a 1D half-space step whose far level pushes each label back: it crosses
# the plane again and again until the horizon
_BOUNCING_LINE = {
    "domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
    "force": {"kind": "halfspace_step", "f1": [1.0], "f2": [-2.0], "a": 1.5},
    "velocity": "0.5 + 0.3*x", "horizon": 40.0, "grid": [65]}


def _exact_arcs(name):
    """(arcs, segs, times) of a bundled gap or constant-force scenario, or
    of the bouncing 1D half-space step, on every eighth label: the array
    arcs, the scalar reference arcs of each label, and 256 output times
    plus every arc start, so some times sit exactly on one."""
    s = scenario_from_dict(_BOUNCING_LINE) if name == "bouncing_line" \
        else load_bundled(name)
    xs = s.grid_1d()[::8]
    levels = simulator._force_levels(s)
    assert levels is not None
    arcs = simulator._label_arcs(s, xs, levels, horizon=s.horizon)
    if isinstance(levels, HalfSpaceStep):
        segs = [[(t, float(y[0]), float(v[0]), float(f[0]))
                 for t, y, v, f in scalar_arcs.halfspace_phases(
                     levels, [x], [float(s.init.velocity(x))], s.horizon)]
                for x in xs.tolist()]
    else:
        segs = [scalar_arcs.gap_segments(levels, float(x),
                                         float(s.init.velocity(float(x))),
                                         float(s.init.mass(float(x))))
                for x in xs]
    starts = sorted({arc[0] for sg in segs for arc in sg[1:]})
    horizon = s.horizon if math.isfinite(s.horizon) else 1.5 * max(starts)
    times = np.union1d(np.linspace(0.0, horizon, 256), starts)
    return arcs, segs, times


def _positions_by_loop(segs, times):
    ys = np.empty((len(times), len(segs)))
    vs = np.empty((len(times), len(segs)))
    for i, sg in enumerate(segs):
        ys[:, i] = [scalar_arcs.position(sg, float(t)) for t in times]
        vs[:, i] = [scalar_arcs.velocity(sg, float(t)) for t in times]
    return ys, vs


EXACT_SCENARIOS = ["one_gap_collide", "one_gap_regular", "two_gap_collide",
                   "two_gap_regular", "arctan_collide", "variable_mass_collide"]
ARC_SCENARIOS = EXACT_SCENARIOS + ["bouncing_line"]


@pytest.mark.parametrize("name", EXACT_SCENARIOS)
def test_gap_segments_have_the_bits_of_the_scalar_arcs(name):
    arcs, segs, _ = _exact_arcs(name)
    assert len(arcs) == len(segs[0])
    for k, arc in enumerate(arcs):
        for c, column in enumerate(arc):
            want = [sg[k][c] for sg in segs]
            got = np.broadcast_to(column, len(segs))
            np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("name", ARC_SCENARIOS)
def test_arc_states_have_the_bits_of_the_scalar_arcs(name):
    arcs, segs, times = _exact_arcs(name)
    y, v, _ = simulator._eval_arcs(arcs, times[:, None])
    y_ref, v_ref = _positions_by_loop(segs, times)
    assert y.shape == (len(times), len(segs))
    np.testing.assert_array_equal(_bits(y), _bits(y_ref))
    np.testing.assert_array_equal(_bits(v), _bits(v_ref))


def _full_array_first_collision(flow):
    """The first fold of a numeric flow from every adjacent gap of every
    frame at once: the reference for the blocked scan."""
    gaps = np.diff(flow.y, axis=1)
    hit_frames = np.nonzero(np.any(gaps <= 0.0, axis=1))[0]
    if len(hit_frames) == 0:
        return None, None
    k = int(hit_frames[0])
    t_hi = flow.times[k]
    t_lo = flow.times[k - 1] if k > 0 else 0.0
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        if float(np.min(np.diff(flow.states(mid)[0]))) <= 0.0:
            t_hi = mid
        else:
            t_lo = mid
        if t_hi - t_lo <= 1e-9 * max(flow.times[-1], 1.0):
            break
    i = int(np.argmin(np.diff(flow.states(t_hi)[0])))
    return float(t_hi), (i, i + 1)


@pytest.mark.parametrize("horizon", [1.45, 2.0])
def test_blocked_fold_scan_has_the_bits_of_the_full_arrays(horizon):
    # the field's dense cache, 256 frames of 2,049 labels; at horizon 2 the
    # first fold lies in a later block of frames
    flow = field.FlowMap(load_bundled("smooth_collide"), horizon)._dense_flow()
    got = simulator._numeric_first_collision(flow)
    assert got == _full_array_first_collision(flow)
    assert (got[0] is not None) == (horizon == 2.0)


def test_exact_detection_keeps_the_two_gap_crossing():
    report = detect_collisions_1d(load_bundled("two_gap_collide"), horizon=20)
    # the crossing of the commit before the frame scan was blocked
    assert report.t_first == 14.430248922183797
    assert report.pair == (0.9999978500336351, 1.0)


class _BlockLog(simulator.EnsembleTrajectory):
    """A frame table that records the first frame of each block read."""

    def frames(self, lo, hi):
        self.read.append(lo)
        return super().frames(lo, hi)


def test_blocked_gap_scan_skips_nan_and_finds_the_first_hit():
    rng = np.random.default_rng(7)
    frames = np.cumsum(rng.uniform(0.1, 1.0, (3 * simulator.GAP_FRAMES + 5, 9)),
                       axis=1)
    frames[3, 4] = np.nan                 # a nan gap is not a hit
    frames[simulator.GAP_FRAMES + 2, 6] = frames[simulator.GAP_FRAMES + 2, 5]
    frames[-1, 2] = -5.0
    flow = _BlockLog(np.arange(len(frames), dtype=float), frames[0], frames,
                     frames)
    flow.read = []
    hit = simulator._first_fold(flow)
    gaps = np.diff(frames, axis=1)
    assert np.isnan(gaps[3]).any()
    assert hit == simulator.GAP_FRAMES + 2
    assert hit == int(np.nonzero(np.any(gaps <= 0.0, axis=1))[0][0])
    # the scan stops at its hit: no block past the second is read
    assert flow.read == [0, simulator.GAP_FRAMES]


def test_exact_1d_detection_reads_no_frames(monkeypatch):
    def no_frames(self, lo, hi):
        raise AssertionError("exact 1D detection read a frame")

    monkeypatch.setattr(simulator.ArcTrajectory, "frames", no_frames)
    report = detect_collisions_1d(load_bundled("one_gap_collide"), horizon=20)
    assert report.mode == "Exact"
    assert report.t_first == 3.0000687973417133
    assert report.pair == (0.9999082681017613, 1.0)
    for name, t_first, pair in [
            ("one_gap_regular", None, None),
            ("one_gap_collide", 3.000000078247786, (0.9999999, 1.0))]:
        report = asymptotic_verdict_1d(load_bundled(name))
        assert report.mode == "Asymptotic"
        assert (report.t_first, report.pair) == (t_first, pair)


@pytest.mark.parametrize("name", ARC_SCENARIOS)
def test_first_crossings_have_the_bits_of_the_scalar_pair_kernel(name):
    # adjacent and far pairs; windows that end on arc starts, inside the
    # first output step, on the last output time and past every arc
    arcs, segs, times = _exact_arcs(name)
    n = len(segs)
    i = np.concatenate([np.arange(n - 1), np.zeros(n - 1, dtype=int)])
    j = np.concatenate([np.arange(1, n), np.arange(1, n)])
    starts = [arc[0] for sg in segs for arc in sg[1:]]
    for t_end in sorted(set(starts[:3])) + [0.1 * times[1], times[-1], 1e3]:
        got = simulator._first_crossings(arcs, i, j, float(t_end))
        want = [scalar_arcs.pair_first_crossing(segs[a], segs[b], float(t_end))
                for a, b in zip(i, j)]
        assert got.shape == (len(i),) and got.dtype == np.float64
        assert np.isnan(got).tolist() == [t is None for t in want]
        assert _bits(got[~np.isnan(got)]).tolist() == \
            _bits([t for t in want if t is not None]).tolist()


def test_first_root_has_the_bits_of_the_scalar_kernel():
    # random coefficients, then a vanishing c2 (linear, constant), double,
    # negative-discriminant, signed-zero, tiny, huge and nan cases
    rng = np.random.default_rng(16)
    cases = rng.standard_normal((400, 3)).tolist() + [
        [0.0, 0.0, 1.0], [0.0, 2.0, -1.0], [0.0, -2.0, 1.0],
        [1e-301, -1.0, 1.0], [-1e-301, 0.0, 1.0], [1.0, -2.0, 1.0],
        [1.0, 0.0, 1.0], [1.0, 0.0, -0.0], [-0.5, 0.0, 1e-20],
        [0.5, -1e-7, 1e-15], [1e200, -1e200, 1.0], [1.0, 1e200, -1.0],
        [math.nan, 1.0, -1.0], [1.0, math.nan, -1.0], [1.0, -1.0, math.inf]]
    c2, c1, c0 = np.array(cases).T
    for floor in (0.0, 1e-14, 0.7):
        got = simulator._first_root(c2, c1, c0, floor)
        want = [scalar_arcs.first_root(*case, floor) for case in cases]
        assert np.isnan(got).tolist() == [r is None for r in want]
        assert _bits(got[~np.isnan(got)]).tolist() == \
            _bits([r for r in want if r is not None]).tolist()
    assert np.ndim(simulator._first_root(0.5, -1.0, 0.25, 0.0)) == 0


# uniform masses other than one, moving particles, every force kind
_UNIFORM_MASS_CASES = {
    "one_gap": {"force": {"kind": "one_gap", "f1": 2.0, "f2": 0.7, "a": 2.0},
                "velocity": "0.3 + 0.2*sin(3*x)", "mass": "2"},
    "two_gap": {"force": {"kind": "two_gap", "f1": 2.0, "f2": 1.0, "f3": 3.0,
                          "a": 2.0, "b": 3.8},
                "velocity": "0.3 - 0.25*x", "mass": "1.5"},
    "constant": {"force": {"kind": "smooth1d", "f": "-0.5"},
                 "velocity": "1 + sin(x)*exp(x) - 2*x", "mass": "3"},
}


@pytest.mark.parametrize("name", sorted(_UNIFORM_MASS_CASES))
def test_pair_collisions_have_the_bits_of_the_scalar_reference(name):
    # adjacent pairs and micro pairs, as the asymptotic verdict forms them
    s = make_scenario(horizon="inf", **_UNIFORM_MASS_CASES[name])
    levels = simulator._force_levels(s)
    m = constant_value(s.init.mass)
    xs = s.domain.axis_nodes(0, 33)
    labels = np.concatenate([xs, xs[:-1] + 1e-7])
    arcs = simulator._label_arcs(s, labels, levels, m)
    segs = [scalar_arcs.gap_segments(levels, x, float(s.init.velocity(x)), m)
            for x in labels.tolist()]
    t_star = max(sg[-1][0] for sg in segs[:33])
    i = np.concatenate([np.arange(32), np.arange(32)])
    j = np.concatenate([np.arange(1, 33), np.arange(33, 65)])
    times, dv = simulator._pair_collisions(levels, m, arcs, i, j, t_star)
    want = [scalar_arcs.pair_collision(levels, m, segs[a], segs[b], t_star)
            for a, b in zip(i, j)]
    assert _bits(dv).tolist() == _bits([w[1] for w in want]).tolist()
    assert np.isnan(times).tolist() == [w[0] is None for w in want]
    assert _bits(times[~np.isnan(times)]).tolist() == \
        _bits([w[0] for w in want if w[0] is not None]).tolist()
    assert not np.isnan(times).all()


# particles launched upward against a far normal force that pushes them
# back: they cross the plane again and again, up to the phase cap
_BOUNCING = {
    "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "force": {"kind": "halfspace_step", "f1": [0.0, 1.0], "f2": [0.5, -2.0],
              "a": 1.5, "axis": 1},
    "velocity": {"matrix": [[0.0, 0.0], [0.3, 0.0]], "offset": [0.1, 0.5]},
    "horizon": 40.0, "grid": [9, 9]}


@pytest.mark.parametrize("name", ["halfspace_collide", "halfspace_regular",
                                  "bouncing", "bouncing_line"])
def test_phased_states_have_the_bits_of_position_and_velocity(name):
    # the phases of every seventh label from one array call, then their
    # states and simulate_ensemble's, against one label's phase loop
    data = {"bouncing": _BOUNCING, "bouncing_line": _BOUNCING_LINE}
    s = scenario_from_dict(data[name]) if name in data else load_bundled(name)
    traj = simulate_ensemble(s)
    labels = traj.x0[::7]
    if s.dim == 1:
        arcs = simulator._label_arcs(s, labels, s.force, horizon=s.horizon)
    else:
        arcs = simulator._plane_arcs(s.force, labels,
                                     simulator._velocities(s, labels), 1.0,
                                     s.horizon)
    phases = [scalar_arcs.halfspace_phases(s.force, np.atleast_1d(p),
                                           np.atleast_1d(s.init.velocity(p)),
                                           s.horizon) for p in labels]
    assert len(arcs) == max(len(ph) for ph in phases)
    for k, ph in enumerate(phases):
        for got, want in zip(arcs, ph + [None] * (len(arcs) - len(ph))):
            got = [np.reshape(c[k], -1) for c in got]
            if want is None:
                assert got[0][0] == math.inf
                continue
            for c in range(4):
                np.testing.assert_array_equal(_bits(got[c]), _bits(want[c]))
    starts = [phase[0] for ph in phases for phase in ph[1:]]
    times = np.union1d(traj.times, starts)
    y, v, _ = simulator._eval_arcs(
        arcs, times.reshape(-1, *[1] * np.ndim(arcs[0][1])))
    assert y.shape == v.shape == (len(times),) + labels.shape
    on_frames = np.isin(times, traj.times)
    for k, ph in enumerate(phases):
        y_ref = [scalar_arcs.position(ph, t) for t in times]
        v_ref = [scalar_arcs.velocity(ph, t) for t in times]
        for got, frames, want in ((y, traj.y, y_ref), (v, traj.v, v_ref)):
            np.testing.assert_array_equal(
                _bits(got[:, k].reshape(len(times), -1)), _bits(want))
            np.testing.assert_array_equal(
                _bits(frames[:, 7 * k].reshape(len(traj.times), -1)),
                _bits(np.array(want)[on_frames]))
    if name.startswith("bouncing"):
        assert max(len(ph) for ph in phases) > 20


def test_halfspace_ensemble_solves_each_phase_in_one_kernel_call(monkeypatch):
    first_root, sizes = simulator._first_root, []

    def spy(c2, c1, c0, floor):
        sizes.append(np.size(c2))
        return first_root(c2, c1, c0, floor)

    monkeypatch.setattr(simulator, "_first_root", spy)
    s = load_bundled("halfspace_collide")
    simulate_ensemble(s)
    assert 0 < len(sizes) <= simulator.MAX_PHASES + 1
    assert set(sizes) == {len(s.grid_points())}


# at rest 1e-4 under the plane, the near level lifts each label of the row
# y = 1 across it and the far level pulls it straight back: the label
# bounces on the plane, 64 phases by t = 1.8, long before the horizon
_PHASE_CAP = {
    "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "force": {"kind": "halfspace_step", "f1": [0.0, 1.0], "f2": [0.0, -1.0],
              "a": 1.0001, "axis": 1},
    "velocity": [0.0, 0.0], "horizon": 10.0}


def test_halfspace_phase_cap_raises_instead_of_extrapolating(tmp_path):
    s = scenario_from_dict(_PHASE_CAP)
    with pytest.raises(StepFailure, match=(
            r"the label at \(0\.0, 1\.0\) crosses the plane y\[1\] = 1\.0001 "
            r"more than 64 times: its phases run out at t = 1\.79")):
        simulate_ensemble(s)
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(_PHASE_CAP), encoding="utf-8")
    assert main(["simulate", "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out" / "trajectory.csv").exists()


@pytest.mark.parametrize("kind,levels", [
    (OneGap, {"f1": 2.0, "f2": 0.5, "a": 1.5}),
    (TwoGap, {"f1": 2.0, "f2": 1.0, "f3": 3.0, "a": 2.0, "b": 3.4}),
])
def test_gap_force_on_labels_has_the_bits_of_one_call_per_label(kind,
                                                                 levels):
    calls = []

    class Counted(kind):
        def __call__(self, y):
            calls.append(y)
            return super().__call__(y)

    force, counted = kind(**levels), Counted(**levels)
    cuts = np.array(force.cuts)
    ys = np.concatenate([cuts, np.nextafter(cuts, -math.inf),
                         np.nextafter(cuts, math.inf), [0.0, -0.0, 5.0],
                         [math.nan, math.inf, -math.inf]])
    got = simulator._on_labels(counted, ys)
    assert len(calls) == 1
    want = [force(float(y)) for y in ys]
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert list(got[:len(cuts)]) == list(force.levels[1:])
    assert list(got[len(cuts):2 * len(cuts)]) == list(force.levels[:-1])


#############################################################
# Numeric propagation
#############################################################


def test_smooth_single_particle_matches_rk_oracle():
    s = make_scenario(force={"kind": "smooth1d", "f": "1/(2 + y*y)"},
                      velocity="1 + x", horizon=6.0)
    traj = simulator.NumericFlow1D(s, [0.5], 6.0)
    accel = lambda y: 1.0 / (2.0 + y * y)
    y_ref, v_ref = oracles.rk4_refined(accel, 0.5, 1.5, 6.0)
    assert float(traj.y[-1, 0]) == pytest.approx(y_ref, rel=1e-8)
    assert float(traj.v[-1, 0]) == pytest.approx(v_ref, rel=1e-8)


def test_smooth_variable_mass_slows_the_particle():
    s = make_scenario(force={"kind": "smooth1d", "f": "1"}, mass="1 + x",
                      horizon=2.0)
    traj = simulator.NumericFlow1D(s, [0.5], 2.0)
    # m = 1.5, F = 1, from rest: y = x0 + t^2 / (2 m)
    assert float(traj.y[-1, 0]) == pytest.approx(0.5 + 4.0 / 3.0, rel=1e-9)


def test_every_ode_solve_is_the_newton_kernel(monkeypatch):
    # 1D smooth, multi-d, radial and single-label field flows all call
    # solve_ivp from NewtonFlow, and field never calls its own
    kernel = simulator.NewtonFlow.__init__.__code__
    solve_ivp = simulator.solve_ivp
    callers, field_calls = [], []

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(simulator, "solve_ivp", spy)
    monkeypatch.setattr(field, "solve_ivp",
                        lambda *args, **kwargs: field_calls.append(args))
    smooth = load_bundled("smooth_regular")
    simulate_ensemble(smooth)
    simulate_ensemble(load_bundled("linear_monotone"))
    simulate_ensemble(load_bundled("central_regular"))
    field.FlowMap(smooth, horizon=6.0).boundaries(1.5)
    assert len(callers) >= 5
    assert all(code is kernel for code in callers)
    assert field_calls == []


def test_newton_kernel_failure_names_the_ensemble_and_interval():
    # y'' = y^3 from y = v = 1 blows up before t = 10
    with pytest.raises(StepFailure, match=r"n = 1 particles on \[0, 10.0\]"):
        simulator.NewtonFlow(lambda y: y**3, [1.0], [1.0], 10.0)


# known defect 16's case: a stiff quartic well, one label released at 1.0
# and, beside it, 4,095 labels at rest at its bottom
_QUARTIC_WELL = {"force": {"kind": "smooth1d", "f": "-10000*y^3"},
                 "horizon": 0.3}
_CROWD = [1.0] + [0.0] * 4095


def _field_cache():
    return field.FlowMap(load_bundled("smooth_regular"),
                         horizon=6.0)._dense_flow()


def _linear_flow():
    s = load_bundled("linear_monotone")
    return simulator._multid_flow(s, s.grid_points(), s.horizon)


def _radial_flow():
    s = load_bundled("central_regular")
    return simulator.RadialEnsemble(
        s, s.domain.radial_nodes(s.samples[0]), s.horizon).flow


def _guarded_crowd():
    # the energy guard solves once more at rtol 1e-12: the frames are the
    # second solve's
    return simulator.NumericFlow1D(make_scenario(**_QUARTIC_WELL), _CROWD,
                                   0.3)


_FLOWS = {"field_cache": _field_cache, "linear_monotone": _linear_flow,
          "central_regular": _radial_flow, "guarded_crowd": _guarded_crowd}


@pytest.mark.parametrize("name", sorted(_FLOWS))
def test_frames_on_demand_have_the_bits_of_the_t_eval_table(monkeypatch,
                                                            name):
    # every solve is made once more with t_eval at the frame times: the
    # same DOP853 steps, whose table each chunking of the frames gives
    solve_ivp = simulator.solve_ivp
    tables = []

    def solve_twice(fun, t_span, y0, **kwargs):
        sol = solve_ivp(fun, t_span, y0, **kwargs)
        ref = solve_ivp(fun, t_span, y0, t_eval=np.linspace(
            *t_span, simulator.DEFAULT_N_OUT), **kwargs)
        assert ref.nfev == sol.nfev
        tables.append(ref.y)
        return sol

    monkeypatch.setattr(simulator, "solve_ivp", solve_twice)
    flow = _FLOWS[name]()
    assert len(tables) == (2 if name == "guarded_crowd" else 1)
    n, size = len(flow.times), tables[-1].shape[0] // 2
    assert tables[-1].shape[1] == n == simulator.DEFAULT_N_OUT
    want_y = tables[-1][:size].T.reshape(n, *flow.shape)
    want_v = tables[-1][size:].T.reshape(n, *flow.shape)
    # frames k - 1 and k share a DOP853 step where they share a segment
    step = np.searchsorted(flow.sol.t, flow.times, side="left")
    for chunk in (1, 3, 16, 256):
        if chunk < n:
            assert any(step[k - 1] == step[k] for k in range(chunk, n, chunk))
        for lo in range(0, n, chunk):
            y, v = flow.frames(lo, lo + chunk)
            np.testing.assert_array_equal(_bits(y), _bits(want_y[lo:lo + chunk]))
            np.testing.assert_array_equal(_bits(v), _bits(want_v[lo:lo + chunk]))
    np.testing.assert_array_equal(_bits(flow.y), _bits(want_y))
    np.testing.assert_array_equal(_bits(flow.v), _bits(want_v))


@pytest.mark.xfail(strict=True, reason=(
    "known defect 16: DOP853 controls the RMS error of the whole packed "
    "state, so 4,095 labels at rest loosen the steps of the moving one "
    "(105 against 169 alone), which ends 1.28e-8 from its solo position"))
def test_a_label_moves_alike_alone_and_beside_labels_at_rest():
    s = make_scenario(**_QUARTIC_WELL)
    alone = simulator.NumericFlow1D(s, _CROWD[:1], 0.3, check_energy=False)
    crowd = simulator.NumericFlow1D(s, _CROWD, 0.3, check_energy=False)
    assert crowd.states(0.3)[0][0] == pytest.approx(
        alone.states(0.3)[0][0], abs=1e-10)


def test_halfspace_trajectory_against_vector_rk():
    s = load_bundled("halfspace_collide")
    x0 = np.array([0.5, 0.3])
    arcs, position = one_label(s, x0, horizon=10.0)

    # released at rest below the plane: crosses once, then stays above
    assert len(arcs) == 2
    (t_c,), = arcs[1][0]
    assert t_c == pytest.approx(math.sqrt(2.0 * (2.0 - 0.3)), rel=1e-12)
    # closed form by hand: rise to the plane under (0, 1), then fly under
    # (3, 0.5) with entry speed t_c, never returning
    s_fin = 10.0 - t_c
    want = np.array([0.5 + 1.5 * s_fin**2,
                     2.0 + t_c * s_fin + 0.25 * s_fin**2])
    assert np.allclose(position(10.0), want, rtol=1e-12)

    def accel(y):
        below = y[1] < 2.0
        return np.array([0.0, 1.0]) if below else np.array([3.0, 0.5])

    y_ref, _ = oracles.rk4_vector(accel, x0, np.zeros(2), 10.0, 20000)
    assert np.allclose(position(10.0), y_ref, atol=1e-4)


def test_central_radius_grows_for_repulsive_potential():
    s = load_bundled("central_regular")
    traj = simulator.RadialEnsemble(s, [1.2], s.horizon)
    r, r_dot = traj.r[:, 0], traj.r_dot[:, 0]
    assert np.all(np.diff(r) > 0.0)
    assert traj.momentum[0] == 0.0
    # u = 1/r, g = r: energy g^2/2 + u is conserved along the radial motion
    e = 0.5 * r_dot**2 + 1.0 / r
    assert np.max(np.abs(e - e[0])) < 1e-8


def test_central_with_spin_conserves_angular_momentum_energy():
    s = scenario_from_dict({
        "domain": {"kind": "annulus", "r_inner": 1.0, "r_outer": 2.0},
        "force": {"kind": "central", "u": "1/r"},
        "velocity": {"g": "r", "h": "1/r"},
        "horizon": 2.0,
        "grid": [9, 12],
    })
    traj = simulator.RadialEnsemble(s, [1.5], s.horizon)
    r, r_dot, (momentum,) = traj.r[:, 0], traj.r_dot[:, 0], traj.momentum
    assert momentum == pytest.approx(1.5, rel=1e-12)   # r^2 h = r
    e = 0.5 * r_dot**2 + 1.0 / r + 0.5 * momentum**2 / r**2
    assert np.max(np.abs(e - e[0])) < 1e-8


def test_central_rejects_origin_approach():
    s = scenario_from_dict({
        "domain": {"kind": "annulus", "r_inner": 1.0, "r_outer": 2.0},
        "force": {"kind": "central", "u": "r"},     # attractive pull inward
        "velocity": {"g": "-2*r", "h": "0"},
        "horizon": 10.0,
        "grid": [5, 8],
    })
    with pytest.raises(OriginApproach):
        simulator.RadialEnsemble(s, [1.0], s.horizon)


#############################################################
# 1D collision detection
#############################################################


def test_arctan_ensemble_collides_at_unit_time(scenario_dir):
    report = detect_collisions_1d(load_bundled("arctan_collide"))
    assert report.found
    assert report.t_first == pytest.approx(1.0, abs=0.01)


def test_variable_mass_collision_matches_exact_identity():
    report = detect_collisions_1d(load_bundled("variable_mass_collide"))
    assert report.found
    p1, p2 = report.pair
    # parallel forces, masses 1 + x: crossing at t^2 = 2 (1 + p1) (1 + p2)
    want = math.sqrt(2.0 * (1.0 + p1) * (1.0 + p2))
    assert report.t_first == pytest.approx(want, rel=1e-6)
    assert report.t_first == pytest.approx(math.sqrt(2.0), abs=1e-3)


def test_gap_collision_matches_asymptotic_route():
    s = _gap_scenario(2.0, 1.0)
    inf_report = detect_collisions_1d(s)          # horizon inf in scenario
    assert inf_report.found and inf_report.mode == "Asymptotic"
    fin_report = detect_collisions_1d(s, horizon=2.0 * inf_report.t_first)
    assert fin_report.found and fin_report.mode == "Exact"
    # the finite-horizon route refines the witness grid to 1e-3 relative
    assert fin_report.t_first == pytest.approx(inf_report.t_first, rel=1e-3)


def test_asymptotic_agrees_with_criterion_on_random_gaps():
    rng = np.random.default_rng(4242)
    for _ in range(12):
        f1 = float(rng.uniform(0.5, 3.0))
        f2 = float(rng.uniform(0.5, 3.0))
        if abs(f2 - f1) < 1e-3:
            continue
        report = asymptotic_verdict_1d(_gap_scenario(f1, f2))
        assert report.found == (f2 < f1)
        if report.found:
            assert report.t_first > 0.0


def test_asymptotic_regular_two_gap():
    s = make_scenario(force={"kind": "two_gap", "f1": 2.0, "f2": 1.0,
                             "f3": 3.0, "a": 2.0, "b": 3.4},
                      horizon="inf")
    assert not asymptotic_verdict_1d(s).found
    s2 = make_scenario(force={"kind": "two_gap", "f1": 2.0, "f2": 1.0,
                              "f3": 3.0, "a": 2.0, "b": 3.8},
                       horizon="inf")
    report = asymptotic_verdict_1d(s2)
    assert report.found
    assert report.t_first > report.details["t_enter_last"]


def test_asymptotic_rejects_variable_mass():
    s = _gap_scenario(2.0, 1.0, mass="1 + x")
    with pytest.raises(InvalidParameter):
        asymptotic_verdict_1d(s)


def test_asymptotic_rejects_genuinely_smooth_force():
    s = make_scenario(force={"kind": "smooth1d", "f": "y"}, horizon="inf")
    with pytest.raises(InvalidParameter):
        asymptotic_verdict_1d(s)


def test_infinite_horizon_needs_a_force_constant_everywhere():
    # the force steps from 2 down to about 0 near y = 5: constant on the
    # range reached by t = 1, but the particles collide at t = 9.47
    s = make_scenario(force={"kind": "smooth1d",
                             "f": "2/(1 + exp(1000*(y - 5)))"},
                      velocity="x", horizon="inf")
    with pytest.raises(InvalidParameter):
        detect_collisions_1d(s, horizon=math.inf)
    assert simulator._force_levels(s) is None


def test_line_halfspace_step_collides_as_its_one_gap_twin():
    # known defect 11: the step went through DOP853, whose step control
    # stalled at each crossing, and read t_first 4.24098
    step, gap = (detect_collisions_1d(scenario_from_dict(data))
                 for data in (STEP_AT_REST, GAP_AT_REST))
    assert gap.t_first == 4.242737981268987
    assert step.mode == gap.mode == "Exact"
    assert step.t_first == pytest.approx(gap.t_first, rel=1e-9)
    assert not simulator.asymptotic_applies(scenario_from_dict(STEP_AT_REST))


def test_uniform_mass_detection():
    assert constant_value(make_scenario().init.mass) == 1.0
    assert constant_value(make_scenario(mass="2").init.mass) == 2.0
    assert constant_value(make_scenario(mass="1 + x").init.mass) is None


def test_no_collision_for_spreading_smooth_flow():
    s = load_bundled("smooth_regular")
    report = detect_collisions_1d(s)
    assert not report.found


#############################################################
# Multi-dimensional collision detection
#############################################################


def test_constant_vec_contraction_collides_at_unit_time():
    s = scenario_from_dict({
        "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "force": {"kind": "constant", "vector": [0.0, -1.0]},
        "velocity": {"matrix": [[-1.0, 0.0], [0.0, -1.0]],
                     "offset": [0.0, 0.0]},
        "horizon": 3.0,
        "grid": [7, 7],
    })
    report = detect_collisions_multid(s)
    assert report.found and report.mode == "Exact"
    # v = -x sends every pair through the same point at t = 1
    assert report.t_first == pytest.approx(1.0, rel=1e-9)


def test_constant_vec_translation_never_collides():
    s = scenario_from_dict({
        "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "force": {"kind": "constant", "vector": [0.0, -1.0]},
        "velocity": [0.3, 0.7],
        "horizon": "inf",
        "grid": [7, 7],
    })
    report = detect_collisions_multid(s)
    assert not report.found


def test_halfspace_exact_detection_against_dense_minimum():
    s = load_bundled("halfspace_collide")
    report = detect_collisions_multid(s)
    assert report.found and report.mode == "Exact"
    (p1, p2) = report.pair

    d_min, t_min = oracles.dense_min_distance(
        one_label(s, p1, horizon=10.0)[1], one_label(s, p2, horizon=10.0)[1],
        10.0)
    assert d_min < 1e-3 * np.linalg.norm(np.subtract(p2, p1))
    assert report.t_first == pytest.approx(t_min, abs=1e-2)


def test_halfspace_regular_has_no_collision():
    report = detect_collisions_multid(load_bundled("halfspace_regular"))
    assert not report.found


# known defect 3's focus: every label meets at (0.5, 0.5) at t = pi/2
_FOCUS = {
    "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "force": {"kind": "linear", "matrix": [[-1.0, 0.0], [0.0, -1.0]],
              "offset": [0.5, 0.5]},
    "velocity": [0.0, 0.0], "horizon": 3.0}


def test_numeric_multid_detection_bisects_between_frames():
    # with 257 frames the hit frame is bisected in time; this pins the
    # value that bisection gives today, which direction 8's exact affine
    # oracle is meant to move
    s = scenario_from_dict(_FOCUS)
    report = detect_collisions_multid(s, n_out=257)
    assert report.found and report.mode == "Numeric"
    assert type(report.t_first) is float
    assert report.t_first == 1.569796328432858
    assert report.pair_indices == (0, 64)
    assert all(type(i) is int for i in report.pair_indices)


def test_numeric_multid_scan_reads_no_frame_past_its_hit(monkeypatch):
    # every label is within 1e-3 of its initial distance only at frame 134
    # of 257, whose time 1.5703 lies within 1e-3 of pi/2
    s = scenario_from_dict(_FOCUS)
    flow = simulator._multid_flow(s, s.grid_points(), 3.0, n_out=257)
    hit = 134
    assert abs(math.cos(flow.times[hit])) <= 1e-3
    assert abs(math.cos(flow.times[hit - 1])) > 1e-3
    read, trees = [], []
    frames, tree = flow.frames, simulator.cKDTree

    def logged_frames(lo, hi):
        read.append(lo)
        return frames(lo, hi)

    def logged_tree(points):
        trees.append(points)
        return tree(points)

    monkeypatch.setattr(flow, "frames", logged_frames)
    monkeypatch.setattr(simulator, "cKDTree", logged_tree)
    report = simulator._frames_report(flow, 1e-3)
    assert report.t_first == 1.569796328432858
    # one tree of the labels, then one per frame up to the hit frame's
    assert len(trees) == hit + 2
    assert max(read) <= hit


def test_central_frames_stay_separated():
    report = detect_collisions_multid(load_bundled("central_regular"))
    assert not report.found


#############################################################
# Ensembles and reports
#############################################################


def test_ensemble_exact_mode_for_gap_force():
    s = _gap_scenario(2.0, 1.0, horizon=3.0, grid=[33])
    traj = simulate_ensemble(s)
    assert isinstance(traj, simulator.ArcTrajectory)
    assert traj.y.shape == (256, 33)
    assert float(traj.y[0, 5]) == pytest.approx(float(traj.x0[5]), rel=1e-12)
    # conserved energy along one exact trajectory
    _, position = one_label(s, float(traj.x0[5]))
    assert position(3.0) == pytest.approx(float(traj.y[-1, 5]), rel=1e-10)


def test_trajectory_csv_round_trip(tmp_path):
    s = make_scenario(horizon=1.0, grid=[5], velocity="x")
    traj = simulate_ensemble(s, n_out=4)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,particle_index,x0,y,v"
    assert len(lines) == 1 + 4 * 5
    t, idx, x0, y, v = lines[-1].split(",")
    assert idx == "4"
    assert float(t) == 1.0
    assert float(y) == pytest.approx(float(x0) * 2.0, rel=1e-12)

    write_trajectory_csv(traj, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == path.read_text()


def _trajectory_csv_by_rows(traj, path):
    """The per-row writer that write_trajectory_csv replaced, kept as the
    byte reference."""
    multi = traj.x0.ndim > 1
    d = traj.x0.shape[1] if multi else 1
    if multi:
        head_x0 = ",".join(f"x0_{k + 1}" for k in range(d))
        head_y = ",".join(f"y_{k + 1}" for k in range(d))
        head_v = ",".join(f"v_{k + 1}" for k in range(d))
    else:
        head_x0, head_y, head_v = "x0", "y", "v"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"t,particle_index,{head_x0},{head_y},{head_v}\n")
        for k, t in enumerate(traj.times):
            for i in range(traj.n_particles):
                if multi:
                    x0 = ",".join(repr(float(c)) for c in traj.x0[i])
                    y = ",".join(repr(float(c)) for c in traj.y[k, i])
                    v = ",".join(repr(float(c)) for c in traj.v[k, i])
                else:
                    x0 = repr(float(traj.x0[i]))
                    y = repr(float(traj.y[k, i]))
                    v = repr(float(traj.v[k, i]))
                fh.write(f"{repr(float(t))},{i},{x0},{y},{v}\n")


def _awkward_frames(n, d):
    """(x0, y, v) over four frames: y starts at x0 and stays put, then
    moves; some values step between -0.0 and 0.0, or are nan or +-inf."""
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((n, d) if d else n)
    y = np.repeat(x0[None], 4, axis=0)
    y[2:] += 0.25
    v = np.zeros_like(y)
    y[1, 0], y[2, 0], y[3, 0] = -0.0, 0.0, -0.0
    v[1, -1], v[2, -1], v[3, -1] = -0.0, -0.0, 0.0
    y[2, -1], y[3, -1] = math.nan, -math.nan
    v[2, 0], v[3, 0] = math.inf, -math.inf
    return x0, y, v


def _traj(x0, y, v, times):
    return simulator.EnsembleTrajectory(times=np.asarray(times, dtype=float),
                                        x0=x0, y=y, v=v)


def _on_demand(kind):
    """A small trajectory of the given kind whose frames are evaluated when
    read, 50 of them, so a range of the CSV asks for more than one block."""
    if kind == "exact_1d":
        s = _gap_scenario(2.0, 1.0, horizon=3.0, grid=[9])
    elif kind == "halfspace_2d":
        s = scenario_from_dict(dict(_BOUNCING, horizon=4.0, grid=[4, 4]))
    elif kind == "numeric_1d":
        s = make_scenario(force={"kind": "smooth1d", "f": "1/(2 + y*y)"},
                          velocity="1 + x", horizon=2.0, grid=[9])
    elif kind == "constant_2d":
        s = scenario_from_dict(_CONSTANT_2D)
    else:
        s = replace(load_bundled("linear_monotone"), samples=(4, 4))
    traj = simulate_ensemble(s, n_out=50)
    assert isinstance(traj, simulator.ArcTrajectory) != kind.startswith("numeric")
    return traj


# a d-dimensional constant force on moving labels: one exact arc each,
# whose F t^2 / 2 is not exact in binary
_CONSTANT_2D = {
    "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "force": {"kind": "constant", "vector": [0.3, -0.7]},
    "velocity": {"matrix": [[0.5, 0.0], [0.2, -0.3]], "offset": [0.1, 0.2]},
    "horizon": 2.0, "grid": [4, 4]}


@pytest.mark.parametrize("kind", ["exact_1d", "halfspace_2d", "numeric_1d",
                                  "numeric_2d", "constant_2d", "central"])
def test_every_route_gives_the_bits_of_its_tables_in_any_chunking(kind):
    if kind == "central":
        traj = simulate_ensemble(load_bundled("central_regular"), n_out=50)
    else:
        traj = _on_demand(kind)
    n = len(traj.times)
    assert traj.y.shape == traj.v.shape == (n,) + traj.x0.shape
    for chunk in (1, 3, 16, n):
        for lo in range(0, n, chunk):
            y, v = traj.frames(lo, lo + chunk)
            np.testing.assert_array_equal(_bits(y), _bits(traj.y[lo:lo + chunk]))
            np.testing.assert_array_equal(_bits(v), _bits(traj.v[lo:lo + chunk]))


def test_constant_force_frames_are_the_parabola_of_each_label():
    s = scenario_from_dict(_CONSTANT_2D)
    traj = _on_demand("constant_2d")
    x, t, f = traj.x0, traj.times[:, None, None], s.force.vector
    vel = np.array([s.init.velocity(p) for p in x])
    want = x + vel * t + 0.5 * f * t ** 2
    assert np.all(np.abs(traj.y - want) <= 1e-15 * (1.0 + np.abs(traj.y)))
    np.testing.assert_array_equal(_bits(traj.v), _bits(vel + f * t))


@pytest.mark.parametrize("n,d", [(5, 0), (4, 2), (1, 0), (1, 3)])
def test_trajectory_csv_has_the_bytes_of_the_per_row_writer(tmp_path, n, d):
    x0, y, v = _awkward_frames(n, d)
    x_int = np.arange(x0.size).reshape(x0.shape)
    y_int = np.stack([x_int.astype(float), -x_int.astype(float)])
    cases = {
        "frames": _traj(x0, y, v, [0.0, 0.5, 1.0, 1.5]),
        "one_frame": _traj(x0, y[:1], v[:1], [0.0]),
        "integer_x0": _traj(x_int, y_int, np.zeros_like(y_int), [0.0, 1.0]),
    }
    on_demand = {(5, 0): ["exact_1d", "numeric_1d"],
                 (4, 2): ["halfspace_2d", "numeric_2d"]}.get((n, d), [])
    cases.update((kind, _on_demand(kind)) for kind in on_demand)
    for label, traj in cases.items():
        # with 2 and 3 ranges a chunk starts on frame 2 or on frames 1 and
        # 2, where values step between -0.0 and 0.0, nan and +-inf
        for chunks in CHUNKINGS:
            with frame_ranges(chunks) as pids:
                write_trajectory_csv(traj, tmp_path / f"{label}.{chunks}.csv")
            if chunks != "no fork":
                assert len(pids) == min(chunks, len(traj.times)) - 1
        if label in on_demand:
            # the writer read the frames range by range and built no table
            assert traj._table is None
        want = tmp_path / f"{label}.ref.csv"
        _trajectory_csv_by_rows(traj, want)
        for chunks in CHUNKINGS:
            got = tmp_path / f"{label}.{chunks}.csv"
            assert got.read_bytes() == want.read_bytes(), (label, chunks)


def test_simulate_and_write_hold_no_frame_table(tmp_path):
    # the 1,025 x 256 frames of y and v alone are 4 MiB; a table of them,
    # and a copy, took the peak to 19.5 MiB
    s = load_bundled("arctan_collide")
    peak, _ = traced_mib(lambda: write_trajectory_csv(
        simulate_ensemble(s), tmp_path / "trajectory.csv"))
    assert peak < 8.0


def test_field_collision_gate_holds_no_frame_table():
    # the 2,049-label dense cache kept 20.4 MiB with its frame tables
    s = load_bundled("smooth_regular")

    def gate():
        flow = field.FlowMap(s, 6.0)
        flow.regular_until()
        return flow

    peak, kept = traced_mib(gate)
    assert peak < 10.0
    assert kept < 6.0


def test_numeric_detection_holds_no_frame_table():
    s = load_bundled("smooth_collide")
    peak, _ = traced_mib(lambda: detect_collisions_1d(s, 8.0))
    assert peak < 4.0


def _write_awkward(path):
    x0, y, v = _awkward_frames(5, 2)
    write_trajectory_csv(_traj(x0, y, v, [0.0, 0.5, 1.0, 1.5]), path)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_chunked_csv_writer_leaves_no_process_and_no_file(tmp_path):
    with frame_ranges(3) as pids:
        _write_awkward(tmp_path / "trajectory.csv")
    assert len(pids) == 2
    _no_child_left()
    assert os.listdir(tmp_path) == ["trajectory.csv"]


@pytest.mark.parametrize("where", ["child", "parent"])
def test_chunked_csv_writer_raises_and_reaps_when_a_range_fails(
        tmp_path, monkeypatch, where):
    parent, write_rows = os.getpid(), simulator._write_rows

    def failing(fh, columns):
        if (os.getpid() == parent) == (where == "parent"):
            raise ValueError("range failed")
        write_rows(fh, columns)

    monkeypatch.setattr(simulator, "_write_rows", failing)
    # a failed child surfaces as a RuntimeError, the parent's own error as
    # itself
    error = RuntimeError if where == "child" else ValueError
    with frame_ranges(3) as pids, pytest.raises(error):
        _write_awkward(tmp_path / "trajectory.csv")
    assert len(pids) == 2
    _no_child_left()
    assert os.listdir(tmp_path) == ["trajectory.csv"]


def test_collision_report_text(tmp_path):
    report = detect_collisions_1d(load_bundled("arctan_collide"))
    path = tmp_path / "report.txt"
    write_collision_report(report, path)
    text = path.read_text()
    assert text.startswith("found: yes\n")
    assert "t_first: 1.0" in text
    assert "mode: " in text


def test_numeric_flow_energies_match_one_potential_query_at_a_time(monkeypatch):
    # the initial energies and the drift check query the potential as
    # batches; the same queries made one by one give the same bits
    def run():
        s = load_bundled("smooth_regular")
        flow = simulator.NumericFlow1D(s, s.domain.axis_nodes(0, 40), 6.0)
        return flow.energy0.tobytes(), flow._energy_drift()

    batched = run()
    monkeypatch.setattr(
        simulator.quadrature, "potentials",
        lambda force, zs, stop=None: [simulator.quadrature.potential(force, z)
                                      for z in zs])
    assert run() == batched


def test_an_unchecked_flow_makes_no_potential_query():
    # only the energy guard reads the initial energies
    s = load_bundled("smooth_regular")
    cache = simulator.quadrature._anchored(s.force)
    flow = simulator.NumericFlow1D(s, s.domain.axis_nodes(0, 40), 6.0,
                                   check_energy=False)
    assert cache.size == 1
    assert not hasattr(flow, "energy0")


def test_a_solved_flow_holds_no_step_table():
    # the dense solution gives every frame; the state at each DOP853 step
    # is not kept
    s = load_bundled("smooth_regular")
    flow = simulator.NumericFlow1D(s, s.domain.axis_nodes(0, 40), 6.0)
    assert "y" not in flow.sol
    assert flow.sol.status == 0 and len(flow.sol.t) > 2
    assert flow.states(6.0)[0].shape == (flow.n_particles,)


def test_a_solved_flow_leaves_no_solver_to_the_collector():
    # OdeSolver's closures over the solver make a reference cycle: the
    # flow clears its solver, so the stage arrays go when solve_ivp returns
    # and not at whichever collection comes next
    s = load_bundled("smooth_regular")
    gc.collect()
    gc.disable()
    try:
        simulator.NumericFlow1D(s, s.domain.axis_nodes(0, 40), 6.0)
        left = [o for o in gc.get_objects() if isinstance(o, DOP853)]
    finally:
        gc.enable()
    assert left == []
