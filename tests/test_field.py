"""Velocity-field reconstruction, densities, residuals, global solvability."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

import regularflow.field as field
from regularflow.cli import main
from regularflow.errors import (
    HypothesisViolated,
    InvalidParameter,
    NotRegular,
    OutOfImage,
)
from regularflow.field import (
    INVERT_TOL,
    FieldGrid,
    FlowMap,
    _invert,
    _brentq_many,
    _density0,
    _field_row,
    _stencil_leg,
    check_euler_global,
    continuity_residual,
    euler_residual,
    invert_flow_1d,
    reconstruct_velocity,
    sample_field,
    track_boundary,
    write_field_csv,
)
from regularflow.regularity import COLLISION, INCONCLUSIVE
from regularflow.scenario import OneGap, TwoGap, scenario_from_dict
from regularflow.simulator import detect_collisions_1d

import scalar_arcs
from conftest import (
    CHUNKINGS,
    GAP_AT_REST,
    STEP_AT_REST,
    frame_ranges,
    load_bundled,
    make_scenario,
    traced_mib,
)


def _free_stream(**over):
    base = {"velocity": "x", "horizon": 12.0, "grid": [65], "density": "1"}
    base.update(over)
    return make_scenario(**base)


#############################################################
# Flow inversion
#############################################################


def test_free_stream_field_is_self_similar():
    # y(t, x) = x (1 + t), so u(t, y) = y / (1 + t)
    s = _free_stream()
    flow = FlowMap(s, horizon=12.0)
    for t in (0.5, 1.0, 2.0, 7.0):
        for frac in (0.12, 0.5, 0.93):
            yq = frac * (1.0 + t)
            u = reconstruct_velocity(s, t, yq, flow=flow)
            assert u == pytest.approx(yq / (1.0 + t), abs=1e-10)
        assert flow.jacobian(t, 0.4) == pytest.approx(1.0 + t, rel=1e-6)


def test_invert_round_trip_and_out_of_image():
    s = _free_stream()
    flow = FlowMap(s, horizon=12.0)
    x = invert_flow_1d(s, 2.0, 3.0 * 0.37, flow=flow)
    assert x == pytest.approx(0.37, abs=1e-10)
    with pytest.raises(OutOfImage):
        invert_flow_1d(s, 2.0, 3.2, flow=flow)
    with pytest.raises(OutOfImage):
        invert_flow_1d(s, 2.0, -0.1, flow=flow)


def test_inverse_consistency_on_smooth_flow():
    s = make_scenario(force={"kind": "smooth1d", "f": "1/(2 + y*y)"},
                      velocity="1 + x", horizon=6.0, grid=[129])
    flow = FlowMap(s, horizon=6.0)
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 4.0):
        for x in np.linspace(0.0, 1.0, 21):
            yq = flow.position(t, float(x))
            worst = max(worst, abs(invert_flow_1d(s, t, yq, flow=flow) - x))
    assert worst < 1e-10


def test_collapsing_flow_is_gated():
    s = make_scenario(velocity="-x", horizon=3.0)   # all labels meet at t = 1
    flow = FlowMap(s, horizon=3.0)
    assert flow.regular_until() == pytest.approx(1.0, abs=1e-3)
    assert invert_flow_1d(s, 0.5, 0.25, flow=flow) == pytest.approx(0.5,
                                                                    abs=1e-9)
    with pytest.raises(NotRegular):
        invert_flow_1d(s, 2.0, 0.5, flow=flow)


def test_smooth_collision_time_gates_the_field(scenario_dir):
    s = load_bundled("smooth_collide")
    flow = FlowMap(s, horizon=8.0)
    assert 1.55 < flow.regular_until() < 1.68
    with pytest.raises(NotRegular):
        euler_residual(s, (1.2, 2.0), (2.0, 2.2), flow=flow)


def test_arctan_profile_residual_gate(scenario_dir):
    s = load_bundled("arctan_collide")
    flow = FlowMap(s, horizon=2.0)
    r, _ = euler_residual(s, (0.4, 0.9), (-0.5, 0.5), flow=flow)
    assert math.isfinite(r)
    with pytest.raises(NotRegular):
        euler_residual(s, (0.9, 1.05), (-0.5, 0.5), flow=flow)


#############################################################
# Batched closed-form inversion against the scalar reference
#############################################################


class _ScalarReference:
    """One label at a time: the scalar reference arcs of a gap force or the
    constant-force parabola, a scalar bisection per image point and a
    central-difference Jacobian; the batched path must give its bits."""

    def __init__(self, s, flow):
        self.s = s
        self.flow = flow

    def state(self, t, x):
        if isinstance(self.s.force, (OneGap, TwoGap)):
            segs = scalar_arcs.gap_segments(
                self.s.force, x, float(self.s.init.velocity(x)),
                float(self.s.init.mass(x)))
            return scalar_arcs.position(segs, t), scalar_arcs.velocity(segs, t)
        v0 = float(self.s.init.velocity(x))
        a = self.flow.levels / float(self.s.init.mass(x))
        return x + v0 * t + 0.5 * a * t * t, v0 + a * t

    def invert(self, t, y):
        """The label of y, or None outside the image."""
        lo, hi = self.flow.x_lo, self.flow.x_hi
        L, R = self.state(t, lo)[0], self.state(t, hi)[0]
        slack = 1e-9 * max(1.0, R - L)
        if y < L - slack or y > R + slack:
            return None
        assert not R < L - slack
        y = min(max(y, L), R)
        if y <= L:
            return lo
        if y >= R:
            return hi
        while hi - lo > INVERT_TOL:
            mid = 0.5 * (lo + hi)
            if self.state(t, mid)[0] < y:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def jacobian(self, t, x):
        h = max(1e-6 * (self.flow.x_hi - self.flow.x_lo), 1e-9)
        xc = min(max(x, self.flow.x_lo + h), self.flow.x_hi - h)
        return (self.state(t, xc + h)[0] - self.state(t, xc - h)[0]) / (2 * h)


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == \
        np.asarray(b, dtype=float).tobytes()


# the bundled closed-form flows at the field horizons of the benchmark,
# inside each regular interval; and two with moving, unequal particles,
# where every term of the closed forms counts
_CLOSED_FORM_CASES = {
    "arctan_collide": 0.9, "one_gap_collide": 2.7, "one_gap_regular": 5.0,
    "two_gap_collide": 13.0, "two_gap_regular": 5.0,
    "variable_mass_collide": 1.27,
    "moving_two_gap": ({"force": {"kind": "two_gap", "f1": 2.0, "f2": 1.0,
                                  "f3": 3.0, "a": 2.0, "b": 3.4},
                        "velocity": "0.3 + sin(x)*exp(x)", "mass": "1 + x"},
                       1.5),
    "moving_constant": ({"force": {"kind": "smooth1d", "f": "-0.5"},
                         "velocity": "1 + sin(x)*exp(x)", "mass": "2 - x/2",
                         "density": "1 + x"}, 2.0),
    # numpy's power is not Python's: these profiles are called per label
    "moving_power": ({"force": {"kind": "one_gap", "f1": 1.5, "f2": 2.5,
                                "a": 1.6},
                      "velocity": "0.2 + x^1.5", "mass": "1 + 2^x"}, 2.0),
}


def _closed_form_case(name):
    case = _CLOSED_FORM_CASES[name]
    if isinstance(case, tuple):
        return make_scenario(**case[0]), case[1]
    return load_bundled(name), case


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_CASES))
def test_batched_inversion_has_the_bits_of_the_scalar_reference(name):
    s, horizon = _closed_form_case(name)
    flow = FlowMap(s, horizon=horizon)
    assert flow.levels is not None
    ref = _ScalarReference(s, flow)
    labels = np.linspace(flow.x_lo, flow.x_hi, 37)
    probes = []
    for t in (0.0, 0.31 * horizon, 0.77 * horizon, horizon):
        ys, vs = flow.states(t, labels)
        want = [ref.state(t, float(x)) for x in labels]
        assert _same_bits(ys, [w[0] for w in want])
        assert _same_bits(vs, [w[1] for w in want])
        L, R = flow.boundaries(t)
        pad = 0.05 * (R - L)
        queries = np.concatenate([np.linspace(L - pad, R + pad, 97), ys,
                                  [L, R, L - 1e-12, R + 1e-12]])
        xs = _invert(flow, t, queries)
        want_x = [ref.invert(t, float(y)) for y in queries]
        probes += [(t, y, x) for y, x in zip(queries, want_x)]
        assert _same_bits(xs, [math.nan if x is None else x for x in want_x])
        assert np.isnan(xs).any() and not np.isnan(xs).all()
        found = [x for x in want_x if x is not None]
        assert _same_bits(flow.states(t, xs[~np.isnan(xs)])[1],
                          [ref.state(t, x)[1] for x in found])
        assert _same_bits(flow.jacobian(t, xs[~np.isnan(xs)]),
                          [ref.jacobian(t, x) for x in found])
        assert flow.jacobian(t, found[3]) == ref.jacobian(t, found[3])
        # one stencil leg: nan exactly where the reference finds no label
        u, rho = _stencil_leg(flow, _density0(s), t, queries)
        want_u = [math.nan if x is None else ref.state(t, x)[1]
                  for x in want_x]
        want_rho = [math.nan if x is None else float(s.init.density(x))
                    / max(abs(ref.jacobian(t, x)), 1e-14) for x in want_x]
        assert _same_bits(u, want_u) and _same_bits(rho, want_rho)
    # one call with a time per point: the four times interleaved, the
    # points off each image included
    order = np.random.default_rng(5).permutation(len(probes))
    t, ys, want_x = zip(*(probes[k] for k in order))
    xs = _invert(flow, np.array(t), np.array(ys))
    assert _same_bits(xs, [math.nan if x is None else x for x in want_x])
    assert len(set(t)) == 4 and np.isnan(xs).any()


@pytest.mark.parametrize("name,t_collide", [
    ("one_gap_collide", 3.0), ("variable_mass_collide", math.sqrt(2.0)),
    ("arctan_collide", 1.0),
])
def test_batched_inversion_refuses_times_past_the_collision(name, t_collide):
    s = load_bundled(name)
    flow = FlowMap(s, horizon=1.2 * t_collide)
    t = 1.1 * t_collide
    L, R = flow.boundaries(0.5 * t_collide)
    with pytest.raises(NotRegular):
        invert_flow_1d(s, t, 0.5 * (L + R), flow=flow)
    u, rho = _stencil_leg(flow, _density0(s), t, np.linspace(L, R, 17))
    assert np.isnan(u).all() and np.isnan(rho).all()
    # past the prepared horizon: nan as well
    u, _ = _stencil_leg(flow, _density0(s), 1.3 * t_collide, np.array([L]))
    assert np.isnan(u).all()


def _residuals_one_leg_at_a_time(s, flow, grid):
    """The residual columns of ``sample_field`` with one ``_stencil_leg``
    call per stencil leg."""
    dt = field.STENCIL_FRAC * max(1.0, grid.times[-1])
    rho0 = _density0(s)
    f = field.line_force(s.force)
    res_e, res_c = [], []
    for t, ys, vs in zip(grid.times, grid.y, grid.u):
        if t - dt < 0.0:
            res_e.append(np.full(ys.shape, math.nan))
            res_c.append(np.full(ys.shape, math.nan))
            continue
        dy = field.STENCIL_FRAC * max(float(ys[-1] - ys[0]), 1.0)
        (u_tp, r_tp), (u_tm, r_tm), (u_yp, r_yp), (u_ym, r_ym) = (
            _stencil_leg(flow, rho0, tt, yy) for tt, yy in (
                (t + dt, ys), (t - dt, ys), (t, ys + dy), (t, ys - dy)))
        res_e.append((u_tp - u_tm) / (2.0 * dt)
                     + vs * ((u_yp - u_ym) / (2.0 * dy))
                     - field._on_labels(f, ys))
        res_c.append((r_tp - r_tm) / (2.0 * dt)
                     + (u_yp * r_yp - u_ym * r_ym) / (2.0 * dy))
    return res_e, res_c


@pytest.mark.parametrize("name,times", [
    ("two_gap_regular", [0.0, 1.5, 5.0]),
    ("moving_power", [0.0, 0.7, 2.0]),
    ("smooth_regular", [0.0, 1.0, 2.5]),
    # the t + dt leg of the last time lies past the collision at 3.0000688
    ("one_gap_collide", [0.0, 1.0, 2.0, 2.9997]),
    ("arctan_collide", np.linspace(0.0, 0.9, 9)),
    ("smooth_regular", np.linspace(0.0, 6.0, 9)),
    # 8 rows of stencil legs fill one batch of _BATCH points, which falls
    # back leg by leg; with 9 the last row is a batch of its own and only
    # it falls back
    ("one_gap_collide", np.linspace(0.0, 2.9995, 9)),
    ("one_gap_collide", np.linspace(0.0, 2.9995, 10)),
])
def test_sample_field_legs_have_the_bits_of_one_call_per_leg(name, times):
    s = _closed_form_case(name)[0] if name == "moving_power" \
        else load_bundled(name)
    dt = field.STENCIL_FRAC * max(1.0, times[-1])
    flow = FlowMap(s, horizon=(times[-1] + 2.0 * dt) * (1.0 + 1e-9))
    grid = sample_field(s, times=times, flow=flow)
    res_e, res_c = _residuals_one_leg_at_a_time(s, flow, grid)
    for k in range(len(times)):
        assert _same_bits(grid.residual_euler[k], res_e[k])
        assert _same_bits(grid.residual_continuity[k], res_c[k])
    # only the rows whose stencil legs leave the regular range are nan
    past = [t + dt >= flow.regular_until() for t in times]
    assert [bool(np.isnan(r).all()) for r in grid.residual_euler] == \
        [t == 0.0 or p for t, p in zip(times, past)]
    assert any(past) == (name == "one_gap_collide")


@pytest.mark.parametrize("name,horizon,bound_mib", [
    ("arctan_collide", 0.9, 5.0),
    ("smooth_regular", None, 7.0),
])
def test_sample_field_works_in_bounded_memory(name, horizon, bound_mib):
    # 8 rows of 2,001 labels have 64k stencil points, and a smooth run
    # splines its 2,049-label dense ensemble at 25 times: the peak must
    # grow with neither.  The cyclic collector is off, so the peak does not
    # depend on when it would have run
    s = load_bundled(name)
    gc.disable()
    try:
        peak, _ = traced_mib(lambda: sample_field(s, horizon=horizon))
    finally:
        gc.enable()
    assert peak < bound_mib


@pytest.mark.parametrize("times", [[], [0.5, -0.25, 1.0]])
def test_sample_field_refuses_no_times_and_negative_times(times):
    with pytest.raises(InvalidParameter, match="nonnegative sample times"):
        sample_field(load_bundled("one_gap_regular"), times=times)


def test_smooth_field_builds_the_splines_of_each_time_once(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return CubicSpline(*args)

    monkeypatch.setattr(field, "CubicSpline", counted)
    grid = sample_field(load_bundled("smooth_regular"))
    dt = field.STENCIL_FRAC * max(1.0, grid.times[-1])
    times = {t + d for t in grid.times[1:] for d in (-dt, 0.0, dt)}
    assert len(built) == 2 * len(times | {grid.times[0]}) == 50


def _window_one_row_at_a_time(scenario, t_window, y_window, n_t, n_y, flow):
    """``_window_field`` with one ``_field_row`` call per window row."""
    ts = np.linspace(*t_window, n_t)
    ys = np.linspace(*y_window, n_y)
    rows = [_field_row(flow, _density0(scenario), float(t), ys) for t in ts]
    return (ts, ys, *map(np.array, zip(*rows)))


@pytest.mark.parametrize("name,t_window,y_window", [
    ("two_gap_regular", (1.2, 1.4), (2.0, 2.4)),
    ("moving_constant", (0.5, 2.0), (1.6, 2.5)),
    ("smooth_regular", (1.0, 2.0), (2.8, 3.1)),
])
def test_window_residuals_have_the_bits_of_one_inversion_per_row(
        monkeypatch, name, t_window, y_window):
    s = _closed_form_case(name)[0] if name == "moving_constant" \
        else load_bundled(name)
    flow = FlowMap(s, horizon=t_window[1])
    got = [euler_residual(s, t_window, y_window, flow=flow),
           continuity_residual(s, t_window, y_window, n_t=7, n_y=11,
                               flow=flow)]
    window = field._window_field(s, t_window, y_window, 9, 9, flow)
    monkeypatch.setattr(field, "_window_field", _window_one_row_at_a_time)
    want = [euler_residual(s, t_window, y_window, flow=flow),
            continuity_residual(s, t_window, y_window, n_t=7, n_y=11,
                                flow=flow)]
    assert got == want
    for a, b in zip(window, _window_one_row_at_a_time(
            s, t_window, y_window, 9, 9, flow)):
        assert _same_bits(a, b)


def test_closed_form_field_evaluates_its_arcs_once_per_bisection_step(
        monkeypatch):
    # every stencil leg of every time is inverted in one bisection: one
    # image over all the times, then one arc evaluation per step of a
    # bisection of [0, 1] down to INVERT_TOL (40 steps)
    calls = []
    label_arcs = field._label_arcs
    invert = field._invert

    def counted(*args, **kwargs):
        calls.append(args)
        return label_arcs(*args, **kwargs)

    def inverting(*args):
        monkeypatch.setattr(field, "_label_arcs", counted)
        try:
            return invert(*args)
        finally:
            monkeypatch.setattr(field, "_label_arcs", label_arcs)

    monkeypatch.setattr(field, "_invert", inverting)
    grid = sample_field(load_bundled("one_gap_regular"), horizon=5.0)
    assert not np.isnan(grid.residual_euler[-1]).all()
    assert len(calls) <= 41


@pytest.mark.parametrize("name", ["two_gap_regular", "moving_power",
                                  "smooth_regular"])
def test_boundary_track_has_the_bits_of_one_call_per_time(name):
    s = _closed_form_case(name)[0] if name == "moving_power" \
        else load_bundled(name)
    flow = FlowMap(s, horizon=2.0)
    bt = track_boundary(s, 2.0, n_out=33, flow=flow)
    want = [flow.boundaries(float(t)) for t in bt.times]
    assert _same_bits(bt.L, [w[0] for w in want])
    assert _same_bits(bt.R, [w[1] for w in want])


@settings(max_examples=80, deadline=None)
@given(scale=st.sampled_from([1e-3, 1.0, 1e3]),
       x0=st.floats(min_value=-3.0, max_value=3.0),
       gaps=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1,
                     max_size=12),
       rises=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=12,
                      max_size=12),
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          max_size=30))
def test_array_brent_has_the_bits_of_scipy_brentq(scale, x0, gaps, rises,
                                                  fractions):
    knots = x0 + np.concatenate([[0.0], np.cumsum(gaps)])
    data = scale * np.concatenate([[0.0], np.cumsum(rises[:len(gaps)])])
    spl = CubicSpline(knots, data)
    lo, hi = float(knots[0]), float(knots[-1])
    y_lo, y_hi = float(spl(lo)), float(spl(hi))
    # the leg's filter: knot values, both bracket ends, random points
    queries = np.concatenate([data, [y_lo, y_hi],
                              y_lo + (y_hi - y_lo) * np.array(fractions)])
    queries = queries[(y_lo <= queries) & (queries <= y_hi)]
    want = [brentq(lambda x, y=float(y): float(spl(x)) - y, lo, hi,
                   xtol=1e-13) for y in queries]
    assert _same_bits(_brentq_many(spl, lo, hi, queries), want)
    assert _same_bits(_brentq_many(spl, lo, hi, queries[:1]), want[:1])
    assert _brentq_many(spl, lo, hi, queries[:0]).shape == (0,)


def test_array_brent_takes_the_steps_of_scipy_brentq_on_a_tie():
    # f(0) - f(1) rounds to 2, so the first secant step is exactly half the
    # bracket: Brent must bisect on that tie, which changes later steps
    def f(x):
        return np.interp(x, [0.0, 0.5, 1.0], [-(1.0 + 2.0**-52), 0.5, 1.0])

    want, got = [], []

    def scalar(x):
        want.append(x)
        return float(f(x))

    def many(x):
        got.extend(x)
        return f(x)

    root = brentq(scalar, 0.0, 1.0, xtol=1e-13)
    assert _same_bits(_brentq_many(many, 0.0, 1.0, np.array([0.0])), [root])
    assert _same_bits(got, want)


def test_array_brent_raises_on_nan_as_scipy_does():
    def nan_inside(x):
        return np.where(np.abs(x - 0.5) < 0.3, math.nan, x - 0.5)

    def nan_at_ends(x):
        return np.full(np.shape(x), math.nan)

    for f in (nan_inside, nan_at_ends):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: float(f(x)), 0.0, 1.0, xtol=1e-13)
        with pytest.raises(ValueError, match="NaN"):
            _brentq_many(f, 0.0, 1.0, np.array([0.0, 0.1]))


def test_smooth_field_runs_no_scalar_brentq(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return brentq(*args, **kwargs)

    monkeypatch.setattr(field, "brentq", counted)
    grid = sample_field(load_bundled("smooth_regular"))
    assert not calls
    assert grid.mass(len(grid.times) - 1) == \
        pytest.approx(grid.mass(0), abs=1e-6)


def test_library_inversion_makes_no_scalar_solve(monkeypatch):
    # every library route from an image point to a label is _invert: once
    # the dense cache is built, no scalar brentq and no ODE solve
    s = load_bundled("smooth_regular")
    flow = FlowMap(s, horizon=6.0)
    flow.regular_until()
    flow._dense_flow()
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(field, "brentq", counted("brentq", field.brentq))
    monkeypatch.setattr(field, "solve_ivp",
                        counted("solve_ivp", field.solve_ivp))
    monkeypatch.setattr(field.simulator, "solve_ivp",
                        counted("simulator.solve_ivp",
                                field.simulator.solve_ivp))
    invert_flow_1d(s, 1.5, 2.9, flow=flow)
    reconstruct_velocity(s, 1.5, 2.9, flow=flow)
    euler_residual(s, (1.0, 2.0), (2.81, 3.05), flow=flow)
    continuity_residual(s, (1.0, 2.0), (2.81, 3.05), flow=flow)
    assert calls == []


def test_smooth_field_integrates_its_ensemble_once(monkeypatch):
    # the regularity gate reads the first fold of the dense cache that the
    # field is sampled from, so one ODE solve serves both
    calls = []
    solve_ivp = field.simulator.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(field.simulator, "solve_ivp", counted)
    sample_field(load_bundled("smooth_regular"))
    assert len(calls) == 1


def test_smooth_gate_is_the_dense_cache_first_fold():
    s = load_bundled("smooth_collide")
    bound = FlowMap(s, horizon=8.0).regular_until()
    t_first = detect_collisions_1d(s, horizon=8.0).t_first
    assert bound == pytest.approx(t_first, rel=1e-8)
    with pytest.raises(NotRegular):
        FlowMap(s, horizon=8.0).ensure_regular(bound)


def test_smooth_inversion_has_the_bits_of_the_field_row():
    s = load_bundled("smooth_regular")
    flow = FlowMap(s, horizon=6.0)
    t = 1.5
    L, R = flow.image(t)
    ys = np.linspace(L, R, 23)
    xs, u, _ = _field_row(flow, _density0(s), t, ys)
    assert _same_bits([invert_flow_1d(s, t, y, flow=flow) for y in ys], xs)
    assert _same_bits([reconstruct_velocity(s, t, y, flow=flow) for y in ys],
                      u)
    # inside the slack: clamped to the end; past it: refused, quoting the
    # image that was searched
    assert invert_flow_1d(s, t, R + 1e-12, flow=flow) == flow.x_hi
    with pytest.raises(OutOfImage, match=f"image \\[{L!r}, {R!r}\\]"):
        invert_flow_1d(s, t, R + 1e-3, flow=flow)


@pytest.mark.parametrize("t", [1.5, 2.0, 2.5])
def test_folded_smooth_flow_is_refused(t):
    # v = sin(2 pi x) / 2 folds the interior while the ends stay ordered
    s = make_scenario(force={"kind": "smooth1d", "f": "1/(2 + y*y)"},
                      velocity="0.5*sin(6.283185307179586*x)", horizon=3.0,
                      grid=[129])
    flow = FlowMap(s, horizon=3.0)
    flow._regular_until = math.inf     # let the inversion itself decide
    L, R = flow.boundaries(t)
    assert L < R
    with pytest.raises(NotRegular):
        invert_flow_1d(s, t, flow.position(t, 0.5), flow=flow)


@pytest.mark.parametrize("name,t,y", [
    ("smooth_collide", 1.7, 2.0),
    ("collapsing", 2.0, 0.5),
])
def test_crossed_ends_are_not_regular(name, t, y):
    # past the collision the ends have crossed and no point is inside the
    # image; that is a flow that is not regular, not a point off the image
    if name == "collapsing":
        s = make_scenario(velocity="-x", horizon=3.0)
    else:
        s = load_bundled(name)
    flow = FlowMap(s, horizon=s.horizon)
    flow._regular_until = math.inf     # let the inversion itself decide
    with pytest.raises(NotRegular):
        invert_flow_1d(s, t, y, flow=flow)


def test_out_of_image_point_names_itself():
    s = load_bundled("two_gap_regular")
    flow = FlowMap(s, horizon=5.0)
    L, R = flow.boundaries(2.0)
    with pytest.raises(OutOfImage, match=f"y = {R + 0.5!r} is outside"):
        invert_flow_1d(s, 2.0, R + 0.5, flow=flow)
    assert invert_flow_1d(s, 2.0, R, flow=flow) == flow.x_hi


#############################################################
# Window residuals
#############################################################


def test_free_stream_euler_residual_converges():
    s = _free_stream()
    flow = FlowMap(s, horizon=12.0)
    r9, _ = euler_residual(s, (10.0, 11.0), (0.2, 0.8), flow=flow)
    r17, _ = euler_residual(s, (10.0, 11.0), (0.2, 0.8), n_t=17, n_y=17,
                            flow=flow)
    assert r9 <= 1e-6
    assert r9 / r17 >= 3.0
    # early window: same h^2 law at larger amplitude
    e9, _ = euler_residual(s, (0.5, 1.5), (0.2, 0.8), flow=flow)
    e17, _ = euler_residual(s, (0.5, 1.5), (0.2, 0.8), n_t=17, n_y=17,
                            flow=flow)
    assert e9 / e17 >= 3.0


def test_uniform_acceleration_is_stencil_exact():
    # F = 1, v = 0: u(t, y) = t wherever defined, linear in t, flat in y
    s = make_scenario(force={"kind": "smooth1d", "f": "1"}, horizon=3.0,
                      grid=[65])
    flow = FlowMap(s, horizon=3.0)
    r, _ = euler_residual(s, (1.0, 1.5), (1.2, 1.45), flow=flow)
    assert r <= 1e-8
    transport, continuity = continuity_residual(s, (1.0, 1.5), (1.2, 1.45),
                                                flow=flow)
    assert transport <= 1e-8
    assert continuity <= 1e-6


def test_smooth_window_residual_halves_at_second_order():
    s = make_scenario(force={"kind": "smooth1d", "f": "1/(2 + y*y)"},
                      velocity="1 + x", horizon=6.0, grid=[129])
    flow = FlowMap(s, horizon=6.0)
    r9, _ = euler_residual(s, (1.0, 2.0), (2.81, 3.05), flow=flow)
    r17, _ = euler_residual(s, (1.0, 2.0), (2.81, 3.05), n_t=17, n_y=17,
                            flow=flow)
    assert r9 < 1e-2
    assert r9 / r17 >= 3.0


def test_free_stream_density_laws():
    s = _free_stream()
    flow = FlowMap(s, horizon=12.0)
    transport, continuity = continuity_residual(s, (0.5, 1.5), (0.2, 0.8),
                                                flow=flow)
    assert transport == 0.0          # rho0 constant: composition is constant
    assert continuity < 5e-3         # pushforward obeys the divergence form


def test_window_validation():
    s = _free_stream()
    flow = FlowMap(s, horizon=12.0)
    with pytest.raises(InvalidParameter):
        euler_residual(s, (1.5, 0.5), (0.2, 0.8), flow=flow)
    with pytest.raises(InvalidParameter):
        euler_residual(s, (0.5, 1.5), (0.8, 0.2), flow=flow)
    with pytest.raises(InvalidParameter):
        euler_residual(s, (0.5, 1.5), (0.2, 0.8), n_t=2, flow=flow)


#############################################################
# Field sampling along the deformed grid
#############################################################


def test_sample_field_free_stream_columns():
    s = _free_stream()
    flow = FlowMap(s, horizon=12.0)
    grid = sample_field(s, times=[0.0, 0.5, 1.0, 2.0], flow=flow)
    for k, t in enumerate(grid.times):
        want_u = grid.y[k] / (1.0 + t)
        assert np.max(np.abs(grid.u[k] - want_u)) < 1e-8
        assert np.allclose(grid.rho_pushforward[k], 1.0 / (1.0 + t),
                           atol=1e-9)
        assert np.allclose(grid.rho_transport[k], 1.0)
        assert abs(grid.mass(k) - 1.0) < 1e-6
        res_e = grid.residual_euler[k]
        res_c = grid.residual_continuity[k]
        if t == 0.0:
            assert np.all(np.isnan(res_e))
        else:
            assert np.nanmax(np.abs(res_e)) < 1e-6
            assert np.nanmax(np.abs(res_c)) < 1e-6


def test_sample_field_blowup_density_grows(scenario_dir):
    s = load_bundled("blowup")
    flow = FlowMap(s, horizon=3.3)
    grid = sample_field(s, times=[0.0, 0.5, 1.0, 2.0, 3.0], flow=flow)
    maxima = [float(np.max(grid.rho_pushforward[k]))
              for k in range(len(grid.times))]
    assert all(b > a for a, b in zip(maxima, maxima[1:]))
    for k, t in enumerate(grid.times):
        # contraction y = x e^{-t}: pushforward density is exactly e^{t}
        assert maxima[k] == pytest.approx(math.exp(grid.times[k]), rel=1e-6)
        assert grid.mass(k) == pytest.approx(0.9, abs=1e-6)
        assert np.max(np.abs(grid.u[k] + grid.y[k])) < 1e-6   # u(t, y) = -y


@pytest.mark.xfail(strict=True, reason=(
    "known defect 1: the trapezoid mass of rho0 / J on the deformed grid is "
    "first order where a label crosses a force step; field --horizon 13 on "
    "two_gap_collide gives mass_final 1.0000562675070415"))
def test_field_conserves_mass_on_a_gap_flow(tmp_path, scenario_dir):
    # README "Numerical contracts": total mass to 1e-6 relative error
    assert main(["field", "--scenario", str(scenario_dir / "two_gap_collide.json"),
                 "--out", str(tmp_path), "--horizon", "13"]) == 0
    lines = (tmp_path / "field.txt").read_text(encoding="utf-8").splitlines()
    mass = dict(line.split(": ", 1) for line in lines)
    initial, final = float(mass["mass_initial"]), float(mass["mass_final"])
    assert abs(final - initial) <= 1e-6 * initial


@pytest.mark.xfail(strict=True, reason=(
    "known defect 12: FlowMap.regular_until gates on the grid-pair t_first "
    "of detect_collisions_1d, 3.0000688 on one_gap_collide, after the "
    "closed-form first fold at t = w/f1 + w/(f1 - f2) = 3.0"))
def test_field_refuses_the_first_fold_of_a_gap_flow():
    with pytest.raises(NotRegular):
        sample_field(load_bundled("one_gap_collide"), horizon=3.0)


def test_line_halfspace_step_field_is_its_one_gap_twins():
    # known defect 11: the step's field went through DOP853 and did not
    # finish in 100 s
    step, gap = (sample_field(scenario_from_dict(data), horizon=3.0)
                 for data in (STEP_AT_REST, GAP_AT_REST))
    np.testing.assert_allclose(step.y, gap.y, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(step.u, gap.u, rtol=1e-12, atol=0.0)


def test_field_csv_shape(tmp_path):
    s = _free_stream(grid=[17])
    flow = FlowMap(s, horizon=12.0)
    grid = sample_field(s, times=[0.0, 1.0], flow=flow)
    path = tmp_path / "field.csv"
    write_field_csv(grid, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,y,u,rho_transport,rho_pushforward,res_euler,res_continuity"
    assert len(lines) == 1 + 2 * 17
    cols = lines[-1].split(",")
    assert float(cols[0]) == 1.0
    assert float(cols[2]) == pytest.approx(float(cols[1]) / 2.0, abs=1e-10)


def _field_csv_by_rows(grid, path):
    """The per-row writer that write_field_csv replaced, kept as the byte
    reference."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,y,u,rho_transport,rho_pushforward,res_euler,res_continuity\n")
        for k, t in enumerate(grid.times):
            for i in range(len(grid.y[k])):
                fh.write(",".join(repr(float(col)) for col in (
                    t, grid.y[k][i], grid.u[k][i], grid.rho_transport[k][i],
                    grid.rho_pushforward[k][i], grid.residual_euler[k][i],
                    grid.residual_continuity[k][i])) + "\n")


def test_field_csv_has_the_bytes_of_the_per_row_writer(tmp_path):
    s = _free_stream(grid=[17])
    sampled = sample_field(s, times=[0.0, 1.0, 2.0], flow=FlowMap(s, 12.0))
    # signed zeros, nan and inf that come and go between time rows
    col = [np.array([0.0, -0.0, 1.5]), np.array([-0.0, 0.0, 1.5]),
           np.array([math.nan, -math.inf, 1.5])]
    awkward = FieldGrid(times=[0.0, 0.5, 1.0], y=col, u=col[::-1],
                        rho_transport=[col[0]] * 3, rho_pushforward=col,
                        residual_euler=col[::-1], residual_continuity=col)
    for label, grid in (("sampled", sampled), ("awkward", awkward)):
        want = tmp_path / f"{label}.ref.csv"
        _field_csv_by_rows(grid, want)
        # 2 and 3 frame ranges start a chunk on the rows where the awkward
        # values step
        for chunks in CHUNKINGS:
            got = tmp_path / f"{label}.{chunks}.csv"
            with frame_ranges(chunks) as pids:
                write_field_csv(grid, got)
            assert got.read_bytes() == want.read_bytes(), (label, chunks)
            if chunks != "no fork":
                assert len(pids) == chunks - 1


#############################################################
# Boundary tracking
#############################################################


def test_boundary_tracks_closed_forms():
    s = make_scenario(force={"kind": "smooth1d", "f": "1"}, horizon=2.0)
    bt = track_boundary(s, 2.0, n_out=33)
    assert np.allclose(bt.L, 0.5 * bt.times**2, atol=1e-9)
    assert np.allclose(bt.R, 1.0 + 0.5 * bt.times**2, atol=1e-9)

    s2 = _free_stream()
    bt2 = track_boundary(s2, 3.0, n_out=17)
    assert np.allclose(bt2.L, 0.0, atol=1e-12)
    assert np.allclose(bt2.R, 1.0 + bt2.times, atol=1e-12)
    assert np.all(bt2.L < bt2.R)


def test_boundary_track_gap_force_crossing():
    s = make_scenario(force={"kind": "one_gap", "f1": 1.0, "f2": 2.0,
                             "a": 2.0},
                      horizon=3.0)
    bt = track_boundary(s, 3.0, n_out=301)
    # the right endpoint starts at 1 and reaches the step at t = sqrt(2)
    k = int(np.searchsorted(bt.times, math.sqrt(2.0)))
    assert bt.R[k - 1] < 2.0 < bt.R[k + 1]


#############################################################
# Global smooth solvability on the line
#############################################################


def test_euler_global_truncation_downgrade():
    verdict = check_euler_global(lambda y: 1.0, lambda x: 0.0,
                                 velocity_deriv=lambda x: 0.0,
                                 force_deriv=lambda y: 0.0, cutoff=5.0)
    assert verdict.outcome == INCONCLUSIVE
    assert "truncation boundary" in verdict.reason
    # slowest pair: released at rest across the whole truncation
    assert verdict.margin == pytest.approx(1.0 / math.sqrt(20.0), rel=1e-6)
    assert verdict.witness == {"x": -5.0, "y": 5.0}


def test_euler_global_decreasing_velocity_collides():
    verdict = check_euler_global(
        lambda y: 1.0, lambda x: 2.0 - math.tanh(x),
        velocity_deriv=lambda x: -1.0 / math.cosh(x) ** 2,
        force_deriv=lambda y: 0.0, cutoff=5.0)
    assert verdict.outcome == COLLISION
    assert verdict.margin < 0.0
    assert -5.0 < verdict.witness["x"] < 5.0

    # the verdict is backed by the simulation oracle on the same truncation
    s = make_scenario(domain={"kind": "box", "lower": [-5.0], "upper": [5.0]},
                      force={"kind": "smooth1d", "f": "1"},
                      velocity="2 - (exp(2*x) - 1)/(exp(2*x) + 1)",
                      horizon="inf")
    report = detect_collisions_1d(s)
    assert report.found


def test_euler_global_hypothesis_gates():
    with pytest.raises(HypothesisViolated):
        check_euler_global(lambda y: 1.0, lambda x: x, cutoff=3.0)
    with pytest.raises(HypothesisViolated):
        check_euler_global(lambda y: y, lambda x: 1.0, cutoff=3.0)
    with pytest.raises(InvalidParameter):
        check_euler_global(lambda y: 1.0, lambda x: 1.0, cutoff=-1.0)
