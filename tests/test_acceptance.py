"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test covers one end-to-end promise of the package, so the verbose run
prints one pass/fail line per guarantee.  Expected values come either from
closed forms checked by hand or from the independent oracles in oracles.py;
no expected number below was produced by the code under test.
"""

import math
import time

import numpy as np
import pytest

import oracles
from regularflow.cli import main as cli_main
from regularflow.field import (
    FlowMap,
    euler_residual,
    reconstruct_velocity,
    sample_field,
)
from regularflow.quadrature import (
    dT_dx,
    dT_dx_by_parts,
    energy_profile,
    time_of_flight,
)
from regularflow.regularity import (
    COLLISION,
    REGULAR,
    check_constant_force_pair,
    check_constant_force_profile,
    check_corollary_sufficient,
    check_halfspace_step,
    check_linear,
    check_one_gap_zero_v,
    check_two_gap,
)
from regularflow.simulator import (
    asymptotic_verdict_1d,
    detect_collisions_1d,
    detect_collisions_multid,
)

from conftest import load_bundled, make_scenario, one_label, scenario_path


def test_criterion_01_arctan_profile_first_collision():
    # 2001 free particles on [-5, 5] with v = -atan(x): the ensemble first
    # self-intersects at t = 1 (the profile's steepest descent is at 0)
    s = load_bundled("arctan_collide")
    assert s.samples[0] == 2001
    assert (s.domain.lower[0], s.domain.upper[0]) == (-5.0, 5.0)
    t0 = time.perf_counter()
    report = detect_collisions_1d(s)
    elapsed = time.perf_counter() - t0
    assert report.found
    assert report.t_first == pytest.approx(1.0, abs=0.01)
    assert elapsed < 5.0


def test_criterion_02_single_step_rest_release_matches_oracle():
    pairs = [(1.0, 2.0), (1.0, 1.0), (2.0, 1.0), (1.5, 1.49), (1.49, 1.5)]
    t0 = time.perf_counter()
    for f1, f2 in pairs:
        verdict = check_one_gap_zero_v(f1, f2, 2.0)
        s = make_scenario(
            force={"kind": "one_gap", "f1": f1, "f2": f2, "a": 2.0},
            horizon="inf", grid=[33])
        report = asymptotic_verdict_1d(s)
        assert (verdict.outcome == REGULAR) == (not report.found), (f1, f2)
        assert verdict.margin == f2 - f1
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_double_step_threshold_and_random_draws():
    t0 = time.perf_counter()
    # levels (2, 1, 3) give threshold slope alpha = 14/9 exactly
    alpha = check_two_gap(2.0, 1.0, 3.0, 2.0, 3.0).diagnostics["alpha"]
    assert alpha == pytest.approx(14.0 / 9.0, rel=1e-15)
    for factor, expected_found in ((0.9, False), (1.1, True)):
        b = 2.0 + factor * alpha
        verdict = check_two_gap(2.0, 1.0, 3.0, 2.0, b)
        assert (verdict.outcome == COLLISION) == expected_found
        s = make_scenario(
            force={"kind": "two_gap", "f1": 2.0, "f2": 1.0, "f3": 3.0,
                   "a": 2.0, "b": b},
            horizon="inf", grid=[33])
        assert asymptotic_verdict_1d(s).found == expected_found

    rng = np.random.default_rng(77001)
    for _ in range(200):
        f2 = rng.uniform(0.1, 3.0)
        f1 = f2 + rng.uniform(0.05, 3.0)
        f3 = f2 + rng.uniform(0.05, 3.0)
        a = rng.uniform(1.2, 4.0)
        b = a + rng.uniform(0.05, 4.0)
        verdict = check_two_gap(f1, f2, f3, a, b)
        alpha = verdict.diagnostics["alpha"]
        if abs(verdict.margin) <= 1e-6 * max(1.0, abs(alpha) * (a - 1.0)):
            continue
        s = make_scenario(
            force={"kind": "two_gap", "f1": f1, "f2": f2, "f3": f3,
                   "a": a, "b": b},
            horizon="inf", grid=[33])
        report = asymptotic_verdict_1d(s)
        assert report.found == (verdict.outcome == COLLISION), \
            (f1, f2, f3, a, b, verdict.margin)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_constant_force_pairs_match_dense_minimum():
    rng = np.random.default_rng(33004)
    # 50 engineered approaching parallel pairs: collision time to 1e-8
    for k in range(50):
        dim = int(rng.integers(1, 4))
        r = rng.uniform(-2.0, 2.0, size=dim)
        while np.linalg.norm(r) < 0.1:
            r = rng.uniform(-2.0, 2.0, size=dim)
        lam = rng.uniform(0.3, 3.0)
        x1 = rng.uniform(-1.0, 1.0, size=dim)
        v1 = rng.uniform(-1.0, 1.0, size=dim)
        g = rng.uniform(-1.0, 1.0, size=dim)
        x2, v2 = x1 + r, v1 - lam * r
        verdict = check_constant_force_pair(x1, x2, v1, v2)
        assert verdict.outcome == COLLISION, (k, verdict)
        t_pred = verdict.witness["time"]

        def pa(t, x=x1, v=v1, g=g):
            return x + v * t + 0.5 * g * t * t

        def pb(t, x=x2, v=v2, g=g):
            return x + v * t + 0.5 * g * t * t

        d_min, t_min = oracles.dense_min_distance(pa, pb, 2.0 * t_pred)
        assert abs(t_min - t_pred) <= 1e-8, (k, t_min, t_pred)
        assert d_min <= 1e-8 * np.linalg.norm(r)

    # 50 generic non-parallel pairs: never closer than the line geometry
    for k in range(50):
        dim = int(rng.integers(2, 4))
        x1 = rng.uniform(-1.0, 1.0, size=dim)
        x2 = x1 + rng.uniform(0.2, 2.0, size=dim)
        v1 = rng.uniform(-1.0, 1.0, size=dim)
        v2 = rng.uniform(-1.0, 1.0, size=dim)
        g = rng.uniform(-1.0, 1.0, size=dim)
        verdict = check_constant_force_pair(x1, x2, v1, v2)
        assert verdict.outcome == REGULAR, (k, verdict)
        r, vd = x2 - x1, v2 - v1
        rv = float(np.dot(r, vd))
        if rv < 0.0:
            analytic = np.linalg.norm(r - (rv / np.dot(vd, vd)) * vd)
        else:
            analytic = np.linalg.norm(r)

        def pa(t, x=x1, v=v1, g=g):
            return x + v * t + 0.5 * g * t * t

        def pb(t, x=x2, v=v2, g=g):
            return x + v * t + 0.5 * g * t * t

        d_min, _ = oracles.dense_min_distance(pa, pb, 10.0)
        assert d_min >= 0.999 * analytic - 1e-12
        assert d_min > 0.0


def test_criterion_05_halfspace_step_square():
    # rest release below the plane y2 = 2 under near force (0, 1)
    near = np.array([0.0, 1.0])
    assert check_halfspace_step(near, np.array([0.0, 1.5]), 2.0) \
        .outcome == REGULAR
    collide = check_halfspace_step(near, np.array([3.0, 0.5]), 2.0)
    assert collide.outcome == COLLISION
    assert collide.margin == -0.5

    assert not detect_collisions_multid(load_bundled("halfspace_regular")).found

    s = load_bundled("halfspace_collide")
    report = detect_collisions_multid(s, horizon=10.0)
    assert report.found and report.mode == "Exact"
    # pairs collapse along the force jump: relative velocity just before
    # the hit is parallel to f2 - f1
    p1, p2 = report.pair
    _, pos1 = one_label(s, p1, horizon=10.0)
    _, pos2 = one_label(s, p2, horizon=10.0)
    t_probe = report.t_first - 0.05
    h = 1e-6

    def gap(t):
        return pos2(t) - pos1(t)

    vrel = (gap(t_probe + h) - gap(t_probe - h)) / (2.0 * h)
    jump = np.asarray(s.force.f2) - np.asarray(s.force.f1)
    sine = abs(vrel[0] * jump[1] - vrel[1] * jump[0]) / (
        np.linalg.norm(vrel) * np.linalg.norm(jump))
    assert sine < 1e-9


def test_criterion_06_flight_time_quadrature():
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        f = rng.uniform(0.1, 5.0)
        x = rng.uniform(0.0, 1.0)
        delta = rng.uniform(0.05, 4.0)
        profile = energy_profile(force=lambda y, f=f: f,
                                 velocity=lambda z: 0.0,
                                 velocity_deriv=lambda z: 0.0)
        result = time_of_flight(profile, x, x + delta)
        assert result.time == pytest.approx(math.sqrt(2.0 * delta / f),
                                            rel=1e-10)

    profile = energy_profile(force=lambda y: 1.0 / (2.0 + y * y),
                             velocity=lambda x: 1.0 + x,
                             velocity_deriv=lambda x: 1.0)
    vel = lambda x: 1.0 + x
    dvel = lambda x: 1.0
    force = lambda y: 1.0 / (2.0 + y * y)
    dforce = lambda y: -2.0 * y / (2.0 + y * y) ** 2
    for x, y in ((0.0, 2.0), (0.3, 1.7), (0.8, 4.0)):
        direct = dT_dx(profile, x, y, v=vel, dv=dvel, f=force)
        fd = oracles.central_difference(
            lambda xx: time_of_flight(profile, xx, y).time, x)
        assert direct == pytest.approx(fd, abs=1e-6)
        parts = dT_dx_by_parts(profile, x, y, v=vel, dv=dvel,
                               m=lambda x: 1.0, dm=lambda x: 0.0,
                               f=force, df=dforce)
        assert parts == pytest.approx(direct, abs=1e-8)


def test_criterion_07_sufficient_verdicts_never_contradict_simulation():
    rng = np.random.default_rng(55002)
    checked = 0
    for _ in range(20):
        basis = rng.uniform(-1.0, 1.0, size=(2, 2))
        matrix = basis.T @ basis + 0.1 * np.eye(2)
        c = rng.uniform(0.2, 1.5)
        s = make_scenario(
            domain={"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            force={"kind": "linear", "matrix": matrix.tolist()},
            velocity={"matrix": (c * np.eye(2)).tolist()},
            horizon=3.0, grid=[6, 6])
        assert check_linear(s).outcome == REGULAR
        assert not detect_collisions_multid(s).found
        checked += 1
    for _ in range(15):
        g = rng.uniform(-1.0, 1.0)
        c0 = rng.uniform(-1.0, 1.0)
        c1 = rng.uniform(0.05, 2.0)
        s = make_scenario(force={"kind": "constant", "vector": [g]},
                          velocity=f"{c0!r} + {c1!r} * x",
                          horizon="inf", grid=[17])
        assert check_constant_force_profile(s).outcome == REGULAR
        assert not detect_collisions_1d(s, horizon=math.inf).found
        checked += 1
    for _ in range(15):
        f1 = rng.uniform(0.5, 3.0)
        v0 = rng.uniform(0.3, 2.0)
        slope = 1.05 * f1 / v0
        verdict = check_corollary_sufficient(
            f1, 2.0, lambda x, v0=v0, k=slope: v0 + k * x,
            lambda x, k=slope: k)
        assert verdict.outcome == REGULAR
        s = make_scenario(
            force={"kind": "one_gap", "f1": f1, "f2": 0.0, "a": 2.0},
            velocity=f"{v0!r} + {slope!r} * x", horizon="inf", grid=[17])
        assert not asymptotic_verdict_1d(s).found
        checked += 1
    assert checked == 50


def test_criterion_08_field_reconstruction_and_densities():
    # free stream: y = x (1 + t) gives u(t, y) = y / (1 + t) exactly
    s = make_scenario(velocity="x", horizon=12.0, grid=[65], density="1")
    flow = FlowMap(s, horizon=12.0)
    for t in (0.5, 2.0, 7.0):
        for frac in (0.2, 0.8):
            yq = frac * (1.0 + t)
            u = reconstruct_velocity(s, t, yq, flow=flow)
            assert u == pytest.approx(yq / (1.0 + t), abs=1e-8)

    r_default, _ = euler_residual(s, (10.0, 11.0), (0.2, 0.8), flow=flow)
    r_halved, _ = euler_residual(s, (10.0, 11.0), (0.2, 0.8),
                                 n_t=17, n_y=17, flow=flow)
    assert r_default <= 1e-6
    assert r_default / r_halved >= 3.0

    grid = sample_field(s, times=[0.5, 1.0, 2.0], flow=flow)
    for k in range(len(grid.times)):
        assert grid.mass(k) == pytest.approx(1.0, abs=1e-6)

    # mass-0.9 bump contracting as y = x e^{-t}: pushforward density
    # concentrates while total mass stays put
    blow = load_bundled("blowup")
    bgrid = sample_field(blow, times=[0.0, 0.5, 1.0, 2.0, 3.0],
                         flow=FlowMap(blow, horizon=3.3))
    maxima = [float(np.max(bgrid.rho_pushforward[k]))
              for k in range(len(bgrid.times))]
    assert all(b > a for a, b in zip(maxima, maxima[1:]))
    for k in range(len(bgrid.times)):
        assert bgrid.mass(k) == pytest.approx(0.9, abs=1e-6)


def test_criterion_09_validation_suite_is_deterministic(tmp_path,
                                                        scenario_dir):
    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli_main(["validate", "--scenario", str(scenario_dir),
                         "--out", str(out)])
        assert code == 0
        blobs.append((out / "validate.txt").read_bytes())
    assert blobs[0] == blobs[1]
    text = blobs[0].decode()
    assert "status: DISAGREE" not in text
    assert text.count("status: AGREE") == 12
