"""Flight-time quadrature against closed forms and finite differences."""

import math

import numpy as np
import pytest

from regularflow import quadrature
from regularflow.errors import QuadratureFailure, SingularBoundary, TurningPoint
from regularflow.expressions import parse_expression
from regularflow.quadrature import (
    dT_dx,
    dT_dx_by_parts,
    dT_dx_weighted,
    energy_profile,
    gap_time_of_flight,
    potential,
    time_of_flight,
)
from regularflow.scenario import OneGap, Smooth1D, TwoGap

import oracles


def _smooth_const(c):
    return Smooth1D(f=lambda y: c, df=lambda y: 0.0)


#############################################################
# Closed forms
#############################################################


def test_constant_force_released_at_rest_closed_form():
    # T = sqrt(2 (y - x) / F) for v = 0; 100 random draws, 1e-10 relative
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        f = float(rng.uniform(0.1, 10.0))
        x = float(rng.uniform(-5.0, 5.0))
        y = x + float(rng.uniform(0.01, 10.0))
        profile = energy_profile(force=_smooth_const(f))
        got = time_of_flight(profile, x, y).time
        want = math.sqrt(2.0 * (y - x) / f)
        assert got == pytest.approx(want, rel=1e-10)
        assert time_of_flight(profile, x, y).singular_endpoint


def test_constant_force_with_speed_closed_form():
    # T = (sqrt(v0^2 + 2 F d) - v0) / F
    rng = np.random.default_rng(8)
    for _ in range(50):
        f = float(rng.uniform(0.1, 5.0))
        v0 = float(rng.uniform(0.1, 3.0))
        x = float(rng.uniform(-2.0, 2.0))
        y = x + float(rng.uniform(0.01, 5.0))
        profile = energy_profile(force=_smooth_const(f),
                                 velocity=lambda t, v=v0: v,
                                 velocity_deriv=lambda t: 0.0)
        got = time_of_flight(profile, x, y).time
        want = (math.sqrt(v0 * v0 + 2.0 * f * (y - x)) - v0) / f
        assert got == pytest.approx(want, rel=1e-10)
        assert not time_of_flight(profile, x, y).singular_endpoint


def test_zero_force_is_distance_over_speed():
    profile = energy_profile(force=_smooth_const(0.0),
                             velocity=lambda t: 2.0,
                             velocity_deriv=lambda t: 0.0)
    assert time_of_flight(profile, 1.0, 4.0).time == pytest.approx(1.5, rel=1e-12)


def test_gap_flight_time_closed_form():
    # f1 = 2 to the cut at 2, then f2 = 1: piecewise closed form by hand
    force = OneGap(f1=2.0, f2=1.0, a=2.0)
    profile = energy_profile(force=force)
    x, y = 0.3, 3.0
    t_gap = gap_time_of_flight(force, profile, x, y).time
    want = math.sqrt(8.8) - math.sqrt(1.7)    # sqrt(2*1.7/2) + segment two
    assert t_gap == pytest.approx(want, rel=1e-12)
    # the generic quadrature agrees through the force discontinuity
    t_quad = time_of_flight(profile, x, y).time
    assert t_quad == pytest.approx(t_gap, rel=1e-9)


def test_two_gap_flight_time_matches_quadrature():
    force = TwoGap(f1=2.0, f2=1.0, f3=3.0, a=2.0, b=3.4)
    profile = energy_profile(force=force)
    for x, y in [(0.0, 5.0), (0.5, 3.0), (0.9, 8.0)]:
        exact = gap_time_of_flight(force, profile, x, y).time
        quad = time_of_flight(profile, x, y).time
        assert quad == pytest.approx(exact, rel=1e-9)


def test_potential_matches_integral_of_force():
    force = Smooth1D(f=parse_expression("1/(2 + y*y)"))
    ref = -oracles.trapezoid_integral(lambda z: 1.0 / (2.0 + z * z), 0.5, 3.0)
    assert potential(force, 3.0) - potential(force, 0.5) == pytest.approx(
        ref, abs=1e-8)


def test_gap_potential_is_piecewise_linear():
    force = OneGap(f1=2.0, f2=1.0, a=2.0)
    drop = potential(force, 3.0) - potential(force, 0.0)
    assert drop == pytest.approx(-(2.0 * 2.0 + 1.0 * 1.0), rel=1e-14)


#############################################################
# Turning points and singular boundaries
#############################################################


def test_turning_point_raised_for_opposing_force():
    profile = energy_profile(force=_smooth_const(-1.0),
                             velocity=lambda t: 1.0,
                             velocity_deriv=lambda t: 0.0)
    # v = 1 against F = -1 stalls after d = 1/2
    with pytest.raises(TurningPoint):
        time_of_flight(profile, 0.0, 2.0)
    assert time_of_flight(profile, 0.0, 0.4).time > 0.0


def test_turning_point_bracket_is_reported():
    profile = energy_profile(force=_smooth_const(-1.0),
                             velocity=lambda t: 1.0,
                             velocity_deriv=lambda t: 0.0)
    with pytest.raises(TurningPoint) as exc:
        time_of_flight(profile, 0.0, 2.0)
    lo, hi = exc.value.bracket
    assert 0.0 <= lo <= 0.5 + 1e-6
    assert hi <= 2.0


def test_dT_dx_requires_moving_start():
    profile = energy_profile(force=_smooth_const(1.0))
    with pytest.raises(SingularBoundary):
        dT_dx(profile, 0.0, 1.0, v=lambda x: 0.0, dv=lambda x: 0.0,
              f=lambda x: 1.0)


#############################################################
# Derivative routes
#############################################################


def _smooth_setup():
    force = Smooth1D(f=parse_expression("1/(2 + y*y)"))
    v = parse_expression("1 + x")
    dv = lambda x: 1.0
    profile = energy_profile(force=force, velocity=v, velocity_deriv=dv)
    return force, v, dv, profile


def test_dT_dx_matches_finite_differences():
    force, v, dv, profile = _smooth_setup()
    for x, y in [(0.1, 1.0), (0.5, 2.0), (0.9, 4.0)]:
        def flight(t):
            pr = energy_profile(force=force, velocity=v, velocity_deriv=dv)
            return pr, time_of_flight(pr, t, y).time

        ref = oracles.central_difference(lambda t: flight(t)[1], x, h=1e-6)
        got = dT_dx(profile, x, y, v=v, dv=dv, f=force.f)
        assert got == pytest.approx(ref, abs=1e-6)


def test_by_parts_equals_direct_route():
    force, v, dv, profile = _smooth_setup()
    unit = lambda x: 1.0
    zero = lambda x: 0.0
    df = lambda y: -2.0 * y / (2.0 + y * y) ** 2
    for x, y in [(0.1, 1.0), (0.5, 2.0), (0.9, 4.0)]:
        direct = dT_dx(profile, x, y, v=v, dv=dv, f=force.f)
        parts = dT_dx_by_parts(profile, x, y, v=v, dv=dv, m=unit, dm=zero,
                               f=force.f, df=df)
        assert parts == pytest.approx(direct, abs=1e-8)


def test_by_parts_finite_at_zero_velocity():
    # the direct route is singular at v(x) = 0; the by-parts route is not
    force = _smooth_const(1.0)
    profile = energy_profile(force=force)
    zero = lambda x: 0.0
    unit = lambda x: 1.0
    val = dT_dx_by_parts(profile, 0.0, 2.0, v=zero, dv=zero, m=unit, dm=zero,
                         f=force.f, df=zero)
    # released at rest under constant force: dT/dx = -1/sqrt(2 F (y - x))
    assert val == pytest.approx(-1.0 / math.sqrt(4.0), rel=1e-10)


def test_weighted_route_reduces_to_by_parts_for_unit_mass():
    force, v, dv, profile = _smooth_setup()
    unit = lambda x: 1.0
    zero = lambda x: 0.0
    df = lambda y: -2.0 * y / (2.0 + y * y) ** 2
    for x, y in [(0.2, 1.5), (0.7, 3.0)]:
        parts = dT_dx_by_parts(profile, x, y, v=v, dv=dv, m=unit, dm=zero,
                               f=force.f, df=df)
        weighted = dT_dx_weighted(profile, x, y, v=v, dv=dv, m=unit, dm=zero,
                                  f=force.f, df=df)
        assert weighted == parts


def test_weighted_route_matches_physical_flight_time_derivative():
    # m(x) = 1 + x under constant force: physical time sqrt(m(x)) T~(x, y)
    force = _smooth_const(1.0)
    m = lambda x: 1.0 + x
    dm = lambda x: 1.0
    zero = lambda x: 0.0

    def physical_time(x, y):
        pr = energy_profile(force=force, mass=m, mass_deriv=dm)
        return math.sqrt(m(x)) * time_of_flight(pr, x, y).time

    profile = energy_profile(force=force, mass=m, mass_deriv=dm)
    for x, y in [(0.0, 2.0), (0.3, 1.5), (0.8, 5.0)]:
        ref = oracles.central_difference(lambda t: physical_time(t, y), x,
                                         h=1e-6)
        got = dT_dx_weighted(profile, x, y, v=zero, dv=zero, m=m, dm=dm,
                             f=force.f, df=zero)
        assert got == pytest.approx(ref, abs=1e-6)


def test_variable_mass_flips_the_naive_sign():
    # with m = 1 + x, F = 1, v = 0 the unweighted by-parts value is negative
    # (no collision predicted) while the mass-weighted derivative is positive
    # for large enough y: the profile really does cross itself
    force = _smooth_const(1.0)
    m = lambda x: 1.0 + x
    dm = lambda x: 1.0
    zero = lambda x: 0.0
    profile = energy_profile(force=force, mass=m, mass_deriv=dm)
    x, y = 0.0, 11.0
    parts = dT_dx_by_parts(profile, x, y, v=zero, dv=zero, m=m, dm=dm,
                           f=force.f, df=zero)
    weighted = dT_dx_weighted(profile, x, y, v=zero, dv=zero, m=m, dm=dm,
                              f=force.f, df=zero)
    assert parts < 0.0 < weighted


def test_roundoff_width_panel_falls_back_to_the_midpoint_rule(monkeypatch):
    # QUADPACK reports failure (a fourth return value) on every panel; only
    # a panel within 1e-12 relative of zero width gets the midpoint value
    def failing_quad(fn, a, b, **kwargs):
        return 0.0, 1.0, {}, "roundoff error is detected"

    monkeypatch.setattr(quadrature, "_scipy_quad", failing_quad)
    a = 10.4788
    b = a + 4e-13
    val, err = quadrature._adaptive(lambda z: 2.0 * z, a, b, 1e-14, 1e-12)
    assert val == (a + b) * (b - a)
    assert err == abs(val)
    with pytest.raises(QuadratureFailure):
        quadrature._adaptive(lambda z: 2.0 * z, a, a + 1e-9, 1e-14, 1e-12)
