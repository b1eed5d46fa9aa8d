"""Flight-time quadrature against closed forms and finite differences."""

import bisect
import gc
import math
import struct
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from regularflow import quadrature
from regularflow.errors import (
    EvaluationError, InternalInconsistency, InvalidParameter,
    QuadratureFailure, SingularBoundary, TurningPoint)
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
from regularflow.regularity import check_auto, check_smooth_positive_v
from regularflow.scenario import OneGap, Smooth1D, TwoGap

import oracles
from conftest import load_bundled, traced_mib


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


@pytest.mark.parametrize("z", [1e2, 1e4, 1e6, 1e8, 1e12, 1e152, 1e308])
def test_far_potential_queries_have_the_closed_form(z):
    # known defect 13: one quad over the whole span raised
    # QuadratureFailure from 1e6 on and returned 0.0 at 1e308
    want = -math.atan(z / math.sqrt(2.0)) / math.sqrt(2.0)
    alone = potential(Smooth1D(f=parse_expression("1/(2 + y*y)")), z)
    batched = quadrature.potentials(
        Smooth1D(f=parse_expression("1/(2 + y*y)")), [0.5, z])[1]
    assert alone == pytest.approx(want, rel=1e-12)
    assert batched == pytest.approx(want, rel=1e-12)


def test_a_batch_of_far_queries_raises_where_one_query_does():
    # y^2 overflows at these points: the array call gave inf and then 0.0,
    # where the scalar call raises
    with pytest.raises(EvaluationError):
        potential(Smooth1D(f=parse_expression("1/(2 + y^2)")), 1e160)
    with pytest.raises(EvaluationError):
        quadrature.potentials(Smooth1D(f=parse_expression("1/(2 + y^2)")),
                              [1e160, 1e170])


def test_gap_potential_is_piecewise_linear():
    force = OneGap(f1=2.0, f2=1.0, a=2.0)
    drop = potential(force, 3.0) - potential(force, 0.0)
    assert drop == pytest.approx(-(2.0 * 2.0 + 1.0 * 1.0), rel=1e-14)


def _explicit_gap_potential(force, y):
    """U(y) by the region formulas of the gap forces, written out."""
    f1, f2, a = force.f1, force.f2, force.a
    if y <= a:
        return -f1 * y
    if isinstance(force, OneGap) or y <= force.b:
        return -(f1 * a + f2 * (y - a))
    return -(f1 * a + f2 * (force.b - a) + force.f3 * (y - force.b))


@pytest.mark.parametrize("name", ["one_gap_regular", "one_gap_collide",
                                  "two_gap_regular", "two_gap_collide"])
def test_gap_potential_has_the_bits_of_the_region_formulas(name):
    # below, on, just past, between and above each cut, and at both zeros
    force = load_bundled(name).force
    edges = (0.0,) + force.cuts
    ys = [-0.0, 0.0, -0.7, 0.3, 1.0, 1e3]
    for lo, c in zip(edges, force.cuts):
        ys += [c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf),
               0.5 * (lo + c), c + 0.3, c + 1.7]
    assert _bits(potential(force, y) for y in ys) == _bits(
        _explicit_gap_potential(force, y) for y in ys)


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


#############################################################
# Anchor cache: the blocked index and its batches
#############################################################


class _ReferenceCache:
    """The sorted-list anchor cache the blocked index replaced, kept as the
    reference for its values and anchors."""

    _MAX_ANCHORS = 50000

    def __init__(self, f):
        self.f = f
        self.zs = [0.0]
        self.us = [0.0]

    def __call__(self, z):
        z = float(z)
        k = bisect.bisect_left(self.zs, z)
        if k < len(self.zs) and self.zs[k] == z:
            return self.us[k]
        if k == 0:
            zn, un = self.zs[0], self.us[0]
        elif k == len(self.zs):
            zn, un = self.zs[-1], self.us[-1]
        else:
            zn, un = min(
                (self.zs[k - 1], self.us[k - 1]), (self.zs[k], self.us[k]),
                key=lambda p: abs(p[0] - z),
            )
        inc, _ = quadrature._adaptive(self.f, zn, z, 1e-14, 1e-12)
        u = un - inc
        if len(self.zs) < self._MAX_ANCHORS:
            j = bisect.bisect_left(self.zs, z)
            self.zs.insert(j, z)
            self.us.insert(j, u)
        return u


class _SmallCache(quadrature._PotentialCache):
    _MAX_ANCHORS = 23
    _BLOCK = 2


class _SmallReference(_ReferenceCache):
    _MAX_ANCHORS = 23


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def _same_table(cache, ref):
    """Every anchor of the cache, in order, has the position and value bits
    of the reference's, and the blocked index is whole."""
    anchors = cache.anchors()
    zs = [z for z, _ in anchors]
    assert zs == sorted(zs)
    assert _bits(zs) == _bits(ref.zs)
    assert _bits(u for _, u in anchors) == _bits(ref.us)
    assert [len(us) for us in cache.values] == [len(b) for b in cache.blocks]
    assert cache.tops == [block[-1] for block in cache.blocks]
    assert all(0 < len(block) <= 2 * cache._BLOCK for block in cache.blocks)
    assert cache.size == len(ref.zs)


def _queries(rng, n, infinite=False):
    """Dyadic points (exact midpoints, so equidistant ties), repeats, -0.0
    and negative z; with ``infinite``, now and then -inf or inf too."""
    out = []
    for _ in range(n):
        kind = rng.integers(11 if infinite else 10)
        if kind == 0 and out:
            out.append(out[int(rng.integers(len(out)))])
        elif kind == 1:
            out.append(-0.0)
        elif kind < 8:
            out.append(float(rng.integers(-8, 24)) / 2.0 ** rng.integers(1, 5))
        elif kind < 10:
            out.append(float(rng.uniform(-3.0, 6.0)))
        else:
            out.append(math.inf if rng.integers(2) else -math.inf)
    return out


_FORCES = [
    parse_expression("1/(2 + y*y)"),     # array path; U(-inf), U(inf) finite
    parse_expression("1"),               # array call returns a scalar
    parse_expression("y^2 + 1"),         # ^: array path too
    lambda z: math.cos(z) + 2.0,         # callable: scalar path
]


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_scalar_and_batched_queries_match_the_sorted_list_cache(seed, small):
    rng = np.random.default_rng(seed)
    f = _FORCES[seed % len(_FORCES)]
    infinite = seed % len(_FORCES) == 0
    cache = (_SmallCache if small else quadrature._PotentialCache)(f)
    ref = (_SmallReference if small else _ReferenceCache)(f)
    for _ in range(16):
        zs = _queries(rng, int(rng.integers(1, 14)), infinite)
        mode = rng.integers(3)
        if mode == 0:
            got = [cache(z) for z in zs]
        elif mode == 1:
            # a stop after a random number of values
            cut = int(rng.integers(1, len(zs) + 1))
            answered = []

            def stop(u):
                answered.append(u)
                return len(answered) == cut

            got = cache.plan(zs).take(len(zs), stop=stop)
            zs = zs[:cut]
        else:
            # one plan taken in two parts, left there, then other queries
            plan = cache.plan(zs)
            cut = int(rng.integers(len(zs) + 1))
            follow = int(rng.integers(cut, len(zs) + 1))
            got = plan.take(cut)
            got += plan.take(follow - cut)
            zs = zs[:follow] + _queries(rng, 3, infinite)
            got += [cache(z) for z in zs[follow:]]
        want = [ref(z) for z in zs]
        assert _bits(got) == _bits(want)
        _same_table(cache, ref)


def test_the_cap_holds_in_a_batch_and_repeats_beyond_it_integrate_again():
    f = parse_expression("1/(2 + y*y)")
    cache, ref = _SmallCache(f), _SmallReference(f)
    zs = [k / 4.0 for k in range(1, 40)] + [9.75, 9.75, 0.125, -1.0, -1.0]
    assert _bits(cache.plan(zs).take(len(zs))) == _bits([ref(z) for z in zs])
    assert cache.size == cache._MAX_ANCHORS
    _same_table(cache, ref)


def test_a_turning_point_mid_scan_keeps_the_anchors_of_the_queries_made():
    # v = 1 against F = -1 stops at z = 1/2, about halfway along the scan
    force = Smooth1D(f=parse_expression("-1"))
    profile = energy_profile(force=force, velocity=lambda t: 1.0,
                             velocity_deriv=lambda t: 0.0)
    with pytest.raises(TurningPoint) as exc:
        time_of_flight(profile, 0.0, 2.0)
    # the same queries one at a time: h0(x), u(x), then the scan to the stop
    ref = _ReferenceCache(force.f)
    h0x = 0.5 + ref(0.0)
    ref(0.0)
    smax = math.sqrt(2.0)
    for s in smax * (np.arange(1, 96) / 96):
        z = 0.0 + s * s
        if h0x - ref(z) <= 0.0:
            break
    assert exc.value.bracket[1] == z
    assert 10 < len(ref.zs) < 90
    _same_table(force._potential_cache, ref)


@pytest.mark.parametrize("text", [
    "1/(y - 0.5)",
    # (y - 0.5)/(y + 0.5): the array call gives 1/(1 + inf) = 0 at 0.5,
    # where a scalar call raises, and the first panel of [0, 1] passes
    "1/(1 + 1/(y - 0.5))",
])
def test_an_evaluation_error_mid_batch_surfaces_after_the_earlier_anchors(text):
    f = parse_expression(text)
    zs = [-0.25, 1.0, 2.0]    # the panel [0, 1] of 1.0 has its centre at 0.5
    ref = _ReferenceCache(f)
    with pytest.raises(EvaluationError):
        [ref(z) for z in zs]
    for way in ("whole", "one by one", "scalar"):
        cache = quadrature._PotentialCache(f)
        with pytest.raises(EvaluationError):
            if way == "scalar":
                [cache(z) for z in zs]
            elif way == "whole":
                cache.plan(zs).take(len(zs))
            else:
                plan = cache.plan(zs)
                [plan.take(1) for _ in zs]
        _same_table(cache, ref)


def test_a_full_cache_holds_its_anchors_as_float64_pairs():
    # check_auto on smooth_collide fills the cache to its cap; as a dict and
    # lists of boxed floats the anchors took the peak to 6.2 MiB and kept
    # 5.3 MiB, against 0.8 MB for 50,000 pairs of float64s
    s = load_bundled("smooth_collide")
    peak, kept = traced_mib(lambda: check_auto(s))
    cache = s.force._potential_cache
    assert cache.size == cache._MAX_ANCHORS
    assert peak < 2.0
    assert kept < 1.5


def test_a_dropped_cache_is_freed_without_a_garbage_collection():
    cache = quadrature._PotentialCache(parse_expression("1/(2 + y*y)"))
    plan = cache.plan([0.5, 1.5, 2.5, 3.0, 3.5])
    plan.take(3)
    gone = weakref.ref(cache)
    gc.disable()
    try:
        del cache, plan
        assert gone() is None
    finally:
        gc.enable()


def test_a_plan_answered_after_another_query_added_an_anchor_raises():
    f = parse_expression("1/(2 + y*y)")
    zs = [0.5, 1.5, 2.5, 3.5]
    cache, ref = quadrature._PotentialCache(f), _ReferenceCache(f)
    plan = cache.plan(zs)
    assert _bits(plan.take(2)) == _bits([ref(z) for z in zs[:2]])
    # a query at an anchor adds none, and the plan stays valid
    assert _bits([cache(1.5), plan.take(1)[0]]) == _bits([ref(1.5), ref(2.5)])
    assert _bits([cache(0.75)]) == _bits([ref(0.75)])
    with pytest.raises(InternalInconsistency):
        plan.take(1)
    _same_table(cache, ref)
    # a full cache keeps its anchors, so its plans stay valid
    small, small_ref = _SmallCache(f), _SmallReference(f)
    fill = [k / 4.0 for k in range(1, 30)]
    small.plan(fill).take(len(fill))
    zs = [0.6, 1.6, 2.6, 3.6]
    plan = small.plan(zs)
    got = plan.take(2) + [small(0.8)] + plan.take(2)
    assert small.size == small._MAX_ANCHORS
    assert _bits(got) == _bits(
        [small_ref(z) for z in fill + zs[:2] + [0.8] + zs[2:]][len(fill):])
    _same_table(small, small_ref)


def test_potentials_is_potential_in_order_for_every_force_kind():
    forces = [OneGap(f1=2.0, f2=1.0, a=2.0),
              TwoGap(f1=2.0, f2=1.0, f3=3.0, a=2.0, b=3.4),
              Smooth1D(f=parse_expression("1/(2 + y*y)")),
              Smooth1D(f=parse_expression("y^2"))]
    zs = [0.5, 3.0, -1.0, 2.5, 0.5, 4.0]
    for force in forces:
        want = [potential(force, z) for z in zs]
        force.__dict__.pop("_potential_cache", None)
        assert _bits(quadrature.potentials(force, zs)) == _bits(want)
        force.__dict__.pop("_potential_cache", None)
        profile = energy_profile(force=force)
        cut = profile.queries(zs).take(len(zs), stop=lambda u: u == want[3])
        assert _bits(cut) == _bits(want[:4])


#############################################################
# The vectorized first QUADPACK panel
#############################################################

_FORCE_TEXTS = ["1/(2 + y*y)", "0", "1", "y", "3.7/(1.3 + y*y)", "2.25*y",
                "exp(-y*y)*sin(3*y)"]


def _one_panel_quad(f, a, b):
    """(value, True) where quad returns after its first panel without a
    warning, (None, False) otherwise."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = scipy_quad(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=200,
                         full_output=1)
    if len(out) == 3 and out[2]["last"] == 1:
        return out[0], True
    return None, False


@settings(max_examples=80, deadline=None)
@given(text=st.sampled_from(_FORCE_TEXTS),
       panels=st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-13.0, 1.5),
                                 st.booleans()),
                       min_size=1, max_size=12))
def test_first_panel_kernel_accepts_and_answers_as_quad(text, panels):
    f = parse_expression(text)
    a = np.array([p[0] for p in panels])
    b = a + np.array([10.0 ** p[1] * (-1.0 if p[2] else 1.0) for p in panels])
    vals, ok, _ = quadrature._first_panels(f, a, b, 1e-14, 1e-12)
    for k in range(len(a)):
        want, one = _one_panel_quad(f, float(a[k]), float(b[k]))
        assert bool(ok[k]) == one
        if one:
            assert _bits([vals[k]]) == _bits([want])


def test_first_panel_kernel_also_declines_panels():
    f = parse_expression("exp(-y*y)*sin(3*y)")
    a = np.array([-6.0, 0.0, 1.0])
    b = np.array([5.0, 1e-3, 1.0 + 1e-9])
    _, ok, _ = quadrature._first_panels(f, a, b, 1e-14, 1e-12)
    assert ok.tolist() == [False, True, True]
    assert [_one_panel_quad(f, lo, hi)[1] for lo, hi in zip(a, b)] == [
        False, True, True]


def test_batched_quad_hands_its_integrand_the_points_scalar_quad_evaluates():
    # a peaked integrand that QUADPACK bisects several times, in z-space
    # and in s-space, z = x + s^2
    x = 0.3
    for space in ("z", "s"):
        to_z = (lambda t: t) if space == "z" else (lambda s: x + s * s)
        a, b = (x, 2.7) if space == "z" else (0.0, math.sqrt(2.4))

        def peaked(t):
            return 1.0 / (1e-3 + (to_z(t) - 0.9) ** 2) ** 1.5

        seen, lists = [], []

        def scalar(t):
            seen.append(t)
            return peaked(t)

        def listed(ts):
            lists.append(list(ts))
            return [peaked(t) for t in ts]

        want = quadrature._adaptive(scalar, a, b, 1e-14, 1e-10)
        got = quadrature._adaptive(listed, a, b, 1e-14, 1e-10, batched=True)
        assert _bits(got) == _bits(want)
        # one list per panel or bisection, in the order quad evaluates them
        assert len(lists) > 4
        assert [len(ts) for ts in lists] == [21] + [42] * (len(lists) - 1)
        assert _bits(t for ts in lists for t in ts) == _bits(seen)
        assert _bits(lists[0]) == _bits(quadrature._panel_points((a, b)))


#############################################################
# Planned queries: bisections, repeated scans, nan
#############################################################


def test_a_nan_query_is_nan_and_adds_no_anchor():
    force = Smooth1D(f=parse_expression("1/(2 + y*y)"))
    assert math.isnan(potential(force, math.nan))
    ref = _ReferenceCache(force.f)
    _same_table(force._potential_cache, ref)
    got = quadrature.potentials(force, [0.5, math.nan, 1.5, math.nan])
    assert math.isnan(got[1]) and math.isnan(got[3])
    assert math.isnan(potential(force, math.nan))
    assert _bits(got[::2]) == _bits([ref(0.5), ref(1.5)])
    _same_table(force._potential_cache, ref)


def _reference_profile(ref, velocity, profile):
    """The profile's energies from the queries made one at a time on ref,
    without a scan record."""
    def h0(x):
        v = velocity(x)
        return 0.5 * 1.0 * v * v + ref(x)

    return quadrature.EnergyProfile(
        u=ref, h0=h0, dh0=profile.dh0,
        queries=lambda zs: quadrature._OneByOne(ref, zs))


def _outcome(fn):
    try:
        return _bits([fn()])
    except TurningPoint as exc:
        return str(exc), _bits(exc.bracket)
    except InvalidParameter as exc:
        return (str(exc),)


@pytest.mark.parametrize("small", [False, True])
def test_repeated_scans_answer_as_the_queries_made_one_at_a_time(small):
    # U = arctan: a particle at x with speed w turns at
    # z = tan(w^2/2 + atan x); the two speeds share one anchor cache, and
    # 0.4 from 0 and 0.5 from 0.1 are reached at speed 1, not at speed 0.8
    f = parse_expression("-1/(1 + y*y)")
    dfn = parse_expression("2*y/(1 + y*y)^2")
    force = Smooth1D(f=f)
    force._potential_cache = (_SmallCache if small else
                              quadrature._PotentialCache)(f)
    ref = (_SmallReference if small else _ReferenceCache)(f)
    zero = lambda t: 0.0

    def zero_at_target(p, v, x, y):
        # F(y) = 0 raises InvalidParameter after the scan passes and U(y)
        # is taken, before the first panel of the integral is taken
        return dT_dx_by_parts(p, x, y, v, zero, lambda t: 1.0, zero,
                              lambda t: 0.0 if t == y else f(t), dfn)

    def zero_at_target_by_hand(p, v, x, y):
        # its queries one at a time: h0(x), the scan, U(y)
        h0x = p.h0(x)
        quadrature._scan_turning_point(p, x, y, h0x, [])
        if h0x - p.u(y) <= 0.0:
            raise TurningPoint("kinetic term vanishes at the target",
                               bracket=(x, y))
        raise InvalidParameter("the by-parts route requires a nonvanishing force")

    # (route, the same route on the reference)
    routes = [(route, route) for route in (
        lambda p, v, x, y: dT_dx(p, x, y, v, zero, f),
        lambda p, v, x, y: dT_dx_by_parts(p, x, y, v, zero, lambda t: 1.0,
                                          zero, f, dfn),
        lambda p, v, x, y: time_of_flight(p, x, y).time)]
    routes.insert(1, (zero_at_target, zero_at_target_by_hand))
    pairs = [(0.0, 0.4), (0.1, 0.5), (0.0, 2.0), (0.05, 0.3)]
    outcomes = []
    for speed in (1.0, 0.8, 1.0):
        v = lambda t, w=speed: w
        profile = energy_profile(force=force, velocity=v, velocity_deriv=zero)
        reference = _reference_profile(ref, v, profile)
        for x, y in pairs:
            for route, by_hand in routes:
                got = _outcome(lambda: route(profile, v, x, y))
                assert got == _outcome(lambda: by_hand(reference, v, x, y))
                _same_table(force._potential_cache, ref)
            outcomes.append(isinstance(got, tuple))
    assert outcomes == [False, False, True, False,
                        True, True, True, False] + outcomes[:4]
    assert len(profile.scans) == 2 * len(pairs)
    if small:
        assert len(ref.zs) == ref._MAX_ANCHORS


def test_smooth_positive_velocity_plans_all_but_one_query_per_margin(
        monkeypatch):
    # every scalar query is a plan of its own; the one left per margin is
    # u(x) inside h0(x)
    margins, unplanned = [], []
    dT = quadrature.dT_dx
    query = quadrature._PotentialCache.__call__

    def counted_dT(*args):
        margins.append(args[1:3])
        return dT(*args)

    def counted_query(cache, z):
        unplanned.append(z)
        return query(cache, z)

    monkeypatch.setattr(quadrature, "dT_dx", counted_dT)
    monkeypatch.setattr(quadrature._PotentialCache, "__call__", counted_query)
    check_smooth_positive_v(load_bundled("smooth_collide"))
    assert 0 < len(unplanned) <= len(margins)
