"""Flight-time integrals for one-dimensional motion in a potential.

A particle released at x with speed v(x) and unit mass moves in the potential
U (with U' = -F) at conserved energy H0(x) = m(x) v(x)^2 / 2 + U(x).  The time
to first reach y > x is

    T(x, y) = integral_x^y dz / sqrt(2 (H0(x) - U(z)))            (m = 1)

and its x-derivative admits two routes: a direct differentiation under the
integral (requires v(x) > 0) and an integration-by-parts form that stays
finite at v(x) = 0.  The integrand has an inverse-square-root endpoint
singularity when v(x) = 0; the substitution z = x + s^2 removes it exactly,
after which adaptive Gauss-Kronrod panels converge at machine precision.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad as _scipy_quad

from .errors import (
    InvalidParameter,
    QuadratureFailure,
    SingularBoundary,
    TurningPoint,
)
from .scenario import ConstantVec, OneGap, Smooth1D, TwoGap

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-13
DERIV_REL_TOL = 1e-10
DERIV_ABS_TOL = 1e-12
_V_ZERO_TOL = 1e-12


def _adaptive(fn, a, b, epsabs, epsrel):
    if a == b:
        return 0.0, 0.0
    val, err, info, *rest = _scipy_quad(
        fn, a, b, epsabs=epsabs, epsrel=epsrel, limit=200, full_output=1
    )
    if rest:
        val, err, info, *rest2 = _scipy_quad(
            fn, a, b, epsabs=epsabs * 10, epsrel=epsrel * 10, limit=500, full_output=1
        )
        if rest2:
            # a panel a few ulps wide defeats QUADPACK's roundoff test; take
            # the midpoint rule there, with the whole value as its error
            if abs(b - a) <= 1e-12 * max(1.0, abs(a), abs(b)):
                val = fn(0.5 * (a + b)) * (b - a)
                return float(val), abs(float(val))
            raise QuadratureFailure(
                f"adaptive quadrature failed on [{a:.6g}, {b:.6g}]: {rest2[0]}"
            )
    return float(val), float(err)


#############################################################
# Potential
#############################################################


def potential(force, y):
    """U(y) = -integral_0^y F(z) dz.

    Exact piecewise closed form for the gap forces (the integral of a
    piecewise-constant force is piecewise-linear); adaptive quadrature with an
    anchored antiderivative cache for smooth forces.
    """
    y = float(y)
    if isinstance(force, OneGap):
        if y <= force.a:
            return -force.f1 * y
        return -(force.f1 * force.a + force.f2 * (y - force.a))
    if isinstance(force, TwoGap):
        if y <= force.a:
            return -force.f1 * y
        if y <= force.b:
            return -(force.f1 * force.a + force.f2 * (y - force.a))
        return -(force.f1 * force.a + force.f2 * (force.b - force.a) + force.f3 * (y - force.b))
    if isinstance(force, ConstantVec) and force.dim == 1:
        return -float(force.vector[0]) * y
    f = force.f if isinstance(force, Smooth1D) else force
    if not callable(f):
        raise InvalidParameter("potential needs a one-dimensional force")
    cache = getattr(force, "_potential_cache", None)
    if cache is None or cache.f is not f:
        cache = _PotentialCache(f)
        try:
            force._potential_cache = cache
        except AttributeError:
            pass
    return cache(y)


class _PotentialCache:
    """Antiderivative of -f anchored at 0; each query integrates one short
    panel from the nearest known anchor, so repeated nearby evaluations stay
    cheap and accumulated error stays at panel level."""

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
        inc, _ = _adaptive(self.f, zn, z, 1e-14, 1e-12)
        u = un - inc
        if len(self.zs) < self._MAX_ANCHORS:
            j = bisect.bisect_left(self.zs, z)
            self.zs.insert(j, z)
            self.us.insert(j, u)
        return u


#############################################################
# Energy profile
#############################################################


@dataclass
class EnergyProfile:
    """Potential and conserved full energy of the labelled particles."""

    u: Callable[[float], float]
    h0: Callable[[float], float]
    dh0: Callable[[float], float]


def energy_profile(scenario=None, *, force=None, velocity=None, velocity_deriv=None,
                   mass=None, mass_deriv=None):
    """Builds U, H0 and H0' from a scenario or from explicit parts.

    H0(x) = m(x) v(x)^2 / 2 + U(x); with unit masses this is the familiar
    v^2/2 + U.  H0'(x) = m' v^2/2 + m v v' - F(x).
    """
    if scenario is not None:
        force = scenario.force
        velocity = scenario.init.velocity
        velocity_deriv = scenario.init.velocity_deriv
        mass = scenario.init.mass
        mass_deriv = scenario.init.mass_deriv
    if mass is None:
        mass = lambda x: 1.0
        mass_deriv = lambda x: 0.0
    if mass_deriv is None:
        from .scenario import central_difference

        mass_deriv = central_difference(mass)
    if velocity is None:
        velocity = lambda x: 0.0
        velocity_deriv = lambda x: 0.0
    if velocity_deriv is None:
        from .scenario import central_difference

        velocity_deriv = central_difference(velocity)

    def u(z):
        return potential(force, z)

    def h0(x):
        v = velocity(x)
        return 0.5 * mass(x) * v * v + u(x)

    def dh0(x):
        v = velocity(x)
        return (0.5 * mass_deriv(x) * v * v + mass(x) * v * velocity_deriv(x)
                - float(force(x)))

    return EnergyProfile(u=u, h0=h0, dh0=dh0)


#############################################################
# Flight time
#############################################################


@dataclass
class FlightResult:
    time: float
    dt_dx: Optional[float] = None
    error: float = 0.0
    singular_endpoint: bool = False


def _scan_turning_point(profile, x, y, h0x, n=96):
    """Raise TurningPoint if 2(H0 - U) vanishes strictly inside (x, y).

    Sampling is done in the transformed variable so that the left endpoint
    neighborhood, where the kinetic term vanishes for released-at-rest
    particles, is probed densely.
    """
    smax = math.sqrt(y - x)
    ss = smax * (np.arange(1, n) / n)
    for s in ss:
        z = x + s * s
        if z >= y:
            break
        if h0x - profile.u(z) <= 0.0:
            lo = x + (s - smax / n) ** 2 if s > smax / n else x
            raise TurningPoint(
                f"kinetic term vanishes near z = {z:.9g}; the particle turns "
                "around before reaching y",
                bracket=(lo, z),
            )


def time_of_flight(profile, x, y, rel_tol=DEFAULT_REL_TOL, abs_tol=DEFAULT_ABS_TOL):
    """Time for the particle labelled x to first reach y >= x.

    Uses the z = x + s^2 substitution, which turns the inverse-square-root
    endpoint singularity of released-at-rest particles into a bounded smooth
    integrand; raises TurningPoint when the particle cannot reach y.
    """
    x, y = float(x), float(y)
    if y < x:
        raise InvalidParameter("time_of_flight needs y >= x")
    if y == x:
        return FlightResult(time=0.0, error=0.0, singular_endpoint=False)
    h0x = profile.h0(x)
    k0 = 2.0 * (h0x - profile.u(x))
    singular = k0 <= _V_ZERO_TOL
    _scan_turning_point(profile, x, y, h0x)
    ky = 2.0 * (h0x - profile.u(y))
    if ky <= 0.0:
        raise TurningPoint(
            f"kinetic term vanishes at the target y = {y:.9g}", bracket=(x, y)
        )

    smax = math.sqrt(y - x)

    def integrand(s):
        k = 2.0 * (h0x - profile.u(x + s * s))
        if k <= 0.0:
            return 0.0
        return 2.0 * s / math.sqrt(k)

    val, err = _adaptive(integrand, 0.0, smax, abs_tol, rel_tol)
    return FlightResult(time=val, error=err, singular_endpoint=singular)


def gap_time_of_flight(force, profile, x, y):
    """Exact flight time under a gap force: per-region closed forms.

    Within a constant-force region the speed satisfies w^2 = k0 + 2 F (z-z0),
    so the segment time is (sqrt(k0 + 2 F dz) - sqrt(k0)) / F, or dz /
    sqrt(k0) for a force-free region.
    """
    x, y = float(x), float(y)
    if y < x:
        raise InvalidParameter("gap_time_of_flight needs y >= x")
    if isinstance(force, OneGap):
        cuts = [force.a]
        fs = [force.f1, force.f2]
    elif isinstance(force, TwoGap):
        cuts = [force.a, force.b]
        fs = [force.f1, force.f2, force.f3]
    else:
        raise InvalidParameter("gap_time_of_flight needs a gap force")
    h0x = profile.h0(x)
    total = 0.0
    z0 = x
    k0 = 2.0 * (h0x - profile.u(x))
    if k0 < -1e-15:
        raise TurningPoint("negative kinetic term at the start", bracket=(x, x))
    k0 = max(k0, 0.0)
    bounds = [c for c in cuts if x < c < y] + [y]
    for z1 in bounds:
        region = sum(1 for c in cuts if c <= z0 + 0.5 * (z1 - z0))
        f_seg = fs[region]
        dz = z1 - z0
        k1 = k0 + 2.0 * f_seg * dz
        if k1 <= 0.0 or (f_seg == 0.0 and k0 <= 0.0):
            raise TurningPoint(
                f"particle stops inside [{z0:.9g}, {z1:.9g}]", bracket=(z0, z1)
            )
        if f_seg == 0.0:
            total += dz / math.sqrt(k0)
        else:
            total += (math.sqrt(k1) - math.sqrt(k0)) / f_seg
        z0, k0 = z1, k1
    return FlightResult(time=total, error=0.0,
                        singular_endpoint=2.0 * (h0x - profile.u(x)) <= _V_ZERO_TOL)


#############################################################
# Flight-time derivatives
#############################################################


def dT_dx(profile, x, y, v, dv, f, rel_tol=DERIV_REL_TOL, abs_tol=DERIV_ABS_TOL):
    """Direct route for the x-derivative of the flight time (unit masses):

        dT/dx = -1/v(x) - (v v' - F(x))(x) / (2 sqrt(2))
                  * integral_x^y (H0(x) - U(z))^(-3/2) dz

    Requires v(x) > 0; raises SingularBoundary otherwise.
    """
    x, y = float(x), float(y)
    if y <= x:
        raise InvalidParameter("dT_dx needs y > x")
    vx = float(v(x))
    if vx <= _V_ZERO_TOL:
        raise SingularBoundary("dT_dx requires v(x) > 0; use the by-parts route")
    h0x = profile.h0(x)
    _scan_turning_point(profile, x, y, h0x)
    c = vx * float(dv(x)) - float(f(x))

    def integrand(z):
        d = h0x - profile.u(z)
        if d <= 0.0:
            return 0.0
        return d ** -1.5

    val, _ = _adaptive(integrand, x, y, abs_tol, rel_tol)
    return -1.0 / vx - c / (2.0 * math.sqrt(2.0)) * val


def dT_dx_by_parts(profile, x, y, v, dv, m, dm, f, df,
                   rel_tol=DERIV_REL_TOL, abs_tol=DERIV_ABS_TOL):
    """Integration-by-parts route, finite at v(x) = 0:

        H0'(x) [ (2(H0(x) - U(y)))^(-1/2) / F(y)
                 + integral_x^y (2(H0(x) - U(z)))^(-1/2) F'(z)/F(z)^2 dz ]
        - v'(x) sqrt(m(x)) / F(x) - v(x) m'(x) / (2 F(x) sqrt(m(x)))

    The return value is the left-minus-right of the no-collision inequality;
    a negative value means the inequality holds at (x, y).  For constant mass
    its sign equals the sign of dT/dx.
    """
    x, y = float(x), float(y)
    if y <= x:
        raise InvalidParameter("dT_dx_by_parts needs y > x")
    h0x = profile.h0(x)
    dh0x = profile.dh0(x)
    _scan_turning_point(profile, x, y, h0x)
    ky = 2.0 * (h0x - profile.u(y))
    if ky <= 0.0:
        raise TurningPoint("kinetic term vanishes at the target", bracket=(x, y))
    fy = float(f(y))
    fx = float(f(x))
    if fy == 0.0 or fx == 0.0:
        raise InvalidParameter("the by-parts route requires a nonvanishing force")

    smax = math.sqrt(y - x)

    def integrand(s):
        z = x + s * s
        k = 2.0 * (h0x - profile.u(z))
        if k <= 0.0:
            return 0.0
        fz = float(f(z))
        return 2.0 * s * float(df(z)) / (fz * fz * math.sqrt(k))

    integral, _ = _adaptive(integrand, 0.0, smax, abs_tol, rel_tol)
    bracket = 1.0 / (math.sqrt(ky) * fy) + integral
    mx = float(m(x))
    if mx <= 0.0:
        raise InvalidParameter("mass must be positive")
    vx = float(v(x))
    rhs = float(dv(x)) * math.sqrt(mx) / fx + vx * float(dm(x)) / (2.0 * fx * math.sqrt(mx))
    return dh0x * bracket - rhs


def dT_dx_weighted(profile, x, y, v, dv, m, dm, f, df,
                   rel_tol=DERIV_REL_TOL, abs_tol=DERIV_ABS_TOL):
    """x-derivative of the physical flight time sqrt(m(x)) T~(x, y).

    The reduced time T~ uses the mass-weighted energy but drops the overall
    sqrt(m) factor; restoring it gives

        d/dx [sqrt(m) T~] = m'/(2 sqrt(m)) T~ + sqrt(m) * (by-parts value),

    which reduces to the by-parts value itself for constant mass.  This is
    the quantity whose sign decides collisions for mass-varying ensembles.
    """
    base = dT_dx_by_parts(profile, x, y, v, dv, m, dm, f, df, rel_tol, abs_tol)
    dmx = float(dm(x))
    mx = float(m(x))
    if dmx == 0.0:
        return base
    t_reduced = time_of_flight(profile, x, y, rel_tol=rel_tol).time
    return dmx / (2.0 * math.sqrt(mx)) * t_reduced + math.sqrt(mx) * base
