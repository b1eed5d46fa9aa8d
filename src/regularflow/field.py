"""Euler velocity field and densities reconstructed along characteristics.

On a regular scenario the map x -> y(t, x) is strictly increasing, so each
image point carries exactly one particle and the velocity field
u(t, y(t, x)) = dy/dt is single-valued.  Two densities are maintained side by
side: the composition rho0(x(t, y)), which solves the transport equation, and
the pushforward rho0(x) / |dy/dx|, which solves the continuity equation and
conserves mass.  Both are reported with their own residuals rather than
picking one.

Field evaluation refuses times at or beyond the first detected collision:
past that point the flow is no longer invertible and every quantity here
loses its meaning.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List

import numpy as np
# unused here; perfbench/tracer.py wraps field.solve_ivp and field.brentq
# by name, and its tests read them
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq  # noqa: F401

from . import quadrature, simulator
from .errors import (
    HypothesisViolated,
    InvalidParameter,
    NotRegular,
    OutOfImage,
)
from .regularity import (
    COLLISION,
    EQUALITY_BAND,
    INCONCLUSIVE,
    PAIR_GRID,
    REGULAR,
    Verdict,
    _minimize_pair_margin,
)
from .scenario import (
    EULER_GLOBAL,
    Constant,
    Smooth1D,
    central_difference,
    line_force,
)
from .simulator import _eval_arcs, _label_arcs, _on_labels

INVERT_TOL = 1e-12
JACOBIAN_FLOOR = 1e-14
STENCIL_FRAC = 5e-4
_CACHE_NODES = 2049
_BATCH = 16384  # rows share a ``_field_row`` up to this many stencil points


@dataclass
class FieldGrid:
    """Field samples along the deformed particle grid.

    Row block k holds the image points y(times[k], x_i) of the initial grid,
    the velocity and both densities there, and pointwise PDE residuals from
    local central-difference stencils (nan where the stencil would leave the
    image or the prepared time range).
    """

    times: List[float]
    y: List[np.ndarray]
    u: List[np.ndarray]
    rho_transport: List[np.ndarray]
    rho_pushforward: List[np.ndarray]
    residual_euler: List[np.ndarray]
    residual_continuity: List[np.ndarray]

    def mass(self, k):
        """Integral of the pushforward density over the image at times[k]."""
        return float(np.trapezoid(self.rho_pushforward[k], self.y[k]))


@dataclass
class BoundaryTrack:
    """Trajectories of the two material endpoints of a 1D region."""

    times: np.ndarray
    L: np.ndarray
    R: np.ndarray


class FlowMap:
    """Queryable 1D flow (t, x) -> (y, v) with regularity gating.

    Gap, constant and step forces evaluate in closed form, a whole array of
    labels per call, each label at its own time.  Smooth forces answer grid
    queries, Jacobians and the image that inversion searches from cubic
    splines over a dense cached ensemble at the time asked, kept for the
    last time only; ``states`` integrates each label on its own, a
    one-label NumericFlow1D, for the material endpoints that
    ``track_boundary`` follows.  ``ensure_regular`` refuses times at or past
    the first collision on [0, horizon]: the first fold of the dense cache
    for smooth forces, the exact detection otherwise.
    """

    def __init__(self, scenario, horizon):
        if scenario.dim != 1:
            raise InvalidParameter("FlowMap supports one-dimensional scenarios")
        horizon = float(horizon)
        if not math.isfinite(horizon) or horizon <= 0.0:
            raise InvalidParameter("FlowMap needs a finite positive horizon")
        self.scenario = scenario
        self.horizon = horizon
        self.x_lo = scenario.domain.lower[0]
        self.x_hi = scenario.domain.upper[0]
        self.levels = simulator._force_levels(scenario)
        self.mode = "numeric" if self.levels is None else "exact"
        self._label_flows = {}
        self._dense = None
        self._memo = (math.nan, None)  # the last time splined, its splines
        self._regular_until = None

    # -- regularity gate ----------------------------------------------------

    def regular_until(self):
        """First detected collision time on [0, horizon], or +inf."""
        if self._regular_until is None:
            if self.mode == "numeric":
                report = simulator._numeric_first_collision(
                    self._dense_flow())
            else:
                report = simulator.detect_collisions_1d(self.scenario,
                                                        horizon=self.horizon)
            self._regular_until = report.t_first if report.found else math.inf
        return self._regular_until

    def ensure_regular(self, t):
        t = float(t)
        if t < 0.0:
            raise InvalidParameter("time must be nonnegative")
        if t > self.horizon * (1.0 + 1e-12):
            raise InvalidParameter(
                f"time {t} exceeds the prepared horizon {self.horizon}")
        bound = self.regular_until()
        if t >= bound:
            raise NotRegular(
                f"the flow collides at t = {bound}; the field is undefined "
                f"at t = {t}")

    # -- pointwise states ---------------------------------------------------

    def states(self, t, xs):
        """(y, v) of the particles labelled xs, each at its time of t (a
        number or an array broadcast against xs), arrays of the broadcast
        shape: closed form for gap, constant and step forces, one cached
        dense integration per label for smooth ones.  Each element has the bits
        of its evaluation at one number."""
        if self.mode == "numeric":
            t, xs = np.broadcast_arrays(np.asarray(t, dtype=float),
                                        np.asarray(xs, dtype=float))
            ys = np.empty(xs.shape)
            vs = np.empty(xs.shape)
            for i, x in np.ndenumerate(xs):
                (ys[i],), (vs[i],) = self._single_flow(float(x)).states(
                    float(t[i]))
            return ys, vs
        return _eval_arcs(_label_arcs(self.scenario, xs, self.levels,
                                      horizon=self.horizon),
                          np.asarray(t, dtype=float))[:2]

    def state(self, t, x):
        y, v = self.states(t, float(x))
        return float(y), float(v)

    def position(self, t, x):
        return self.state(t, x)[0]

    def boundaries(self, t):
        """Material endpoints (L, R) at time t: floats for a number, arrays
        for a 1-D array of times, all from one ``states`` call."""
        ys, _ = self.states(np.expand_dims(t, -1), (self.x_lo, self.x_hi))
        if np.ndim(t) == 0:
            return float(ys[0]), float(ys[1])
        return ys[:, 0], ys[:, 1]

    def _single_flow(self, x):
        flow = self._label_flows.get(x)
        if flow is None:
            flow = simulator.NumericFlow1D(self.scenario, [x], self.horizon,
                                           check_energy=False)
            if len(self._label_flows) > 20000:
                self._label_flows.clear()
            self._label_flows[x] = flow
        return flow

    # -- dense cache for smooth forces --------------------------------------

    def _dense_flow(self):
        if self._dense is None:
            xs = np.linspace(self.x_lo, self.x_hi, _CACHE_NODES)
            self._dense = simulator.NumericFlow1D(
                self.scenario, xs, self.horizon)
        return self._dense

    def _splines(self, t):
        """(spl_y, spl_v, increasing) at time t: cubic splines of position
        and velocity over the dense cache's labels, and whether its node
        positions are strictly increasing; only the last time's are kept."""
        t = float(t)
        if t != self._memo[0]:
            dense = self._dense_flow()
            ys, vs = dense.states(t)
            self._memo = t, (CubicSpline(dense.xs, ys),
                             CubicSpline(dense.xs, vs),
                             bool(np.all(ys[1:] > ys[:-1])))
        return self._memo[1]

    def _on_splines(self, t, xs, *calls):
        """For each (k, nu) of calls, the nu-th label derivative of spline k
        (0 position, 1 velocity) of the dense cache at the labels xs, all
        at the one time t."""
        splines = self._splines(t)
        return [splines[k](np.asarray(xs, dtype=float), nu) for k, nu in calls]

    def jacobian(self, t, x):
        """dy/dx for a label or an array of labels, each at its time of t
        (a number or an array broadcast against x; one number for smooth
        forces), by the cached spline for smooth forces and by a narrow
        central difference of the closed form otherwise."""
        x = np.asarray(x, dtype=float)
        if self.mode == "numeric":
            jac, = self._on_splines(t, x, (0, 1))
        else:
            h = max(1e-6 * (self.x_hi - self.x_lo), 1e-9)
            xc = np.minimum(np.maximum(x, self.x_lo + h), self.x_hi - h)
            jac = (self.states(t, xc + h)[0]
                   - self.states(t, xc - h)[0]) / (2.0 * h)
        return float(jac) if jac.ndim == 0 else jac

    def grid_states(self, t, xs):
        """Vectorized (y, v) over an array of labels, each at its time of t
        (a number or an array broadcast against xs; one number for smooth
        forces, which answer from the splines of the dense cache)."""
        if self.mode == "numeric":
            return tuple(self._on_splines(t, xs, (0, 0), (1, 0)))
        return self.states(t, xs)

    def image(self, t):
        """Ends (L, R) of the image at time t that inversion searches, floats
        for a number and arrays for a 1-D array of times: the closed-form
        material endpoints, or for smooth forces the per-time spline at
        x_lo and x_hi.  Raises NotRegular when a smooth flow's cache nodes
        are not strictly increasing at t."""
        if self.mode != "numeric":
            return self.boundaries(t)
        if np.ndim(t):
            ends = np.array([self.image(float(tk)) for tk in t]).reshape(-1, 2)
            return ends[:, 0], ends[:, 1]
        spl_y, _, increasing = self._splines(t)
        if not increasing:
            raise NotRegular(
                f"the flow is not increasing in the label at t = {t}")
        return float(spl_y(self.x_lo)), float(spl_y(self.x_hi))


def _flow_for(scenario, t, flow):
    if flow is not None:
        return flow
    return FlowMap(scenario, horizon=max(float(t), 1e-9) * (1.0 + 1e-9))


def invert_flow_1d(scenario, t, y, flow=None):
    """Label x with y(t, x) = y, by the one inversion ``_invert``.

    Raises OutOfImage when y lies outside the image [L(t), R(t)] and
    NotRegular when t is at or past the first detected collision or the
    flow is no longer increasing at t.
    """
    t = float(t)
    ys = np.array([float(y)])
    flow = _flow_for(scenario, t, flow)
    xs = _invert(flow, t, ys)
    _require_image(flow, t, ys, xs)
    return float(xs[0])


def _require_image(flow, t, ys, xs):
    """Raise OutOfImage naming the first point of ys that has no label in
    xs, quoting the image that ``_invert`` searched."""
    outside = np.flatnonzero(np.isnan(xs))
    if outside.size:
        L, R = flow.image(t)
        raise OutOfImage(f"y = {float(ys[outside[0]])} is outside the image "
                         f"[{L}, {R}] at t = {t}")


def _invert(flow, t, ys):
    """Labels of a 1-D array of image points ys, each at its time of t (a
    number or an array broadcast against ys; one number on a smooth flow),
    the only route from an image point to a label.

    Each distinct time is gated once: ``ensure_regular`` (t > 0), then its
    image [L, R] from one ``flow.image`` call over all the times.  A point
    outside its image by more than a relative 1e-9 gets nan; one inside
    that slack is clamped into [L, R], and a point at an end gets that
    end's label.  Closed-form flows bisect every other point on their arcs,
    all times at once; smooth flows solve the points on the position spline
    at their time in one array Brent iteration.  Each point has the bits of its
    inversion alone.  Raises NotRegular when a time is at or past the first
    detected collision, the material endpoints have crossed, or a smooth
    flow has folded.
    """
    times, at = np.unique(np.asarray(t, dtype=float), return_inverse=True)
    for tk in times:
        if tk > 0.0:
            flow.ensure_regular(tk)
    L, R = flow.image(times)
    slack = 1e-9 * np.fmax(1.0, R - L)
    crossed = np.flatnonzero(R < L - slack)
    if crossed.size:
        raise NotRegular("the material endpoints have crossed at "
                         f"t = {float(times[crossed[0]])}")
    at = np.broadcast_to(at.reshape(np.shape(t)), ys.shape)
    L, R, slack = L[at], R[at], slack[at]
    xs = np.full(ys.shape, math.nan)
    inside = np.flatnonzero(~((ys < L - slack) | (ys > R + slack)))
    at, L, R = at[inside], L[inside], R[inside]
    y = np.minimum(np.maximum(ys[inside], L), R)
    x = np.where(y <= L, flow.x_lo, np.where(y >= R, flow.x_hi, math.nan))
    todo = np.flatnonzero(np.isnan(x))
    if flow.mode == "numeric":
        x[todo] = _brentq_many(flow._splines(t)[0], flow.x_lo, flow.x_hi,
                               y[todo])
    else:
        x[todo] = _bisect(lambda tt, mid: flow.states(tt, mid)[0],
                          times[at[todo]], y[todo], flow.x_lo, flow.x_hi)
    xs[inside] = x
    return xs


def _bisect(position, t, y, lo, hi):
    """Solve position(t, x) = y for a position increasing in x on [lo, hi],
    one element of t and y at a time.

    Each element takes the midpoints of a scalar bisection of the bracket
    and stops once its bracket is no wider than INVERT_TOL; the answer is
    the final midpoint.  Every element starts from the same bracket, so
    whole arrays step together until the first one stops.
    """
    lo = np.full(y.shape, float(lo))
    hi = np.full(y.shape, float(hi))
    while y.size and np.all(hi - lo > INVERT_TOL):
        mid = 0.5 * (lo + hi)
        below = position(t, mid) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    active = np.flatnonzero(hi - lo > INVERT_TOL)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        below = position(t[active], mid) < y[active]
        lo[active[below]] = mid[below]
        hi[active[~below]] = mid[~below]
        active = active[hi[active] - lo[active] > INVERT_TOL]
    return 0.5 * (lo + hi)


def _field_row(flow, rho0, t, ys):
    """(labels, u, pushforward density) at the image points ys, each at its
    time of t (a number or an array broadcast against ys), nan where a
    point lies outside the image; raises as ``_invert``.  A smooth flow
    takes the times one by one in the order they come, each as a number."""
    if flow.mode == "numeric" and np.ndim(t):
        t = np.broadcast_to(t, ys.shape)
        out = np.empty((3,) + ys.shape)
        for tk in dict.fromkeys(t.tolist()):
            out[:, t == tk] = _field_row(flow, rho0, tk, ys[t == tk])
        return tuple(out)
    x = _invert(flow, t, ys)
    u = np.full(ys.shape, math.nan)
    rho = np.full(ys.shape, math.nan)
    found = ~np.isnan(x)
    if found.any():
        t = np.broadcast_to(t, ys.shape)[found] if np.ndim(t) else t
        _, u[found] = flow.grid_states(t, x[found])
        rho[found] = _pushforward(_on_labels(rho0, x[found]),
                                  flow.jacobian(t, x[found]))
    return x, u, rho


def _stencil_leg(flow, rho0, t, ys):
    """(u, pushforward density) along a stencil leg, nan off the image and
    wherever t is outside the regular range."""
    try:
        return _field_row(flow, rho0, t, ys)[1:]
    except (NotRegular, InvalidParameter):
        return np.full(ys.shape, math.nan), np.full(ys.shape, math.nan)


def _stencil_legs(flow, rho0, legs):
    """``_stencil_leg`` of each (t, ys) of legs, all of them in one
    ``_field_row``; when that raises, one leg at a time, so only the legs
    outside the regular range come out nan."""
    t = np.concatenate([np.full(ys.shape, t) for t, ys in legs])
    try:
        _, u, rho = _field_row(flow, rho0, t,
                               np.concatenate([ys for _, ys in legs]))
    except (NotRegular, InvalidParameter):
        return [_stencil_leg(flow, rho0, t, ys) for t, ys in legs]
    cuts = np.cumsum([ys.size for _, ys in legs])[:-1]
    return list(zip(np.split(u, cuts), np.split(rho, cuts)))


def reconstruct_velocity(scenario, t, y, flow=None):
    """u(t, y): the velocity of the unique particle sitting at y at time t."""
    flow = _flow_for(scenario, t, flow)
    x = invert_flow_1d(scenario, t, y, flow=flow)
    return float(flow.grid_states(t, np.array([x]))[1][0])


def _density0(scenario):
    rho0 = scenario.init.density
    if rho0 is None:
        return Constant(1.0)
    return rho0


def _pushforward(rho0_vals, jac):
    return rho0_vals / np.maximum(np.abs(jac), JACOBIAN_FLOOR)


#############################################################
# Window residuals
#############################################################


def _window_field(scenario, t_window, y_window, n_t, n_y, flow):
    """Node grids ts, ys of a space-time window, then its labels, u and
    pushforward density, one row per time, all nodes in one ``_field_row``;
    OutOfImage names the first window node outside the image."""
    t0, t1 = map(float, t_window)
    y0, y1 = map(float, y_window)
    if not (t1 > t0 >= 0.0):
        raise InvalidParameter("time window must satisfy 0 <= t0 < t1")
    if not y1 > y0:
        raise InvalidParameter("space window must satisfy y0 < y1")
    if n_t < 3 or n_y < 3:
        raise InvalidParameter("windows need at least 3 nodes per axis")
    ts, ys = np.linspace(t0, t1, n_t), np.linspace(y0, y1, n_y)
    flow = _flow_for(scenario, ts[-1], flow)
    flow.ensure_regular(ts[-1])
    xs, u, rho = (a.reshape(n_t, n_y) for a in _field_row(
        flow, _density0(scenario), np.repeat(ts, n_y), np.tile(ys, n_t)))
    for t, row in zip(ts, xs):
        _require_image(flow, float(t), ys, row)
    return ts, ys, xs, u, rho


def _central(a, ts, ys):
    """Second-order central differences (d/dt, d/dy) of a window array, on
    the interior nodes."""
    return ((a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * (ts[1] - ts[0])),
            (a[1:-1, 2:] - a[1:-1, :-2]) / (2.0 * (ys[1] - ys[0])))


def euler_residual(scenario, t_window, y_window, n_t=9, n_y=9, flow=None):
    """Max |du/dt + u du/dy - F(y)| on the interior of a space-time window.

    The field u is the velocity of the particle found at each window node
    by flow inversion; derivatives are second-order central differences on
    the window grid, so the returned value decays like h^2 on smooth
    regular scenarios.  Returns the maximum and its (t, y) location.
    """
    ts, ys, _, u, _ = _window_field(scenario, t_window, y_window, n_t, n_y,
                                    flow)
    du_dt, du_dy = _central(u, ts, ys)
    fy = _on_labels(line_force(scenario.force), ys[1:-1])
    res = du_dt + u[1:-1, 1:-1] * du_dy - fy[None, :]
    k = int(np.argmax(np.abs(res)))
    j, i = divmod(k, res.shape[1])
    return float(np.abs(res[j, i])), (float(ts[j + 1]), float(ys[i + 1]))


def continuity_residual(scenario, t_window, y_window, n_t=9, n_y=9, flow=None):
    """Central-difference defects of both density laws on a window.

    Returns (max transport defect, max continuity defect): the transport form
    d rho/dt + u d rho/dy for the composition density and the divergence form
    d rho/dt + d(u rho)/dy for the pushforward density, both at the labels
    and velocities that flow inversion finds at the window nodes.
    """
    ts, ys, xs, u, rho_p = _window_field(scenario, t_window, y_window, n_t,
                                         n_y, flow)
    drho_dt, drho_dy = _central(_on_labels(_density0(scenario), xs), ts, ys)
    transport = drho_dt + u[1:-1, 1:-1] * drho_dy
    continuity = _central(rho_p, ts, ys)[0] + _central(u * rho_p, ts, ys)[1]
    return float(np.max(np.abs(transport))), float(np.max(np.abs(continuity)))


#############################################################
# Boundary tracking and field sampling
#############################################################


def track_boundary(scenario, horizon, n_out=257, flow=None):
    """Newton trajectories of the material endpoints y(t, x_lo), y(t, x_hi)."""
    if scenario.dim != 1:
        raise InvalidParameter("track_boundary needs a one-dimensional scenario")
    horizon = float(horizon)
    flow = flow or FlowMap(scenario, horizon=horizon)
    times = np.linspace(0.0, horizon, n_out)
    L, R = flow.boundaries(times)
    return BoundaryTrack(times=times, L=L, R=R)


_BRENT_XTOL = 1e-13
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _nan_raise(fx, x):
    bad = np.flatnonzero(np.isnan(fx))
    if bad.size:
        x = float(np.broadcast_to(x, fx.shape)[bad[0]])
        raise ValueError(f"The function value at x={x} is NaN; solver "
                         "cannot continue.")
    return fx


def _brentq_many(f, lo, hi, ys):
    """Roots of f(x) = y on [lo, hi], one per element of the 1-D array ys,
    by scipy's Brent iteration (brentq.c) run on every element at once.

    f maps an array of points to an array of values.  Each element takes
    the steps of ``brentq(lambda x: float(f(x)) - y, lo, hi, xtol=1e-13)``
    in the same floating-point operations, so its root has the same bits.
    Each iteration calls f once, on the elements still active.  A nan value
    raises ValueError and an element left unconverged after scipy's 100
    iterations raises RuntimeError, as brentq does.
    """
    ys = np.asarray(ys, dtype=float)
    roots = np.empty(ys.shape)
    ends = np.array([float(lo), float(hi)])
    f_lo, f_hi = f(ends)
    fpre = _nan_raise(f_lo - ys, ends[0])
    fcur = _nan_raise(f_hi - ys, ends[1])
    at_lo = fpre == 0.0
    at_hi = ~at_lo & (fcur == 0.0)
    roots[at_lo] = ends[0]
    roots[at_hi] = ends[1]
    idx = np.flatnonzero(~(at_lo | at_hi))
    if np.any(np.signbit(fpre[idx]) == np.signbit(fcur[idx])):
        raise ValueError("f(a) and f(b) must have different signs")
    y, fpre, fcur = ys[idx], fpre[idx], fcur[idx]
    xpre = np.full(idx.shape, ends[0])
    xcur = np.full(idx.shape, ends[1])
    xblk, fblk, spre, scur = (np.zeros(idx.shape) for _ in range(4))
    for _ in range(_BRENT_MAXITER):
        flip = ((fpre != 0.0) & (fcur != 0.0)
                & (np.signbit(fpre) != np.signbit(fcur)))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre),
                            np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre),
                            np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (_BRENT_XTOL + _BRENT_RTOL * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            roots[idx[done]] = xcur[done]
            keep = ~done
            (idx, y, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
             delta, sbis) = (a[keep] for a in (
                 idx, y, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                 delta, sbis))
        if not idx.size:
            return roots
        with np.errstate(all="ignore"):  # each element uses one of the two
            interpolated = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolated = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, interpolated, extrapolated)
        # spre and sbis stay finite, so np.minimum is brentq.c's MIN
        cap = np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2.0 * np.abs(stry) < cap))
        spre = np.where(short, scur, sbis)
        scur = np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = np.where(np.abs(scur) > delta, xcur + scur,
                        xcur + np.where(sbis > 0.0, delta, -delta))
        fcur = _nan_raise(f(xcur) - y, xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} "
                       f"iterations, value is {xcur[0]:f}")


def sample_field(scenario, times=None, horizon=None, n_times=9, flow=None):
    """FieldGrid along the deformed initial grid at the requested times.

    The y-grid at each time is the image of the scenario's label grid, where
    u and both densities are direct particle data; the residual columns use
    local central-difference stencils around each sample (nan where a stencil
    leg leaves the image or t = 0 admits no centered difference).  The
    stencil legs (t +- dt, y +- dy) of as many rows as fit in _BATCH points,
    at least one (one on a smooth flow), go to one ``_stencil_legs``.
    """
    if scenario.dim != 1:
        raise InvalidParameter("sample_field needs a one-dimensional scenario")
    if times is None:
        if horizon is None:
            horizon = scenario.horizon
        if not math.isfinite(horizon):
            raise InvalidParameter(
                "sample_field needs explicit times or a finite horizon")
        times = np.linspace(0.0, float(horizon), n_times)
    times = np.asarray(sorted(float(t) for t in times), dtype=float)
    if times[0] < 0.0:
        raise InvalidParameter("sample times must be nonnegative")
    t_max = float(times[-1])
    dt = STENCIL_FRAC * max(1.0, t_max)
    if flow is None:
        flow = FlowMap(scenario, horizon=(t_max + 2.0 * dt) * (1.0 + 1e-9))
    flow.ensure_regular(t_max)
    xs = scenario.grid_1d()
    rho0 = _density0(scenario)
    rho0_vals = _on_labels(rho0, xs)
    f = line_force(scenario.force)

    out, rows, legs = [], [], []
    for k, t in enumerate(map(float, times)):
        ys, vs = flow.grid_states(t, xs)
        dy = STENCIL_FRAC * max(float(ys[-1] - ys[0]), 1.0)
        rows.append((t, ys, vs, dy,
                     _pushforward(rho0_vals, flow.jacobian(t, xs))))
        if t - dt >= 0.0:
            legs += [(t, ys + dy), (t, ys - dy), (t + dt, ys), (t - dt, ys)]
        if (k + 1 < len(times) and flow.mode != "numeric"
                and (len(legs) + 4) * len(xs) <= _BATCH):
            continue  # the legs of the next row fit in the same batch
        legs = iter(_stencil_legs(flow, rho0, legs) if legs else ())
        for t, ys, vs, dy, rho in rows:
            res_e = np.full(len(xs), math.nan)
            res_c = np.full(len(xs), math.nan)
            if t - dt >= 0.0:
                (u_yp, rho_yp), (u_ym, rho_ym), (u_tp, rho_tp), (u_tm, rho_tm) = (
                    next(legs) for _ in range(4))
                res_e = ((u_tp - u_tm) / (2.0 * dt)
                         + vs * ((u_yp - u_ym) / (2.0 * dy)) - _on_labels(f, ys))
                res_c = ((rho_tp - rho_tm) / (2.0 * dt)
                         + (u_yp * rho_yp - u_ym * rho_ym) / (2.0 * dy))
            out.append((t, ys, vs, rho0_vals.copy(), rho, res_e, res_c))
        rows, legs = [], []
    return FieldGrid(*map(list, zip(*out)))


def write_field_csv(grid, path):
    """Dump a FieldGrid as CSV rows ordered by time, then label."""
    blocks = (grid.y, grid.u, grid.rho_transport, grid.rho_pushforward,
              grid.residual_euler, grid.residual_continuity)

    def frames(fh, k0, k1):
        columns = [simulator._ColumnText() for _ in blocks]
        for k in range(k0, k1):
            simulator._write_rows(fh, [
                itertools.repeat(repr(float(grid.times[k])), len(grid.y[k])),
                *(col.update(block[k]) for col, block in zip(columns, blocks))])

    simulator._write_frames(
        path, "t,y,u,rho_transport,rho_pushforward,res_euler,res_continuity\n",
        len(grid.times), 7 * sum(map(len, grid.y)), frames)


#############################################################
# Global smooth solvability of the Euler equation
#############################################################


def check_euler_global(force, velocity, velocity_deriv=None, force_deriv=None,
                       cutoff=10.0):
    """Global-in-time smooth solvability of the compressible Euler system
    built from these characteristics, for unit masses on the line.

    Requires v >= 0 and F > 0 (C^2); decides on the sign of the flight-time
    derivative over the truncation [-X, X].  A Regular verdict whose worst
    margin sits against the truncation boundary is downgraded to
    Inconclusive, since the line continues past the sampled range.
    """
    X = float(cutoff)
    if not (math.isfinite(X) and X > 0.0):
        raise InvalidParameter("cutoff must be positive and finite")
    if not callable(force):
        raise InvalidParameter("check_euler_global needs a callable force")
    f = line_force(force)
    df = force_deriv
    if df is None:
        df = force.df if isinstance(force, Smooth1D) else central_difference(f)
    dv = velocity_deriv or central_difference(velocity)
    for x in np.linspace(-X, X, 129):
        if float(velocity(float(x))) < 0.0:
            raise HypothesisViolated("initial velocity must be nonnegative",
                                     criterion=EULER_GLOBAL, witness=float(x))
    for z in np.linspace(-X, X, 257):
        if float(f(float(z))) <= 0.0:
            raise HypothesisViolated("force must be strictly positive",
                                     criterion=EULER_GLOBAL, witness=float(z))
    profile = quadrature.energy_profile(force=f, velocity=velocity,
                                        velocity_deriv=dv)
    m_one = lambda x: 1.0
    dm_zero = lambda x: 0.0

    def margin(x, y):
        return -quadrature.dT_dx_by_parts(profile, x, y, velocity, dv,
                                          m_one, dm_zero, f, df)

    rng = np.random.default_rng(912699)
    min_val, xy = _minimize_pair_margin(margin, -X, X, X, PAIR_GRID,
                                        PAIR_GRID, rng)
    band = EQUALITY_BAND * max(1.0, abs(min_val))
    if min_val < -band:
        return Verdict(outcome=COLLISION, criterion=EULER_GLOBAL,
                       margin=min_val,
                       witness={"x": xy[0], "y": xy[1]},
                       reason="characteristics cross; no global smooth solution")
    h_x = 2.0 * X / (PAIR_GRID - 1)
    at_edge = xy[0] <= -X + h_x or xy[1] >= X - h_x
    if min_val > band and not at_edge:
        return Verdict(outcome=REGULAR, criterion=EULER_GLOBAL, margin=min_val)
    reason = ("worst margin sits against the truncation boundary"
              if at_edge and min_val > band else
              "margin inside the equality band")
    return Verdict(outcome=INCONCLUSIVE, criterion=EULER_GLOBAL,
                   margin=min_val, witness={"x": xy[0], "y": xy[1]},
                   reason=reason)
