"""Ensemble propagation and collision detection oracles.

Gap, constant and half-space step forces admit exact piecewise-parabolic
trajectories, so collision queries reduce to root finding on per-pair
quadratic segments; every other force is integrated by NewtonFlow, the one
DOP853 solve.  All detectors return a CollisionReport whose ``mode`` records
which route decided ("Exact", "Numeric", or "Asymptotic" for
infinite-horizon gap verdicts).
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.integrate import DOP853, cumulative_trapezoid, solve_ivp
from scipy.spatial import cKDTree

from . import quadrature
from .expressions import Expression
from .errors import (
    InvalidParameter,
    NeverReaches,
    OriginApproach,
    StepFailure,
)
from .scenario import (
    Annulus,
    Constant,
    ConstantVec,
    HalfSpaceStep,
    Linear,
    OneGap,
    TwoGap,
    constant_value,
    line_force,
)

DEFAULT_N_OUT = 256
RTOL = 1e-10
ATOL = 1e-12
ENERGY_DRIFT_BUDGET = 1e-8
MICRO_PAIR_STEP = 1e-7
REFINE_PASSES = 5
HISTORY_FRAMES = 64
MAX_PHASES = 64
# output frames per block of a frame scan or of a trajectory.csv range,
# which bounds its memory
GAP_FRAMES = 16
# label pairs per block of the exact multi-d pair tests
PAIR_CHUNK = 500000


class _Tables:
    """Frames at ``times`` that ``frames(lo, hi)`` gives on demand, as
    (positions, velocities) of frames lo..hi-1; ``y`` and ``v`` are the
    whole tables, built on first read."""

    _table = None

    @property
    def y(self):
        return self._tables()[0]

    @property
    def v(self):
        return self._tables()[1]

    def _tables(self):
        if self._table is None:
            self._table = self.frames(0, len(self.times))
        return self._table


class EnsembleTrajectory(_Tables):
    """The labels x0 and their frames at ``times``: from the tables y and
    v, shaped (len(times), *x0.shape), or from ``frames(lo, hi)``, which
    gives frames lo..hi-1 on demand."""

    def __init__(self, times, x0, y=None, v=None, mode="Numeric",
                 frames=None):
        self.times = times
        self.x0 = x0
        self.mode = mode
        if frames is None:
            self._table = (y, v)
            frames = lambda lo, hi: (y[lo:hi], v[lo:hi])
        self.frames = frames

    @property
    def n_particles(self):
        return self.x0.shape[0]


@dataclass
class CollisionReport:
    found: bool
    t_first: Optional[float] = None
    pair: Optional[tuple] = None
    pair_indices: Optional[tuple] = None
    min_gap_history: Optional[np.ndarray] = None
    times: Optional[np.ndarray] = None
    mode: str = "Numeric"
    details: dict = field(default_factory=dict)


#############################################################
# Exact piecewise-parabolic kinematics (gap, constant and step forces)
#############################################################


def _on_labels(fn, xs):
    """A 1D profile at every label of the array xs, with the bits of one
    scalar call per label.

    A Constant, an Expression and a gap force answer the whole array in
    one call; any other callable is called per label.  Where the array
    answer is not finite the profile is called again per label, so an
    expression raises EvaluationError wherever its scalar call would.
    """
    if not isinstance(fn, (Constant, Expression, OneGap, TwoGap)):
        return np.array([float(fn(float(x))) for x in xs.ravel()]).reshape(
            xs.shape)
    out = fn(xs)
    bad = ~np.isfinite(out)
    if bad.any():
        for x in xs[bad]:
            fn(float(x))
    return out


def _gap_segments(levels, xs, v0, m):
    """Exact arcs of the forward trajectories of the labels xs, started with
    velocities v0, as a list of (start, y0, v0, a) columns over the labels.

    ``levels`` is a gap force, or the value of a constant force, whose
    trajectories are one arc; accelerations are the force levels divided by
    the masses m, an array over the labels or one common number.  Each
    column is an array over the labels or one number shared by all of them.
    """
    if not isinstance(levels, (OneGap, TwoGap)):
        return [(0.0, xs, v0, levels / m)]
    a1 = levels.f1 / m
    a2 = levels.f2 / m
    d = v0 * v0 + 2.0 * a1 * (levels.a - xs)
    if np.any(d < 0.0):
        raise NeverReaches("particle never reaches the first force step")
    v_a = np.sqrt(d)
    arcs = [(0.0, xs, v0, a1), ((-v0 + v_a) / a1, levels.a, v_a, a2)]
    if isinstance(levels, TwoGap):
        d2 = v_a * v_a + 2.0 * a2 * (levels.b - levels.a)
        if np.any(d2 < 0.0):
            raise NeverReaches("particle never reaches the second force step")
        v_b = np.sqrt(d2)
        arcs.append((arcs[1][0] + (-v_a + v_b) / a2, levels.b, v_b,
                     levels.f3 / m))
    return arcs


def _plane_arcs(force, xs, v0, m, horizon):
    """Exact arcs of the labels xs under the half-space step ``force`` on
    [0, horizon], started with velocities v0 and masses m, as (start, y0,
    v0, a) columns in ``_eval_arcs``' format.

    On the line xs, v0 and m are arrays of one shape, and so is every
    column; in d dimensions xs and v0 are shaped (n, d), m is a number, a
    start column is shaped (n, 1) and the others (n, d).  A label is below
    the plane while its split coordinate is under it, or on it and
    falling.  Its phase ends where that coordinate next reaches the plane,
    a root above 1e-14 from one ``_first_root`` call for all labels per
    phase, and it takes no phase from the first such time at or past the
    horizon on.  A label with fewer phases than another has start +inf for
    the rest, so every column has the bits of one label's phase loop.
    Raises StepFailure for a label that would need more than MAX_PHASES
    phases before the horizon.
    """
    ax, a = force.axis, force.a
    x0 = np.reshape(xs, (-1, force.dim)).astype(float)
    y, v = x0, np.reshape(v0, x0.shape).astype(float)
    m = np.reshape(m, (-1, 1))
    f1, f2 = force.f1 / m, force.f2 / m
    t = np.zeros(len(y))
    live = np.ones(len(y), dtype=bool)
    arcs = []
    for _ in range(MAX_PHASES):
        h, w = y[:, ax], v[:, ax]
        below = (h < a) | ((h == a) & (w < 0.0))
        f = np.where(below[:, None], f1, f2)
        arcs.append((np.where(live, t, math.inf), y, v, f))
        dt = _first_root(0.5 * f[:, ax], w, h - a, 1e-14)
        live &= t + dt < horizon
        if not live.any():
            break
        dt = np.where(live, dt, 0.0)[:, None]
        y = y + v * dt + 0.5 * f * dt * dt
        y[:, ax] = a
        v = v + f * dt
        t = t + dt[:, 0]
    else:
        i = int(np.flatnonzero(live)[0])
        label = ", ".join(map(repr, x0[i].tolist()))
        raise StepFailure(
            f"the label at ({label}) crosses the plane y[{ax}] = {a!r} more "
            f"than {MAX_PHASES} times: its phases run out at t = "
            f"{float(t[i])!r}, before the horizon {horizon!r}")
    if force.dim == 1:
        return [tuple(np.reshape(c, np.shape(xs)) for c in arc)
                for arc in arcs]
    return [(arc[0][:, None],) + arc[1:] for arc in arcs]


def _label_arcs(scenario, xs, levels, m=None, horizon=math.inf):
    """Exact arcs of the labels xs with the scenario's initial velocities
    and, unless a common mass m is given, its masses: ``_plane_arcs`` on
    [0, horizon] for a half-space step, ``_gap_segments`` otherwise."""
    xs = np.asarray(xs, dtype=float)
    if m is None:
        m = _on_labels(scenario.init.mass, xs)
    v0 = _on_labels(scenario.init.velocity, xs)
    if isinstance(levels, HalfSpaceStep):
        return _plane_arcs(levels, xs, v0, m, horizon)
    return _gap_segments(levels, xs, v0, m)


def _eval_arcs(arcs, t):
    """(y, v, a) at t on the last arc that has started by t.

    ``arcs`` is a sequence of (start, y0, v0, a), each entry a number or an
    array broadcastable against t; the first arc is taken where no other
    has started.  y = y0 + v0 s + a s^2 / 2 and v = v0 + a s with s the time
    since the arc started, elementwise, so an array element has the bits of
    the same evaluation on numbers.
    """
    t0, y0, v0, a = arcs[0]
    for start, y_k, v_k, a_k in arcs[1:]:
        on = t >= start
        t0 = np.where(on, start, t0)
        y0 = np.where(on, y_k, y0)
        v0 = np.where(on, v_k, v0)
        a = np.where(on, a_k, a)
    s = t - t0
    return y0 + v0 * s + 0.5 * a * s * s, v0 + a * s, a


def _first_root(c2, c1, c0, floor):
    """Smallest root above floor of c2 s^2 + c1 s + c0, element by element
    over arrays that broadcast, nan where there is none: the package's one
    quadratic-root kernel.

    A |c2| under 1e-300 counts as zero.  Each element has the bits of the
    same arithmetic on floats.
    """
    c2, c1, c0 = (np.asarray(c, dtype=float) for c in (c2, c1, c0))
    flat = np.abs(c2) < 1e-300
    with np.errstate(all="ignore"):
        sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
        lo = np.where(flat, -c0 / c1, (-c1 - sq) / (2.0 * c2))
        hi = (-c1 + sq) / (2.0 * c2)
    lo = np.where((lo > floor) & ~(flat & (c1 == 0.0)), lo, np.nan)
    hi = np.where((hi > floor) & ~flat, hi, np.nan)
    return np.fmin(lo, hi)


def _take(arcs, idx):
    """The arcs of the labels idx, each column shaped (len(idx), 1)."""
    return [tuple(c[idx, None] if np.ndim(c) else c for c in arc)
            for arc in arcs]


def _first_crossings(arcs, i, j, t_end):
    """First time in [0, t_end] where label j meets label i, for each pair
    of the index arrays (i, j), nan where they do not meet.

    Between consecutive arc starts of either label the gap is a quadratic
    in local time.  The time comes from the first interval, in order, that
    is not empty and starts closed or closes within its length (to 1e-12
    relative); every interval of every pair is solved at once.
    """
    i = np.asarray(i)
    j = np.asarray(j)
    cols = [np.zeros(len(i)), np.full(len(i), t_end)]
    cols += [arc[0][k] for k in (i, j) for arc in arcs[1:]]
    breaks = np.stack(cols, axis=1)
    # arc starts past t_end merge into t_end: intervals of zero length
    breaks = np.sort(np.where((breaks >= 0.0) & (breaks <= t_end), breaks,
                              t_end), axis=1)
    t0, t1 = breaks[:, :-1], breaks[:, 1:]
    y_i, v_i, a_i = _eval_arcs(_take(arcs, i), t0)
    y_j, v_j, a_j = _eval_arcs(_take(arcs, j), t0)
    c0 = y_j - y_i
    r = _first_root(0.5 * (a_j - a_i), v_j - v_i, c0, 0.0)
    hit = (t1 > t0) & ((c0 <= 0.0) | (r <= (t1 - t0) * (1.0 + 1e-12)))
    at = np.where(hit, np.where(c0 <= 0.0, t0, t0 + r), np.nan)
    first = np.argmax(hit, axis=1)[:, None]
    return np.take_along_axis(at, first, axis=1)[:, 0]


def _earliest(times):
    """Index of the first smallest time that is not nan, or None."""
    return None if np.isnan(times).all() else int(np.nanargmin(times))


def _pair_collisions(levels, m, arcs, i, j, t_star):
    """First collision time on [0, inf) of each label pair (i, j) with
    label i below label j, nan where there is none, and the final velocity
    difference of each pair.

    By t_star the labels are in their last force region, where each state is
    taken on the last arc, so a pair that has not met by then collides iff
    its gap is closed or its final velocity difference, constant from then
    on, is negative.  With accelerations
    a_k = f_k / m the final velocity is v0 + a_last t + (a1 - a2) T_a for a
    one-gap force, plus (a2 - a3) T_b for a two-gap force, which gives the
    difference without cancellation.
    """
    i = np.asarray(i)
    j = np.asarray(j)
    v0 = arcs[0][2]
    dv = v0[j] - v0[i]
    if isinstance(levels, (OneGap, TwoGap)):
        t_a = arcs[1][0]
        dv = dv + (levels.f1 - levels.f2) / m * (t_a[j] - t_a[i])
    if isinstance(levels, TwoGap):
        t_b = arcs[2][0]
        dv = dv + (levels.f2 - levels.f3) / m * (t_b[j] - t_b[i])
    y, _, _ = _eval_arcs(arcs[-1:], t_star)
    gaps = y[j] - y[i]
    times = _first_crossings(arcs, i, j, t_star if t_star > 0 else 1.0)
    times[np.isnan(times) & (gaps <= 0.0)] = t_star
    fall = np.isnan(times) & (dv < 0.0)
    times[fall] = t_star + gaps[fall] / -dv[fall]
    return times, dv


#############################################################
# Numeric integration of smooth ensembles
#############################################################


def _vectorize_scalar(fn):
    """fn on an array of positions: one array call, whose inf or nan DOP853
    sees at a trial stage, or one call per position where that fails."""
    def wrapped(arr):
        try:
            out = np.asarray(fn(arr), dtype=float)
            if out.shape == np.shape(arr):
                return out
        except Exception:
            pass
        return np.array([float(fn(float(a))) for a in np.atleast_1d(arr)])

    return wrapped


class _DOP853(DOP853):
    """DOP853 that adds itself to the list ``made``, for its caller to free."""

    def __init__(self, *args, made, **kwargs):
        super().__init__(*args, **kwargs)
        made.append(self)


class NewtonFlow(_Tables):
    """Newton flow y'' = accel(y) of the positions y0, started with the
    velocities v0: the package's one ODE solve.

    Positions have any shape, (n,) on the line or (n, d) in d dimensions,
    and ``accel`` maps positions of that shape to accelerations.  DOP853
    with dense output gives ``sol``, and ``frames(lo, hi)`` evaluates it
    at ``times[lo:hi]``, ``times`` = linspace(0, horizon, n_out) up to
    where a terminal event ends the solve: each frame has the bits of
    solve_ivp's ``t_eval`` table at its time, however the frames are
    asked for.  Event functions see the packed state [y.ravel(),
    v.ravel()].  Raises StepFailure when DOP853 fails.
    """

    def __init__(self, accel, y0, v0, horizon, n_out=DEFAULT_N_OUT,
                 events=(), rtol=RTOL, atol=ATOL):
        y0 = np.asarray(y0, dtype=float)
        shape, size = y0.shape, y0.size

        def rhs(t, state):
            y = state[:size].reshape(shape)
            return np.concatenate([state[size:], np.ravel(accel(y))])

        # solve_ivp is looked up at call time: perfbench/tracer.py wraps
        # simulator.solve_ivp by name
        made = []
        sol = solve_ivp(
            rhs, (0.0, horizon), np.concatenate([y0.ravel(), np.ravel(v0)]),
            method=_DOP853, rtol=rtol, atol=atol, dense_output=True,
            events=list(events) or None, made=made,
        )
        vars(made.pop()).clear()  # it refers to itself: free it now, not at a gc
        if not sol.success:
            raise StepFailure(
                f"DOP853 failed for n = {shape[0] if shape else 1} particles "
                f"on [0, {horizon}]: {sol.message}")
        times = np.linspace(0.0, horizon, n_out)
        self.times = times[:np.searchsorted(times, sol.t[-1], side="right")]
        self.shape = shape
        del sol.y               # the state at each step: sol.sol is read
        self.sol = sol

    def frames(self, lo, hi):
        """(positions, velocities) of frames lo..hi-1, each shaped
        (frames, *shape)."""
        return self._at(self.times[lo:hi])

    def _at(self, ts):
        """(positions, velocities) at the sorted times ts, each shaped
        (len(ts), *shape): one evaluation of the dense solution, whose
        value at a time does not depend on the others."""
        state = self.sol.sol(ts)
        size = len(state) // 2
        return (state[:size].T.reshape(-1, *self.shape),
                state[size:].T.reshape(-1, *self.shape))

    def states(self, t):
        """(positions, velocities) at one time t, each shaped as y0."""
        state = self.sol.sol(t)
        size = len(state) // 2
        return state[:size].reshape(self.shape), state[size:].reshape(self.shape)


class NumericFlow1D(NewtonFlow):
    """Newton flow of the 1D labels xs under the scenario's force and
    masses; with ``check_energy``, an energy guard: where the energy drifts
    past ENERGY_DRIFT_BUDGET the flow is solved once more at rtol 1e-12
    and atol 1e-14, and StepFailure is raised if it still drifts."""

    def __init__(self, scenario, xs, horizon, n_out=DEFAULT_N_OUT,
                 check_energy=True):
        force = scenario.force
        f_vec = _vectorize_scalar(line_force(force))
        xs = np.asarray(xs, dtype=float)
        v0 = _on_labels(scenario.init.velocity, xs)
        m = _on_labels(scenario.init.mass, xs)

        def accel(y):
            return f_vec(y) / m

        super().__init__(accel, xs, v0, horizon, n_out)
        self.scenario = scenario
        self.xs = xs
        self.v0 = v0
        self.mass = m
        self.n = len(xs)
        if not check_energy:
            return
        self.energy0 = 0.5 * m * v0 * v0 + np.array(
            quadrature.potentials(force, xs))
        if self._energy_drift() > ENERGY_DRIFT_BUDGET:
            super().__init__(accel, xs, v0, horizon, n_out, rtol=1e-12,
                             atol=1e-14)
            if self._energy_drift() > ENERGY_DRIFT_BUDGET:
                raise StepFailure(
                    "energy drift exceeds the 1e-8 budget even at tightened tolerances")

    def _energy_drift(self):
        force = self.scenario.force
        k_idx = np.unique(np.linspace(0, len(self.times) - 1, 8).astype(int))
        p_idx = np.unique(np.linspace(0, self.n - 1, min(self.n, 32)).astype(int))
        y, v = self._at(self.times[k_idx])
        pairs = [(k, i) for k in range(len(k_idx)) for i in p_idx]
        us = quadrature.potentials(force, [y[k, i] for k, i in pairs])
        worst = 0.0
        for (k, i), u in zip(pairs, us):
            h = 0.5 * self.mass[i] * v[k, i] ** 2 + u
            scale = 1.0 + abs(self.energy0[i])
            worst = max(worst, abs(h - self.energy0[i]) / scale)
        return worst

    def ensemble(self):
        return EnsembleTrajectory(times=self.times, x0=self.xs,
                                  frames=self.frames)


#############################################################
# Central-field propagation
#############################################################


class RadialEnsemble:
    """Radial coordinates of all distinct radii in an annulus grid."""

    def __init__(self, scenario, radii, horizon, n_out=DEFAULT_N_OUT):
        force = scenario.force
        du = _vectorize_scalar(force.du)
        radii = np.asarray(radii, dtype=float)
        n = len(radii)
        g0 = _on_labels(scenario.init.radial_speed, radii)
        mom = radii**2 * _on_labels(scenario.init.angular_rate, radii)

        r_floor = 1e-9 * float(np.min(radii))

        def origin_event(t, state):
            return float(np.min(state[:n])) - r_floor

        origin_event.terminal = True

        flow = NewtonFlow(lambda r: -du(r) + mom**2 / r**3, radii, g0,
                          horizon, n_out, events=[origin_event])
        if flow.sol.status == 1:
            raise OriginApproach("a radial trajectory collapsed toward the origin")
        self.flow = flow
        self.times = flow.times
        self.radii = radii
        self.momentum = mom
        self.r = flow.y
        self.r_dot = flow.v
        self.dphi = cumulative_trapezoid(mom[None, :] / self.r**2, self.times,
                                         axis=0, initial=0.0)


#############################################################
# 1D collision detection
#############################################################


def _force_levels(scenario):
    """The force levels of exact arcs: a gap force, a 1D half-space step,
    the value of a 1D force whose line view is constant (see
    ``constant_value``), or None."""
    force = scenario.force
    if isinstance(force, (OneGap, TwoGap)) or (
            scenario.dim == 1 and isinstance(force, HalfSpaceStep)):
        return force
    if scenario.dim == 1:
        return constant_value(line_force(force))
    return None


def asymptotic_applies(scenario):
    """Whether a 1D scenario has infinite-horizon verdicts: exact arcs whose
    last force region is final, which a half-space step's far level may
    push a label back out of, under one shared acceleration per force
    level, so a uniform mass."""
    levels = _force_levels(scenario)
    return (levels is not None and not isinstance(levels, HalfSpaceStep)
            and constant_value(scenario.init.mass) is not None)


def infinite_horizon_applies(scenario):
    """Whether collision detection decides the scenario on an infinite
    horizon: the asymptotic verdict in 1D, the exact pair tests of a
    constant force or a half-space step released at rest in d dimensions
    (see ``detect_collisions_multid``)."""
    if scenario.dim == 1:
        return asymptotic_applies(scenario)
    force = scenario.force
    return not isinstance(scenario.domain, Annulus) and (
        isinstance(force, ConstantVec)
        or (isinstance(force, HalfSpaceStep) and scenario.velocity_is_zero()))


def _exact_first_collision(arcs, horizon):
    """(time, (i, i + 1)) of the earliest crossing of adjacent labels on
    [0, horizon], or (None, None)."""
    cells = np.arange(len(arcs[0][1]) - 1)
    times = _first_crossings(arcs, cells, cells + 1, horizon)
    k = _earliest(times)
    return (None, None) if k is None else (float(times[k]), (k, k + 1))


def _min_gaps(n_frames, frames):
    """The least adjacent gap of each of n_frames frames, and the first
    frame with a gap <= 0 (a nan gap is none) or None.  ``frames(lo, hi)``
    gives frames lo..hi-1 as rows, asked for GAP_FRAMES at a time."""
    history, hits = np.empty(n_frames), np.empty(n_frames, dtype=bool)
    for lo in range(0, n_frames, GAP_FRAMES):
        gaps = np.diff(frames(lo, lo + GAP_FRAMES), axis=1)
        history[lo:lo + GAP_FRAMES] = np.min(gaps, axis=1)
        hits[lo:lo + GAP_FRAMES] = np.any(gaps <= 0.0, axis=1)
    hit = np.flatnonzero(hits)
    return history, int(hit[0]) if len(hit) else None


def _gap_history(arcs, times):
    times = np.asarray(times, dtype=float)
    return _min_gaps(len(times), lambda lo, hi: _eval_arcs(arcs, times[lo:hi, None])[0])[0]


def detect_collisions_1d(scenario, horizon=None, n_out=DEFAULT_N_OUT):
    """First coordinate collision of the sampled 1D ensemble.

    Gap, constant and step forces use exact per-pair quadratic crossings;
    smooth forces use the dense numeric flow with sign changes of adjacent
    gaps and time bisection.  A local grid-refinement pass doubles the
    resolution around the witness pair until the collision time is stable
    to 1e-3 relative.
    """
    if scenario.dim != 1:
        raise InvalidParameter("detect_collisions_1d needs a one-dimensional scenario")
    horizon = scenario.horizon if horizon is None else float(horizon)
    if not math.isfinite(horizon):
        if asymptotic_applies(scenario):
            return asymptotic_verdict_1d(scenario)
        raise InvalidParameter(
            "infinite horizon needs a gap or constant force and uniform "
            "particle mass; give a finite horizon")
    levels = _force_levels(scenario)

    xs = scenario.domain.axis_nodes(0, scenario.samples[0])
    times = np.linspace(0.0, horizon, n_out)
    if levels is not None:
        arcs = _label_arcs(scenario, xs, levels, horizon=horizon)
        t_first, pair = _exact_first_collision(arcs, horizon)
        report = CollisionReport(
            found=t_first is not None, t_first=t_first,
            pair=None if pair is None else (float(xs[pair[0]]), float(xs[pair[1]])),
            pair_indices=pair, min_gap_history=_gap_history(arcs, times),
            times=times, mode="Exact",
        )
    else:
        report = _numeric_first_collision(
            NumericFlow1D(scenario, xs, horizon, n_out))
    if report.found:
        _refine_1d(scenario, report, horizon, levels)
    return report


def _numeric_first_collision(flow):
    history, k = _min_gaps(len(flow.times),
                           lambda lo, hi: flow.frames(lo, hi)[0])
    if k is None:
        return CollisionReport(found=False, min_gap_history=history,
                               times=flow.times, mode="Numeric")
    t_hi = flow.times[k]
    t_lo = flow.times[k - 1] if k > 0 else 0.0

    def min_gap(t):
        y, _ = flow.states(t)
        return float(np.min(np.diff(y)))

    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        if min_gap(mid) <= 0.0:
            t_hi = mid
        else:
            t_lo = mid
        if t_hi - t_lo <= 1e-9 * max(flow.times[-1], 1.0):
            break
    y, _ = flow.states(t_hi)
    i = int(np.argmin(np.diff(y)))
    return CollisionReport(
        found=True, t_first=float(t_hi), pair=(float(flow.xs[i]), float(flow.xs[i + 1])),
        pair_indices=(i, i + 1), min_gap_history=history, times=flow.times,
        mode="Numeric",
    )


def _refine_1d(scenario, report, horizon, levels):
    """Double the local resolution around the witness pair until the first
    collision time is stable to 1e-3 relative, in at most REFINE_PASSES
    passes: exact arcs under the force levels, else the numeric flow."""
    x_lo_dom = scenario.domain.lower[0]
    x_hi_dom = scenario.domain.upper[0]
    a, b = report.pair
    h = max(b - a, 1e-9 * (x_hi_dom - x_lo_dom))
    n_local = 65
    t_prev = report.t_first
    for _ in range(REFINE_PASSES):
        lo = max(x_lo_dom, a - 2 * h)
        hi = min(x_hi_dom, b + 2 * h)
        xs = np.linspace(lo, hi, n_local)
        if levels is not None:
            t_new, pair = _exact_first_collision(
                _label_arcs(scenario, xs, levels, horizon=horizon), horizon)
        else:
            sub = NumericFlow1D(scenario, xs, horizon, len(report.times),
                                check_energy=False)
            sub_rep = _numeric_first_collision(sub)
            t_new, pair = sub_rep.t_first, sub_rep.pair_indices
        if t_new is None:
            break
        report.t_first = float(t_new)
        report.pair = (float(xs[pair[0]]), float(xs[pair[1]]))
        a, b = report.pair
        h = max(b - a, 1e-12 * (x_hi_dom - x_lo_dom))
        if t_prev is not None and abs(t_new - t_prev) <= 1e-3 * max(abs(t_new), 1e-30):
            break
        t_prev = t_new
        n_local = 2 * n_local - 1
    report.details["refined"] = True


#############################################################
# Asymptotic (infinite-horizon) verdict for gap ensembles
#############################################################


def asymptotic_verdict_1d(scenario):
    """Decide collisions on [0, infinity) for gap or constant 1D forces.

    Exact entry states into the final constant-force region are computed for
    every grid particle; a collision happens iff some pair crosses before the
    last entry time, or the final velocity profile strictly decreases across
    a pair that has not yet crossed.  In addition to adjacent grid pairs the
    profile is probed with micro pairs (x, x + delta) at every node, plus a
    worst-cell refinement, so that narrow profile dips near a criterion
    boundary are still seen.
    """
    if scenario.dim != 1:
        raise InvalidParameter("asymptotic_verdict_1d needs a 1D scenario")
    levels, m0 = _force_levels(scenario), constant_value(scenario.init.mass)
    if levels is None or m0 is None or isinstance(levels, HalfSpaceStep):
        # the final-profile argument assumes a shared acceleration in a
        # last force region that is final
        raise InvalidParameter("asymptotic verdicts need a gap or constant"
                               " force and uniform particle mass")
    n = scenario.samples[0]
    xs = scenario.domain.axis_nodes(0, n)
    span = scenario.domain.upper[0] - scenario.domain.lower[0]
    delta = MICRO_PAIR_STEP * span

    arcs = _label_arcs(scenario, xs, levels, m0)
    t_star = float(np.max(arcs[-1][0]))
    cells = np.arange(n - 1)
    times, dv = _pair_collisions(levels, m0, arcs, cells, cells + 1, t_star)
    t_first, pair = None, None
    k = _earliest(times)
    if k is not None:
        t_first, pair = float(times[k]), (float(xs[k]), float(xs[k + 1]))
    worst_cell = int(np.argmin(dv))

    probes = xs
    lo_cell = float(xs[worst_cell])
    hi_cell = float(xs[min(worst_cell + 1, n - 1)])
    if hi_cell > lo_cell:
        probes = np.concatenate([xs, np.linspace(lo_cell, hi_cell, 66)[1:-1]])
    inside = probes + delta <= scenario.domain.upper[0]
    lo = np.where(inside, probes, probes - delta)
    hi = np.where(inside, probes + delta, probes)
    k = np.arange(len(probes))
    times, _ = _pair_collisions(levels, m0,
                                _label_arcs(scenario, np.concatenate([lo, hi]),
                                            levels, m0),
                                k, k + len(probes), t_star)
    k = _earliest(times)
    if k is not None and (t_first is None or times[k] < t_first):
        t_first, pair = float(times[k]), (float(lo[k]), float(hi[k]))

    hist_times = np.linspace(0.0, max(t_star, 1.0), HISTORY_FRAMES)
    return CollisionReport(
        found=t_first is not None, t_first=t_first, pair=pair,
        min_gap_history=_gap_history(arcs, hist_times), times=hist_times,
        mode="Asymptotic", details={"t_enter_last": t_star},
    )


#############################################################
# Multi-dimensional collision detection
#############################################################


def _velocities(scenario, pts):
    """Initial velocities of the d-dimensional labels pts, shaped as pts."""
    return np.array([np.asarray(scenario.init.velocity(p), dtype=float)
                     for p in pts])


def _pairs_chunked(n):
    i, j = np.triu_indices(n, k=1)
    for k in range(0, len(i), PAIR_CHUNK):
        yield i[k: k + PAIR_CHUNK], j[k: k + PAIR_CHUNK]


def _detect_constant_vec(scenario, pts, horizon, eps_rel):
    """Lemma-style exact pair test: straight relative motion R + V t."""
    n = len(pts)
    vel = _velocities(scenario, pts)
    t_best, pair_best = None, None
    for ii, jj in _pairs_chunked(n):
        r = pts[jj] - pts[ii]
        v = vel[jj] - vel[ii]
        rr = np.einsum("ij,ij->i", r, r)
        vv = np.einsum("ij,ij->i", v, v)
        rv = np.einsum("ij,ij->i", r, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_star = np.where(vv > 0, -rv / np.where(vv > 0, vv, 1.0), 0.0)
        t_star = np.clip(t_star, 0.0, horizon if math.isfinite(horizon) else np.inf)
        d2 = rr + 2 * t_star * rv + t_star**2 * vv
        d2 = np.maximum(d2, 0.0)
        hit = d2 <= (eps_rel**2) * rr
        if np.any(hit):
            cand = np.nonzero(hit)[0]
            k = cand[np.argmin(t_star[cand])]
            t_k = float(t_star[k])
            if t_best is None or t_k < t_best:
                t_best = t_k
                pair_best = (int(ii[k]), int(jj[k]))
    return t_best, pair_best


def _detect_halfspace_exact(scenario, pts, horizon, eps_rel):
    """Three-phase exact pair analysis for zero initial velocity: the
    relative position is R0 + (F2 - F1) w(t) with w increasing, so the
    minimum distance is a clipped quadratic minimization in w."""
    force = scenario.force
    ax = force.axis
    f1d = force.f1[ax]
    cross = np.sqrt(2.0 * (force.a - pts[:, ax]) / f1d)
    df = force.f2 - force.f1
    df2 = float(np.dot(df, df))
    t_best, pair_best = None, None
    for ii, jj in _pairs_chunked(len(pts)):
        r0 = pts[jj] - pts[ii]
        t_i, t_j = cross[ii], cross[jj]
        t1 = np.minimum(t_i, t_j)
        t2 = np.maximum(t_i, t_j)
        sign = np.where(t_j < t_i, 1.0, -1.0)  # leader crossed first
        smax = t2 - t1
        w_end = 0.5 * smax**2
        if math.isfinite(horizon):
            w_h = np.where(horizon <= t1, 0.0,
                           np.where(horizon <= t2, 0.5 * (horizon - t1) ** 2,
                                    w_end + smax * (horizon - t2)))
        else:
            w_h = np.full(len(r0), np.inf)
        rd = sign[:, None] * r0
        rdf = np.einsum("ij,j->i", rd, df)
        if df2 == 0.0:
            continue
        w_star = np.clip(-rdf / df2, 0.0, w_h)
        d2 = np.einsum("ij,ij->i", rd, rd) + 2 * w_star * rdf + w_star**2 * df2
        d2 = np.maximum(d2, 0.0)
        rr = np.einsum("ij,ij->i", r0, r0)
        hit = d2 <= (eps_rel**2) * rr
        if np.any(hit):
            cand = np.nonzero(hit)[0]
            t_hit = np.where(
                w_star[cand] <= w_end[cand] + 1e-300,
                t1[cand] + np.sqrt(2.0 * w_star[cand]),
                t2[cand] + (w_star[cand] - w_end[cand]) / np.maximum(smax[cand], 1e-300),
            )
            k = int(np.argmin(t_hit))
            if t_best is None or float(t_hit[k]) < t_best:
                t_best = float(t_hit[k])
                pair_best = (int(ii[cand[k]]), int(jj[cand[k]]))
    return t_best, pair_best


def _multid_flow(scenario, pts, horizon, n_out=DEFAULT_N_OUT):
    """NewtonFlow of the d-dimensional labels pts, shaped (n, d), under the
    scenario's force with unit masses."""
    force = scenario.force
    if isinstance(force, Linear):
        def accel(y):
            return y @ force.matrix.T + force.offset
    elif isinstance(force, ConstantVec):
        def accel(y):
            return np.broadcast_to(force.vector, y.shape)
    elif isinstance(force, HalfSpaceStep):
        def accel(y):
            below = y[:, force.axis] < force.a
            return np.where(below[:, None], force.f1, force.f2)
    else:
        def accel(y):
            return np.array([np.asarray(force(p), dtype=float) for p in y])
    return NewtonFlow(accel, pts, _velocities(scenario, pts), horizon, n_out)


def _central_positions(scenario, horizon, n_out):
    radii = scenario.domain.radial_nodes(scenario.samples[0])
    n_phi = scenario.samples[1]
    ens = RadialEnsemble(scenario, radii, horizon, n_out)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    K = len(ens.times)
    pos = np.empty((K, len(radii) * n_phi, 2))
    for k in range(K):
        ang = phis[None, :] + ens.dphi[k][:, None]
        rr = ens.r[k][:, None]
        pos[k, :, 0] = (rr * np.cos(ang)).ravel()
        pos[k, :, 1] = (rr * np.sin(ang)).ravel()
    return ens.times, pos


def detect_collisions_multid(scenario, horizon=None, eps_rel=1e-3,
                             n_out=DEFAULT_N_OUT, n_particles=None):
    """First pair approach below eps_rel of the initial pair distance.

    Constant and half-space step forces (with zero initial velocity) are
    decided exactly; other forces sample dense numeric frames, prune with a
    KD-tree, and bisect the flagged pair's distance in time.
    """
    if scenario.dim < 2:
        raise InvalidParameter("detect_collisions_multid needs dimension >= 2")
    horizon = scenario.horizon if horizon is None else float(horizon)
    force = scenario.force

    if isinstance(scenario.domain, Annulus):
        if not math.isfinite(horizon):
            raise InvalidParameter("infinite horizon is not supported for central runs")
        times, frames = _central_positions(scenario, horizon, n_out)
        return _frames_report(times, lambda lo, hi: frames[lo:hi], frames[0],
                              eps_rel)

    if n_particles is not None:
        n_axis = int(np.atleast_1d(n_particles)[0])
        pts = replace(
            scenario, samples=tuple(n_axis for _ in scenario.samples)
        ).grid_points()
    else:
        pts = scenario.grid_points()

    if isinstance(force, ConstantVec):
        t, pair = _detect_constant_vec(scenario, pts, horizon, eps_rel)
        return CollisionReport(
            found=t is not None, t_first=t,
            pair=None if pair is None else (tuple(pts[pair[0]]), tuple(pts[pair[1]])),
            pair_indices=pair, mode="Exact",
            details={"criterion": "straight relative motion"},
        )

    if isinstance(force, HalfSpaceStep) and scenario.velocity_is_zero():
        t, pair = _detect_halfspace_exact(scenario, pts, horizon, eps_rel)
        return CollisionReport(
            found=t is not None and t <= horizon, t_first=t,
            pair=None if pair is None else (tuple(pts[pair[0]]), tuple(pts[pair[1]])),
            pair_indices=pair, mode="Exact",
            details={"phases": "parabolic"},
        )

    if not math.isfinite(horizon):
        raise InvalidParameter(
            "infinite horizon needs an exactly solvable force in multi-d")
    flow = _multid_flow(scenario, pts, horizon, n_out)
    return _frames_report(flow.times, lambda lo, hi: flow.frames(lo, hi)[0],
                          pts, eps_rel, flow=flow)


def _frames_report(times, positions, pts, eps_rel, flow=None):
    """The first frame where a label comes within eps_rel of its initial
    distance of its nearest neighbour, bisected in time on ``flow`` when
    given.  ``positions(lo, hi)`` gives the positions of frames lo..hi-1,
    asked for GAP_FRAMES at a time."""
    tree0 = cKDTree(pts)
    d0_nn, idx0 = tree0.query(pts, k=2)
    history = np.empty(len(times))
    hit_k, hit_pair = None, None
    for lo in range(0, len(times), GAP_FRAMES):
        for k, frame in enumerate(positions(lo, lo + GAP_FRAMES), lo):
            tree = cKDTree(frame)
            dk, ik = tree.query(frame, k=2)
            history[k] = float(np.min(dk[:, 1]))
            if hit_k is None:
                cand = np.nonzero(dk[:, 1] <= 5.0 * eps_rel * d0_nn[:, 1])[0]
                for i in cand:
                    j = int(ik[i, 1])
                    d0_pair = float(np.linalg.norm(pts[i] - pts[j]))
                    if dk[i, 1] <= eps_rel * d0_pair:
                        hit_k, hit_pair = k, (min(i, j), max(i, j))
                        break
    if hit_k is None:
        return CollisionReport(found=False, min_gap_history=history, times=times,
                               mode="Numeric")
    i, j = hit_pair
    t_hit = float(times[hit_k])
    if flow is not None and hit_k > 0:
        d0_pair = float(np.linalg.norm(pts[i] - pts[j]))
        lo, hi = float(times[hit_k - 1]), t_hit

        def pair_dist(t):
            y = flow.states(t)[0]
            return float(np.linalg.norm(y[i] - y[j]))

        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if pair_dist(mid) <= eps_rel * d0_pair:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-9 * max(times[-1], 1.0):
                break
        t_hit = hi
    return CollisionReport(
        found=True, t_first=t_hit,
        pair=(tuple(np.asarray(pts[i], dtype=float)),
              tuple(np.asarray(pts[j], dtype=float))),
        pair_indices=(i, j), min_gap_history=history, times=times, mode="Numeric",
    )


#############################################################
# Ensemble assembly and CSV output
#############################################################


def simulate_ensemble(scenario, horizon=None, n_out=DEFAULT_N_OUT):
    """Trajectories of the sampled ensemble at n_out output times, whose
    frames are evaluated when read: on exact arcs, in closed form, or from
    the dense numeric solution.  Central runs keep their frames as
    tables."""
    horizon = scenario.horizon if horizon is None else float(horizon)
    if not math.isfinite(horizon):
        raise InvalidParameter("simulate_ensemble needs a finite horizon")
    force = scenario.force
    times = np.linspace(0.0, horizon, n_out)

    if scenario.dim == 1:
        xs = scenario.domain.axis_nodes(0, scenario.samples[0])
        # a constant force keeps its numeric flow: the bundled
        # variable_mass_collide is one, and its trajectory.csv bytes are gated
        if isinstance(force, (OneGap, TwoGap, HalfSpaceStep)):
            arcs = _label_arcs(scenario, xs, force, horizon=horizon)
            return EnsembleTrajectory(
                times=times, x0=xs, mode="Exact",
                frames=lambda lo, hi: _eval_arcs(arcs, times[lo:hi, None])[:2])
        return NumericFlow1D(scenario, xs, horizon, n_out).ensemble()

    if isinstance(scenario.domain, Annulus):
        times, frames = _central_positions(scenario, horizon, n_out)
        pts = frames[0]
        vel = np.gradient(frames, times, axis=0)
        return EnsembleTrajectory(times=times, x0=pts, y=frames, v=vel,
                                  mode="Numeric")

    pts = scenario.grid_points()
    if isinstance(force, HalfSpaceStep):
        arcs = _plane_arcs(force, pts, _velocities(scenario, pts), 1.0,
                           horizon)
        return EnsembleTrajectory(
            times=times, x0=pts, mode="Exact",
            frames=lambda lo, hi: _eval_arcs(arcs,
                                             times[lo:hi, None, None])[:2])
    if isinstance(force, ConstantVec):
        vel0 = _velocities(scenario, pts)

        def frames(lo, hi):
            t = times[lo:hi, None, None]
            return (pts[None] + vel0[None] * t
                    + 0.5 * force.vector[None, None] * t ** 2,
                    vel0[None] + force.vector[None, None] * t)

        return EnsembleTrajectory(times=times, x0=pts, mode="Exact",
                                  frames=frames)
    flow = _multid_flow(scenario, pts, horizon, n_out)
    return EnsembleTrajectory(times=flow.times, x0=pts, frames=flow.frames,
                              mode="Numeric")


class _ColumnText:
    """``repr`` of each value of one CSV column, kept from frame to frame.

    ``update`` calls ``repr`` again only where a value's float64 bit
    pattern changed, so -0.0 against 0.0 and every nan stay exact; memory
    is one string and one int64 per row.
    """

    def __init__(self, values=()):
        self.bits = np.empty(0, dtype=np.int64)
        self.text = []
        self.update(values)

    def update(self, values):
        vals = np.array(values, dtype=np.float64).reshape(-1)
        bits = vals.view(np.int64)
        if bits.shape != self.bits.shape:
            self.text = [repr(x) for x in vals.tolist()]
        else:
            changed = np.flatnonzero(bits != self.bits)
            for j, x in zip(changed.tolist(), vals[changed].tolist()):
                self.text[j] = repr(x)
        self.bits = bits
        return self.text


def _write_rows(fh, columns):
    """One ``fh.write`` of the CSV rows formed by zipping the columns,
    each a sequence of cell strings."""
    rows = "\n".join(map(",".join, zip(*columns)))
    if rows:
        fh.write(rows + "\n")


# cells a forked process formats at the least: about 65 ms of repr against
# about 3 ms for the fork and its wait
CHUNK_CELLS = 2 ** 16


def _cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_frames(path, header, n_frames, cells, write):
    """Write ``header`` and then ``write(fh, k0, k1)`` for frames [k0, k1)
    in order, in up to one process per CPU.

    The frames are cut into contiguous ranges of near-equal frame count:
    no more ranges than CPUs, frames or ``cells // CHUNK_CELLS``, and one
    where ``os.fork`` does not exist.  The caller formats the first range straight into
    the file; a forked child formats each other one into an unnamed
    temporary file, which is then appended in order.  ``write`` starts
    from fresh state in every range, and ``repr`` is deterministic, so the
    bytes are those of one serial pass.
    """
    w = 1
    if hasattr(os, "fork"):
        w = max(1, min(_cpus(), cells // CHUNK_CELLS, n_frames))
    bounds = [n_frames * i // w for i in range(w + 1)]
    outs, pids = [], []
    try:
        for k0, k1 in zip(bounds[1:-1], bounds[2:]):
            outs.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with open(outs[-1].fileno(), "w", encoding="utf-8",
                              closefd=False) as fh:
                        write(fh, k0, k1)
                    status = 0
                except BaseException:
                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            pids.append(pid)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header)
            write(fh, bounds[0], bounds[1])
            fh.flush()
            for k0, k1, out in zip(bounds[1:-1], bounds[2:], outs):
                pid, status = os.waitpid(pids[0], 0)
                del pids[0]
                if os.waitstatus_to_exitcode(status) != 0:
                    raise RuntimeError(f"formatting frames {k0}..{k1} of "
                                       f"{path} failed in process {pid}")
                out.seek(0)
                shutil.copyfileobj(out, fh.buffer, 1 << 20)
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for out in outs:
            out.close()


def write_trajectory_csv(traj, path):
    """Rows t,particle_index,x0...,y...,v... with coordinates expanded."""
    multi = traj.x0.ndim > 1
    d = traj.x0.shape[1] if multi else 1
    if multi:
        head_x0 = ",".join(f"x0_{k + 1}" for k in range(d))
        head_y = ",".join(f"y_{k + 1}" for k in range(d))
        head_v = ",".join(f"v_{k + 1}" for k in range(d))
    else:
        head_x0, head_y, head_v = "x0", "y", "v"
    n = traj.n_particles
    x0 = np.asarray(traj.x0, dtype=np.float64).reshape(n, d)
    # the particle index and x0 lead every row
    lead = [",".join(cells) for cells in zip(
        map(str, range(n)), *(map(repr, x0[:, c].tolist()) for c in range(d)))]

    def frames(fh, k0, k1):
        # y starts from the text of x0: at t = 0 a position is usually its
        # label
        y_text = [_ColumnText(x0[:, c]) for c in range(d)]
        v_text = [_ColumnText() for _ in range(d)]
        # the frames of the range are evaluated here, GAP_FRAMES at a time
        for lo in range(k0, k1, GAP_FRAMES):
            y, v = (np.asarray(a).reshape(-1, n, d)
                    for a in traj.frames(lo, min(lo + GAP_FRAMES, k1)))
            for k in range(len(y)):
                _write_rows(fh, [
                    itertools.repeat(repr(float(traj.times[lo + k])), n), lead,
                    *(col.update(y[k, :, c]) for c, col in enumerate(y_text)),
                    *(col.update(v[k, :, c]) for c, col in enumerate(v_text))])

    _write_frames(path, f"t,particle_index,{head_x0},{head_y},{head_v}\n",
                  len(traj.times), len(traj.times) * n * (2 + 3 * d), frames)


def write_collision_report(report, path):
    lines = [
        f"found: {'yes' if report.found else 'no'}",
        f"t_first: {repr(float(report.t_first)) if report.t_first is not None else 'none'}",
        f"pair: {_format_pair(report.pair)}",
        f"mode: {report.mode}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _format_pair(pair):
    if pair is None:
        return "none"
    def one(p):
        if isinstance(p, tuple):
            return "(" + ", ".join(repr(float(c)) for c in p) + ")"
        return repr(float(p))
    return f"{one(pair[0])} | {one(pair[1])}"
