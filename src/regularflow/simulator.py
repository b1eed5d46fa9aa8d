"""Ensemble propagation and collision detection oracles.

Gap and constant forces admit exact piecewise-parabolic trajectories, so
collision queries reduce to root finding on per-pair quadratic segments; every
other force is integrated with an adaptive high-order embedded pair.  All
detectors return a CollisionReport whose ``mode`` records which route decided
("Exact", "Numeric", or "Asymptotic" for infinite-horizon gap verdicts).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.spatial import cKDTree

from . import quadrature
from .errors import (
    InvalidParameter,
    NeverReaches,
    OriginApproach,
    StepFailure,
)
from .scenario import (
    Annulus,
    Central,
    ConstantVec,
    HalfSpaceStep,
    Linear,
    OneGap,
    Smooth1D,
    TwoGap,
)

DEFAULT_N_OUT = 256
RTOL = 1e-10
ATOL = 1e-12
ENERGY_DRIFT_BUDGET = 1e-8
_CONST_FORCE_TOL = 1e-12
MICRO_PAIR_STEP = 1e-7


@dataclass
class ParticleState:
    x0: object
    y: object
    v: object
    region: int
    energy0: Optional[float] = None


@dataclass
class EnsembleTrajectory:
    times: np.ndarray
    x0: np.ndarray
    y: np.ndarray
    v: np.ndarray
    events: list = field(default_factory=list)
    mode: str = "Numeric"
    energy0: Optional[np.ndarray] = None
    scenario: Optional[object] = None

    @property
    def n_particles(self):
        return self.x0.shape[0]

    def state_at(self, time_index, particle_index):
        x0 = self.x0[particle_index]
        y = self.y[time_index, particle_index]
        v = self.v[time_index, particle_index]
        region = 0
        if self.scenario is not None:
            region = force_region(self.scenario.force, y)
        e0 = None if self.energy0 is None else float(self.energy0[particle_index])
        return ParticleState(x0=x0, y=y, v=v, region=region, energy0=e0)


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


def force_region(force, y):
    """Index of the constant-force region containing position y (gap forces)."""
    if isinstance(force, OneGap):
        yv = y if np.isscalar(y) else y
        return 0 if yv < force.a else 1
    if isinstance(force, TwoGap):
        if y < force.a:
            return 0
        return 1 if y < force.b else 2
    if isinstance(force, HalfSpaceStep):
        yd = np.asarray(y)[force.axis]
        return 0 if yd < force.a else 1
    return 0


#############################################################
# Exact piecewise-parabolic kinematics (1D gap and constant forces)
#############################################################


@dataclass
class Parabolic1D:
    """Trajectory made of parabolic arcs: (t_k, y_k, v_k, a_k) per arc."""

    x0: float
    segments: List[Tuple[float, float, float, float]]

    def _segment(self, t):
        k = len(self.segments) - 1
        while k > 0 and t < self.segments[k][0]:
            k -= 1
        return self.segments[k]

    def position(self, t):
        t0, y0, v0, a = self._segment(t)
        s = t - t0
        return y0 + v0 * s + 0.5 * a * s * s

    def velocity(self, t):
        t0, y0, v0, a = self._segment(t)
        return v0 + a * (t - t0)

    def crossing_times(self):
        return [seg[0] for seg in self.segments[1:]]


def _gap_segments(force, x0, v0, m=1.0):
    """Exact arcs of a forward gap-force trajectory started at (x0, v0);
    accelerations are the force levels divided by the particle's mass."""
    a1 = force.f1 / m
    a2 = force.f2 / m
    segs = [(0.0, x0, v0, a1)]
    d = v0 * v0 + 2.0 * a1 * (force.a - x0)
    if d < 0.0:
        raise NeverReaches("particle never reaches the first force step")
    t_a = (-v0 + math.sqrt(d)) / a1
    v_a = math.sqrt(d)
    if isinstance(force, OneGap):
        segs.append((t_a, force.a, v_a, a2))
        return segs
    segs.append((t_a, force.a, v_a, a2))
    d2 = v_a * v_a + 2.0 * a2 * (force.b - force.a)
    if d2 < 0.0:
        raise NeverReaches("particle never reaches the second force step")
    s = (-v_a + math.sqrt(d2)) / a2
    segs.append((t_a + s, force.b, math.sqrt(d2), force.f3 / m))
    return segs


def _const_segments(c, x0, v0, m=1.0):
    return [(0.0, x0, v0, c / m)]


def _eval_arcs(arcs, t):
    """(y, v) at t on the last arc that has started by t.

    ``arcs`` is a sequence of (start, y0, v0, a) in order of start, each
    entry a number or an array broadcastable against t.  The arc is picked
    as ``Parabolic1D._segment`` picks it and evaluated with the operations
    of ``Parabolic1D.position``/``velocity`` in the same order, so every
    element has the bits of the scalar evaluation.
    """
    t0, y0, v0, a = arcs[0]
    for start, y_k, v_k, a_k in arcs[1:]:
        on = t >= start
        t0 = np.where(on, start, t0)
        y0 = np.where(on, y_k, y0)
        v0 = np.where(on, v_k, v0)
        a = np.where(on, a_k, a)
    s = t - t0
    return y0 + v0 * s + 0.5 * a * s * s, v0 + a * s


def _arc_states(segs, times):
    """(y, v), each shaped (len(times), len(segs)): every label's arc list
    evaluated at every time.

    The arc lists are stacked into one (labels, arcs, 4) table; a label
    with fewer arcs is padded with arcs starting at +inf, which no finite
    time reaches.
    """
    n_arcs = max(len(sg) for sg in segs)
    pad = [(math.inf, 0.0, 0.0, 0.0)]
    table = np.array([list(sg) + pad * (n_arcs - len(sg)) for sg in segs],
                     dtype=float)
    return _eval_arcs(table.transpose(1, 2, 0),
                      np.asarray(times, dtype=float)[:, None])


def propagate_piecewise_1d(scenario, x0):
    """Exact trajectory under a gap force; arcs matched C^1 at the steps."""
    force = scenario.force
    if not isinstance(force, (OneGap, TwoGap)):
        raise InvalidParameter("propagate_piecewise_1d needs a gap force")
    v0 = float(scenario.init.velocity(float(x0)))
    m = float(scenario.init.mass(float(x0)))
    return Parabolic1D(x0=float(x0),
                       segments=_gap_segments(force, float(x0), v0, m))


def _pair_first_crossing(seg_i, seg_j, t_end):
    """First time in (0, t_end] where trajectory j meets trajectory i.

    Both trajectories are parabolic-arc lists; on each merged sub-interval the
    gap is a quadratic in local time, solved in closed form.
    """
    breaks = sorted({0.0, t_end, *(s[0] for s in seg_i[1:]), *(s[0] for s in seg_j[1:])})
    breaks = [b for b in breaks if 0.0 <= b <= t_end]
    if breaks[-1] < t_end:
        breaks.append(t_end)

    def eval_state(segs, t):
        k = len(segs) - 1
        while k > 0 and t < segs[k][0]:
            k -= 1
        t0, y0, v0, a = segs[k]
        s = t - t0
        return y0 + v0 * s + 0.5 * a * s * s, v0 + a * s, a

    for t0, t1 in zip(breaks[:-1], breaks[1:]):
        if t1 <= t0:
            continue
        yi, vi, ai = eval_state(seg_i, t0)
        yj, vj, aj = eval_state(seg_j, t0)
        c0 = yj - yi
        c1 = vj - vi
        c2 = 0.5 * (aj - ai)
        if c0 <= 0.0:
            return t0
        span = t1 - t0
        roots = []
        if abs(c2) < 1e-300:
            if c1 < 0.0:
                roots.append(-c0 / c1)
        else:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc >= 0.0:
                sq = math.sqrt(disc)
                for r in ((-c1 - sq) / (2.0 * c2), (-c1 + sq) / (2.0 * c2)):
                    if r > 0.0:
                        roots.append(r)
        hits = [r for r in roots if 0.0 < r <= span * (1.0 + 1e-12)]
        if hits:
            return t0 + min(hits)
    return None


#############################################################
# Numeric integration of smooth ensembles
#############################################################


def _vectorize_scalar(fn):
    def wrapped(arr):
        try:
            out = np.asarray(fn(arr), dtype=float)
            if out.shape == np.shape(arr):
                return out
        except Exception:
            pass
        return np.array([float(fn(float(a))) for a in np.atleast_1d(arr)])

    return wrapped


class NumericFlow1D:
    """Dense numeric flow of a 1D ensemble; shared by detectors and fields."""

    def __init__(self, scenario, xs, horizon, n_out=DEFAULT_N_OUT,
                 rtol=RTOL, atol=ATOL, check_energy=True):
        force = scenario.force
        f_vec = _vectorize_scalar(force.f if isinstance(force, Smooth1D) else force)
        xs = np.asarray(xs, dtype=float)
        n = len(xs)
        v0 = np.array([float(scenario.init.velocity(float(x))) for x in xs])
        m = np.array([float(scenario.init.mass(float(x))) for x in xs])

        def rhs(t, state):
            y = state[:n]
            return np.concatenate([state[n:], f_vec(y) / m])

        times = np.linspace(0.0, horizon, n_out)
        sol = solve_ivp(
            rhs, (0.0, horizon), np.concatenate([xs, v0]),
            method="DOP853", rtol=rtol, atol=atol, dense_output=True, t_eval=times,
        )
        if not sol.success:
            raise StepFailure(f"integration failed: {sol.message}")
        self.scenario = scenario
        self.xs = xs
        self.v0 = v0
        self.mass = m
        self.n = n
        self.sol = sol
        self.times = times
        self.y = sol.y[:n].T.copy()
        self.v = sol.y[n:].T.copy()
        self.energy0 = 0.5 * m * v0 * v0 + np.array(
            quadrature.potentials(force, xs))
        if check_energy:
            drift = self._energy_drift()
            if drift > ENERGY_DRIFT_BUDGET:
                sol2 = solve_ivp(
                    rhs, (0.0, horizon), np.concatenate([xs, v0]),
                    method="DOP853", rtol=1e-12, atol=1e-14,
                    dense_output=True, t_eval=times,
                )
                if not sol2.success:
                    raise StepFailure(f"integration failed: {sol2.message}")
                self.sol = sol2
                self.y = sol2.y[:n].T.copy()
                self.v = sol2.y[n:].T.copy()
                if self._energy_drift() > ENERGY_DRIFT_BUDGET:
                    raise StepFailure(
                        "energy drift exceeds the 1e-8 budget even at tightened tolerances")

    def _energy_drift(self):
        force = self.scenario.force
        k_idx = np.unique(np.linspace(0, len(self.times) - 1, 8).astype(int))
        p_idx = np.unique(np.linspace(0, self.n - 1, min(self.n, 32)).astype(int))
        pairs = [(k, i) for k in k_idx for i in p_idx]
        us = quadrature.potentials(force, [self.y[k, i] for k, i in pairs])
        worst = 0.0
        for (k, i), u in zip(pairs, us):
            h = 0.5 * self.mass[i] * self.v[k, i] ** 2 + u
            scale = 1.0 + abs(self.energy0[i])
            worst = max(worst, abs(h - self.energy0[i]) / scale)
        return worst

    def states(self, t):
        state = self.sol.sol(t)
        return state[: self.n], state[self.n:]

    def ensemble(self):
        return EnsembleTrajectory(
            times=self.times, x0=self.xs, y=self.y, v=self.v,
            mode="Numeric", energy0=self.energy0, scenario=self.scenario,
        )


def _smooth_single_with_events(scenario, x0, horizon, n_out):
    """One particle under a gap force, integrated region by region with
    terminal boundary events (used to cross-check the exact arcs)."""
    force = scenario.force
    cuts = [force.a] if isinstance(force, OneGap) else [force.a, force.b]
    levels = ([force.f1, force.f2] if isinstance(force, OneGap)
              else [force.f1, force.f2, force.f3])
    m = float(scenario.init.mass(float(x0)))
    times = np.linspace(0.0, horizon, n_out)
    t_cur = 0.0
    state = np.array([float(x0), float(scenario.init.velocity(float(x0)))])
    region = sum(1 for c in cuts if state[0] >= c)
    ys = np.empty_like(times)
    vs = np.empty_like(times)
    done = np.zeros(len(times), dtype=bool)
    events_log = []
    sol = None
    while region <= len(cuts):
        accel = levels[region] / m

        def rhs(t, st):
            return [st[1], accel]

        evs = []
        if region < len(cuts):
            cut = cuts[region]

            def boundary(t, st, cc=cut):
                return st[0] - cc

            boundary.terminal = True
            boundary.direction = 1.0
            evs.append(boundary)
        sol = solve_ivp(rhs, (t_cur, horizon), state, method="DOP853",
                        rtol=RTOL, atol=ATOL, dense_output=True, events=evs)
        if not sol.success:
            raise StepFailure(sol.message)
        t_stop = sol.t[-1]
        mask = (~done) & (times <= t_stop + 1e-15)
        if np.any(mask):
            vals = sol.sol(times[mask])
            ys[mask] = vals[0]
            vs[mask] = vals[1]
            done |= mask
        if t_stop >= horizon * (1.0 - 1e-14):
            break
        state = sol.sol(t_stop)
        state[0] = cuts[region]
        region += 1
        events_log.append((0, "boundary", float(t_stop)))
        t_cur = t_stop
    if not np.all(done):
        vals = sol.sol(times[~done])
        ys[~done] = vals[0]
        vs[~done] = vals[1]
    return EnsembleTrajectory(
        times=times, x0=np.array([x0]), y=ys[:, None], v=vs[:, None],
        events=events_log, mode="Numeric", scenario=scenario,
    )


def propagate_smooth(scenario, x0, horizon=None, n_out=DEFAULT_N_OUT):
    """Adaptive embedded-pair integration of one particle (any dimension).

    Gap forces are integrated region by region with boundary event location;
    smooth forces in one ODE solve.  1D runs carry an energy-drift guard.
    """
    horizon = scenario.horizon if horizon is None else float(horizon)
    if not math.isfinite(horizon):
        raise InvalidParameter("propagate_smooth needs a finite horizon")
    force = scenario.force
    if isinstance(force, (OneGap, TwoGap)):
        return _smooth_single_with_events(scenario, float(x0), horizon, n_out)
    if scenario.dim == 1:
        flow = NumericFlow1D(scenario, np.array([float(x0)]), horizon, n_out)
        traj = flow.ensemble()
        traj.events = []
        return traj

    x0 = np.asarray(x0, dtype=float)
    d = scenario.dim
    m = float(scenario.init.mass(x0)) if _accepts_vector_mass(scenario) else 1.0
    f_eval = _vector_force_single(force)
    v0 = np.asarray(scenario.init.velocity(x0), dtype=float)

    def rhs(t, state):
        return np.concatenate([state[d:], f_eval(state[:d]) / m])

    times = np.linspace(0.0, horizon, n_out)
    sol = solve_ivp(rhs, (0.0, horizon), np.concatenate([x0, v0]),
                    method="DOP853", rtol=RTOL, atol=ATOL, t_eval=times)
    if not sol.success:
        raise StepFailure(sol.message)
    return EnsembleTrajectory(
        times=times, x0=x0[None, :], y=sol.y[:d].T[:, None, :],
        v=sol.y[d:].T[:, None, :], mode="Numeric", scenario=scenario,
    )


def _accepts_vector_mass(scenario):
    try:
        float(scenario.init.mass(np.zeros(scenario.dim)))
        return True
    except Exception:
        return False


def _vector_force_single(force):
    if isinstance(force, Linear):
        return lambda y: force.matrix @ y + force.offset
    if isinstance(force, ConstantVec):
        return lambda y: force.vector
    if isinstance(force, HalfSpaceStep):
        return lambda y: force.f1 if y[force.axis] < force.a else force.f2
    return lambda y: np.asarray(force(y), dtype=float)


def propagate_halfspace(scenario, x0, horizon=math.inf, max_phases=64):
    """Exact multi-phase parabolic trajectory under a half-space step force.

    Each phase has a constant force vector; phase changes happen when the
    split coordinate crosses the step plane (repeatedly, if the receiving
    normal force pushes the particle back).
    """
    force = scenario.force
    if not isinstance(force, HalfSpaceStep):
        raise InvalidParameter("propagate_halfspace needs a half-space step force")
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(scenario.init.velocity(x0), dtype=float)
    ax = force.axis
    phases = []
    t, y, v = 0.0, x0.copy(), v0.copy()
    for _ in range(max_phases):
        below = y[ax] < force.a or (y[ax] == force.a and v[ax] < 0.0)
        f = force.f1 if below else force.f2
        phases.append((t, y.copy(), v.copy(), np.asarray(f, dtype=float)))
        # next crossing of the plane in this phase
        c2, c1, c0 = 0.5 * f[ax], v[ax], y[ax] - force.a
        roots = []
        if abs(c2) < 1e-300:
            if c1 != 0.0:
                r = -c0 / c1
                if r > 1e-14:
                    roots.append(r)
        else:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc >= 0.0:
                sq = math.sqrt(disc)
                roots = [r for r in ((-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2))
                         if r > 1e-14]
        if not roots:
            break
        dt = min(roots)
        if t + dt >= horizon:
            break
        y = y + v * dt + 0.5 * np.asarray(f) * dt * dt
        y[ax] = force.a
        v = v + np.asarray(f) * dt
        t = t + dt
    return PhasedTrajectory(x0=x0, phases=phases)


@dataclass
class PhasedTrajectory:
    x0: np.ndarray
    phases: List[tuple]

    def _phase(self, t):
        k = len(self.phases) - 1
        while k > 0 and t < self.phases[k][0]:
            k -= 1
        return self.phases[k]

    def position(self, t):
        t0, y0, v0, f = self._phase(t)
        s = t - t0
        return y0 + v0 * s + 0.5 * f * s * s

    def velocity(self, t):
        t0, y0, v0, f = self._phase(t)
        return v0 + f * (t - t0)

    def states(self, times):
        """(positions, velocities), each shaped (len(times), dim), with the
        bits of ``position``/``velocity`` at each time."""
        return _eval_arcs(self.phases, np.asarray(times, dtype=float)[:, None])

    def crossing_times(self):
        return [p[0] for p in self.phases[1:]]


#############################################################
# Central-field propagation
#############################################################


@dataclass
class CentralTrajectory:
    times: np.ndarray
    r: np.ndarray
    r_dot: np.ndarray
    phi: np.ndarray
    x0: np.ndarray
    momentum: float

    def positions(self):
        return np.column_stack([self.r * np.cos(self.phi), self.r * np.sin(self.phi)])


def propagate_central(scenario, x0, horizon=None, n_out=DEFAULT_N_OUT):
    """Reduce to the radial equation r'' = -U'(r) + M^2 / r^3 with conserved
    angular momentum M = |x0|^2 h(|x0|); the angle integrates M / r^2."""
    force = scenario.force
    if not isinstance(force, Central):
        raise InvalidParameter("propagate_central needs a central force")
    horizon = scenario.horizon if horizon is None else float(horizon)
    if not math.isfinite(horizon):
        raise InvalidParameter("propagate_central needs a finite horizon")
    x0 = np.asarray(x0, dtype=float)
    r0 = float(np.hypot(x0[0], x0[1]))
    phi0 = float(math.atan2(x0[1], x0[0]))
    g0 = float(scenario.init.radial_speed(r0))
    mom = r0 * r0 * float(scenario.init.angular_rate(r0))
    du = force.du

    def rhs(t, state):
        r = state[0]
        return [state[1], -float(du(r)) + (mom * mom) / r**3]

    r_floor = 1e-9 * r0

    def origin_event(t, state):
        return state[0] - r_floor

    origin_event.terminal = True
    origin_event.direction = -1.0

    times = np.linspace(0.0, horizon, n_out)
    sol = solve_ivp(rhs, (0.0, horizon), [r0, g0], method="DOP853",
                    rtol=RTOL, atol=ATOL, t_eval=times, events=[origin_event])
    if not sol.success:
        raise StepFailure(sol.message)
    if sol.status == 1:
        raise OriginApproach(
            f"trajectory reached r = {r_floor:.3g} at t = {sol.t_events[0][0]:.6g}")
    r = sol.y[0]
    r_dot = sol.y[1]
    phi = phi0 + (cumulative_trapezoid(mom / r**2, times, initial=0.0) if mom else
                  np.zeros_like(times))
    return CentralTrajectory(times=times, r=r, r_dot=r_dot, phi=phi, x0=x0,
                             momentum=mom)


class RadialEnsemble:
    """Radial coordinates of all distinct radii in an annulus grid."""

    def __init__(self, scenario, radii, horizon, n_out=DEFAULT_N_OUT):
        force = scenario.force
        du = _vectorize_scalar(force.du)
        radii = np.asarray(radii, dtype=float)
        n = len(radii)
        g0 = np.array([float(scenario.init.radial_speed(float(r))) for r in radii])
        mom = radii**2 * np.array(
            [float(scenario.init.angular_rate(float(r))) for r in radii])

        def rhs(t, state):
            r = state[:n]
            return np.concatenate([state[n:], -du(r) + mom**2 / r**3])

        r_floor = 1e-9 * float(np.min(radii))

        def origin_event(t, state):
            return float(np.min(state[:n])) - r_floor

        origin_event.terminal = True

        times = np.linspace(0.0, horizon, n_out)
        sol = solve_ivp(rhs, (0.0, horizon), np.concatenate([radii, g0]),
                        method="DOP853", rtol=RTOL, atol=ATOL,
                        t_eval=times, dense_output=True, events=[origin_event])
        if not sol.success:
            raise StepFailure(sol.message)
        if sol.status == 1:
            raise OriginApproach("a radial trajectory collapsed toward the origin")
        self.times = times
        self.radii = radii
        self.momentum = mom
        self.r = sol.y[:n].T.copy()
        self.r_dot = sol.y[n:].T.copy()
        self.dphi = cumulative_trapezoid(mom[None, :] / self.r**2, times,
                                         axis=0, initial=0.0)
        self.sol = sol
        self.n = n


#############################################################
# 1D collision detection
#############################################################


def _sample_constant_force(scenario, lo, hi, n=257):
    force = scenario.force
    f = _vectorize_scalar(force.f if isinstance(force, Smooth1D) else force)
    vals = f(np.linspace(lo, hi, n))
    c = float(vals[0])
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.max(np.abs(vals - c)) <= _CONST_FORCE_TOL * scale:
        return c
    return None


def _constant_force_value(scenario, horizon):
    """Detect a constant 1D force on the range the ensemble can reach."""
    force = scenario.force
    if isinstance(force, ConstantVec) and force.dim == 1:
        return float(force.vector[0])
    if not isinstance(force, Smooth1D):
        return None
    lo, hi = scenario.domain.lower[0], scenario.domain.upper[0]
    span = hi - lo
    c = _sample_constant_force(scenario, lo - span, hi + span)
    if c is None:
        return None
    xs = scenario.grid_1d()
    v0 = np.array([float(scenario.init.velocity(float(x))) for x in xs])
    t = min(horizon, 1e6)
    ys = np.concatenate([xs, xs + v0 * t + 0.5 * c * t * t,
                         xs + v0 * (t / 2) + 0.5 * c * (t / 2) ** 2])
    reach_lo, reach_hi = float(np.min(ys)), float(np.max(ys))
    if c != 0.0:
        tv = -v0 / c
        ok = (tv > 0) & (tv < t)
        if np.any(ok):
            yv = xs[ok] + v0[ok] * tv[ok] + 0.5 * c * tv[ok] ** 2
            reach_lo = min(reach_lo, float(np.min(yv)))
            reach_hi = max(reach_hi, float(np.max(yv)))
    c2 = _sample_constant_force(scenario, reach_lo, reach_hi)
    return c2


def uniform_mass_value(scenario, xs=None, n=257, rel_tol=1e-12):
    """Common particle mass if the mass profile is constant, else None."""
    if xs is None:
        lo, hi = scenario.domain.lower[0], scenario.domain.upper[0]
        xs = np.linspace(lo, hi, n)
    vals = np.array([float(scenario.init.mass(float(x))) for x in xs])
    m = float(vals[0])
    if np.max(np.abs(vals - m)) <= rel_tol * max(1.0, abs(m)):
        return m
    return None


def _segments_for_grid(scenario, xs, const_force=None):
    force = scenario.force
    segs = []
    for x in xs:
        v0 = float(scenario.init.velocity(float(x)))
        m = float(scenario.init.mass(float(x)))
        if const_force is not None:
            segs.append(_const_segments(const_force, float(x), v0, m))
        else:
            segs.append(_gap_segments(force, float(x), v0, m))
    return segs


def _exact_first_collision(segs, xs, horizon):
    t_best, pair_best = None, None
    for i in range(len(xs) - 1):
        t = _pair_first_crossing(segs[i], segs[i + 1], horizon)
        if t is not None and (t_best is None or t < t_best):
            t_best, pair_best = t, (i, i + 1)
    return t_best, pair_best


def _gap_history(segs, times):
    ys, _ = _arc_states(segs, times)
    return np.min(np.diff(ys, axis=1), axis=1)


def detect_collisions_1d(scenario, n_particles=None, horizon=None,
                         n_out=DEFAULT_N_OUT, refine_passes=5):
    """First coordinate collision of the sampled 1D ensemble.

    Gap and constant forces use exact per-pair quadratic crossings; smooth
    forces use the dense numeric flow with sign changes of adjacent gaps and
    time bisection.  A local grid-refinement pass doubles the resolution
    around the witness pair until the collision time is stable to 1e-3
    relative.
    """
    if scenario.dim != 1:
        raise InvalidParameter("detect_collisions_1d needs a one-dimensional scenario")
    horizon = scenario.horizon if horizon is None else float(horizon)
    if not math.isfinite(horizon):
        if isinstance(scenario.force, (OneGap, TwoGap)):
            return asymptotic_verdict_1d(scenario, n=n_particles)
        c = _constant_force_value(scenario, 1.0)
        if c is not None:
            return asymptotic_verdict_1d(scenario, n=n_particles)
        raise InvalidParameter(
            "infinite horizon needs a piecewise-constant force; give a finite horizon")

    n = n_particles or scenario.samples[0]
    xs = scenario.domain.axis_nodes(0, n)
    times = np.linspace(0.0, horizon, n_out)

    if isinstance(scenario.force, (OneGap, TwoGap)):
        const = None
        exact = True
    else:
        const = _constant_force_value(scenario, horizon)
        exact = const is not None

    if exact:
        segs = _segments_for_grid(scenario, xs, const_force=const)
        t_first, pair = _exact_first_collision(segs, xs, horizon)
        history = _gap_history(segs, times)
        report = CollisionReport(
            found=t_first is not None, t_first=t_first,
            pair=None if pair is None else (float(xs[pair[0]]), float(xs[pair[1]])),
            pair_indices=pair, min_gap_history=history, times=times, mode="Exact",
        )
        if report.found:
            _refine_1d(scenario, report, horizon, exact=True, const=const,
                       passes=refine_passes)
        return report

    flow = NumericFlow1D(scenario, xs, horizon, n_out)
    report = _numeric_first_collision(flow)
    if report.found:
        _refine_1d(scenario, report, horizon, exact=False, passes=refine_passes)
    return report


def _numeric_first_collision(flow):
    gaps = np.diff(flow.y, axis=1)
    history = np.min(gaps, axis=1)
    hit_frames = np.nonzero(np.any(gaps <= 0.0, axis=1))[0]
    if len(hit_frames) == 0:
        return CollisionReport(found=False, min_gap_history=history,
                               times=flow.times, mode="Numeric")
    k = int(hit_frames[0])
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


def _refine_1d(scenario, report, horizon, exact, const=None, passes=5):
    """Double the local resolution around the witness pair until the first
    collision time is stable to 1e-3 relative."""
    x_lo_dom = scenario.domain.lower[0]
    x_hi_dom = scenario.domain.upper[0]
    a, b = report.pair
    h = max(b - a, 1e-9 * (x_hi_dom - x_lo_dom))
    n_local = 65
    t_prev = report.t_first
    for _ in range(passes):
        lo = max(x_lo_dom, a - 2 * h)
        hi = min(x_hi_dom, b + 2 * h)
        xs = np.linspace(lo, hi, n_local)
        if exact:
            segs = _segments_for_grid(scenario, xs, const_force=const)
            t_new, pair = _exact_first_collision(segs, xs, horizon)
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


def _final_state_data(scenario, x, const=None, m=1.0):
    """(t_enter, y_enter, v_enter, a_final, terms) for the last force region.

    ``terms`` carries the crossing times so velocity differences can be
    formed without cancellation: with accelerations a_k = f_k / m, for a
    one-gap force v_final(t*) = v0 + a2 t* + (a1 - a2) T_a, and for a
    two-gap force v_final(t*) = a3 t* + (a1 - a2) T_a + (a2 - a3) T_b + v0.
    """
    v0 = float(scenario.init.velocity(float(x)))
    if const is not None:
        return 0.0, float(x), v0, const / m, (v0, 0.0, 0.0)
    force = scenario.force
    segs = _gap_segments(force, float(x), v0, m)
    t_e, y_e, v_e, a_f = segs[-1]
    if isinstance(force, OneGap):
        return t_e, y_e, v_e, a_f, (v0, segs[1][0], 0.0)
    return t_e, y_e, v_e, a_f, (v0, segs[1][0], segs[2][0])


def _final_velocity_difference(force, const, terms_i, terms_j, m=1.0):
    """v_final_j(t) - v_final_i(t) in the shared last region (t-independent
    up to the common accel term), in cancellation-free form."""
    v0_i, ta_i, tb_i = terms_i
    v0_j, ta_j, tb_j = terms_j
    if const is not None:
        return v0_j - v0_i
    if isinstance(force, OneGap):
        return (v0_j - v0_i) + (force.f1 - force.f2) / m * (ta_j - ta_i)
    return ((v0_j - v0_i) + (force.f1 - force.f2) / m * (ta_j - ta_i)
            + (force.f2 - force.f3) / m * (tb_j - tb_i))


def asymptotic_verdict_1d(scenario, n=None, micro_step=None, n_history=64):
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
    force = scenario.force
    const = None
    if not isinstance(force, (OneGap, TwoGap)):
        const = _constant_force_value(scenario, 1.0)
        if const is None:
            raise InvalidParameter(
                "asymptotic verdicts need a piecewise-constant or constant force")
    n = n or scenario.samples[0]
    xs = scenario.domain.axis_nodes(0, n)
    span = scenario.domain.upper[0] - scenario.domain.lower[0]
    delta = (micro_step or MICRO_PAIR_STEP) * span

    m0 = uniform_mass_value(scenario, xs)
    if m0 is None:
        raise InvalidParameter(
            "asymptotic verdicts need uniform particle mass; the final-profile"
            " argument assumes a shared acceleration in the last force region")

    data = {float(x): _final_state_data(scenario, float(x), const, m0) for x in xs}
    t_star = max(d[0] for d in data.values())

    def seg_of(x):
        v0 = float(scenario.init.velocity(float(x)))
        if const is not None:
            return _const_segments(const, float(x), v0, m0)
        return _gap_segments(force, float(x), v0, m0)

    def state_at_tstar(x):
        t_e, y_e, v_e, a_f, terms = data[x]
        s = t_star - t_e
        return y_e + v_e * s + 0.5 * a_f * s * s, v_e + a_f * s, terms

    def pair_collision(x_i, x_j):
        """(found, time) for the ordered pair x_i < x_j, exact kinematics."""
        if x_i not in data:
            data[x_i] = _final_state_data(scenario, x_i, const, m0)
        if x_j not in data:
            data[x_j] = _final_state_data(scenario, x_j, const, m0)
        t_cross = _pair_first_crossing(seg_of(x_i), seg_of(x_j),
                                       t_star if t_star > 0 else 1.0)
        if t_cross is not None:
            return True, t_cross
        y_i, _, terms_i = state_at_tstar(x_i)
        y_j, _, terms_j = state_at_tstar(x_j)
        dv = _final_velocity_difference(force, const, terms_i, terms_j, m0)
        gap = y_j - y_i
        if gap <= 0.0:
            return True, t_star
        if dv < 0.0:
            return True, t_star + gap / (-dv)
        return False, None

    t_first, pair = None, None
    worst_dv, worst_cell = math.inf, 0

    for i in range(n - 1):
        found, t = pair_collision(float(xs[i]), float(xs[i + 1]))
        if found and (t_first is None or t < t_first):
            t_first, pair = t, (float(xs[i]), float(xs[i + 1]))
        _, _, ti = state_at_tstar(float(xs[i]))
        _, _, tj = state_at_tstar(float(xs[i + 1]))
        dv = _final_velocity_difference(force, const, ti, tj, m0)
        if dv < worst_dv:
            worst_dv, worst_cell = dv, i

    probes = list(map(float, xs))
    lo_cell = float(xs[worst_cell])
    hi_cell = float(xs[min(worst_cell + 1, n - 1)])
    if hi_cell > lo_cell:
        probes.extend(np.linspace(lo_cell, hi_cell, 66)[1:-1])
    x_hi_dom = scenario.domain.upper[0]
    for x in probes:
        a_pt, b_pt = (x, x + delta) if x + delta <= x_hi_dom else (x - delta, x)
        found, t = pair_collision(float(a_pt), float(b_pt))
        if found and (t_first is None or t < t_first):
            t_first, pair = t, (float(a_pt), float(b_pt))

    hist_times = np.linspace(0.0, max(t_star, 1.0), n_history)
    segs = [seg_of(float(x)) for x in xs]
    history = _gap_history(segs, hist_times)
    return CollisionReport(
        found=t_first is not None, t_first=t_first, pair=pair,
        min_gap_history=history, times=hist_times, mode="Asymptotic",
        details={"t_enter_last": t_star},
    )


#############################################################
# Multi-dimensional collision detection
#############################################################


def _pairs_chunked(n, chunk=500000):
    i, j = np.triu_indices(n, k=1)
    for k in range(0, len(i), chunk):
        yield i[k: k + chunk], j[k: k + chunk]


def _detect_constant_vec(scenario, pts, horizon, eps_rel):
    """Lemma-style exact pair test: straight relative motion R + V t."""
    n = len(pts)
    vel = np.array([np.asarray(scenario.init.velocity(p), dtype=float) for p in pts])
    t_best, pair_best, d_best = None, None, None
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
                d_best = float(math.sqrt(d2[k]))
    return t_best, pair_best, d_best, vel


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


class NumericFlowMultiD:
    def __init__(self, scenario, pts, horizon, n_out=DEFAULT_N_OUT):
        d = scenario.dim
        n = len(pts)
        force = scenario.force
        if isinstance(force, Linear):
            def f_all(y):
                return y @ force.matrix.T + force.offset
        elif isinstance(force, ConstantVec):
            def f_all(y):
                return np.broadcast_to(force.vector, y.shape)
        elif isinstance(force, HalfSpaceStep):
            def f_all(y):
                below = y[:, force.axis] < force.a
                return np.where(below[:, None], force.f1, force.f2)
        else:
            def f_all(y):
                return np.array([np.asarray(force(p), dtype=float) for p in y])

        vel0 = np.array([np.asarray(scenario.init.velocity(p), dtype=float)
                         for p in pts])

        def rhs(t, state):
            y = state[: n * d].reshape(n, d)
            return np.concatenate([state[n * d:], f_all(y).ravel()])

        times = np.linspace(0.0, horizon, n_out)
        sol = solve_ivp(rhs, (0.0, horizon),
                        np.concatenate([pts.ravel(), vel0.ravel()]),
                        method="DOP853", rtol=RTOL, atol=ATOL,
                        dense_output=True, t_eval=times)
        if not sol.success:
            raise StepFailure(sol.message)
        self.times = times
        self.n, self.d = n, d
        self.sol = sol
        self.y = sol.y[: n * d].T.reshape(len(times), n, d).copy()
        self.v = sol.y[n * d:].T.reshape(len(times), n, d).copy()
        self.pts = pts

    def positions(self, t):
        return self.sol.sol(t)[: self.n * self.d].reshape(self.n, self.d)


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
        pts = frames[0]
        return _frames_report(times, frames, pts, eps_rel)

    if n_particles is not None:
        n_axis = int(np.atleast_1d(n_particles)[0])
        pts = replace(
            scenario, samples=tuple(n_axis for _ in scenario.samples)
        ).grid_points()
    else:
        pts = scenario.grid_points()

    if isinstance(force, ConstantVec):
        t, pair, dmin, vel = _detect_constant_vec(scenario, pts, horizon, eps_rel)
        return CollisionReport(
            found=t is not None, t_first=t,
            pair=None if pair is None else (tuple(pts[pair[0]]), tuple(pts[pair[1]])),
            pair_indices=pair, mode="Exact",
            details={"criterion": "straight relative motion"},
        )

    zero_v = True
    for p in pts[:: max(1, len(pts) // 64)]:
        if np.max(np.abs(np.asarray(scenario.init.velocity(p), dtype=float))) > 1e-12:
            zero_v = False
            break
    if isinstance(force, HalfSpaceStep) and zero_v:
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
    flow = NumericFlowMultiD(scenario, pts, horizon, n_out)
    return _frames_report(flow.times, flow.y, pts, eps_rel, flow=flow)


def _frames_report(times, frames, pts, eps_rel, flow=None):
    tree0 = cKDTree(pts)
    d0_nn, idx0 = tree0.query(pts, k=2)
    history = np.empty(len(times))
    hit_k, hit_pair = None, None
    for k in range(len(times)):
        tree = cKDTree(frames[k])
        dk, ik = tree.query(frames[k], k=2)
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
            y = flow.positions(t)
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


def simulate_ensemble(scenario, horizon=None, n_out=DEFAULT_N_OUT, n_particles=None):
    """Trajectories of the sampled ensemble at n_out output times."""
    horizon = scenario.horizon if horizon is None else float(horizon)
    if not math.isfinite(horizon):
        raise InvalidParameter("simulate_ensemble needs a finite horizon")
    force = scenario.force
    times = np.linspace(0.0, horizon, n_out)

    if scenario.dim == 1:
        n = n_particles or scenario.samples[0]
        xs = scenario.domain.axis_nodes(0, n)
        if isinstance(force, (OneGap, TwoGap)):
            segs = _segments_for_grid(scenario, xs)
            y, v = _arc_states(segs, times)
            events = [(i, "boundary", float(arc[0]))
                      for i, sg in enumerate(segs) for arc in sg[1:]
                      if arc[0] <= horizon]
            e0 = np.array([quadrature.potential(force, x) for x in xs])
            v0 = np.array([float(scenario.init.velocity(float(x))) for x in xs])
            m0 = np.array([float(scenario.init.mass(float(x))) for x in xs])
            return EnsembleTrajectory(
                times=times, x0=xs, y=y, v=v, events=events, mode="Exact",
                energy0=0.5 * m0 * v0 * v0 + e0, scenario=scenario,
            )
        flow = NumericFlow1D(scenario, xs, horizon, n_out)
        return flow.ensemble()

    if isinstance(scenario.domain, Annulus):
        times, frames = _central_positions(scenario, horizon, n_out)
        pts = frames[0]
        vel = np.gradient(frames, times, axis=0)
        return EnsembleTrajectory(times=times, x0=pts, y=frames, v=vel,
                                  mode="Numeric", scenario=scenario)

    pts = scenario.grid_points()
    if isinstance(force, HalfSpaceStep):
        trajs = [propagate_halfspace(scenario, p, horizon) for p in pts]
        states = [tr.states(times) for tr in trajs]
        y = np.stack([st[0] for st in states], axis=1)
        v = np.stack([st[1] for st in states], axis=1)
        events = []
        for i, tr in enumerate(trajs):
            for t_c in tr.crossing_times():
                if t_c <= horizon:
                    events.append((i, "plane", float(t_c)))
        return EnsembleTrajectory(times=times, x0=pts, y=y, v=v, events=events,
                                  mode="Exact", scenario=scenario)
    if isinstance(force, ConstantVec):
        vel0 = np.array([np.asarray(scenario.init.velocity(p), dtype=float)
                         for p in pts])
        y = pts[None] + vel0[None] * times[:, None, None] \
            + 0.5 * force.vector[None, None] * times[:, None, None] ** 2
        v = vel0[None] + force.vector[None, None] * times[:, None, None]
        return EnsembleTrajectory(times=times, x0=pts, y=y, v=v, mode="Exact",
                                  scenario=scenario)
    flow = NumericFlowMultiD(scenario, pts, horizon, n_out)
    return EnsembleTrajectory(times=flow.times, x0=pts, y=flow.y, v=flow.v,
                              mode="Numeric", scenario=scenario)


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
    y = np.asarray(traj.y).reshape(len(traj.times), n, d)
    v = np.asarray(traj.v).reshape(len(traj.times), n, d)
    # x0 is formatted once, into the leading cells of every row, and y
    # starts from its text: at t = 0 a position is usually its label
    y_text = [_ColumnText(x0[:, c]) for c in range(d)]
    lead = [",".join(cells) for cells in
            zip(map(str, range(n)), *(col.text for col in y_text))]
    v_text = [_ColumnText() for _ in range(d)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"t,particle_index,{head_x0},{head_y},{head_v}\n")
        for k, t in enumerate(traj.times):
            _write_rows(fh, [
                itertools.repeat(repr(float(t)), n), lead,
                *(col.update(y[k, :, c]) for c, col in enumerate(y_text)),
                *(col.update(v[k, :, c]) for c, col in enumerate(v_text))])


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
