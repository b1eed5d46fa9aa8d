"""Analytic no-collision criteria.

Each checker evaluates one criterion and returns a Verdict carrying the
outcome, a signed margin (distance to the decision boundary in the
criterion's own units), a witness for collisions, and diagnostics.  Grid
quantifiers ("for all x, y") are evaluated on tensor grids, refined with
random probes near the worst point, and polished by a short pattern search.

Closed-form criteria compare exactly.  Quadrature-backed criteria report
Inconclusive inside a narrow equality band, since strict and non-strict
inequalities cannot be told apart at roundoff scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import quadrature, simulator
from .errors import (
    HypothesisViolated,
    InternalInconsistency,
    InvalidParameter,
    SingularBoundary,
    TurningPoint,
)
from .scenario import (
    Annulus,
    CENTRAL_FLIGHT,
    CONSTANT_PAIR,
    CUTOFF_FACTOR,
    Central,
    ConstantVec,
    GAP_KINDS,
    HALFSPACE_STEP,
    HalfSpaceStep,
    LINEAR_SPECTRUM,
    Linear,
    MONOTONE_FORCE,
    ONE_GAP_GENERAL,
    ONE_GAP_SLOPE,
    ONE_GAP_ZERO_V,
    OneGap,
    SMOOTH_GENERAL,
    SMOOTH_POSITIVE_V,
    Smooth1D,
    TOL_EIG,
    TWO_GAP_BOUND,
    TwoGap,
    constant_value,
    gap_nonnegative_velocity,
    line_force,
    net_outward_force,
    nonnegative_velocity_positive_mass,
    positive_force_ahead,
    positive_radial_speed,
    positive_velocity,
    spectrum_failure,
    unit_mass,
    varying_mass_reason,
)

REGULAR = "Regular"
COLLISION = "Collision"
INCONCLUSIVE = "Inconclusive"

EQUALITY_BAND = 1e-9
TOL_PARALLEL = 1e-10
_MICRO = 1e-7

# Sampling resolutions of the "for all" quantifiers.  A pair margin is
# minimized over a PAIR_GRID x PAIR_GRID tensor scan of (x, y), then
# PAIR_REFINE random probes around the worst point and PATTERN_STEPS halving
# pattern-search steps; a label margin over LINE_GRID labels plus
# PATTERN_STEPS steps.
PAIR_GRID = 17
PAIR_REFINE = 64
PATTERN_STEPS = 20
LINE_GRID = 513
# random point pairs per monotonicity quantifier, from fixed seeds
MONOTONE_PROBES = 256
# central criterion: anchor radii x targets, and the relative step of the
# flight-time difference
CENTRAL_GRID = 13
CENTRAL_STEP = 1e-5
# random label pairs added to the adjacent ones of the constant-force scan
CONSTANT_PAIR_PROBES = 512

IFF_CRITERIA = frozenset({
    SMOOTH_POSITIVE_V,
    SMOOTH_GENERAL,
    ONE_GAP_ZERO_V,
    ONE_GAP_GENERAL,
    TWO_GAP_BOUND,
    CONSTANT_PAIR,
    HALFSPACE_STEP,
})


@dataclass
class Verdict:
    outcome: str
    criterion: str
    margin: Optional[float] = None
    witness: Optional[dict] = None
    reason: str = ""
    diagnostics: dict = field(default_factory=dict)


#############################################################
# Grid minimization helpers
#############################################################


def _minimize_pair_margin(fn, x_lo, x_hi, y_hi, n_x, n_y, rng):
    """Minimum of fn(x, y) over x in [x_lo, x_hi], y in (x, y_hi].

    Tensor scan, then random probes around the worst cell, then a pattern
    search with halving steps.  Deterministic given the rng.
    """
    tiny = 1e-12 * max(y_hi - x_lo, 1.0)
    best_val, best_xy = math.inf, (x_lo, y_hi)
    xs = np.linspace(x_lo, x_hi, n_x)
    for x in xs:
        x = float(x)
        span = y_hi - x
        if span <= tiny:
            continue
        for j in range(1, n_y + 1):
            y = x + span * j / n_y
            val = fn(x, y)
            if val < best_val:
                best_val, best_xy = val, (x, y)
    hx = (x_hi - x_lo) / max(n_x - 1, 1)
    hy = (y_hi - x_lo) / max(n_y, 1)
    for _ in range(PAIR_REFINE):
        x = float(np.clip(best_xy[0] + rng.uniform(-hx, hx), x_lo, x_hi))
        y = float(np.clip(best_xy[1] + rng.uniform(-hy, hy), x + tiny, y_hi))
        if y <= x:
            continue
        val = fn(x, y)
        if val < best_val:
            best_val, best_xy = val, (x, y)
    sx, sy = hx / 2, hy / 2
    for _ in range(PATTERN_STEPS):
        improved = False
        x0, y0 = best_xy
        for cand in ((x0 - sx, y0), (x0 + sx, y0), (x0, y0 - sy), (x0, y0 + sy)):
            x = float(np.clip(cand[0], x_lo, x_hi))
            y = float(np.clip(cand[1], x + tiny, y_hi))
            if y <= x:
                continue
            val = fn(x, y)
            if val < best_val:
                best_val, best_xy = val, (x, y)
                improved = True
        if not improved:
            sx, sy = sx / 2, sy / 2
    return best_val, best_xy


def _minimize_line_margin(fn, lo, hi):
    """Minimum of fn(x) over [lo, hi]: grid scan plus halving pattern search."""
    xs = np.linspace(lo, hi, LINE_GRID)
    vals = [fn(float(x)) for x in xs]
    k = int(np.argmin(vals))
    best_val, best_x = vals[k], float(xs[k])
    step = (hi - lo) / (LINE_GRID - 1) / 2
    for _ in range(PATTERN_STEPS):
        improved = False
        for cand in (best_x - step, best_x + step):
            x = float(np.clip(cand, lo, hi))
            val = fn(x)
            if val < best_val:
                best_val, best_x = val, x
                improved = True
        if not improved:
            step /= 2
    return best_val, best_x


def _band_verdict(criterion, min_val, witness_xy):
    """Outcome from a quadrature-backed margin minimum with equality band."""
    band = EQUALITY_BAND * max(1.0, abs(min_val))
    if min_val > band:
        return Verdict(outcome=REGULAR, criterion=criterion, margin=min_val)
    if min_val < -band:
        witness = {"x": witness_xy[0]}
        if witness_xy[1] is not None:
            witness["y"] = witness_xy[1]
        return Verdict(outcome=COLLISION, criterion=criterion, margin=min_val,
                       witness=witness)
    return Verdict(
        outcome=INCONCLUSIVE, criterion=criterion, margin=min_val,
        reason="margin inside the equality band; strict and non-strict "
               "inequalities are indistinguishable here",
    )


def _pair_rng(scenario, salt):
    return np.random.default_rng(912600 + salt + sum(scenario.samples))


#############################################################
# Smooth 1D criteria
#############################################################


def _require(failure, criterion):
    """Raise a hypothesis failure, a one-label witness as the bare label."""
    if failure is not None:
        message, witness = failure
        raise HypothesisViolated(
            message, criterion=criterion,
            witness=witness[0] if len(witness) == 1 else witness)


def check_smooth_positive_v(scenario):
    """Strictly-positive-velocity criterion for a smooth 1D force.

    Flight times to every downstream point must strictly decrease in the
    particle label; equivalently the expression

        1/v(x) + (v v' - F)(x) / (2 sqrt(2)) * I(x, y),
        I = integral_x^y (H0(x) - U(z))^(-3/2) dz

    stays nonnegative.  Evaluated as -dT/dx on an (x, y) grid up to the
    scenario cutoff.
    """
    force = scenario.force
    if not isinstance(force, Smooth1D):
        raise InvalidParameter("check_smooth_positive_v needs a smooth 1D force")
    _require(unit_mass(scenario) or positive_velocity(scenario), SMOOTH_POSITIVE_V)
    v = scenario.init.velocity
    dv = scenario.init.velocity_deriv
    return _smooth_pair_verdict(
        scenario, SMOOTH_POSITIVE_V, 1,
        lambda profile, x, y: -quadrature.dT_dx(profile, x, y, v, dv, force))


def check_smooth_general(scenario):
    """General smooth 1D criterion for nonnegative velocity and positive force.

    Decides on the sign of the x-derivative of the physical flight time.  For
    unit mass this equals the integration-by-parts inequality value; for
    varying mass the inequality value alone gets the wrong sign on examples
    like m(x) = 1 + x with constant force, so the mass-weighted derivative is
    the decision quantity.
    """
    force = scenario.force
    if not isinstance(force, Smooth1D):
        raise InvalidParameter("check_smooth_general needs a smooth 1D force")
    v = scenario.init.velocity
    dv = scenario.init.velocity_deriv
    m = scenario.init.mass
    dm = scenario.init.mass_deriv
    _require(nonnegative_velocity_positive_mass(scenario) or positive_force_ahead(scenario),
             SMOOTH_GENERAL)
    return _smooth_pair_verdict(
        scenario, SMOOTH_GENERAL, 2,
        lambda profile, x, y: -quadrature.dT_dx_weighted(
            profile, x, y, v, dv, m, dm, force, force.df))


def _smooth_pair_verdict(scenario, criterion, salt, margin):
    """The band verdict of margin(profile, x, y), minimized over the pairs
    of labels x and targets y up to the cutoff; a particle that turns
    around before its target, or a singular start, is a hypothesis
    failure."""
    profile = quadrature.energy_profile(scenario)

    def at(x, y):
        try:
            return margin(profile, x, y)
        except TurningPoint as exc:
            raise HypothesisViolated(
                f"a particle turns around before reaching its target: {exc}",
                criterion=criterion, witness=(x, y))
        except SingularBoundary as exc:
            raise HypothesisViolated(str(exc), criterion=criterion, witness=x)

    min_val, xy = _minimize_pair_margin(
        at, scenario.domain.lower[0], scenario.domain.upper[0],
        scenario.y_cutoff(), PAIR_GRID, PAIR_GRID, _pair_rng(scenario, salt))
    return _band_verdict(criterion, min_val, xy)


#############################################################
# Gap criteria (closed forms)
#############################################################


def _gap_micro_witness(force, velocity, x_star):
    """Exact collision data for the micro pair of width _MICRO at x_star
    of [0, 1] under a gap force, for unit masses."""
    if x_star + _MICRO <= 1.0:
        x1, x2 = x_star, x_star + _MICRO
    else:
        x1, x2 = x_star - _MICRO, x_star
    xs = np.array([x1, x2])
    arcs = simulator._gap_segments(force, xs,
                                   simulator._on_labels(velocity, xs), 1.0)
    (t,), _ = simulator._pair_collisions(force, 1.0, arcs, [0], [1],
                                         float(np.max(arcs[-1][0])))
    if np.isnan(t):
        return {"pair": (x1, x2)}
    return {"pair": (x1, x2), "time": float(t)}


def check_one_gap_zero_v(f1, f2, a):
    """Released-at-rest single-step criterion: no collisions iff the far
    force level is at least the near one.  Margin f2 - f1, compared exactly.
    """
    force = OneGap(f1=float(f1), f2=float(f2), a=float(a))
    margin = force.f2 - force.f1
    if margin >= 0.0:
        return Verdict(outcome=REGULAR, criterion=ONE_GAP_ZERO_V, margin=margin)
    witness = _gap_micro_witness(force, lambda x: 0.0, 1.0)
    return Verdict(outcome=COLLISION, criterion=ONE_GAP_ZERO_V, margin=margin,
                   witness=witness)


def check_one_gap_general(f1, f2, a, velocity, velocity_deriv):
    """Single-step criterion for nonnegative initial velocity.

    No collisions iff for every label x both hold, with
    D(x) = v(x)^2 + 2 f1 (a - x):

      entry order (strict):    -2 (a - x) v'(x) < v(x) + sqrt(D(x))
      final profile (weak):    v'(x) ((f1 - f2) v(x) + f2 sqrt(D(x)))
                                  >= f1 (f1 - f2)

    v' may be a finite difference, so a margin m that misses its
    inequality by no more than EQUALITY_BAND max(1, |m|) is Inconclusive.
    """
    force = OneGap(f1=float(f1), f2=float(f2), a=float(a))
    f1, f2, a = force.f1, force.f2, force.a

    def v(x):
        return float(velocity(x))

    def dv(x):
        return float(velocity_deriv(x))

    _require(gap_nonnegative_velocity(velocity), ONE_GAP_GENERAL)

    def dfn(x):
        return v(x) ** 2 + 2.0 * f1 * (a - x)

    def entry_margin(x):
        return v(x) + math.sqrt(dfn(x)) + 2.0 * (a - x) * dv(x)

    def profile_margin(x):
        return dv(x) * ((f1 - f2) * v(x) + f2 * math.sqrt(dfn(x))) \
            - f1 * (f1 - f2)

    min_entry, x_entry = _minimize_line_margin(entry_margin, 0.0, 1.0)
    min_profile, x_profile = _minimize_line_margin(profile_margin, 0.0, 1.0)
    diagnostics = {"entry_min": min_entry, "profile_min": min_profile}
    failures = []
    if not min_entry > 0.0:
        failures.append((x_entry, "ordered entry into the far region",
                         min_entry))
    if not min_profile >= 0.0:
        failures.append((x_profile, "monotone final velocity profile",
                         min_profile))
    if not failures:
        return Verdict(outcome=REGULAR, criterion=ONE_GAP_GENERAL,
                       margin=min(min_entry, min_profile),
                       diagnostics=diagnostics)
    decided = [f for f in failures
               if f[2] < -EQUALITY_BAND * max(1.0, abs(f[2]))]
    x_star, cond, margin = (decided or failures)[0]
    if not decided:
        return Verdict(
            outcome=INCONCLUSIVE, criterion=ONE_GAP_GENERAL, margin=margin,
            witness={"x": x_star}, diagnostics=diagnostics,
            reason=f"{cond}: margin inside the equality band; strict and "
                   "non-strict inequalities are indistinguishable here")
    witness = _gap_micro_witness(force, velocity, x_star)
    witness["condition"] = cond
    return Verdict(outcome=COLLISION, criterion=ONE_GAP_GENERAL, margin=margin,
                   witness=witness, diagnostics=diagnostics)


def check_corollary_sufficient(f1, a, velocity, velocity_deriv):
    """Sufficient slope bound for the force-free far region (f2 = 0):
    v'(x) >= f1 / sqrt(f1 x + v(0)^2) at every label.  Not necessary, so a
    failure is Inconclusive.
    """
    f1 = float(f1)
    if f1 <= 0.0:
        raise InvalidParameter("the near force level must be positive")
    v0sq = float(velocity(0.0)) ** 2

    def margin(x):
        denom = f1 * x + v0sq
        if denom <= 0.0:
            return -math.inf
        return float(velocity_deriv(x)) - f1 / math.sqrt(denom)

    min_val, x_star = _minimize_line_margin(margin, 0.0, 1.0)
    if min_val >= 0.0:
        return Verdict(outcome=REGULAR, criterion=ONE_GAP_SLOPE, margin=min_val)
    return Verdict(
        outcome=INCONCLUSIVE, criterion=ONE_GAP_SLOPE, margin=min_val,
        reason="slope bound fails at some label; the bound is sufficient only",
        witness={"x": x_star},
    )


def check_two_gap(f1, f2, f3, a, b):
    """Double-step criterion for particles released at rest.

    No collisions iff b - a <= alpha (a - 1) with

        alpha = f1 (f3 - f1) (f3 (f1 - f2) + f1 (f3 - f2))
                / ((f1 - f2)^2 f3^2).

    Margin alpha (a - 1) - (b - a), compared exactly.  f3 > f1 is necessary.
    """
    force = TwoGap(f1=float(f1), f2=float(f2), f3=float(f3), a=float(a), b=float(b))
    f1, f2, f3, a, b = force.f1, force.f2, force.f3, force.a, force.b
    alpha = (f1 * (f3 - f1) * (f3 * (f1 - f2) + f1 * (f3 - f2))
             / ((f1 - f2) ** 2 * f3 ** 2))
    beta = (f1 - f2) * f3 / ((f3 - f2) * f1 ** 2)
    margin = alpha * (a - 1.0) - (b - a)
    diagnostics = {"alpha": alpha, "beta": beta,
                   "necessary_far_exceeds_near": f3 > f1}
    if margin >= 0.0:
        return Verdict(outcome=REGULAR, criterion=TWO_GAP_BOUND, margin=margin,
                       diagnostics=diagnostics)
    witness = _gap_micro_witness(force, lambda x: 0.0, 1.0)
    return Verdict(outcome=COLLISION, criterion=TWO_GAP_BOUND, margin=margin,
                   witness=witness, diagnostics=diagnostics)


#############################################################
# Multi-dimensional criteria
#############################################################


def _as_vec(value, dim):
    arr = np.asarray(value, dtype=float)
    return np.full(dim, float(arr)) if arr.ndim == 0 else arr


def _sample_box(rng, lo, hi):
    return np.array([rng.uniform(l, h) for l, h in zip(lo, hi)])


def _monotone_margin(fn, lo, hi, rng, dim):
    """Worst normalized inner product (fn(b) - fn(a), b - a) / |b - a|^2
    over MONOTONE_PROBES random pairs (a, b) of the box."""
    worst, pair = math.inf, None
    for _ in range(MONOTONE_PROBES):
        p = _sample_box(rng, lo, hi)
        q = _sample_box(rng, lo, hi)
        d = q - p
        nrm = float(np.dot(d, d))
        if nrm < 1e-24:
            continue
        if dim == 1:
            fp = float(fn(float(p[0])))
            fq = float(fn(float(q[0])))
            val = (fq - fp) * float(d[0]) / nrm
        else:
            fp = _as_vec(fn(p), dim)
            fq = _as_vec(fn(q), dim)
            val = float(np.dot(fq - fp, d)) / nrm
        if val < worst:
            worst, pair = val, (tuple(map(float, p)), tuple(map(float, q)))
    return worst, pair


def check_monotone_multi(scenario):
    """Sufficient criterion in any dimension: a monotone force field
    ((F(b) - F(a), b - a) >= 0 everywhere) plus a monotone initial velocity
    field keeps every pair distance convex in time, hence positive."""
    rng = np.random.default_rng(20240 + MONOTONE_PROBES)
    d = scenario.dim
    if isinstance(scenario.domain, Annulus):
        r_in, r_out = scenario.domain.r_inner, scenario.domain.r_outer
        lo = [-r_out, -r_out]
        hi = [r_out, r_out]
        span = r_out - r_in
        f_lo = [-r_out - CUTOFF_FACTOR * span] * 2
        f_hi = [r_out + CUTOFF_FACTOR * span] * 2
    else:
        lo = list(scenario.domain.lower)
        hi = list(scenario.domain.upper)
        spans = [h - l for l, h in zip(lo, hi)]
        f_lo = [l - max(s, 1.0) for l, s in zip(lo, spans)]
        f_hi = [h + CUTOFF_FACTOR * max(s, 1.0) for h, s in zip(hi, spans)]

    force = line_force(scenario.force) if d == 1 else scenario.force
    f_margin, f_pair = _monotone_margin(force, f_lo, f_hi, rng, d)
    v_margin, v_pair = _monotone_margin(scenario.init.velocity, lo, hi, rng, d)
    margin = min(f_margin, v_margin)
    diagnostics = {"force_min": f_margin, "velocity_min": v_margin}
    if margin >= 0.0:
        return Verdict(outcome=REGULAR, criterion=MONOTONE_FORCE, margin=margin,
                       diagnostics=diagnostics)
    witness = {"pair": f_pair if f_margin < v_margin else v_pair,
               "field": "force" if f_margin < v_margin else "velocity"}
    return Verdict(
        outcome=INCONCLUSIVE, criterion=MONOTONE_FORCE, margin=margin,
        witness=witness,
        reason="monotonicity fails on a sampled pair; the criterion is "
               "sufficient only", diagnostics=diagnostics,
    )


def check_linear(scenario):
    """Spectral sufficient criterion for an affine force F(y) = M y + c:
    real nonnegative eigenvalues with a full eigenbasis, plus a monotone
    initial velocity field.

    The symmetrized spectrum is reported too: when the symmetric part of M is
    indefinite the spectral argument does not reduce to the monotone-force
    criterion, so such Regular verdicts rest on the stated hypothesis alone.
    """
    force = scenario.force
    if not isinstance(force, Linear):
        raise InvalidParameter("check_linear needs an affine force")
    mat = force.matrix
    eigvals = np.linalg.eig(mat)[0]
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    min_eig = float(np.min(eigvals.real))
    sym_min = float(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.T))))
    diagnostics = {
        "eigenvalues": [complex(ev) for ev in eigvals],
        "symmetric_part_min": sym_min,
    }
    failure = spectrum_failure(mat)
    if failure is not None:
        return Verdict(outcome=INCONCLUSIVE, criterion=LINEAR_SPECTRUM,
                       margin=min_eig if failure[0] == "negative eigenvalue" else None,
                       reason=failure[0], diagnostics=diagnostics)
    rng = np.random.default_rng(20241 + MONOTONE_PROBES)
    v_margin, v_pair = _monotone_margin(
        scenario.init.velocity, list(scenario.domain.lower),
        list(scenario.domain.upper), rng, scenario.dim)
    diagnostics["velocity_min"] = v_margin
    if v_margin < 0.0:
        return Verdict(outcome=INCONCLUSIVE, criterion=LINEAR_SPECTRUM,
                       margin=v_margin, witness={"pair": v_pair},
                       reason="initial velocity field is not monotone",
                       diagnostics=diagnostics)
    margin = 0.0 if -TOL_EIG * scale <= min_eig < 0.0 else min_eig
    reason = ""
    if sym_min < -TOL_EIG * scale:
        reason = ("symmetric part of the force matrix is indefinite; the "
                  "spectral hypothesis alone backs this verdict")
    return Verdict(outcome=REGULAR, criterion=LINEAR_SPECTRUM, margin=margin,
                   reason=reason, diagnostics=diagnostics)


def check_constant_force_pair(x1, x2, v1, v2):
    """Exact two-particle test under any constant force: with R = x2 - x1
    and V = v2 - v1 the relative motion is R + V t, so the particles collide
    iff R and V are parallel with (R, V) < 0, at time |R| / |V|."""
    r = np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)
    vdiff = np.asarray(v2, dtype=float) - np.asarray(v1, dtype=float)
    r = np.atleast_1d(r)
    vdiff = np.atleast_1d(vdiff)
    nr = float(np.linalg.norm(r))
    nv = float(np.linalg.norm(vdiff))
    if nr == 0.0:
        raise InvalidParameter("the two labels must differ")
    if nv == 0.0:
        return Verdict(outcome=REGULAR, criterion=CONSTANT_PAIR, margin=1.0,
                       reason="constant separation",
                       diagnostics={"parallel": False, "rv": 0.0})
    rv = float(np.dot(r, vdiff))
    # rejection of V from R: sqrt(|R|^2 |V|^2 - (R, V)^2) cancels
    # catastrophically for near-parallel data, the residual vector does not
    perp = vdiff - (rv / (nr * nr)) * r
    cross_ratio = float(np.linalg.norm(perp)) / nv
    cos = rv / (nr * nv)
    parallel = cross_ratio <= TOL_PARALLEL
    diagnostics = {"parallel": parallel, "rv": rv, "cross_ratio": cross_ratio}
    if parallel and rv < 0.0:
        t = nr / nv
        return Verdict(
            outcome=COLLISION, criterion=CONSTANT_PAIR, margin=cos,
            witness={"pair": (tuple(map(float, np.atleast_1d(x1))),
                              tuple(map(float, np.atleast_1d(x2)))),
                     "time": t},
            diagnostics=diagnostics,
        )
    return Verdict(outcome=REGULAR, criterion=CONSTANT_PAIR,
                   margin=max(cross_ratio, cos), diagnostics=diagnostics)


def check_constant_force_profile(scenario):
    """Continuum version of the constant-force pair test in 1D: trajectories
    are parallel parabolas, so collisions happen iff the initial velocity
    profile strictly decreases somewhere; the first collision time is the
    infimum of gap / velocity-excess over decreasing pairs."""
    if scenario.dim != 1:
        raise InvalidParameter("the 1D profile test needs a one-dimensional scenario")
    n = max(scenario.samples[0], LINE_GRID)
    xs = scenario.domain.axis_nodes(0, n)
    delta = _MICRO * (scenario.domain.upper[0] - scenario.domain.lower[0])
    # the adjacent grid pairs, then a micro pair of width delta at each node
    lo = np.concatenate([xs[:-1], np.where(
        xs + delta <= scenario.domain.upper[0], xs, xs - delta)])
    hi = np.concatenate([xs[1:], lo[n - 1:] + delta])
    v = simulator._on_labels(scenario.init.velocity,
                             np.concatenate([xs, hi[n - 1:], lo[n - 1:]]))
    dx = np.concatenate([np.diff(xs), np.full(n, delta)])
    dvv = np.concatenate([np.diff(v[:n]), v[n:2 * n] - v[2 * n:]])
    slopes = dvv / dx
    k = int(np.argmin(slopes))
    best_slope, best_pair = float(slopes[k]), (float(lo[k]), float(hi[k]))
    hits = dvv < 0.0
    t_first = float(np.min(-dx[hits] / dvv[hits])) if hits.any() else math.inf
    diagnostics = {"min_velocity_slope": best_slope}
    if best_slope >= 0.0:
        return Verdict(outcome=REGULAR, criterion=CONSTANT_PAIR,
                       margin=best_slope, diagnostics=diagnostics)
    return Verdict(
        outcome=COLLISION, criterion=CONSTANT_PAIR, margin=best_slope,
        witness={"pair": best_pair, "time": t_first}, diagnostics=diagnostics,
    )


def check_halfspace_step(f1, f2, a, axis=-1):
    """Half-space step criterion for particles released at rest below the
    plane y[axis] = a: no collisions iff the normal force does not drop
    across it.  Margin = far normal level minus near normal level, compared
    exactly."""
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if f1.shape != f2.shape or f1.ndim != 1:
        raise InvalidParameter("force levels must be vectors of equal dimension")
    if float(a) <= 0.0:
        raise InvalidParameter("the step position must be positive")
    f1d = float(f1[axis])
    f2d = float(f2[axis])
    if f1d <= 0.0:
        raise InvalidParameter("the near normal force level must be positive")
    diagnostics = {"near_normal": f1d, "far_normal": f2d}
    if f2d < 0.0:
        return Verdict(
            outcome=INCONCLUSIVE, criterion=HALFSPACE_STEP, margin=None,
            reason="negative far normal level lets particles oscillate across "
                   "the plane; outside this criterion",
            diagnostics=diagnostics,
        )
    margin = f2d - f1d
    if margin >= 0.0:
        return Verdict(outcome=REGULAR, criterion=HALFSPACE_STEP, margin=margin,
                       diagnostics=diagnostics)
    direction = tuple(float(c) for c in (f2 - f1))
    return Verdict(
        outcome=COLLISION, criterion=HALFSPACE_STEP, margin=margin,
        witness={"direction": direction,
                 "note": "pairs separated along this direction close up"},
        diagnostics=diagnostics,
    )


def check_central(scenario):
    """Sufficient flight-time criterion for a central force on an annulus.

    With conserved angular momentum M(r) = r^2 h(r), outward energy
    E0(r) = g(r)^2/2 + U(r) + r^2 h(r)^2 / 2 and effective potential
    V(z, r) = U(z) + r^4 h(r)^2 / (2 z^2), no collisions happen if

        integral_r1^r2 d/dr1 (2 (E0(r1) - V(z, r1)))^(-1/2) dz < 1 / g(r1)

    for all anchor radii r1 and targets r2 > r1.  Equivalently the radial
    flight time T(r1, r2) = integral of the inverse speed from r1 to r2 is
    strictly decreasing in the anchor label; the margin is -dT/dr1 by
    central differences of the whole integral with step CENTRAL_STEP * r1,
    which keeps the finite-difference noise out of the quadrature.
    """
    force = scenario.force
    if not isinstance(force, Central) or not isinstance(scenario.domain, Annulus):
        raise InvalidParameter("check_central needs a central force on an annulus")
    g = scenario.init.radial_speed
    h = scenario.init.angular_rate
    u = force.u
    r1_lo = scenario.domain.r_inner
    r1_hi = scenario.domain.r_outer
    r_cut = scenario.y_cutoff()
    _require(positive_radial_speed(scenario) or net_outward_force(scenario), CENTRAL_FLIGHT)

    def inv_speed(r1, z):
        hr = float(h(r1))
        e0 = 0.5 * float(g(r1)) ** 2 + float(u(r1)) + 0.5 * r1 * r1 * hr * hr
        veff = float(u(z)) + (r1 ** 4) * hr * hr / (2.0 * z * z)
        k = 2.0 * (e0 - veff)
        if k <= 0.0:
            return math.inf
        return 1.0 / math.sqrt(k)

    bad = [None]

    def flight_time(a, r2):
        def speed_inv(z):
            val = inv_speed(a, z)
            if not math.isfinite(val):
                bad[0] = (a, z)
                return 0.0
            return val

        val, _ = quadrature._adaptive(speed_inv, a, r2, 1e-12, 1e-10)
        return val

    def margin(r1, r2):
        step = CENTRAL_STEP * r1
        t_hi = flight_time(r1 + step, r2)
        t_lo = flight_time(r1 - step, r2)
        return -(t_hi - t_lo) / (2.0 * step)

    rng = _pair_rng(scenario, 3)
    inset = 1e-6 * (r1_hi - r1_lo)
    min_val, xy = _minimize_pair_margin(
        margin, r1_lo + inset, r1_hi - inset, r_cut, CENTRAL_GRID,
        CENTRAL_GRID, rng)
    if bad[0] is not None:
        return Verdict(outcome=INCONCLUSIVE, criterion=CENTRAL_FLIGHT,
                       reason="kinetic term vanished while probing the bound",
                       witness={"r1": bad[0][0], "z": bad[0][1]})
    band = EQUALITY_BAND * max(1.0, abs(min_val))
    if min_val > band:
        return Verdict(outcome=REGULAR, criterion=CENTRAL_FLIGHT, margin=min_val,
                       diagnostics={"worst": xy})
    return Verdict(
        outcome=INCONCLUSIVE, criterion=CENTRAL_FLIGHT, margin=min_val,
        witness={"r1": xy[0], "r2": xy[1]},
        reason="bound fails or sits in the equality band; the criterion is "
               "sufficient only",
    )


#############################################################
# Dispatcher
#############################################################


def _verdict_inconclusive(reason, criterion="none"):
    return Verdict(outcome=INCONCLUSIVE, criterion=criterion, reason=reason)


def _hypothesis_verdict(exc):
    return Verdict(outcome=INCONCLUSIVE, criterion=exc.criterion or "none",
                   reason=f"hypothesis violated: {exc}",
                   witness=None if exc.witness is None else {"at": exc.witness})


def check_auto(scenario):
    """Route the scenario to every applicable criterion.

    Returns (verdict, trace) where trace lists (criterion id, Verdict) in
    evaluation order.  Decisive verdicts from if-and-only-if criteria win;
    a Regular from any criterion contradicting a Collision from an iff
    criterion raises InternalInconsistency.
    """
    force = scenario.force
    trace: List[Tuple[str, Verdict]] = []

    def run(criterion_id, fn):
        try:
            v = fn()
        except HypothesisViolated as exc:
            v = _hypothesis_verdict(exc)
        trace.append((criterion_id, v))
        return v

    m0 = constant_value(scenario.init.mass)
    if isinstance(force, GAP_KINDS + (ConstantVec,)) and m0 is None:
        # a 1D constant force may carry a mass profile too
        cid = {OneGap: ONE_GAP_GENERAL, TwoGap: TWO_GAP_BOUND}.get(
            type(force), CONSTANT_PAIR)
        trace.append((cid, _verdict_inconclusive(varying_mass_reason(force),
                                                 cid)))
    elif isinstance(force, OneGap):
        # uniform mass folds into the levels: accelerations f_i / m0
        a1, a2 = force.f1 / m0, force.f2 / m0
        if scenario.velocity_is_zero():
            run(ONE_GAP_ZERO_V,
                lambda: check_one_gap_zero_v(a1, a2, force.a))
        run(ONE_GAP_GENERAL,
            lambda: check_one_gap_general(a1, a2, force.a,
                                          scenario.init.velocity,
                                          scenario.init.velocity_deriv))
        if force.f2 == 0.0:
            run(ONE_GAP_SLOPE,
                lambda: check_corollary_sufficient(a1, force.a,
                                                   scenario.init.velocity,
                                                   scenario.init.velocity_deriv))
    elif isinstance(force, TwoGap):
        if scenario.velocity_is_zero():
            run(TWO_GAP_BOUND,
                lambda: check_two_gap(force.f1 / m0, force.f2 / m0,
                                      force.f3 / m0, force.a, force.b))
        else:
            trace.append((TWO_GAP_BOUND, _verdict_inconclusive(
                "no criterion covers a double-step force with nonzero "
                "initial velocity", TWO_GAP_BOUND)))
    elif isinstance(force, Smooth1D):
        if simulator.asymptotic_applies(scenario):
            # uniform mass keeps the parabolas parallel, so the profile
            # criterion and its collision times hold unchanged
            run(CONSTANT_PAIR, lambda: check_constant_force_profile(scenario))
        else:
            if positive_velocity(scenario) is None:
                run(SMOOTH_POSITIVE_V, lambda: check_smooth_positive_v(scenario))
            run(SMOOTH_GENERAL, lambda: check_smooth_general(scenario))
    elif isinstance(force, ConstantVec):
        v_mono = run(MONOTONE_FORCE, lambda: check_monotone_multi(scenario))
        if v_mono.outcome != REGULAR:
            run(CONSTANT_PAIR, lambda: _constant_vec_pair_scan(scenario))
    elif isinstance(force, HalfSpaceStep):
        if scenario.velocity_is_zero():
            run(HALFSPACE_STEP,
                lambda: check_halfspace_step(force.f1, force.f2, force.a,
                                             force.axis))
        else:
            trace.append((HALFSPACE_STEP, _verdict_inconclusive(
                "the half-space step criterion needs particles released at "
                "rest", HALFSPACE_STEP)))
            run(MONOTONE_FORCE, lambda: check_monotone_multi(scenario))
    elif isinstance(force, Linear):
        lin = run(LINEAR_SPECTRUM, lambda: check_linear(scenario))
        if lin.outcome != REGULAR:
            run(MONOTONE_FORCE, lambda: check_monotone_multi(scenario))
    elif isinstance(force, Central):
        run(CENTRAL_FLIGHT, lambda: check_central(scenario))
    else:
        trace.append(("none", _verdict_inconclusive(
            "no applicable criterion for this force kind")))

    collisions = [(cid, v) for cid, v in trace
                  if v.outcome == COLLISION and cid in IFF_CRITERIA]
    regulars = [(cid, v) for cid, v in trace if v.outcome == REGULAR]
    if collisions and regulars:
        raise InternalInconsistency(
            f"criterion '{collisions[0][0]}' reports a collision while "
            f"'{regulars[0][0]}' reports regular")
    if collisions:
        return collisions[0][1], trace
    iff_regulars = [(cid, v) for cid, v in regulars if cid in IFF_CRITERIA]
    if iff_regulars:
        return iff_regulars[0][1], trace
    if regulars:
        return regulars[0][1], trace
    reasons = "; ".join(
        f"{cid}: {v.reason}" for cid, v in trace if v.reason) or \
        "no applicable criterion"
    final = Verdict(outcome=INCONCLUSIVE,
                    criterion=trace[-1][0] if trace else "none",
                    reason=reasons)
    return final, trace


def _constant_vec_pair_scan(scenario):
    """Sampled pair scan under a constant force: any antiparallel
    label/velocity-difference pair is an exact collision witness."""
    pts = scenario.grid_points()
    vel = simulator._velocities(scenario, pts)
    rng = _pair_rng(scenario, 4)
    n = len(pts)
    idx_pairs = []
    for i in range(n - 1):
        idx_pairs.append((i, i + 1))
    for _ in range(CONSTANT_PAIR_PROBES):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            idx_pairs.append((int(i), int(j)))
    best = None
    for i, j in idx_pairs:
        v = check_constant_force_pair(pts[i], pts[j], vel[i], vel[j])
        if v.outcome == COLLISION:
            if best is None or v.witness["time"] < best.witness["time"]:
                best = v
    if best is not None:
        return best
    return Verdict(
        outcome=INCONCLUSIVE, criterion=CONSTANT_PAIR,
        reason="no sampled pair is antiparallel; the exact pair test cannot "
               "certify the whole continuum",
    )
