"""Scenario model: domains, external force fields, initial data.

A scenario fixes everything needed to evolve a continuum of non-interacting
particles under Newton dynamics

    d^2 y / dt^2 = F(y) / m(x),   y(0, x) = x,   y'(0, x) = v(x),

namely the initial region, the force field, the initial velocity / mass /
density profiles, and a time horizon.  Scenarios are built programmatically
(`build_scenario`, `build_blowup_scenario`) or loaded from JSON files whose
scalar fields may be expression strings (see `expressions`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    EvaluationError,
    InvalidParameter,
    NotMonotone,
    ScenarioFormatError,
)
from .expressions import Expression, parse_expression

# Stable criterion identifiers, shared by the checkers, the assumptions
# report and the CLI.  Named after what each criterion does.
SMOOTH_POSITIVE_V = "smooth-positive-velocity"
SMOOTH_GENERAL = "smooth-general"
ONE_GAP_ZERO_V = "one-gap-zero-velocity"
ONE_GAP_GENERAL = "one-gap-general"
ONE_GAP_SLOPE = "one-gap-slope-sufficient"
TWO_GAP_BOUND = "two-gap-bound"
MONOTONE_FORCE = "monotone-force"
LINEAR_SPECTRUM = "linear-spectrum"
CONSTANT_PAIR = "constant-force-pair"
HALFSPACE_STEP = "halfspace-step"
CENTRAL_FLIGHT = "central-flight-time"
EULER_GLOBAL = "euler-global-smooth"

CUTOFF_FACTOR = 10.0
FD_STEP = 1e-6
_ZERO_TOL = 1e-12
# random point pairs per sampled monotonicity quantifier of the report
PAIR_PROBES = 128
# sampling resolutions and tolerances of the criterion hypotheses (below)
FORCE_POINTS = 257
GAP_LABELS = 65
CENTRAL_RADII = 65
CENTRAL_ANCHORS = 17
CENTRAL_TARGETS = 33
TOL_EIG = 1e-10
COND_MAX = 1e12


#############################################################
# Domains
#############################################################


@dataclass
class Box:
    """Axis-aligned box, per-coordinate bounds with open/closed endpoints."""

    lower: tuple
    upper: tuple
    lower_open: tuple = ()
    upper_open: tuple = ()

    def __post_init__(self):
        self.lower = tuple(float(a) for a in np.atleast_1d(self.lower))
        self.upper = tuple(float(b) for b in np.atleast_1d(self.upper))
        if len(self.lower) != len(self.upper):
            raise DimensionMismatch("box lower and upper bounds differ in length")
        if not self.lower_open:
            self.lower_open = (False,) * len(self.lower)
        if not self.upper_open:
            self.upper_open = (False,) * len(self.upper)
        self.lower_open = tuple(bool(f) for f in np.atleast_1d(self.lower_open))
        self.upper_open = tuple(bool(f) for f in np.atleast_1d(self.upper_open))
        if len(self.lower_open) != len(self.lower) or len(self.upper_open) != len(self.lower):
            raise DimensionMismatch("box open-endpoint flags do not match the dimension")
        for a, b in zip(self.lower, self.upper):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise InvalidParameter("box bounds must be finite")
            if not a < b:
                raise InvalidParameter("box bounds must satisfy lower < upper")

    @property
    def dim(self):
        return len(self.lower)

    def axis_nodes(self, axis, n):
        """n sample nodes along one axis, honoring the endpoint flags."""
        a, b = self.lower[axis], self.upper[axis]
        lo_open, up_open = self.lower_open[axis], self.upper_open[axis]
        if n < 2:
            raise InvalidParameter("need at least 2 sample nodes per axis")
        if not lo_open and not up_open:
            return np.linspace(a, b, n)
        if lo_open and not up_open:
            return a + (b - a) * np.arange(1, n + 1) / n
        if not lo_open and up_open:
            return a + (b - a) * np.arange(0, n) / n
        return a + (b - a) * (np.arange(0, n) + 0.5) / n


@dataclass
class Annulus:
    """Open annulus r_inner < |x| < r_outer in the plane."""

    r_inner: float
    r_outer: float

    def __post_init__(self):
        self.r_inner = float(self.r_inner)
        self.r_outer = float(self.r_outer)
        if not 0.0 < self.r_inner < self.r_outer:
            raise InvalidParameter("annulus radii must satisfy 0 < r_inner < r_outer")
        if not math.isfinite(self.r_outer):
            raise InvalidParameter("annulus radii must be finite")

    @property
    def dim(self):
        return 2

    def radial_nodes(self, n):
        # strictly interior nodes; the annulus is open
        return self.r_inner + (self.r_outer - self.r_inner) * (np.arange(n) + 0.5) / n


#############################################################
# Force models
#############################################################


@dataclass
class Smooth1D:
    """Smooth scalar force y -> F(y); derivative installed if not given."""

    f: Callable[[float], float]
    df: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not callable(self.f):
            raise InvalidParameter("smooth force must be callable")

    @property
    def dim(self):
        return 1

    def __call__(self, y):
        return self.f(y)


@dataclass
class OneGap:
    """Piecewise-constant force: f1 on y < a, f2 on y >= a, with a > 1;
    ``levels[k]`` acts past k of the ``cuts``."""

    f1: float
    f2: float
    a: float

    def __post_init__(self):
        self.f1, self.f2, self.a = float(self.f1), float(self.f2), float(self.a)
        if not self.f1 > 0:
            raise InvalidParameter("f1 must be positive")
        if self.f2 < 0:
            raise InvalidParameter("f2 must be nonnegative")
        if not self.a > 1:
            raise InvalidParameter("the force step a must lie beyond the unit interval (a > 1)")
        self.cuts, self.levels = (self.a,), (self.f1, self.f2)

    @property
    def dim(self):
        return 1

    def __call__(self, y):
        return _piecewise(y, self.cuts, self.levels)


@dataclass
class TwoGap:
    """Three constant-force regions split at a < b (0 < f2 < f1, f2 < f3),
    with ``cuts`` and ``levels`` as OneGap's."""

    f1: float
    f2: float
    f3: float
    a: float
    b: float

    def __post_init__(self):
        self.f1, self.f2, self.f3 = float(self.f1), float(self.f2), float(self.f3)
        self.a, self.b = float(self.a), float(self.b)
        if not 0 < self.f2 < self.f1:
            raise InvalidParameter("need 0 < f2 < f1")
        if not self.f2 < self.f3:
            raise InvalidParameter("need f2 < f3")
        if not 1 < self.a < self.b:
            raise InvalidParameter("need 1 < a < b")
        self.cuts, self.levels = (self.a, self.b), (self.f1, self.f2, self.f3)

    @property
    def dim(self):
        return 1

    def __call__(self, y):
        return _piecewise(y, self.cuts, self.levels)


@dataclass
class ConstantVec:
    """Constant force vector in d dimensions."""

    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.atleast_1d(np.asarray(self.vector, dtype=float))
        if not np.all(np.isfinite(self.vector)):
            raise InvalidParameter("constant force vector must be finite")

    @property
    def dim(self):
        return len(self.vector)

    def __call__(self, y):
        return self.vector


@dataclass
class HalfSpaceStep:
    """f1 below the hyperplane y[axis] = a, f2 above; f1[axis] > 0, a > 0."""

    f1: np.ndarray
    f2: np.ndarray
    a: float
    axis: int = -1

    def __post_init__(self):
        self.f1 = np.atleast_1d(np.asarray(self.f1, dtype=float))
        self.f2 = np.atleast_1d(np.asarray(self.f2, dtype=float))
        self.a = float(self.a)
        if self.f1.shape != self.f2.shape:
            raise DimensionMismatch("f1 and f2 must have the same dimension")
        if self.axis < 0:
            self.axis = len(self.f1) + self.axis
        if not 0 <= self.axis < len(self.f1):
            raise InvalidParameter("split axis out of range")
        if not self.a > 0:
            raise InvalidParameter("the split offset a must be positive")
        if not self.f1[self.axis] > 0:
            raise InvalidParameter("f1 must push toward the split plane (f1[axis] > 0)")

    @property
    def dim(self):
        return len(self.f1)

    def __call__(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return self.f1 if y[self.axis] < self.a else self.f2


@dataclass
class Linear:
    """Affine force F(y) = matrix @ y + offset."""

    matrix: np.ndarray
    offset: Optional[np.ndarray] = None

    def __post_init__(self):
        self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise InvalidParameter("force matrix must be square")
        if self.offset is None:
            self.offset = np.zeros(self.matrix.shape[0])
        self.offset = np.atleast_1d(np.asarray(self.offset, dtype=float))
        if len(self.offset) != self.matrix.shape[0]:
            raise DimensionMismatch("force offset does not match the matrix dimension")
        if not (np.all(np.isfinite(self.matrix)) and np.all(np.isfinite(self.offset))):
            raise InvalidParameter("linear force coefficients must be finite")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def __call__(self, y):
        return self.matrix @ np.asarray(y, dtype=float) + self.offset


@dataclass
class Central:
    """Central field from a radial potential: F(y) = -u'(|y|) y/|y|."""

    u: Callable[[float], float]
    du: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not callable(self.u):
            raise InvalidParameter("central potential must be callable")

    @property
    def dim(self):
        return 2

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        r = float(np.hypot(y[0], y[1]))
        if r == 0.0:
            raise InvalidParameter("central force undefined at the origin")
        return -self.du(r) * y / r


GAP_KINDS = (OneGap, TwoGap)


def _piecewise(y, cuts, levels):
    """levels[k] where y has passed k of the ascending cuts (y >= cut), for
    a float or an array of positions."""
    out = np.asarray(levels)[np.searchsorted(cuts, y, side="right")]
    return float(out) if out.ndim == 0 else out


def line_force(force):
    """The force of a 1D scenario as one callable y -> F(y), a float for a
    float and an array with one scalar call's bits per element for an array:
    a smooth force's profile, a gap force itself, a Constant for a constant
    force, f1[0] below a half-space step and f2[0] from it on, m y + c (the
    bits of ``matrix @ [y] + offset``) for an affine force; any other
    callable is its own line view."""
    if getattr(force, "dim", 1) != 1:
        raise DimensionMismatch("a line view needs a one-dimensional force")
    if isinstance(force, Smooth1D):
        return force.f
    if isinstance(force, ConstantVec):
        return Constant(force.vector[0])
    if isinstance(force, HalfSpaceStep):
        levels = (float(force.f1[0]), float(force.f2[0]))
        return lambda y: _piecewise(y, (force.a,), levels)
    if isinstance(force, Linear):
        m, c = float(force.matrix[0, 0]), float(force.offset[0])
        return lambda y: m * y + c
    return force


#############################################################
# Initial data and the scenario container
#############################################################


class Constant:
    """A 1D profile with one value: a call returns that float for a label
    and an array of it for an array of labels."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return np.full(x.shape, self.value)
        return self.value


def constant_value(profile):
    """The one value of a profile that is a Constant or an Expression whose
    text never names its variable; None for any other profile and for a
    value that is not finite."""
    if isinstance(profile, Constant):
        value = profile.value
    elif isinstance(profile, Expression) and not profile.names_variable:
        value = profile(0.0)
    else:
        return None
    return value if math.isfinite(value) else None


def varying_mass_reason(force):
    """Why the criteria of a gap or constant force leave a varying particle
    mass undecided."""
    kind = "constant" if isinstance(force, ConstantVec) else "step"
    return (f"{kind}-force criteria need a uniform particle mass; varying "
            "mass breaks the shared-acceleration kinematics")


def _const_vec_fn(vec):
    v = np.asarray(vec, dtype=float)
    return lambda x: v


def central_difference(f, lower=None):
    """Second-order difference closure with relative step FD_STEP.

    If ``lower`` is given the stencil never probes below it (one-sided
    second-order formula is used near that boundary instead).  Where the
    central stencil raises EvaluationError, as at the end of a profile
    such as x^1.5 at 0, the one-sided stencil looks forward, and where
    that raises too, backward.
    """

    def one_sided(t, h):
        return (-3.0 * f(t) + 4.0 * f(t + h) - f(t + 2.0 * h)) / (2.0 * h)

    def deriv(t):
        h = FD_STEP * max(1.0, abs(t))
        if lower is not None and t - h < lower:
            return one_sided(t, h)
        try:
            return (f(t + h) - f(t - h)) / (2.0 * h)
        except EvaluationError:
            pass
        try:
            return one_sided(t, h)
        except EvaluationError:
            return one_sided(t, -h)

    return deriv


def second_difference(f, lower=None):
    """Three-point second derivative closure.

    Uses its own, larger relative step 1e-4: nesting two first-difference
    closures would amplify roundoff by 1/h^2, while a direct stencil at
    h ~ eps^(1/4) keeps the error near 1e-8.
    """

    def deriv2(t):
        h = 1e-4 * max(1.0, abs(t))
        if lower is not None and t - h < lower:
            return (2.0 * f(t) - 5.0 * f(t + h) + 4.0 * f(t + 2.0 * h)
                    - f(t + 3.0 * h)) / (h * h)
        return (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h)

    return deriv2


@dataclass
class InitialData:
    """Initial velocity / mass / density profiles on the initial region.

    1D profiles map a float to a float; d-dimensional velocities map a
    d-vector to a d-vector.  ``radial_speed`` (outward speed g) and
    ``angular_rate`` (angular velocity h) describe central-field data
    v(x) = g(|x|) x/|x| + h(|x|) x_perp.
    """

    velocity: Optional[Callable] = None
    velocity_deriv: Optional[Callable] = None
    mass: Optional[Callable] = None
    mass_deriv: Optional[Callable] = None
    density: Optional[Callable] = None
    radial_speed: Optional[Callable] = None
    angular_rate: Optional[Callable] = None


@dataclass
class Scenario:
    domain: object
    force: object
    init: InitialData
    horizon: float = math.inf
    samples: tuple = ()
    source: Optional[dict] = None

    @property
    def dim(self):
        return self.domain.dim

    # -- sampling helpers ---------------------------------------------------

    def grid_1d(self):
        if self.dim != 1:
            raise DimensionMismatch("grid_1d is only defined for one-dimensional scenarios")
        return self.domain.axis_nodes(0, self.samples[0])

    def grid_points(self):
        """Sample points of the initial region as an (N, dim) array."""
        if isinstance(self.domain, Annulus):
            radii = self.domain.radial_nodes(self.samples[0])
            angles = 2.0 * np.pi * np.arange(self.samples[1]) / self.samples[1]
            rr, aa = np.meshgrid(radii, angles, indexing="ij")
            return np.column_stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()])
        axes = [self.domain.axis_nodes(k, self.samples[k]) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def y_cutoff(self):
        """Upper truncation for 'for all y ahead' quantifiers: the upper end
        of the domain (the outer radius) plus CUTOFF_FACTOR spans."""
        if isinstance(self.domain, Annulus):
            lo, hi = self.domain.r_inner, self.domain.r_outer
        else:
            lo, hi = self.domain.lower[0], self.domain.upper[0]
        return hi + CUTOFF_FACTOR * (hi - lo)

    def moving_label(self):
        """The first label whose speed is not within 1e-12 of zero (nan
        included) as a tuple, or None: of the 1D grid, or of every
        (N // 256)-th of the N grid points in more dimensions."""
        if self.dim == 1:
            points, speed = self.grid_1d(), lambda x: abs(self.init.velocity(float(x)))
        else:
            points = self.grid_points()
            points = points[::max(1, len(points) // 256)]
            speed = lambda p: np.max(np.abs(self.init.velocity(p)))
        label = first_failure(speed, points, lambda sp: not sp <= _ZERO_TOL)
        return None if label is None else tuple(map(float, np.atleast_1d(label)))

    def velocity_is_zero(self):
        return self.moving_label() is None


#############################################################
# Construction and validation
#############################################################


def _require_dim(domain, force):
    if isinstance(force, Central):
        if not isinstance(domain, Annulus):
            raise InvalidParameter("central forces require an annulus domain")
        return
    if isinstance(domain, Annulus):
        raise InvalidParameter("annulus domains are only supported with central forces")
    if domain.dim != force.dim:
        raise DimensionMismatch(
            f"domain dimension {domain.dim} does not match force dimension {force.dim}"
        )


def _default_samples(domain):
    if isinstance(domain, Annulus):
        return (64, 64)
    if domain.dim == 1:
        return (512,)
    if domain.dim == 2:
        return (64, 64)
    return (16,) * domain.dim


def build_scenario(
    domain,
    force,
    init=None,
    horizon=math.inf,
    samples=None,
    source=None,
):
    """Validate the pieces, install missing derivative callbacks by central
    differences, and assemble a Scenario."""
    _require_dim(domain, force)
    if not horizon > 0:
        raise InvalidParameter("horizon must be positive")
    if init is None:
        init = InitialData()
    dim = domain.dim
    if init.mass is not None and dim > 1:
        raise DimensionMismatch("mass profiles are one-dimensional")

    if isinstance(force, GAP_KINDS):
        if dim != 1:
            raise DimensionMismatch("gap forces are one-dimensional")
        lo, up = domain.lower[0], domain.upper[0]
        if abs(lo) > _ZERO_TOL or abs(up - 1.0) > _ZERO_TOL:
            raise InvalidParameter("gap-force criteria assume the unit initial interval [0, 1]")
    if isinstance(force, HalfSpaceStep):
        if domain.upper[force.axis] >= force.a:
            raise InvalidParameter(
                "the initial region must lie strictly below the force step plane"
            )

    if samples is None:
        samples = _default_samples(domain)
    samples = tuple(int(n) for n in np.atleast_1d(samples))
    if isinstance(domain, Annulus):
        if len(samples) == 1:
            samples = (samples[0], samples[0])
    elif len(samples) == 1 and dim > 1:
        samples = samples * dim
    if len(samples) != (2 if isinstance(domain, Annulus) else dim):
        raise DimensionMismatch("sample counts do not match the domain dimension")
    if any(n < 2 for n in samples):
        raise InvalidParameter("need at least 2 samples per coordinate")

    # defaults for missing profiles
    if init.velocity is None:
        init.velocity = Constant(0.0) if dim == 1 else _const_vec_fn(np.zeros(dim))
    if init.mass is None:
        init.mass = Constant(1.0)
    if init.density is None:
        init.density = Constant(1.0)
    if isinstance(force, Central):
        if init.radial_speed is None:
            init.radial_speed = Constant(0.0)
        if init.angular_rate is None:
            init.angular_rate = Constant(0.0)

    scenario = Scenario(
        domain=domain,
        force=force,
        init=init,
        horizon=float(horizon),
        samples=samples,
        source=source,
    )

    # install derivative closures where the caller gave none
    if isinstance(force, Smooth1D) and force.df is None:
        force.df = central_difference(force.f)
    if isinstance(force, Central) and force.du is None:
        force.du = central_difference(force.u, lower=0.0)
    if dim == 1 and init.velocity_deriv is None:
        init.velocity_deriv = central_difference(init.velocity)
    if init.mass_deriv is None:
        init.mass_deriv = central_difference(init.mass)

    _check_finite_fields(scenario)
    return scenario


def _check_finite_fields(s):
    if isinstance(s.domain, Annulus):
        radii = s.domain.radial_nodes(min(s.samples[0], 64))
        for r in radii:
            vals = (s.init.radial_speed(float(r)), s.init.angular_rate(float(r)),
                    s.force.u(float(r)))
            if not all(math.isfinite(float(v)) for v in vals):
                raise InvalidParameter(f"radial profiles must be finite (r = {r})")
            if s.init.density(float(r)) < 0 or not math.isfinite(s.init.density(float(r))):
                raise InvalidParameter("density must be finite and nonnegative")
        return
    if s.dim == 1:
        xs = s.domain.axis_nodes(0, min(s.samples[0], 128))
        for x in xs:
            x = float(x)
            v, m, rho = s.init.velocity(x), s.init.mass(x), s.init.density(x)
            if not all(math.isfinite(float(q)) for q in (v, m, rho)):
                raise InvalidParameter(f"initial fields must be finite (x = {x})")
            if m <= 0:
                raise InvalidParameter(f"mass must be positive (x = {x})")
            if rho < 0:
                raise InvalidParameter(f"density must be nonnegative (x = {x})")
    else:
        pts = s.grid_points()
        probe = pts[:: max(1, len(pts) // 64)]
        for p in probe:
            v = np.asarray(s.init.velocity(p), dtype=float)
            if v.shape != (s.dim,):
                raise DimensionMismatch("velocity must return a vector of the domain dimension")
            if not np.all(np.isfinite(v)):
                raise InvalidParameter("velocity must be finite on the initial region")


#############################################################
# Blow-up construction from a decreasing curve
#############################################################


def _invert_monotone_curve(z, targets):
    """Solve z(t) = target for each target, z strictly decreasing, z(0) >= max target.

    Vectorized bisection; |z(t) - target| <= 1e-12 at the returned t.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    z0 = float(z(0.0))
    if np.any(targets > z0 + 1e-9):
        raise InvalidParameter("curve inversion target above z(0)")
    hi = 1.0
    for _ in range(200):
        if float(z(hi)) <= float(np.min(targets)):
            break
        hi *= 2.0
        if hi > 1e30:
            raise NotMonotone("curve never descends to the requested value")
    lo_arr = np.zeros_like(targets)
    hi_arr = np.full_like(targets, hi)
    for _ in range(200):
        mid = 0.5 * (lo_arr + hi_arr)
        vals = np.asarray(z(mid), dtype=float)
        above = vals > targets
        lo_arr = np.where(above, mid, lo_arr)
        hi_arr = np.where(above, hi_arr, mid)
        if np.max(np.abs(vals - targets)) <= 1e-12 and np.max(hi_arr - lo_arr) <= 1e-12 * hi:
            break
    mid = 0.5 * (lo_arr + hi_arr)
    res = np.abs(np.asarray(z(mid), dtype=float) - targets)
    if np.max(res) > 1e-10:
        raise NotMonotone("bisection on the curve failed; is z strictly decreasing?")
    return mid if mid.shape else float(mid)


def build_blowup_scenario(z, dz=None, d2z=None, samples=512, horizon=math.inf):
    """Scenario whose flow contracts along a given decreasing curve.

    Given z: [0, inf) -> (0, 1] strictly decreasing with z(0) = 1, the initial
    region is (0, 1], the initial velocity is v(x) = z'(t(x)) and the force is
    F(y) = z''(t(y)), where t(.) inverts z.  Every particle then follows
    y(t, x) = z(t + t(x)) up to reparametrization, so the particle starting at
    x = 1 traces exactly z and the density grows without bound while the flow
    stays collision-free.
    """
    if not callable(z):
        raise InvalidParameter("z must be callable")
    z0 = float(z(0.0))
    if abs(z0 - 1.0) > 1e-9:
        raise InvalidParameter("the curve must start at z(0) = 1")

    probe = np.linspace(0.0, 8.0, 257)
    vals = np.asarray(z(probe), dtype=float)
    if np.any(np.diff(vals) >= 0):
        k = int(np.argmax(np.diff(vals) >= 0))
        raise NotMonotone(
            f"z must be strictly decreasing; z({probe[k]:.6g}) = {vals[k]:.6g} "
            f"<= z({probe[k + 1]:.6g}) = {vals[k + 1]:.6g}"
        )
    if np.any(vals <= 0):
        raise InvalidParameter("z must stay positive")

    if d2z is None:
        # differentiate z directly when possible; nesting two difference
        # closures would lose four digits to roundoff
        d2z = (central_difference(dz, lower=0.0) if dz is not None
               else second_difference(z, lower=0.0))
    if dz is None:
        dz = central_difference(z, lower=0.0)

    def velocity(x):
        t = _invert_monotone_curve(z, x)
        out = np.asarray(dz(t), dtype=float)
        if np.isscalar(x) or isinstance(x, float):
            return float(out.reshape(-1)[0])
        return out

    def force_fn(y):
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        clipped = np.clip(arr, 1e-14, 1.0)
        t = _invert_monotone_curve(z, clipped)
        out = np.asarray(d2z(np.atleast_1d(t)), dtype=float)
        return float(out[0]) if np.isscalar(y) or isinstance(y, float) else out

    domain = Box(lower=(0.0,), upper=(1.0,), lower_open=(True,), upper_open=(False,))
    return build_scenario(
        domain=domain,
        force=Smooth1D(f=force_fn),
        init=InitialData(velocity=velocity),
        horizon=horizon,
        samples=(int(samples),),
    )


#############################################################
# Criterion hypotheses
#############################################################

# Each sampled hypothesis of a criterion is one function here, at the
# criterion's points and tolerance.  It returns None, or the (message,
# witness) of the first point where it fails; a nan value fails.  The
# checkers raise it, check_auto routes on it, assumptions_report prints it.


def first_failure(fn, points, bad):
    """The first of ``points`` where ``bad(fn(point))`` holds, or None."""
    return next((p for p in points if bad(fn(p))), None)


def _scan(points, profile, bad, message):
    x = first_failure(lambda x: float(profile(float(x))), points, bad)
    return None if x is None else (message, (float(x),))


def positive_velocity(s):
    """v > 0 on the 1D grid."""
    return _scan(s.grid_1d(), s.init.velocity, lambda v: not v > 0.0,
                 "initial velocity must be strictly positive")


def nonnegative_velocity_positive_mass(s):
    """v >= 0, then m > 0, label by label on the 1D grid."""
    def broken(x):
        if not float(s.init.velocity(x)) >= 0.0:
            return "initial velocity must be nonnegative"
        if not float(s.init.mass(x)) > 0.0:
            return "mass must be positive"
        return None

    x = first_failure(lambda x: broken(float(x)), s.grid_1d(), bool)
    return None if x is None else (broken(float(x)), (float(x),))


def unit_mass(s):
    """|m - 1| <= 1e-12 on the 1D grid."""
    return _scan(s.grid_1d(), s.init.mass, lambda m: not abs(m - 1.0) <= _ZERO_TOL,
                 "this criterion assumes unit particle mass")


def positive_force_ahead(s):
    """F > 0 at FORCE_POINTS points from the domain to the cutoff."""
    return _scan(np.linspace(s.domain.lower[0], s.y_cutoff(), FORCE_POINTS), s.force,
                 lambda f: not f > 0.0, "force must be positive on the reachable range")


def gap_nonnegative_velocity(velocity):
    """v >= 0 at GAP_LABELS labels of [0, 1]."""
    return _scan(np.linspace(0.0, 1.0, GAP_LABELS), velocity, lambda v: not v >= 0.0,
                 "initial velocity must be nonnegative")


def positive_radial_speed(s):
    """g > 0 at CENTRAL_RADII radii of [r_inner, r_outer]."""
    return _scan(np.linspace(s.domain.r_inner, s.domain.r_outer, CENTRAL_RADII),
                 s.init.radial_speed, lambda g: not g > 0.0,
                 "outward radial speed must be positive")


def net_outward_force(s):
    """-U'(r2) + M^2 / r2^3 >= -1e-12, M = r1^2 h(r1), at CENTRAL_ANCHORS
    anchors r1 of [r_inner, r_outer] x CENTRAL_TARGETS targets r2 from r1 to
    the cutoff; the witness is (r1, r2)."""
    h, du = s.init.angular_rate, s.force.du
    pairs = ((float(r1), float(r2))
             for r1 in np.linspace(s.domain.r_inner, s.domain.r_outer, CENTRAL_ANCHORS)
             for r2 in np.linspace(float(r1), s.y_cutoff(), CENTRAL_TARGETS))
    hit = first_failure(lambda p: -float(du(p[1])) + (p[0] ** 2 * float(h(p[0]))) ** 2 / p[1] ** 3,
                        pairs, lambda net: not net >= -_ZERO_TOL)
    return hit and ("net outward radial force fails ahead of some anchor radius", hit)


def spectrum_failure(matrix):
    """Real eigenvalues with a well-conditioned eigenbasis, none negative;
    the witness is the complex eigenvalue of largest imaginary part, the
    condition number or the least eigenvalue."""
    eigvals, eigvecs = np.linalg.eig(matrix)
    tol = TOL_EIG * max(1.0, float(np.max(np.abs(eigvals))))
    k = int(np.argmax(np.abs(eigvals.imag)))
    if abs(float(eigvals.imag[k])) > tol:
        return "complex spectrum", (float(eigvals[k].real), float(eigvals[k].imag))
    cond = float(np.linalg.cond(eigvecs))
    if not cond <= COND_MAX:
        return "no well-conditioned eigenbasis", (cond,)
    if float(np.min(eigvals.real)) < -tol:
        return "negative eigenvalue", (float(np.min(eigvals.real)),)
    return None


#############################################################
# Assumptions report
#############################################################


@dataclass
class AssumptionCheck:
    criterion: str
    satisfied: str  # "yes" | "no" | "unknown"
    witness: Optional[tuple] = None
    detail: str = ""


def _witness(failure):
    return None if failure is None else failure[1]


def _row(criterion, witness, holds, detail, broken=None):
    """"no" at a witness (with the detail ``broken`` if given), else holds."""
    if witness is None:
        return AssumptionCheck(criterion, holds, None, detail)
    return AssumptionCheck(criterion, "no", witness, broken or detail)


def assumptions_report(s):
    """Sampled hypothesis judgments for every criterion matching the force kind.

    The rows call the hypothesis functions that the criteria raise from, so
    both sample the same points with the same tolerance.  Judgments over
    the bounded initial region are "yes"/"no"; hypotheses over an unbounded
    range are sampled up to the scenario cutoff and reported "unknown" when
    no violation was found.  Two samples are the report's own: the
    monotonicity pairs and the kinetic term ahead of a smooth-force label.
    """
    from . import quadrature  # late import; quadrature depends on this module

    checks = []
    force = s.force

    if isinstance(force, Smooth1D):
        witness = _witness(positive_velocity(s))
        if witness is None:
            # the kinetic term H0(x) - U(y) ahead of each label
            xs = s.grid_1d()
            ys = np.linspace(s.domain.lower[0], s.y_cutoff(), FORCE_POINTS)
            profile = quadrature.energy_profile(s)
            h0x = np.array([profile.h0(float(x)) for x in xs])
            uz = np.array(quadrature.potentials(force, ys))
            bad = (ys[None, :] >= xs[:, None]) & (h0x[:, None] - uz[None, :] <= 0)
            if np.any(bad):
                i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
                witness = (float(xs[i]), float(ys[j]))
        general = _witness(nonnegative_velocity_positive_mass(s) or positive_force_ahead(s))
        checks += [
            _row(SMOOTH_POSITIVE_V, witness, "unknown",
                 "v > 0 on the initial interval and kinetic term positive ahead (up to cutoff)"),
            _row(SMOOTH_GENERAL, general, "unknown",
                 "v >= 0 and m > 0 on the initial interval, F > 0 ahead (up to cutoff)"),
            _row(EULER_GLOBAL, general, "unknown",
                 "same hypotheses as the general smooth criterion, on the truncated line"),
            _monotone_check(s),
        ]

    elif isinstance(force, OneGap):
        witness = _witness(gap_nonnegative_velocity(s.init.velocity))
        label = "v >= 0 on the initial interval"
        checks += [_row(ONE_GAP_ZERO_V, s.moving_label(), "yes", "v = 0 on the initial interval"),
                   _row(ONE_GAP_GENERAL, witness, "yes", label)]
        if force.f2 == 0.0:
            checks.append(_row(ONE_GAP_SLOPE, witness, "yes", "vanishing far force; " + label))

    elif isinstance(force, TwoGap):
        checks.append(_row(TWO_GAP_BOUND, s.moving_label(), "yes",
                           "v = 0 on the initial interval"))

    elif isinstance(force, ConstantVec):
        checks.append(AssumptionCheck(
            CONSTANT_PAIR, "yes", None, "constant forces need no hypotheses"))

    elif isinstance(force, HalfSpaceStep):
        if force.f2[force.axis] < 0:
            checks.append(AssumptionCheck(
                HALFSPACE_STEP, "no", (float(force.f2[force.axis]),),
                "receiving normal force is negative (oscillation regime)"))
        else:
            checks.append(_row(
                HALFSPACE_STEP, s.moving_label(), "yes",
                "initial region below the step plane, v = 0, receiving force nonnegative",
                "initial velocity is not identically zero"))

    elif isinstance(force, Linear):
        failure = spectrum_failure(force.matrix)
        checks += [_row(LINEAR_SPECTRUM, _witness(failure), "yes",
                        "spectrum real and nonnegative", failure and failure[0]),
                   _monotone_check(s)]

    elif isinstance(force, Central):
        slow = positive_radial_speed(s)
        checks.append(_row(
            CENTRAL_FLIGHT, _witness(slow or net_outward_force(s)), "unknown",
            "g > 0 on the annulus and net outward force ahead (up to cutoff)",
            "outward speed g is not positive" if slow else
            "force plus centrifugal term points inward somewhere ahead"))

    if (isinstance(force, GAP_KINDS + (ConstantVec,))
            and constant_value(s.init.mass) is None):
        # as check_auto decides: no criterion of these forces covers a
        # varying mass
        checks = [AssumptionCheck(c.criterion, "no", None,
                                  varying_mass_reason(force))
                  for c in checks]
    return checks


def _monotone_check(s):
    """Sampled monotonicity of the force (box+cutoff) and the velocity (domain)."""
    rng = np.random.default_rng(20240 + int(np.sum(s.samples)))
    d = s.dim
    lo = np.asarray(s.domain.lower, dtype=float)
    hi = np.asarray(s.domain.upper, dtype=float)
    pad = CUTOFF_FACTOR * (hi - lo)
    detail = "force and velocity nondecreasing along segments (sampled pairs)"
    force = line_force(s.force) if d == 1 else s.force
    for fn, a, b in ((force, lo - pad, hi + pad), (s.init.velocity, lo, hi)):
        for _ in range(PAIR_PROBES):
            p = a + (b - a) * rng.random(d)
            q = a + (b - a) * rng.random(d)
            if d == 1:
                df = (fn(float(q[0])) - fn(float(p[0]))) * (q[0] - p[0])
            else:
                df = float(np.dot(np.asarray(fn(q)) - np.asarray(fn(p)), q - p))
            if df < -1e-12:
                witness = tuple(float(c) for c in np.concatenate([p, q]))
                return AssumptionCheck(MONOTONE_FORCE, "no", witness, detail)
    return AssumptionCheck(MONOTONE_FORCE, "unknown", None, detail)


#############################################################
# Scenario files (JSON with expression strings)
#############################################################

_TOP_KEYS = {"domain", "force", "velocity", "mass", "density", "horizon", "grid"}


def _parse_scalar_field(value, what):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Constant(value)
    if isinstance(value, str):
        return parse_expression(value)
    raise ScenarioFormatError(f"{what} must be a number or an expression string")


def _domain_from_dict(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise ScenarioFormatError("domain must be an object with a 'kind' key")
    kind = d["kind"]
    if kind == "box":
        try:
            return Box(
                lower=d["lower"],
                upper=d["upper"],
                lower_open=tuple(d.get("lower_open", ())),
                upper_open=tuple(d.get("upper_open", ())),
            )
        except KeyError as e:
            raise ScenarioFormatError(f"box domain missing key {e.args[0]!r}")
    if kind == "annulus":
        try:
            return Annulus(r_inner=d["r_inner"], r_outer=d["r_outer"])
        except KeyError as e:
            raise ScenarioFormatError(f"annulus domain missing key {e.args[0]!r}")
    raise ScenarioFormatError(f"unknown domain kind {kind!r}")


def _force_from_dict(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise ScenarioFormatError("force must be an object with a 'kind' key")
    kind = d["kind"]
    try:
        if kind == "smooth1d":
            return Smooth1D(f=_parse_scalar_field(d["f"], "force.f"))
        if kind == "one_gap":
            return OneGap(f1=d["f1"], f2=d["f2"], a=d["a"])
        if kind == "two_gap":
            return TwoGap(f1=d["f1"], f2=d["f2"], f3=d["f3"], a=d["a"], b=d["b"])
        if kind == "constant":
            return ConstantVec(vector=d["vector"])
        if kind == "halfspace_step":
            return HalfSpaceStep(f1=d["f1"], f2=d["f2"], a=d["a"], axis=d.get("axis", -1))
        if kind == "linear":
            return Linear(matrix=d["matrix"], offset=d.get("offset"))
        if kind == "central":
            return Central(u=_parse_scalar_field(d["u"], "force.u"))
    except KeyError as e:
        raise ScenarioFormatError(f"force kind {kind!r} missing key {e.args[0]!r}")
    raise ScenarioFormatError(f"unknown force kind {kind!r}")


def _velocity_from_value(value, dim, central):
    if value is None:
        return {}
    if central:
        if not isinstance(value, dict) or not set(value) <= {"g", "h"}:
            raise ScenarioFormatError(
                "central velocity must be an object with radial keys 'g' and 'h'")
        out = {}
        if "g" in value:
            out["radial_speed"] = _parse_scalar_field(value["g"], "velocity.g")
        if "h" in value:
            out["angular_rate"] = _parse_scalar_field(value["h"], "velocity.h")
        return out
    if isinstance(value, str) or (isinstance(value, (int, float)) and not isinstance(value, bool)):
        if dim != 1 and not isinstance(value, str):
            return {"velocity": _const_vec_fn([float(value)] * dim)}
        if dim != 1:
            raise ScenarioFormatError(
                "expression velocities are one-dimensional; use a list or an affine object")
        return {"velocity": _parse_scalar_field(value, "velocity")}
    if isinstance(value, list):
        vec = np.asarray(value, dtype=float)
        if vec.shape != (dim,):
            raise ScenarioFormatError(f"velocity vector must have {dim} components")
        return {"velocity": _const_vec_fn(vec)} if dim > 1 else {"velocity": Constant(vec[0])}
    if isinstance(value, dict):
        if not set(value) <= {"matrix", "offset"}:
            raise ScenarioFormatError("affine velocity takes keys 'matrix' and 'offset' only")
        mat = np.asarray(value.get("matrix", np.zeros((dim, dim))), dtype=float)
        off = np.asarray(value.get("offset", np.zeros(dim)), dtype=float)
        if mat.shape != (dim, dim) or off.shape != (dim,):
            raise ScenarioFormatError("affine velocity shapes do not match the dimension")
        if dim == 1:
            return {"velocity": lambda x: float(mat[0, 0] * x + off[0])}
        return {"velocity": lambda x: mat @ np.asarray(x, dtype=float) + off}
    raise ScenarioFormatError("velocity must be a number, expression, list or object")


def scenario_from_dict(data):
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario description must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ScenarioFormatError(f"unknown scenario key {sorted(unknown)[0]!r}")
    if "domain" not in data or "force" not in data:
        raise ScenarioFormatError("scenario needs 'domain' and 'force' sections")

    domain = _read("domain", _domain_from_dict, data["domain"])
    force = _read("force", _force_from_dict, data["force"])
    central = isinstance(force, Central)

    init_kwargs = _read("velocity", _velocity_from_value, data.get("velocity"),
                        domain.dim, central)
    if "mass" in data:
        if domain.dim != 1:
            raise ScenarioFormatError("mass profiles are one-dimensional")
        init_kwargs["mass"] = _parse_scalar_field(data["mass"], "mass")
    if "density" in data:
        if domain.dim != 1 and not central:
            raise ScenarioFormatError("density profiles are one-dimensional or radial")
        init_kwargs["density"] = _parse_scalar_field(data["density"], "density")

    horizon = data.get("horizon", "inf")
    if isinstance(horizon, str):
        if horizon not in ("inf", "infinity"):
            raise ScenarioFormatError("horizon must be a positive number or 'inf'")
        horizon = math.inf
    if not isinstance(horizon, (int, float)) or isinstance(horizon, bool):
        raise ScenarioFormatError("horizon must be a positive number or 'inf'")

    samples = data.get("grid")
    if isinstance(samples, (int, float)) and not isinstance(samples, bool):
        samples = [samples]
    if not isinstance(samples, (list, type(None))):
        raise ScenarioFormatError("grid must be an integer or a list of integers")
    if samples and _read("grid", lambda: [int(n) for n in samples]) != samples:
        raise ScenarioFormatError("grid counts must be whole numbers")

    return build_scenario(
        domain=domain,
        force=force,
        init=InitialData(**init_kwargs),
        horizon=horizon,
        samples=samples,
        source=json.loads(json.dumps(data)),
    )


def _read(section, parse, *args):
    """parse(*args), with a malformed value's error as a ScenarioFormatError."""
    try:
        return parse(*args)
    except (TypeError, ValueError, OverflowError, IndexError) as e:
        raise ScenarioFormatError(f"malformed {section} value: {e}") from e


def scenario_to_dict(s):
    if s.source is None:
        raise InvalidParameter(
            "scenario was not built from a serializable description")
    return json.loads(json.dumps(s.source))


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ScenarioFormatError(
            f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    except OSError as e:
        raise ScenarioFormatError(f"{path}: {e.strerror}") from e
    try:
        return scenario_from_dict(data)
    except ScenarioFormatError as e:
        raise ScenarioFormatError(f"{path}: {e}") from e


def save_scenario(s, path):
    data = scenario_to_dict(s)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
