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
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad as _scipy_quad

from .errors import (
    EvaluationError,
    InternalInconsistency,
    InvalidParameter,
    QuadratureFailure,
    SingularBoundary,
    TurningPoint,
)
from .expressions import Expression
from .scenario import ConstantVec, OneGap, TwoGap, central_difference, line_force

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-13
DERIV_REL_TOL = 1e-10
DERIV_ABS_TOL = 1e-12
_V_ZERO_TOL = 1e-12
TURNING_SCAN = 96


def _adaptive(fn, a, b, epsabs, epsrel, batched=False):
    """``quad(fn, a, b)`` with ``dqagse``'s limit of 200 panels; where it
    warns, once more with tolerances and limit loosened.

    With ``batched``, ``fn`` is a list integrand: it gets the points of the
    first panel, then those of each bisection QUADPACK makes, each list in
    the order ``quad`` evaluates it (``_Panels``), and returns their values.
    """
    if a == b:
        return 0.0, 0.0
    scalar = _Panels(fn, a, b) if batched else fn
    val, err, info, *rest = _scipy_quad(
        scalar, a, b, epsabs=epsabs, epsrel=epsrel, limit=200, full_output=1
    )
    if rest:
        scalar = _Panels(fn, a, b) if batched else fn
        val, err, info, *rest2 = _scipy_quad(
            scalar, a, b, epsabs=epsabs * 10, epsrel=epsrel * 10, limit=500,
            full_output=1
        )
        if rest2:
            # a panel a few ulps wide defeats QUADPACK's roundoff test; take
            # the midpoint rule there, with the whole value as its error
            if abs(b - a) <= 1e-12 * max(1.0, abs(a), abs(b)):
                mid = 0.5 * (a + b)
                val = (fn([mid])[0] if batched else fn(mid)) * (b - a)
                return float(val), abs(float(val))
            raise QuadratureFailure(
                f"adaptive quadrature failed on [{a:.6g}, {b:.6g}]: {rest2[0]}"
            )
    return float(val), float(err)


# a finite integration wider than _REACH * max(1, |start|) is summed over
# pieces that each span at most that much from their own start
_REACH = 2.0 ** 10


def _far(a, b):
    """Whether the integration from a to b is finite and past _REACH."""
    return math.isfinite(b) and abs(b - a) > _REACH * max(1.0, abs(a))


def _integral(f, a, b):
    """The potential increment integral_a^b f by ``_adaptive`` at
    tolerances 1e-14 and 1e-12, over pieces from a toward b, each as wide
    as ``_far`` allows from its start, so that no single quad spans
    decades."""
    total = None
    while _far(a, b):
        c = a + math.copysign(_REACH * max(1.0, abs(a)), b - a)
        piece = _adaptive(f, a, c, 1e-14, 1e-12)[0]
        total = piece if total is None else total + piece
        a = c
    last = _adaptive(f, a, b, 1e-14, 1e-12)[0]
    return last if total is None else total + last


class _Panels:
    """The integrand ``quad`` calls on [a, b], from the list integrand
    ``fn``: ``fn`` gets the 21 points of the first panel (``_panel_points``)
    when ``quad`` evaluates the first of them, and the 42 of each bisection
    likewise.

    A bisection of the panel [lo, hi] evaluates ``dqk21`` on [lo, mid], then
    on [mid, hi], with mid = (lo + hi) / 2, so its first point is the centre
    of [lo, mid], matched exactly; the two halves can be bisected in turn.
    """

    def __init__(self, fn, a, b):
        self.fn = fn
        self.starts = {0.5 * (a + b): ((a, b),)}    # first point -> panels
        self.points, self.values, self.k = (), (), 0

    def __call__(self, t):
        k = self.k
        if k == len(self.points) and t in self.starts:
            panels = self.starts.pop(t)
            for lo, hi in panels:
                mid = 0.5 * (lo + hi)
                self.starts[0.5 * (lo + mid)] = ((lo, mid), (mid, hi))
            self.points = _panel_points(*panels)
            self.values, k = self.fn(self.points), 0
        if k == len(self.points) or t != self.points[k]:
            raise InternalInconsistency(
                f"quad evaluates {t!r} off the planned dqk21 points")
        self.k = k + 1
        return self.values[k]


#############################################################
# Potential
#############################################################


def potential(force, y):
    """U(y) = -integral_0^y F(z) dz.

    Exact piecewise closed form for the gap forces (the integral of a
    piecewise-constant force is piecewise-linear) and a constant force;
    adaptive quadrature of the line view (``line_force``) with an anchored
    antiderivative cache for every other force.
    """
    y = float(y)
    if isinstance(force, (OneGap, TwoGap)):
        # f1 a + f2 (b - a) + ... from the left; a cut belongs to its region below
        edges = (0.0, *[c for c in force.cuts if c < y], y)
        u = -0.0  # exact identity of +, so each level's term keeps its bits
        for f, lo, hi in zip(force.levels, edges, edges[1:]):
            u += f * (hi - lo)
        return -u
    if isinstance(force, ConstantVec) and force.dim == 1:
        return -float(force.vector[0]) * y
    return _anchored(force)(y)


def potentials(force, zs, stop=None):
    """``[potential(force, z) for z in zs]``, cut after the first value u
    with ``stop(u)`` true when ``stop`` is given, answered from one plan
    (``_queries``)."""
    zs = list(zs)
    return _queries(force, zs).take(len(zs), stop)


def _queries(force, zs):
    """The plan of the potential queries zs of the force, to be answered in
    order (``_Plan.take``): one query at a time for a closed form, else from
    the anchor cache (``_PotentialCache.plan``)."""
    if _closed_form(force):
        return _OneByOne(lambda z: potential(force, z), zs)
    return _anchored(force).plan(zs)


def _closed_form(force):
    """Whether ``potential`` has a closed form for the force."""
    return isinstance(force, (OneGap, TwoGap)) or (
        isinstance(force, ConstantVec) and force.dim == 1)


def _anchored(force):
    """The anchor cache of the force's line view, made once per force."""
    cache = getattr(force, "_potential_cache", None)
    if cache is None:
        f = line_force(force)
        if not callable(f):
            raise InvalidParameter("potential needs a one-dimensional force")
        cache = _PotentialCache(f)
        try:
            force._potential_cache = cache
        except AttributeError:
            pass
    return cache


# QUADPACK's dqk21: Kronrod nodes (xgk[1::2] are the 10-point Gauss nodes,
# xgk[10] the centre) and weights, Gauss weights of xgk[1], xgk[3], ...
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980529191, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# dqk21 sums the centre, then the Gauss pairs, then the other Kronrod pairs;
# its resasc sums the centre, then every pair in xgk's order
_PAIRS = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]
_X_SUM = _XGK[_PAIRS, None]
_X_PAIRS = _XGK[_PAIRS].tolist()
_W_SUM = _WGK[[10] + _PAIRS, None]
_W_ASC = _WGK[[10] + list(range(10)), None]
_TO_XGK = np.argsort(_PAIRS)
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


def _first_panels(f, a, b, epsabs, epsrel):
    """``quad(f, a, b, epsabs, epsrel)`` for arrays of limits, where QUADPACK
    returns after its first panel: ``(values, ok, fv)``, ``ok`` False where
    it would go on to bisect or warn, ``fv`` the values of ``f``.

    ``f`` is called once, with ``divide="raise"``, on the 21 nodes of every
    panel.  Each step is ``dqk21``'s and ``dqagse``'s arithmetic, in their
    order, on every panel at once: each sum runs term by term as
    ``np.add.accumulate``, and the power ``x**1.5`` is taken in Python
    floats (C's ``pow``, not numpy's), so a value has the bits of
    ``scipy.integrate.quad``'s.  Like ``quad``, reversed limits integrate
    over the ordered interval and negate.
    """
    flip = b < a
    a, b = np.minimum(a, b), np.maximum(a, b)
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = _X_SUM * hlgth
    nodes = np.concatenate([centr[None], centr - absc, centr + absc])
    fv = f(nodes, divide="raise")
    fc, fv1, fv2 = fv[:1], fv[1:11], fv[11:]
    fsum = np.concatenate([fc, fv1 + fv2])
    # resk, resabs and resg side by side; resg starts at 0.0 and -0.0 pads
    # it (x + -0.0 is x)
    n = len(centr)
    terms = np.empty((11, 3 * n))
    terms[:, :n] = _W_SUM * fsum
    terms[:, n:2 * n] = _W_SUM * np.concatenate(
        [np.abs(fc), np.abs(fv1) + np.abs(fv2)])
    terms[0, 2 * n:] = 0.0
    terms[1:6, 2 * n:] = _WG[:, None] * fsum[1:6]
    terms[6:, 2 * n:] = -0.0
    resk, resabs, resg = np.add.accumulate(terms)[-1].reshape(3, n)
    reskh = resk * 0.5
    dev = np.abs(fv1 - reskh) + np.abs(fv2 - reskh)
    resasc = np.add.accumulate(
        _W_ASC * np.concatenate([np.abs(fc - reskh), dev[_TO_XGK]]))[-1]
    result = resk * hlgth
    dhlgth = np.abs(hlgth)
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    ratio = 200.0 * abserr / np.where(scaled, resasc, 1.0)
    abserr = np.where(scaled, resasc * np.array(
        [1.0 if r >= 1.0 else r ** 1.5 for r in ratio.tolist()]), abserr)
    abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                      np.maximum((_EPMACH * 50.0) * resabs, abserr), abserr)
    # dqagse's test after the first panel; resabs here is its defabs and
    # resasc its resabs
    errbnd = np.maximum(epsabs, epsrel * np.abs(result))
    roundoff = (abserr <= 100.0 * _EPMACH * resabs) & (abserr > errbnd)
    ok = ~roundoff & (((abserr <= errbnd) & (abserr != resasc))
                      | (abserr == 0.0))
    ok &= np.isfinite(result) & np.isfinite(abserr) & np.isfinite(resasc)
    return np.where(flip, -result, result), ok, fv


class _PotentialCache:
    """Antiderivative of -f anchored at 0; each query integrates one short
    panel from the nearest known anchor (the lower one on a tie), so
    repeated nearby evaluations stay cheap and accumulated error stays at
    panel level.

    An anchor is two float64s: its position in a sorted block of at most
    ``2 * _BLOCK`` (``tops`` holds each block's last position), its value
    at that index of the parallel block in ``values``; at most
    ``_MAX_ANCHORS`` are kept.  Every query is answered from a ``_Plan``
    (``plan``), a single one from a plan of one.  ``scans`` holds the
    outcome of each turning-point scan (``_scan_turning_point``).
    A query at nan is nan and adds no anchor.
    """

    _MAX_ANCHORS = 50000
    _BLOCK = 512

    def __init__(self, f):
        self.f = f
        self.blocks = [array("d", [0.0])]
        self.values = [array("d", [0.0])]
        self.tops = [0.0]
        self.size = 1
        self.scans = {}         # (x, y, H0(x)) -> None or a TurningPoint's

    def __call__(self, z):
        return self.plan([z]).answer()

    def anchors(self):
        """Every anchor as ``(position, value)``, by position."""
        return [a for block, us in zip(self.blocks, self.values)
                for a in zip(block, us)]

    def plan(self, zs):
        """The ``_Plan`` of the queries zs from the present anchors.

        With more than one integration, the first panels of those that
        are not ``_far`` come from one array call of ``f``
        (``_first_panels``); where ``f`` is not an Expression, a query is
        infinite, or that call raises, divides by zero or gives a value
        that is not finite, every panel is marked for ``_integral``, so
        that a scalar call raises where it would.  A far integration is
        always marked: ``_integral`` sums it piece by piece.
        """
        zs = [float(z) for z in zs]
        room = self._MAX_ANCHORS - self.size
        tops, blocks, values = self.tops, self.blocks, self.values
        bisect_left, inf, last = bisect.bisect_left, math.inf, len(tops) - 1
        pending = []            # sorted positions of the plan's new anchors
        owner = {}              # new anchor -> the query that adds it
        steps = []              # per query, see _Plan
        za, zb = [], []
        step, panel_from, panel_to = steps.append, za.append, zb.append
        for q, z in enumerate(zs):
            if z in owner or z != z:    # a new anchor of the plan, or nan
                step((owner.get(z, -1), math.nan, -1, False))
                continue
            # z's neighbours lo < z < hi and their values (None for a new
            # anchor of the plan); -inf and inf where there is none
            i = bisect_left(tops, z)
            if i > last:
                lo, ulo, hi = tops[last], values[last][-1], inf
            else:
                block, us = blocks[i], values[i]
                j = bisect_left(block, z)
                hi, uhi = block[j], us[j]
                if hi == z:     # an anchor (0.0 for -0.0)
                    step((-1, uhi, -1, False))
                    continue
                lo, ulo = (block[j - 1], us[j - 1]) if j else (
                    tops[i - 1], values[i - 1][-1]) if i else (-inf, None)
            j = bisect_left(pending, z)
            if j < len(pending) and pending[j] < hi:
                hi, uhi = pending[j], None
            if j and pending[j - 1] > lo:
                lo, ulo = pending[j - 1], None
            # the nearer, as |lo - z| is z - lo exactly; lo below z = inf
            zn, un = (lo, ulo) if hi == inf or z - lo <= hi - z else (hi, uhi)
            adds = len(pending) < room
            step((-1 if un is not None else owner[zn], un, len(za), adds))
            panel_from(zn)
            panel_to(z)
            if adds:
                pending.insert(j, z)
                owner[z] = q
        incs, ok = None, [False] * len(za)
        if len(za) > 1 and isinstance(self.f, Expression) and \
                not any(map(math.isinf, zb)):
            a, b = np.array(za), np.array(zb)
            near = np.abs(b - a) <= _REACH * np.maximum(1.0, np.abs(a))
            try:
                inc, good, fv = _first_panels(self.f, a[near], b[near],
                                              1e-14, 1e-12)
                if np.isfinite(fv).all():
                    incs, ok = np.zeros(len(za)), np.zeros(len(za), bool)
                    incs[near], ok[near] = inc, good
                    incs, ok = incs.tolist(), ok.tolist()
            except (ArithmeticError, EvaluationError):
                pass
        return _Plan(self, zs, steps, za, incs, ok)

    def _insert(self, z, u):
        if self.size >= self._MAX_ANCHORS:
            return
        self.size += 1
        i = min(bisect.bisect_left(self.tops, z), len(self.tops) - 1)
        block, us = self.blocks[i], self.values[i]
        j = bisect.bisect_left(block, z)
        block.insert(j, z)
        us.insert(j, u)
        self.tops[i] = block[-1]
        if len(block) > 2 * self._BLOCK:
            self.blocks[i:i + 1] = [block[:self._BLOCK], block[self._BLOCK:]]
            self.values[i:i + 1] = [us[:self._BLOCK], us[self._BLOCK:]]
            self.tops.insert(i, block[self._BLOCK - 1])


class _Plan:
    """Queries zs of a cache, planned before any is answered.

    Where a query's anchor lies does not depend on any value, so the plan
    holds, per query, the anchor it starts from (one of the cache, or an
    earlier query of the plan that adds one), and the first QUADPACK panel
    of every integration (``_PotentialCache.plan``).  ``take`` answers the
    queries in order, chaining the values: a far integration, or a panel
    QUADPACK would bisect, takes ``_integral`` as one query does, and a
    query adds its anchor when it is answered, so a plan answered up to a
    stop or an exception leaves the anchors the same queries made one at a
    time leave.

    The plan is valid while the cache's anchors are those it left: an
    answer after another query added an anchor raises
    InternalInconsistency.  A full cache keeps its anchors.
    """

    def __init__(self, cache, zs, steps, za, incs, ok):
        # steps[q] = (the query whose value is q's anchor or -1, else the
        # anchor's value, q's panel or -1 on a hit or nan, whether q adds
        # its anchor)
        self.cache, self.zs, self.steps = cache, zs, steps
        self.za, self.incs, self.ok = za, incs, ok
        self.out = []
        self.size = cache.size  # the cache's size as the plan left it

    def take(self, n, stop=None):
        """The values of the next n queries, cut after the first value u
        with ``stop(u)`` true when ``stop`` is given."""
        out = []
        for _ in range(n):
            out.append(self.answer())
            if stop is not None and stop(out[-1]):
                break
        return out

    def answer(self):
        """The value of the next query."""
        cache = self.cache
        if cache.size != self.size:
            raise InternalInconsistency(
                "a potential plan answered after another query added an anchor")
        out = self.out
        q = len(out)
        k, u, p, adds = self.steps[q]
        if k >= 0:
            u = out[k]
        z = self.zs[q]
        if p >= 0:
            u = u - (self.incs[p] if self.ok[p] else _integral(
                cache.f, self.za[p], z))
        out.append(u)
        if adds:
            cache._insert(z, u)
            self.size = cache.size
        return u


class _OneByOne(_Plan):
    """The plan of the queries zs answered one at a time by u."""

    def __init__(self, u, zs):
        self.answer = map(u, zs).__next__


#############################################################
# Energy profile
#############################################################


@dataclass
class EnergyProfile:
    """Potential and conserved full energy of the labelled particles;
    ``queries(zs)`` is the plan of the potential queries zs of the
    profile's force (``_queries``), and ``scans`` the turning-point scans of
    its anchor cache (None for a closed-form potential)."""

    u: Callable[[float], float]
    h0: Callable[[float], float]
    dh0: Callable[[float], float]
    queries: Callable[[list], "_Plan"]
    scans: Optional[dict] = None


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
        mass_deriv = central_difference(mass)
    if velocity is None:
        velocity = lambda x: 0.0
        velocity_deriv = lambda x: 0.0
    if velocity_deriv is None:
        velocity_deriv = central_difference(velocity)

    f = line_force(force)

    def u(z):
        return potential(force, z)

    def h0(x):
        v = velocity(x)
        return 0.5 * mass(x) * v * v + u(x)

    def dh0(x):
        v = velocity(x)
        return (0.5 * mass_deriv(x) * v * v + mass(x) * v * velocity_deriv(x)
                - float(f(x)))

    scans = None if _closed_form(force) or not callable(f) else \
        _anchored(force).scans
    return EnergyProfile(u=u, h0=h0, dh0=dh0,
                         queries=lambda zs: _queries(force, zs), scans=scans)


#############################################################
# Flight time
#############################################################


def _panel_points(*panels):
    """The points ``dqk21`` evaluates an integrand at on each panel (lo,
    hi), panel after panel, each in its order: the centre, then each Gauss
    pair, then the other Kronrod pairs, each pair centre - offset first."""
    points = []
    for lo, hi in panels:
        centr = 0.5 * (lo + hi)
        hlgth = 0.5 * (hi - lo)
        points.append(centr)
        for x in _X_PAIRS:
            absc = hlgth * x
            points += (centr - absc, centr + absc)
    return points


@dataclass
class FlightResult:
    time: float
    error: float = 0.0
    singular_endpoint: bool = False


def _scan_turning_point(profile, x, y, h0x, tail):
    """Raise TurningPoint if 2(H0 - U) vanishes strictly inside (x, y);
    else return the plan of the potential queries ``tail`` that the caller
    makes next, untaken.

    Sampling is done in the transformed variable so that the left endpoint
    neighborhood, where the kinetic term vanishes for released-at-rest
    particles, is probed densely: the TURNING_SCAN - 1 points z = x + s^2
    below y, s = sqrt(y - x) k / TURNING_SCAN, planned with ``tail`` and
    taken in order up to the first turning point.

    The outcome is kept in ``profile.scans`` by (x, y, H0(x)).  A repeated
    scan raises it again or plans only ``tail``: each of its queries is an
    anchor by now, or was refused by a full cache, whose anchors no longer
    change, so the same queries would give the same values and add nothing.
    """
    scans = profile.scans
    key = (x, y, h0x)
    if scans is not None and key in scans:
        if scans[key] is not None:
            message, bracket = scans[key]
            raise TurningPoint(message, bracket=bracket)
        return profile.queries(tail)
    n = TURNING_SCAN
    smax = math.sqrt(y - x)
    ss = smax * (np.arange(1, n) / n)
    zs = x + ss * ss
    zs = zs[zs < y]
    plan = profile.queries([*zs, *tail])
    us = plan.take(len(zs), stop=lambda u: h0x - u <= 0.0)
    outcome = None
    if us and h0x - us[-1] <= 0.0:
        s, z = ss[len(us) - 1], zs[len(us) - 1]
        lo = x + (s - smax / n) ** 2 if s > smax / n else x
        outcome = (f"kinetic term vanishes near z = {z:.9g}; the particle "
                   "turns around before reaching y", (lo, z))
    if scans is not None:
        scans[key] = outcome
    if outcome is not None:
        raise TurningPoint(outcome[0], bracket=outcome[1])
    return plan


class _Flight:
    """The potential queries of a flight-time integral of the particle
    labelled x from x to y > x, at energy h0x: in s = sqrt(z - x) over
    [0, sqrt(y - x)] with ``s_space``, else in z over [x, y].

    Making it runs the turning-point scan, which plans U(y) (in s-space
    only) and the first panel of the integral after its own points.  The
    caller takes U(y) (``target``) only after the scan passes, and the
    integral only after its own checks pass, so that every raise on the way
    leaves the anchors of the same queries made one at a time.  Each
    bisection of the integral is planned when ``quad`` makes it.
    """

    def __init__(self, profile, x, y, h0x, s_space):
        self.profile, self.x, self.h0x, self.s_space = profile, x, h0x, s_space
        self.span = (0.0, math.sqrt(y - x)) if s_space else (x, y)
        first = self._zs(_panel_points(self.span))
        self.plan = _scan_turning_point(
            profile, x, y, h0x, [y, *first] if s_space else first)

    def _zs(self, ts):
        return [self.x + s * s for s in ts] if self.s_space else ts

    def target(self):
        """The kinetic term 2 (H0(x) - U(y))."""
        return 2.0 * (self.h0x - self.plan.answer())

    def integral(self, term, epsabs, epsrel):
        """``_adaptive`` of term(t, z, d), d = H0(x) - U(z) at the point t
        of the integral, z = x + t^2 in s-space, t in z-space; 0 where
        d <= 0.  The terms of each panel are taken query by query."""
        def values(ts):
            plan = self.plan
            self.plan = None
            zs = self._zs(ts)
            if plan is None:
                plan = self.profile.queries(zs)
            out = []
            for t, z in zip(ts, zs):
                d = self.h0x - plan.answer()
                out.append(0.0 if d <= 0.0 else term(t, z, d))
            return out

        return _adaptive(values, *self.span, epsabs, epsrel, batched=True)


def time_of_flight(profile, x, y):
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
    flight = _Flight(profile, x, y, h0x, s_space=True)
    if flight.target() <= 0.0:
        raise TurningPoint(
            f"kinetic term vanishes at the target y = {y:.9g}", bracket=(x, y)
        )
    val, err = flight.integral(lambda s, z, d: 2.0 * s / math.sqrt(2.0 * d),
                               DEFAULT_ABS_TOL, DEFAULT_REL_TOL)
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
    if not isinstance(force, (OneGap, TwoGap)):
        raise InvalidParameter("gap_time_of_flight needs a gap force")
    cuts, fs = force.cuts, force.levels
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


def dT_dx(profile, x, y, v, dv, f):
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
    flight = _Flight(profile, x, y, h0x, s_space=False)
    c = vx * float(dv(x)) - float(f(x))
    val, _ = flight.integral(lambda z, _, d: d ** -1.5,
                             DERIV_ABS_TOL, DERIV_REL_TOL)
    return -1.0 / vx - c / (2.0 * math.sqrt(2.0)) * val


def dT_dx_by_parts(profile, x, y, v, dv, m, dm, f, df):
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
    flight = _Flight(profile, x, y, h0x, s_space=True)
    ky = flight.target()
    if ky <= 0.0:
        raise TurningPoint("kinetic term vanishes at the target", bracket=(x, y))
    fy = float(f(y))
    fx = float(f(x))
    if fy == 0.0 or fx == 0.0:
        raise InvalidParameter("the by-parts route requires a nonvanishing force")

    def term(s, z, d):
        fz = float(f(z))
        return 2.0 * s * float(df(z)) / (fz * fz * math.sqrt(2.0 * d))

    integral, _ = flight.integral(term, DERIV_ABS_TOL, DERIV_REL_TOL)
    bracket = 1.0 / (math.sqrt(ky) * fy) + integral
    mx = float(m(x))
    if mx <= 0.0:
        raise InvalidParameter("mass must be positive")
    vx = float(v(x))
    rhs = float(dv(x)) * math.sqrt(mx) / fx + vx * float(dm(x)) / (2.0 * fx * math.sqrt(mx))
    return dh0x * bracket - rhs


def dT_dx_weighted(profile, x, y, v, dv, m, dm, f, df):
    """x-derivative of the physical flight time sqrt(m(x)) T~(x, y).

    The reduced time T~ uses the mass-weighted energy but drops the overall
    sqrt(m) factor; restoring it gives

        d/dx [sqrt(m) T~] = m'/(2 sqrt(m)) T~ + sqrt(m) * (by-parts value),

    which reduces to the by-parts value itself for constant mass.  This is
    the quantity whose sign decides collisions for mass-varying ensembles.
    """
    base = dT_dx_by_parts(profile, x, y, v, dv, m, dm, f, df)
    dmx = float(dm(x))
    if dmx == 0.0:
        return base
    mx = float(m(x))
    t_reduced = time_of_flight(profile, x, y).time
    return dmx / (2.0 * math.sqrt(mx)) * t_reduced + math.sqrt(mx) * base
