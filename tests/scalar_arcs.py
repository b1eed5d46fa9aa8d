"""Scalar reference kinematics: one label, one pair, one phase at a time.

These are the per-label loops that the array kinematics of
``regularflow.simulator`` replaced, kept with their order of operations so
the array path can be compared with them bit for bit:
the arcs of a gap-force trajectory, the arc evaluation, the first crossing
of two arc lists, the phase loop of a half-space step trajectory, and the
smallest quadratic root above a floor.
"""

import math

import numpy as np


def gap_segments(force, x0, v0, m=1.0):
    """(start, y0, v0, a) arcs of one label under a gap force, or under a
    constant force given as a number."""
    if isinstance(force, float):
        return [(0.0, x0, v0, force / m)]
    a1 = force.f1 / m
    a2 = force.f2 / m
    segs = [(0.0, x0, v0, a1)]
    d = v0 * v0 + 2.0 * a1 * (force.a - x0)
    if d < 0.0:
        raise ValueError("particle never reaches the first force step")
    t_a = (-v0 + math.sqrt(d)) / a1
    v_a = math.sqrt(d)
    segs.append((t_a, force.a, v_a, a2))
    if not hasattr(force, "b"):
        return segs
    d2 = v_a * v_a + 2.0 * a2 * (force.b - force.a)
    if d2 < 0.0:
        raise ValueError("particle never reaches the second force step")
    s = (-v_a + math.sqrt(d2)) / a2
    segs.append((t_a + s, force.b, math.sqrt(d2), force.f3 / m))
    return segs


def _segment(segments, t):
    k = len(segments) - 1
    while k > 0 and t < segments[k][0]:
        k -= 1
    return segments[k]


def position(segments, t):
    t0, y0, v0, a = _segment(segments, t)
    s = t - t0
    return y0 + v0 * s + 0.5 * a * s * s


def velocity(segments, t):
    t0, y0, v0, a = _segment(segments, t)
    return v0 + a * (t - t0)


def pair_first_crossing(seg_i, seg_j, t_end):
    """First time in (0, t_end] where trajectory j meets trajectory i."""
    breaks = sorted({0.0, t_end, *(s[0] for s in seg_i[1:]),
                     *(s[0] for s in seg_j[1:])})
    breaks = [b for b in breaks if 0.0 <= b <= t_end]
    if breaks[-1] < t_end:
        breaks.append(t_end)

    def eval_state(segs, t):
        t0, y0, v0, a = _segment(segs, t)
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


def halfspace_phases(force, x0, v0, horizon=math.inf, max_phases=64):
    """(start, y0, v0, f) phases of one particle under a half-space step."""
    ax = force.axis
    phases = []
    t, y, v = 0.0, np.asarray(x0, dtype=float).copy(), \
        np.asarray(v0, dtype=float).copy()
    for _ in range(max_phases):
        below = y[ax] < force.a or (y[ax] == force.a and v[ax] < 0.0)
        f = force.f1 if below else force.f2
        phases.append((t, y.copy(), v.copy(), np.asarray(f, dtype=float)))
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
                roots = [r for r in ((-c1 - sq) / (2 * c2),
                                     (-c1 + sq) / (2 * c2)) if r > 1e-14]
        if not roots:
            break
        dt = min(roots)
        if t + dt >= horizon:
            break
        y = y + v * dt + 0.5 * np.asarray(f) * dt * dt
        y[ax] = force.a
        v = v + np.asarray(f) * dt
        t = t + dt
    return phases


def pair_collision(force, m, seg_i, seg_j, t_star):
    """(time or None, final velocity difference) of the label pair i < j on
    [0, inf), under a gap force or a constant force given as a number; the
    states at t_star are taken on the last arcs."""
    v0_i, v0_j = seg_i[0][2], seg_j[0][2]
    dv = v0_j - v0_i
    if not isinstance(force, float):
        dv = dv + (force.f1 - force.f2) / m * (seg_j[1][0] - seg_i[1][0])
    if hasattr(force, "b"):
        dv = dv + (force.f2 - force.f3) / m * (seg_j[2][0] - seg_i[2][0])
    t = pair_first_crossing(seg_i, seg_j, t_star if t_star > 0 else 1.0)
    if t is not None:
        return t, dv

    def last_arc_position(seg):
        t_e, y_e, v_e, a_f = seg[-1]
        s = t_star - t_e
        return y_e + v_e * s + 0.5 * a_f * s * s

    gap = last_arc_position(seg_j) - last_arc_position(seg_i)
    if gap <= 0.0:
        return t_star, dv
    if dv < 0.0:
        return t_star + gap / (-dv), dv
    return None, dv


def first_root(c2, c1, c0, floor):
    """Smallest root above floor of c2 s^2 + c1 s + c0, or None."""
    if abs(c2) < 1e-300:
        roots = (-c0 / c1,) if c1 != 0.0 else ()
    else:
        disc = c1 * c1 - 4.0 * c2 * c0
        if not disc >= 0.0:
            return None
        sq = math.sqrt(disc)
        roots = ((-c1 - sq) / (2.0 * c2), (-c1 + sq) / (2.0 * c2))
    above = [r for r in roots if r > floor]
    return min(above) if above else None
