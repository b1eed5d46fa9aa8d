"""Independent reference implementations used to freeze expected values.

Everything here is written from scratch against textbook formulas
(fixed-step RK4, central differences, polynomial root finding, dense
trajectory sampling) and never calls into regularflow, so a package bug
cannot leak into the expectations it is checked against.
"""

import math

import numpy as np


def rk4_second_order(accel, x0, v0, t_end, n_steps):
    """Fixed-step classical RK4 for y'' = accel(y); returns (y, v) at t_end."""
    h = t_end / n_steps
    y, v = float(x0), float(v0)
    for _ in range(n_steps):
        k1y, k1v = v, accel(y)
        k2y, k2v = v + 0.5 * h * k1v, accel(y + 0.5 * h * k1y)
        k3y, k3v = v + 0.5 * h * k2v, accel(y + 0.5 * h * k2y)
        k4y, k4v = v + h * k3v, accel(y + h * k3y)
        y += (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v += (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return y, v


def rk4_refined(accel, x0, v0, t_end, n0=4000, rounds=4, tol=1e-11):
    """Step-halving RK4: halve until two resolutions agree to tol."""
    prev = rk4_second_order(accel, x0, v0, t_end, n0)
    n = n0
    for _ in range(rounds):
        n *= 2
        cur = rk4_second_order(accel, x0, v0, t_end, n)
        if (abs(cur[0] - prev[0]) <= tol * (1.0 + abs(cur[0]))
                and abs(cur[1] - prev[1]) <= tol * (1.0 + abs(cur[1]))):
            return cur
        prev = cur
    return prev


def rk4_vector(accel, x0, v0, t_end, n_steps):
    """Fixed-step RK4 for vector y'' = accel(y); returns (y, v) arrays."""
    h = t_end / n_steps
    y = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    for _ in range(n_steps):
        k1y, k1v = v, accel(y)
        k2y, k2v = v + 0.5 * h * k1v, accel(y + 0.5 * h * k1y)
        k3y, k3v = v + 0.5 * h * k2v, accel(y + 0.5 * h * k2y)
        k4y, k4v = v + h * k3v, accel(y + h * k3y)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return y, v


def central_difference(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def piecewise_parabola_position(segments, t):
    """Position at time t of a particle given (t_enter, y, v, accel) arcs."""
    seg = segments[0]
    for cand in segments:
        if cand[0] <= t:
            seg = cand
    t0, y0, v0, a = seg
    s = t - t0
    return y0 + v0 * s + 0.5 * a * s * s


def one_gap_segments_by_roots(f1, f2, a_cut, x0, v0, mass=1.0):
    """Arcs of a single-step trajectory with the crossing found by
    numpy.roots (companion-matrix eigenvalues), a numerically independent
    route from closed-form quadratic solutions."""
    a1, a2 = f1 / mass, f2 / mass
    segs = [(0.0, x0, v0, a1)]
    if x0 >= a_cut:
        return [(0.0, x0, v0, a2)]
    roots = np.roots([0.5 * a1, v0, x0 - a_cut])
    real = [float(r.real) for r in roots
            if abs(r.imag) < 1e-12 and r.real > 1e-15]
    if not real:
        return segs
    t_a = min(real)
    v_a = v0 + a1 * t_a
    segs.append((t_a, a_cut, v_a, a2))
    return segs


def pair_first_crossing_by_roots(segs_i, segs_j, t_max):
    """First time two piecewise parabolas meet, via per-interval np.roots."""
    knots = sorted({0.0, t_max}
                   | {s[0] for s in segs_i if s[0] < t_max}
                   | {s[0] for s in segs_j if s[0] < t_max})
    for lo, hi in zip(knots[:-1], knots[1:]):
        mid = 0.5 * (lo + hi)

        def coeffs(segs):
            seg = segs[0]
            for cand in segs:
                if cand[0] <= mid:
                    seg = cand
            t0, y0, v0, a = seg
            # expand y0 + v0 (t - t0) + a/2 (t - t0)^2 in powers of t
            return np.array([0.5 * a,
                             v0 - a * t0,
                             y0 - v0 * t0 + 0.5 * a * t0 * t0])

        diff = coeffs(segs_j) - coeffs(segs_i)
        if np.allclose(diff, 0.0, atol=1e-300):
            return lo
        roots = np.roots(diff) if abs(diff[0]) > 1e-300 else (
            np.roots(diff[1:]) if abs(diff[1]) > 1e-300 else np.array([]))
        hits = [float(r.real) for r in np.atleast_1d(roots)
                if abs(r.imag) < 1e-9 and lo - 1e-12 <= r.real <= hi + 1e-12]
        if hits:
            return max(min(hits), lo)
    return None


def _on_column(pos, ts):
    """pos at every time of ts from one call on the column ts[:, None], as
    rows, or None when pos does not answer a column of times row by row."""
    try:
        rows = np.asarray(pos(ts[:, None]), dtype=float)
    except (TypeError, ValueError):
        return None
    first = np.asarray(pos(ts[0]), dtype=float)
    if rows.shape != (len(ts),) + first.shape or \
            not np.array_equal(rows[0], first):
        return None
    return rows.reshape(len(ts), -1)


def dense_min_distance(pos_a, pos_b, t_end, n=4001, refine=60):
    """Minimum over time of |pos_a(t) - pos_b(t)| by dense sampling plus
    ternary refinement around the best sample; returns (d_min, t_min).
    The samples come from one call per position on a column of times when
    both positions take one, and from one call per time otherwise."""
    ts = np.linspace(0.0, t_end, n)
    rows_a, rows_b = _on_column(pos_a, ts), _on_column(pos_b, ts)
    if rows_a is None or rows_b is None:
        ds = np.array([np.linalg.norm(np.asarray(pos_a(t))
                                      - np.asarray(pos_b(t))) for t in ts])
    else:
        ds = np.linalg.norm(rows_a - rows_b, axis=1)
    k = int(np.argmin(ds))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, n - 1)]
    for _ in range(refine):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        d1 = np.linalg.norm(np.asarray(pos_a(m1)) - np.asarray(pos_b(m1)))
        d2 = np.linalg.norm(np.asarray(pos_a(m2)) - np.asarray(pos_b(m2)))
        if d1 <= d2:
            hi = m2
        else:
            lo = m1
    t_min = 0.5 * (lo + hi)
    d_min = np.linalg.norm(np.asarray(pos_a(t_min)) - np.asarray(pos_b(t_min)))
    return float(d_min), float(t_min)


def first_meeting_time(pos_a, pos_b, t_end, n=20001, bisect=80):
    """First zero of the scalar gap pos_b - pos_a on [0, t_end], or None."""
    ts = np.linspace(0.0, t_end, n)
    gap = np.array([float(pos_b(t)) - float(pos_a(t)) for t in ts])
    sign0 = math.copysign(1.0, gap[0])
    hit = None
    for k in range(1, n):
        if gap[k] == 0.0:
            return float(ts[k])
        if math.copysign(1.0, gap[k]) != sign0:
            hit = k
            break
    if hit is None:
        return None
    lo, hi = ts[hit - 1], ts[hit]
    for _ in range(bisect):
        mid = 0.5 * (lo + hi)
        g = float(pos_b(mid)) - float(pos_a(mid))
        if g == 0.0:
            return mid
        if math.copysign(1.0, g) == sign0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def trapezoid_integral(fn, a, b, n=20001):
    xs = np.linspace(a, b, n)
    return float(np.trapezoid([fn(x) for x in xs], xs))
