"""Scenario inputs of the benchmark: the bundled table and seeded variants.

The program under test only ever sees the JSON files written here.  Every
number in a variant comes from ``random.Random(seed)``, so one seed always
gives byte-identical files.  The ranges are narrow on purpose: they keep the
cost of a pass similar from seed to seed (a smooth-force variant with a
falling velocity costs about twice one with a rising velocity, so smooth
variants always rise).

Each scenario carries what the correctness gate needs: the verdict the
README table lists (or, for a variant, the one its closed form gives), and
where one exists in closed form, the first collision time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import shutil

# Verdicts as the README "Bundled scenarios" table lists them.  ``blowup``
# is listed as "no collision before the horizon": no criterion decides it,
# so its expected analytic outcome is Inconclusive.
BUNDLED_VERDICTS = {
    "arctan_collide": "Collision",
    "blowup": "Inconclusive",
    "central_regular": "Regular",
    "halfspace_collide": "Collision",
    "halfspace_regular": "Regular",
    "linear_monotone": "Regular",
    "one_gap_collide": "Collision",
    "one_gap_regular": "Regular",
    "smooth_collide": "Collision",
    "smooth_regular": "Regular",
    "two_gap_collide": "Collision",
    "two_gap_regular": "Regular",
    "variable_mass_collide": "Collision",
}

# Horizons for ``field`` on the 1D bundled scenarios, each inside the
# regular interval: 0.9 of the first collision time where the flow
# collides, the scenario's own horizon where it is finite, 5 otherwise.
BUNDLED_FIELD_HORIZONS = {
    "arctan_collide": 0.9,
    "blowup": None,
    "one_gap_collide": 2.7,
    "one_gap_regular": 5.0,
    "smooth_collide": 1.45,
    "smooth_regular": None,
    "two_gap_collide": 13.0,
    "two_gap_regular": 5.0,
    "variable_mass_collide": 1.27,
}

UNIT_BOX = {"kind": "box", "lower": [0.0], "upper": [1.0]}


@dataclasses.dataclass(frozen=True)
class Case:
    """One scenario file and what the gate expects of it."""

    name: str
    data: dict = None           # None for a bundled file, copied verbatim
    verdict: str = None         # expected analytic verdict; None if unknown
    t_collision: float = None   # closed-form first collision time
    field_horizon: float = None  # horizon passed to ``field``, if any


def one_gap_collision_time(f1, f2, a):
    """First collision of a rest release under a step down (``f2 < f1``).

    A particle released at ``x`` reaches ``a`` with speed
    ``w = sqrt(2 f1 (a - x))`` and then ``dy/dx`` falls to zero after a
    further ``w / (f1 - f2)``; the label ``x = 1`` (smallest ``w``) is first.
    """
    w = math.sqrt(2.0 * f1 * (a - 1.0))
    return w / f1 + w / (f1 - f2)


def variable_mass_collision_time(c, alpha):
    """First collision for force ``c``, mass ``1 + alpha x``, rest release.

    ``y = x + c t^2 / (2 m(x))`` has ``dy/dx = 0`` when
    ``t^2 = 2 m^2 / (c alpha)``, earliest at ``x = 0``.
    """
    return math.sqrt(2.0 / (c * alpha))


def bundled_cases():
    # closed forms for the bundled members of the variant families, plus the
    # free flight v = -atan(x), which meets at t = 1 / max(-v') = 1
    times = {
        "arctan_collide": 1.0,
        "one_gap_collide": one_gap_collision_time(2.0, 1.0, 2.0),
        "variable_mass_collide": variable_mass_collision_time(1.0, 1.0),
    }
    return [Case(name=n, verdict=v, t_collision=times.get(n),
                 field_horizon=BUNDLED_FIELD_HORIZONS.get(n))
            for n, v in sorted(BUNDLED_VERDICTS.items())]


def _u(rng, lo, hi):
    # six digits keep the files short; the rounding is part of the input
    return round(rng.uniform(lo, hi), 6)


def smooth_variant(rng, k):
    """Bounded smooth force with a rising, positive velocity, so both smooth
    criteria run and the cost stays close to ``smooth_regular``'s."""
    A, B = _u(rng, 0.8, 1.2), _u(rng, 1.8, 2.4)
    p, q = _u(rng, 0.8, 1.2), _u(rng, 0.6, 1.0)
    data = {"domain": UNIT_BOX,
            "force": {"kind": "smooth1d", "f": f"{A}/({B} + y*y)"},
            "velocity": f"{p} + {q}*x", "horizon": 6.0}
    return Case(name=f"v{k}_smooth", data=data)


def one_gap_variant(rng, k, collide):
    f1, a = _u(rng, 1.0, 2.5), _u(rng, 1.5, 2.5)
    ratio = _u(rng, 0.4, 0.7) if collide else _u(rng, 1.3, 2.0)
    f2 = round(f1 * ratio, 6)
    data = {"domain": UNIT_BOX,
            "force": {"kind": "one_gap", "f1": f1, "f2": f2, "a": a},
            "velocity": "0", "horizon": "inf"}
    if collide:
        return Case(name=f"v{k}_one_gap", data=data, verdict="Collision",
                    t_collision=one_gap_collision_time(f1, f2, a))
    return Case(name=f"v{k}_one_gap", data=data, verdict="Regular")


def two_gap_variant(rng, k):
    # the bundled levels with the second step moved across the slope bound
    # (regular at b = 3.4, colliding at b = 3.8)
    data = {"domain": UNIT_BOX,
            "force": {"kind": "two_gap", "f1": 2.0, "f2": 1.0, "f3": 3.0,
                      "a": 2.0, "b": _u(rng, 3.2, 4.0)},
            "velocity": "0", "horizon": "inf"}
    return Case(name=f"v{k}_two_gap", data=data)


def variable_mass_variant(rng, k):
    c, alpha = _u(rng, 0.8, 1.5), _u(rng, 0.5, 2.0)
    data = {"domain": UNIT_BOX,
            "force": {"kind": "smooth1d", "f": f"{c}"},
            "mass": f"1 + {alpha}*x", "velocity": "0", "horizon": 3.0}
    return Case(name=f"v{k}_variable_mass", data=data, verdict="Collision",
                t_collision=variable_mass_collision_time(c, alpha))


def contracting_variant(rng, k):
    """The ``blowup`` family: ``F = k^2 y`` with ``v = -k x`` gives
    ``y = x exp(-k t)``, regular for all time with total mass 0.9."""
    kk = _u(rng, 0.8, 1.2)
    data = {"domain": {"kind": "box", "lower": [0.1], "upper": [1.0]},
            "force": {"kind": "smooth1d", "f": f"{round(kk * kk, 6)}*y"},
            "velocity": f"-{kk}*x", "density": "1", "horizon": 3.0}
    return Case(name=f"v{k}_contracting", data=data, field_horizon=3.0)


def variant_cases(workload, seed):
    """The fixed-count variant list of a workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "field_regular":
        # only families whose flow stays regular up to the horizon
        return [contracting_variant(rng, 0)]
    return [smooth_variant(rng, 0),
            variable_mass_variant(rng, 1),
            one_gap_variant(rng, 2, collide=rng.random() < 0.5),
            two_gap_variant(rng, 3)]


def write_cases(cases, bundled_dir, out_dir):
    """Write every case as ``<out_dir>/<name>.json``; returns the paths."""
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    paths = []
    for case in cases:
        path = os.path.join(out_dir, case.name + ".json")
        if case.data is None:
            shutil.copyfile(os.path.join(bundled_dir, case.name + ".json"), path)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(case.data, fh, indent=2, sort_keys=True)
                fh.write("\n")
        paths.append(path)
    return paths
