import contextlib
import json
import math
import os
import pathlib
import tracemalloc

import numpy as np
import pytest

from regularflow import simulator
from regularflow.scenario import scenario_from_dict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


# known defect 11's case: a 1D half-space step released at rest on [0, 1],
# and the same step written as a one_gap force
STEP_AT_REST = {
    "domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
    "force": {"kind": "halfspace_step", "f1": [1.0], "f2": [0.5], "a": 2.0},
    "velocity": "0", "horizon": 6.0, "grid": [512]}
GAP_AT_REST = dict(STEP_AT_REST, force={"kind": "one_gap", "f1": 1.0,
                                        "f2": 0.5, "a": 2.0})


def make_scenario(**overrides):
    """1D scenario shorthand: box domain plus keyword overrides."""
    data = {
        "domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
        "force": {"kind": "smooth1d", "f": "0"},
        "velocity": "0",
    }
    data.update(overrides)
    return scenario_from_dict(data)


def one_label(s, x0, horizon=math.inf):
    """(arcs, position) of the one label x0 of an exact scenario, a number
    on the line and a point in d dimensions: its arcs from one-label array
    calls and t -> its position from ``_eval_arcs``."""
    if s.dim == 1:
        arcs = simulator._label_arcs(s, [x0], simulator._force_levels(s),
                                     horizon=horizon)
    else:
        p = np.asarray(x0, dtype=float)[None]
        arcs = simulator._plane_arcs(s.force, p, simulator._velocities(s, p),
                                     1.0, horizon)
    return arcs, lambda t: simulator._eval_arcs(arcs, t)[0][0]


def scenario_path(name):
    if not name.endswith(".json"):
        name += ".json"
    return str(SCENARIO_DIR / name)


def load_bundled(name):
    with open(scenario_path(name), "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


@pytest.fixture
def scenario_dir():
    return SCENARIO_DIR


# frame ranges forced on the CSV writers: 1, 2 and 3 processes, then a
# platform without os.fork
CHUNKINGS = (1, 2, 3, "no fork")


@contextlib.contextmanager
def frame_ranges(chunks):
    """Make the CSV writers cut any file of two or more frames into
    ``chunks`` frame ranges (up to one per frame), or run them as where
    ``os.fork`` does not exist; yields the list of forked pids."""
    pids = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "CHUNK_CELLS", 1)
        if chunks == "no fork":
            mp.setattr(simulator, "_cpus", lambda: 3)
            mp.delattr(os, "fork")
        else:
            fork = os.fork

            def counted():
                pid = fork()
                if pid:
                    pids.append(pid)
                return pid

            mp.setattr(simulator, "_cpus", lambda: chunks)
            mp.setattr(os, "fork", counted)
        yield pids


def traced_mib(fn):
    """(peak, kept) MiB that tracemalloc traces while fn runs and after it,
    holding its result."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        kept = fn()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    del kept
    return (peak - base) / 2 ** 20, (now - base) / 2 ** 20
