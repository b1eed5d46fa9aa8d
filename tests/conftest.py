import contextlib
import json
import os
import pathlib

import pytest

from regularflow import simulator
from regularflow.scenario import scenario_from_dict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


def make_scenario(**overrides):
    """1D scenario shorthand: box domain plus keyword overrides."""
    data = {
        "domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
        "force": {"kind": "smooth1d", "f": "0"},
        "velocity": "0",
    }
    data.update(overrides)
    return scenario_from_dict(data)


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
