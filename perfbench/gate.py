"""Correctness gate: judges each CLI operation from its exit code and files.

An operation *fails* when the CLI exits 3 (usage, parse or data error) or
raises.  It is *wrong* when it gives another verdict or exit code than
expected, or when its files differ from those of the first run of the same
operation in this benchmark run.  ``contract`` lists each numeric error over
its README tolerance:

* collision time (smooth detection is stable to 1e-3 relative): the oracle
  ``t_first`` against the analytic witness time and the closed form;
* pushforward mass (conserved to 1e-6 relative): ``mass_final`` against
  ``mass_initial``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

TIME_TOL = 1e-3
MASS_TOL = 1e-6
EXIT_ERROR = 3


@dataclasses.dataclass
class Judgement:
    status: str                 # "ok", "failed" or "wrong"
    reason: str = ""
    contract: list = dataclasses.field(default_factory=list)


def read_fields(path):
    """``key: value`` lines of a CLI text artifact; repeated keys keep the
    first value."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(": ")
            if sep and key not in out:
                out[key] = value
    return out


def digest(out_dir):
    """SHA-256 of every file in ``out_dir``, by file name."""
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        hashes[name] = h.hexdigest()
    return hashes


def _float(text):
    return None if text in (None, "none") else float(text)


def _time_error(t_found, t_ref):
    return abs(t_found - t_ref) / (TIME_TOL * abs(t_ref))


def _witness_time(witness):
    for part in witness.split():
        if part.startswith("time="):
            return float(part[5:])
    return None


def _judge_validate(case, out_dir):
    f = read_fields(os.path.join(out_dir, "validate.txt"))
    outcome, status = f.get("analytic outcome"), f.get("status", "")
    if status.split(" ")[0] in ("DISAGREE", "INTERNAL"):
        return Judgement("wrong", f"status {status}")
    if case.verdict is not None and outcome != case.verdict:
        return Judgement("wrong", f"analytic {outcome}, expected {case.verdict}")
    if case.verdict is not None and case.data is None:
        want = "UNDECIDED" if case.verdict == "Inconclusive" else "AGREE"
        if status != want:
            return Judgement("wrong", f"status {status}, expected {want}")
    # "oracle found: yes t_first: 1.0 mode: Exact"
    oracle = f.get("oracle found", "").split()
    t_first = _float(oracle[2]) if len(oracle) >= 3 else None
    contract = []
    if t_first is not None:
        t_w = _witness_time(f.get("analytic witness", ""))
        for t_ref in (t_w, case.t_collision):
            if t_ref is not None:
                contract.append(_time_error(t_first, t_ref))
    return Judgement("ok", contract=contract)


def _judge_simulate(case, code, out_dir):
    f = read_fields(os.path.join(out_dir, "collision.txt"))
    found = f.get("found") == "yes"
    if code != (1 if found else 0):
        return Judgement("wrong", f"exit {code} with found={found}")
    if case.verdict is not None and found != (case.verdict == "Collision"):
        return Judgement("wrong", f"found={found}, expected {case.verdict}")
    t_first = _float(f.get("t_first"))
    contract = []
    if t_first is not None and case.t_collision is not None:
        contract.append(_time_error(t_first, case.t_collision))
    return Judgement("ok", contract=contract)


def _judge_field(out_dir):
    f = read_fields(os.path.join(out_dir, "field.txt"))
    m0, m1 = float(f["mass_initial"]), float(f["mass_final"])
    return Judgement("ok", contract=[abs(m1 - m0) / (MASS_TOL * abs(m0))])


def judge(command, case, code, out_dir):
    """Judge one finished operation.  ``code`` is the exit code, or the
    exception the CLI raised."""
    if isinstance(code, BaseException):
        return Judgement("failed", f"raised {type(code).__name__}: {code}")
    if code == EXIT_ERROR:
        return Judgement("failed", "exit 3")
    if command == "simulate":
        return _judge_simulate(case, code, out_dir)
    if code != 0:
        return Judgement("wrong", f"exit {code}, expected 0")
    if command == "validate":
        return _judge_validate(case, out_dir)
    if command == "field":
        return _judge_field(out_dir)
    if not os.path.exists(os.path.join(out_dir, "assumptions.txt")):
        return Judgement("wrong", "no assumptions.txt")
    return Judgement("ok")
