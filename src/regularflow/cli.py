"""Command-line surface.

Subcommands: check (analytic criteria), simulate (trajectory CSV plus
collision report), validate (analytic verdict against the simulation oracle),
field (Euler field CSV), report (assumption audit).  Verdicts are written as
structured key: value text for diffability; all floats use repr so identical
runs produce byte-identical files.

Exit codes: 0 Regular / agreement, 1 Collision, 2 Inconclusive or undecided,
3 usage, parse or data errors, 4 analytic/simulation disagreement,
5 internal inconsistency between criteria.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import field as field_mod
from . import quadrature, regularity, simulator
from .errors import (
    ExpressionError,
    InternalInconsistency,
    NotRegular,
    RegularFlowError,
    ScenarioFormatError,
)
from .scenario import Smooth1D, assumptions_report, load_scenario

EXIT_REGULAR = 0
EXIT_COLLISION = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3
EXIT_DISAGREE = 4
EXIT_INTERNAL = 5

_DEFAULT_ORACLE_HORIZON = 10.0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="regularflow",
        description="Collision analysis for continua of driven point particles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "run every applicable analytic criterion"),
        ("simulate", "integrate the ensemble and detect collisions"),
        ("validate", "cross-check analytic verdicts against simulation"),
        ("field", "reconstruct the velocity field and densities"),
        ("report", "audit criterion assumptions on the scenario"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True,
                       help="scenario JSON file (validate also accepts a directory)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--grid", type=int, default=None,
                       help="override the per-axis sample count (at least 3)")
        p.add_argument("--horizon", type=float, default=None,
                       help="override the time horizon (positive, or inf)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in outputs; probes are counter-seeded")
        p.add_argument("--tol-collision", type=float, default=1e-3,
                       dest="tol_collision",
                       help="relative pair-distance threshold (multi-d), "
                            "in (0, 1)")
    return parser


def _load(config, path=None):
    s = load_scenario(path or config.scenario)
    if config.grid is not None:
        if config.grid < 3:
            raise ScenarioFormatError("--grid must be at least 3")
        s = dataclasses.replace(
            s, samples=tuple(config.grid for _ in s.samples))
    if config.horizon is not None:
        if not config.horizon > 0.0:
            raise ScenarioFormatError("--horizon must be positive or inf")
        s = dataclasses.replace(s, horizon=float(config.horizon))
    if not 0.0 < config.tol_collision < 1.0:
        raise ScenarioFormatError("--tol-collision must lie in (0, 1)")
    return s


def _fmt(value):
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    if isinstance(value, dict):
        return " ".join(f"{k}={_fmt(v)}" for k, v in sorted(value.items()))
    return str(value)


def _verdict_lines(verdict, prefix=""):
    lines = [
        f"{prefix}outcome: {verdict.outcome}",
        f"{prefix}criterion: {verdict.criterion}",
        f"{prefix}margin: {_fmt(verdict.margin)}",
        f"{prefix}witness: {_fmt(verdict.witness)}",
    ]
    if verdict.reason:
        lines.append(f"{prefix}reason: {verdict.reason}")
    return lines


def _write(config, name, lines):
    os.makedirs(config.out, exist_ok=True)
    path = os.path.join(config.out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _exit_for(outcome):
    return {regularity.REGULAR: EXIT_REGULAR,
            regularity.COLLISION: EXIT_COLLISION}.get(outcome,
                                                      EXIT_INCONCLUSIVE)


#############################################################
# Commands
#############################################################


def cmd_check(config):
    s = _load(config)
    verdict, trace = regularity.check_auto(s)
    lines = [
        "command: check",
        f"scenario: {os.path.basename(config.scenario)}",
        f"seed: {config.seed}",
    ]
    lines += _verdict_lines(verdict)
    for cid, v in trace:
        lines.append(f"trace: {cid} outcome={v.outcome} margin={_fmt(v.margin)}")
    path = _write(config, "verdict.txt", lines)
    print("\n".join(lines))
    print(f"wrote {path}")
    return _exit_for(verdict.outcome)


def _simulation_horizon(s):
    """The horizon of trajectories and finite-horizon detection: the
    scenario's, which holds --horizon (see _load), or the default where it
    is infinite."""
    if math.isfinite(s.horizon):
        return float(s.horizon)
    return _DEFAULT_ORACLE_HORIZON


def _detection_horizon(s):
    """The horizon collisions are detected on: the scenario's, infinite
    or not, where detection decides on an infinite horizon, else the
    simulation horizon."""
    if simulator.infinite_horizon_applies(s):
        return s.horizon
    return _simulation_horizon(s)


def cmd_simulate(config):
    s = _load(config)
    if s.dim == 1:
        report = simulator.detect_collisions_1d(s, horizon=_detection_horizon(s))
    else:
        report = simulator.detect_collisions_multid(
            s, horizon=_detection_horizon(s), eps_rel=config.tol_collision)
    traj = simulator.simulate_ensemble(s, horizon=_simulation_horizon(s))
    os.makedirs(config.out, exist_ok=True)
    csv_path = os.path.join(config.out, "trajectory.csv")
    simulator.write_trajectory_csv(traj, csv_path)
    rep_path = os.path.join(config.out, "collision.txt")
    simulator.write_collision_report(report, rep_path)
    print(f"collision found: {'yes' if report.found else 'no'}")
    if report.found and report.t_first is not None:
        print(f"t_first: {repr(float(report.t_first))}")
    print(f"wrote {csv_path}")
    print(f"wrote {rep_path}")
    return EXIT_COLLISION if report.found else EXIT_REGULAR


def _estimate_collision_horizon(s, verdict):
    """Horizon that safely contains the analytically predicted collision."""
    times = []
    if verdict.witness:
        t = verdict.witness.get("time")
        if t is not None and math.isfinite(t):
            times.append(float(t))
        if "x" in verdict.witness and "y" in verdict.witness and \
                isinstance(s.force, Smooth1D):
            try:
                profile = quadrature.energy_profile(s)
                x = float(verdict.witness["x"])
                y = float(verdict.witness["y"])
                t_red = quadrature.time_of_flight(profile, x, y).time
                times.append(math.sqrt(float(s.init.mass(x))) * t_red)
            except RegularFlowError:
                pass
    if not times:
        return None
    return 2.0 * max(times) + 1.0


def _oracle_report(s, verdict, config):
    """Simulation result matched to the scenario class."""
    if s.dim == 1:
        if simulator.asymptotic_applies(s):
            return simulator.detect_collisions_1d(s, horizon=math.inf)
        horizon = _simulation_horizon(s)
        est = None
        if verdict.outcome == regularity.COLLISION:
            est = _estimate_collision_horizon(s, verdict)
        if est is not None:
            horizon = max(horizon, est)
        return simulator.detect_collisions_1d(s, horizon=horizon)
    return simulator.detect_collisions_multid(
        s, horizon=_detection_horizon(s), eps_rel=config.tol_collision)


def _validate_one(config, path):
    s = _load(config, path)
    name = os.path.basename(path)
    try:
        verdict, trace = regularity.check_auto(s)
    except InternalInconsistency as exc:
        return [f"scenario: {name}", f"status: INTERNAL ({exc})"], EXIT_INTERNAL
    lines = [f"scenario: {name}"]
    lines += _verdict_lines(verdict, prefix="analytic ")
    oracle = _oracle_report(s, verdict, config)
    lines.append(
        f"oracle found: {'yes' if oracle.found else 'no'}"
        f" t_first: {_fmt(None if oracle.t_first is None else float(oracle.t_first))}"
        f" mode: {oracle.mode}")
    if verdict.outcome == regularity.INCONCLUSIVE:
        status, code = "UNDECIDED", EXIT_INCONCLUSIVE
    elif (verdict.outcome == regularity.COLLISION) == bool(oracle.found):
        status, code = "AGREE", EXIT_REGULAR
    else:
        status, code = "DISAGREE", EXIT_DISAGREE
    lines.append(f"status: {status}")
    return lines, code


def cmd_validate(config):
    target = config.scenario
    if os.path.isdir(target):
        paths = sorted(
            os.path.join(target, f) for f in os.listdir(target)
            if f.endswith(".json"))
        if not paths:
            raise ScenarioFormatError(f"no scenario files in {target}")
    else:
        paths = [target]
    all_lines = ["command: validate", f"seed: {config.seed}"]
    codes = []
    for path in paths:
        lines, code = _validate_one(config, path)
        all_lines += lines + ["---"]
        codes.append(code)
    if EXIT_DISAGREE in codes:
        worst = EXIT_DISAGREE
    elif EXIT_INTERNAL in codes:
        worst = EXIT_INTERNAL
    else:
        # undecided rows are out of the cross-check's contract; they do not
        # fail the suite
        worst = EXIT_REGULAR
    path = _write(config, "validate.txt", all_lines)
    print("\n".join(all_lines))
    print(f"wrote {path}")
    return worst


def cmd_field(config):
    s = _load(config)
    if not math.isfinite(s.horizon):
        raise ScenarioFormatError(
            "field needs a finite horizon: give a finite --horizon or "
            "scenario horizon")
    horizon = float(s.horizon)
    n_times = config.grid or 9
    grid = field_mod.sample_field(s, horizon=horizon, n_times=n_times)
    os.makedirs(config.out, exist_ok=True)
    csv_path = os.path.join(config.out, "field.csv")
    field_mod.write_field_csv(grid, csv_path)
    track = field_mod.track_boundary(s, horizon)
    lines = [
        "command: field",
        f"seed: {config.seed}",
        f"times: {_fmt([float(t) for t in grid.times])}",
        f"mass_initial: {repr(grid.mass(0))}",
        f"mass_final: {repr(grid.mass(len(grid.times) - 1))}",
        f"boundary_start: ({repr(float(track.L[0]))}, {repr(float(track.R[0]))})",
        f"boundary_end: ({repr(float(track.L[-1]))}, {repr(float(track.R[-1]))})",
    ]
    path = _write(config, "field.txt", lines)
    print("\n".join(lines))
    print(f"wrote {csv_path}")
    print(f"wrote {path}")
    return EXIT_REGULAR


def cmd_report(config):
    s = _load(config)
    checks = assumptions_report(s)
    lines = ["command: report", f"scenario: {os.path.basename(config.scenario)}"]
    for c in checks:
        lines.append(
            f"criterion: {c.criterion} satisfied: {c.satisfied} "
            f"witness: {_fmt(c.witness)} detail: {c.detail or 'none'}")
    path = _write(config, "assumptions.txt", lines)
    print("\n".join(lines))
    print(f"wrote {path}")
    return EXIT_REGULAR


_COMMANDS = {
    "check": cmd_check,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "field": cmd_field,
    "report": cmd_report,
}


def main(argv=None):
    parser = build_parser()
    config = parser.parse_args(argv)
    try:
        # inf and nan are data here; expressions and arrays alike run with
        # numpy's floating-point warnings off for the whole command
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _COMMANDS[config.command](config)
    except ExpressionError as exc:
        # the message already starts with "line L, column C: "
        print(f"error: expression parse failure at {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ScenarioFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NotRegular as exc:
        print(f"not regular: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    except RegularFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
