"""The three workloads, each a closed loop of CLI operations.

One caller in one process runs the operations of a pass one after another;
a pass visits every scenario of the workload once.

* ``validate_suite``: ``report`` then ``validate`` on each bundled scenario
  and each seeded 1D variant; the two commands on one scenario are one
  operation.  The ROADMAP headline: expressions, quadrature and regularity
  do over 90% of its work.
* ``simulate_csv``: ``simulate`` on each bundled scenario and variant.
  Kinematics and CSV output, with almost no quadrature: the bypass workload
  for every expression, quadrature and criteria optimisation.
* ``field_regular``: ``field`` on each 1D bundled scenario and on variants
  whose flow stays regular, with a horizon inside the regular interval.
  Flow inversion and dense ODE solutions.  ``smooth_regular`` and
  ``smooth_collide`` exit 3 here at the parent commit (QuadratureFailure);
  they stay in the pass and count as failed operations.
"""

from __future__ import annotations

import dataclasses
import os

from scenarios import BUNDLED_FIELD_HORIZONS, bundled_cases, variant_cases

WORKLOADS = ("validate_suite", "simulate_csv", "field_regular")


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation: the CLI commands a user runs on one scenario, in turn."""

    commands: tuple
    case: object
    path: str

    def argv(self, command, out_dir):
        argv = [command, "--scenario", self.path, "--out", out_dir]
        if command == "field" and self.case.field_horizon is not None:
            argv += ["--horizon", repr(self.case.field_horizon)]
        return argv


def cases_for(workload, seed):
    bundled = bundled_cases()
    if workload == "field_regular":
        bundled = [c for c in bundled if c.name in BUNDLED_FIELD_HORIZONS]
    return bundled + variant_cases(workload, seed)


def ops_for(workload, cases, scenario_dir):
    """The ordered operations of one pass, one per scenario."""
    commands = {"validate_suite": ("report", "validate"),
                "simulate_csv": ("simulate",),
                "field_regular": ("field",)}[workload]
    return [Op(commands, c, os.path.join(scenario_dir, c.name + ".json"))
            for c in cases]


# The scenario of a cheap operation of each workload, run once per set-up
# to warm caches; it is part of set-up time and not of any pass.
WARMUP = {"validate_suite": "one_gap_regular",
          "simulate_csv": "linear_monotone",
          "field_regular": "blowup"}
