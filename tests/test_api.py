"""The public names of the package, pinned: removing or adding one shows up
here as a test diff."""

import importlib
import importlib.util

import regularflow

from conftest import REPO_ROOT

PUBLIC_NAMES = [
    "Annulus",
    "AssumptionCheck",
    "BoundaryTrack",
    "Box",
    "COLLISION",
    "Central",
    "CollisionReport",
    "ConstantVec",
    "DimensionMismatch",
    "EnergyProfile",
    "EnsembleTrajectory",
    "EvaluationError",
    "Expression",
    "ExpressionError",
    "FieldGrid",
    "FlightResult",
    "FlowMap",
    "HalfSpaceStep",
    "HypothesisViolated",
    "INCONCLUSIVE",
    "InitialData",
    "InternalInconsistency",
    "InvalidParameter",
    "Linear",
    "NeverReaches",
    "NotMonotone",
    "NotRegular",
    "OneGap",
    "OriginApproach",
    "OutOfImage",
    "QuadratureFailure",
    "REGULAR",
    "RegularFlowError",
    "Scenario",
    "ScenarioFormatError",
    "SingularBoundary",
    "Smooth1D",
    "StepFailure",
    "TurningPoint",
    "TwoGap",
    "Verdict",
    "assumptions_report",
    "asymptotic_verdict_1d",
    "build_blowup_scenario",
    "build_scenario",
    "check_auto",
    "check_central",
    "check_constant_force_pair",
    "check_constant_force_profile",
    "check_corollary_sufficient",
    "check_euler_global",
    "check_halfspace_step",
    "check_linear",
    "check_monotone_multi",
    "check_one_gap_general",
    "check_one_gap_zero_v",
    "check_smooth_general",
    "check_smooth_positive_v",
    "check_two_gap",
    "continuity_residual",
    "dT_dx",
    "dT_dx_by_parts",
    "dT_dx_weighted",
    "detect_collisions_1d",
    "detect_collisions_multid",
    "energy_profile",
    "errors",
    "euler_residual",
    "expressions",
    "field",
    "gap_time_of_flight",
    "invert_flow_1d",
    "load_scenario",
    "parse_expression",
    "potential",
    "potentials",
    "quadrature",
    "reconstruct_velocity",
    "regularity",
    "sample_field",
    "save_scenario",
    "scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "simulate_ensemble",
    "simulator",
    "time_of_flight",
    "track_boundary",
    "write_collision_report",
    "write_field_csv",
    "write_trajectory_csv",
]


def test_public_names_are_pinned():
    assert regularflow.__all__ == PUBLIC_NAMES


def test_perfbench_trace_targets_resolve():
    # the benchmark's tracer wraps these attributes by name; a rename in
    # the package would only show in a traced run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.SPAN_TARGETS + tracer.SCIPY_TARGETS
    assert targets
    for _, module, attr in targets:
        mod = importlib.import_module(f"regularflow.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
