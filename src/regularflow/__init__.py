"""Collision analysis for continua of point particles under external forces.

Newton dynamics d2y/dt2 = F(y)/m(x) with y(0, x) = x, dy/dt(0, x) = v(x):
this package decides whether distinct particles ever meet, cross-validates
the analytic criteria against trajectory simulation, and reconstructs the
Euler velocity field and densities along the characteristics.
"""

from .errors import (
    DimensionMismatch,
    EvaluationError,
    ExpressionError,
    HypothesisViolated,
    InternalInconsistency,
    InvalidParameter,
    NeverReaches,
    NotMonotone,
    NotRegular,
    OriginApproach,
    OutOfImage,
    QuadratureFailure,
    RegularFlowError,
    ScenarioFormatError,
    SingularBoundary,
    StepFailure,
    TurningPoint,
)
from .expressions import Expression, parse_expression
from .scenario import (
    Annulus,
    AssumptionCheck,
    Box,
    Central,
    ConstantVec,
    HalfSpaceStep,
    InitialData,
    Linear,
    OneGap,
    Scenario,
    Smooth1D,
    TwoGap,
    assumptions_report,
    build_blowup_scenario,
    build_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .quadrature import (
    EnergyProfile,
    FlightResult,
    dT_dx,
    dT_dx_by_parts,
    dT_dx_weighted,
    energy_profile,
    gap_time_of_flight,
    potential,
    potentials,
    time_of_flight,
)
from .regularity import (
    COLLISION,
    INCONCLUSIVE,
    REGULAR,
    Verdict,
    check_auto,
    check_central,
    check_constant_force_pair,
    check_constant_force_profile,
    check_corollary_sufficient,
    check_halfspace_step,
    check_linear,
    check_monotone_multi,
    check_one_gap_general,
    check_one_gap_zero_v,
    check_smooth_general,
    check_smooth_positive_v,
    check_two_gap,
)
from .simulator import (
    CollisionReport,
    EnsembleTrajectory,
    asymptotic_verdict_1d,
    detect_collisions_1d,
    detect_collisions_multid,
    simulate_ensemble,
    write_collision_report,
    write_trajectory_csv,
)
from .field import (
    BoundaryTrack,
    FieldGrid,
    FlowMap,
    check_euler_global,
    continuity_residual,
    euler_residual,
    invert_flow_1d,
    reconstruct_velocity,
    sample_field,
    track_boundary,
    write_field_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
