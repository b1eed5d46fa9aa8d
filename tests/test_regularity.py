"""Analytic no-collision criteria: margins, verdicts, and routing."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from regularflow import regularity
from regularflow.cli import main
from regularflow.errors import (
    HypothesisViolated,
    InternalInconsistency,
    InvalidParameter,
)
from regularflow.regularity import (
    COLLISION,
    INCONCLUSIVE,
    IFF_CRITERIA,
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
    check_two_gap,
)
from regularflow.scenario import (
    CENTRAL_FLIGHT,
    CONSTANT_PAIR,
    HALFSPACE_STEP,
    LINEAR_SPECTRUM,
    MONOTONE_FORCE,
    ONE_GAP_GENERAL,
    ONE_GAP_SLOPE,
    ONE_GAP_ZERO_V,
    SMOOTH_GENERAL,
    SMOOTH_POSITIVE_V,
    TWO_GAP_BOUND,
    scenario_from_dict,
)

from conftest import load_bundled, make_scenario


#############################################################
# Single-step force
#############################################################


@pytest.mark.parametrize("f1,f2,outcome", [
    (1.0, 2.0, REGULAR),
    (2.0, 1.0, COLLISION),
    (1.0, 1.0, REGULAR),
    (3.0, 1.0, COLLISION),
    (1.0, 3.0, REGULAR),
])
def test_one_gap_zero_v_verdicts(f1, f2, outcome):
    v = check_one_gap_zero_v(f1, f2, 2.0)
    assert v.outcome == outcome
    assert v.margin == f2 - f1          # exact, no tolerance
    if outcome == COLLISION:
        assert v.witness is not None and v.witness["time"] > 0.0


def test_one_gap_general_agrees_with_zero_v_special_case():
    zero = lambda x: 0.0
    for f1, f2 in [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (0.3, 4.0)]:
        simple = check_one_gap_zero_v(f1, f2, 2.0)
        general = check_one_gap_general(f1, f2, 2.0, zero, zero)
        assert general.outcome == simple.outcome


def test_one_gap_general_rescued_by_velocity_slope():
    # near level above far level collides at rest, but a rising initial
    # velocity profile can keep the order
    at_rest = check_one_gap_general(2.0, 1.0, 2.0, lambda x: 0.0, lambda x: 0.0)
    assert at_rest.outcome == COLLISION
    rising = check_one_gap_general(2.0, 1.0, 2.0, lambda x: x, lambda x: 1.0)
    assert rising.outcome == REGULAR
    assert rising.margin > 0.0


def test_one_gap_general_equality_boundary_is_inconclusive(tmp_path):
    # the profile margin is x, exactly 0 at x = 0, but the finite-difference
    # v' reads it as about -2.7e-11: inside the equality band, not a collision
    s = make_scenario(force={"kind": "one_gap", "f1": 1.0, "f2": 0.0,
                             "a": 2.0}, velocity="1 + x", horizon="inf")
    verdict = check_one_gap_general(1.0, 0.0, 2.0, s.init.velocity,
                                    s.init.velocity_deriv)
    assert verdict.outcome == INCONCLUSIVE
    assert -1e-9 < verdict.margin < 0.0
    assert "equality band" in verdict.reason
    # outside the band the same profile still decides
    assert check_one_gap_general(1.0, 0.0, 2.0, lambda x: 1.0 + x,
                                 lambda x: 1.0 - 1e-6).outcome == COLLISION
    path = tmp_path / "one_gap_equality.json"
    path.write_text(json.dumps({
        "domain": {"kind": "box", "lower": [0.0], "upper": [1.0]},
        "force": {"kind": "one_gap", "f1": 1.0, "f2": 0.0, "a": 2.0},
        "velocity": "1 + x", "horizon": "inf"}))
    assert main(["validate", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 0
    assert "status: UNDECIDED" in (tmp_path / "validate.txt").read_text()


def test_one_gap_general_rejects_negative_velocity():
    with pytest.raises(HypothesisViolated):
        check_one_gap_general(1.0, 2.0, 2.0, lambda x: -x, lambda x: -1.0)


def test_one_gap_collision_witness_is_a_micro_pair():
    v = check_one_gap_zero_v(2.0, 1.0, 2.0)
    x1, x2 = v.witness["pair"]
    assert 0.0 <= x1 < x2 <= 1.0
    assert x2 - x1 == pytest.approx(1e-7, rel=1e-9)


def test_corollary_slope_bound():
    # force-free far region; v' >= f1 / sqrt(f1 x + v(0)^2) is sufficient
    good = check_corollary_sufficient(
        1.0, 2.0, lambda x: 2.0 * math.sqrt(x + 1.0),
        lambda x: 1.0 / math.sqrt(x + 1.0))
    assert good.outcome == REGULAR
    assert good.criterion == ONE_GAP_SLOPE
    flat = check_corollary_sufficient(
        1.0, 2.0, lambda x: 1.0, lambda x: 0.0)
    assert flat.outcome == INCONCLUSIVE   # sufficient only: never Collision


#############################################################
# Double-step force
#############################################################


def test_two_gap_threshold_coefficient():
    v = check_two_gap(2.0, 1.0, 3.0, 2.0, 3.4)
    assert v.diagnostics["alpha"] == pytest.approx(float(Fraction(14, 9)),
                                                   rel=1e-15)
    assert v.diagnostics["beta"] == 0.375
    assert v.diagnostics["necessary_far_exceeds_near"]


def test_two_gap_verdicts_on_both_sides():
    reg = check_two_gap(2.0, 1.0, 3.0, 2.0, 3.4)
    assert reg.outcome == REGULAR
    assert reg.margin == pytest.approx(float(Fraction(7, 45)), rel=1e-12)
    col = check_two_gap(2.0, 1.0, 3.0, 2.0, 3.8)
    assert col.outcome == COLLISION
    assert col.margin == pytest.approx(float(Fraction(-11, 45)), rel=1e-12)
    assert col.witness["time"] > 0.0


def test_two_gap_boundary_case_is_regular():
    # weak inequality: b - a exactly at alpha (a - 1) stays regular
    b_star = 2.0 + 14.0 / 9.0
    v = check_two_gap(2.0, 1.0, 3.0, 2.0, b_star)
    assert v.outcome == REGULAR
    assert abs(v.margin) < 1e-15


def test_two_gap_margin_decreases_with_second_cut():
    margins = [check_two_gap(2.0, 1.0, 3.0, 2.0, b).margin
               for b in (3.1, 3.4, 3.7, 4.0)]
    assert all(m1 > m2 for m1, m2 in zip(margins, margins[1:]))


#############################################################
# Constant force
#############################################################


def test_constant_pair_head_on():
    v = check_constant_force_pair([0.0, 0.0], [1.0, 0.0],
                                  [0.0, 0.0], [-1.0, 0.0])
    assert v.outcome == COLLISION
    assert v.witness["time"] == pytest.approx(1.0, rel=1e-12)
    assert v.diagnostics["parallel"]
    assert v.diagnostics["cross_ratio"] == 0.0


def test_constant_pair_near_miss_is_regular():
    v = check_constant_force_pair([0.0, 0.0], [1.0, 0.0],
                                  [0.0, 0.0], [-1.0, 1e-3])
    assert v.outcome == REGULAR
    assert not v.diagnostics["parallel"]


def test_constant_pair_separating_and_static():
    apart = check_constant_force_pair([0.0], [1.0], [0.0], [2.0])
    assert apart.outcome == REGULAR
    frozen = check_constant_force_pair([0.0], [1.0], [0.5], [0.5])
    assert frozen.outcome == REGULAR
    assert frozen.reason == "constant separation"
    with pytest.raises(InvalidParameter):
        check_constant_force_pair([1.0], [1.0], [0.0], [1.0])


def test_constant_profile_collides_iff_velocity_decreases():
    sinking = make_scenario(force={"kind": "smooth1d", "f": "3"},
                            velocity="-x/2")
    v = check_constant_force_profile(sinking)
    assert v.outcome == COLLISION
    assert v.margin == pytest.approx(-0.5, rel=1e-9)
    assert v.witness["time"] == pytest.approx(2.0, rel=1e-6)
    rising = make_scenario(force={"kind": "smooth1d", "f": "3"},
                           velocity="x/2")
    assert check_constant_force_profile(rising).outcome == REGULAR


#############################################################
# Half-space step
#############################################################


def test_halfspace_verdicts():
    reg = check_halfspace_step([0.0, 1.0], [0.0, 1.5], 2.0)
    assert (reg.outcome, reg.margin) == (REGULAR, 0.5)
    col = check_halfspace_step([0.0, 1.0], [3.0, 0.5], 2.0)
    assert (col.outcome, col.margin) == (COLLISION, -0.5)
    assert col.witness["direction"] == (3.0, -0.5)


def test_halfspace_compares_the_levels_along_the_split_axis():
    # across x_1 = 2 the normal level drops from 1 to 0.5
    col = check_halfspace_step([1.0, 1.0], [0.5, 3.0], 2.0, axis=0)
    assert (col.outcome, col.margin) == (COLLISION, -0.5)
    assert check_halfspace_step([1.0, 0.0], [0.5, 3.0], 2.0, axis=0).outcome \
        == COLLISION
    # the last axis by default
    reg = check_halfspace_step([1.0, 1.0], [0.5, 3.0], 2.0)
    assert (reg.outcome, reg.margin) == (REGULAR, 2.0)


def test_halfspace_tangential_change_alone_is_regular():
    v = check_halfspace_step([0.0, 1.0], [5.0, 1.0], 2.0)
    assert v.outcome == REGULAR
    assert v.margin == 0.0


def test_halfspace_rejects_bad_levels():
    assert check_halfspace_step([0.0, 1.0], [0.0, -0.5], 2.0).outcome \
        == INCONCLUSIVE
    with pytest.raises(InvalidParameter):
        check_halfspace_step([0.0, -1.0], [0.0, 1.0], 2.0)
    with pytest.raises(InvalidParameter):
        check_halfspace_step([0.0, 1.0], [1.0], 2.0)


#############################################################
# Affine force spectrum
#############################################################


def _linear_scenario(matrix, vel_matrix=((0.5, 0.0), (0.0, 0.5))):
    return scenario_from_dict({
        "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "force": {"kind": "linear", "matrix": [list(r) for r in matrix],
                  "offset": [0.0, 0.0]},
        "velocity": {"matrix": [list(r) for r in vel_matrix],
                     "offset": [0.0, 0.0]},
        "horizon": 3.0,
        "grid": [9, 9],
    })


def test_linear_positive_spectrum_is_regular():
    v = check_linear(_linear_scenario([[2.0, 1.0], [1.0, 2.0]]))
    assert v.outcome == REGULAR
    assert v.margin == pytest.approx(1.0, rel=1e-12)   # smallest eigenvalue


@pytest.mark.parametrize("matrix,why", [
    ([[0.0, -1.0], [1.0, 0.0]], "complex spectrum"),
    ([[-1.0, 0.0], [0.0, 1.0]], "negative eigenvalue"),
    ([[1.0, 1.0], [0.0, 1.0]], "no well-conditioned eigenbasis"),
])
def test_linear_sufficient_only_failures(matrix, why):
    v = check_linear(_linear_scenario(matrix))
    assert v.outcome == INCONCLUSIVE
    assert why in v.reason


def test_linear_needs_monotone_velocity():
    v = check_linear(_linear_scenario([[2.0, 0.0], [0.0, 2.0]],
                                      vel_matrix=[[-1.0, 0.0], [0.0, -1.0]]))
    assert v.outcome == INCONCLUSIVE
    assert "velocity" in v.reason


def test_linear_flags_indefinite_symmetric_part():
    # eigenvalues 1, 1 but symmetric part indefinite: still Regular, with
    # the hypothesis caveat recorded
    v = check_linear(_linear_scenario([[1.0, 4.0], [0.1, 1.0]]))
    assert v.outcome == REGULAR
    assert "symmetric part" in v.reason
    assert v.diagnostics["symmetric_part_min"] < 0.0


#############################################################
# Monotone force field
#############################################################


def test_monotone_force_with_spreading_velocity():
    s = scenario_from_dict({
        "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "force": {"kind": "constant", "vector": [0.0, 1.0]},
        "velocity": {"matrix": [[1.0, 0.0], [0.0, 1.0]],
                     "offset": [0.0, 0.0]},
        "horizon": 2.0,
        "grid": [9, 9],
    })
    v = check_monotone_multi(s)
    assert v.outcome == REGULAR
    assert v.margin >= 0.0


def test_monotone_force_rejects_contracting_velocity():
    s = scenario_from_dict({
        "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "force": {"kind": "constant", "vector": [0.0, 1.0]},
        "velocity": {"matrix": [[-1.0, 0.0], [0.0, -1.0]],
                     "offset": [0.0, 0.0]},
        "horizon": 2.0,
        "grid": [9, 9],
    })
    v = check_monotone_multi(s)
    assert v.outcome == INCONCLUSIVE
    assert v.witness["field"] == "velocity"


#############################################################
# Central force on an annulus
#############################################################


def _central_scenario(**over):
    d = {
        "domain": {"kind": "annulus", "r_inner": 1.0, "r_outer": 2.0},
        "force": {"kind": "central", "u": "1/r"},
        "velocity": {"g": "r", "h": "0"},
        "horizon": 3.0,
        "grid": [9, 12],
    }
    d.update(over)
    return scenario_from_dict(d)


def test_central_repulsive_outflow_is_regular():
    v = check_central(_central_scenario())
    assert v.outcome == REGULAR
    # flight time to any target drops at rate 1/g at the anchor; the worst
    # anchor is the fastest one, g(2) = 2 ... but dT/dr1 also gains from the
    # potential, so the bound sits near 1/g(r_outer) = 0.5
    assert v.margin == pytest.approx(0.5, abs=1e-3)


def test_central_requires_outward_speed():
    with pytest.raises(HypothesisViolated):
        check_central(_central_scenario(velocity={"g": "-r", "h": "0"}))


def test_central_requires_net_outward_force():
    with pytest.raises(HypothesisViolated):
        check_central(_central_scenario(force={"kind": "central", "u": "r"}))


def test_central_angular_momentum_can_restore_the_hypothesis():
    # attractive u = r alone fails; enough spin makes the net radial force
    # outward again ahead of every anchor, all the way to the cutoff radius
    v = check_central(_central_scenario(force={"kind": "central", "u": "r"},
                                        velocity={"g": "r", "h": "50"}))
    assert v.outcome in (REGULAR, INCONCLUSIVE)
    assert v.criterion == CENTRAL_FLIGHT


#############################################################
# Dispatcher
#############################################################


def test_auto_one_gap_routes_and_wins_with_iff(scenario_dir):
    s = load_bundled("one_gap_regular")
    verdict, trace = check_auto(s)
    ids = [cid for cid, _ in trace]
    assert ONE_GAP_ZERO_V in ids and ONE_GAP_GENERAL in ids
    assert verdict.outcome == REGULAR
    assert verdict.criterion in (ONE_GAP_ZERO_V, ONE_GAP_GENERAL)
    assert verdict.margin == 1.0


def test_auto_uniform_mass_rescales_gap_levels():
    heavy = make_scenario(force={"kind": "one_gap", "f1": 1.0, "f2": 2.0,
                                 "a": 2.0},
                          mass="2")
    verdict, _ = check_auto(heavy)
    assert verdict.outcome == REGULAR
    assert verdict.margin == pytest.approx(0.5, rel=1e-15)


def test_auto_variable_mass_gap_is_inconclusive():
    s = make_scenario(force={"kind": "one_gap", "f1": 1.0, "f2": 2.0,
                             "a": 2.0},
                      mass="1 + x")
    verdict, trace = check_auto(s)
    assert verdict.outcome == INCONCLUSIVE
    assert "uniform particle mass" in verdict.reason
    assert all(v.outcome == INCONCLUSIVE for _, v in trace)


def test_auto_two_gap_with_velocity_is_inconclusive():
    s = make_scenario(force={"kind": "two_gap", "f1": 2.0, "f2": 1.0,
                             "f3": 3.0, "a": 2.0, "b": 3.4},
                      velocity="x")
    verdict, _ = check_auto(s)
    assert verdict.outcome == INCONCLUSIVE


def test_auto_constant_force_uses_profile_criterion(scenario_dir):
    s = load_bundled("arctan_collide")
    verdict, _ = check_auto(s)
    assert verdict.outcome == COLLISION
    assert verdict.criterion == CONSTANT_PAIR
    assert verdict.margin == pytest.approx(-1.0, abs=1e-6)
    assert verdict.witness["time"] == pytest.approx(1.0, abs=1e-6)


def test_auto_smooth_positive_velocity(scenario_dir):
    s = load_bundled("smooth_regular")
    verdict, trace = check_auto(s)
    assert verdict.outcome == REGULAR
    assert verdict.criterion == SMOOTH_POSITIVE_V
    # worst label is the top of the domain: -dT/dx -> 1/v(1) = 0.5
    assert verdict.margin == pytest.approx(0.5, abs=1e-8)
    assert {cid for cid, _ in trace} == {SMOOTH_POSITIVE_V, SMOOTH_GENERAL}


def test_auto_smooth_collision(scenario_dir):
    s = load_bundled("smooth_collide")
    verdict, trace = check_auto(s)
    assert verdict.outcome == COLLISION
    assert verdict.margin < 0.0
    assert verdict.witness is not None
    assert all(v.outcome == COLLISION for _, v in trace)


def test_smooth_general_after_positive_velocity_keeps_its_margin():
    # the second criterion reuses the first one's anchors and scans
    s = load_bundled("smooth_collide")
    regularity.check_smooth_positive_v(s)
    verdict = regularity.check_smooth_general(s)
    assert verdict.margin == -3.8372067698984247
    assert verdict.witness == {"x": 1.0, "y": 11.0}


def test_auto_variable_mass_constant_force_collides(scenario_dir):
    s = load_bundled("variable_mass_collide")
    verdict, _ = check_auto(s)
    assert verdict.outcome == COLLISION
    assert verdict.criterion == SMOOTH_GENERAL
    assert verdict.margin < 0.0


def test_auto_halfspace(scenario_dir):
    verdict, _ = check_auto(load_bundled("halfspace_regular"))
    assert (verdict.outcome, verdict.criterion) == (REGULAR, HALFSPACE_STEP)
    verdict, _ = check_auto(load_bundled("halfspace_collide"))
    assert (verdict.outcome, verdict.criterion) == (COLLISION, HALFSPACE_STEP)


def test_auto_central_hypothesis_violation_becomes_inconclusive():
    s = _central_scenario(velocity={"g": "1 - r", "h": "0"})
    verdict, trace = check_auto(s)
    assert verdict.outcome == INCONCLUSIVE
    assert "hypothesis violated" in verdict.reason
    assert trace[0][0] == CENTRAL_FLIGHT


def test_auto_linear_falls_back_to_monotone():
    s = _linear_scenario([[0.0, -1.0], [1.0, 0.0]])
    verdict, trace = check_auto(s)
    ids = [cid for cid, _ in trace]
    assert ids == [LINEAR_SPECTRUM, MONOTONE_FORCE]
    assert verdict.outcome == INCONCLUSIVE


def test_iff_criteria_membership():
    assert IFF_CRITERIA == {
        SMOOTH_POSITIVE_V, SMOOTH_GENERAL, ONE_GAP_ZERO_V, ONE_GAP_GENERAL,
        TWO_GAP_BOUND, CONSTANT_PAIR, HALFSPACE_STEP,
    }
    for sufficient_only in (MONOTONE_FORCE, LINEAR_SPECTRUM, CENTRAL_FLIGHT,
                            ONE_GAP_SLOPE):
        assert sufficient_only not in IFF_CRITERIA


def test_auto_raises_on_contradictory_verdicts(monkeypatch):
    # force a fake Regular from the rest criterion against a genuine
    # Collision from the general criterion
    fake = Verdict(outcome=REGULAR, criterion=ONE_GAP_ZERO_V, margin=1.0)
    monkeypatch.setattr(regularity, "check_one_gap_zero_v",
                        lambda *a, **k: fake)
    s = make_scenario(force={"kind": "one_gap", "f1": 2.0, "f2": 1.0,
                             "a": 2.0})
    with pytest.raises(InternalInconsistency):
        check_auto(s)
