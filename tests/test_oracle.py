import numpy as np
import pytest

from conftest import draw_profile, draw_scenario
from vaxalloc import (
    EconomyProfile,
    ModelInputError,
    OracleConfig,
    Scenario,
    brute_force_optimum,
    objective,
    solve,
)
from vaxalloc.oracle import MAX_ORACLE_POINTS


def test_rejects_tiny_grids():
    with pytest.raises(ModelInputError):
        OracleConfig(grid_points=2)


def test_rejects_grids_beyond_the_cap():
    assert OracleConfig(grid_points=MAX_ORACLE_POINTS).grid_points == MAX_ORACLE_POINTS
    with pytest.raises(ModelInputError):
        OracleConfig(grid_points=MAX_ORACLE_POINTS + 1)


def test_single_feasible_point_when_stock_is_zero(example_profile):
    scenario = Scenario(0.05, 0.3, 0.0)
    v_blue, value = brute_force_optimum(example_profile, scenario)
    assert v_blue == 0.0
    assert value == pytest.approx(objective(example_profile, scenario, 0.0), rel=1e-12)


def test_symmetric_case_finds_labor_split():
    profile = EconomyProfile(60.0, 40.0, 1.0, 1.5, 1.0)
    scenario = Scenario(0.2, 0.2, 20.0)
    config = OracleConfig(grid_points=100_001)
    v_blue, value = brute_force_optimum(profile, scenario, config)
    assert v_blue == pytest.approx(8.0, abs=config.step(20.0))
    assert value == pytest.approx(0.0, abs=1e-9 * 20.0)


def test_matches_closed_form_reference(example_profile):
    scenario = Scenario(0.05, 0.3, 20.0)
    config = OracleConfig(grid_points=100_001, refine=True)
    v_blue, _ = brute_force_optimum(example_profile, scenario, config)
    assert abs(v_blue - 8.4 / 0.69) <= config.refined_step(20.0)


def test_flat_objective_ties_break_to_smallest():
    # no dose leverage: the objective is constant, so the first grid point wins
    profile = EconomyProfile(60.0, 40.0, 1.0, 1.5, 1.0)
    v_blue, _ = brute_force_optimum(profile, Scenario(0.0, 0.0, 20.0))
    assert v_blue == 0.0


def test_refinement_never_increases_objective():
    rng = np.random.default_rng(111)
    for _ in range(100):
        profile = draw_profile(rng)
        scenario = draw_scenario(rng, profile)
        coarse = OracleConfig(grid_points=501, refine=False)
        refined = OracleConfig(grid_points=501, refine=True)
        _, coarse_value = brute_force_optimum(profile, scenario, coarse)
        _, refined_value = brute_force_optimum(profile, scenario, refined)
        assert refined_value <= coarse_value


def test_refined_argmin_matches_closed_form():
    rng = np.random.default_rng(222)
    config = OracleConfig(grid_points=10_001, refine=True)
    for _ in range(100):
        profile = draw_profile(rng, labor_range=(10.0, 1e6))
        scenario = draw_scenario(rng, profile, coverage_range=(0.05, 0.9))
        result = solve(profile, scenario)
        v_blue, value = brute_force_optimum(profile, scenario, config)
        assert abs(v_blue - result.v_blue_star) <= config.refined_step(scenario.vaccines)
        assert result.objective <= value + 1e-12 * (
            profile.alpha_white * profile.labor_white
            + profile.alpha_blue * profile.labor_blue
        )


def test_deterministic_for_fixed_inputs(example_profile):
    scenario = Scenario(0.17, 0.42, 33.0)
    first = brute_force_optimum(example_profile, scenario)
    second = brute_force_optimum(example_profile, scenario)
    assert first == second
