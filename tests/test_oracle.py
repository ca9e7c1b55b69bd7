import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from vaxalloc.oracle import MAX_ORACLE_POINTS, _golden_section


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


def _whole_array_optimum(profile, scenario, config):
    """brute_force_optimum as a scan: every step one array over the whole grid."""
    vaccines = scenario.vaccines
    beta_b, beta_w = scenario.beta_blue, scenario.beta_white
    gamma = profile.gamma
    labor_b, labor_w = profile.labor_blue, profile.labor_white
    alpha_b, alpha_w = profile.alpha_blue, profile.alpha_white
    dose_value_w = 1.0 - gamma * (1.0 - beta_w)

    def objective_at(v_blue):
        eff_b = (1.0 - beta_b) * labor_b + beta_b * v_blue
        eff_w = (1.0 - beta_w) * gamma * labor_w + dose_value_w * (vaccines - v_blue)
        return abs(alpha_b * eff_b - alpha_w * eff_w)

    if vaccines == 0.0:
        return 0.0, objective_at(0.0)
    grid = np.linspace(0.0, vaccines, config.grid_points)
    eff_b = (1.0 - beta_b) * labor_b + beta_b * grid
    eff_w = (1.0 - beta_w) * gamma * labor_w + dose_value_w * (vaccines - grid)
    values = np.abs(alpha_b * eff_b - alpha_w * eff_w)
    index = int(np.argmin(values))
    best_v = float(grid[index])
    best_value = float(values[index])
    if config.refine:
        low = float(grid[max(index - 1, 0)])
        high = float(grid[min(index + 1, config.grid_points - 1)])
        refined_v = _golden_section(objective_at, low, high, config.refined_step(vaccines))
        refined_value = objective_at(refined_v)
        if refined_value < best_value or (refined_value == best_value and refined_v < best_v):
            best_v, best_value = refined_v, refined_value
    return best_v, best_value


def _assert_same_as_whole_array(profile, scenario, config):
    with np.errstate(over="ignore", invalid="ignore"):
        got = brute_force_optimum(profile, scenario, config)
        want = _whole_array_optimum(profile, scenario, config)
    for a, b in zip(got, want):
        assert a == b or (math.isnan(a) and math.isnan(b)), (profile, scenario, config, got, want)
    return got


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("points", [3, 8191, 8192, 8193, 16385, 100_001, MAX_ORACLE_POINTS,
                                    15_999, 16_000, 16_001, 32_001])
def test_blocked_grid_equals_whole_array(points, refine, example_profile):
    for scenario in (Scenario(0.05, 0.3, 20.0), Scenario(0.17, 0.42, 33.0)):
        _assert_same_as_whole_array(example_profile, scenario, OracleConfig(points, refine))


@pytest.mark.parametrize("refine", [False, True])
def test_blocked_grid_equals_whole_array_at_the_ends_and_a_block_edge(refine, example_profile):
    # AllWhite: argmin at the first point; AllBlue: at the last.
    for scenario, v_blue in ((Scenario(0.9, 0.05, 20.0), 0.0), (Scenario(0.05, 0.9, 20.0), 20.0)):
        config = OracleConfig(20_001, refine)
        assert _assert_same_as_whole_array(example_profile, scenario, config)[0] == v_blue
    # Step 1.0 and the root at v = 0.4 V, exactly on a grid point: 8192 or 16,000.
    profile = EconomyProfile(60_000.0, 40_000.0, 1.0, 1.5, 1.0)
    for root in (8192, 16_000):
        v_blue, _ = _assert_same_as_whole_array(profile, Scenario(0.2, 0.2, 2.5 * root),
                                                OracleConfig(int(2.5 * root) + 1, refine))
        if not refine:
            assert v_blue == root


@pytest.mark.parametrize("refine", [False, True])
def test_blocked_grid_keeps_first_point_of_a_flat_objective(refine):
    # gamma = 1 and beta = 0: every grid point ties, in every block.
    profile = EconomyProfile(60.0, 40.0, 1.0, 1.5, 1.0)
    config = OracleConfig(100_001, refine)
    assert _assert_same_as_whole_array(profile, Scenario(0.0, 0.0, 20.0), config)[0] == 0.0


@pytest.mark.parametrize("refine", [False, True])
def test_blocked_grid_keeps_first_nan_of_an_overflowing_profile(refine):
    config = OracleConfig(100_001, refine)
    profile = EconomyProfile(1e308, 1e308, 1e308, 1e308, 0.8)
    v_blue, value = _assert_same_as_whole_array(profile, Scenario(0.3, 0.6, 1e307), config)
    assert v_blue == 0.0 and math.isnan(value)
    # The white term is inf everywhere and the blue one overflows from
    # v = 1.7977e307 (index 17,977, the third block) on: inf before, nan after.
    profile = EconomyProfile(1e308, 1e307, 10.0, 10.0, 1.0)
    v_blue, value = _assert_same_as_whole_array(profile, Scenario(0.0, 1.0, 1e308), config)
    assert v_blue == 1.7977e307 and math.isnan(value)


@pytest.mark.parametrize("refine", [False, True])
def test_blocked_grid_equals_whole_array_when_the_step_underflows(refine):
    # V / (grid_points - 1) == 0, so linspace takes its subnormal branch and
    # point i is (i / div) * V.  The root sits at V / 2, so a grid of zeros
    # (i * step) would return 0.0 instead.
    profile = EconomyProfile(60.0, 40.0, 1.0, 1.0, 1.0)
    scenario = Scenario(1.0, 1.0, 1e-320)
    config = OracleConfig(100_001, refine)
    assert config.step(scenario.vaccines) == 0.0
    v_blue, value = _assert_same_as_whole_array(profile, scenario, config)
    assert v_blue == 5e-321 and value == 0.0


@settings(max_examples=50, deadline=None, database=None)
@given(
    labor=st.tuples(st.floats(1.0, 1e9), st.floats(1.0, 1e9)),
    alpha=st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
    gamma=st.floats(1e-3, 1.0),
    betas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    coverage=st.floats(0.0, 0.999),
    points=st.integers(3, 40_000),
    refine=st.booleans(),
)
def test_blocked_grid_equals_whole_array_property(labor, alpha, gamma, betas, coverage, points,
                                                  refine):
    profile = EconomyProfile(*labor, *alpha, gamma)
    scenario = Scenario(*betas, coverage * profile.total_labor)
    _assert_same_as_whole_array(profile, scenario, OracleConfig(points, refine))


def test_exact_tie_goes_to_the_smaller_v_blue():
    # gap = 2 v - 14 on the grid 0, 2, 4, 6, 8: -2.0 at v = 6 and +2.0 at v = 8.
    profile = EconomyProfile(60, 40, 1, 2, 1)
    config = OracleConfig(5, refine=False)
    assert _assert_same_as_whole_array(profile, Scenario(0.5, 0.75, 8.0), config) == (6.0, 2.0)


@pytest.mark.parametrize("points", [100_001, MAX_ORACLE_POINTS])
def test_oracle_allocates_no_grid_sized_temporaries(points, example_profile):
    # The grid would be 0.76 MiB at 100,001 points and 7.6 MiB at the cap; the
    # bisection holds a few floats and closures instead, whatever the size.
    scenario = Scenario(0.05, 0.3, 20.0)
    config = OracleConfig(points)
    brute_force_optimum(example_profile, scenario, config)
    tracemalloc.start()
    try:
        brute_force_optimum(example_profile, scenario, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**10
