import math

import numpy as np
import pytest

from conftest import labor_scale
from vaxalloc import (
    GridSpec,
    ModelInputError,
    OracleConfig,
    Scenario,
    SweepGrid,
    builtin_dataset_path,
    brute_force_optimum,
    calibrate,
    crossing_point,
    frontier_curve,
    load_countries,
    solve,
    sweep_matrix,
    threshold_share,
)
from vaxalloc import sweep
from vaxalloc.cli import main
from vaxalloc.model import CLAMPS
from vaxalloc.sweep import MAX_GRID_POINTS


@pytest.fixture(scope="module")
def countries():
    return {r.country_code: r for r in load_countries(builtin_dataset_path())}


class TestGridSpec:
    def test_default_lattice(self):
        values = GridSpec().values()
        assert len(values) == 19
        assert values[0] == 0.05
        assert values[-1] == 0.95
        assert values[2] == 0.15  # rounding keeps lattice values clean

    def test_custom_lattice_stays_below_max(self):
        values = GridSpec(0.05, 0.93, 0.05).values()
        assert values[-1] == 0.9

    def test_rejects_bad_ranges(self):
        with pytest.raises(ModelInputError):
            GridSpec(0.5, 0.4, 0.05)
        with pytest.raises(ModelInputError):
            GridSpec(0.05, 0.95, 0.0)
        with pytest.raises(ModelInputError):
            GridSpec(0.05, 0.95, 2.0)  # single point
        with pytest.raises(ModelInputError):
            GridSpec(-0.1, 0.95, 0.05)

    def test_rejects_lattice_beyond_cap_without_building_it(self, monkeypatch):
        def no_lattice(self):
            raise AssertionError("lattice built before its size was checked")

        monkeypatch.setattr(GridSpec, "values", no_lattice)
        assert GridSpec(0.0, 1.0, 0.0005).points == MAX_GRID_POINTS == 2001
        for step in (0.00049, 1e-9, 5e-324):
            with pytest.raises(ModelInputError, match="more than 2001 points"):
                GridSpec(0.0, 1.0, step)


class TestLatticeCache:
    def test_summarize_builds_its_lattice_once(self, tmp_path):
        caches = (sweep._lattice, sweep._riskier_blue)
        for cache in caches:
            cache.cache_clear()
        argv = ["summarize", "--beta-step", "0.01", "--v-over-l", "0.2,0.4,0.6",
                "--output", str(tmp_path / "summary.csv")]
        assert main(argv) == 0
        assert (tmp_path / "summary.csv").read_text().count("\n") == 1 + 7 * 3
        assert [cache.cache_info().misses for cache in caches] == [1, 1]

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
    def test_equal_grids_keep_their_own_lattices(self, order):
        grids = (GridSpec(0, 1, 1), GridSpec(0.0, 1.0, 1.0), GridSpec(-0.0, 1.0, 1.0))
        assert grids[0] == grids[1] == grids[2]
        sweep._lattice.cache_clear()
        values = {k: grids[k].values() for k in order}
        assert [type(v) for v in values[0]] == [int, int]
        # -0.0 + 0 * step is 0.0, so a -0.0 start may share the 0.0 entry
        assert [(type(v), math.copysign(1.0, v)) for v in values[1] + values[2]] == [
            (float, 1.0)] * 4

    def test_shared_lattice_and_mask_are_read_only(self):
        lattice = GridSpec().values()
        assert isinstance(lattice, tuple) and GridSpec().values() is lattice
        mask, considered = sweep._riskier_blue(lattice, lattice)
        assert considered == 19 * 18 // 2
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 1] = False


class TestFrontierCurve:
    def test_passes_through_crossing_for_every_stock(self, countries):
        profile = calibrate(countries["XD"], gamma=0.8)
        beta_white = 0.05
        cross = crossing_point(beta_white, 0.8)  # 0.24, on a step-0.04 lattice
        grid = GridSpec(0.04, 0.96, 0.04)
        for v_over_l in (0.2, 0.4, 0.6):
            curve = dict(frontier_curve(profile, beta_white, v_over_l, grid))
            assert curve[cross] == pytest.approx(profile.blue_share, abs=1e-9)

    def test_nondecreasing_in_blue_risk(self, countries):
        for record in countries.values():
            profile = calibrate(record, gamma=0.8)
            for beta_white in (0.05, 0.25):
                curve = frontier_curve(profile, beta_white, 0.2)
                ratios = [ratio for _, ratio in curve]
                assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_ratios_lie_in_unit_interval(self, countries):
        profile = calibrate(countries["XA"], gamma=0.8)
        for _, ratio in frontier_curve(profile, 0.25, 0.4):
            assert 0.0 <= ratio <= 1.0

    def test_saturates_when_blue_risk_dominates(self, countries):
        profile = calibrate(countries["XD"], gamma=0.8)
        curve = dict(frontier_curve(profile, 0.05, 0.2))
        assert curve[0.95] == 1.0

    def test_rejects_bad_coverage(self, countries):
        profile = calibrate(countries["XA"], gamma=0.8)
        with pytest.raises(ModelInputError):
            frontier_curve(profile, 0.05, 0.0)


class TestSweepMatrix:
    def test_covers_every_lattice_cell(self, countries):
        profile = calibrate(countries["XB"], gamma=0.8)
        grid = GridSpec(0.1, 0.9, 0.2)
        result = sweep_matrix(profile, 0.2, grid)
        lattice = grid.values()
        assert set(result.cells) == {(w, b) for w in lattice for b in lattice}
        assert result.vaccines == pytest.approx(0.2 * profile.total_labor, rel=1e-15)

    def test_cells_match_direct_solve(self, countries):
        profile = calibrate(countries["XF"], gamma=0.8)
        grid = GridSpec(0.1, 0.9, 0.4)
        result = sweep_matrix(profile, 0.3, grid)
        for (beta_w, beta_b), cell in result.cells.items():
            direct = solve(profile, Scenario(beta_w, beta_b, result.vaccines))
            assert cell == direct

    def test_parallel_equals_serial(self, countries):
        profile = calibrate(countries["XC"], gamma=0.8)
        serial = sweep_matrix(profile, 0.4, workers=1)
        parallel = sweep_matrix(profile, 0.4, workers=2)
        assert serial.cells == parallel.cells

    def test_sampled_cells_match_oracle(self, countries):
        profile = calibrate(countries["XE"], gamma=0.8)
        result = sweep_matrix(profile, 0.2)
        keys = sorted(result.cells)
        rng = np.random.default_rng(333)
        sample = rng.choice(len(keys), size=max(1, len(keys) // 20), replace=False)
        config = OracleConfig(grid_points=10_001, refine=True)
        for index in sample:
            beta_w, beta_b = keys[index]
            cell = result.cells[(beta_w, beta_b)]
            scenario = Scenario(beta_w, beta_b, result.vaccines)
            oracle_v, oracle_objective = brute_force_optimum(profile, scenario, config)
            assert cell.objective <= oracle_objective + 1e-9 * labor_scale(profile)
            assert abs(cell.v_blue_star - oracle_v) <= config.refined_step(result.vaccines)


class TestThresholdShare:
    def test_all_blue_sweep_saturates_every_threshold(self, countries):
        # near-zero stock with blue risk above the crossing everywhere: every
        # above-diagonal cell clamps to AllBlue
        profile = calibrate(countries["XD"], gamma=0.8)
        grid = GridSpec(0.55, 0.95, 0.1)
        result = sweep_matrix(profile, 0.001, grid)
        for threshold in (0.1, 0.5, 0.9):
            summary = threshold_share(result, threshold)
            assert summary.share_exceeding == 1.0

    def test_mid_telework_profile_share_band(self, countries):
        profile = calibrate(countries["XD"], gamma=0.8)  # telework share 0.41
        summary = threshold_share(sweep_matrix(profile, 0.2), 0.66)
        assert summary.cells_considered == 171
        assert summary.share_exceeding == pytest.approx(126 / 171, abs=1e-12)
        assert 0.70 < summary.share_exceeding < 0.80

    def test_half_threshold_high_across_stocks(self, countries):
        # every profile except the most telework-heavy keeps >= 80% of the
        # riskier-blue-collar cells above a 0.5 dose share
        highest = max(countries.values(), key=lambda r: r.telework_share)
        for record in countries.values():
            if record is highest:
                continue
            profile = calibrate(record, gamma=0.8)
            for v_over_l in (0.2, 0.4, 0.6):
                summary = threshold_share(sweep_matrix(profile, v_over_l), 0.5)
                assert summary.share_exceeding >= 0.80

    def test_nonincreasing_in_threshold(self, countries):
        profile = calibrate(countries["XB"], gamma=0.8)
        result = sweep_matrix(profile, 0.4)
        shares = [
            threshold_share(result, threshold).share_exceeding
            for threshold in (0.1, 0.3, 0.5, 0.66, 0.8, 0.9)
        ]
        assert all(b <= a for a, b in zip(shares, shares[1:]))

    def test_share_rises_with_blue_collar_weight(self, countries):
        records = sorted(countries.values(), key=lambda r: 1 - r.telework_share)
        shares = []
        for record in records:
            profile = calibrate(record, gamma=0.8)
            shares.append(threshold_share(sweep_matrix(profile, 0.6), 0.66).share_exceeding)
        assert all(b >= a for a, b in zip(shares, shares[1:]))

    def test_high_telework_profiles_have_more_low_ratio_cells(self, countries):
        def low_ratio_cells(record):
            profile = calibrate(record, gamma=0.8)
            result = sweep_matrix(profile, 0.6)
            return sum(
                1
                for (beta_w, beta_b), cell in result.cells.items()
                if beta_b > beta_w and cell.v_blue_star / result.vaccines <= 0.5
            )

        assert low_ratio_cells(countries["XG"]) > low_ratio_cells(countries["XA"])

    def test_rejects_grid_without_riskier_blue_cells(self, countries):
        profile = calibrate(countries["XA"], gamma=0.8)
        cell = solve(profile, Scenario(0.5, 0.3, 10.0))
        lonely = SweepGrid(
            spec=GridSpec(), v_over_l=0.2, vaccines=10.0, profile=profile,
            beta_white=(0.5,), beta_blue=(0.3,),
            v_blue_star=np.array([[cell.v_blue_star]]),
            clamp=np.array([[CLAMPS.index(cell.clamp)]]),
        )
        with pytest.raises(ModelInputError, match="grid too small"):
            threshold_share(lonely, 0.66)

    def test_rejects_out_of_range_threshold(self, countries):
        profile = calibrate(countries["XA"], gamma=0.8)
        result = sweep_matrix(profile, 0.2, GridSpec(0.1, 0.9, 0.4))
        for threshold in (0.0, 1.0):
            with pytest.raises(ModelInputError):
                threshold_share(result, threshold)
