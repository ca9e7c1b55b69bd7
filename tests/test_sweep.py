import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import SIZE, crossing_point, labor_scale
from vaxalloc import (
    CountryRecord,
    EconomyProfile,
    GridSpec,
    ModelInputError,
    OracleConfig,
    Scenario,
    SweepGrid,
    builtin_dataset_path,
    brute_force_optimum,
    calibrate,
    load_countries,
    solve,
    sweep_matrices,
    sweep_matrix,
    threshold_share,
    threshold_shares,
)
from vaxalloc import sweep
from vaxalloc.cli import main
from vaxalloc.model import CLAMPS
from vaxalloc.sweep import MAX_GRID_POINTS


@pytest.fixture(scope="module")
def countries():
    return {r.country_code: r for r in load_countries(builtin_dataset_path())}


@st.composite
def _accepted_grids(draw):
    """GridSpecs of any bounds and 1 to 2000 steps, some a hair wider than an exact divisor."""
    beta_min = draw(st.floats(0.0, 1.0, exclude_max=True))
    beta_max = draw(st.floats(beta_min, 1.0, exclude_min=True))
    intervals = draw(st.one_of(st.floats(1.0, MAX_GRID_POINTS - 1.0),
                               st.integers(1, MAX_GRID_POINTS - 1).map(lambda n: n - n * 1e-11)))
    try:
        return GridSpec(beta_min, beta_max, (beta_max - beta_min) / intervals)
    except ModelInputError:  # a step that underflows, or rounds to one point
        assume(False)


class TestGridSpec:
    def test_default_lattice(self):
        values = GridSpec().values()
        assert len(values) == 19
        assert values[0] == 0.05
        assert values[-1] == 0.95
        assert values[2] == 0.15  # rounding keeps lattice values clean
        assert GridSpec(0.05, 0.93, 0.05).values()[-1] == 0.9

    @settings(max_examples=100, deadline=None)
    @given(grid=_accepted_grids())
    @example(grid=GridSpec(0.05, 0.93, 0.05))
    # the slack in points admits 1.00000000001 and 1.00000000005
    @example(grid=GridSpec(0.0, 1.0, 0.100000000001))
    @example(grid=GridSpec(5e-11, 1.0, 0.5))
    # rounding to 12 decimals lifts the last value to 0.61803398875
    @example(grid=GridSpec(0.0, 0.6180339887498949, 0.6180339887498949))
    # and lowers the first to 0.123456789012
    @example(grid=GridSpec(0.1234567890123456, 0.9, 0.1))
    def test_custom_lattice_stays_below_max(self, grid):
        values = grid.values()
        assert len(values) == grid.points
        assert list(values) == sorted(values)
        assert grid.beta_min <= values[0] and values[-1] <= grid.beta_max

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
    def test_summarize_builds_its_lattice_once(self, tmp_path, monkeypatch):
        # Every country's kernel calls read one risk axis and one selection of
        # riskier-blue index pairs, freed when the run ends.
        sweep._lattice.cache_clear()
        calls, real = [], sweep.stock_solver
        monkeypatch.setattr(sweep, "stock_solver", lambda profile, beta_white, beta_blue, cells: (
            calls.append((beta_white, beta_blue, *(index.base for index in cells)))
            or real(profile, beta_white, beta_blue, cells)))
        argv = ["summarize", "--beta-step", "0.01", "--v-over-l", "0.2,0.4,0.6",
                "--output", str(tmp_path / "summary.csv")]
        assert main(argv) == 0
        assert (tmp_path / "summary.csv").read_text().count("\n") == 1 + 7 * 3
        assert sweep._lattice.cache_info().misses == 1
        assert len(calls) == 7 and all(list(map(id, call)) == list(map(id, calls[0]))
                                       for call in calls)
        axis, _, rows, cols = calls[0]
        assert axis.shape == (91,) and rows.shape == cols.shape == (91 * 90 // 2,)
        selected = [weakref.ref(rows), weakref.ref(cols)]
        del axis, rows, cols
        calls.clear()  # the spy held the last references
        assert [ref() for ref in selected] == [None, None]

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

    def test_shared_lattice_is_read_only(self):
        lattice = GridSpec().values()
        assert isinstance(lattice, tuple) and GridSpec().values() is lattice


def _shares(row):
    """A frontier's (beta_blue, dose share) points, as the CLI writes them."""
    return list(zip(row.beta_blue, (row.v_blue_star[0] / row.vaccines).tolist()))


class TestFrontierCurve:
    def test_passes_through_crossing_for_every_stock(self, countries):
        profile = calibrate(countries["XD"], gamma=0.8)
        beta_white = 0.05
        cross = crossing_point(beta_white, 0.8)  # 0.24, on a step-0.04 lattice
        share = profile.labor_blue / profile.total_labor
        grid = GridSpec(0.04, 0.96, 0.04)
        for v_over_l in (0.2, 0.4, 0.6):
            row = next(sweep_matrices(profile, (v_over_l,), grid, (beta_white,)))
            curve = dict(_shares(row))
            assert curve[cross] == pytest.approx(share, abs=1e-9)

    def test_nondecreasing_in_blue_risk(self, countries):
        for record in countries.values():
            profile = calibrate(record, gamma=0.8)
            for beta_white in (0.05, 0.25):
                curve = _shares(next(sweep_matrices(profile, (0.2,), beta_white=(beta_white,))))
                ratios = [ratio for _, ratio in curve]
                assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_ratios_lie_in_unit_interval(self, countries):
        profile = calibrate(countries["XA"], gamma=0.8)
        for _, ratio in _shares(next(sweep_matrices(profile, (0.4,), beta_white=(0.25,)))):
            assert 0.0 <= ratio <= 1.0

    def test_saturates_when_blue_risk_dominates(self, countries):
        profile = calibrate(countries["XD"], gamma=0.8)
        curve = dict(_shares(next(sweep_matrices(profile, (0.2,), beta_white=(0.05,)))))
        assert curve[0.95] == 1.0

    def test_rejects_bad_coverage(self, countries):
        profile = calibrate(countries["XA"], gamma=0.8)
        with pytest.raises(ModelInputError):
            next(sweep_matrices(profile, (0.0,), beta_white=(0.05,)))


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

    def test_cells_of_a_lattice_with_repeated_risks_are_a_mapping(self, countries):
        profile = calibrate(countries["XB"], gamma=0.8)
        lattice = next(sweep_matrices(profile, (0.4,), GridSpec(0.1, 0.9, 0.4), (0.25, 0.0, 0.25)))
        cells = lattice.cells
        assert len(cells) == len(list(cells)) == len(dict(cells.items())) == 6
        assert list(cells)[::3] == [(0.25, 0.1), (0.0, 0.1)]  # first-seen order

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


class TestSweepMatrices:
    @pytest.mark.parametrize("gamma, grid", [(0.8, GridSpec()), (1.0, GridSpec(0.0, 1.0, 0.25))])
    def test_each_lattice_equals_sweep_matrix(self, countries, gamma, grid):
        profile = calibrate(countries["XC"], gamma=gamma)
        stocks = (0.6, 0.2, 0.4, 0.6)
        lattices = list(sweep_matrices(profile, stocks, grid))
        assert [lattice.v_over_l for lattice in lattices] == list(stocks)
        for lattice, v_over_l in zip(lattices, stocks):
            alone = sweep_matrix(profile, v_over_l, grid)
            assert (lattice.spec, lattice.vaccines, lattice.beta_white, lattice.beta_blue) == (
                alone.spec, alone.vaccines, alone.beta_white, alone.beta_blue)
            for got, want in ((lattice.v_blue_star, alone.v_blue_star),
                              (lattice.clamp, alone.clamp)):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                                 want.tobytes())
        assert lattices[0].v_blue_star is not lattices[-1].v_blue_star

    def test_validates_every_stock_before_solving(self, countries, monkeypatch):
        profile = calibrate(countries["XA"], gamma=0.8)

        def no_solve(*args):
            raise AssertionError("solved before every stock was validated")

        monkeypatch.setattr(sweep, "stock_solver", no_solve)
        with pytest.raises(ModelInputError, match="v_over_l"):
            next(sweep_matrices(profile, (0.2, 1.5)))

    def test_validates_every_white_risk_when_called(self, countries, monkeypatch):
        profile = calibrate(countries["XA"], gamma=0.8)
        monkeypatch.setattr(sweep, "stock_solver", None)  # solving would raise TypeError
        with pytest.raises(ModelInputError, match=r"beta_white must lie in \[0, 1\], got 1\.5$"):
            sweep_matrices(profile, (0.4,), GridSpec(), (0.1, 1.5, -3.0))

    def test_checks_each_risk_at_the_first_stock_only(self, countries, monkeypatch):
        # s stocks and k risks take s + k - 1 scenarios: the first stock with every
        # risk, then each later stock with the first risk.  A full grid, whose risks
        # GridSpec checked, checks its stocks at white-collar risk 0.0.
        profile = calibrate(countries["XA"], gamma=0.8)
        builds, real = [], Scenario.__post_init__
        monkeypatch.setattr(Scenario, "__post_init__",
                            lambda scenario: builds.append(scenario) or real(scenario))
        for stocks, risks in (((0.2, 0.4, 0.6), (0.1, 0.2, 0.3, 0.4)), ((0.4,), (0.5,)),
                              ((0.6, 0.2), None)):
            builds.clear()
            sweep_matrices(profile, stocks, GridSpec(), risks)
            risks = risks or (0.0,)
            assert [(scenario.beta_white, scenario.vaccines) for scenario in builds] == [
                (beta_w, stocks[0] * profile.total_labor) for beta_w in risks] + [
                (risks[0], v_over_l * profile.total_labor) for v_over_l in stocks[1:]]

    def test_reports_the_first_bad_pair_in_row_order(self, countries):
        # (stock, risk) pairs in row order: (0.2, 0.1), (0.2, 1.5), (2.0, 0.1), ...
        profile = calibrate(countries["XA"], gamma=0.8)
        with pytest.raises(ModelInputError, match=r"got 1\.5$"):
            sweep_matrices(profile, (0.2, 2.0), GridSpec(), (0.1, 1.5))
        with pytest.raises(ModelInputError, match=r"v_over_l must lie in \(0, 1\), got 2\.0$"):
            sweep_matrices(profile, (2.0, 0.2), GridSpec(), (0.1, 1.5))

    def test_caps_the_white_collar_axis(self, countries):
        profile = calibrate(countries["XA"], gamma=0.8)
        grid = GridSpec(0.1, 0.9, 0.4)
        lattice = next(sweep_matrices(profile, (0.4,), grid, (0.5,) * MAX_GRID_POINTS))
        assert lattice.v_blue_star.shape == (MAX_GRID_POINTS, 3)
        for risks in ((0.5,) * (MAX_GRID_POINTS + 1), ()):
            with pytest.raises(ModelInputError, match=f"1 to {MAX_GRID_POINTS} risks"):
                sweep_matrices(profile, (0.4,), grid, risks)

    def test_frontier_rows_keep_the_given_order(self, countries):
        profile = calibrate(countries["XB"], gamma=1.0)
        grid = GridSpec(0.0, 1.0, 0.25)
        risks = (0.25, 0.0, 0.25, 1.0)
        for lattice in sweep_matrices(profile, (0.3, 0.7), grid, risks):
            assert lattice.beta_white == risks
            for i, beta_w in enumerate(risks):
                alone = next(sweep_matrices(profile, (lattice.v_over_l,), grid, (beta_w,)))
                assert lattice.v_blue_star[i].tobytes() == alone.v_blue_star[0].tobytes()
                assert lattice.clamp[i].tobytes() == alone.clamp[0].tobytes()


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


def _outcome(summaries):
    """(share, cells) per summary, or the message of the ModelInputError raised."""
    try:
        return [(s.share_exceeding, s.cells_considered) for s in summaries()]
    except ModelInputError as exc:
        return str(exc)


@st.composite
def _grids(draw):
    beta_min = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.95)))
    beta_max = draw(st.one_of(st.just(1.0), st.floats(beta_min, 1.0, exclude_min=True)))
    step = (beta_max - beta_min) / draw(st.floats(1.0, 40.0))
    try:
        return GridSpec(beta_min, beta_max, step)
    except ModelInputError:  # a step that underflows, or rounds to one point
        return GridSpec(0.0, 1.0, 0.25)


class TestThresholdShares:
    @settings(max_examples=40, deadline=None)
    @given(
        records=st.lists(st.tuples(st.floats(1.0, 1e9), st.floats(0.01, 0.99)),
                         min_size=1, max_size=3),
        gamma=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        grid=_grids(),
        stocks=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                        min_size=1, max_size=3),
        threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        block=st.sampled_from([7, sweep._BLOCK]),
    )
    # degenerate cells: beta = 0 on both axes at gamma = 1
    @example(records=[(1000.0, 0.3), (2e6, 0.45)], gamma=1.0, grid=GridSpec(0.0, 1.0, 0.25),
             stocks=[0.2, 0.95], threshold=0.3, block=7)
    # values that all round to one risk: no riskier-blue cell
    @example(records=[(1000.0, 0.3)], gamma=0.8, grid=GridSpec(0.5, 0.5 + 1e-14, 1e-15),
             stocks=[0.2], threshold=0.5, block=sweep._BLOCK)
    def test_each_summary_equals_threshold_share_of_the_full_lattice(
        self, records, gamma, grid, stocks, threshold, block
    ):
        # Profile-major: the summaries of several profiles are each profile's concatenated.
        # The reference checks every profile's stocks before the first threshold_share.
        profiles = [calibrate(CountryRecord("XX", *record), gamma) for record in records]
        expected = _outcome(lambda: [threshold_share(lattice, threshold) for lattices in
                                     [sweep_matrices(profile, stocks, grid) for profile in profiles]
                                     for lattice in lattices])
        saved, sweep._BLOCK = sweep._BLOCK, block
        try:
            assert _outcome(lambda: threshold_shares(profiles, stocks, grid, threshold)) == expected
            assert _outcome(lambda: [summary for profile in profiles for summary in
                                     threshold_shares([profile], stocks, grid, threshold)]
                            ) == expected
        finally:
            sweep._BLOCK = saved

    @settings(max_examples=40, deadline=None)
    @given(
        labor=st.tuples(SIZE, SIZE),
        alpha=st.tuples(SIZE, SIZE),
        gamma=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
        grid=_grids(),
        stocks=st.lists(st.one_of(st.just(5e-324), st.floats(0.0, 1.0, exclude_min=True,
                                                             exclude_max=True)),
                        min_size=1, max_size=3),
        threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        block=st.sampled_from([7, sweep._BLOCK]),
    )
    # 5e-324 * 0.25 underflows to 0: two degenerate riskier-blue cells in row 0,
    # whose split is a share of exactly 0.5
    @example(labor=(1.0, 1.0), alpha=(1.0, 5e-324), gamma=1.0, grid=GridSpec(0.0, 1.0, 0.25),
             stocks=[0.3], threshold=0.49, block=7)
    @example(labor=(1.0, 1.0), alpha=(1.0, 5e-324), gamma=1.0, grid=GridSpec(0.0, 1.0, 0.25),
             stocks=[0.3], threshold=0.5, block=7)
    @example(labor=(1.0, 1.0), alpha=(1.0, 5e-324), gamma=1.0, grid=GridSpec(0.0, 1.0, 0.25),
             stocks=[0.3], threshold=0.51, block=7)
    # row 0's roots overflow to inf: AllBlue, so counted
    @example(labor=(2.0, 1.0), alpha=(1.0, 1e-300), gamma=1.0, grid=GridSpec(0.0, 1e-9, 1e-10),
             stocks=[0.5 / 3.0], threshold=0.5, block=7)
    # a stock of 5e-324 * L: a root above it has a share that overflows to inf
    @example(labor=(60.0, 40.0), alpha=(1.0, 1.5), gamma=0.8, grid=GridSpec(0.0, 1.0, 0.25),
             stocks=[5e-324], threshold=0.5, block=7)
    # both risks round to 0.0, so no riskier-blue cell, and the second stock to no dose:
    # every stock is checked before the first lattice is counted
    @example(labor=(0.5, 6.712945057292303e-223), alpha=(1.0, 1.0), gamma=1.0,
             grid=GridSpec(0.0, 1.401298464324817e-45, 1.401298464324817e-45),
             stocks=[0.5, 5e-324], threshold=0.5, block=7)
    def test_uncalibrated_profiles_count_as_their_full_lattices(
        self, labor, alpha, gamma, grid, stocks, threshold, block
    ):
        # Degenerate riskier-blue cells and roots far outside [0, V], which
        # calibrated profiles never have: the unclamped count must still agree.
        profile = EconomyProfile(*labor, *alpha, gamma)
        expected = _outcome(lambda: [threshold_share(lattice, threshold)
                                     for lattice in sweep_matrices(profile, stocks, grid)])
        saved, sweep._BLOCK = sweep._BLOCK, block
        try:
            assert _outcome(lambda: threshold_shares([profile], stocks, grid, threshold)) == expected
        finally:
            sweep._BLOCK = saved

    def test_degenerate_cells_count_by_their_split(self):
        profile = EconomyProfile(1.0, 1.0, 1.0, 5e-324, 1.0)  # row 0 has two, at share 0.5
        shares = [summary.share_exceeding for threshold in (0.49, 0.5, 0.51)
                  for summary in threshold_shares([profile], [0.3], GridSpec(0.0, 1.0, 0.25),
                                                  threshold)]
        assert shares == [1.0, 0.8, 0.8]

    def test_checks_stocks_then_threshold_before_gathering(self, countries, monkeypatch):
        monkeypatch.setattr(sweep, "_riskier_blue", None)  # gathering would raise TypeError
        profile = calibrate(countries["XA"], gamma=0.8)
        lonely = GridSpec(0.5, 0.5 + 1e-14, 1e-15)  # its values all round to 0.5
        with pytest.raises(ModelInputError, match=r"v_over_l must lie in \(0, 1\), got 0\.0$"):
            threshold_shares([profile], (0.2, 0.0), lonely, 1.5)
        # 5e-324 of XA's workforce is a dose, of the second profile's none
        tiny = calibrate(CountryRecord("XT", 1e-300, 0.5), gamma=0.8)
        with pytest.raises(ModelInputError, match=r"1e-300 rounds to 0 vaccines$"):
            threshold_shares([profile, tiny], (0.2, 5e-324), lonely, 1.5)
        with pytest.raises(ModelInputError, match=r"threshold must lie in \(0, 1\), got 1\.5$"):
            threshold_shares([profile, tiny], (0.2,), lonely, 1.5)
        monkeypatch.undo()
        with pytest.raises(ModelInputError, match="grid too small"):
            threshold_shares([profile], (0.2,), lonely, 0.5)

    def test_a_stock_generator_reaches_every_profile(self, countries):
        profiles = [calibrate(countries[code], gamma=0.8) for code in ("XA", "XG")]
        stocks = (0.2, 0.4, 0.6)
        summaries = list(threshold_shares(profiles, (v for v in stocks), GridSpec(), 0.66))
        assert summaries == list(threshold_shares(profiles, stocks, GridSpec(), 0.66))
        assert len(summaries) == 6 and summaries[3:] != summaries[:3]

    def test_a_share_equal_to_the_threshold_is_not_counted(self, countries):
        profile = calibrate(countries["XD"], gamma=0.8)
        lattice = sweep_matrix(profile, 0.2)
        shares = (lattice.v_blue_star / lattice.vaccines)[
            np.less.outer(lattice.beta_white, lattice.beta_blue)]
        interior = np.sort(shares[(0.0 < shares) & (shares < 1.0)])
        threshold = float(interior[interior.size // 2])
        assert np.count_nonzero(shares == threshold) > 0
        expected = np.count_nonzero(shares > threshold) / shares.size
        for summary in (threshold_share(lattice, threshold),
                        *threshold_shares([profile], (0.2,), GridSpec(), threshold)):
            assert summary.share_exceeding == expected

    def test_memory_stays_below_a_lattice_solve_and_nothing_outlives_the_call(
        self, countries, monkeypatch
    ):
        profile = calibrate(countries["XA"], gamma=0.8)
        grid = GridSpec(0.0, 1.0, 0.001)
        assert grid.points == 1001 and len(grid.values()) == 1001  # the lattice tuple is cached
        peaks = []
        for run in (lambda: sweep_matrix(profile, 0.4, grid),
                    lambda: list(threshold_shares([profile], (0.4,), grid, 0.66))):
            tracemalloc.start()
            try:
                run()
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] <= 1.25 * peaks[0]
        assert retained < 2**18  # the lattice's riskier-blue mask alone is 0.96 MiB
        # A suspended iterator holds the riskier-blue index pairs, two intp per
        # cell, but no kernel arrays, and they go with it.
        gathered, real = [], sweep.stock_solver
        monkeypatch.setattr(sweep, "stock_solver", lambda profile, beta_white, beta_blue, cells: (
            gathered.append(weakref.ref(cells[0].base)) or real(profile, beta_white, beta_blue,
                                                                 cells)))
        tracemalloc.start()
        try:
            summaries = threshold_shares([profile, profile], (0.2, 0.4), grid, 0.66)
            next(summaries)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 * 8 * (1001 * 1000 // 2) + 2**18
        assert gathered[0]() is not None
        del summaries
        assert gathered[0]() is None
