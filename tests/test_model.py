import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (RISK, SIZE, crossing_point, draw_profile, draw_scenario, labor_scale,
                      partials, shifted_root)
from vaxalloc import (
    Clamp,
    CountryRecord,
    EconomyProfile,
    GridSpec,
    ModelInputError,
    Scenario,
    brute_force_optimum,
    builtin_dataset_path,
    calibrate,
    effective_labor,
    load_countries,
    objective,
    solve,
)
from vaxalloc import model
from vaxalloc.model import CLAMPS, degenerate_cells, stock_solver
from vaxalloc.oracle import OracleConfig


class TestValidation:
    def test_profile_rejects_nonpositive_labor(self):
        with pytest.raises(ModelInputError):
            EconomyProfile(0.0, 40.0, 1.0, 1.5, 0.8)
        with pytest.raises(ModelInputError):
            EconomyProfile(60.0, -1.0, 1.0, 1.5, 0.8)

    def test_profile_rejects_bad_gamma(self):
        for gamma in (0.0, -0.2, 1.5):
            with pytest.raises(ModelInputError):
                EconomyProfile(60.0, 40.0, 1.0, 1.5, gamma)

    def test_scenario_rejects_bad_betas(self):
        with pytest.raises(ModelInputError):
            Scenario(-0.1, 0.5, 10.0)
        with pytest.raises(ModelInputError):
            Scenario(0.1, 1.5, 10.0)

    def test_scenario_rejects_negative_vaccines(self):
        with pytest.raises(ModelInputError):
            Scenario(0.1, 0.5, -1.0)

    def test_vaccines_must_stay_below_total_labor(self, example_profile):
        with pytest.raises(ModelInputError):
            solve(example_profile, Scenario(0.1, 0.5, 100.0))

    def test_with_coverage_requires_fraction(self, example_profile):
        for bad in (0.0, 1.0, 1.3):
            with pytest.raises(ModelInputError):
                Scenario.with_coverage(example_profile, 0.1, 0.5, bad)

    def test_with_coverage_rejects_a_stock_that_rounds_to_zero(self):
        tiny = EconomyProfile(1e-300, 1e-300, 1.0, 1.0, 0.5)
        with pytest.raises(ModelInputError, match="v_over_l 5e-324 .* rounds to 0 vaccines"):
            Scenario.with_coverage(tiny, 0.1, 0.5, 5e-324)
        assert Scenario.with_coverage(tiny, 0.1, 0.5, 1e-10).vaccines == 2e-310

    def test_solve_checks_the_pair_once_and_public_helpers_still_check(
        self, example_profile, monkeypatch
    ):
        calls = []
        check = model._check_pair
        monkeypatch.setattr(model, "_check_pair", lambda *pair: calls.append(pair) or check(*pair))
        solve(example_profile, Scenario(0.1, 0.5, 20.0))
        assert len(calls) == 1
        too_many = Scenario(0.1, 0.5, 100.0)
        for public in (lambda p, s: effective_labor(p, s, 0.0), lambda p, s: objective(p, s, 0.0)):
            with pytest.raises(ModelInputError):
                public(example_profile, too_many)


class TestEffectiveLabor:
    def test_reference_scenario(self, example_profile):
        eff_blue, eff_white = effective_labor(
            example_profile, Scenario(0.05, 0.3, 20.0), 0.0
        )
        assert eff_blue == pytest.approx(28.0, rel=1e-12)
        assert eff_white == pytest.approx(0.76 * 60 + 0.24 * 20, rel=1e-12)

    def test_no_shock_means_no_losses(self):
        profile = EconomyProfile(60.0, 40.0, 1.0, 1.5, 1.0)
        for v_blue in (0.0, 7.5, 20.0):
            eff_blue, eff_white = effective_labor(profile, Scenario(0.0, 0.0, 20.0), v_blue)
            assert eff_blue == 40.0
            assert eff_white == 60.0

    def test_full_blue_infection_leaves_only_vaccinated(self, example_profile):
        eff_blue, _ = effective_labor(example_profile, Scenario(0.05, 1.0, 20.0), 20.0)
        assert eff_blue == pytest.approx(20.0, rel=1e-12)

    def test_rejects_allocation_outside_stock(self, example_profile):
        scenario = Scenario(0.05, 0.3, 20.0)
        for function, (v_blue, shown) in itertools.product(
                (effective_labor, objective),
                ((math.nan, "nan"), (-0.5, "-0.5"), (20.5, "20.5"))):
            with pytest.raises(ModelInputError, match=rf"^v_blue \({shown}\) outside the "
                                                      r"feasible range \[0, 20\.0\]$"):
                function(example_profile, scenario, v_blue)


class TestObjective:
    def test_reference_scenario(self, example_profile):
        value = objective(example_profile, Scenario(0.05, 0.3, 20.0), 0.0)
        assert value == pytest.approx(abs(1.5 * 28 - 50.4), rel=1e-12)

    def test_symmetric_shrinkage_restores_balance(self):
        profile = EconomyProfile(60.0, 40.0, 1.0, 1.5, 1.0)
        scenario = Scenario(0.2, 0.2, 20.0)
        balanced_split = 20.0 * profile.labor_blue / profile.total_labor
        assert objective(profile, scenario, balanced_split) == pytest.approx(0.0, abs=1e-12)

    def test_prepandemic_balance(self):
        profile = EconomyProfile(60.0, 40.0, 1.0, 1.5, 1.0)
        assert objective(profile, Scenario(0.0, 0.0, 0.0), 0.0) == 0.0

    def test_convex_in_allocation(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            profile = draw_profile(rng)
            scenario = draw_scenario(rng, profile)
            a, b = sorted(rng.uniform(0.0, scenario.vaccines, size=2))
            lam = float(rng.uniform())
            mid = lam * a + (1 - lam) * b
            f_mid = objective(profile, scenario, mid)
            chord = lam * objective(profile, scenario, a) + (1 - lam) * objective(
                profile, scenario, b
            )
            assert f_mid <= chord + 1e-9 * labor_scale(profile)


class TestInteriorOptimum:
    def test_reference_scenario(self, example_profile):
        scenario = Scenario(0.05, 0.3, 20.0)
        root = solve(example_profile, scenario).v_blue_interior
        assert root == pytest.approx(8.4 / 0.69, rel=1e-12)
        # independent confirmation: dense grid search lands within one step
        config = OracleConfig(grid_points=100_001, refine=False)
        grid_v, _ = brute_force_optimum(example_profile, scenario, config)
        assert abs(grid_v - root) <= config.step(scenario.vaccines)

    @pytest.mark.parametrize("vaccines", [12.0, 20.0, 60.0])
    def test_crossing_identity(self, example_profile, vaccines):
        beta_blue = crossing_point(0.05, 0.8)
        root = solve(example_profile, Scenario(0.05, beta_blue, vaccines)).v_blue_interior
        assert root == pytest.approx(vaccines * 0.4, abs=1e-9 * vaccines)

    def test_symmetry_with_full_remote_productivity(self):
        profile = EconomyProfile(60.0, 40.0, 1.0, 1.5, 1.0)
        root = solve(profile, Scenario(0.3, 0.3, 20.0)).v_blue_interior
        assert root == pytest.approx(20.0 * profile.labor_blue / profile.total_labor,
                                     abs=1e-12 * 20.0)


class TestSolve:
    def test_all_blue_corner(self, example_profile):
        scenario = Scenario(0.05, 0.5, 20.0)
        result = solve(example_profile, scenario)
        assert result.clamp is Clamp.ALL_BLUE
        assert result.v_blue_interior == pytest.approx(20.606060606060606, rel=1e-12)
        assert result.v_blue_star == 20.0
        grid_v, _ = brute_force_optimum(example_profile, scenario)
        assert grid_v == pytest.approx(20.0, abs=1e-9)

    def test_all_white_corner(self, example_profile):
        scenario = Scenario(0.6, 0.05, 5.0)
        result = solve(example_profile, scenario)
        assert result.clamp is Clamp.ALL_WHITE
        assert result.v_blue_interior < 0.0
        assert result.v_blue_star == 0.0
        grid_v, _ = brute_force_optimum(example_profile, scenario)
        assert grid_v == 0.0

    def test_interior_at_crossing(self, example_profile):
        beta_blue = crossing_point(0.05, 0.8)
        result = solve(example_profile, Scenario(0.05, beta_blue, 20.0))
        assert result.clamp is Clamp.INTERIOR
        assert result.v_blue_star / 20.0 == pytest.approx(0.4, abs=1e-9)
        assert result.objective <= 1e-9 * result.output

    def test_degenerate_uses_labor_split(self):
        profile = EconomyProfile(60.0, 40.0, 1.0, 1.5, 1.0)
        result = solve(profile, Scenario(0.0, 0.0, 20.0))
        assert result.clamp is Clamp.DEGENERATE
        assert result.v_blue_star == pytest.approx(8.0, abs=1e-12)
        assert math.isnan(result.v_blue_interior)
        assert result.objective == pytest.approx(0.0, abs=1e-12)

    def test_root_exactly_zero_is_all_white(self):
        # beta_w = 1 kills the home-office term; V = alpha_b*L_b makes the root 0.
        profile = EconomyProfile(4.0, 3.0, 1.0, 1.0, 0.5)
        result = solve(profile, Scenario(1.0, 0.0, 3.0))
        assert result.v_blue_interior == 0.0
        assert result.clamp is Clamp.ALL_WHITE
        assert result.v_blue_star == 0.0

    def test_root_exactly_at_stock_is_all_blue(self):
        # beta_b = 1, gamma = 1, beta_w = 0: root = alpha_w*L_w/alpha_b = V exactly.
        profile = EconomyProfile(2.0, 4.0, 1.0, 1.0, 1.0)
        result = solve(profile, Scenario(0.0, 1.0, 2.0))
        assert result.v_blue_interior == 2.0
        assert result.clamp is Clamp.ALL_BLUE
        assert result.v_blue_star == 2.0

    def test_clamp_matches_root_position(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            profile = draw_profile(rng)
            scenario = draw_scenario(rng, profile)
            result = solve(profile, scenario)
            root = result.v_blue_interior
            if result.clamp is Clamp.ALL_WHITE:
                assert root <= 0.0 and result.v_blue_star == 0.0
            elif result.clamp is Clamp.ALL_BLUE:
                assert root >= scenario.vaccines
                assert result.v_blue_star == scenario.vaccines
            else:
                assert result.clamp is Clamp.INTERIOR
                assert 0.0 < root < scenario.vaccines
                assert result.v_blue_star == root
                assert result.objective <= 1e-9 * result.output
            assert 0.0 <= result.v_blue_star <= scenario.vaccines

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(303)
        config = OracleConfig(grid_points=100_001, refine=False)
        for _ in range(60):
            profile = draw_profile(rng)
            scenario = draw_scenario(rng, profile)
            result = solve(profile, scenario)
            grid_v, grid_objective = brute_force_optimum(profile, scenario, config)
            assert result.objective <= grid_objective + 1e-9 * labor_scale(profile)
            assert abs(result.v_blue_star - grid_v) <= config.step(scenario.vaccines)

    def test_objective_is_alpha_weighted_surplus(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            profile = draw_profile(rng)
            result = solve(profile, draw_scenario(rng, profile))
            weighted = (
                profile.alpha_blue * result.surplus_blue
                + profile.alpha_white * result.surplus_white
            )
            assert weighted == pytest.approx(
                result.objective, abs=1e-12 * labor_scale(profile)
            )

    def test_monotone_in_infection_risks(self):
        rng = np.random.default_rng(505)
        betas = [round(0.05 * k, 2) for k in range(1, 20)]
        for _ in range(30):
            profile = draw_profile(rng)
            vaccines = float(rng.uniform(0.05, 0.9)) * profile.total_labor
            slack = 1e-9 * vaccines
            beta_white = float(rng.choice(betas))
            stars = [
                solve(profile, Scenario(beta_white, bb, vaccines)).v_blue_star
                for bb in betas
            ]
            assert all(b - a >= -slack for a, b in zip(stars, stars[1:]))
            beta_blue = float(rng.choice(betas))
            stars = [
                solve(profile, Scenario(bw, beta_blue, vaccines)).v_blue_star
                for bw in betas
            ]
            assert all(b - a <= slack for a, b in zip(stars, stars[1:]))


class TestSolveArrays:
    @pytest.mark.parametrize("gamma", [0.35, 0.8, 1.0])
    def test_matches_scalar_solve_bit_for_bit(self, gamma):
        lattice = GridSpec(0.0, 1.0, 0.01).values()
        axis = np.array(lattice)
        for record in load_countries(builtin_dataset_path()):
            profile = calibrate(record, gamma)
            for v_over_l in (0.01, 0.2, 0.6, 0.95):
                vaccines = v_over_l * profile.total_labor
                v_star, code = stock_solver(profile, axis[:, None], axis[None, :])[1](vaccines)
                expected = [
                    solve(profile, Scenario(beta_w, beta_b, vaccines))
                    for beta_w in lattice
                    for beta_b in lattice
                ]
                assert v_star.ravel().tolist() == [r.v_blue_star for r in expected]
                assert [CLAMPS[c] for c in code.ravel().tolist()] == [r.clamp for r in expected]
                if gamma == 1.0:
                    assert CLAMPS[code[0, 0]] is Clamp.DEGENERATE


@settings(max_examples=60, deadline=None)
@given(
    labor=st.tuples(SIZE, SIZE),
    alpha=st.tuples(SIZE, SIZE),
    gamma=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    beta_white=st.lists(RISK, min_size=1, max_size=4),
    beta_blue=st.lists(RISK, min_size=1, max_size=4),
    coverage=st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, 1.0, exclude_max=True)),
)
# V = 0 with a positive root: AllBlue, so the masks must precede the clamp
@example(labor=(60.0, 40.0), alpha=(1.0, 1.5), gamma=0.8,
         beta_white=[0.5], beta_blue=[0.9], coverage=0.0)
# a negative root that underflows to -0.0: AllWhite at +0.0, which np.clip misses
@example(labor=(1.0, 5e-324), alpha=(4.0, 1.0), gamma=0.8,
         beta_white=[1.0], beta_blue=[0.0], coverage=0.0)
# degenerate cells at gamma = 1, and a stock 5e-324 * L that underflows to 0
@example(labor=(0.25, 0.25), alpha=(1.0, 1.0), gamma=1.0,
         beta_white=[0.0, 1.0], beta_blue=[0.0, 1.0], coverage=5e-324)
# an uncalibrated profile whose root overflows to inf: AllBlue, with no warning on either path
@example(labor=(2.0, 1.0), alpha=(1.0, 1e-300), gamma=1.0,
         beta_white=[0.0], beta_blue=[1e-10], coverage=0.5 / 3.0)
# a total that rounds to L_b: the plain split V * L_b / L is 0.09000000000000001, past V
@example(labor=(5e-324, 3.0), alpha=(1.0, 1.0), gamma=1.0,
         beta_white=[0.0], beta_blue=[0.0], coverage=0.03)
# a stock of -0.0: the kernel's clamp writes +0.0 over the degenerate split
@example(labor=(60.0, 40.0), alpha=(1.0, 1.5), gamma=1.0,
         beta_white=[0.0], beta_blue=[0.0], coverage=-0.0)
def test_solve_arrays_matches_solve_on_random_profiles(
    labor, alpha, gamma, beta_white, beta_blue, coverage
):
    profile = EconomyProfile(*labor, *alpha, gamma)
    vaccines = coverage * profile.total_labor
    assume(vaccines < profile.total_labor)
    v_star, code = stock_solver(
        profile, np.array(beta_white)[:, None], np.array(beta_blue)[None, :]
    )[1](vaccines)
    assert v_star.shape == code.shape == (len(beta_white), len(beta_blue))
    assert code.dtype == np.int8
    for (i, beta_w), (j, beta_b) in itertools.product(enumerate(beta_white), enumerate(beta_blue)):
        expected = solve(profile, Scenario(beta_w, beta_b, vaccines))
        got, want = float(v_star[i, j]), expected.v_blue_star
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert 0.0 <= want <= vaccines or math.isnan(want)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert CLAMPS[code[i, j]] is expected.clamp
    # The same cells by index pairs, last first: the same bits, and before the
    # clamp each cell's interior root, or the split where it is degenerate.
    white, blue = np.indices(code.shape).reshape(2, -1)[:, ::-1]
    root, solve_cells = stock_solver(profile, beta_white, beta_blue, (white, blue))
    for got, want in zip(solve_cells(vaccines), (v_star[white, blue], code[white, blue])):
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
    for i, j, got in zip(white, blue, root(vaccines).tolist()):
        expected = solve(profile, Scenario(beta_white[i], beta_blue[j], vaccines))
        want = (expected.v_blue_star if expected.clamp is Clamp.DEGENERATE
                else expected.v_blue_interior)
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


@settings(max_examples=40, deadline=None)
@given(
    labor=st.tuples(SIZE, SIZE),
    alpha=st.tuples(SIZE, SIZE),
    gamma=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    beta_white=st.lists(RISK, min_size=1, max_size=4),
    beta_blue=st.lists(RISK, min_size=1, max_size=4),
    coverage=st.floats(0.0, 1.0, exclude_max=True),
    paired=st.booleans(),
    order=st.permutations(range(4)),
)
# gamma = 1 with a zero risk on both axes: one degenerate cell, at (0, 0)
@example(labor=(60.0, 40.0), alpha=(1.0, 1.5), gamma=1.0, beta_white=[0.0, 0.5],
         beta_blue=[0.0, 1.0], coverage=0.3, paired=False, order=[0, 1, 2, 3])
# zeros on the white axis only: a zero leverage term, but no degenerate cell
@example(labor=(60.0, 40.0), alpha=(1.0, 1.5), gamma=1.0, beta_white=[0.0, 0.5],
         beta_blue=[0.2, 1.0], coverage=0.3, paired=False, order=[3, 2, 1, 0])
# paired risks whose zero terms fall in different cells: each term has a zero,
# yet no cell is degenerate
@example(labor=(60.0, 40.0), alpha=(1.0, 1.5), gamma=1.0, beta_white=[0.0, 0.5],
         beta_blue=[0.5, 0.0], coverage=0.3, paired=True, order=[1, 3, 0, 2])
def test_stock_solver_shares_its_first_stage_across_stocks(
    labor, alpha, gamma, beta_white, beta_blue, coverage, paired, order
):
    profile = EconomyProfile(*labor, *alpha, gamma)
    total = profile.total_labor
    if paired:  # same-shape arrays, solved cell by cell
        size = min(len(beta_white), len(beta_blue))
        pairs = list(zip(beta_white[:size], beta_blue[:size]))
        white, blue = np.array(beta_white[:size]), np.array(beta_blue[:size])
    else:
        pairs = list(itertools.product(beta_white, beta_blue))
        white, blue = np.array(beta_white)[:, None], np.array(beta_blue)[None, :]
    candidates = (0.0, 5e-324, coverage * total, 0.999999 * total)
    stocks = [candidates[i] for i in order if candidates[i] < total]
    solve_stock = model.stock_solver(profile, white, blue)[1]
    solved = [(vaccines, *solve_stock(vaccines)) for vaccines in stocks + stocks[:1]]
    for vaccines, v_star, code in solved:
        fresh = stock_solver(profile, white, blue)[1](vaccines)
        for got, want in zip((v_star, code), fresh):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert np.array_equal(np.signbit(v_star), np.signbit(fresh[0]))
        for (beta_w, beta_b), got, clamp in zip(pairs, v_star.ravel().tolist(),
                                                code.ravel().tolist()):
            expected = solve(profile, Scenario(beta_w, beta_b, vaccines))
            want = expected.v_blue_star
            assert got == want or (math.isnan(got) and math.isnan(want))
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert CLAMPS[clamp] is expected.clamp
    # the first stock again, last: solving never wrote the shared arrays
    assert [a.tobytes() for a in solved[-1][1:]] == [a.tobytes() for a in solved[0][1:]]


@settings(max_examples=200, deadline=None)
@given(labor=st.tuples(SIZE, SIZE), coverage=st.floats(0.0, 1.0, exclude_max=True),
       shift=st.integers(0, 1100))
# V * L_b rounds as a subnormal before the division: the plain expression is off by an ulp
@example(labor=(7.0, 0.6), coverage=0.25, shift=1020)
# V scaled by L's exponent, not its own, goes subnormal and loses bits
@example(labor=(0.4, 0.6), coverage=0.5, shift=1046)
def test_degenerate_split_of_a_smaller_stock_scales_exactly(labor, coverage, shift):
    # The split V * L_b / L at V * 2**-shift is the split at V times 2**-shift, rounded
    # once: exact while it stays normal, and correctly rounded where it goes subnormal.
    profile = EconomyProfile(*labor, 1.0, 1.0, 1.0)
    vaccines = coverage * profile.total_labor
    small = math.ldexp(vaccines, -shift)
    assume(vaccines >= 2.0 ** -1022 and math.ldexp(small, shift) == vaccines)  # exact scaling
    split = solve(profile, Scenario(0.0, 0.0, vaccines)).v_blue_star
    assert solve(profile, Scenario(0.0, 0.0, small)).v_blue_star == math.ldexp(split, -shift)


# Risks with no subnormal term: 0, 1 or at least 2**-30.
_NORMAL_RISK = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(2.0 ** -30, 1.0))


@settings(max_examples=40, deadline=None)
@given(employment=st.floats(0.0, 150.0).map(lambda exponent: 10.0 ** exponent),
       share=st.one_of(st.sampled_from([1e-6, 1 - 1e-6]), st.floats(1e-6, 1 - 1e-6)),
       gamma=st.one_of(st.just(1.0), st.floats(2.0 ** -30, 1.0)),
       beta_white=st.lists(_NORMAL_RISK, min_size=1, max_size=3),
       beta_blue=st.lists(_NORMAL_RISK, min_size=1, max_size=3),
       coverage=st.one_of(st.just(0.0), st.floats(2.0 ** -30, 1.0, exclude_max=True)),
       shift=st.integers(-60, 60))
def test_an_economy_scaled_by_a_power_of_two_scales_every_result_exactly(
    employment, share, gamma, beta_white, beta_blue, coverage, shift
):
    # Labor and stock times 2**shift, alphas and gamma kept: the closed form is linear in
    # labor and stock, and a power of two changes no rounding while every value stays normal.
    profile = calibrate(CountryRecord("XA", employment, share), gamma)
    scaled = EconomyProfile(math.ldexp(profile.labor_white, shift),
                            math.ldexp(profile.labor_blue, shift),
                            profile.alpha_white, profile.alpha_blue, gamma)
    vaccines = coverage * profile.total_labor
    for beta_w, beta_b in itertools.product(beta_white, beta_blue):
        result = solve(profile, Scenario(beta_w, beta_b, vaccines))
        big = solve(scaled, Scenario(beta_w, beta_b, math.ldexp(vaccines, shift)))
        assert big.clamp is result.clamp
        for field in type(result).__match_args__:
            if field != "clamp":  # repr tells signed zeros and NaNs apart
                assert repr(getattr(big, field)) == repr(math.ldexp(getattr(result, field), shift))
    white, blue = np.array(beta_white)[:, None], np.array(beta_blue)[None, :]
    v_star, code = stock_solver(profile, white, blue)[1](vaccines)
    big_star, big_code = stock_solver(scaled, white, blue)[1](math.ldexp(vaccines, shift))
    assert big_star.tobytes() == np.ldexp(v_star, shift).tobytes()
    assert big_code.tobytes() == code.tobytes()


def test_stock_solver_overflowing_split_matches_solve_bit_for_bit():
    # Above calibrate's 1e154 bound the plain split V * L_b / L would overflow to inf,
    # past V; scaled by powers of two it is the finite 0.6 V, which the clamp keeps.
    profile = EconomyProfile(2e154, 3e154, 1.0, 2e154 / 3e154, 1.0)
    result = solve(profile, Scenario(0.0, 0.0, 1e154))
    v_star, code = stock_solver(profile, 0.0, 0.0)[1](1e154)
    assert (v_star.tobytes(), CLAMPS[code.item()]) == (
        np.float64(result.v_blue_star).tobytes(), result.clamp)
    assert (result.v_blue_star, result.clamp) == (6e153, Clamp.DEGENERATE)


# Risks whose terms are zero, signed zero or tiny: 5e-324 * alpha_b is 0 when alpha_b < 0.5.
_NEAR_ZERO = st.one_of(st.sampled_from([0.0, -0.0, 1e-12, 5e-324]), RISK)


@settings(max_examples=80, deadline=None)
@given(
    labor=st.tuples(SIZE, SIZE),
    alpha=st.tuples(SIZE, SIZE),
    gamma=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    beta_white=st.lists(_NEAR_ZERO, min_size=1, max_size=6),  # a frontier's list, repeats kept
    beta_blue=st.lists(_NEAR_ZERO, min_size=1, max_size=6),
    coverage=st.floats(0.0, 1.0, exclude_max=True),
)
# the blue term of 5e-324 underflows to 0: a beta_b == 0 test would miss these cells
@example(labor=(60.0, 40.0), alpha=(1.0, 0.25), gamma=1.0, beta_white=[0.0, 0.5, -0.0, 0.0],
         beta_blue=[5e-324, 1e-12, -0.0, 0.5], coverage=0.3)
# gamma < 1: no white term is 0 here, so the zero blue terms count nothing
@example(labor=(60.0, 40.0), alpha=(1.0, 1.5), gamma=0.8, beta_white=[0.0, 0.0],
         beta_blue=[0.0, 5e-324], coverage=0.3)
def test_degenerate_cells_counts_the_kernels_degenerate_codes(
    labor, alpha, gamma, beta_white, beta_blue, coverage
):
    profile = EconomyProfile(*labor, *alpha, gamma)
    vaccines = coverage * profile.total_labor
    assume(vaccines < profile.total_labor)
    white, blue = np.array(beta_white), np.array(beta_blue)
    code = stock_solver(profile, white[:, None], blue[None, :])[1](vaccines)[1]
    expected = int((code == CLAMPS.index(Clamp.DEGENERATE)).sum())
    assert degenerate_cells(profile, beta_white, beta_blue) == expected
    if profile.alpha_blue < 0.5 and gamma == 1.0 and 0.0 in beta_white:
        assert expected >= beta_blue.count(5e-324)  # the kernel counts the underflow too


class TestUnemployment:
    def test_no_vaccine_baseline(self, example_profile):
        result = solve(example_profile, Scenario(0.05, 0.3, 0.0))
        assert result.surplus_blue == 0.0
        assert result.surplus_white == pytest.approx(45.6 - 1.5 * 28, rel=1e-9)

    def test_balanced_economy_has_no_surplus(self):
        profile = EconomyProfile(60.0, 40.0, 1.0, 1.5, 1.0)
        result = solve(profile, Scenario(0.0, 0.0, 0.0))
        assert result.surplus_blue == 0.0
        assert result.surplus_white == 0.0

    def test_all_blue_corner_reduction_identity(self):
        rng = np.random.default_rng(606)
        checked = 0
        for _ in range(400):
            profile = draw_profile(rng)
            scenario = draw_scenario(
                rng, profile, beta_range=(0.0, 1.0), coverage_range=(0.01, 0.3)
            )
            with_doses = solve(profile, scenario)
            if with_doses.clamp is not Clamp.ALL_BLUE:
                continue
            checked += 1
            baseline = solve(profile, Scenario(scenario.beta_white, scenario.beta_blue, 0.0))
            reduction = (
                profile.alpha_blue / profile.alpha_white
                * scenario.beta_blue
                * scenario.vaccines
            )
            assert with_doses.surplus_white == pytest.approx(
                baseline.surplus_white - reduction, abs=1e-9 * labor_scale(profile)
            )
        assert checked >= 50

    def test_all_white_corner_reduction_identity(self):
        rng = np.random.default_rng(707)
        checked = 0
        for _ in range(400):
            profile = draw_profile(rng)
            scenario = draw_scenario(
                rng, profile, beta_range=(0.0, 1.0), coverage_range=(0.01, 0.3)
            )
            with_doses = solve(profile, scenario)
            if with_doses.clamp is not Clamp.ALL_WHITE:
                continue
            checked += 1
            baseline = solve(profile, Scenario(scenario.beta_white, scenario.beta_blue, 0.0))
            dose_value = 1.0 - profile.gamma * (1.0 - scenario.beta_white)
            reduction = (
                profile.alpha_white / profile.alpha_blue * dose_value * scenario.vaccines
            )
            assert with_doses.surplus_blue == pytest.approx(
                baseline.surplus_blue - reduction, abs=1e-9 * labor_scale(profile)
            )
        assert checked >= 50

    def test_surpluses_are_mutually_exclusive(self):
        rng = np.random.default_rng(808)
        for _ in range(300):
            profile = draw_profile(rng)
            scenario = draw_scenario(rng, profile)
            result = solve(profile, scenario)
            assert result.surplus_blue >= 0.0
            assert result.surplus_white >= 0.0
            assert min(result.surplus_blue, result.surplus_white) <= 1e-9 * labor_scale(profile)


class TestPartials:
    def test_reference_values_match_finite_differences(self, example_profile):
        scenario = Scenario(0.05, 0.3, 20.0)
        d_beta_blue, d_beta_white = partials(example_profile, scenario)
        assert d_beta_blue == pytest.approx(60.4914933837429, rel=1e-9)
        assert d_beta_white == pytest.approx(-60.49149338374294, rel=1e-9)

        step = 1e-6
        fd_blue = (shifted_root(example_profile, scenario, 0.0, step)
                   - shifted_root(example_profile, scenario, 0.0, -step)) / (2 * step)
        fd_white = (shifted_root(example_profile, scenario, step, 0.0)
                    - shifted_root(example_profile, scenario, -step, 0.0)) / (2 * step)
        assert d_beta_blue == pytest.approx(fd_blue, rel=1e-6)
        assert d_beta_white == pytest.approx(fd_white, rel=1e-6)

    def test_zero_once_all_blue_collars_covered(self):
        # beta_b = 1, gamma = 1, beta_w = 0 puts the root at alpha_w*L_w/alpha_b = L_b.
        profile = EconomyProfile(6.0, 3.0, 1.0, 2.0, 1.0)
        scenario = Scenario(0.0, 1.0, 4.0)
        assert solve(profile, scenario).v_blue_interior == 3.0
        assert partials(profile, scenario)[0] == 0.0

    def test_finite_difference_agreement_randomized(self):
        rng = np.random.default_rng(909)
        step = 1e-6
        for _ in range(200):
            profile = draw_profile(rng, gamma_range=(0.35, 0.995))
            scenario = draw_scenario(rng, profile, beta_range=(0.01, 0.99))
            d_beta_blue, d_beta_white = partials(profile, scenario)
            root = solve(profile, scenario).v_blue_interior

            # sign conditions are exact
            if root <= profile.labor_blue:
                assert d_beta_blue >= 0.0
            if scenario.vaccines - profile.labor_white - root <= 0.0:
                assert d_beta_white <= 0.0

            floor = 1e-7 * profile.total_labor
            fd_blue = (shifted_root(profile, scenario, 0.0, step)
                       - shifted_root(profile, scenario, 0.0, -step)) / (2 * step)
            if abs(d_beta_blue) > floor:
                assert fd_blue == pytest.approx(d_beta_blue, rel=1e-6)
            fd_white = (shifted_root(profile, scenario, step, 0.0)
                        - shifted_root(profile, scenario, -step, 0.0)) / (2 * step)
            if abs(d_beta_white) > floor:
                assert fd_white == pytest.approx(d_beta_white, rel=1e-6)


class TestCrossingPoint:
    # The reference that the crossing-point identities compare solve against.
    def test_reference_value(self):
        assert crossing_point(0.05, 0.8) == pytest.approx(0.24, rel=1e-12)

    def test_no_risk_full_productivity(self):
        assert crossing_point(0.0, 1.0) == 0.0

    def test_certain_white_infection(self):
        assert crossing_point(1.0, 0.8) == 1.0
