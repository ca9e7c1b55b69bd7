"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion alongside the pytest verdicts.
"""

import functools
import time

import numpy as np

from conftest import (crossing_point, draw_profile, draw_scenario, labor_scale, partials,
                      shifted_root)
from vaxalloc import (
    Clamp,
    EconomyProfile,
    OracleConfig,
    Scenario,
    builtin_dataset_path,
    brute_force_optimum,
    calibrate,
    load_countries,
    solve,
    sweep_matrices,
    sweep_matrix,
    threshold_share,
)
from vaxalloc.cli import main as cli_main


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}", flush=True)
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}", flush=True)

        return wrapper

    return decorate


@criterion(1, "closed form matches the brute-force oracle on 10,000 random instances")
def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20210501)
    bulk_config = OracleConfig(grid_points=20_001, refine=True)
    dense_config = OracleConfig()  # 100,001 points; same refined tolerance
    started = time.perf_counter()
    for index in range(10_000):
        profile = draw_profile(rng)
        scenario = draw_scenario(rng, profile)
        config = dense_config if index < 300 else bulk_config
        result = solve(profile, scenario)
        oracle_v, oracle_objective = brute_force_optimum(profile, scenario, config)
        assert result.objective <= oracle_objective + 1e-9 * labor_scale(profile)
        assert abs(result.v_blue_star - oracle_v) <= config.refined_step(scenario.vaccines)
    elapsed = time.perf_counter() - started
    print(f"  [criterion 1 ran 10,000 instances in {elapsed:.1f}s]", flush=True)
    assert elapsed <= 60.0


@criterion(2, "intersection, symmetry and corner-reduction identities hold")
def test_criterion_2_closed_form_identities():
    rng = np.random.default_rng(20210502)

    # (a) at beta_b = 1 - (1-beta_w)*gamma the dose share equals the
    #     blue-collar labor share for every stock level
    profiles = [calibrate(r, 0.8) for r in load_countries(builtin_dataset_path())]
    profiles += [draw_profile(rng) for _ in range(50)]
    for profile in profiles:
        share = profile.labor_blue / profile.total_labor
        for beta_white in (0.05, 0.25, float(rng.uniform(0.0, 0.9))):
            beta_blue = crossing_point(beta_white, profile.gamma)
            if not beta_blue < 1.0:
                continue
            for v_over_l in (0.2, 0.4, 0.6):
                scenario = Scenario.with_coverage(profile, beta_white, beta_blue, v_over_l)
                ratio = solve(profile, scenario).v_blue_star / scenario.vaccines
                assert abs(ratio - share) <= 1e-9

    # (b) gamma = 1 with equal risks splits doses along the labor split
    for _ in range(200):
        profile = draw_profile(rng, gamma_range=(1.0, 1.0))
        beta = float(rng.uniform(0.0, 1.0))
        scenario = draw_scenario(rng, profile, beta_range=(beta, beta),
                                 coverage_range=(0.05, 0.9))
        ratio = solve(profile, scenario).v_blue_star / scenario.vaccines
        assert abs(ratio - profile.labor_blue / profile.total_labor) <= 1e-12
    degenerate = draw_profile(rng, gamma_range=(1.0, 1.0))
    scenario = Scenario(0.0, 0.0, 0.5 * degenerate.total_labor)
    ratio = solve(degenerate, scenario).v_blue_star / scenario.vaccines
    assert abs(ratio - degenerate.labor_blue / degenerate.total_labor) <= 1e-12

    # (c) corner allocations cut the no-vaccine surplus by exactly the
    #     absorbable dose value
    seen_blue = seen_white = 0
    attempts = 0
    while (seen_blue < 100 or seen_white < 100) and attempts < 20_000:
        attempts += 1
        profile = draw_profile(rng)
        scenario = draw_scenario(rng, profile, coverage_range=(0.01, 0.4))
        corner = solve(profile, scenario)  # at a corner, every dose goes to one pool
        baseline = solve(profile, Scenario(scenario.beta_white, scenario.beta_blue, 0.0))
        tolerance = 1e-9 * labor_scale(profile)
        if corner.clamp is Clamp.ALL_BLUE:
            seen_blue += 1
            reduction = (
                profile.alpha_blue / profile.alpha_white
                * scenario.beta_blue * scenario.vaccines
            )
            assert abs(corner.surplus_white - (baseline.surplus_white - reduction)) <= tolerance
        elif corner.clamp is Clamp.ALL_WHITE:
            seen_white += 1
            dose_value = 1.0 - profile.gamma * (1.0 - scenario.beta_white)
            reduction = (
                profile.alpha_white / profile.alpha_blue
                * dose_value * scenario.vaccines
            )
            assert abs(corner.surplus_blue - (baseline.surplus_blue - reduction)) <= tolerance
    assert seen_blue >= 100 and seen_white >= 100


@criterion(3, "analytic sensitivities match finite differences at 1,000 interior points")
def test_criterion_3_derivative_verification():
    rng = np.random.default_rng(20210503)
    step = 1e-6
    accepted = 0
    attempts = 0
    while accepted < 1_000 and attempts < 50_000:
        attempts += 1
        total = float(np.exp(rng.uniform(np.log(10.0), np.log(1e7))))
        share = float(rng.uniform(0.05, 0.95))
        profile = EconomyProfile(
            labor_white=share * total,
            labor_blue=(1.0 - share) * total,
            alpha_white=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
            alpha_blue=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
            gamma=float(rng.uniform(0.35, 0.995)),
        )
        scenario = draw_scenario(rng, profile, beta_range=(0.01, 0.99),
                                 coverage_range=(0.01, 0.95))
        d_beta_blue, d_beta_white = partials(profile, scenario)
        root = solve(profile, scenario).v_blue_interior

        # sign conditions hold everywhere sampled
        if root <= profile.labor_blue:
            assert d_beta_blue >= 0.0
        if scenario.vaccines - profile.labor_white - root <= 0.0:
            assert d_beta_white <= 0.0

        # relative error needs a visible reference; skip the measure-zero
        # neighborhood of derivative sign changes
        floor = 1e-7 * profile.total_labor
        if abs(d_beta_blue) < floor or abs(d_beta_white) < floor:
            continue
        accepted += 1

        fd_blue = (shifted_root(profile, scenario, 0.0, step)
                   - shifted_root(profile, scenario, 0.0, -step)) / (2 * step)
        fd_white = (shifted_root(profile, scenario, step, 0.0)
                    - shifted_root(profile, scenario, -step, 0.0)) / (2 * step)
        assert abs(fd_blue - d_beta_blue) <= 1e-6 * abs(d_beta_blue)
        assert abs(fd_white - d_beta_white) <= 1e-6 * abs(d_beta_white)
    assert accepted >= 1_000


@criterion(4, "threshold shares on the synthetic dataset fall in the reference bands")
def test_criterion_4_threshold_bands():
    started = time.perf_counter()
    records = load_countries(builtin_dataset_path())
    highest_telework = max(records, key=lambda r: r.telework_share)

    shares_066 = {}
    for record in records:
        profile = calibrate(record, 0.8)
        summary = threshold_share(sweep_matrix(profile, 0.2), 0.66)
        shares_066[record.country_code] = summary.share_exceeding

    assert all(0.60 <= share <= 0.90 for share in shares_066.values())
    in_band = sum(1 for share in shares_066.values() if 0.70 <= share <= 0.80)
    assert in_band > len(records) / 2

    for record in records:
        if record is highest_telework:
            continue
        profile = calibrate(record, 0.8)
        for v_over_l in (0.2, 0.4, 0.6):
            summary = threshold_share(sweep_matrix(profile, v_over_l), 0.5)
            assert summary.share_exceeding >= 0.80

    elapsed = time.perf_counter() - started
    print(f"  [criterion 4 shares at 0.66: {shares_066}; {elapsed:.1f}s]", flush=True)
    assert elapsed <= 10.0


@criterion(5, "threshold share rises with the blue-collar labor share at high stock")
def test_criterion_5_cross_country_ordering():
    records = load_countries(builtin_dataset_path())
    ordered = sorted(records, key=lambda r: 1.0 - r.telework_share)
    shares = []
    for record in ordered:
        profile = calibrate(record, 0.8)
        shares.append(threshold_share(sweep_matrix(profile, 0.6), 0.66).share_exceeding)
    assert all(b >= a for a, b in zip(shares, shares[1:]))


@criterion(6, "dose share is monotone in both risks for 100 random economies")
def test_criterion_6_monotonicity_suite():
    rng = np.random.default_rng(20210506)
    lattice = [round(0.05 * k, 2) for k in range(1, 20)]
    for _ in range(100):
        profile = draw_profile(rng)
        v_over_l = float(rng.uniform(0.05, 0.9))
        slack = 1e-12 * profile.total_labor

        beta_white = float(rng.choice(lattice))
        row = next(sweep_matrices(profile, (v_over_l,), beta_white=(beta_white,)))
        ratios = (row.v_blue_star[0] / row.vaccines).tolist()
        assert all(b - a >= -1e-12 for a, b in zip(ratios, ratios[1:]))

        beta_blue = float(rng.choice(lattice))
        vaccines = v_over_l * profile.total_labor
        stars = [
            solve(profile, Scenario(beta_white_, beta_blue, vaccines)).v_blue_star
            for beta_white_ in lattice
        ]
        assert all(b - a <= slack for a, b in zip(stars, stars[1:]))


@criterion(7, "sweep output is byte-identical across reruns")
def test_criterion_7_determinism(tmp_path, capsys):
    outputs = []
    for name in ("a.csv", "b.csv", "c.csv"):
        path = tmp_path / name
        code = cli_main(
            ["sweep", "--country", "XB", "--v-over-l", "0.2,0.6", "--output", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
