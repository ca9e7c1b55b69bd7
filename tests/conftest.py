import numpy as np
import pytest
from hypothesis import strategies as st

from vaxalloc import CountryRecord, EconomyProfile, Scenario, calibrate, solve

pytest_plugins = ["pytester"]


# Strategies for uncalibrated profiles and their risks.
RISK = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
SIZE = st.floats(min_value=5e-324, max_value=1e6)  # subnormals included


@pytest.fixture
def example_profile() -> EconomyProfile:
    # share-0.6 economy of 100 workers, calibrated: alpha_b = 60/40 = 1.5
    return EconomyProfile(
        labor_white=60.0, labor_blue=40.0, alpha_white=1.0, alpha_blue=1.5, gamma=0.8
    )


def draw_profile(
    rng: np.random.Generator,
    labor_range=(10.0, 1e7),
    share_range=(0.05, 0.95),
    gamma_range=(0.3, 1.0),
) -> EconomyProfile:
    """Random balanced economy: log-uniform size, uniform share and gamma."""
    total = float(np.exp(rng.uniform(np.log(labor_range[0]), np.log(labor_range[1]))))
    share = float(rng.uniform(*share_range))
    gamma = float(rng.uniform(*gamma_range))
    return calibrate(CountryRecord("ZZ", total, share), gamma)


def draw_scenario(
    rng: np.random.Generator,
    profile: EconomyProfile,
    beta_range=(0.0, 1.0),
    coverage_range=(1e-9, 0.95),
) -> Scenario:
    return Scenario(
        beta_white=float(rng.uniform(*beta_range)),
        beta_blue=float(rng.uniform(*beta_range)),
        vaccines=float(rng.uniform(*coverage_range)) * profile.total_labor,
    )


def labor_scale(profile: EconomyProfile) -> float:
    """Natural size of objective values: alpha_w*L_w + alpha_b*L_b."""
    return (
        profile.alpha_white * profile.labor_white
        + profile.alpha_blue * profile.labor_blue
    )


# The paper's formulas that the package does not compute, as references for its results.
def crossing_point(beta_white: float, gamma: float) -> float:
    """Blue-collar risk at which both labor pools shrink proportionally, so that the
    optimal dose share is the blue-collar labor share at every stock."""
    return 1.0 - (1.0 - beta_white) * gamma


def partials(profile: EconomyProfile, scenario: Scenario) -> tuple[float, float]:
    """Derivatives of the unclamped root in (beta_blue, beta_white), at ``solve``'s root.

    Raising blue-collar risk pulls doses toward blue-collars while the root is below L_b;
    raising white-collar risk pulls them away while white-collar coverage is short of L_w.
    """
    root = solve(profile, scenario).v_blue_interior
    leverage = (profile.alpha_blue * scenario.beta_blue
                + profile.alpha_white * (1.0 - profile.gamma * (1.0 - scenario.beta_white)))
    return (profile.alpha_blue / leverage * (profile.labor_blue - root),
            profile.alpha_white * profile.gamma / leverage
            * (scenario.vaccines - profile.labor_white - root))


def shifted_root(profile: EconomyProfile, scenario: Scenario, d_white: float,
                 d_blue: float) -> float:
    """``solve``'s unclamped root with each risk shifted, for finite differences."""
    return solve(profile, Scenario(scenario.beta_white + d_white, scenario.beta_blue + d_blue,
                                   scenario.vaccines)).v_blue_interior
