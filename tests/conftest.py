import numpy as np
import pytest
from hypothesis import strategies as st

from vaxalloc import CountryRecord, EconomyProfile, Scenario, calibrate

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
