"""Brute-force ground truth for the planner optimum.

Evaluates the allocation objective on a dense uniform grid over [0, V] and
optionally sharpens the grid argmin with a golden-section pass.  The
objective is piecewise-linear and convex, so grid search plus refinement
pins the minimizer to machine precision near the kink.  Used by the test
suite as an independent check of the closed-form solver and exposed through
the CLI `audit` subcommand.

The grid is never built.  Each operation that makes the signed gap
alpha_b*eff_b - alpha_w*eff_w is correctly rounded and monotone in v_blue
(beta_b, the white dose value and the alphas are >= 0), so the gap never
falls along the grid, and a NaN, only ever inf - inf, comes after gaps of
-inf.  Bisection finds the first point whose gap is not < 0 and the first
point of the last negative plateau before it; the one with the smaller |gap|
(the earlier on a tie) is the first minimum, or first NaN, that a scan of
every point would return, with the same IEEE operations at the same points.
The refinement reuses the grid's no-dose labor terms, which round as the
full expression does.
"""

from __future__ import annotations

import math

from .model import EconomyProfile, ModelInputError, Scenario, _Frozen, _check_pair

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Largest search grid accepted: ten times the default.
MAX_ORACLE_POINTS = 1_000_001

class OracleConfig(_Frozen):
    grid_points: int = 100_001
    refine: bool = True

    def __post_init__(self) -> None:
        if self.grid_points < 3:
            raise ModelInputError(f"grid_points must be >= 3, got {self.grid_points!r}")
        if self.grid_points > MAX_ORACLE_POINTS:
            raise ModelInputError(
                f"grid_points must be <= {MAX_ORACLE_POINTS}, got {self.grid_points!r}"
            )

    def step(self, vaccines: float) -> float:
        """Spacing of the uniform search grid over [0, vaccines]."""
        return vaccines / (self.grid_points - 1)

    def refined_step(self, vaccines: float) -> float:
        """Bracket width the golden-section pass shrinks to."""
        return max(1e-10 * vaccines, 1e-6 * self.step(vaccines))


def brute_force_optimum(
    profile: EconomyProfile,
    scenario: Scenario,
    config: OracleConfig = OracleConfig(),
) -> tuple[float, float]:
    """Grid-search minimizer of the planner objective over [0, V].

    Returns (v_blue, objective) at the best point found; ties on the grid
    break toward the smaller v_blue, and the refinement pass is only kept
    when it strictly improves on the grid.  Deterministic for fixed inputs.
    """
    _check_pair(profile, scenario)
    vaccines = scenario.vaccines

    beta_b, beta_w = scenario.beta_blue, scenario.beta_white
    gamma = profile.gamma
    labor_b, labor_w = profile.labor_blue, profile.labor_white
    alpha_b, alpha_w = profile.alpha_blue, profile.alpha_white
    dose_value_w = 1.0 - gamma * (1.0 - beta_w)
    # Effective labor with no doses.  Each product is rounded before the sum,
    # so base + beta * v rounds as the whole expression does.
    base_b = (1.0 - beta_b) * labor_b
    base_w = (1.0 - beta_w) * gamma * labor_w

    def gap(v_blue: float) -> float:
        eff_b = base_b + beta_b * v_blue
        eff_w = base_w + dose_value_w * (vaccines - v_blue)
        return alpha_b * eff_b - alpha_w * eff_w

    def objective_at(v_blue: float) -> float:
        return abs(gap(v_blue))

    if vaccines == 0.0:
        return 0.0, objective_at(0.0)

    # The grid is np.linspace(0.0, vaccines, n) point for point: i * step,
    # (i / div) * vaccines when the step underflows to 0, and vaccines itself
    # last.  linspace also adds 0.0, which changes no value here since every
    # point is >= +0.0.
    n = config.grid_points
    div = n - 1
    step = config.step(vaccines)

    def point(i: int) -> float:
        if i == div:
            return vaccines
        return i / div * vaccines if step == 0.0 else i * step

    def first(low: int, high: int, holds) -> int:
        """First i in [low, high) whose gap holds, else high; holds is false, then true."""
        while low < high:
            mid = (low + high) // 2
            if holds(gap(point(mid))):
                high = mid
            else:
                low = mid + 1
        return low

    index = first(0, n, lambda d: not d < 0.0)  # first gap >= 0, or the first NaN
    if index:
        below = gap(point(index - 1))  # the last negative plateau; -inf before a NaN
        above = gap(point(index)) if index < n else math.inf
        if -below <= above:  # false at a NaN; a tie goes to the smaller v_blue
            index = first(0, index - 1, lambda d: d >= below)
    best_v = point(index)
    best_value = objective_at(best_v)

    if config.refine:
        low = point(max(index - 1, 0))
        high = point(min(index + 1, div))
        refined_v = _golden_section(objective_at, low, high, config.refined_step(vaccines))
        refined_value = objective_at(refined_v)
        if refined_value < best_value or (refined_value == best_value and refined_v < best_v):
            best_v, best_value = refined_v, refined_value

    return best_v, best_value


def _golden_section(fun, low: float, high: float, tol: float) -> float:
    """Golden-section minimization of a unimodal function on [low, high]."""
    x1 = high - _GOLDEN * (high - low)
    x2 = low + _GOLDEN * (high - low)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(500):  # a cap: each step shrinks the bracket by about 0.618
        if high - low <= tol:
            break
        if f1 <= f2:
            high, x2, f2 = x2, x1, f1
            x1 = high - _GOLDEN * (high - low)
            f1 = fun(x1)
        else:
            low, x1, f1 = x1, x2, f2
            x2 = low + _GOLDEN * (high - low)
            f2 = fun(x2)
    midpoint = 0.5 * (low + high)
    # The kink can sit a hair outside the final bracket midpoint; keep the
    # best of the three candidates so refinement never loses to its inputs.
    candidates = [(fun(midpoint), midpoint), (f1, x1), (f2, x2)]
    candidates.sort(key=lambda pair: (pair[0], pair[1]))
    return candidates[0][1]
