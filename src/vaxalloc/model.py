"""Closed-form vaccine allocation in a two-task Leontief economy.

The economy produces a single good from two complementary task types:
teleworkable tasks done by white-collar workers (possibly from home, at
reduced productivity) and on-site tasks done by blue-collar workers.
Because the technology is Leontief, a supply shock to either labor pool
destroys jobs in the other; a planner holding a fixed stock of vaccines
splits it between the two pools to minimize those complementarity-driven
layoffs among healthy workers.

Notation used throughout:

    L_w, L_b        white-/blue-collar labor supply (heads)
    alpha_w, alpha_b    output per unit of effective labor in each task
    gamma           home-office productivity retention, in (0, 1]
    beta_w, beta_b  infection probability per worker in each task
    V               vaccine stock (same unit as heads), V < L_w + L_b
    v_b             vaccines given to blue-collar workers, in [0, V]

Effective labor under an allocation v_b:

    eff_b = (1 - beta_b) * L_b + beta_b * v_b
    eff_w = (1 - beta_w) * gamma * L_w + (1 - gamma + beta_w * gamma) * (V - v_b)

Vaccinated white-collars return to the office at full productivity, which
is why each of their doses is worth 1 - gamma * (1 - beta_w) effective
units. The planner minimizes |alpha_b * eff_b - alpha_w * eff_w|, a
V-shaped piecewise-linear function of v_b whose unconstrained root has a
closed form; the constrained optimum is that root clamped to [0, V].

All values are continuous doubles (labor is divisible) and every function
here is pure, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np


class ModelInputError(ValueError):
    """An argument violates a model precondition (range or pairing)."""


class DegenerateModelError(ValueError):
    """Vaccination cannot move effective labor in either task.

    Happens only at beta_b = 0, beta_w = 0, gamma = 1: every dose is
    worthless and every allocation is equally optimal.
    """


class Clamp(str, Enum):
    """Which branch of the clamped solution a scenario landed on."""

    ALL_WHITE = "AllWhite"      # interior root <= 0: give every dose to white-collars
    INTERIOR = "Interior"       # root inside (0, V): layoffs fully avoidable
    ALL_BLUE = "AllBlue"        # root >= V: give every dose to blue-collars
    DEGENERATE = "Degenerate"   # doses have no effect; conventional split used


CLAMPS = tuple(Clamp)  # clamp code i, as returned by solve_arrays, names CLAMPS[i]
_ALL_WHITE, _INTERIOR, _ALL_BLUE, _DEGENERATE = range(len(CLAMPS))


class _Frozen:
    """``dataclass(frozen=True)`` for the public value classes, without importing it.

    A subclass's annotated names are its fields.  Its ``__init__`` is made once,
    as ``dataclasses`` makes it; ``__dict__`` then holds the fields in order, and
    nothing can be set or deleted.  ``eq=False`` keeps identity equality.
    """

    def __init_subclass__(cls, eq: bool = True) -> None:
        fields = cls.__match_args__ = tuple(cls.__annotations__)
        namespace = {f"_{name}": vars(cls)[name] for name in fields if name in vars(cls)}
        params = ", ".join(f"{f}=_{f}" if f"_{f}" in namespace else f for f in fields)
        stores = "".join(f"    _setattr(self, {name!r}, {name})\n" for name in fields)
        post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        namespace["_setattr"] = object.__setattr__
        exec(f"def __init__(self, {params}):\n{stores}{post}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class EconomyProfile(_Frozen):
    """A calibrated economy: labor supplies and technology coefficients."""

    labor_white: float   # L_w > 0, heads
    labor_blue: float    # L_b > 0, heads
    alpha_white: float   # alpha_w > 0
    alpha_blue: float    # alpha_b > 0
    gamma: float         # home-office productivity retention, in (0, 1]

    def __post_init__(self) -> None:
        for name in ("labor_white", "labor_blue", "alpha_white", "alpha_blue"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ModelInputError(f"{name} must be a positive finite number, got {value!r}")
        if not (0.0 < self.gamma <= 1.0):
            raise ModelInputError(f"gamma must lie in (0, 1], got {self.gamma!r}")

    @property
    def total_labor(self) -> float:
        return self.labor_white + self.labor_blue

    @property
    def blue_share(self) -> float:
        return self.labor_blue / self.total_labor


class Scenario(_Frozen):
    """One epidemic/supply configuration: infection risks and vaccine stock."""

    beta_white: float  # infection probability for white-collar workers, in [0, 1]
    beta_blue: float   # infection probability for blue-collar workers, in [0, 1]
    vaccines: float    # V >= 0; must stay below the paired economy's total labor

    def __post_init__(self) -> None:
        for name in ("beta_white", "beta_blue"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ModelInputError(f"{name} must lie in [0, 1], got {value!r}")
        if not (math.isfinite(self.vaccines) and self.vaccines >= 0.0):
            raise ModelInputError(f"vaccines must be finite and >= 0, got {self.vaccines!r}")

    @classmethod
    def with_coverage(
        cls,
        profile: EconomyProfile,
        beta_white: float,
        beta_blue: float,
        v_over_l: float,
    ) -> "Scenario":
        """Build a scenario whose stock covers a fraction v_over_l of the workforce."""
        if not (0.0 < v_over_l < 1.0):
            raise ModelInputError(f"v_over_l must lie in (0, 1), got {v_over_l!r}")
        return cls(beta_white, beta_blue, v_over_l * profile.total_labor)


class AllocationResult(_Frozen):
    """Solved allocation with its full employment accounting."""

    v_blue_star: float      # optimal blue-collar doses, in [0, V]
    v_blue_interior: float  # unclamped root; NaN in the degenerate case
    clamp: Clamp
    effective_blue: float
    effective_white: float
    objective: float        # |alpha_b*eff_b - alpha_w*eff_w| at the optimum
    output: float           # min(alpha_b*eff_b, alpha_w*eff_w)
    surplus_blue: float     # idle blue-collar effective labor, >= 0
    surplus_white: float    # idle white-collar effective labor, >= 0


class Partials(_Frozen):
    """Sensitivities of the unclamped optimum to the two infection risks."""

    d_beta_blue: float
    d_beta_white: float


class UnemploymentBreakdown(NamedTuple):
    surplus_blue: float     # effective-labor units
    surplus_white: float    # effective-labor units
    headcount_blue: float   # heads laid off among healthy blue-collars
    headcount_white: float  # heads laid off among healthy white-collars


def _check_pair(profile: EconomyProfile, scenario: Scenario) -> None:
    if not scenario.vaccines < profile.total_labor:
        raise ModelInputError(
            f"vaccines ({scenario.vaccines!r}) must be below total labor "
            f"({profile.total_labor!r})"
        )


def _check_v_blue(scenario: Scenario, v_blue: float) -> None:
    if not (0.0 <= v_blue <= scenario.vaccines):
        raise ModelInputError(
            f"v_blue ({v_blue!r}) outside the feasible range [0, {scenario.vaccines!r}]"
        )


def _white_dose_value(profile: EconomyProfile, scenario: Scenario) -> float:
    # Effective-labor gain per dose given to a white-collar worker: the
    # worker moves from gamma*(1-beta_w) expected units at home to 1 at
    # the office.  Zero only when gamma == 1 and beta_w == 0.
    return 1.0 - profile.gamma * (1.0 - scenario.beta_white)


def _dose_leverage(profile: EconomyProfile, scenario: Scenario) -> float:
    # Slope of alpha_b*eff_b - alpha_w*eff_w in v_blue; zero exactly in the
    # degenerate case, where reallocating doses moves nothing.
    return profile.alpha_blue * scenario.beta_blue + profile.alpha_white * _white_dose_value(
        profile, scenario
    )


def _surpluses(profile: EconomyProfile, eff_blue: float, eff_white: float) -> tuple[float, float]:
    # Effective labor in one task beyond what the other can absorb at the
    # Leontief ratio.  The two gaps have opposite signs, so at most one
    # surplus is positive.
    surplus_blue = max(0.0, eff_blue - profile.alpha_white / profile.alpha_blue * eff_white)
    surplus_white = max(0.0, eff_white - profile.alpha_blue / profile.alpha_white * eff_blue)
    return surplus_blue, surplus_white


def effective_labor(
    profile: EconomyProfile, scenario: Scenario, v_blue: float
) -> tuple[float, float]:
    """Effective labor (blue, white) when v_blue doses go to blue-collars.

    Healthy unvaccinated blue-collars work on site at full productivity,
    healthy unvaccinated white-collars work from home at gamma, and every
    vaccinated worker contributes one full unit.  All remaining doses,
    V - v_blue, go to white-collar workers.
    """
    _check_pair(profile, scenario)
    _check_v_blue(scenario, v_blue)
    return _effective_labor(profile, scenario, v_blue)


def _effective_labor(
    profile: EconomyProfile, scenario: Scenario, v_blue: float
) -> tuple[float, float]:
    eff_blue = (1.0 - scenario.beta_blue) * profile.labor_blue + scenario.beta_blue * v_blue
    eff_white = (1.0 - scenario.beta_white) * profile.gamma * profile.labor_white + (
        _white_dose_value(profile, scenario) * (scenario.vaccines - v_blue)
    )
    return eff_blue, eff_white


def objective(profile: EconomyProfile, scenario: Scenario, v_blue: float) -> float:
    """Planner objective |alpha_b*eff_b - alpha_w*eff_w|: idle effective output.

    Piecewise-linear and convex in v_blue, so its minimum over [0, V] is the
    unconstrained root clamped to the interval.
    """
    eff_blue, eff_white = effective_labor(profile, scenario, v_blue)
    return abs(profile.alpha_blue * eff_blue - profile.alpha_white * eff_white)


def interior_optimum(profile: EconomyProfile, scenario: Scenario) -> float:
    """Unclamped dose count that exactly balances the two task inputs.

    May lie outside [0, V]; raises DegenerateModelError when doses cannot
    move either labor pool (beta_b = beta_w = 0 with gamma = 1).
    """
    _check_pair(profile, scenario)
    return _interior_optimum(profile, scenario)


def _interior_optimum(profile: EconomyProfile, scenario: Scenario) -> float:
    leverage = _dose_leverage(profile, scenario)
    if leverage == 0.0:
        raise DegenerateModelError(
            "vaccination has no effect on effective labor "
            "(beta_blue = 0, beta_white = 0, gamma = 1)"
        )
    numerator = profile.alpha_white * (
        (1.0 - scenario.beta_white) * profile.gamma * profile.labor_white
        + _white_dose_value(profile, scenario) * scenario.vaccines
    ) - (1.0 - scenario.beta_blue) * profile.alpha_blue * profile.labor_blue
    return numerator / leverage


def solve(profile: EconomyProfile, scenario: Scenario) -> AllocationResult:
    """Optimal vaccine split and the employment accounting it induces.

    Clamps the interior optimum to [0, V]: a nonpositive root sends every
    dose to white-collars, a root beyond V sends every dose to blue-collars,
    and an interior root removes all complementarity-driven layoffs.  In the
    degenerate no-leverage case every allocation is optimal and the labor
    split L_b / L is used so downstream sweeps stay total.
    """
    # The one validation: the unchecked helpers below only see v_star in [0, V].
    _check_pair(profile, scenario)
    vaccines = scenario.vaccines
    try:
        interior = _interior_optimum(profile, scenario)
    except DegenerateModelError:
        interior = math.nan
        clamp = Clamp.DEGENERATE
        v_star = vaccines * profile.labor_blue / profile.total_labor
    else:
        if interior <= 0.0:
            clamp, v_star = Clamp.ALL_WHITE, 0.0
        elif interior >= vaccines:
            clamp, v_star = Clamp.ALL_BLUE, vaccines
        else:
            clamp, v_star = Clamp.INTERIOR, interior

    eff_blue, eff_white = _effective_labor(profile, scenario, v_star)
    supply_blue = profile.alpha_blue * eff_blue
    supply_white = profile.alpha_white * eff_white
    surplus_blue, surplus_white = _surpluses(profile, eff_blue, eff_white)
    return AllocationResult(
        v_blue_star=v_star,
        v_blue_interior=interior,
        clamp=clamp,
        effective_blue=eff_blue,
        effective_white=eff_white,
        objective=abs(supply_blue - supply_white),
        output=min(supply_blue, supply_white),
        surplus_blue=surplus_blue,
        surplus_white=surplus_white,
    )


def solve_arrays(
    profile: EconomyProfile,
    beta_white: np.ndarray | float,
    beta_blue: np.ndarray | float,
    vaccines: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal blue-collar doses and clamp codes for many risk pairs at once.

    ``beta_white`` and ``beta_blue`` broadcast against each other; the result
    is ``(v_blue_star, clamp_code)`` of the broadcast shape, where
    ``CLAMPS[clamp_code]`` is the branch.  The arithmetic follows
    ``interior_optimum`` and ``solve`` operation for operation, so every
    element equals ``solve(profile, Scenario(bw, bb, vaccines))`` bit for
    bit.  The root is clamped in place, and degenerate cells are patched only
    when some exist.  Nothing is validated here: pass risks in [0, 1] and a
    stock in [0, L), as ``GridSpec`` and ``Scenario.with_coverage`` guarantee.
    """
    import numpy as np

    beta_white = np.asarray(beta_white, dtype=float)
    beta_blue = np.asarray(beta_blue, dtype=float)
    white_dose = 1.0 - profile.gamma * (1.0 - beta_white)
    leverage = profile.alpha_blue * beta_blue + profile.alpha_white * white_dose
    numerator = np.asarray(profile.alpha_white * (  # an array even for scalar risks
        (1.0 - beta_white) * profile.gamma * profile.labor_white + white_dose * vaccines
    ) - (1.0 - beta_blue) * profile.alpha_blue * profile.labor_blue)
    # degenerate cells, patched below; a root beyond the float range clamps as in solve
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v_star = np.divide(numerator, leverage, out=numerator)
    all_white = v_star <= 0.0  # masks before the clamp: at V = 0 a root > 0 is AllBlue
    code = np.asarray(v_star >= vaccines).view(np.int8)
    code += _INTERIOR  # AllBlue where the root is >= V
    code[all_white] = _ALL_WHITE
    np.minimum(v_star, vaccines, out=v_star)
    v_star[all_white] = 0.0
    if not leverage.all():  # some cell has leverage == 0: no dose moves anything
        degenerate = leverage == 0.0
        v_star[degenerate] = vaccines * profile.labor_blue / profile.total_labor
        code[degenerate] = _DEGENERATE
    return v_star, code


def unemployment(
    profile: EconomyProfile, scenario: Scenario, v_blue: float
) -> UnemploymentBreakdown:
    """Idle labor in each pool under an allocation, plus layoff headcounts.

    Surpluses are effective-labor units: whatever one task supplies beyond
    what the other task can absorb at the Leontief ratio.  At most one is
    positive.  Headcounts follow the layoff convention that blue-collar
    workers all carry unit productivity, while on the white-collar side the
    unvaccinated remote workers (productivity gamma) are laid off first and
    vaccinated office workers (productivity 1) only after them.
    """
    eff_blue, eff_white = effective_labor(profile, scenario, v_blue)
    surplus_blue, surplus_white = _surpluses(profile, eff_blue, eff_white)

    v_white = scenario.vaccines - v_blue
    remote_heads = (1.0 - scenario.beta_white) * max(0.0, profile.labor_white - v_white)
    remote_effective = profile.gamma * remote_heads
    if surplus_white <= remote_effective:
        headcount_white = surplus_white / profile.gamma
    else:
        headcount_white = remote_heads + (surplus_white - remote_effective)
    return UnemploymentBreakdown(
        surplus_blue=surplus_blue,
        surplus_white=surplus_white,
        headcount_blue=surplus_blue,
        headcount_white=headcount_white,
    )


def partials(profile: EconomyProfile, scenario: Scenario) -> Partials:
    """Derivatives of the unclamped optimum with respect to both risks.

    Raising blue-collar risk pulls doses toward blue-collars as long as not
    all of them are covered (root below L_b); raising white-collar risk
    pulls doses away whenever white-collar coverage is short of L_w.
    """
    leverage = _dose_leverage(profile, scenario)
    if leverage == 0.0:
        raise DegenerateModelError("partial derivatives are undefined without dose leverage")
    interior = interior_optimum(profile, scenario)
    d_beta_blue = profile.alpha_blue / leverage * (profile.labor_blue - interior)
    d_beta_white = (
        profile.alpha_white
        * profile.gamma
        / leverage
        * (scenario.vaccines - profile.labor_white - interior)
    )
    return Partials(d_beta_blue=d_beta_blue, d_beta_white=d_beta_white)


def crossing_point(beta_white: float, gamma: float) -> float:
    """Blue-collar risk at which both labor pools shrink proportionally.

    At beta_blue = 1 - (1 - beta_white) * gamma the two redundancies
    coincide for every stock level, and the optimal dose share equals the
    blue-collar labor share in any balanced economy.
    """
    if not (0.0 <= beta_white <= 1.0):
        raise ModelInputError(f"beta_white must lie in [0, 1], got {beta_white!r}")
    if not (0.0 < gamma <= 1.0):
        raise ModelInputError(f"gamma must lie in (0, 1], got {gamma!r}")
    return 1.0 - (1.0 - beta_white) * gamma
