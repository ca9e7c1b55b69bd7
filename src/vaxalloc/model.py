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
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    import numpy as np


class ModelInputError(ValueError):
    """An argument violates a model precondition (range or pairing)."""


class Clamp(str, Enum):
    """Which branch of the clamped solution a scenario landed on."""

    ALL_WHITE = "AllWhite"      # interior root <= 0: give every dose to white-collars
    INTERIOR = "Interior"       # root inside (0, V): layoffs fully avoidable
    ALL_BLUE = "AllBlue"        # root >= V: give every dose to blue-collars
    DEGENERATE = "Degenerate"   # doses have no effect; conventional split used


CLAMPS = tuple(Clamp)  # clamp code i, as returned by stock_solver, names CLAMPS[i]
_ALL_WHITE, _INTERIOR, _ALL_BLUE, _DEGENERATE = range(len(CLAMPS))


class _Frozen:
    """``dataclass(frozen=True)`` for the public value classes, without importing it.

    A subclass's annotated names are its fields.  Its ``__init__`` is made once,
    as ``dataclasses`` makes it; ``__dict__`` then holds the fields in order, and
    nothing can be set or deleted.
    """

    def __init_subclass__(cls) -> None:
        fields = cls.__match_args__ = tuple(cls.__annotations__)
        namespace = {f"_{name}": vars(cls)[name] for name in fields if name in vars(cls)}
        params = ", ".join(f"{f}=_{f}" if f"_{f}" in namespace else f for f in fields)
        stores = "".join(f"    _setattr(self, {name!r}, {name})\n" for name in fields)
        post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        namespace["_setattr"] = object.__setattr__
        exec(f"def __init__(self, {params}):\n{stores}{post}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

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
        vaccines = v_over_l * profile.total_labor
        if vaccines == 0.0:  # no stock to split: every per-dose ratio would divide by zero
            raise ModelInputError(f"v_over_l {v_over_l!r} of total labor "
                                  f"{profile.total_labor!r} rounds to 0 vaccines")
        return cls(beta_white, beta_blue, vaccines)


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


def _check_pair(profile: EconomyProfile, scenario: Scenario) -> None:
    if not scenario.vaccines < profile.total_labor:
        raise ModelInputError(
            f"vaccines ({scenario.vaccines!r}) must be below total labor "
            f"({profile.total_labor!r})"
        )


def _terms(profile: EconomyProfile, beta_white, beta_blue) -> tuple:
    # The closed form's terms, by plain operators on floats or numpy arrays alike: a white
    # dose's value (a worker goes from gamma*(1-beta_w) expected units at home to 1 at the
    # office), the leverage terms, each >= 0 (their sum, the slope of alpha_b*eff_b -
    # alpha_w*eff_w in v_blue, is 0 only if degenerate), and the no-dose white and blue terms.
    white_dose = 1.0 - profile.gamma * (1.0 - beta_white)
    return (white_dose, profile.alpha_blue * beta_blue, profile.alpha_white * white_dose,
            (1.0 - beta_white) * profile.gamma * profile.labor_white,
            (1.0 - beta_blue) * profile.alpha_blue * profile.labor_blue)


def _split(profile: EconomyProfile, vaccines: float) -> float:
    """The degenerate split V * L_b / L, in [0, V] at every magnitude.

    V is scaled by its own binary exponent and both labors by L's, which is exact
    while they stay normal: the bits are the plain expression's wherever it neither
    underflows nor overflows, and L_b / L of V where it would.  Only a total that
    rounds to L_b itself can lift the quotient an ulp past V, which ``min`` undoes.
    A zero split is +0.0, as ``stock_solver``'s clamp writes it, even where V is -0.0.
    """
    total = profile.total_labor
    fraction, exponent = math.frexp(vaccines)
    scale = math.frexp(total)[1]
    split = fraction * math.ldexp(profile.labor_blue, -scale) / math.ldexp(total, -scale)
    return min(math.ldexp(split, exponent), vaccines) + 0.0


def effective_labor(profile: EconomyProfile, scenario: Scenario,
                    v_blue: float) -> tuple[float, float]:
    """Effective labor (blue, white) when v_blue doses go to blue-collars.

    Healthy unvaccinated blue-collars work on site at full productivity,
    healthy unvaccinated white-collars work from home at gamma, and every
    vaccinated worker contributes one full unit.  All remaining doses,
    V - v_blue, go to white-collar workers.
    """
    _check_pair(profile, scenario)
    if not (0.0 <= v_blue <= scenario.vaccines):
        raise ModelInputError(
            f"v_blue ({v_blue!r}) outside the feasible range [0, {scenario.vaccines!r}]")
    return _effective_labor(profile, scenario, v_blue,
                            _terms(profile, scenario.beta_white, scenario.beta_blue))


def _effective_labor(profile: EconomyProfile, scenario: Scenario, v_blue: float,
                     terms: tuple) -> tuple[float, float]:
    white_dose, _, _, no_dose_white, _ = terms
    eff_blue = (1.0 - scenario.beta_blue) * profile.labor_blue + scenario.beta_blue * v_blue
    return eff_blue, no_dose_white + white_dose * (scenario.vaccines - v_blue)


def objective(profile: EconomyProfile, scenario: Scenario, v_blue: float) -> float:
    """Planner objective |alpha_b*eff_b - alpha_w*eff_w|: idle effective output.

    Piecewise-linear and convex in v_blue, so its minimum over [0, V] is the
    unconstrained root clamped to the interval.
    """
    eff_blue, eff_white = effective_labor(profile, scenario, v_blue)
    return abs(profile.alpha_blue * eff_blue - profile.alpha_white * eff_white)


def solve(profile: EconomyProfile, scenario: Scenario) -> AllocationResult:
    """Optimal vaccine split and the employment accounting it induces.

    Clamps the interior optimum to [0, V]: a nonpositive root sends every
    dose to white-collars, a root beyond V sends every dose to blue-collars,
    and an interior root removes all complementarity-driven layoffs.  In the
    degenerate no-leverage case every allocation is optimal and the labor
    split L_b / L is used so downstream sweeps stay total.
    """
    _check_pair(profile, scenario)  # the one validation: the helper only sees v_star in [0, V]
    vaccines = scenario.vaccines
    terms = _terms(profile, scenario.beta_white, scenario.beta_blue)
    white_dose, blue_term, white_term, no_dose_white, no_dose_blue = terms
    leverage = blue_term + white_term
    interior = math.nan if leverage == 0.0 else (  # no root where no dose moves anything
        profile.alpha_white * (no_dose_white + white_dose * vaccines) - no_dose_blue) / leverage
    if leverage == 0.0:
        clamp, v_star = Clamp.DEGENERATE, _split(profile, vaccines)
    elif interior <= 0.0:
        clamp, v_star = Clamp.ALL_WHITE, 0.0
    elif interior >= vaccines:
        clamp, v_star = Clamp.ALL_BLUE, vaccines
    else:
        clamp, v_star = Clamp.INTERIOR, interior

    eff_blue, eff_white = _effective_labor(profile, scenario, v_star, terms)
    supply_blue = profile.alpha_blue * eff_blue
    supply_white = profile.alpha_white * eff_white
    return AllocationResult(
        v_blue_star=v_star,
        v_blue_interior=interior,
        clamp=clamp,
        effective_blue=eff_blue,
        effective_white=eff_white,
        objective=abs(supply_blue - supply_white),
        output=min(supply_blue, supply_white),
        # Effective labor in one task beyond what the other can absorb at the Leontief
        # ratio.  The two gaps have opposite signs, so at most one surplus is positive.
        surplus_blue=max(0.0, eff_blue - profile.alpha_white / profile.alpha_blue * eff_white),
        surplus_white=max(0.0, eff_white - profile.alpha_blue / profile.alpha_white * eff_blue),
    )


def stock_solver(profile: EconomyProfile, beta_white: np.ndarray | float,
                 beta_blue: np.ndarray | float, cells: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[Callable[[float], np.ndarray], Callable[[float], tuple]]:
    """Interior roots, and clamped doses and codes, of many risk pairs at many stocks.

    This call runs the first stage, which does not depend on the stock: each
    term of one risk once per axis value, and the leverage per cell, where
    ``beta_white`` broadcasts against ``beta_blue`` or, given index arrays
    ``cells = (i, j)``, at ``(beta_white[i], beta_blue[j])``.  It returns the
    per-stock stages ``(root, solve_stock)``: ``root(V)``, each cell's interior
    root or the split where it is degenerate, and ``solve_stock(V)``, that root
    clamped into ``(v_blue_star, clamp_code)``; ``CLAMPS[clamp_code]`` is the
    branch.  Each element equals ``solve(profile, Scenario(bw, bb, V))`` bit for
    bit, operation for operation.  Nothing is validated: pass risks in [0, 1]
    and a stock in [0, L), as ``GridSpec`` and ``with_coverage`` ensure.
    """
    import numpy as np

    beta_white, beta_blue = np.asarray(beta_white, dtype=float), np.asarray(beta_blue, dtype=float)
    white, blue = cells or (..., ...)  # ``...`` views a whole axis, which then broadcasts
    white_dose, blue_term, white_term, no_dose_white, no_dose_blue = _terms(
        profile, beta_white, beta_blue)
    leverage, no_dose_blue = blue_term[blue] + white_term[white], no_dose_blue[blue]
    # Both terms are >= 0, so their rounded sum is 0 only where both are: the
    # exact mask is needed only when each term has a zero somewhere.
    degenerate = None if blue_term.all() or white_term.all() else leverage == 0.0

    def root(vaccines: float) -> np.ndarray:
        row_term = profile.alpha_white * (no_dose_white + white_dose * vaccines)
        numerator = np.asarray(row_term[white] - no_dose_blue)  # an array even for scalar risks
        # degenerate cells divide by 0, patched below; a root beyond the float range is inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            roots = np.divide(numerator, leverage, out=numerator)
        if degenerate is not None:  # leverage == 0: no dose moves anything
            roots[degenerate] = _split(profile, vaccines)
        return roots

    def solve_stock(vaccines: float) -> tuple[np.ndarray, np.ndarray]:
        v_star = root(vaccines)
        all_white = v_star <= 0.0  # masks before the clamp: at V = 0 a root > 0 is AllBlue
        code = np.asarray(v_star >= vaccines).view(np.int8)
        code += _INTERIOR  # AllBlue where the root is >= V
        code[all_white] = _ALL_WHITE
        np.minimum(v_star, vaccines, out=v_star)
        v_star[all_white] = 0.0
        if degenerate is not None:  # the split lies in [0, V], so the clamp kept it
            code[degenerate] = _DEGENERATE
        return v_star, code

    return root, solve_stock


def degenerate_cells(profile: EconomyProfile, beta_white: Iterable[float],
                     beta_blue: Iterable[float]) -> int:
    """Count the cells ``stock_solver`` marks Degenerate, the same at every stock: its two
    leverage terms, from the same ``_terms``, are >= 0, so their sum is 0 where both are."""
    import numpy as np

    _, blue_term, white_term, _, _ = _terms(profile, np.fromiter(beta_white, float),
                                            np.fromiter(beta_blue, float))
    return int(np.count_nonzero(white_term == 0.0)) * int(np.count_nonzero(blue_term == 0.0))
