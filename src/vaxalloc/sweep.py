"""Scenario sweeps over infection-risk grids.

Three analyses are provided on top of the closed-form solver: frontier
curves of the optimal blue-collar dose share against blue-collar risk at a
fixed white-collar risk, full (beta_w, beta_b) allocation matrices at a
fixed stock level, and threshold summaries counting the above-diagonal
scenarios (beta_b > beta_w) where the blue-collar share exceeds a cutoff.

Every lattice is solved in one call to the array kernel
``model.solve_arrays``, which matches the scalar ``solve`` bit for bit, on
risk axes built once per grid; the per-cell ``AllocationResult`` objects are
only built when ``SweepGrid.cells`` is read.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Mapping

import numpy as np

from .model import (
    AllocationResult,
    EconomyProfile,
    ModelInputError,
    Scenario,
    _Frozen,
    solve,
    solve_arrays,
)

# Largest lattice accepted per axis: a 0.0005 step over [0, 1].  A full
# sweep holds a few arrays of MAX_GRID_POINTS**2 doubles (~32 MB each).
MAX_GRID_POINTS = 2001


class GridSpec(_Frozen):
    """Uniform lattice of infection risks, used for both axes."""

    beta_min: float = 0.05
    beta_max: float = 0.95
    step: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta_min < self.beta_max <= 1.0):
            raise ModelInputError(
                f"need 0 <= beta_min < beta_max <= 1, got "
                f"[{self.beta_min!r}, {self.beta_max!r}]"
            )
        if not self.step > 0.0:
            raise ModelInputError(f"step must be positive, got {self.step!r}")
        if self.points > MAX_GRID_POINTS:
            raise ModelInputError(
                f"step {self.step!r} gives more than {MAX_GRID_POINTS} points per axis"
            )
        if self.points < 2:
            raise ModelInputError("grid needs at least two points per axis")

    @property
    def points(self) -> int:
        """Lattice size per axis, worked out without building the lattice.

        Saturates at MAX_GRID_POINTS + 1, so a tiny step cannot overflow.
        """
        intervals = min((self.beta_max - self.beta_min) / self.step + 1e-9, MAX_GRID_POINTS)
        return int(math.floor(intervals)) + 1

    def values(self) -> tuple[float, ...]:
        return _lattice(self.beta_min, self.step, self.points)


# typed: GridSpec(0, 1, 1) == GridSpec(0.0, 1.0, 1.0), but only one yields ints.
@functools.lru_cache(maxsize=8, typed=True)
def _lattice(beta_min: float, step: float, points: int) -> tuple[float, ...]:
    # Rounding keeps lattice values like 0.15 exact instead of 0.15000000000000002.
    return tuple(round(beta_min + i * step, 12) for i in range(points))


@functools.lru_cache(maxsize=4)
def _riskier_blue(beta_white: tuple, beta_blue: tuple) -> tuple[np.ndarray, int]:
    """Read-only beta_blue > beta_white mask of a lattice, and its count."""
    mask = np.less.outer(beta_white, beta_blue)
    mask.flags.writeable = False
    return mask, int(np.count_nonzero(mask))


class _Cells(Mapping):
    """Read-only (beta_w, beta_b) -> AllocationResult view of a SweepGrid.

    Each access runs the scalar ``solve`` on that cell, so callers that
    need the full accounting (surpluses, objective) get it without the
    sweep storing one object per cell.
    """

    def __init__(self, sweep: SweepGrid) -> None:
        self._sweep = sweep
        self._white = frozenset(sweep.beta_white)
        self._blue = frozenset(sweep.beta_blue)

    def __getitem__(self, key: tuple[float, float]) -> AllocationResult:
        if not (isinstance(key, tuple) and len(key) == 2
                and key[0] in self._white and key[1] in self._blue):
            raise KeyError(key)
        sweep = self._sweep
        return solve(sweep.profile, Scenario(key[0], key[1], sweep.vaccines))

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return ((w, b) for w in self._sweep.beta_white for b in self._sweep.beta_blue)

    def __len__(self) -> int:
        return len(self._sweep.beta_white) * len(self._sweep.beta_blue)


class SweepGrid(_Frozen, eq=False):
    """Solved allocations on a (beta_w, beta_b) lattice at one stock level.

    Row i of the arrays is ``beta_white[i]`` and column j is ``beta_blue[j]``;
    ``clamp[i, j]`` indexes ``model.CLAMPS``.
    """

    spec: GridSpec
    v_over_l: float
    vaccines: float
    profile: EconomyProfile
    beta_white: tuple[float, ...]
    beta_blue: tuple[float, ...]
    v_blue_star: np.ndarray
    clamp: np.ndarray

    @property
    def cells(self) -> Mapping[tuple[float, float], AllocationResult]:
        """Full per-cell results, solved lazily on access."""
        return _Cells(self)


class ThresholdSummary(_Frozen):
    """Share of riskier-blue-collar scenarios above a dose-share cutoff."""

    threshold: float
    share_exceeding: float
    cells_considered: int


def _solve_lattice(
    profile: EconomyProfile,
    beta_white: tuple[float, ...],
    v_over_l: float,
    grid: GridSpec,
) -> SweepGrid:
    beta_blue = grid.values()
    # Building the first cell's scenario validates the coverage and the first
    # white-collar risk; the lattice itself was validated by GridSpec.
    vaccines = Scenario.with_coverage(profile, beta_white[0], beta_blue[0], v_over_l).vaccines
    v_blue_star, clamp = solve_arrays(
        profile, np.asarray(beta_white)[:, None], np.asarray(beta_blue)[None, :], vaccines
    )
    return SweepGrid(
        spec=grid,
        v_over_l=v_over_l,
        vaccines=vaccines,
        profile=profile,
        beta_white=beta_white,
        beta_blue=beta_blue,
        v_blue_star=v_blue_star,
        clamp=clamp,
    )


def frontier_sweep(
    profile: EconomyProfile,
    beta_white: float,
    v_over_l: float,
    grid: GridSpec = GridSpec(),
) -> SweepGrid:
    """One-row sweep: every lattice blue-collar risk at a fixed white-collar risk."""
    return _solve_lattice(profile, (beta_white,), v_over_l, grid)


def frontier_curve(
    profile: EconomyProfile,
    beta_white: float,
    v_over_l: float,
    grid: GridSpec = GridSpec(),
) -> list[tuple[float, float]]:
    """Optimal dose share against blue-collar risk at a fixed white-collar risk.

    Returns one (beta_blue, v_blue_star / V) point per lattice value.
    """
    row = frontier_sweep(profile, beta_white, v_over_l, grid)
    return list(zip(row.beta_blue, (row.v_blue_star[0] / row.vaccines).tolist()))


def sweep_matrix(
    profile: EconomyProfile,
    v_over_l: float,
    grid: GridSpec = GridSpec(),
    workers: int = 1,
) -> SweepGrid:
    """Solve every lattice cell at a fixed stock level.

    ``workers`` is accepted for compatibility and ignored: the whole lattice
    is one array computation.
    """
    return _solve_lattice(profile, grid.values(), v_over_l, grid)


def threshold_share(sweep: SweepGrid, threshold: float) -> ThresholdSummary:
    """Fraction of beta_b > beta_w cells whose dose share exceeds the cutoff.

    Both comparisons are strict: a cell counts when beta_blue is strictly
    above beta_white and its share is strictly above the threshold.
    """
    if not (0.0 < threshold < 1.0):
        raise ModelInputError(f"threshold must lie in (0, 1), got {threshold!r}")
    riskier_blue, considered = _riskier_blue(sweep.beta_white, sweep.beta_blue)
    if considered == 0:
        raise ModelInputError("no cells with beta_blue > beta_white; grid too small")
    above = sweep.v_blue_star / sweep.vaccines > threshold
    exceeding = int(np.count_nonzero(riskier_blue & above))
    return ThresholdSummary(
        threshold=threshold,
        share_exceeding=exceeding / considered,
        cells_considered=considered,
    )
