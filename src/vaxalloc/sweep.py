"""Scenario sweeps over infection-risk grids.

Every analysis is a lattice of (beta_w, beta_b) cells at one stock level,
solved by ``sweep_matrices``.  A full matrix has the grid on both axes.  A
frontier replaces the white-collar axis by a list of risks: each row is a
curve of the optimal blue-collar dose share against blue-collar risk.
Threshold summaries count the above-diagonal cells (beta_b > beta_w) whose
share exceeds a cutoff: ``threshold_share`` on a solved lattice, or
``threshold_shares``, which finds only those cells' roots for every profile
of a run.  It and ``sweep_matrices`` check stocks through ``_levels``; both
summaries count through ``_exceeding``, alike for a root and its clamped dose.

Cells are solved by the array kernel ``model.stock_solver``, which matches
the scalar ``solve`` bit for bit: one country's stocks share its first
stage.  The module caches only the risk tuples of recent grids
(``_lattice``); ``AllocationResult`` objects are built by the scalar ``solve``
each time ``SweepGrid.cells`` is read.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator

import numpy as np

from .model import (
    AllocationResult,
    EconomyProfile,
    ModelInputError,
    Scenario,
    _Frozen,
    solve,
    stock_solver,
)

# Largest lattice accepted per axis: a 0.0005 step over [0, 1].  A full
# sweep holds a few arrays of MAX_GRID_POINTS**2 doubles (~32 MB each).
MAX_GRID_POINTS = 2001

# Riskier-blue cells per kernel call in threshold_shares: a grid of up to 362
# points is one call, and a call's arrays stay at 512 KiB each.
_BLOCK = 1 << 16


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
        return _lattice(self.beta_min, self.beta_max, self.step, self.points)


# typed: GridSpec(0, 1, 1) == GridSpec(0.0, 1.0, 1.0), but only one yields ints.
@functools.lru_cache(maxsize=8, typed=True)
def _lattice(beta_min: float, beta_max: float, step: float, points: int) -> tuple[float, ...]:
    # Rounding keeps lattice values like 0.15 exact instead of 0.15000000000000002.  It can
    # lower the first value below beta_min, and it or the slack in points can lift the last
    # past beta_max, so each is clamped back; a value equal to beta_min keeps its sign.
    values = (min(round(beta_min + i * step, 12), beta_max) for i in range(points))
    return tuple(v if v >= beta_min else beta_min for v in values)


def _riskier_blue(beta_white: tuple | np.ndarray,
                  beta_blue: tuple | np.ndarray) -> tuple[np.ndarray, int]:
    """beta_blue > beta_white mask of a lattice, and its count, which is positive."""
    mask = np.less.outer(beta_white, beta_blue)
    considered = int(np.count_nonzero(mask))
    if considered == 0:
        raise ModelInputError("no cells with beta_blue > beta_white; grid too small")
    return mask, considered


class SweepGrid(_Frozen):
    """Solved allocations on a (beta_w, beta_b) lattice at one stock level.

    Row i of the arrays is ``beta_white[i]`` and column j is ``beta_blue[j]``;
    ``clamp[i, j]`` indexes ``model.CLAMPS``.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity: arrays have no truth value
    spec: GridSpec
    v_over_l: float
    vaccines: float
    profile: EconomyProfile
    beta_white: tuple[float, ...]
    beta_blue: tuple[float, ...]
    v_blue_star: np.ndarray
    clamp: np.ndarray

    @property
    def cells(self) -> dict[tuple[float, float], AllocationResult]:
        """Each cell's scalar ``solve``, built on each read: n**2 solves, for small lattices."""
        return {(beta_w, beta_b): solve(self.profile, Scenario(beta_w, beta_b, self.vaccines))
                for beta_w in self.beta_white for beta_b in self.beta_blue}


class ThresholdSummary(_Frozen):
    """Share of riskier-blue-collar scenarios above a dose-share cutoff."""

    threshold: float
    share_exceeding: float
    cells_considered: int


def _levels(profile: EconomyProfile, stocks: Iterable[float],
            beta_white: tuple[float, ...]) -> list[tuple[float, float]]:
    """(v_over_l, vaccines) of each stock, the first checked with every white-collar risk
    and the rest with the first, at blue-collar risk 0.0.  A risk is bad at every stock or
    none, so this one stock check reports the first bad (stock, risk) pair in row order."""
    levels = []
    for v_over_l in stocks:
        for beta_w in beta_white[:1] if levels else beta_white:
            scenario = Scenario.with_coverage(profile, beta_w, 0.0, v_over_l)
        levels.append((v_over_l, scenario.vaccines))
    return levels


def sweep_matrices(profile: EconomyProfile, stocks: Iterable[float], grid: GridSpec = GridSpec(),
                   beta_white: tuple[float, ...] | None = None) -> Iterator[SweepGrid]:
    """Solve every lattice cell at each stock level, one ``SweepGrid`` per stock.

    ``beta_white``, a frontier's rows in order, replaces the grid as the
    white-collar axis.  This call validates every stock and risk; the lattices
    are solved as read and share the kernel's first stage while the iterator runs.
    """
    beta_blue = grid.values()
    if beta_white is not None and not 0 < len(beta_white) <= MAX_GRID_POINTS:
        raise ModelInputError(  # one lattice row per risk
            f"beta_white needs 1 to {MAX_GRID_POINTS} risks, got {len(beta_white)}")
    levels = _levels(profile, stocks, (0.0,) if beta_white is None else beta_white)
    beta_white = beta_blue if beta_white is None else tuple(beta_white)

    def solved() -> Iterator[SweepGrid]:
        solve_stock = stock_solver(profile, np.asarray(beta_white)[:, None],
                                   np.asarray(beta_blue)[None, :])[1]
        for v_over_l, vaccines in levels:
            yield SweepGrid(grid, v_over_l, vaccines, profile, beta_white, beta_blue,
                            *solve_stock(vaccines))

    return solved()


def sweep_matrix(profile: EconomyProfile, v_over_l: float, grid: GridSpec = GridSpec(),
                 workers: int = 1) -> SweepGrid:
    """Solve every lattice cell at a fixed stock level: ``sweep_matrices`` for one stock.

    ``workers`` is ignored: the whole lattice is one array computation.  It stays
    only for the benchmark's pool probe, which passes it, until that probe goes.
    """
    return next(sweep_matrices(profile, (v_over_l,), grid))


def _check_threshold(threshold: float) -> None:
    if not (0.0 < threshold < 1.0):
        raise ModelInputError(f"threshold must lie in (0, 1), got {threshold!r}")


def _exceeding(doses: np.ndarray, vaccines: float, threshold: float) -> int:
    """How many cells have a dose share strictly above the threshold.  As V > 0 and the
    threshold is in (0, 1), unclamped roots count as their clamped doses would."""
    return int(np.count_nonzero(doses / vaccines > threshold))


def threshold_share(sweep: SweepGrid, threshold: float) -> ThresholdSummary:
    """Fraction of beta_b > beta_w cells whose dose share exceeds the cutoff.

    Both comparisons are strict: a cell counts when beta_blue is strictly
    above beta_white and its share is strictly above the threshold.
    """
    _check_threshold(threshold)
    riskier_blue, considered = _riskier_blue(sweep.beta_white, sweep.beta_blue)
    exceeding = _exceeding(sweep.v_blue_star[riskier_blue], sweep.vaccines, threshold)
    return ThresholdSummary(threshold, exceeding / considered, considered)


def threshold_shares(profiles: Iterable[EconomyProfile], stocks: Iterable[float],
                     grid: GridSpec, threshold: float) -> Iterator[ThresholdSummary]:
    """``threshold_share`` of each (profile, stock) full lattice, profile-major.

    The call reads ``stocks`` once, checks every profile's stocks, then the
    threshold, and selects the index pairs of the grid's riskier-blue cells,
    which live as long as the iterator.  Only their roots are solved and counted,
    by ``stock_solver`` in blocks of ``_BLOCK`` whose first stage the stocks share,
    with the operations and operands of ``sweep_matrices``: each summary equals
    ``threshold_share(sweep_matrix(profile, v_over_l, grid), threshold)``.
    """
    risks = grid.values()
    stocks = tuple(stocks)
    levels = [(profile, _levels(profile, stocks, (0.0,))) for profile in profiles]
    _check_threshold(threshold)
    axis = np.asarray(risks, dtype=float)
    mask, considered = _riskier_blue(axis, axis)
    index = np.arange(axis.size)  # each cell's white- and blue-collar axis index, row-major
    rows, cols = (np.broadcast_to(at, mask.shape)[mask] for at in (index[:, None], index))
    blocks = [(rows[at:at + _BLOCK], cols[at:at + _BLOCK]) for at in range(0, considered, _BLOCK)]

    def counted() -> Iterator[ThresholdSummary]:
        for profile, stock_levels in levels:
            exceeding = [0] * len(stock_levels)
            with np.errstate(over="ignore"):  # the share of a root far above V is inf: counted
                for cells in blocks:
                    root = stock_solver(profile, axis, axis, cells)[0]
                    for k, (_, vaccines) in enumerate(stock_levels):
                        exceeding[k] += _exceeding(root(vaccines), vaccines, threshold)
            # Free the last block's arrays before handing out a summary: the next
            # profile's kernel then reuses this memory instead of faulting in fresh pages.
            del root
            for count in exceeding:
                yield ThresholdSummary(threshold, count / considered, considered)

    return counted()
