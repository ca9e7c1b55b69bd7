"""Correctness checks on CLI outputs, made from outside the program.

Each output is parsed back and compared with what its request implies:
the row count and row keys, a closed form of the benchmark's own (same
formulas as the paper, vectorised with numpy), clamp labels from the four
``Clamp`` values, audit gaps inside the acceptance tolerance, and a seeded
sample of rows against ``oracle.brute_force_optimum``.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from vaxalloc import oracle
from vaxalloc.model import EconomyProfile, Scenario

from workloads import Country, Request

CLAMPS = ("AllWhite", "Interior", "AllBlue", "Degenerate")
ALL_WHITE, INTERIOR, ALL_BLUE, DEGENERATE = range(4)

RATIO_TOL = 1e-9      # absolute, on a dose share in [0, 1]
OBJECTIVE_TOL = 1e-9  # relative to alpha_w*L_w + alpha_b*L_b, as acceptance criterion 1
REL_TOL = 1e-12       # calibrated coefficients

FIELDS = {
    "calibrate": ("country", "employment", "telework_share", "labor_white", "labor_blue",
                  "alpha_white", "alpha_blue", "gamma"),
    "solve": ("country", "beta_w", "beta_b", "v_over_l", "v_blue_star", "v_ratio",
              "clamp", "objective", "surplus_blue", "surplus_white"),
    "frontier": ("country", "v_over_l", "beta_w", "beta_b", "v_ratio", "clamp"),
    "sweep": ("country", "v_over_l", "beta_w", "beta_b", "v_ratio", "clamp"),
    "summarize": ("country", "v_over_l", "threshold", "share_exceeding"),
    "audit": ("country", "beta_w", "beta_b", "v_over_l", "v_blue_star", "oracle_v_blue",
              "objective", "oracle_objective", "gap"),
}


class CheckError(Exception):
    pass


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    clamps: Counter = field(default_factory=Counter)  # clamp label -> cells


def check_output(request: Request, countries: list[Country], data: bytes,
                 rng: random.Random) -> Verdict:
    """Check one CLI output; ``rng`` picks the rows re-solved by the oracle."""
    try:
        table = _parse(request, data)
        return Verdict(True, clamps=_CHECKS[request.command](request, countries, table, rng))
    except (CheckError, ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return Verdict(False, f"{request.command}: {type(exc).__name__}: {exc}")


def lattice(grid: tuple[float, float, float]) -> np.ndarray:
    low, high, step = grid
    count = round((high - low) / step) + 1
    return np.array([round(low + i * step, 12) for i in range(count)])


def calibrated(countries: list[Country], index) -> tuple[np.ndarray, ...]:
    """(L_w, L_b, alpha_b) per row: split employment on the telework share and
    balance pre-epidemic output with alpha_w = 1."""
    employment = np.array([c.employment for c in countries])[index]
    share = np.array([c.telework_share for c in countries])[index]
    labor_blue = employment - share * employment
    labor_white = employment - labor_blue
    return labor_white, labor_blue, labor_white / labor_blue


class Cells:
    """Reference closed form on broadcast arrays, one entry per output row."""

    def __init__(self, countries: list[Country], index, gamma, beta_w, beta_b, v_over_l):
        self.labor_white, self.labor_blue, self.alpha_blue = calibrated(countries, index)
        self.alpha_white = 1.0
        self.gamma = gamma
        shape = self.labor_white.shape
        self.beta_w = np.broadcast_to(np.asarray(beta_w, dtype=float), shape)
        self.beta_b = np.broadcast_to(np.asarray(beta_b, dtype=float), shape)
        self.vaccines = v_over_l * (self.labor_white + self.labor_blue)

        dose_value_w = 1.0 - gamma * (1.0 - self.beta_w)
        leverage = self.alpha_blue * self.beta_b + self.alpha_white * dose_value_w
        numerator = self.alpha_white * (
            (1.0 - self.beta_w) * gamma * self.labor_white + dose_value_w * self.vaccines
        ) - (1.0 - self.beta_b) * self.alpha_blue * self.labor_blue
        with np.errstate(divide="ignore", invalid="ignore"):
            interior = numerator / leverage
        degenerate = leverage == 0.0
        # a root within rounding of 0 or V may land on either adjacent branch
        self.at_edge = ~degenerate & ((np.abs(interior) <= RATIO_TOL * self.vaccines)
                                      | (np.abs(interior - self.vaccines)
                                         <= RATIO_TOL * self.vaccines))
        self.code = np.select(
            [degenerate, interior <= 0.0, interior >= self.vaccines],
            [DEGENERATE, ALL_WHITE, ALL_BLUE], INTERIOR,
        )
        split = self.vaccines * self.labor_blue / (self.labor_white + self.labor_blue)
        v_star = np.select([degenerate, interior <= 0.0, interior >= self.vaccines],
                           [split, 0.0, self.vaccines], interior)
        self.ratio = v_star / self.vaccines
        self.scale = self.alpha_white * self.labor_white + self.alpha_blue * self.labor_blue

    def objective(self, v_blue):
        eff_blue = (1.0 - self.beta_b) * self.labor_blue + self.beta_b * v_blue
        eff_white = (1.0 - self.beta_w) * self.gamma * self.labor_white + (
            1.0 - self.gamma * (1.0 - self.beta_w)) * (self.vaccines - v_blue)
        return np.abs(self.alpha_blue * eff_blue - self.alpha_white * eff_white)

    def oracle_objective(self, i: int) -> float:
        profile = EconomyProfile(float(self.labor_white[i]), float(self.labor_blue[i]),
                                 self.alpha_white, float(self.alpha_blue[i]), self.gamma)
        scenario = Scenario(float(self.beta_w[i]), float(self.beta_b[i]),
                            float(self.vaccines[i]))
        return oracle.brute_force_optimum(profile, scenario)[1]


def _parse(request: Request, data: bytes) -> dict[str, list]:
    fields = FIELDS[request.command]
    text = data.decode("utf-8")
    if request.fmt == "json":
        document = json.loads(text)
        if document.get("command") != request.command or "metadata" not in document:
            raise CheckError("JSON document lacks its command or metadata")
        rows = document["rows"]
        if any(tuple(row) != fields for row in rows):
            raise CheckError("JSON row fields differ from the documented columns")
        return {name: [row[name] for row in rows] for name in fields}
    reader = csv.reader(io.StringIO(text))
    if tuple(next(reader, ())) != fields:
        raise CheckError("CSV header differs from the documented columns")
    rows = list(reader)
    if any(len(row) != len(fields) for row in rows):
        raise CheckError("CSV row with the wrong number of fields")
    columns = list(zip(*rows)) or [()] * len(fields)
    return {name: list(column) for name, column in zip(fields, columns)}


def _floats(column) -> np.ndarray:
    return np.fromiter(map(float, column), dtype=float, count=len(column))


def _product(*axes) -> list[np.ndarray]:
    grids = np.meshgrid(*[np.asarray(axis) for axis in axes], indexing="ij")
    return [grid.ravel() for grid in grids]


def _selected(request: Request, countries: list[Country]) -> list[int]:
    if request.country is None:
        return list(range(len(countries)))
    return [i for i, c in enumerate(countries) if c.code == request.country]


def _expect_rows(table: dict[str, list], countries: list[Country], index, **keys) -> None:
    """Row count, then the key columns (country and inputs) in documented order."""
    if len(table["country"]) != len(index):
        raise CheckError(f"{len(table['country'])} rows, expected {len(index)}")
    if table["country"] != [countries[i].code for i in index]:
        raise CheckError("country column out of order")
    for name, expected in keys.items():
        if not np.array_equal(_floats(table[name]), np.broadcast_to(expected, len(index))):
            raise CheckError(f"{name} column differs from the request")


def _check_shares(table: dict[str, list], cells: Cells) -> Counter:
    labels = table["clamp"]
    unknown = set(labels) - set(CLAMPS)
    if unknown:
        raise CheckError(f"unknown clamp labels {sorted(unknown)}")
    code = np.array([CLAMPS.index(label) for label in labels], dtype=int)
    ratio = _floats(table["v_ratio"])
    bad = np.flatnonzero(~(np.abs(ratio - cells.ratio) <= RATIO_TOL))
    if bad.size:
        raise CheckError(f"row {bad[0]}: v_ratio {float(ratio[bad[0]])!r}, "
                         f"closed form gives {float(cells.ratio[bad[0]])!r}")
    in_range = (0.0 <= ratio) & (ratio <= 1.0)
    consistent = np.where(code == ALL_WHITE, ratio == 0.0,
                          np.where(code == ALL_BLUE, ratio == 1.0, in_range))
    consistent &= (code == cells.code) | (cells.at_edge & (code != DEGENERATE))
    bad = np.flatnonzero(~consistent)
    if bad.size:
        raise CheckError(f"row {bad[0]}: clamp {labels[bad[0]]} does not fit v_ratio "
                         f"{float(ratio[bad[0]])!r} or the closed form's "
                         f"{CLAMPS[cells.code[bad[0]]]}")
    return Counter(labels)


def _check_oracle(cells: Cells, v_blue: np.ndarray, rng: random.Random) -> None:
    """Re-solve a seeded sample of rows with the brute-force oracle."""
    count = len(v_blue)
    objective = cells.objective(v_blue)
    for i in rng.sample(range(count), min(count, 1 + count // 10_000)):
        best = cells.oracle_objective(i)
        if not objective[i] <= best + OBJECTIVE_TOL * cells.scale[i]:
            raise CheckError(f"row {i}: objective above the brute-force optimum {best!r}")


def _check_calibrate(request, countries, table, rng) -> Counter:
    index = _selected(request, countries)
    _expect_rows(table, countries, index, gamma=request.gamma)
    labor_white, labor_blue, alpha_blue = calibrated(countries, index)
    expected = {
        "employment": [countries[i].employment for i in index],
        "telework_share": [countries[i].telework_share for i in index],
        "labor_white": labor_white, "labor_blue": labor_blue,
        "alpha_white": 1.0, "alpha_blue": alpha_blue,
    }
    for name, want in expected.items():
        if not np.allclose(_floats(table[name]), want, rtol=REL_TOL, atol=0.0):
            raise CheckError(f"{name} differs from the calibration formula")
    return Counter()


def _pair_rows(request, countries, table) -> tuple[Cells, np.ndarray]:
    """Rows of solve and audit: one (beta_w, beta_b) pair per country and stock."""
    index, v_over_l = _product(_selected(request, countries), request.v_over_l)
    cells = Cells(countries, index, request.gamma, request.beta_w[0], request.beta_b, v_over_l)
    _expect_rows(table, countries, index, beta_w=request.beta_w[0], beta_b=request.beta_b,
                 v_over_l=v_over_l)
    v_blue = _floats(table["v_blue_star"])
    if not np.all(np.abs(v_blue - cells.ratio * cells.vaccines) <= RATIO_TOL * cells.vaccines):
        raise CheckError("v_blue_star differs from the closed form")
    return cells, v_blue


def _check_solve(request, countries, table, rng) -> Counter:
    cells, v_blue = _pair_rows(request, countries, table)
    clamps = _check_shares(table, cells)
    if not np.all(np.abs(_floats(table["objective"]) - cells.objective(v_blue))
                  <= OBJECTIVE_TOL * cells.scale):
        raise CheckError("objective is not the planner objective at v_blue_star")
    if not (np.all(_floats(table["surplus_blue"]) >= 0.0)
            and np.all(_floats(table["surplus_white"]) >= 0.0)):
        raise CheckError("negative surplus")
    _check_oracle(cells, v_blue, rng)
    return clamps


def _check_grid_rows(request, countries, table, rng, beta_w_axis) -> Counter:
    beta_b_axis = lattice(request.grid)
    index, v_over_l, beta_w, beta_b = _product(
        _selected(request, countries), request.v_over_l, beta_w_axis, beta_b_axis)
    cells = Cells(countries, index, request.gamma, beta_w, beta_b, v_over_l)
    _expect_rows(table, countries, index, v_over_l=v_over_l, beta_w=beta_w, beta_b=beta_b)
    clamps = _check_shares(table, cells)
    _check_oracle(cells, _floats(table["v_ratio"]) * cells.vaccines, rng)
    return clamps


def _check_frontier(request, countries, table, rng) -> Counter:
    return _check_grid_rows(request, countries, table, rng, request.beta_w)


def _check_sweep(request, countries, table, rng) -> Counter:
    return _check_grid_rows(request, countries, table, rng, lattice(request.grid))


def _check_summarize(request, countries, table, rng) -> Counter:
    axis = lattice(request.grid)
    selected = _selected(request, countries)
    index, v_over_l = _product(selected, request.v_over_l)
    _expect_rows(table, countries, index, v_over_l=v_over_l, threshold=request.threshold)
    shares = _floats(table["share_exceeding"])
    # The summary reads the same cells a sweep writes; solve them here.
    cell_index, v_cell, beta_w, beta_b = _product(selected, request.v_over_l, axis, axis)
    cells = Cells(countries, cell_index, request.gamma, beta_w, beta_b, v_cell)
    per_row = len(axis) ** 2
    above = (beta_b > beta_w).reshape(-1, per_row)
    ratio = cells.ratio.reshape(-1, per_row)
    considered = above.sum(axis=1)
    # a share within rounding of the cutoff may fall either side of it
    low = (above & (ratio > request.threshold + RATIO_TOL)).sum(axis=1) / considered
    high = (above & (ratio > request.threshold - RATIO_TOL)).sum(axis=1) / considered
    if not np.all((low <= shares) & (shares <= high)):
        raise CheckError("share_exceeding differs from the closed form")
    counts = np.bincount(cells.code, minlength=len(CLAMPS))
    return Counter({label: int(n) for label, n in zip(CLAMPS, counts)})


def _check_audit(request, countries, table, rng) -> Counter:
    cells, _ = _pair_rows(request, countries, table)
    objective, oracle_objective, gap = (
        _floats(table[name]) for name in ("objective", "oracle_objective", "gap"))
    tolerance = OBJECTIVE_TOL * cells.scale
    if not np.all(np.abs(gap) <= tolerance):
        raise CheckError(f"audit gap {gap.tolist()} outside the acceptance tolerance")
    if not np.all(np.abs(gap - (objective - oracle_objective)) <= tolerance):
        raise CheckError("gap is not objective - oracle_objective")
    return Counter()


_CHECKS = {
    "calibrate": _check_calibrate,
    "solve": _check_solve,
    "frontier": _check_frontier,
    "sweep": _check_sweep,
    "summarize": _check_summarize,
    "audit": _check_audit,
}
