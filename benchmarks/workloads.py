"""Seeded inputs for the benchmark workloads.

Every workload is a block of CLI requests that one closed-loop client sends
through ``vaxalloc.cli.main``: the next request goes out only after the
previous one returned.  The seed draws the 7-country dataset and, for
``interactive_mix``, the request parameters; the program only ever sees the
generated CSV (``--input``) and argument lists.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# Why each workload is in the benchmark (mirrored in BENCHMARK.json).
WHY = {
    "sweep_fine": "91x91x3x7 = 173,901 cells to one 7.4 MB CSV: the solve path and row "
    "building/emission are both heavy and all rows are held in memory",
    "summarize_fine": "solves the same 173,901 cells but writes 21 rows: a kernel change "
    "shows in full, an emission-only change must not move it",
    "interactive_mix": "stream of small single-country requests of every kind, half JSON: "
    "fixed per-call costs (parser, calibrate, oracle audits) set latency",
}

CALIBRATE_DEFAULT_GAMMA = 0.8
FINE_STOCKS = (0.2, 0.4, 0.6)
DEFAULT_GRID = (0.05, 0.95, 0.05)
DEGENERATE_GRID = (0.0, 0.9, 0.05)  # same 19 points per axis, but includes beta = 0

# Exact request counts per kind in every interactive block of 20: the mix
# (solve 40 %, frontier 20 %, audit 15 %, calibrate 10 %, sweep 15 %) is
# stratified rather than sampled so every seed sends the same cost profile.
MIX = (("solve", 8), ("frontier", 4), ("audit", 3), ("calibrate", 2), ("sweep", 3))
MIX_UNIT = sum(count for _, count in MIX)


@dataclass(frozen=True)
class Size:
    """How much work one pass of a workload does."""

    beta_step: float = 0.01   # lattice step of the fine workloads
    block: int = 1000         # requests per interactive pass: ten beyond the p99
    setup_runs: int = 20      # least number of fresh processes timed for setup_s
    probe_runs: int = 5       # fresh processes per import probe


FULL = Size()
TINY = Size(beta_step=0.1, block=MIX_UNIT, setup_runs=1, probe_runs=1)


@dataclass(frozen=True)
class Country:
    code: str
    employment: float
    telework_share: float


@dataclass(frozen=True)
class Request:
    """One CLI call with every parameter explicit, so checks need no defaults."""

    command: str
    gamma: float = CALIBRATE_DEFAULT_GAMMA
    country: Optional[str] = None
    fmt: str = "csv"
    beta_w: tuple[float, ...] = ()
    beta_b: Optional[float] = None
    v_over_l: tuple[float, ...] = ()
    grid: Optional[tuple[float, float, float]] = None
    threshold: Optional[float] = None

    def argv(self, input_path: Path, output_path: Path) -> list[str]:
        args = [self.command, "--input", str(input_path), "--output", str(output_path),
                "--gamma", repr(self.gamma), "--format", self.fmt]
        if self.country is not None:
            args += ["--country", self.country]
        if self.beta_w:
            args += ["--beta-w", ",".join(map(repr, self.beta_w))]
        if self.beta_b is not None:
            args += ["--beta-b", repr(self.beta_b)]
        if self.v_over_l:
            args += ["--v-over-l", ",".join(map(repr, self.v_over_l))]
        if self.grid is not None:
            low, high, step = self.grid
            args += ["--beta-min", repr(low), "--beta-max", repr(high), "--beta-step", repr(step)]
        if self.threshold is not None:
            args += ["--threshold", repr(self.threshold)]
        return args


def draw_countries(rng: random.Random) -> list[Country]:
    """Seven distinct two-letter codes, log-uniform employment, telework share
    in a band around the bundled dataset's 0.30-0.55."""
    codes: list[str] = []
    while len(codes) < 7:
        code = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(2))
        if code not in codes:
            codes.append(code)
    return [
        Country(code, float(round(math.exp(rng.uniform(math.log(2e5), math.log(5e7))))),
                round(rng.uniform(0.25, 0.60), 4))
        for code in codes
    ]


def write_dataset(countries: list[Country], path: Path) -> None:
    lines = ["country,employment,telework_share"]
    lines += [f"{c.code},{c.employment!r},{c.telework_share!r}" for c in countries]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def fine_grid(size: Size) -> tuple[float, float, float]:
    return (DEFAULT_GRID[0], DEFAULT_GRID[1], size.beta_step)


def _beta(rng: random.Random) -> float:
    return round(rng.uniform(0.02, 0.98), 4)


def _stocks(rng: random.Random, count: int) -> tuple[float, ...]:
    return tuple(round(rng.uniform(0.05, 0.9), 4) for _ in range(count))


def _interactive_request(rng: random.Random, kind: str, index: int,
                         countries: list[Country]) -> Request:
    # ``index`` counts requests of this kind; it fixes the heavy parameters
    # (list lengths, format, degenerate corner) so the cost mix is seed-free.
    common = {
        "country": rng.choice(countries).code,
        "fmt": "json" if index % 2 else "csv",
        "gamma": round(rng.uniform(0.5, 0.95), 4) if index % 4 >= 2 else CALIBRATE_DEFAULT_GAMMA,
    }
    degenerate = index % 10 == 5 and kind != "calibrate"
    if degenerate:
        common["gamma"] = 1.0
    if kind == "calibrate":
        return Request("calibrate", **common)
    if kind in ("solve", "audit"):
        beta_w, beta_b = (0.0, 0.0) if degenerate else (_beta(rng), _beta(rng))
        return Request(kind, beta_w=(beta_w,), beta_b=beta_b,
                       v_over_l=_stocks(rng, 1 + index % 3), **common)
    grid = DEGENERATE_GRID if degenerate else DEFAULT_GRID
    if kind == "frontier":
        beta_w = tuple(_beta(rng) for _ in range(1 + index // 2 % 2))
        if degenerate:
            beta_w = (0.0,) + beta_w[1:]
        return Request("frontier", beta_w=beta_w, v_over_l=_stocks(rng, 1), grid=grid, **common)
    return Request("sweep", v_over_l=_stocks(rng, 1), grid=grid, **common)


def build_block(name: str, seed: int, size: Size) -> tuple[list[Country], list[Request]]:
    """The dataset and the request block one pass of workload ``name`` sends."""
    rng = random.Random(seed)
    countries = draw_countries(rng)
    if name == "sweep_fine":
        return countries, [Request("sweep", v_over_l=FINE_STOCKS, grid=fine_grid(size))]
    if name == "summarize_fine":
        return countries, [Request("summarize", v_over_l=FINE_STOCKS, grid=fine_grid(size),
                                   threshold=0.66)]
    if name != "interactive_mix":
        raise KeyError(name)
    requests = []
    for kind, per_unit in MIX:
        count = size.block * per_unit // MIX_UNIT
        requests += [_interactive_request(rng, kind, i, countries) for i in range(count)]
    rng.shuffle(requests)
    return countries, requests


def save_requests(requests: list[Request], path: Path) -> None:
    """Write the request sequence as argument lists, for inspection after the run."""
    path.write_text(json.dumps([r.argv(Path("IN"), Path("OUT")) for r in requests]), "utf-8")
