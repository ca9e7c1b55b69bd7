"""Vaccine allocation between on-site and remote-capable workers.

A small toolkit around a two-task Leontief economy: a closed-form planner
that splits a scarce vaccine stock to minimize complementarity-driven
layoffs, a brute-force oracle for auditing it, a country calibration
pipeline, and scenario sweeps over infection-risk grids.
"""

from .calibration import (
    DEFAULT_GAMMA,
    CountryRecord,
    DataFormatError,
    builtin_dataset_path,
    calibrate,
    load_countries,
    parse_countries,
)
from .model import (
    AllocationResult,
    Clamp,
    DegenerateModelError,
    EconomyProfile,
    ModelInputError,
    Partials,
    Scenario,
    UnemploymentBreakdown,
    crossing_point,
    effective_labor,
    interior_optimum,
    objective,
    partials,
    solve,
    unemployment,
)
from .oracle import OracleConfig, brute_force_optimum
from .sweep import (
    GridSpec,
    SweepGrid,
    ThresholdSummary,
    frontier_curve,
    frontier_sweep,
    sweep_matrix,
    threshold_share,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "Clamp",
    "CountryRecord",
    "DEFAULT_GAMMA",
    "DataFormatError",
    "DegenerateModelError",
    "EconomyProfile",
    "GridSpec",
    "ModelInputError",
    "OracleConfig",
    "Partials",
    "Scenario",
    "SweepGrid",
    "ThresholdSummary",
    "UnemploymentBreakdown",
    "builtin_dataset_path",
    "brute_force_optimum",
    "calibrate",
    "crossing_point",
    "effective_labor",
    "frontier_curve",
    "frontier_sweep",
    "interior_optimum",
    "load_countries",
    "objective",
    "parse_countries",
    "partials",
    "solve",
    "sweep_matrix",
    "threshold_share",
    "unemployment",
    "__version__",
]
