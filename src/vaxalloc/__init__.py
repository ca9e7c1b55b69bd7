"""Vaccine allocation between on-site and remote-capable workers.

A small toolkit around a two-task Leontief economy: a closed-form planner
that splits a scarce vaccine stock to minimize complementarity-driven
layoffs, a brute-force oracle for auditing it, a country calibration
pipeline, and scenario sweeps over infection-risk grids.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> public names, each imported on first use (PEP 562): the CLI loads what it needs.
_EXPORTS = {
    "calibration": ("DEFAULT_GAMMA", "CountryRecord", "DataFormatError",
                    "builtin_dataset_path", "calibrate", "load_countries", "parse_countries"),
    "model": ("AllocationResult", "Clamp", "EconomyProfile", "ModelInputError", "Scenario",
              "effective_labor", "objective", "solve"),
    "oracle": ("OracleConfig", "brute_force_optimum"),
    "sweep": ("GridSpec", "SweepGrid", "ThresholdSummary",
              "sweep_matrices", "sweep_matrix", "threshold_share", "threshold_shares"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
