"""Command-line front end.

Each subcommand is one ``_SPECS`` entry: its CSV columns, its row source and
its JSON metadata keys.  ``_run`` calibrates the countries once, checks every
lattice's inputs, assembles the metadata and hands table rows to
``_write_table`` or ``(country, SweepGrid)`` lattices to ``_write_lattices``,
the only two emitters: long-format CSV, or JSON with provenance metadata.

Exit codes: 0 success, 1 usage or input-validation failure, 2 data error,
141 standard output closed early (as for a tool killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .calibration import (
    DEFAULT_GAMMA,
    DataFormatError,
    builtin_dataset_path,
    calibrate,
    load_countries,
)
from .model import CLAMPS, Clamp, ModelInputError, Scenario, solve

if TYPE_CHECKING:  # the commands that use oracle, sweep or json import them
    from .sweep import GridSpec, SweepGrid

DATASET_ENV_VAR = "VAXALLOC_DATASET"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PIPE = 141  # 128 + SIGPIPE

DEFAULT_V_OVER_L = (0.2, 0.4, 0.6)
DEFAULT_BETA_WHITE = (0.05, 0.25)
DEFAULT_THRESHOLD = 0.66

CLAMP_NAMES = tuple(clamp.value for clamp in CLAMPS)  # clamp code -> CSV label

SWEEP_FIELDS = ("country", "v_over_l", "beta_w", "beta_b", "v_ratio", "clamp")


class UsageError(Exception):
    pass


class _StdoutClosed(Exception):
    """The reader of standard output went away before it was all written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit(2)
        raise UsageError(message)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="vaxalloc",
        description="Unemployment-minimizing vaccine allocation between "
        "on-site and remote-capable workers.",
    )
    common = _Parser(add_help=False)
    common.add_argument(
        "--input",
        metavar="PATH",
        help=f"country CSV (default: ${DATASET_ENV_VAR} or the built-in synthetic dataset)",
    )
    common.add_argument("--gamma", type=float, default=DEFAULT_GAMMA,
                        help="home-office productivity retention (default %(default)s)")
    common.add_argument("--country", metavar="CODE", help="restrict to one country code")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default %(default)s)")
    common.add_argument("--output", metavar="PATH", default="-",
                        help="output file, '-' for standard output (default)")

    grid = _Parser(add_help=False)
    grid.add_argument("--beta-min", type=float, default=0.05)
    grid.add_argument("--beta-max", type=float, default=0.95)
    grid.add_argument("--beta-step", type=float, default=0.05)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", parents=[common],
                       help="emit calibrated economy profiles")

    p = sub.add_parser("solve", parents=[common], help="solve single scenarios")
    p.add_argument("--beta-w", type=float, required=True, help="white-collar infection risk")
    p.add_argument("--beta-b", type=float, required=True, help="blue-collar infection risk")
    p.add_argument("--v-over-l", type=_float_list, default=DEFAULT_V_OVER_L,
                   help="comma-separated vaccine coverage fractions (default 0.2,0.4,0.6)")

    p = sub.add_parser("frontier", parents=[common, grid],
                       help="dose share as a function of blue-collar risk")
    p.add_argument("--beta-w", type=_float_list, default=DEFAULT_BETA_WHITE,
                   help="comma-separated white-collar risks (default 0.05,0.25)")
    p.add_argument("--v-over-l", type=_float_list, default=DEFAULT_V_OVER_L)

    p = sub.add_parser("sweep", parents=[common, grid],
                       help="solve the full (beta_w, beta_b) matrix")
    p.add_argument("--v-over-l", type=_float_list, default=DEFAULT_V_OVER_L)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: each matrix is solved as one array "
                   "computation")
    p.add_argument("--out-dir", metavar="DIR",
                   help="write one file per (country, v_over_l) here instead of --output")

    p = sub.add_parser("summarize", parents=[common, grid],
                       help="share of riskier-blue-collar cells above a dose-share threshold")
    p.add_argument("--v-over-l", type=_float_list, default=DEFAULT_V_OVER_L)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="dose-share cutoff (default %(default)s)")

    p = sub.add_parser("audit", parents=[common],
                       help="compare the closed form against the brute-force oracle")
    p.add_argument("--beta-w", type=float, required=True)
    p.add_argument("--beta-b", type=float, required=True)
    p.add_argument("--v-over-l", type=_float_list, default=DEFAULT_V_OVER_L)
    p.add_argument("--grid-points", type=int, default=100_001)
    p.add_argument("--no-refine", action="store_true",
                   help="skip the golden-section refinement pass")

    return parser


def _resolve_dataset(args) -> tuple[Path, str]:
    if args.input:
        return Path(args.input), "flag"
    env = os.environ.get(DATASET_ENV_VAR)
    if env:
        return Path(env), "env"
    return builtin_dataset_path(), "builtin"


def _select_records(args):
    path, origin = _resolve_dataset(args)
    try:
        records = load_countries(path)
    except OSError as exc:
        raise DataFormatError(f"cannot read dataset {path}: {exc}") from None
    if args.country is not None:
        records = [r for r in records if r.country_code == args.country]
        if not records:
            raise UsageError(f"country {args.country!r} not in dataset {path}")
    if not records:
        raise DataFormatError(f"dataset {path} contains no countries")
    return records, {"dataset": str(path), "dataset_origin": origin}


@contextmanager
def _opened(path):
    """Text handle on ``path``, or stdout for '-'.

    A new or regular file is written under a temporary sibling name and
    renamed into place once complete, so a failed run leaves the target
    absent or as it was.  A symlink, device or pipe is written in place.
    """
    if path == "-":
        try:
            yield sys.stdout
            sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        except BrokenPipeError:
            raise _StdoutClosed from None
        return
    target = Path(path)
    if target.is_symlink() or (target.exists() and not target.is_file()):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            yield handle
        return
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(temp, target)
    except BaseException as exc:
        temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(temp):  # name the file asked for
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _write_table(path, fmt: str, command: str, fields, rows, metadata) -> None:
    """Write rows of values in ``fields`` order as CSV or as one JSON document."""
    with _opened(path) as handle:
        if fmt == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(fields)
            writer.writerows(rows)
        else:
            import json
            rows = [dict(zip(fields, row)) for row in rows]
            document = {"command": command, "metadata": metadata, "rows": rows}
            handle.write(json.dumps(document, indent=2))
            handle.write("\n")


def _write_lattice_csv(handle, country: str, sweep: SweepGrid) -> None:
    # No field needs CSV quoting: country codes are letters, clamp labels are
    # fixed words and a float repr has no comma.
    prefix = f"{country},{sweep.v_over_l!r},"
    blue = [f"{beta_b!r}," for beta_b in sweep.beta_blue]
    for i, beta_w in enumerate(sweep.beta_white):
        head = f"{prefix}{beta_w!r},"
        ratios = (sweep.v_blue_star[i] / sweep.vaccines).tolist()
        handle.write("".join([f"{head}{b}{ratio!r},{CLAMP_NAMES[code]}\n"
                              for b, ratio, code in zip(blue, ratios, sweep.clamp[i].tolist())]))


def _write_lattice_json(handle, country: str, sweep: SweepGrid, lead: str) -> None:
    # Each row as json.dumps(document, indent=2) writes it at depth 2, rows
    # separated by ",\n"; ``lead`` goes before the lattice's first row.
    # json.dumps escapes the country as the whole-document encoder would; clamp
    # labels are plain ASCII words and json writes a float as its repr.
    import json
    prefix = (f'    {{\n      "country": {json.dumps(country)},\n'
              f'      "v_over_l": {sweep.v_over_l!r},\n')
    blue = [f'      "beta_b": {beta_b!r},\n      "v_ratio": ' for beta_b in sweep.beta_blue]
    for i, beta_w in enumerate(sweep.beta_white):
        head = f'{prefix}      "beta_w": {beta_w!r},\n'
        ratios = (sweep.v_blue_star[i] / sweep.vaccines).tolist()
        handle.write(lead + ",\n".join([
            f'{head}{b}{ratio!r},\n      "clamp": "{CLAMP_NAMES[code]}"\n    }}'
            for b, ratio, code in zip(blue, ratios, sweep.clamp[i].tolist())]))
        lead = ",\n"


def _write_lattices(path, fmt: str, command: str, lattices, metadata) -> None:
    """Write ``(country, SweepGrid)`` pairs, at least one, in the sweep schema.

    Both formats are streamed one ``beta_white`` row at a time, so memory
    never holds every row.  CSV solves each lattice as it is written.  JSON
    solves them all first: the metadata ahead of the rows counts
    ``degenerate_rows`` (appended, or filled in where ``metadata`` has it),
    so it holds every lattice's arrays, 9 bytes a cell.  The JSON bytes are
    those of ``json.dumps(document, indent=2)``.
    """
    if fmt == "csv":
        with _opened(path) as handle:
            handle.write(",".join(SWEEP_FIELDS) + "\n")
            for country, sweep in lattices:
                _write_lattice_csv(handle, country, sweep)
        return
    import json
    lattices = list(lattices)
    degenerate = sum(int((sweep.clamp == CLAMPS.index(Clamp.DEGENERATE)).sum())
                     for _, sweep in lattices)
    metadata = json.dumps({**metadata, "degenerate_rows": degenerate}, indent=2)
    # One level deeper in the document; json escapes newlines inside strings.
    metadata = metadata.replace("\n", "\n  ")
    with _opened(path) as handle:
        handle.write(f'{{\n  "command": {json.dumps(command)},\n  "metadata": {metadata},\n'
                     f'  "rows": [')
        lead = "\n"
        for country, sweep in lattices:
            _write_lattice_json(handle, country, sweep, lead)
            lead = ",\n"
        handle.write("\n  ]\n}\n")


def _scenarios(args, profiles):
    """(country, v_over_l, profile, scenario, closed-form result) per country and stock."""
    for record, profile in profiles:
        for v_over_l in args.v_over_l:
            scenario = Scenario.with_coverage(profile, args.beta_w, args.beta_b, v_over_l)
            yield record.country_code, v_over_l, profile, scenario, solve(profile, scenario)


def _matrices(args, profiles, grid: GridSpec):
    """Row source of sweep: (country, SweepGrid) per country and stock, solved as read."""
    from .sweep import sweep_matrix
    return ((record.country_code, sweep_matrix(profile, v_over_l, grid))
            for record, profile in profiles for v_over_l in args.v_over_l), {"grid": vars(grid)}


def _calibrate_rows(args, profiles, _):
    return [(record.country_code, record.employment_total, record.telework_share,
             profile.labor_white, profile.labor_blue, profile.alpha_white, profile.alpha_blue,
             profile.gamma) for record, profile in profiles], {}


def _solve_rows(args, profiles, _):
    rows = [(country, args.beta_w, args.beta_b, v_over_l, result.v_blue_star,
             result.v_blue_star / scenario.vaccines, result.clamp.value, result.objective,
             result.surplus_blue, result.surplus_white)
            for country, v_over_l, _, scenario, result in _scenarios(args, profiles)]
    return rows, {"degenerate_rows": sum(row[6] == Clamp.DEGENERATE.value for row in rows)}


def _frontier_rows(args, profiles, grid: GridSpec):
    from .sweep import frontier_sweep
    return ((record.country_code, frontier_sweep(profile, beta_w, v_over_l, grid))
            for record, profile in profiles
            for v_over_l in args.v_over_l for beta_w in args.beta_w), {"grid": vars(grid)}


def _summarize_rows(args, profiles, grid: GridSpec):
    from .sweep import threshold_share
    return [(country, sweep.v_over_l, args.threshold,
             threshold_share(sweep, args.threshold).share_exceeding)
            for country, sweep in _matrices(args, profiles, grid)[0]], {"grid": vars(grid)}


def _audit_rows(args, profiles, config):
    from .oracle import brute_force_optimum
    rows = []
    for country, v_over_l, profile, scenario, result in _scenarios(args, profiles):
        oracle_v, oracle_objective = brute_force_optimum(profile, scenario, config)
        rows.append((country, args.beta_w, args.beta_b, v_over_l, result.v_blue_star, oracle_v,
                     result.objective, oracle_objective, result.objective - oracle_objective))
    return rows, {"oracle": vars(config)}


# command -> (CSV columns, row source, metadata keys after "gamma").  A row
# source maps (args, profiles, grid or oracle config) to its rows, which are
# (country, SweepGrid) lattices under SWEEP_FIELDS, and the metadata it computed.
# Other keys show their flag (json writes a tuple as a list); _write_lattices counts
# degenerate_rows.
_SPECS = {
    "calibrate": (("country", "employment", "telework_share", "labor_white", "labor_blue",
                   "alpha_white", "alpha_blue", "gamma"), _calibrate_rows, ()),
    "solve": (("country", "beta_w", "beta_b", "v_over_l", "v_blue_star", "v_ratio", "clamp",
               "objective", "surplus_blue", "surplus_white"), _solve_rows,
              ("beta_w", "beta_b", "v_over_l", "degenerate_rows")),
    "frontier": (SWEEP_FIELDS, _frontier_rows, ("beta_w", "v_over_l", "grid", "degenerate_rows")),
    "sweep": (SWEEP_FIELDS, _matrices, ("v_over_l", "grid")),
    "summarize": (("country", "v_over_l", "threshold", "share_exceeding"), _summarize_rows,
                  ("v_over_l", "threshold", "grid")),
    "audit": (("country", "beta_w", "beta_b", "v_over_l", "v_blue_star", "oracle_v_blue",
               "objective", "oracle_objective", "gap"), _audit_rows,
              ("beta_w", "beta_b", "v_over_l", "oracle")),
}


def _run(args, records, provenance) -> int:
    fields, row_source, keys = _SPECS[args.command]
    setting = None  # checked before the economies are calibrated
    if "grid" in keys:
        from .sweep import GridSpec
        setting = GridSpec(args.beta_min, args.beta_max, args.beta_step)
    elif "oracle" in keys:
        from .oracle import OracleConfig
        setting = OracleConfig(grid_points=args.grid_points, refine=not args.no_refine)
    profiles = [(record, calibrate(record, args.gamma)) for record in records]
    if fields == SWEEP_FIELDS:  # each lattice's stock and first risk row, before any is written
        for _, profile in profiles:
            for v_over_l in args.v_over_l:
                for beta_w in getattr(args, "beta_w", (setting.beta_min,)):
                    Scenario.with_coverage(profile, beta_w, setting.beta_min, v_over_l)
    rows, computed = row_source(args, profiles, setting)
    values = {**vars(args), "degenerate_rows": None, **computed}
    metadata = {"gamma": args.gamma, **{key: values[key] for key in keys}, **provenance}
    if fields != SWEEP_FIELDS:
        _write_table(args.output, args.format, args.command, fields, rows, metadata)
    elif getattr(args, "out_dir", None) is None:
        _write_lattices(args.output, args.format, args.command, rows, metadata)
    else:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for country, sweep in rows:
            _write_lattices(out_dir / f"sweep_{country}_{sweep.v_over_l!r}.{args.format}",
                            args.format, "sweep", [(country, sweep)],
                            {**metadata, "v_over_l": sweep.v_over_l})
    return EXIT_OK


# Built on the first call to main and reused: parsing leaves it unchanged,
# since every default is immutable, no action appends and errors raise.
_parser: Optional[_Parser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        records, provenance = _select_records(args)
        return _run(args, records, provenance)
    except (UsageError, ModelInputError) as exc:
        print(f"vaxalloc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, OSError) as exc:
        print(f"vaxalloc: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _StdoutClosed:
        if sys.stdout is sys.__stdout__:
            # Output still buffered goes to devnull at exit instead of failing
            # again; an in-process caller's replacement stdout keeps fd 1.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
