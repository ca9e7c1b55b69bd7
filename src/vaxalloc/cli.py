"""Command-line front end.

Each subcommand is one ``_COMMANDS`` entry, its help and its flags, whose ``add_argument``
keywords parse well-formed argv (argparse is imported, and ``build_parser`` builds from the
table, only for help and malformed argv), and one ``_SPECS`` entry: its CSV columns, its row
source and its JSON metadata keys in order.  ``_run`` calibrates the countries once, builds
the metadata and writes table rows or ``(country, SweepGrid)`` lattices in the layout that
``_layout`` gives, the one place each format is decided: long-format CSV under a header, or
the bytes of one ``json.dumps(document, indent=2)`` with provenance metadata.

Exit codes: 0 success, 1 usage or input-validation failure, 2 data error,
141 standard output closed early (as for a tool killed by SIGPIPE): what ``main``
returns, leaving Ctrl-C and SIGTERM to its caller.  ``console``, the ``vaxalloc``
command and ``python -m vaxalloc.cli``, also exits 130 on Ctrl-C and 143 on SIGTERM.
"""

from __future__ import annotations

import errno
import io
import os
import signal
import stat
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional, Sequence

from .calibration import (
    DEFAULT_GAMMA,
    DataFormatError,
    builtin_dataset_path,
    calibrate,
    load_countries,
)
from .model import CLAMPS, Clamp, ModelInputError, Scenario, degenerate_cells, solve

if TYPE_CHECKING:  # imported where used: oracle, sweep, json by commands, argparse by help
    import argparse

    from .sweep import GridSpec

DATASET_ENV_VAR = "VAXALLOC_DATASET"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERRUPT = 130  # 128 + SIGINT
EXIT_PIPE = 141  # 128 + SIGPIPE
EXIT_TERM = 143  # 128 + SIGTERM

# lstat errors that mean "no such file" to pathlib's checks; others are raised.
_MISSING = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)

DEFAULT_V_OVER_L = (0.2, 0.4, 0.6)
DEFAULT_BETA_WHITE = (0.05, 0.25)
DEFAULT_THRESHOLD = 0.66

SWEEP_FIELDS = ("country", "v_over_l", "beta_w", "beta_b", "v_ratio", "clamp")


class UsageError(Exception):
    pass


class _StdoutClosed(Exception):
    """The reader of standard output went away before it was all written."""


class _Terminated(BaseException):  # as KeyboardInterrupt, so no `except Exception` stops it
    """SIGTERM arrived while ``console`` ran."""


def _terminate(signum, frame):
    raise _Terminated


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        import argparse  # the value goes to the full parser, which reports this
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _path(text: str) -> str:
    # open("") fails and --input "" would read the built-in dataset; no system call takes NUL
    if text and "\x00" not in text:
        return text
    import argparse  # the value goes to the full parser, which reports this
    raise argparse.ArgumentTypeError(f"path contains a NUL byte: {text!r}" if text
                                     else "path is empty")


# option string -> add_argument keywords: the flags all subcommands share, the grid flags
_COMMON = {
    "--input": dict(type=_path, metavar="PATH", help=f"country CSV (default: "
                    f"${DATASET_ENV_VAR} or the built-in synthetic dataset)"),
    "--gamma": dict(type=float, default=DEFAULT_GAMMA,
                    help="home-office productivity retention (default %(default)s)"),
    "--country": dict(metavar="CODE", help="restrict to one country code"),
    "--format": dict(choices=("csv", "json"), default="csv",
                     help="output format (default %(default)s)"),
    "--output": dict(type=_path, metavar="PATH", default="-",
                     help="output file, '-' for standard output (default)"),
}
_GRID = {"--beta-min": dict(type=float, default=0.05), "--beta-max": dict(type=float, default=0.95),
         "--beta-step": dict(type=float, default=0.05)}
_V_OVER_L = {"--v-over-l": dict(type=_float_list, default=DEFAULT_V_OVER_L)}

# subcommand -> its help and its flags in help order, read by _flag_values and build_parser
_COMMANDS = {
    "calibrate": ("emit calibrated economy profiles", _COMMON),
    "solve": ("solve single scenarios", {
        **_COMMON,
        "--beta-w": dict(type=float, required=True, help="white-collar infection risk"),
        "--beta-b": dict(type=float, required=True, help="blue-collar infection risk"),
        "--v-over-l": dict(type=_float_list, default=DEFAULT_V_OVER_L, help="comma-separated "
                           "vaccine coverage fractions (default 0.2,0.4,0.6)"),
    }),
    "frontier": ("dose share as a function of blue-collar risk", {
        **_COMMON, **_GRID,
        "--beta-w": dict(type=_float_list, default=DEFAULT_BETA_WHITE,
                         help="comma-separated white-collar risks (default 0.05,0.25)"),
        **_V_OVER_L,
    }),
    "sweep": ("solve the full (beta_w, beta_b) matrix", {
        **_COMMON, **_GRID, **_V_OVER_L,
        "--out-dir": dict(type=_path, metavar="DIR",
                          help="write one file per (country, v_over_l) here instead of --output"),
    }),
    "summarize": ("share of riskier-blue-collar cells above a dose-share threshold", {
        **_COMMON, **_GRID, **_V_OVER_L,
        "--threshold": dict(type=float, default=DEFAULT_THRESHOLD,
                            help="dose-share cutoff (default %(default)s)"),
    }),
    "audit": ("compare the closed form against the brute-force oracle", {
        **_COMMON,
        "--beta-w": dict(type=float, required=True),
        "--beta-b": dict(type=float, required=True),
        **_V_OVER_L,
        "--grid-points": dict(type=int, default=100_001),
        "--no-refine": dict(action="store_true", help="skip the golden-section refinement pass"),
    }),
}
# Read from the table as argparse reads it: each option string's dest, and each subcommand's
# namespace before its flags are read, a store_true flag False and a required one _REQUIRED.
_REQUIRED = object()
_DEST = {flag: flag[2:].replace("-", "_") for _, flags in _COMMANDS.values() for flag in flags}
_DEFAULTS = {name: {_DEST[flag]: _REQUIRED if keywords.get("required") else keywords.get(
    "default", False if "action" in keywords else None) for flag, keywords in flags.items()}
    for name, (_, flags) in _COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    """The full parser, for help and malformed argv, its usage errors raising UsageError."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # keep argparse from calling sys.exit(2)
            raise UsageError(message)

    parser = Parser(prog="vaxalloc", description="Unemployment-minimizing vaccine allocation "
                    "between on-site and remote-capable workers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option, keywords in flags.items():
            command.add_argument(option, **keywords)
    return parser


def _parse_args(argv: Sequence[str]):
    """``build_parser().parse_args(argv)``, read from the subcommand's ``_COMMANDS`` flags if
    argv is well formed: the subcommand, then ``flag value`` pairs, each flag one of its option
    strings exactly (``--no-refine`` takes no value), each value ``-`` or not starting with
    ``-`` and passing the flag's type and choices, every required flag given.  Other argv (help,
    ``--flag=value``, an abbreviation, a missing or bad value) goes to the parser, built on first
    need and kept in ``_parser``, so help and usage errors stay argparse's own."""
    global _parser
    values = _flag_values(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    if values is not None:
        return SimpleNamespace(command=argv[0], **values)
    if _parser is None:
        _parser = build_parser()
    return _parser.parse_args(argv)


def _flag_values(command: str, args: Sequence[str]) -> Optional[dict]:
    """As a dict, the namespace argparse gives ``command`` and its ``args``; None if malformed."""
    flags, values = _COMMANDS[command][1], _DEFAULTS[command].copy()
    tokens = iter(args)
    for flag in tokens:
        keywords = flags.get(flag)
        if keywords is None:
            return None
        if "action" in keywords:  # store_true, the table's one action, takes no value
            values[_DEST[flag]] = True
            continue
        text = next(tokens, None)
        if text is None or (text.startswith("-") and text != "-"):
            return None
        try:
            value = keywords["type"](text) if "type" in keywords else text
        except Exception:  # whatever a type raises, the full parser reports or raises
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[_DEST[flag]] = value
    return None if _REQUIRED in values.values() else values


def _select_records(args):
    env = os.environ.get(DATASET_ENV_VAR)
    if args.input:
        path, origin = Path(args.input), "flag"
    elif env:
        path, origin = Path(env), "env"
    else:
        path, origin = builtin_dataset_path(), "builtin"
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
def _opened(path: str):
    """A ``write`` that takes text, on the file ``path`` or on stdout for '-'.

    A new or regular file is written under a temporary sibling name and
    renamed into place once complete, so a failed run leaves the target
    absent or as it was.  A symlink, device or pipe is written in place.
    """
    if path == "-":
        try:
            yield sys.stdout.write
            sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        except BrokenPipeError:
            raise _StdoutClosed from None
        return
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)  # a symlink, device or pipe
    except OSError as exc:
        if exc.errno not in _MISSING:
            raise
        in_place = False
    # "out/" names a directory: the sibling is ".out...", and renaming a file to "out/" fails
    head, name = os.path.split(path.rstrip(os.sep))
    temp = path if in_place else os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:  # open would size its buffer by st_blksize, 4 KiB on ext4: a flush per lattice row
        with open(temp, "wb", buffering=io.DEFAULT_BUFFER_SIZE) as handle:
            yield lambda text: handle.write(text.encode())
        if not in_place:
            os.replace(temp, path)
    except BaseException as exc:
        if not in_place:
            with suppress(OSError):  # e.g. ENOTDIR when open failed: keep open's error
                os.unlink(temp)
        if isinstance(exc, OSError) and exc.filename == temp:  # name the file asked for
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _layout(command: str, fields, metadata, fmt: str):
    """The text before each field, the row end, the text before, between and after the rows,
    and the value encoder of one output.  CSV is a header line and rows; no field needs
    quoting, as countries are letters, clamps fixed words and floats comma-free.  JSON is the
    bytes of ``json.dumps(document, indent=2)`` and a newline, the document holding the
    command, the metadata and the row dicts."""
    if fmt == "csv":
        return ("", *[","] * (len(fields) - 1)), "\n", (",".join(fields) + "\n", "", ""), str
    from json.encoder import encode_basestring_ascii as quote

    def dumps(value, indent):
        """``json.dumps(value, indent=2)``, nested ``indent`` deep, for what metadata holds:
        finite floats, ints, bools, None, str, and lists, tuples and str-keyed dicts of them."""
        if isinstance(value, float):
            return float.__repr__(value)
        if isinstance(value, str):
            return quote(value)
        if value is None or value is True or value is False:
            return "null" if value is None else "true" if value else "false"
        if isinstance(value, int):
            return int.__repr__(value)
        pad, (start, end) = indent + "  ", "{}" if isinstance(value, dict) else "[]"
        items = ([f"\n{pad}{quote(key)}: {dumps(item, pad)}" for key, item in value.items()]
                 if start == "{" else [f"\n{pad}{dumps(item, pad)}" for item in value])
        return f"{start}{','.join(items)}\n{indent}{end}" if items else start + end

    head = f'{{\n  "command": {quote(command)},\n  "metadata": {dumps(metadata, "  ")},\n  "rows": '
    prefixes = [f",\n      {quote(name)}: " for name in fields]
    return (f"    {{{prefixes[0][1:]}", *prefixes[1:]), "\n    }", (
        head + "[\n", ",\n", "\n  ]\n}\n"), (
        lambda value: quote(value) if isinstance(value, str) else float.__repr__(value))


def _write_table_rows(layout, rows, write) -> None:
    """Write the whole output: each row is each field's prefix and encoded value."""
    prefixes, row_end, (lead, sep, end), encode = layout
    write(lead + sep.join(["".join([prefix + encode(value) for prefix, value
                                    in zip(prefixes, row)]) + row_end for row in rows]) + end)


def _write_lattice_rows(layout, lattices, write) -> None:
    """Write the whole output: each cell's row is head + repr(beta_w) + blue[j] + repr(share)
    + tail, written a matrix row at a time."""
    prefixes, row_end, (lead, sep, end), encode = layout
    tails = [f"{prefixes[5]}{encode(clamp.value)}{row_end}" for clamp in CLAMPS]
    for country, sweep in lattices:
        head = f"{prefixes[0]}{encode(country)}{prefixes[1]}{encode(sweep.v_over_l)}{prefixes[2]}"
        blue = [f"{prefixes[3]}{encode(beta_b)}{prefixes[4]}" for beta_b in sweep.beta_blue]
        for i, beta_w in enumerate(sweep.beta_white):
            row = f"{head}{beta_w!r}"
            ratios = (sweep.v_blue_star[i] / sweep.vaccines).tolist()
            write(lead + sep.join([f"{row}{b}{ratio!r}{tails[code]}" for b, ratio, code
                                   in zip(blue, ratios, sweep.clamp[i].tolist())]))
            lead = sep
    write(end)


def _scenarios(args, profiles):
    """(country, v_over_l, profile, scenario, closed-form result) per country and stock."""
    for record, profile in profiles:
        for v_over_l in args.v_over_l:
            scenario = Scenario.with_coverage(profile, args.beta_w, args.beta_b, v_over_l)
            yield record.country_code, v_over_l, profile, scenario, solve(profile, scenario)


def _matrices(args, profiles, grid: GridSpec):
    """Row source of frontier and sweep: checks all, solves as read; degenerate_rows unsolved."""
    from .sweep import sweep_matrices
    beta_white = getattr(args, "beta_w", None)  # a frontier's rows
    checked = [(record.country_code, sweep_matrices(profile, args.v_over_l, grid, beta_white))
               for record, profile in profiles]
    risks = grid.values()
    degenerate = sum(degenerate_cells(profile, risks if beta_white is None else beta_white, risks)
                     for _, profile in profiles) * len(args.v_over_l)
    return ((country, sweep) for country, sweeps in checked for sweep in sweeps), {
        "grid": vars(grid), "degenerate_rows": degenerate}


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


def _summarize_rows(args, profiles, grid: GridSpec):
    from .sweep import threshold_shares
    summaries = threshold_shares([profile for _, profile in profiles], args.v_over_l, grid,
                                 args.threshold)
    return [(record.country_code, v_over_l, args.threshold, next(summaries).share_exceeding)
            for record, _ in profiles for v_over_l in args.v_over_l], {"grid": vars(grid)}


def _audit_rows(args, profiles, config):
    from .oracle import brute_force_optimum
    rows = []
    for country, v_over_l, profile, scenario, result in _scenarios(args, profiles):
        oracle_v, oracle_objective = brute_force_optimum(profile, scenario, config)
        rows.append((country, args.beta_w, args.beta_b, v_over_l, result.v_blue_star, oracle_v,
                     result.objective, oracle_objective, result.objective - oracle_objective))
    return rows, {"oracle": vars(config)}


_DATASET = ("dataset", "dataset_origin")  # provenance keys, from _select_records

# command -> (CSV columns, row source, JSON metadata keys in order).  A row
# source maps (args, profiles, grid or oracle config) to its rows, under
# SWEEP_FIELDS (country, SweepGrid) lattices, and the metadata it computed.
# Other keys show their flag (json writes a tuple as a list) or the provenance.
_SPECS = {
    "calibrate": (("country", "employment", "telework_share", "labor_white", "labor_blue",
                   "alpha_white", "alpha_blue", "gamma"), _calibrate_rows, ("gamma", *_DATASET)),
    "solve": (("country", "beta_w", "beta_b", "v_over_l", "v_blue_star", "v_ratio", "clamp",
               "objective", "surplus_blue", "surplus_white"), _solve_rows,
              ("gamma", "beta_w", "beta_b", "v_over_l", "degenerate_rows", *_DATASET)),
    "frontier": (SWEEP_FIELDS, _matrices,
                 ("gamma", "beta_w", "v_over_l", "grid", "degenerate_rows", *_DATASET)),
    "sweep": (SWEEP_FIELDS, _matrices,
              ("gamma", "v_over_l", "grid", *_DATASET, "degenerate_rows")),
    "summarize": (("country", "v_over_l", "threshold", "share_exceeding"), _summarize_rows,
                  ("gamma", "v_over_l", "threshold", "grid", *_DATASET)),
    "audit": (("country", "beta_w", "beta_b", "v_over_l", "v_blue_star", "oracle_v_blue",
               "objective", "oracle_objective", "gap"), _audit_rows,
              ("gamma", "beta_w", "beta_b", "v_over_l", "oracle", *_DATASET)),
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
    rows, computed = row_source(args, profiles, setting)
    values = {**vars(args), **provenance, **computed}
    metadata = {key: values[key] for key in keys}
    if getattr(args, "out_dir", None) is None:
        write_rows = _write_lattice_rows if fields == SWEEP_FIELDS else _write_table_rows
        with _opened(args.output) as write:
            write_rows(_layout(args.command, fields, metadata, args.format), rows, write)
        return EXIT_OK
    os.makedirs(args.out_dir, exist_ok=True)  # a file per sweep lattice, each checked before
    for country, sweep in rows:
        metadata.update(v_over_l=sweep.v_over_l, degenerate_rows=degenerate_cells(
            sweep.profile, sweep.beta_white, sweep.beta_blue))
        name = f"sweep_{country}_{sweep.v_over_l!r}.{args.format}"
        with _opened(os.path.join(args.out_dir, name)) as write:
            _write_lattice_rows(_layout("sweep", fields, metadata, args.format),
                                [(country, sweep)], write)
    return EXIT_OK


# Built when _parse_args first needs it and reused: parsing leaves it unchanged,
# since every default is immutable, no action appends and errors raise.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return 0, 1, 2 or 141; Ctrl-C and signals are the caller's."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        records, provenance = _select_records(args)
        return _run(args, records, provenance)
    except (UsageError, ModelInputError) as exc:
        print(f"vaxalloc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, OSError) as exc:
        print(f"vaxalloc: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _StdoutClosed:
        return EXIT_PIPE


def console() -> None:
    """``sys.exit(main())`` once per process: Ctrl-C exits 130, an unignored SIGTERM 143."""
    if signal.getsignal(signal.SIGTERM) is not signal.SIG_IGN:
        signal.signal(signal.SIGTERM, _terminate)
    try:
        code = main()
    except KeyboardInterrupt:  # _opened has removed an output file in progress
        print("vaxalloc: interrupted", file=sys.stderr)
        code = EXIT_INTERRUPT
    except _Terminated:
        print("vaxalloc: terminated", file=sys.stderr)
        code = EXIT_TERM
    if code == EXIT_PIPE:  # output still buffered goes to devnull at exit, not failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    console()
