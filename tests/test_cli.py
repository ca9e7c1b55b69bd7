import csv
import errno
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vaxalloc import (
    Clamp,
    CountryRecord,
    DataFormatError,
    GridSpec,
    Scenario,
    builtin_dataset_path,
    calibrate,
    load_countries,
    solve,
    sweep_matrices,
    sweep_matrix,
    threshold_share,
)
from vaxalloc import cli, sweep
from vaxalloc.cli import (EXIT_DATA, EXIT_INTERRUPT, EXIT_OK, EXIT_PIPE, EXIT_TERM,
                          EXIT_USAGE, main)
from vaxalloc.model import CLAMPS
from vaxalloc.sweep import MAX_GRID_POINTS


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_solve_row_matches_library(capsys):
    code, out, _ = run_cli(
        ["solve", "--country", "XB", "--beta-w", "0.05", "--beta-b", "0.3",
         "--v-over-l", "0.2"],
        capsys,
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]

    record = next(r for r in load_countries(builtin_dataset_path()) if r.country_code == "XB")
    profile = calibrate(record, 0.8)
    scenario = Scenario.with_coverage(profile, 0.05, 0.3, 0.2)
    expected = solve(profile, scenario)
    assert float(row["v_blue_star"]) == expected.v_blue_star
    assert float(row["v_ratio"]) == expected.v_blue_star / scenario.vaccines
    assert row["clamp"] == expected.clamp.value
    assert float(row["objective"]) == expected.objective


def test_solve_defaults_cover_all_countries_and_stocks(capsys):
    code, out, _ = run_cli(["solve", "--beta-w", "0.05", "--beta-b", "0.3"], capsys)
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 7 * 3
    assert {row["country"] for row in rows} == {"XA", "XB", "XC", "XD", "XE", "XF", "XG"}


def test_calibrate_roundtrip(capsys):
    code, out, _ = run_cli(["calibrate"], capsys)
    assert code == EXIT_OK
    for row in read_csv(out):
        labor_white = float(row["labor_white"])
        labor_blue = float(row["labor_blue"])
        assert labor_white + labor_blue == float(row["employment"])
        balance = float(row["alpha_blue"]) * labor_blue - float(row["alpha_white"]) * labor_white
        assert abs(balance) <= 1e-9 * labor_white


def test_frontier_matches_library(capsys):
    code, out, _ = run_cli(
        ["frontier", "--country", "XA", "--beta-w", "0.25", "--v-over-l", "0.4"],
        capsys,
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    record = next(r for r in load_countries(builtin_dataset_path()) if r.country_code == "XA")
    profile = calibrate(record, 0.8)
    frontier = next(sweep_matrices(profile, (0.4,), beta_white=(0.25,)))
    expected = dict(zip(frontier.beta_blue,
                        (frontier.v_blue_star[0] / frontier.vaccines).tolist()))
    assert len(rows) == 19
    for row in rows:
        assert float(row["v_ratio"]) == expected[float(row["beta_b"])]


def test_summarize_matches_library(capsys):
    code, out, _ = run_cli(
        ["summarize", "--country", "XB", "--v-over-l", "0.2", "--threshold", "0.66"],
        capsys,
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 1
    record = next(r for r in load_countries(builtin_dataset_path()) if r.country_code == "XB")
    summary = threshold_share(sweep_matrix(calibrate(record, 0.8), 0.2), 0.66)
    assert float(rows[0]["share_exceeding"]) == summary.share_exceeding
    assert float(rows[0]["share_exceeding"]) == pytest.approx(136 / 171, abs=1e-12)


def test_audit_reports_no_gap(capsys):
    code, out, _ = run_cli(
        ["audit", "--country", "XC", "--beta-w", "0.1", "--beta-b", "0.6",
         "--v-over-l", "0.2", "--grid-points", "10001"],
        capsys,
    )
    assert code == EXIT_OK
    row = read_csv(out)[0]
    assert float(row["gap"]) <= 0.0
    assert abs(float(row["v_blue_star"]) - float(row["oracle_v_blue"])) <= 1e-6 * float(
        row["v_blue_star"]
    )


def test_json_output_carries_provenance(capsys):
    code, out, _ = run_cli(
        ["summarize", "--format", "json", "--v-over-l", "0.2"], capsys
    )
    assert code == EXIT_OK
    document = json.loads(out)
    assert document["command"] == "summarize"
    metadata = document["metadata"]
    assert metadata["gamma"] == 0.8
    assert metadata["threshold"] == 0.66
    assert metadata["grid"] == {"beta_min": 0.05, "beta_max": 0.95, "step": 0.05}
    assert metadata["dataset_origin"] == "builtin"
    assert "synthetic_countries.csv" in metadata["dataset"]
    assert len(document["rows"]) == 7


def test_csv_rows_roundtrip_through_schema(capsys):
    code, out, _ = run_cli(["solve", "--beta-w", "0.2", "--beta-b", "0.7"], capsys)
    assert code == EXIT_OK
    for row in read_csv(out):
        for field in ("beta_w", "beta_b", "v_over_l", "v_blue_star", "v_ratio",
                      "objective", "surplus_blue", "surplus_white"):
            assert math.isfinite(float(row[field]))
        assert row["clamp"] in {c.value for c in Clamp}


def test_sweep_writes_one_file_per_country_and_stock(tmp_path, capsys):
    out_dir = tmp_path / "matrices"
    code, _, _ = run_cli(
        ["sweep", "--country", "XA", "--v-over-l", "0.2,0.6",
         "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == EXIT_OK
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["sweep_XA_0.2.csv", "sweep_XA_0.6.csv"]
    with (out_dir / "sweep_XA_0.2.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 19 * 19
    assert {row["country"] for row in rows} == {"XA"}


def test_sweep_stdout_long_format(capsys):
    code, out, _ = run_cli(
        ["sweep", "--country", "XF", "--v-over-l", "0.4", "--beta-min", "0.2",
         "--beta-max", "0.8", "--beta-step", "0.2"],
        capsys,
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 16
    record = next(r for r in load_countries(builtin_dataset_path()) if r.country_code == "XF")
    result = sweep_matrix(calibrate(record, 0.8), 0.4, GridSpec(0.2, 0.8, 0.2))
    for row in rows:
        key = (float(row["beta_w"]), float(row["beta_b"]))
        assert float(row["v_ratio"]) == result.cells[key].v_blue_star / result.vaccines


def test_sweep_reruns_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        code, _, _ = run_cli(
            ["sweep", "--country", "XD", "--v-over-l", "0.2", "--output", str(path)],
            capsys,
        )
        assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_sweep_multi_stock_reruns_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        code, _, _ = run_cli(
            ["sweep", "--country", "XD", "--v-over-l", "0.2,0.4", "--output", str(path)],
            capsys,
        )
        assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_dataset_env_override(tmp_path, capsys, monkeypatch):
    dataset = tmp_path / "mine.csv"
    dataset.write_text("country,employment,telework_share\nQQ,1000,0.5\n")
    monkeypatch.setenv("VAXALLOC_DATASET", str(dataset))
    code, out, _ = run_cli(["calibrate", "--format", "json"], capsys)
    assert code == EXIT_OK
    document = json.loads(out)
    assert document["metadata"]["dataset_origin"] == "env"
    assert [row["country"] for row in document["rows"]] == ["QQ"]


def test_input_flag_beats_env(tmp_path, capsys, monkeypatch):
    flag_dataset = tmp_path / "flag.csv"
    flag_dataset.write_text("country,employment,telework_share\nZQ,1000,0.5\n")
    monkeypatch.setenv("VAXALLOC_DATASET", "/nonexistent.csv")
    code, out, _ = run_cli(["calibrate", "--input", str(flag_dataset)], capsys)
    assert code == EXIT_OK
    assert read_csv(out)[0]["country"] == "ZQ"


def test_usage_errors_exit_one(capsys):
    code, _, err = run_cli(["solve", "--beta-w", "0.05"], capsys)  # --beta-b missing
    assert code == EXIT_USAGE
    assert "error" in err

    code, _, _ = run_cli(
        ["solve", "--beta-w", "0.05", "--beta-b", "2.0"], capsys
    )  # out-of-range risk
    assert code == EXIT_USAGE

    code, _, _ = run_cli(
        ["solve", "--beta-w", "0.05", "--beta-b", "0.3", "--gamma", "1.5"], capsys
    )
    assert code == EXIT_USAGE

    code, _, _ = run_cli(
        ["solve", "--country", "ZZ", "--beta-w", "0.05", "--beta-b", "0.3"], capsys
    )  # unknown country
    assert code == EXIT_USAGE


@pytest.mark.parametrize("flags", [
    ["--v-over-l", "0"],
    ["--beta-w", "1.5"],
    ["--beta-w", "nan"],
    ["--beta-step", "1e-9"],
])
def test_frontier_bad_input_exits_one_with_one_line(flags, capsys):
    code, out, err = run_cli(["frontier", "--country", "XA", *flags], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("vaxalloc: error: ")
    assert err.count("\n") == 1


def test_frontier_caps_its_white_collar_risks_before_solving(capsys, monkeypatch):
    monkeypatch.setattr(sweep, "stock_solver", None)  # a solve would raise TypeError
    risks = ",".join(["0.5"] * (MAX_GRID_POINTS + 1))
    code, out, err = run_cli(["frontier", "--country", "XA", "--beta-w", risks], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"vaxalloc: error: beta_white needs 1 to {MAX_GRID_POINTS} risks, got 2002\n"


def test_data_errors_exit_two(tmp_path, capsys):
    broken = tmp_path / "broken.csv"
    broken.write_text("country,employment,telework_share\nSE,oops,0.45\n")
    code, _, err = run_cli(["calibrate", "--input", str(broken)], capsys)
    assert code == EXIT_DATA
    assert "row 2" in err

    code, _, _ = run_cli(["calibrate", "--input", str(tmp_path / "missing.csv")], capsys)
    assert code == EXIT_DATA

    empty = tmp_path / "empty.csv"
    empty.write_text("country,employment,telework_share\n")
    code, _, _ = run_cli(["calibrate", "--input", str(empty)], capsys)
    assert code == EXIT_DATA


@pytest.mark.parametrize("row, message", [
    (b"X\xe9,1000,0.4", "dataset {dataset} is not UTF-8 text"),
    (b"XA,5e-324,0.3", "country XA: a labor pool rounds to zero"),
    (b"XA,5e-324,0.9999999999999999", "country XA: a labor pool rounds to zero"),
])
def test_dataset_faults_exit_two_with_one_line(tmp_path, capsys, row, message):
    dataset = tmp_path / "bad.csv"
    dataset.write_bytes(b"country,employment,telework_share\n" + row + b"\n")
    for command in (["calibrate"], ["solve", "--beta-w", "0.1", "--beta-b", "0.3"]):
        code, out, err = run_cli([*command, "--input", str(dataset)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("vaxalloc: data error: ") and err.count("\n") == 1
        assert message.format(dataset=dataset) in err
    if b"\xe9" not in row:  # a readable record: a bad --gamma is still a usage error
        code, _, err = run_cli(["calibrate", "--input", str(dataset), "--gamma", "1.5"], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("vaxalloc: error: gamma")


def test_byte_order_mark_exits_two_naming_it(tmp_path, capsys):
    dataset = tmp_path / "bom.csv"
    dataset.write_bytes(b"\xef\xbb\xbfcountry,employment,telework_share\nXA,1000,0.4\n")
    code, out, err = run_cli(["calibrate", "--input", str(dataset)], capsys)
    assert (code, out) == (EXIT_DATA, "")
    assert err == ("vaxalloc: data error: row 1: file starts with a UTF-8 byte-order mark "
                   "(U+FEFF); save it as plain UTF-8\n")


def test_country_code_is_two_code_points_that_are_letters(tmp_path, capsys):
    dataset = tmp_path / "codes.csv"
    dataset.write_text("country,employment,telework_share\nÄÖ,1000,0.4\n", encoding="utf-8")
    code, out, err = run_cli(["calibrate", "--input", str(dataset), "--country", "ÄÖ"], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1].startswith("ÄÖ,")
    # The same letters decomposed, each followed by a combining diaeresis, are
    # four code points; codes are not normalized, so this one is refused.
    dataset.write_text("country,employment,telework_share\nA\u0308O\u0308,1000,0.4\n",
                       encoding="utf-8")
    code, out, err = run_cli(["calibrate", "--input", str(dataset)], capsys)
    assert (code, out) == (EXIT_DATA, "")
    assert err.startswith("vaxalloc: data error: row 2: country code must be two letters")


def _fail_after_one_row(monkeypatch):
    # Write part of the first lattice, then fail the way a full disk would.
    def write_then_fail(layout, lattices, handle):
        handle.write("XA,partial\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_lattice_rows", write_then_fail)


def test_failed_output_leaves_target_absent_or_unchanged(tmp_path, capsys, monkeypatch):
    _fail_after_one_row(monkeypatch)
    fresh = tmp_path / "fresh.csv"
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"old,bytes\n")
    out_dir = tmp_path / "matrices"
    for target in (["--output", str(fresh)], ["--output", str(kept)],
                   ["--out-dir", str(out_dir)]):
        code, out, err = run_cli(["sweep", "--country", "XA", *target], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err == "vaxalloc: data error: [Errno 28] No space left on device\n"
    assert not fresh.exists()
    assert kept.read_bytes() == b"old,bytes\n"
    assert list(out_dir.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "matrices"]


def test_audit_rejects_oversized_oracle_grid_before_allocating(capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("oracle grid allocated")

    monkeypatch.setattr("numpy.linspace", no_grid)
    code, out, err = run_cli(
        ["audit", "--country", "XA", "--beta-w", "0.1", "--beta-b", "0.6",
         "--grid-points", "1000000000000"],
        capsys,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == ("vaxalloc: error: grid_points must be <= 1000001, "
                   "got 1000000000000\n")


def test_csv_sweep_memory_does_not_grow_with_rows(tmp_path, capsys):
    # 501 x 501 = 251,001 rows; holding them all as row dicts peaked near 79 MB.
    tracemalloc.start()
    try:
        code, _, _ = run_cli(
            ["sweep", "--country", "XA", "--v-over-l", "0.4", "--beta-min", "0",
             "--beta-max", "1", "--beta-step", "0.002", "--output", str(tmp_path / "s.csv")],
            capsys,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    with (tmp_path / "s.csv").open() as handle:
        assert sum(1 for _ in handle) == 1 + 501 * 501
    assert peak < 20 * 2**20


def test_output_through_a_symlink_writes_its_target(tmp_path, capsys):
    real = tmp_path / "real.csv"
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    code, _, _ = run_cli(["calibrate", "--country", "XA", "--output", str(link)], capsys)
    assert code == EXIT_OK
    assert link.is_symlink()
    assert real.read_text().startswith("country,employment,")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_reused_parser_carries_no_flag_between_calls(tmp_path, monkeypatch):
    # Every golden case twice, shuffled, in one process, around a usage error
    # and a --help exit: a flag value leaking from one call into the next
    # (--country, --out-dir, --threshold, --no-refine, ...) changes some bytes.
    from test_golden import CASES, GOLDEN, run_case

    build_parser, built = cli.build_parser, []

    def counted_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted_build_parser)
    monkeypatch.chdir(builtin_dataset_path().parent)
    status = json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))
    order = sorted(CASES) * 2
    random.Random(4).shuffle(order)
    for index, case in enumerate(order):
        out_dir = tmp_path / str(index)
        out_dir.mkdir()
        if index % 7 == 3:
            code, err, outputs = run_case(["solve", "--beta-w", "x", "--beta-b", "0.3"], out_dir)
            assert (code, outputs) == (EXIT_USAGE, {})
            assert err == "vaxalloc: error: argument --beta-w: invalid float value: 'x'\n"
        if index % 7 == 5:
            with redirect_stdout(io.StringIO()) as help_text, pytest.raises(SystemExit):
                main(["sweep", "--help"])
            assert "--out-dir" in help_text.getvalue()
        code, err, outputs = run_case(CASES[case], out_dir)
        assert [code, err] == status[case], case
        expected = {path.name: path.read_bytes() for path in (GOLDEN / case).glob("*")}
        assert outputs == expected, case
    assert len(built) == 1


@pytest.mark.parametrize("command", [["solve", "--beta-w", "0.1", "--beta-b", "0.5"],
                                     ["audit", "--beta-w", "0.1", "--beta-b", "0.5"],
                                     ["sweep"], ["frontier"], ["summarize"]],
                         ids=lambda command: command[0])
def test_stock_that_rounds_to_zero_vaccines_exits_1_with_one_line(command, tmp_path, capsys):
    # 5e-324 of 1e-300 heads is 0.0 doses, which solve divided by (a traceback)
    # and the lattice commands turned into numpy warnings and nan ratios.
    dataset = tmp_path / "tiny.csv"
    dataset.write_text("country,employment,telework_share\nXA,1e-300,0.5\n")
    code, out, err = run_cli(command + ["--input", str(dataset), "--v-over-l", "5e-324"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and "v_over_l 5e-324" in err and "0 vaccines" in err


_GRID_FROM_0 = ["--beta-min", "0", "--beta-max", "1", "--beta-step", "0.5"]


@pytest.mark.parametrize("command", [["solve", "--beta-w", "0", "--beta-b", "0"],
                                     ["audit", "--beta-w", "0", "--beta-b", "0"],
                                     ["sweep", *_GRID_FROM_0],
                                     ["frontier", *_GRID_FROM_0, "--beta-w", "0"],
                                     ["summarize", *_GRID_FROM_0]],
                         ids=lambda command: command[0])
def test_employment_above_1e154_exits_2_before_any_output(command, tmp_path, capsys):
    # At 5e154 heads the degenerate split V * L_b / L overflowed: solve wrote an
    # Infinity dose share and a NaN objective, and sweep an inf row.
    dataset = tmp_path / "big.csv"
    args = [*command, "--gamma", "1", "--v-over-l", "0.2", "--input", str(dataset)]
    dataset.write_text("country,employment,telework_share\nXA,5e154,0.4\n")
    for fmt in ("csv", "json"):
        code, out, err = run_cli([*args, "--format", fmt, "--output", str(tmp_path / "out")],
                                 capsys)
        assert (code, out, err) == (EXIT_DATA, "", "vaxalloc: data error: country XA: employment "
                                    "5e+154 is above the largest accepted, 1e154\n")
        assert list(tmp_path.iterdir()) == [dataset]
    dataset.write_text("country,employment,telework_share\nXA,1e154,0.4\n")
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (EXIT_OK, "") and out


def _not_json(constant):
    raise ValueError(f"{constant} is not a JSON number")


_EXTREME_RISKS = [0.0, 5e-324, 1e-300, 0.5, 1.0]


@settings(max_examples=15, deadline=None, database=None)
@given(employment=st.one_of(st.sampled_from([1e-300, 1e154, 5e154]),
                           st.floats(-300.0, 200.0).map(lambda exponent: 10.0 ** exponent)),
       share=st.one_of(st.sampled_from([1e-15, 1 - 1e-15]), st.floats(1e-15, 1 - 1e-15)),
       gamma=st.one_of(st.sampled_from([5e-324, 1.0]), st.floats(5e-324, 1.0)),
       beta_w=st.sampled_from(_EXTREME_RISKS), beta_b=st.sampled_from(_EXTREME_RISKS),
       v_over_l=st.sampled_from([1e-15, 0.2, 1 - 1e-15]))
@example(employment=1e154, share=0.4, gamma=1.0, beta_w=0.0, beta_b=0.0, v_over_l=0.2)
@example(employment=5e154, share=0.4, gamma=1.0, beta_w=0.0, beta_b=0.0, v_over_l=0.2)
def test_accepted_datasets_write_only_finite_numbers(employment, share, gamma, beta_w, beta_b,
                                                     v_over_l, tmp_path_factory):
    try:
        calibrate(CountryRecord("XA", employment, share))
    except DataFormatError:
        assume(False)  # a labor pool rounds to zero, or employment is above 1e154
    dataset = tmp_path_factory.mktemp("extreme") / "countries.csv"
    dataset.write_text(f"country,employment,telework_share\nXA,{employment!r},{share!r}\n")
    grid = ["--beta-min", repr(min(beta_w, 0.5)), "--beta-max", "1", "--beta-step", "0.5"]
    pair = ["--beta-w", repr(beta_w), "--beta-b", repr(beta_b)]
    for command in (["calibrate"], ["solve", *pair], ["audit", *pair], ["sweep", *grid],
                    ["frontier", *grid, "--beta-w", f"{beta_w!r},{beta_b!r}"],
                    ["summarize", *grid]):
        if command[0] != "calibrate":
            command += ["--v-over-l", repr(v_over_l)]
        for fmt in ("csv", "json"):
            argv = [*command, "--gamma", repr(gamma), "--format", fmt, "--input", str(dataset)]
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert (code, err.getvalue()) == (EXIT_OK, ""), argv
            if fmt == "json":
                json.loads(out.getvalue(), parse_constant=_not_json)
                continue
            for row in list(csv.reader(io.StringIO(out.getvalue())))[1:]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # a country code or a clamp name
                    assert math.isfinite(value), (argv, row)


# Row values as the CLI writes them: two-letter codes (str.isalpha admits non-ASCII
# letters, which JSON escapes), clamp labels and finite floats; an accepted dataset
# writes no other float (test_accepted_datasets_write_only_finite_numbers).
_CODES = st.one_of(st.sampled_from(["XA", "ÄÖ", "ßß", "日本", "𝐀𝐁"]),
                   st.text(st.characters(categories=["L"]), min_size=2, max_size=2)
                   .filter(str.isalpha))
_FINITE = st.one_of(st.sampled_from([-0.0, 5e-324, 1e-300, 1e308]),
                    st.floats(allow_nan=False, allow_infinity=False))
_ROW_VALUES = {"country": _CODES, "clamp": st.sampled_from([clamp.value for clamp in CLAMPS])}


@st.composite
def _lattices(draw):
    """(country, lattice) pairs with the attributes the lattice writer reads; V = 1."""
    lattices = []
    for _ in range(draw(st.integers(1, 3))):
        white, blue = (draw(st.lists(_FINITE, min_size=1, max_size=3)) for _ in range(2))
        cells = st.lists(st.tuples(_FINITE, st.integers(0, len(CLAMPS) - 1)),
                         min_size=len(white) * len(blue), max_size=len(white) * len(blue))
        shares, codes = zip(*draw(cells))
        lattices.append((draw(_CODES), types.SimpleNamespace(
            v_over_l=draw(_FINITE), vaccines=1.0, beta_white=tuple(white), beta_blue=tuple(blue),
            v_blue_star=np.array(shares).reshape(len(white), len(blue)),
            clamp=np.array(codes, dtype=np.int8).reshape(len(white), len(blue)))))
    return lattices


# Metadata values shaped like the CLI's: a scalar, a flag's tuple of floats, a one-level
# dict (grid, oracle) or a string (a dataset path, which may read "null", the text at
# whose last occurrence _layout cuts the JSON document).
_SCALARS = st.one_of(st.booleans(), st.integers(), _FINITE)
_METADATA_VALUES = st.one_of(_SCALARS, st.lists(_FINITE, max_size=3),
                             st.dictionaries(st.text(), _SCALARS, max_size=3),
                             st.sampled_from(["null", "null.csv"]) | st.text())


def _reference_output(command, fields, metadata, rows, fmt):
    """One whole output as csv.writer writes the header and rows, or as json.dumps writes
    the document of the command, the metadata and the row dicts."""
    if fmt == "json":
        return json.dumps({"command": command, "metadata": metadata,
                           "rows": [dict(zip(fields, row)) for row in rows]}, indent=2) + "\n"
    handle = io.StringIO()
    csv.writer(handle, lineterminator="\n").writerows([fields, *rows])
    return handle.getvalue()


@settings(max_examples=50, deadline=None, database=None)
@given(data=st.data(), fmt=st.sampled_from(["csv", "json"]), lattices=_lattices())
def test_row_writers_write_the_bytes_of_csv_writer_and_json_dumps(data, fmt, lattices):
    def check(write_rows, command, rows, reference_rows):
        fields, _, keys = cli._SPECS[command]
        metadata = data.draw(st.fixed_dictionaries(dict.fromkeys(keys, _METADATA_VALUES)))
        handle = io.StringIO()
        write_rows(cli._layout(command, fields, metadata, fmt), rows, handle)
        assert handle.getvalue() == _reference_output(command, fields, metadata,
                                                      reference_rows, fmt)

    for command, (fields, _, _) in cli._SPECS.items():
        row = st.tuples(*(_ROW_VALUES.get(name, _FINITE) for name in fields))
        rows = data.draw(st.lists(row, min_size=1, max_size=4))
        check(cli._write_table_rows, command, rows, rows)
    rows = [(country, lattice.v_over_l, beta_w, beta_b, float(lattice.v_blue_star[i, j]),
             CLAMPS[lattice.clamp[i, j]].value) for country, lattice in lattices
            for i, beta_w in enumerate(lattice.beta_white)
            for j, beta_b in enumerate(lattice.beta_blue)]
    check(cli._write_lattice_rows, "sweep", lattices, rows)


def test_calibrate_solve_and_audit_never_import_numpy(tmp_path):
    # Also none of the other modules calibrate and solve do without; modules
    # the interpreter's site loaded before the snapshot do not count.  The
    # oracle bisects in Python floats, so audit loads it and still no numpy.
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import vaxalloc, vaxalloc.cli",
        "from vaxalloc.cli import main",
        f"out = {str(tmp_path / 'out')!r}",
        "assert main(['calibrate', '--output', out]) == 0",
        "assert main(['solve', '--beta-w', '0.05', '--beta-b', '0.3', '--output', out]) == 0",
        "assert 'numpy' not in sys.modules, 'numpy loaded by calibrate or solve'",
        "unneeded = {'numpy', 'dataclasses', 'inspect', 'json', 'vaxalloc.oracle',",
        "            'vaxalloc.sweep'} & (set(sys.modules) - before)",
        "assert not unneeded, f'calibrate or solve loaded {sorted(unneeded)}'",
        "assert main(['audit', '--country', 'XA', '--beta-w', '0.1', '--beta-b', '0.6',",
        "             '--grid-points', '101', '--format', 'json', '--output', out]) == 0",
        "assert 'vaxalloc.oracle' in sys.modules, 'oracle not loaded by audit'",
        "assert 'numpy' not in sys.modules, 'numpy loaded by audit'",
        "assert main(['sweep', '--country', 'XA', '--output', out]) == 0",
        "assert 'numpy' in sys.modules, 'numpy not loaded by sweep'",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def _json_document_built_whole(command, lattices, metadata):
    # The document as it was built before JSON output was streamed: every row
    # a dict, one json.dumps over the whole document.
    rows = [{"country": country, "v_over_l": sweep.v_over_l, "beta_w": beta_w,
             "beta_b": beta_b, "v_ratio": float(sweep.v_blue_star[i, j]) / sweep.vaccines,
             "clamp": sweep.cells[beta_w, beta_b].clamp.value}
            for country, sweep in lattices
            for i, beta_w in enumerate(sweep.beta_white)
            for j, beta_b in enumerate(sweep.beta_blue)]
    metadata = {**metadata, "degenerate_rows": sum(row["clamp"] == "Degenerate" for row in rows)}
    document = {"command": command, "metadata": metadata, "rows": rows}
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


def test_streamed_json_equals_whole_document_encoding(tmp_path, capsys):
    dataset = tmp_path / "umlaut.csv"
    dataset.write_text("country,employment,telework_share\nÄÖ,1000,0.4\n", encoding="utf-8")
    profile = calibrate(load_countries(dataset)[0], 1.0)
    provenance = {"dataset": str(dataset), "dataset_origin": "flag"}
    grid = GridSpec(0.0, 1.0, 0.125)
    grid_metadata = {"beta_min": 0.0, "beta_max": 1.0, "step": 0.125}
    common = ["--input", str(dataset), "--gamma", "1.0", "--beta-min", "0", "--beta-max", "1",
              "--beta-step", "0.125", "--format", "json", "--v-over-l", "0.2,0.6"]

    code, out, _ = run_cli(["sweep", *common], capsys)
    assert code == EXIT_OK
    expected = _json_document_built_whole(
        "sweep", [("ÄÖ", sweep_matrix(profile, v, grid)) for v in (0.2, 0.6)],
        {"gamma": 1.0, "v_over_l": [0.2, 0.6], "grid": grid_metadata, **provenance})
    assert out.encode("utf-8") == expected
    assert '"country": "\\u00c4\\u00d6"' in out

    code, out, _ = run_cli(["frontier", *common, "--beta-w", "0,0.5"], capsys)
    assert code == EXIT_OK
    expected = _json_document_built_whole(
        "frontier", [("ÄÖ", next(sweep_matrices(profile, (v,), grid, (w,))))
                     for v in (0.2, 0.6) for w in (0.0, 0.5)],
        {"gamma": 1.0, "beta_w": [0.0, 0.5], "v_over_l": [0.2, 0.6], "grid": grid_metadata,
         "degenerate_rows": None, **provenance})
    assert out.encode("utf-8") == expected
    assert json.loads(out)["metadata"]["degenerate_rows"] == 2

    # Table commands: their rows are one json.dumps of the row objects.
    record = load_countries(dataset)[0]
    code, out, _ = run_cli(["calibrate", *common[:4], "--format", "json"], capsys)
    assert code == EXIT_OK
    rows = [{"country": "ÄÖ", "employment": record.employment_total,
             "telework_share": record.telework_share, "labor_white": profile.labor_white,
             "labor_blue": profile.labor_blue, "alpha_white": profile.alpha_white,
             "alpha_blue": profile.alpha_blue, "gamma": 1.0}]
    document = {"command": "calibrate", "metadata": {"gamma": 1.0, **provenance}, "rows": rows}
    assert out.encode("utf-8") == (json.dumps(document, indent=2) + "\n").encode("utf-8")

    code, out, _ = run_cli(["solve", *common[:4], "--beta-w", "0", "--beta-b", "0",
                            "--v-over-l", "0.2,0.6", "--format", "json"], capsys)
    assert code == EXIT_OK
    rows = []
    for v in (0.2, 0.6):
        scenario = Scenario.with_coverage(profile, 0.0, 0.0, v)
        result = solve(profile, scenario)
        rows.append({"country": "ÄÖ", "beta_w": 0.0, "beta_b": 0.0, "v_over_l": v,
                     "v_blue_star": result.v_blue_star,
                     "v_ratio": result.v_blue_star / scenario.vaccines,
                     "clamp": result.clamp.value, "objective": result.objective,
                     "surplus_blue": result.surplus_blue, "surplus_white": result.surplus_white})
    metadata = {"gamma": 1.0, "beta_w": 0.0, "beta_b": 0.0, "v_over_l": [0.2, 0.6],
                "degenerate_rows": 2, **provenance}
    document = {"command": "solve", "metadata": metadata, "rows": rows}
    assert out.encode("utf-8") == (json.dumps(document, indent=2) + "\n").encode("utf-8")
    assert '"country": "\\u00c4\\u00d6"' in out


def test_json_sweep_memory_does_not_grow_with_rows(tmp_path, capsys):
    # 501 x 501 = 251,001 rows; holding them all as row dicts peaked near 378 MiB.
    target = tmp_path / "s.json"
    tracemalloc.start()
    try:
        code, _, _ = run_cli(
            ["sweep", "--country", "XA", "--v-over-l", "0.4", "--beta-min", "0",
             "--beta-max", "1", "--beta-step", "0.002", "--format", "json",
             "--output", str(target)],
            capsys,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    with target.open() as handle:
        assert sum(line.startswith('      "clamp": ') for line in handle) == 501 * 501
    with target.open("rb") as handle:
        handle.seek(-8, os.SEEK_END)
        assert handle.read() == b"}\n  ]\n}\n"
    assert peak < 20 * 2**20


def test_json_sweep_memory_does_not_grow_with_stocks(capsys):
    # A 126 x 126 lattice's arrays take 0.14 MiB: holding all 16 took 2 MiB more.
    peaks = []
    for stocks in ("0.4", ",".join(f"{0.05 * k:.2f}" for k in range(1, 17))):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(
                ["sweep", "--country", "XA", "--v-over-l", stocks, "--beta-min", "0",
                 "--beta-max", "1", "--beta-step", "0.008", "--format", "json",
                 "--output", os.devnull],
                capsys,
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
    assert peaks[1] < peaks[0] + 2**20


def test_failed_json_output_leaves_no_file(tmp_path, capsys, monkeypatch):
    def write_then_fail(layout, lattices, handle):
        handle.write('[\n    {"country": "XA"')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_lattice_rows", write_then_fail)
    target = tmp_path / "s.json"
    out_dir = tmp_path / "matrices"
    for flags in (["--output", str(target)], ["--out-dir", str(out_dir)]):
        code, out, err = run_cli(["sweep", "--country", "XA", "--format", "json", *flags],
                                 capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err == "vaxalloc: data error: [Errno 28] No space left on device\n"
    assert list(out_dir.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["matrices"]


# summarize makes no pass: it solves only the cells it counts, through threshold_shares.
# JSON counts degenerate_rows from the risks, so it makes one pass as CSV does.
@pytest.mark.parametrize("argv, passes", [
    (["sweep"], 1), (["frontier"], 1), (["summarize"], 0), (["sweep", "--out-dir"], 1),
    (["sweep", "--format", "json", "--out-dir"], 1), (["sweep", "--format", "json"], 1),
    (["frontier", "--format", "json"], 1),
])
def test_lattice_commands_call_sweep_matrices_once_per_country_a_pass(
    argv, passes, tmp_path, capsys, monkeypatch
):
    calls = []
    real = sweep.sweep_matrices
    monkeypatch.setattr(sweep, "sweep_matrices",
                        lambda profile, *rest: calls.append(profile) or real(profile, *rest))
    if argv[-1] == "--out-dir":
        argv = [*argv, str(tmp_path / "matrices")]
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (EXIT_OK, "")
    countries = len(load_countries(builtin_dataset_path()))
    assert (len(calls), len(set(calls))) == (passes * countries, countries if passes else 0)


def test_summarize_checks_its_threshold_before_solving(capsys, monkeypatch):
    solves = []
    monkeypatch.setattr(sweep, "stock_solver", lambda *args: solves.append(args))
    code, out, err = run_cli(["summarize", "--threshold", "1.5", "--beta-step", "0.0005"], capsys)
    assert (code, out, solves) == (EXIT_USAGE, "", [])
    assert err == "vaxalloc: error: threshold must lie in (0, 1), got 1.5\n"
    # every country's stocks are checked before the threshold
    code, out, err = run_cli(["summarize", "--threshold", "1.5", "--v-over-l", "0.2,0"], capsys)
    assert (code, out, solves) == (EXIT_USAGE, "", [])
    assert err == "vaxalloc: error: v_over_l must lie in (0, 1), got 0.0\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("target", [[], ["--output", "s.out"], ["--out-dir", "matrices"]])
def test_bad_stock_exits_one_before_anything_is_written(fmt, target, tmp_path, capsys):
    target = [flag if flag.startswith("--") else str(tmp_path / flag) for flag in target]
    code, out, err = run_cli(["sweep", "--v-over-l", "0.2,0", "--format", fmt, *target], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "vaxalloc: error: v_over_l must lie in (0, 1), got 0.0\n"
    assert list(tmp_path.iterdir()) == []


def _cli_process(args, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    return subprocess.Popen([sys.executable, "-m", "vaxalloc.cli", *args], env=env, **kwargs)


def test_closed_stdout_pipe_exits_141_silently():
    # The default sweep is about 300 kB, far more than a pipe buffers.
    proc = _cli_process(["sweep"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"country,v_over_l,beta_w,beta_b,v_ratio,clamp\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_PIPE
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_closed_stdout_at_exit_is_silent_with_buffered_output(monkeypatch):
    # Buffered, calibrate's rows are still in stdout's buffer when main returns 141,
    # and the flush at exit would fail again unless fd 1 points at devnull by then.
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process(["calibrate"], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    try:
        assert proc.wait(timeout=60) == EXIT_PIPE
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


_SIGNAL_ENDS = {signal.SIGINT: (EXIT_INTERRUPT, b"vaxalloc: interrupted\n"),
                signal.SIGTERM: (EXIT_TERM, b"vaxalloc: terminated\n")}


def _signal_when(path_of_pid, args, signum, **kwargs):
    """Run the CLI, send ``signum`` once ``path_of_pid(pid)`` exists; return (code, stderr)."""
    if signal.getsignal(signum) is signal.SIG_IGN:  # the child would inherit it
        pytest.skip(f"{signum.name} is ignored in this process")
    proc = _cli_process(args, stderr=subprocess.PIPE, **kwargs)
    try:
        deadline = time.monotonic() + 60
        while not path_of_pid(proc.pid).exists():
            assert proc.poll() is None and time.monotonic() < deadline, "no temporary file"
            time.sleep(0.005)
        proc.send_signal(signum)
        return proc.wait(timeout=60), proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()


_FINE = ["sweep", "--country", "XA", "--beta-min", "0", "--beta-max", "1", "--v-over-l"]


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=lambda s: s.name)
def test_a_signal_ends_a_run_with_one_line_and_no_output(signum, tmp_path):
    # A 2,001-point lattice takes seconds to write: the signal comes mid-run.
    target = tmp_path / "s.csv"
    ended = _signal_when(lambda pid: tmp_path / f".s.csv.{pid}.tmp",
                         [*_FINE, "0.2", "--beta-step", "0.0005", "--output", str(target)], signum)
    assert ended == _SIGNAL_ENDS[signum]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=lambda s: s.name)
def test_a_signal_keeps_the_out_dir_files_already_written(signum, tmp_path):
    # The signal comes while the second of two 1,001-point lattices is written.
    ended = _signal_when(lambda pid: tmp_path / f".sweep_XA_0.4.csv.{pid}.tmp",
                         [*_FINE, "0.2,0.4", "--beta-step", "0.001", "--out-dir", str(tmp_path)],
                         signum)
    assert ended == _SIGNAL_ENDS[signum]
    assert [path.name for path in tmp_path.iterdir()] == ["sweep_XA_0.2.csv"]
    written = (tmp_path / "sweep_XA_0.2.csv").read_bytes()
    assert written.count(b"\n") == 1 + 1001**2
    assert written.rsplit(b"\n", 2)[1].startswith(b"XA,0.2,1.0,1.0,")  # the last cell


def test_an_ignored_sigterm_lets_the_run_finish(tmp_path):
    target = tmp_path / "s.csv"
    ended = _signal_when(lambda pid: tmp_path / f".s.csv.{pid}.tmp",
                         [*_FINE, "0.2", "--beta-step", "0.001", "--output", str(target)],
                         signal.SIGTERM,
                         preexec_fn=lambda: signal.signal(signal.SIGTERM, signal.SIG_IGN))
    assert ended == (EXIT_OK, b"")
    assert [path.name for path in tmp_path.iterdir()] == ["s.csv"]
    written = target.read_bytes()
    assert written.count(b"\n") == 1 + 1001**2
    assert written.rsplit(b"\n", 2)[1].startswith(b"XA,0.2,1.0,1.0,")  # the last cell


class _CallerStop(BaseException):
    """What an in-process caller's SIGTERM handler raises."""


def _stop(signum, frame):
    raise _CallerStop


def _send_sigterm():
    os.kill(os.getpid(), signal.SIGTERM)


def _press_ctrl_c():
    raise KeyboardInterrupt


@pytest.mark.parametrize("interrupt, raised", [(_send_sigterm, _CallerStop),
                                               (_press_ctrl_c, KeyboardInterrupt)],
                         ids=["sigterm", "ctrl-c"])
def test_an_interrupt_leaves_main_and_no_output(interrupt, raised, tmp_path, monkeypatch):
    # main sets no handler of its own: the caller's runs, and what it raises leaves main.
    target, real = tmp_path / "s.csv", cli._write_lattice_rows

    def write_then_interrupt(layout, lattices, handle):
        real(layout, lattices, handle)
        assert [path.name for path in tmp_path.iterdir()] == [f".s.csv.{os.getpid()}.tmp"]
        interrupt()

    monkeypatch.setattr(cli, "_write_lattice_rows", write_then_interrupt)
    previous = signal.signal(signal.SIGTERM, _stop)
    try:
        with pytest.raises(raised):
            main(["sweep", "--output", str(target)])
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert list(tmp_path.iterdir()) == []


def test_main_leaves_signal_handling_to_its_caller(capsys, monkeypatch):
    def caller(signum, frame):
        pass

    seen, real = [], cli._run
    monkeypatch.setattr(cli, "_run", lambda *args: seen.append(
        signal.getsignal(signal.SIGTERM)) or real(*args))
    for before in (caller, signal.SIG_IGN):
        previous = signal.signal(signal.SIGTERM, before)
        try:
            assert main(["calibrate"]) == EXIT_OK
            assert signal.getsignal(signal.SIGTERM) is before
        finally:
            signal.signal(signal.SIGTERM, previous)
    assert seen == [caller, signal.SIG_IGN]
    # main also runs off the main thread, where no handler can be set.
    worker = threading.Thread(target=lambda: seen.append(main(["calibrate"])))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and seen[2:] == [signal.getsignal(signal.SIGTERM), EXIT_OK]
    capsys.readouterr()


def test_closed_stdout_in_process_keeps_fd_1(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["calibrate"])
    monkeypatch.undo()
    after = os.fstat(1)
    assert code == EXIT_PIPE
    assert capsys.readouterr().err == ""
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_closed_output_fifo_is_a_data_error(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # Opened for reading first and without blocking, so the writer's open never waits.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    proc = _cli_process(["sweep", "--output", str(fifo)], stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                if os.read(reader, 65536):  # b"" until the writer opens the fifo
                    break
            except BlockingIOError:  # opened, nothing written yet
                pass
            time.sleep(0.01)
        else:
            pytest.fail("no output reached the fifo")
        os.close(reader)
        reader = None
        assert proc.wait(timeout=60) == EXIT_DATA
        assert proc.stderr.read() == b"vaxalloc: data error: [Errno 32] Broken pipe\n"
    finally:
        if reader is not None:
            os.close(reader)
        proc.kill()
        proc.stderr.close()


def test_output_name_the_system_rejects_is_a_data_error_naming_it(tmp_path, capsys):
    # lstat fails with an error other than "no such file": reported as such,
    # naming the file asked for, and nothing is left behind.
    target = tmp_path / ("a" * 300)
    code, out, err = run_cli(["calibrate", "--output", str(target)], capsys)
    assert (code, out) == (EXIT_DATA, "")
    strerror = os.strerror(errno.ENAMETOOLONG)
    assert err == f"vaxalloc: data error: [Errno {errno.ENAMETOOLONG}] {strerror}: {str(target)!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_output_under_a_regular_file_is_a_data_error_naming_it(tmp_path, capsys):
    # Opening the temporary sibling fails with ENOTDIR, and so does removing
    # it afterwards; the open error, renamed to the target, is the one shown.
    parent = tmp_path / "afile"
    parent.write_bytes(b"")
    target = parent / "x"
    code, out, err = run_cli(["calibrate", "--output", str(target)], capsys)
    assert (code, out) == (EXIT_DATA, "")
    strerror = os.strerror(errno.ENOTDIR)
    assert err == f"vaxalloc: data error: [Errno {errno.ENOTDIR}] {strerror}: {str(target)!r}\n"
    assert list(tmp_path.iterdir()) == [parent]


@pytest.mark.parametrize("command, flag", [
    ("calibrate", "--input"), ("calibrate", "--output"), ("sweep", "--out-dir"),
])
def test_nul_byte_in_a_path_is_a_usage_error_naming_the_flag(command, flag, tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([command, "--country", "XA", flag, "a\x00b"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"vaxalloc: error: argument {flag}: path contains a NUL byte: 'a\\x00b'\n"
    assert list(tmp_path.iterdir()) == []


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["vaxalloc", "calibrate", "--country", "XB"])
    code, out, _ = run_cli(None, capsys)
    assert code == EXIT_OK
    assert [row["country"] for row in read_csv(out)] == ["XB"]


HELP = Path(__file__).parent / "golden" / "help"
_COMMANDS = ["calibrate", "solve", "frontier", "sweep", "summarize", "audit"]


@pytest.mark.parametrize("command", ["vaxalloc", *_COMMANDS])
def test_help_text_is_unchanged(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    argv = ["--help"] if command == "vaxalloc" else [command, "--help"]
    with redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert out.getvalue().encode("utf-8") == (HELP / f"{command}.txt").read_bytes()


def _parse_outcome(parse, argv):
    """What parsing argv gives: the namespace's repr, the usage error or the exit, and stdout."""
    with redirect_stdout(io.StringIO()) as out:
        try:
            outcome = ("namespace", repr(vars(parse(argv))))
        except cli.UsageError as exc:
            outcome = ("usage error", str(exc))
        except SystemExit as exc:
            outcome = ("exit", exc.code)
    return outcome, out.getvalue()


_OPTIONS = [
    "--input", "--gamma", "--country", "--format", "--output", "--beta-min", "--beta-max",
    "--beta-step", "--beta-w", "--beta-b", "--v-over-l", "--out-dir",
    "--threshold", "--grid-points", "--no-refine", "-h", "--help",
    # abbreviations, unique in some subcommands and ambiguous in others
    "--in", "--gam", "--co", "--fo", "--out", "--o", "--beta", "--beta-m", "--beta-w=",
    "--v", "--w", "--th", "--gr", "--no", "--he", "--nosuch", "-x", "-", "--",
]
_VALUES = ["nan", "-1", "-0.0", "1e308", "1e-320", "x", "", "0.3", "XA", "json", "0.2,0.4",
           "1,x", "100001", "inf"]
_TOKEN = st.one_of(
    st.sampled_from(_OPTIONS),
    st.sampled_from(_VALUES),
    st.builds("{}={}".format, st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)),
)
_FULL_PARSER, _ROUTED_PARSER = cli.build_parser(), cli.build_parser()


@settings(max_examples=150, deadline=None, database=None)
@given(argv=st.one_of(
    st.builds(lambda name, rest: [name, *rest],
              st.sampled_from(_COMMANDS + ["nosuch", "", "sol", "Solve", "solve "]),
              st.lists(_TOKEN, max_size=8)),
    st.lists(_TOKEN, max_size=4),
))
@example(argv=[])
@example(argv=["-h"])
@example(argv=["nosuch"])
@example(argv=["--gamma", "0.5", "solve"])
@example(argv=["solve", "--help"])
@example(argv=["solve", "--beta", "0.1", "--beta-b", "0.3"])
@example(argv=["solve", "--beta-w", "0.1", "--beta-b", "0.3", "extra"])
@example(argv=["sweep", "--", "--out-dir", "2"])
@example(argv=["audit", "--beta-w=-1", "--beta-b", "-0.0", "--no-refine", "--grid-points", "x"])
def test_subcommand_argv_parses_as_the_full_parser_would(argv):
    routed = _parse_outcome(lambda a: cli._parse_args(_ROUTED_PARSER, a), argv)
    assert routed == _parse_outcome(_FULL_PARSER.parse_args, argv)


_FIELD = st.one_of(
    st.sampled_from(["XA", "XB", "\u00c4\u00d6", "X", "XAA", "", " XC ", "nan", "inf", "-1",
                     "0", "0.5", "1e308", "5e-324", "1e-320", "1_000", '"X,A"', '"',
                     "\ufeff", "\x00"]),
    st.text(max_size=6),
    st.floats().map(repr),
)
_DATASET_TEXT = st.builds(
    lambda header, rows, end: header + end.join(rows) + end,
    st.sampled_from(["country,employment,telework_share\n", " country , employment,"
                     "telework_share\r\n", "\ufeffcountry,employment,telework_share\n",
                     "country,employment\n", "\n", ""]),
    st.lists(st.lists(_FIELD, max_size=4).map(",".join), max_size=4),
    st.sampled_from(["\n", "\r\n", "\r", ""]),
)


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.one_of(
    st.binary(max_size=200),
    st.builds(lambda text, encoding: text.encode(encoding, errors="replace"),
              _DATASET_TEXT, st.sampled_from(["utf-8", "latin-1", "utf-16"])),
))
def test_any_dataset_bytes_calibrate_or_exit_two_with_one_line(data, tmp_path_factory):
    dataset = tmp_path_factory.mktemp("fuzz") / "countries.csv"
    dataset.write_bytes(data)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["calibrate", "--input", str(dataset)])  # a traceback fails the test
    assert code in (EXIT_OK, EXIT_DATA)
    if code == EXIT_DATA:
        assert err.getvalue().startswith("vaxalloc: data error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


# Every numeric flag of each subcommand; the required ones get a valid value
# first, which a drawn value of the same flag overrides.
_NUMERIC_FLAGS = {
    "calibrate": ["--gamma"],
    "solve": ["--gamma", "--beta-w", "--beta-b", "--v-over-l"],
    "frontier": ["--gamma", "--beta-min", "--beta-max", "--beta-step", "--beta-w",
                 "--v-over-l"],
    "sweep": ["--gamma", "--beta-min", "--beta-max", "--beta-step", "--v-over-l"],
    "summarize": ["--gamma", "--beta-min", "--beta-max", "--beta-step", "--v-over-l",
                  "--threshold"],
    "audit": ["--gamma", "--beta-w", "--beta-b", "--v-over-l", "--grid-points"],
}
_REQUIRED = {"solve": ["--beta-w", "0.1", "--beta-b", "0.3"],
             "audit": ["--beta-w", "0.1", "--beta-b", "0.3", "--grid-points", "1001"]}
# 0.5 is valid for most flags, so a drawn combination also gets past the first check.
_NUMBERS = ["nan", "inf", "-inf", "0", "-0.0", "-1", "1e308", "1e-320", "0.5"]
# The same where int() takes them, and valid grids kept small: at most 10,001 points.
_GRID_POINTS = ["nan", "inf", "-inf", "0", "-0.0", "-1", "3", "10001"]


@st.composite
def _numeric_argv(draw):
    command = draw(st.sampled_from(_COMMANDS))
    flags = draw(st.lists(st.sampled_from(_NUMERIC_FLAGS[command]), min_size=1, max_size=3,
                          unique=True))
    argv = [command, "--country", "XA", *_REQUIRED.get(command, [])]
    for flag in flags:
        if flag == "--grid-points":
            value = draw(st.sampled_from(_GRID_POINTS))
        elif flag == "--v-over-l" or (command, flag) == ("frontier", "--beta-w"):  # lists
            value = ",".join(draw(st.lists(st.sampled_from(_NUMBERS), min_size=1,
                                           max_size=2)))
        else:
            value = draw(st.sampled_from(_NUMBERS))
        argv += [f"{flag}={value}"]
    return argv


@settings(max_examples=150, deadline=None, database=None)
@given(argv=_numeric_argv())
@example(argv=["audit", "--country", "XA", "--beta-w", "0.1", "--beta-b", "0.3",
               "--grid-points=1001", "--v-over-l=1e-320"])
@example(argv=["sweep", "--country", "XA", "--beta-step=1e-320"])
@example(argv=["summarize", "--country", "XA", "--threshold=nan", "--gamma=1e-320"])
def test_numeric_flags_exit_0_1_or_2_with_one_line(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)  # a traceback fails the test
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA)
    if code == EXIT_OK:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("vaxalloc: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
