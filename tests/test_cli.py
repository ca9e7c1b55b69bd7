import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from vaxalloc import (
    Clamp,
    GridSpec,
    Scenario,
    builtin_dataset_path,
    calibrate,
    frontier_curve,
    frontier_sweep,
    load_countries,
    solve,
    sweep_matrix,
    threshold_share,
)
from vaxalloc import cli
from vaxalloc.cli import EXIT_DATA, EXIT_OK, EXIT_PIPE, EXIT_USAGE, main


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
    expected = dict(frontier_curve(profile, 0.25, 0.4))
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


def test_sweep_parallel_output_is_byte_identical(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    for path, workers in ((serial, "1"), (parallel, "3")):
        code, _, _ = run_cli(
            ["sweep", "--country", "XD", "--v-over-l", "0.2,0.4",
             "--workers", workers, "--output", str(path)],
            capsys,
        )
        assert code == EXIT_OK
    assert serial.read_bytes() == parallel.read_bytes()


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


def _fail_after_one_row(monkeypatch):
    # Write part of the first lattice, then fail the way a full disk would.
    def write_then_fail(handle, country, sweep):
        handle.write(f"{country},partial\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_lattice_csv", write_then_fail)


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


def test_calibrate_and_solve_never_import_numpy(tmp_path):
    # Also none of the other modules calibrate and solve do without; modules
    # the interpreter's site loaded before the snapshot do not count.
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
        "assert main(['sweep', '--country', 'XA', '--output', out]) == 0",
        "assert 'numpy' in sys.modules, 'numpy not loaded by sweep'",
        "assert main(['audit', '--country', 'XA', '--beta-w', '0.1', '--beta-b', '0.6',",
        "             '--grid-points', '101', '--format', 'json', '--output', out]) == 0",
        "assert 'vaxalloc.oracle' in sys.modules, 'oracle not loaded by audit'",
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
        "frontier", [("ÄÖ", frontier_sweep(profile, w, v, grid))
                     for v in (0.2, 0.6) for w in (0.0, 0.5)],
        {"gamma": 1.0, "beta_w": [0.0, 0.5], "v_over_l": [0.2, 0.6], "grid": grid_metadata,
         "degenerate_rows": None, **provenance})
    assert out.encode("utf-8") == expected
    assert json.loads(out)["metadata"]["degenerate_rows"] == 2


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


def test_failed_json_output_leaves_no_file(tmp_path, capsys, monkeypatch):
    def write_then_fail(handle, country, sweep, lead):
        handle.write(f'{lead}    {{"country": "{country}"')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_lattice_json", write_then_fail)
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
