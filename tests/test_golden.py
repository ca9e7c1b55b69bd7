"""Byte-for-byte CLI outputs, pinned against files in ``tests/golden``.

Each case runs ``vaxalloc.cli.main`` on built-in country XA, read through a
relative ``--input`` so the JSON ``dataset`` field does not depend on where
the repository lives.  ``{out}`` in an argument is a fresh directory for
``--output``/``--out-dir``; every file left there, stdout, stderr and the exit
code must equal the golden copy.  ``golden/<case>/`` holds the non-empty
byte outputs and ``golden/status.json`` the exit code and stderr of each case.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from vaxalloc import builtin_dataset_path
from vaxalloc.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "calibrate_csv": ["calibrate"],
    "calibrate_json": ["calibrate", "--format", "json"],
    "solve_csv": ["solve", "--beta-w", "0.05", "--beta-b", "0.3"],
    "solve_json": ["solve", "--beta-w", "0.05", "--beta-b", "0.3", "--format", "json"],
    "solve_degenerate_json": ["solve", "--gamma", "1.0", "--beta-w", "0", "--beta-b", "0",
                              "--format", "json"],
    "frontier_csv": ["frontier"],
    "frontier_json": ["frontier", "--format", "json"],
    "frontier_degenerate_csv": ["frontier", "--gamma", "1.0", "--beta-min", "0",
                                "--beta-w", "0,0.5"],
    "frontier_degenerate_json": ["frontier", "--gamma", "1.0", "--beta-min", "0",
                                 "--beta-w", "0,0.5", "--format", "json"],
    "sweep_csv": ["sweep"],
    "sweep_json": ["sweep", "--format", "json"],
    "sweep_degenerate_csv": ["sweep", "--gamma", "1.0", "--beta-min", "0"],
    "sweep_degenerate_json": ["sweep", "--gamma", "1.0", "--beta-min", "0", "--format", "json"],
    "sweep_output_csv": ["sweep", "--v-over-l", "0.4", "--output", "{out}/sweep.csv"],
    "sweep_out_dir_csv": ["sweep", "--v-over-l", "0.2,0.6", "--out-dir", "{out}"],
    "sweep_out_dir_json": ["sweep", "--v-over-l", "0.2,0.6", "--out-dir", "{out}",
                           "--format", "json"],
    "summarize_csv": ["summarize"],
    "summarize_json": ["summarize", "--format", "json"],
    "audit_csv": ["audit", "--beta-w", "0.1", "--beta-b", "0.6"],
    "audit_json": ["audit", "--beta-w", "0.1", "--beta-b", "0.6", "--format", "json"],
    "audit_no_refine_json": ["audit", "--beta-w", "0.1", "--beta-b", "0.6", "--no-refine",
                             "--grid-points", "1001", "--format", "json"],
    "frontier_stocks_json": ["frontier", "--beta-w", "0.05,0.25", "--v-over-l", "0.2,0.6",
                             "--format", "json"],
    # Failures write nothing but one line to stderr, even when an earlier
    # lattice of the same run was valid.
    "frontier_bad_risk": ["frontier", "--beta-w", "0.05,1.5"],
    "sweep_bad_stock": ["sweep", "--v-over-l", "0.2,0"],
    "solve_bad_stock": ["solve", "--beta-w", "0.1", "--beta-b", "0.6", "--v-over-l", "0.2,1.2"],
    "summarize_bad_threshold": ["summarize", "--threshold", "1.5"],
    "sweep_bad_gamma": ["sweep", "--gamma", "1.5"],
    "sweep_output_missing_dir": ["sweep", "--output", "{out}/missing/sweep.csv"],
    "sweep_output_is_dir": ["sweep", "--output", "{out}"],
    "calibrate_missing_input": ["calibrate", "--input", "missing.csv"],
}


def run_case(argv: list[str], out_dir: Path) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stderr (with ``out_dir`` written as ``{out}``) and byte outputs.

    Run from the built-in dataset's directory.  The outputs are stdout, under
    the name ``stdout``, and every file left in ``out_dir``; empty ones are
    dropped.
    """
    command, *rest = argv
    args = [command, "--input", builtin_dataset_path().name, "--country", "XA", *rest]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([arg.replace("{out}", str(out_dir)) for arg in args])
    outputs = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    outputs["stdout"] = stdout.getvalue().encode("utf-8")
    err = stderr.getvalue().replace(str(out_dir), "{out}")
    return code, err, {name: data for name, data in outputs.items() if data}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_bytes(case, tmp_path, monkeypatch):
    monkeypatch.chdir(builtin_dataset_path().parent)
    code, err, outputs = run_case(CASES[case], tmp_path)
    status = json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))[case]
    assert [code, err] == status
    expected = {path.name: path.read_bytes() for path in (GOLDEN / case).glob("*")}
    assert sorted(outputs) == sorted(expected)
    for name, data in expected.items():
        assert outputs[name] == data, f"{case}/{name} differs from the golden bytes"
