"""The benchmark's own test, at a tiny size.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import vaxalloc.cli as cli  # noqa: E402
from check import check_output  # noqa: E402
from harness import END_TO_END_UNITS, LAYER_UNITS, run_workload  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import TINY, WHY, build_block, write_dataset  # noqa: E402

REPEATED = ["model.solve_calls", "cli.output_bytes",
            "model.clamp.AllWhite", "model.clamp.Interior", "model.clamp.AllBlue",
            "model.clamp.Degenerate"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_clean(name, trace, tmp_path):
    result = run_workload(name, seed=3, seconds=0.0, trace=trace, work=tmp_path, size=TINY)
    assert result.ledger.failed == 0, result.ledger.reasons
    assert result.ledger.attempted > 0
    assert list(result.metrics) == list(LAYER_UNITS if trace else END_TO_END_UNITS)
    if trace:
        assert result.metrics["model.solve_calls"][0] > 0
        assert (tmp_path / f"spans-{name}.json").is_file()
    else:
        assert all(value > 0 for value, _ in result.metrics.values())


def test_traced_counts_repeat_for_a_seed(tmp_path):
    first, second = (run_workload("interactive_mix", 5, 0.0, True, tmp_path, TINY)
                     for _ in range(2))
    for name in REPEATED:
        assert first.metrics[name] == second.metrics[name]


@pytest.fixture
def sweep_output(tmp_path):
    countries, (request,) = build_block("sweep_fine", 11, TINY)
    dataset, out = tmp_path / "countries.csv", tmp_path / "sweep.csv"
    write_dataset(countries, dataset)
    assert cli.main(request.argv(dataset, out)) == 0
    return countries, request, out.read_text(encoding="utf-8").splitlines(keepends=True)


def _check(sweep, lines):
    countries, request, _ = sweep
    return check_output(request, countries, "".join(lines).encode(), random.Random(0))


def test_checker_accepts_the_real_output(sweep_output):
    verdict = _check(sweep_output, sweep_output[2])
    assert verdict.ok, verdict.reason
    assert sum(verdict.clamps.values()) == len(sweep_output[2]) - 1


def test_checker_rejects_one_corrupted_v_ratio(sweep_output):
    lines = list(sweep_output[2])
    fields = lines[500].split(",")
    fields[4] = repr(float(fields[4]) * 0.999 + 1e-6)
    lines[500] = ",".join(fields)
    verdict = _check(sweep_output, lines)
    assert not verdict.ok
    assert "v_ratio" in verdict.reason


@pytest.mark.parametrize("label", ["AllBlue", "AllWhite"])
def test_checker_rejects_a_mislabelled_clamp(sweep_output, label):
    lines = list(sweep_output[2])
    row = next(i for i, line in enumerate(lines) if line.rstrip().endswith("," + label))
    lines[row] = lines[row].replace("," + label, ",Interior")
    verdict = _check(sweep_output, lines)
    assert not verdict.ok
    assert "clamp Interior does not fit" in verdict.reason


def test_checker_rejects_a_wrong_row_count(sweep_output):
    lines = sweep_output[2][:-1]
    verdict = _check(sweep_output, lines)
    assert not verdict.ok
    assert "rows, expected" in verdict.reason


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
