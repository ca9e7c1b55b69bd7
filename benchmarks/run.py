"""Benchmark of the vaxalloc CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep_fine --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a traced run and reports the per-layer metrics.  ``--workload all``
runs every workload in turn, each in its own process.  A report with units
goes to standard error; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (with
``all``, metric names are prefixed by the workload).  Exits with 2, printing
no result, when the checkout holds no ``src/vaxalloc`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("sweep_fine", "summarize_fine", "interactive_mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{key}": value
                                  for key, value in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vaxalloc" / "cli.py").is_file():
        print(f"benchmark: no package source at {SRC / 'vaxalloc'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from harness import run_workload  # needs the package on the path

    WORK.mkdir(exist_ok=True)
    name = args.workload
    result = run_workload(name, args.seed, args.seconds, bool(args.trace), WORK)
    ledger = result.ledger
    for key, (value, unit) in result.metrics.items():
        print(f"{name:16} {key:30} {value:>16.6g} {unit}", file=sys.stderr)
    print(f"{name:16} {'error_rate':30} {ledger.failed / ledger.attempted:>16.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations failed; "
          f"{result.samples} requests timed"
          + (f", {result.setup_samples} setup processes timed)" if result.setup_samples else ")"),
          file=sys.stderr)
    for reason in ledger.reasons:
        print(f"{name:16} failure: {reason}", file=sys.stderr)
    metrics = {key: {"value": value, "unit": unit}
               for key, (value, unit) in result.metrics.items()}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
