"""Runs one workload and turns its timings into metrics.

A run with ``trace=0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: median wall time of a fresh ``python -m vaxalloc.cli
  calibrate --input <dataset>`` process; these processes are spread through
  the run, between passes, and take about ``SETUP_SHARE`` of its time;
- ``run_s``: median wall time of one pass over the workload's request block
  (one full invocation on the fine workloads, the whole seeded block on
  ``interactive_mix``), summed over its requests;
- ``latency_p50_ms`` / ``latency_p99_ms``: median and 99th percentile over
  the block's requests of each request's latency, the median wall time of
  its ``vaxalloc.cli.main`` calls in this process over the run's passes.  A
  percentile of the pooled samples would be set by whichever requests a
  stall of the shared machine happened to hit; this one is set by the
  slowest requests of the block;
- ``requests_per_s``: requests completed per second by the closed-loop client;
- ``peak_rss_mb``: peak resident memory of this process after the workload.

A run with ``trace=1`` alternates untraced and traced passes and reports
per-layer metrics per pass (see ``LAYER_UNITS``).  Every output is
checked; each failed check counts one failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import vaxalloc.cli as cli
from vaxalloc import CountryRecord, GridSpec, calibrate, sweep_matrix

from check import CLAMPS, check_output
from tracing import Tracer, delta
from workloads import FULL, Request, Size, build_block, fine_grid, save_requests, write_dataset

SRC = Path(cli.__file__).resolve().parent.parent
MIN_PASSES = 3               # repeats compare output digests and give each request
                             # a median latency
# Share of an end-to-end run spent timing fresh setup processes.  They are
# interleaved with the passes so that a slow spell of the machine weighs on
# setup_s as it does on the pass times, instead of on a burst at the start.
SETUP_SHARE = 0.25
SUBPROCESS_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "cli.import_s": "s",
    "numpy.import_s": "s",
    "cli.build_parser_calls": "count",
    "cli.build_parser_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.emit_bytes_per_s": "B/s",
    "calibration.load_countries_s": "s",
    "calibration.calibrate_calls": "count",
    "calibration.calibrate_s": "s",
    "model.solve_calls": "count",
    "model.solve_s": "s",
    "model.ns_per_cell": "ns",
    **{f"model.clamp.{label}": "count" for label in CLAMPS},
    "sweep.sweep_matrix_calls": "count",
    "sweep.sweep_matrix_s": "s",
    "sweep.sweep_matrix_self_s": "s",
    "sweep.threshold_share_s": "s",
    "oracle.brute_force_calls": "count",
    "oracle.brute_force_s": "s",
    "trace.overhead_ratio": "ratio",
    "sweep.pool_speedup": "ratio",
}

# Per-pass counts that must repeat exactly from pass to pass.
EXACT = {"cli.build_parser_calls", "cli.output_bytes", "calibration.calibrate_calls",
         "model.solve_calls", "sweep.sweep_matrix_calls", "oracle.brute_force_calls"}


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


@dataclass
class Pass:
    """One pass over the request block."""

    latencies: list = field(default_factory=list)   # seconds per request
    codes: list = field(default_factory=list)       # exit codes
    digests: list = field(default_factory=list)     # sha256 of each output
    sizes: list = field(default_factory=list)       # bytes of each output
    wall: float = 0.0                               # includes reading outputs back
    layers: Optional[dict] = None                   # tracer delta, traced passes only


@dataclass
class Result:
    metrics: dict      # name -> (value, unit)
    ledger: Ledger
    samples: int       # requests timed with tracing off
    setup_samples: int  # fresh processes timed for setup_s


class Run:
    """Inputs and scratch files of one workload run."""

    def __init__(self, name: str, seed: int, size: Size, tmp: Path) -> None:
        self.seed, self.size, self.tmp = seed, size, tmp
        self.countries, self.block = build_block(name, seed, size)
        self.dataset = tmp / "countries.csv"
        write_dataset(self.countries, self.dataset)
        self.ledger = Ledger()
        self.samples = 0
        self.setup_samples = 0
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def spawn(self, argv: list[str], what: str) -> float:
        """Wall time of a fresh interpreter running ``argv``; failures are recorded."""
        start = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, *argv], env=self.env, cwd=self.tmp,
                                  stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=SUBPROCESS_TIMEOUT_S,
                                  text=True)
            ok = done.returncode == 0
            reason = f"{what}: exit {done.returncode}: {done.stderr.strip()[-200:]}"
        except subprocess.TimeoutExpired:
            ok, reason = False, f"{what}: timed out"
        elapsed = time.perf_counter() - start
        self.ledger.record(ok, reason)
        return elapsed

    def setup(self) -> float:
        """Wall time of one fresh ``calibrate`` process, whose output is checked."""
        out = self.tmp / "setup.csv"
        out.unlink(missing_ok=True)
        elapsed = self.spawn(["-m", "vaxalloc.cli", "calibrate", "--input", str(self.dataset),
                              "--output", str(out)], "setup calibrate")
        verdict = check_output(Request("calibrate"), self.countries, _read(out),
                               random.Random(self.seed))
        self.ledger.record(verdict.ok, f"setup output: {verdict.reason}")
        return elapsed

    def import_probes(self) -> dict[str, float]:
        snippets = {"bare": "pass", "numpy": "import numpy", "cli": "import vaxalloc.cli"}
        self.spawn(["-c", snippets["cli"]], "warm-up import")
        times: dict[str, list] = {key: [] for key in snippets}
        for _ in range(self.size.probe_runs):
            for key, code in snippets.items():
                times[key].append(self.spawn(["-c", code], f"import probe {key}"))
        bare = statistics.median(times["bare"])
        return {"cli.import_s": statistics.median(times["cli"]) - bare,
                "numpy.import_s": statistics.median(times["numpy"]) - bare}

    def pool_speedup(self) -> float:
        """sweep_matrix on one fine lattice, serial time over pool time at nproc."""
        country = self.countries[0]
        profile = calibrate(CountryRecord(country.code, country.employment,
                                          country.telework_share))
        grid = GridSpec(*fine_grid(self.size))
        workers = len(os.sched_getaffinity(0))  # the CPUs this process may use
        times: dict[int, list] = {1: [], workers: []}
        cells = {}
        for _ in range(3):
            for count in times:
                start = time.perf_counter()
                cells[count] = sweep_matrix(profile, 0.4, grid, workers=count).cells
                times[count].append(time.perf_counter() - start)
                self.ledger.record(cells[count] == cells[1], "pool probe: cells differ")
        return statistics.median(times[1]) / statistics.median(times[workers])

    def traced_passes(self, seconds: float, tracer: Tracer) -> tuple[list[Pass], list[Pass]]:
        """Untraced and traced passes, alternating so both see the same machine
        load, until ``seconds`` have been spent.  Returns (untraced, traced)."""
        untraced: list[Pass] = []
        traced: list[Pass] = []
        started = time.perf_counter()
        while len(traced) < MIN_PASSES or time.perf_counter() - started < seconds:
            untraced.append(self.one_pass(keep=not untraced))
            with tracer.installed():
                traced.append(self.one_pass(keep=False, tracer=tracer))
        return untraced, traced

    def one_pass(self, keep: bool, tracer: Optional[Tracer] = None) -> Pass:
        """One pass over the block; ``keep`` saves each output for checking."""
        gc.collect()
        clock = time.perf_counter
        out = self.tmp / "out"
        record = Pass()
        before = tracer.snapshot() if tracer else None
        pass_start = clock()
        for index, request in enumerate(self.block):
            argv = request.argv(self.dataset, out)
            start = clock()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed request, not a failed run
                code = f"{type(exc).__name__}: {exc}"
            record.latencies.append(clock() - start)
            record.codes.append(code)
            digest, size = _digest(out)
            record.digests.append(digest)
            record.sizes.append(size)
            # every request writes a new file, in every pass
            if keep and digest is not None:
                os.replace(out, self.tmp / f"first-{index}.out")
            else:
                out.unlink(missing_ok=True)
        record.wall = clock() - pass_start
        if tracer:
            record.layers = delta(before, tracer.snapshot())
        return record

    def verify(self, *measurements: list[Pass]) -> Counter:
        """Check every output of the first pass, then every request against it.

        Returns the clamp labels counted in one pass's outputs.
        """
        rng = random.Random(self.seed)
        verdicts = [check_output(request, self.countries, _read(self.tmp / f"first-{index}.out"),
                                 rng)
                    for index, request in enumerate(self.block)]
        reference = measurements[0][0].digests
        for passes in measurements:
            for record in passes:
                for index, (code, digest) in enumerate(zip(record.codes, record.digests)):
                    verdict = verdicts[index]
                    if code != 0:
                        reason = f"request {index}: exit {code}"
                    elif not verdict.ok:
                        reason = f"request {index}: {verdict.reason}"
                    else:
                        reason = f"request {index}: output differs from its first pass"
                    self.ledger.record(
                        code == 0 and verdict.ok and digest == reference[index], reason)
        return sum((verdict.clamps for verdict in verdicts), Counter())


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def _digest(path: Path) -> tuple[Optional[bytes], int]:
    try:
        with open(path, "rb") as handle:
            digest = hashlib.sha256()
            size = 0
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
                size += len(chunk)
            return digest.digest(), size
    except FileNotFoundError:
        return None, 0


def _pass_seconds(passes: list[Pass]) -> float:
    return statistics.median(sum(record.latencies) for record in passes)


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    run.setup()  # fills __pycache__ and the page cache; not timed
    setups: list[float] = []
    passes: list[Pass] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        passes.append(run.one_pass(keep=not passes))
        while sum(setups) < SETUP_SHARE * (time.perf_counter() - started):
            setups.append(run.setup())
    while len(setups) < run.size.setup_runs:  # a slow machine still gets enough samples
        setups.append(run.setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.verify(passes)
    per_request = [statistics.median(times)
                   for times in zip(*(record.latencies for record in passes))]
    run.samples = len(passes) * len(per_request)
    run.setup_samples = len(setups)
    return {
        "setup_s": statistics.median(setups),
        "run_s": _pass_seconds(passes),
        "latency_p50_ms": statistics.median(per_request) * 1e3,
        "latency_p99_ms": _percentile(per_request, 99) * 1e3,
        "requests_per_s": run.samples / sum(record.wall for record in passes),
        "peak_rss_mb": peak_rss_mb,
    }


def _layers(record: Pass) -> dict[str, float]:
    def get(name: str) -> tuple:
        return record.layers.get(name, (0, 0.0, 0.0))

    main, solve, sweep = get("cli.main"), get("model.solve"), get("sweep.sweep_matrix")
    output_bytes = sum(record.sizes)
    return {
        "cli.build_parser_calls": get("cli.build_parser")[0],
        "cli.build_parser_s": get("cli.build_parser")[1],
        "cli.main_s": main[1],
        "cli.self_s": main[2],
        "cli.output_bytes": output_bytes,
        "cli.emit_bytes_per_s": output_bytes / main[2],
        "calibration.load_countries_s": get("calibration.load_countries")[1],
        "calibration.calibrate_calls": get("calibration.calibrate")[0],
        "calibration.calibrate_s": get("calibration.calibrate")[1],
        "model.solve_calls": solve[0],
        "model.solve_s": solve[1],
        "model.ns_per_cell": solve[1] / solve[0] * 1e9 if solve[0] else 0.0,
        "sweep.sweep_matrix_calls": sweep[0],
        "sweep.sweep_matrix_s": sweep[1],
        "sweep.sweep_matrix_self_s": sweep[2],
        "sweep.threshold_share_s": get("sweep.threshold_share")[1],
        "oracle.brute_force_calls": get("oracle.brute_force_optimum")[0],
        "oracle.brute_force_s": get("oracle.brute_force_optimum")[1],
    }


def per_layer(run: Run, seconds: float, spans_path: Path) -> dict[str, float]:
    metrics = run.import_probes()
    metrics["sweep.pool_speedup"] = run.pool_speedup()
    tracer = Tracer()
    untraced, traced = run.traced_passes(seconds, tracer)
    run.samples = sum(len(record.latencies) for record in untraced)
    tracer.write(spans_path)
    clamps = run.verify(untraced, traced)

    per_pass = [_layers(record) for record in traced]
    for name in per_pass[0]:
        values = [layers[name] for layers in per_pass]
        if name in EXACT:
            run.ledger.record(len(set(values)) == 1, f"{name} varies between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics.update({f"model.clamp.{label}": clamps[label] for label in CLAMPS})
    metrics["trace.overhead_ratio"] = _pass_seconds(traced) / _pass_seconds(untraced)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 size: Size = FULL) -> Result:
    """Run workload ``name`` in a scratch directory under ``work``."""
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        run = Run(name, seed, size, Path(tmp))
        save_requests(run.block, work / f"requests-{name}.json")
        if trace:
            values = per_layer(run, seconds, work / f"spans-{name}.json")
            units = LAYER_UNITS
        else:
            values = end_to_end(run, seconds)
            units = END_TO_END_UNITS
    return Result({key: (values[key], unit) for key, unit in units.items()}, run.ledger,
                  run.samples, run.setup_samples)
