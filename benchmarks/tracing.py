"""Spans around the package's public functions, recorded from outside it.

``Tracer.installed()`` replaces each traced function with a timing wrapper,
both in its defining module and in every ``vaxalloc`` module that imported
it by name (``vaxalloc.cli.solve``, ``vaxalloc.sweep.solve``, ...), and puts
the originals back on exit.  Spans are kept in memory as (name, start, end,
parent span index); the per-cell ``model.solve`` spans, about 10^5 per fine
invocation, are only counted and timed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

TARGETS = (
    ("vaxalloc.cli", "main"),
    ("vaxalloc.cli", "build_parser"),
    ("vaxalloc.calibration", "load_countries"),
    ("vaxalloc.calibration", "calibrate"),
    ("vaxalloc.model", "solve"),
    ("vaxalloc.sweep", "sweep_matrix"),
    ("vaxalloc.sweep", "threshold_share"),
    ("vaxalloc.oracle", "brute_force_optimum"),
)
AGGREGATED = {"model.solve"}  # leaves called per cell: counted and timed, no spans


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.spans: list = []
        self._open: list = []  # per open span: [its index in spans, time in traced children]

    def snapshot(self) -> dict[str, tuple]:
        return {name: tuple(value) for name, value in self.stats.items()}

    @contextmanager
    def installed(self):
        patches = []
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(f"{module_name.rsplit('.', 1)[1]}.{attr}", original)
            for name, module in list(sys.modules.items()):
                if name == "vaxalloc" or name.startswith("vaxalloc."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapper)
        try:
            yield self
        finally:
            for module, key, original in reversed(patches):
                setattr(module, key, original)

    def _wrap(self, name: str, function):
        stats, spans, frames = self.stats[name], self.spans, self._open
        clock = time.perf_counter

        if name in AGGREGATED:
            # A leaf: nothing traced runs inside it, so its self time is its time.
            def counted(*args, **kwargs):
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stats[0] += 1
                    stats[1] += elapsed
                    stats[2] += elapsed
                    if frames:
                        frames[-1][1] += elapsed

            return counted

        def traced(*args, **kwargs):
            parent = frames[-1][0] if frames else None
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            frames.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if frames:
                    frames[-1][1] += elapsed
                spans[index] = (name, start, end, parent)

        return traced

    def write(self, path: Path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        path.write_text(json.dumps(rows), encoding="utf-8")


def delta(before: dict[str, tuple], after: dict[str, tuple]) -> dict[str, tuple]:
    """Per-name (calls, total_s, self_s) accumulated between two snapshots."""
    zero = (0, 0.0, 0.0)
    return {name: tuple(a - b for a, b in zip(after.get(name, zero), before.get(name, zero)))
            for name in after}
