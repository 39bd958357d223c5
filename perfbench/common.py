"""Shared pieces of the workloads: the run context, timing loops,
fresh working directories and the per-layer metric assembly."""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spans import Spans


@dataclass
class Context:
    root: Path      # the checkout: holds src/ and perfbench/
    workdir: Path   # every file the benchmark writes lives under here
    seed: int
    seconds: float
    expected: dict  # pinned counts, see points.pin_id

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.workdir)
        return env


@dataclass
class Iteration:
    """One pass of a workload: the program's wall time, the latency of
    each user-facing call in it, and how many checked outputs failed."""

    wall: float
    calls: list[float]
    attempted: int
    failed: int
    results: list = field(default_factory=list)


@dataclass
class Measurement:
    """What the untraced run saw: iteration walls, the latency of every
    user-facing call and each iteration's 99th-percentile call, the calls
    that missed every cache, and the checked outputs with the program
    seconds they took."""

    walls: list[float] = field(default_factory=list)
    calls: list[float] = field(default_factory=list)
    tails: list[float] = field(default_factory=list)
    cold: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0

    def add(self, it: Iteration) -> None:
        self.walls.append(it.wall)
        self.calls.extend(it.calls)
        self.tails.append(percentile(it.calls, 99))
        self.attempted += it.attempted
        self.failed += it.failed
        self.elapsed += it.wall


def until(seconds: float, step, minimum: int = 2) -> None:
    """Call ``step`` at least ``minimum`` times, then while the next call
    is expected to end no more than half a call past ``seconds``."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed * (1 + 0.5 / done) >= seconds:
            return
        step()
        done += 1


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    data = sorted(samples)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def import_seconds(ctx: Context, module: str) -> float:
    """Import time of ``module`` in a fresh interpreter."""
    code = (
        "import time; t0 = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t0)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ctx.root, env=ctx.env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# --------------------------------------------------------------------- #
# traced passes
# --------------------------------------------------------------------- #
@dataclass
class TracePass:
    spans: list[Spans]
    plain: list[float]
    traced: list[float]
    iterations: list[Iteration]

    def shares(self) -> dict:
        return {
            "bench.trace_overhead_share":
                statistics.median(self.traced) / statistics.median(self.plain)
                - 1.0,
            "bench.unattributed_share":
                1.0 - sum(s.total_self() for s in self.spans) / sum(self.traced),
        }

    def layers(self) -> dict:
        """Per-iteration means of every span's inclusive seconds (as
        ``<span>_s``) and of the recorded counts, plus ``engine.core.self_s``
        and the call counts of the cache and manifest layers."""
        n = len(self.spans)
        out: defaultdict[str, float] = defaultdict(float)
        for spans in self.spans:
            for name, seconds in spans.inclusive.items():
                out[f"{name}_s"] += seconds / n
            for name, count in spans.counts.items():
                out[name] += count / n
            out["engine.core.self_s"] += spans.self_time["engine.core"] / n
            for name in ("engine.cache.put", "engine.cache.get",
                         "obs.manifest.write"):
                out[f"{name}s"] += spans.calls[name] / n
        return dict(out)


def trace_pass(ctx: Context, targets: list, iterate) -> TracePass:
    """Alternate untraced and traced calls of ``iterate(spans)`` until the
    run's time is up; ``targets`` are the :meth:`Spans.patch` arguments
    installed around each traced call."""
    tp = TracePass([], [], [], [])

    def pair():
        tp.plain.append(iterate(None).wall)
        spans = Spans()
        for target in targets:
            spans.patch(*target)
        try:
            it = iterate(spans)
        finally:
            spans.restore()
        tp.traced.append(it.wall)
        tp.spans.append(spans)
        tp.iterations.append(it)

    until(ctx.seconds, pair, minimum=1)
    return tp
