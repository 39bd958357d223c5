"""Shared helpers for the four BENCH writers.

Each file here times one subsystem with pytest-benchmark and writes a
``BENCH_*.json`` for its CI job: ``bench_kernels`` (LRU trace and replayed
executions), ``bench_serving`` (the ``repro serve`` daemon), ``bench_hybrid``
(fast/classical crossover) and ``bench_pebbling_schedulers`` (the schedule
atlas, ``BENCH_atlas.json``). The paper's experiments are defined once, in
``repro.analysis.reproduce``; see EXPERIMENTS.md. Run with
``pytest benchmarks/ --benchmark-only -s`` to see the printed tables, or
``--benchmark-disable`` as CI does.
"""

from __future__ import annotations

import numpy as np
import pytest


def banner(title: str) -> str:
    line = "=" * max(30, len(title) + 4)
    return f"\n{line}\n  {title}\n{line}"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2026)
