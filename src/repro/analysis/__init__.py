"""Experiment harness utilities: sweeps, exponent fits, crossovers, reports."""

from repro.analysis.fitting import (
    sweep_from_jsonl,
    sweep_from_runs,
)
from repro.analysis.results import (
    BoundValue,
    RunResult,
    SweepPoint,
    SweepResult,
    Table1Evaluation,
)
from repro.analysis.crossover import find_crossover
from repro.analysis.report import text_table

__all__ = [
    "sweep_from_jsonl",
    "sweep_from_runs",
    "BoundValue",
    "RunResult",
    "SweepPoint",
    "SweepResult",
    "Table1Evaluation",
    "find_crossover",
    "text_table",
]
