"""The unified executor API: ``repro.schedule.run(schedule, machine, backend=...)``.

One entry point replaces the five divergent executor signatures: callers
build a :class:`~repro.schedule.spec.ScheduleSpec` (or hand in an
already-lowered :class:`~repro.schedule.ir.ScheduleIR`), pick a backend
by name, and get a :class:`ScheduleReport` with the workload's exact
counters.  The physical executors (``repro.execution.execute_*``) remain
the ground truth every backend is certified against; the ``machine``
backend runs them behind the same facade.

Backends
--------
``machine``     the physical executor with operands seeded from
                ``payload["seed"]``: seq_io on a live
                :class:`SequentialMachine` (the ``machine`` argument when
                given; checks C = AB only with replay off), lru_trace,
                and parallel_comm (BFS words from ``simulate_bfs_comm``,
                no :class:`BSPMachine`; SUMMA on a ``BSPMachine(P, M)``;
                always checks C = AB — the only backend for SUMMA).  The
                engine's points run here when they name no backend
``reference``   op-by-op interpretation; for sequential workloads the ops
                are charged through a live :class:`SequentialMachine`
                (same capacity checks, counters, and metrics publications
                as the physical executors)
``vector``      whole-schedule numpy passes over the op arrays, LRU row
                batches through the offline vectorized kernel
``symbolic``    closed-form recurrences over the O(log n) sub-problem
                sizes; never materializes the schedule (n ≥ 4096 in
                milliseconds); seq_io and lru_trace only
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.schedule.ir import BackendUnsupported, ScheduleIR
from repro.schedule.spec import ScheduleSpec

__all__ = ["ScheduleReport", "Executor", "BACKENDS", "run", "BackendUnsupported"]


@dataclass
class ScheduleReport:
    """The result of counting one workload under one backend."""

    kind: str
    backend: str
    params: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    @property
    def reads(self) -> int:
        return int(self.metrics.get("reads", 0))

    @property
    def writes(self) -> int:
        return int(self.metrics.get("writes", 0))

    @property
    def io(self):
        return self.metrics.get("io", self.reads + self.writes)

    @property
    def peak_fast(self) -> int:
        return int(self.metrics.get("peak_fast", 0))

    def counter_view(self) -> dict:
        """The exact-equality comparison view the differential probes use."""
        view = {"reads": self.reads, "writes": self.writes, "io": int(self.io)}
        if "peak_fast" in self.metrics:
            view["peak_fast"] = self.peak_fast
        return view

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "backend": self.backend,
            "params": dict(self.params),
            "metrics": dict(self.metrics),
        }


@runtime_checkable
class Executor(Protocol):
    """One counting backend: a name plus an execute hook.

    ``execute`` receives the workload spec (``None`` when the caller
    handed in a raw IR), the lowered IR (``None`` until the backend asks
    for it — the symbolic backend never does), and an optional live
    machine to charge.  It returns the metrics dict :func:`run` wraps
    into a :class:`ScheduleReport`.
    """

    name: str

    def execute(
        self,
        spec: ScheduleSpec | None,
        ir: ScheduleIR | None,
        machine=None,
    ) -> dict: ...


def _require_ir(spec: ScheduleSpec | None, ir: ScheduleIR | None) -> ScheduleIR:
    if ir is None:
        ir = spec.lower()
    return ir


def _require_spec(spec: ScheduleSpec | None, ir: ScheduleIR | None) -> ScheduleSpec:
    if spec is not None:
        return spec
    from repro.schedule.spec import spec_from_params

    return spec_from_params(ir.kind, ir.params)


@dataclass(frozen=True)
class _MachineBackend:
    name: str = "machine"

    def execute(self, spec, ir, machine=None) -> dict:
        from repro.schedule import machine as physical

        return physical.execute(_require_spec(spec, ir), machine)


@dataclass(frozen=True)
class _ReferenceBackend:
    name: str = "reference"

    def execute(self, spec, ir, machine=None) -> dict:
        from repro.schedule import reference

        return reference.execute(_require_ir(spec, ir), machine)


@dataclass(frozen=True)
class _VectorBackend:
    name: str = "vector"

    def execute(self, spec, ir, machine=None) -> dict:
        from repro.schedule import vector

        return vector.execute(_require_ir(spec, ir), machine)


@dataclass(frozen=True)
class _SymbolicBackend:
    name: str = "symbolic"

    def execute(self, spec, ir, machine=None) -> dict:
        from repro.schedule import symbolic

        return symbolic.execute(_require_spec(spec, ir), machine)


#: Name → executor.  The engine's ``backend=`` parameter resolves through
#: this registry (no backend means ``machine``); the CLI's ``--backend``
#: offers the three counting backends.
BACKENDS: dict[str, Executor] = {
    "machine": _MachineBackend(),
    "reference": _ReferenceBackend(),
    "vector": _VectorBackend(),
    "symbolic": _SymbolicBackend(),
}

#: ABMM phase tags → the metric names the legacy executor reported.
_PHASE_KEYS = ("transform_forward", "bilinear", "transform_inverse")


def _promote_phases(metrics: dict) -> dict:
    """Turn per-tag I/O sums into the legacy ABMM phase metrics."""
    tags = metrics.pop("tags", None)
    if not tags or "io_total" in metrics or not any(t in tags for t in _PHASE_KEYS):
        return metrics
    fwd = tags.get("transform_forward", 0)
    bil = tags.get("bilinear", 0)
    inv = tags.get("transform_inverse", 0)
    metrics.update(
        io_transform_forward=float(fwd),
        io_bilinear=float(bil),
        io_transform_inverse=float(inv),
        io_total=float(fwd + bil + inv),
        transform_fraction=float((fwd + inv) / max(1.0, fwd + bil + inv)),
    )
    return metrics


def run(
    schedule: ScheduleSpec | ScheduleIR,
    machine=None,
    backend: str = "reference",
) -> ScheduleReport:
    """Count one workload under the selected backend.

    ``schedule`` is a :class:`ScheduleSpec` (preferred — the symbolic
    backend needs the spec's live payload) or an already-lowered
    :class:`ScheduleIR`.  ``machine`` optionally charges the counted I/O
    into a live :class:`~repro.machine.sequential.SequentialMachine`:
    the machine backend executes on it, the reference backend streams
    every op through it, the other backends fold in the totals.

    Raises :class:`BackendUnsupported` when the backend has no counting
    path for the workload kind, :class:`KeyError` for an unknown backend
    name.
    """
    if isinstance(schedule, ScheduleSpec):
        spec, ir = schedule, None
    elif isinstance(schedule, ScheduleIR):
        spec, ir = None, schedule
    else:
        raise TypeError(
            f"schedule must be a ScheduleSpec or ScheduleIR, got {type(schedule)!r}"
        )
    try:
        executor = BACKENDS[backend]
    except KeyError:
        raise KeyError(
            f"unknown backend {backend!r}; available: {sorted(BACKENDS)}"
        ) from None
    metrics = _promote_phases(executor.execute(spec, ir, machine))
    kind = spec.kind if spec is not None else ir.kind
    params = dict(spec.params if spec is not None else ir.params)
    return ScheduleReport(kind=kind, backend=backend, params=params, metrics=metrics)
