"""Structured trace events for engine runs.

:class:`TraceEvent` / :class:`Tracer` are the engine-level stream the
caller sees.  The engine emits: ``engine.point.start`` / ``.done`` (with
real per-point wall time), ``engine.cache.hit`` / ``.miss`` /
``.corrupt`` (an entry was quarantined), and the fault-tolerance events
``engine.point.retry`` (re-queued with backoff), ``engine.point.timeout``
(killed by the wall-clock limit), ``engine.point.error`` (executor
raised), ``engine.pool.broken`` (a worker died, pool rebuilt) and
``engine.pool.degraded`` (too many breaks — rest of the sweep runs
serially in-process).

What a point's execution counts is not an engine event: the instrumented
modules publish typed metrics into the
:class:`repro.obs.metrics.MetricsRegistry` that
:func:`repro.engine.runners.execute_point` activates, and its snapshot
travels back as ``RunResult.trace["metrics"]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One engine-level event: a kind, a JSON-safe payload, a timestamp."""

    kind: str
    payload: dict
    ts: float

    def to_dict(self) -> dict:
        return {"kind": self.kind, "payload": self.payload, "ts": self.ts}


class Tracer:
    """Collects :class:`TraceEvent` objects; optionally forwards each one."""

    def __init__(self, sink: Callable[[TraceEvent], None] | None = None) -> None:
        self.events: list[TraceEvent] = []
        self.sink = sink

    def emit(self, kind: str, **payload) -> TraceEvent:
        ev = TraceEvent(kind=kind, payload=payload, ts=time.perf_counter())
        self.events.append(ev)
        if self.sink is not None:
            self.sink(ev)
        return ev

    def kinds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

