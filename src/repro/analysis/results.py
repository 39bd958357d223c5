"""Typed result objects shared by the bounds, sweep, and engine APIs.

Every experiment artifact that used to travel as a raw nested dict now has
a small dataclass here, each with a ``to_dict()`` (JSON-safe) and a
``from_dict()`` inverse so results survive a JSONL round trip bit-exactly:

* :class:`BoundValue` — one evaluated lower-bound expression;
* :class:`Table1Evaluation` — one Table I row at a concrete (n, M, P),
  with dict-style access kept for backwards compatibility;
* :class:`RunResult` — one engine experiment point (spec, metrics, trace,
  cache provenance, wall time);
* :class:`SweepPoint` / :class:`SweepResult` — an ordered parameter sweep
  with the fitted exponent the shape experiments assert on.

This module deliberately imports nothing from the rest of ``repro`` at
module scope, so any layer (bounds, analysis, engine, CLI) can depend on
it without cycles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = [
    "BoundValue",
    "Table1Evaluation",
    "RunResult",
    "RUN_STATUSES",
    "SweepPoint",
    "SweepResult",
    "canonical_json",
]


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------- #
# bounds
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BoundValue:
    """One lower-bound expression evaluated at a concrete parameter point."""

    expr: str
    value: float

    def to_dict(self) -> dict:
        return {"expr": self.expr, "value": self.value}

    @classmethod
    def from_dict(cls, d: Mapping) -> "BoundValue":
        return cls(expr=d["expr"], value=d["value"])


@dataclass(frozen=True)
class Table1Evaluation(Mapping):
    """One Table I row evaluated at (n, M, P).

    Implements the ``Mapping`` protocol over its ``to_dict()`` view so the
    pre-existing ``entry["bounds"].items()`` consumers keep working; new
    code should use the typed attributes.
    """

    algorithm: str
    bounds: tuple[BoundValue, ...]
    with_recomputation: str

    def bound_map(self) -> dict[str, float]:
        """``{display expression: value}`` (the legacy "bounds" dict)."""
        return {b.expr: b.value for b in self.bounds}

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "bounds": self.bound_map(),
            "with_recomputation": self.with_recomputation,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "Table1Evaluation":
        return cls(
            algorithm=d["algorithm"],
            bounds=tuple(BoundValue(e, v) for e, v in d["bounds"].items()),
            with_recomputation=d["with_recomputation"],
        )

    # Mapping protocol — legacy dict-style access
    def __getitem__(self, key: str) -> Any:
        return self.to_dict()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.to_dict())

    def __len__(self) -> int:
        return 3


# --------------------------------------------------------------------- #
# engine runs
# --------------------------------------------------------------------- #

#: The engine's failure taxonomy for one experiment point.
RUN_STATUSES = ("ok", "error", "timeout", "skipped")


@dataclass
class RunResult:
    """One executed (or cache-served) experiment point.

    ``key`` is the content-addressed cache key; ``metrics`` holds the
    counted quantities (I/O words, communication, pebbling statistics);
    ``trace`` is ``{"metrics": snapshot}``, the typed
    :class:`~repro.obs.metrics.MetricsRegistry` snapshot of the run; it
    is kept as loaded, so entries written with the retired
    ``trace["events"]`` view still round-trip.
    ``cached`` and ``wall_time_s`` are provenance, deliberately excluded
    from :meth:`fingerprint` so a cache hit and a fresh run of the same
    point compare equal.

    ``status`` is one of :data:`RUN_STATUSES`: ``ok`` (metrics are valid),
    ``error`` (the executor raised), ``timeout`` (killed by the engine's
    per-point wall-clock limit), or ``skipped`` (never run — a fail-fast
    sweep aborted first).  Non-``ok`` results carry an ``error`` payload
    with ``type``, ``message``, ``traceback`` (tail), and ``attempts``.
    """

    key: str
    kind: str
    params: dict
    metrics: dict
    cached: bool = False
    wall_time_s: float = 0.0
    trace: dict = field(default_factory=dict)
    status: str = "ok"
    error: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        d = {
            "key": self.key,
            "kind": self.kind,
            "params": self.params,
            "metrics": self.metrics,
            "cached": self.cached,
            "wall_time_s": self.wall_time_s,
            "trace": self.trace,
            "status": self.status,
        }
        if self.error is not None:
            d["error"] = self.error
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunResult":
        return cls(
            key=d["key"],
            kind=d["kind"],
            params=dict(d["params"]),
            metrics=dict(d["metrics"]),
            cached=bool(d.get("cached", False)),
            wall_time_s=float(d.get("wall_time_s", 0.0)),
            trace=dict(d.get("trace", {})),
            status=d.get("status", "ok"),
            error=dict(d["error"]) if d.get("error") is not None else None,
        )

    def fingerprint(self) -> str:
        """Digest of the reproducible payload (spec + metrics + trace)."""
        payload = {
            "key": self.key,
            "kind": self.kind,
            "params": self.params,
            "metrics": self.metrics,
            "trace": self.trace,
        }
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


# --------------------------------------------------------------------- #
# sweeps
# --------------------------------------------------------------------- #
@dataclass
class SweepPoint:
    """One x-position of a sweep: the measured value, its bound, extras."""

    x: float
    measured: float
    bound: float | None = None
    extras: dict[str, float] = field(default_factory=dict)
    run: RunResult | None = None

    def to_dict(self) -> dict:
        d: dict = {"x": self.x, "measured": self.measured}
        if self.bound is not None:
            d["bound"] = self.bound
        if self.extras:
            d["extras"] = dict(self.extras)
        if self.run is not None:
            d["run"] = self.run.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "SweepPoint":
        return cls(
            x=float(d["x"]),
            measured=float(d["measured"]),
            bound=d.get("bound"),
            extras=dict(d.get("extras", {})),
            run=RunResult.from_dict(d["run"]) if "run" in d else None,
        )


@dataclass
class SweepResult:
    """An ordered parameter sweep plus engine statistics.

    ``parameter`` names the swept variable ("n", "M", "P", …).  The legacy
    ``values`` / ``measured`` / ``extras`` list views are kept as
    properties so the shape-fit call sites read unchanged.

    ``points`` holds only points that produced valid metrics; points that
    permanently failed (``error`` / ``timeout`` / ``skipped``) are listed
    in ``failures`` as :class:`RunResult` objects carrying the taxonomy —
    a partial sweep is a result, not an exception.
    """

    parameter: str
    points: list[SweepPoint] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)
    failures: list[RunResult] = field(default_factory=list)

    @property
    def values(self) -> list[float]:
        return [p.x for p in self.points]

    @property
    def measured(self) -> list[float]:
        return [p.measured for p in self.points]

    @property
    def bounds(self) -> list[float | None]:
        return [p.bound for p in self.points]

    @property
    def extras(self) -> dict[str, list[float]]:
        keys: list[str] = []
        for p in self.points:
            for k in p.extras:
                if k not in keys:
                    keys.append(k)
        return {k: [p.extras.get(k) for p in self.points] for k in keys}

    @property
    def runs(self) -> list[RunResult]:
        return [p.run for p in self.points if p.run is not None]

    @property
    def exponent(self) -> float:
        from repro.bounds.validation import fit_exponent

        return fit_exponent(self.values, self.measured)

    def to_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "points": [p.to_dict() for p in self.points],
            "stats": dict(self.stats),
            "failures": [r.to_dict() for r in self.failures],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "SweepResult":
        return cls(
            parameter=d["parameter"],
            points=[SweepPoint.from_dict(p) for p in d["points"]],
            stats=dict(d.get("stats", {})),
            failures=[RunResult.from_dict(r) for r in d.get("failures", [])],
        )
