"""Typed metrics: counters, gauges, and exact-integer-bucket histograms.

A :class:`MetricsRegistry` is the one instrumentation channel: every
instrumented layer (the machines, the pebbling validator, the engine)
publishes into the *active* registry — one per experiment execution,
activated with :func:`collecting` — and the registry's
:meth:`~MetricsRegistry.to_dict` snapshot is what crosses the worker
boundary, one plain dict per point.

Process model
-------------
Registries are deliberately per-process: a worker process activates its
own registry around one point execution, and only the JSON-safe snapshot
travels back to the parent (pickled inside the ``RunResult``).  Within a
process the registry is thread-safe (a single lock guards all mutation),
so a registry shared by instrumented code on several threads cannot drop
or duplicate increments.  Nothing is ever shared *between* processes —
that is what makes the design race-free across the pool boundary.

Determinism
-----------
Snapshots contain no timestamps and iterate in sorted name order, so two
executions of the same experiment point produce bit-identical snapshots
regardless of worker scheduling — the engine's serial-equals-parallel
fingerprint guarantee extends to the metrics layer.

Histograms use **exact integer bucket boundaries** (powers of two by
default): observations are tallied with integer comparisons only, so the
bucket counts are exact — no floating-point bucket-edge ambiguity.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "collecting",
    "active_registry",
    "merge_metric_dicts",
]

#: Default histogram boundaries: exact powers of two, 1 word .. 2^40 words.
DEFAULT_BUCKETS: tuple[int, ...] = tuple(2**k for k in range(0, 41, 2))


class Counter:
    """A monotonically increasing integer/float count."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (e.g. a peak footprint)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        """Keep the running maximum — the idiom for peak trackers."""
        if value > self.value:
            self.value = value


class Histogram:
    """Exact-count histogram over fixed integer bucket boundaries.

    ``buckets`` are inclusive upper bounds in strictly increasing order;
    an observation lands in the first bucket whose bound is >= the value,
    or in the implicit overflow bucket.  All tallies are exact integers.
    """

    __slots__ = ("buckets", "counts", "overflow", "count", "total", "vmin", "vmax")

    def __init__(self, buckets: tuple[int, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or any(
            b2 <= b1 for b1, b2 in zip(buckets, buckets[1:])
        ) or any(int(b) != b for b in buckets):
            raise ValueError(
                f"histogram buckets must be strictly increasing integers: {buckets!r}"
            )
        self.buckets = tuple(int(b) for b in buckets)
        self.counts = [0] * len(self.buckets)
        self.overflow = 0
        self.count = 0
        self.total = 0
        self.vmin: float | None = None
        self.vmax: float | None = None

    def observe(self, value: float, count: int = 1) -> None:
        """Tally ``count`` observations of ``value``: the snapshot of
        ``count`` single calls (exactly so for integer values, whose total
        is exact); ``count=0`` is a no-op."""
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ValueError(
                f"observation count must be a non-negative int, got {count!r}"
            )
        if count == 0:
            return
        self.count += count
        self.total += value * count
        self.vmin = value if self.vmin is None else min(self.vmin, value)
        self.vmax = value if self.vmax is None else max(self.vmax, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += count
                return
        self.overflow += count

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Publishing is always through the typed accessors (:meth:`counter`,
    :meth:`gauge`, :meth:`histogram`) or the one-line conveniences
    (:meth:`inc`, :meth:`gauge_set`, :meth:`gauge_max`, :meth:`observe`).
    A name lives in exactly one kind; re-registering it as another kind
    raises — that is the schema discipline the ad-hoc dicts lacked.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- typed accessors ------------------------------------------------ #
    def _check_free(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other, table in owners.items():
            if other != kind and name in table:
                raise TypeError(
                    f"metric {name!r} is already registered as a {other}"
                )

    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                self._check_free(name, "counter")
                c = self._counters[name] = Counter()
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                self._check_free(name, "gauge")
                g = self._gauges[name] = Gauge()
            return g

    def histogram(
        self, name: str, buckets: tuple[int, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                self._check_free(name, "histogram")
                h = self._histograms[name] = Histogram(buckets)
            return h

    # -- one-line conveniences (the hot-path API) ----------------------- #
    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def gauge_set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def gauge_max(self, name: str, value: float) -> None:
        self.gauge(name).set_max(value)

    def observe(
        self, name: str, value: float, count: int = 1, buckets=DEFAULT_BUCKETS
    ) -> None:
        self.histogram(name, buckets).observe(value, count)

    # -- reading -------------------------------------------------------- #
    def value(self, name: str, default: float = 0) -> float:
        """Current value of a counter or gauge (histograms have no scalar)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return default

    def names(self) -> list[str]:
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        )

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- serialization -------------------------------------------------- #
    def to_dict(self) -> dict:
        """JSON-safe snapshot: deterministic (sorted), timestamp-free."""
        with self._lock:
            return {
                "counters": {
                    k: self._counters[k].value for k in sorted(self._counters)
                },
                "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
                "histograms": {
                    k: self._histograms[k].to_dict()
                    for k in sorted(self._histograms)
                },
            }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "MetricsRegistry":
        reg = cls()
        for name, value in d.get("counters", {}).items():
            reg.counter(name).value = value
        for name, value in d.get("gauges", {}).items():
            reg.gauge(name).value = value
        for name, h in d.get("histograms", {}).items():
            hist = reg.histogram(name, tuple(h["buckets"]))
            hist.counts = list(h["counts"])
            hist.overflow = int(h.get("overflow", 0))
            hist.count = int(h.get("count", 0))
            hist.total = h.get("total", 0)
            hist.vmin = h.get("min")
            hist.vmax = h.get("max")
        return reg

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's snapshot in: counters and histogram
        tallies add, gauges keep the maximum (peak semantics)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set_max(value)
        for name, h in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, tuple(h["buckets"]))
            if hist.buckets != tuple(h["buckets"]):
                raise ValueError(
                    f"histogram {name!r}: cannot merge differing buckets"
                )
            hist.counts = [a + b for a, b in zip(hist.counts, h["counts"])]
            hist.overflow += int(h.get("overflow", 0))
            hist.count += int(h.get("count", 0))
            hist.total += h.get("total", 0)
            for bound_key, pick in (("min", min), ("max", max)):
                theirs = h.get(bound_key)
                if theirs is None:
                    continue
                ours = hist.vmin if bound_key == "min" else hist.vmax
                merged = theirs if ours is None else pick(ours, theirs)
                if bound_key == "min":
                    hist.vmin = merged
                else:
                    hist.vmax = merged


def merge_metric_dicts(snapshots: Iterator[Mapping] | list[Mapping]) -> dict:
    """Aggregate many per-point snapshots into one (the report's view)."""
    reg = MetricsRegistry()
    for snap in snapshots:
        if snap:
            reg.merge(snap)
    return reg.to_dict()


# --------------------------------------------------------------------- #
# the per-process active registry
# --------------------------------------------------------------------- #
# A stack, so nested collections (an engine-level registry wrapping a
# point-level one) publish to the innermost scope only.
_ACTIVE: list[MetricsRegistry] = []


def active_registry() -> MetricsRegistry | None:
    """The registry instrumented code should publish into, if any.

    Hot paths call this once per event batch; it is a list peek, so the
    cost while no collection is active is a truthiness check.
    """
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def collecting(registry: MetricsRegistry | None = None):
    """Activate a registry for the duration of the block; yields it."""
    reg = registry if registry is not None else MetricsRegistry()
    _ACTIVE.append(reg)
    try:
        yield reg
    finally:
        _ACTIVE.remove(reg)
