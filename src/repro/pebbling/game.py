"""Red-blue pebble game semantics: schedules, validation, I/O accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from repro.cdag.core import CDAG
from repro.obs.metrics import active_registry

__all__ = [
    "MoveKind",
    "Move",
    "Schedule",
    "PebbleCost",
    "validate_schedule",
    "validate_ir",
    "schedule_io",
]


class MoveKind(str, Enum):
    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"
    EVICT = "evict"


@dataclass(frozen=True)
class Move:
    """One pebbling move applied to vertex ``v``."""

    kind: MoveKind
    v: int


@dataclass
class Schedule:
    """A straight-line pebbling schedule for a CDAG."""

    cdag: CDAG
    moves: list[Move] = field(default_factory=list)

    def append(self, kind: MoveKind, v: int) -> None:
        self.moves.append(Move(kind, v))

    def __len__(self) -> int:
        return len(self.moves)

    def counts(self) -> dict[str, int]:
        c = {k.value: 0 for k in MoveKind}
        for m in self.moves:
            c[m.kind.value] += 1
        return c


@dataclass(frozen=True)
class PebbleCost:
    """I/O cost model.  ``write_cost > read_cost`` models NVM (§V).

    Both costs must be finite and non-negative (zero is legal): the exact
    search is Dijkstra, which needs non-negative edge weights, and a NaN
    cost compares false against every distance.
    """

    read_cost: float = 1.0
    write_cost: float = 1.0

    def __post_init__(self) -> None:
        for name in ("read_cost", "write_cost"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"PebbleCost.{name} must be finite and >= 0, got {value!r}"
                )

    def io(self, loads: int, stores: int) -> float:
        return loads * self.read_cost + stores * self.write_cost


class ScheduleError(ValueError):
    """A schedule violated the game rules."""


def validate_schedule(
    schedule: Schedule,
    M: int,
    allow_recompute: bool = True,
    cost: PebbleCost = PebbleCost(),
) -> dict[str, float]:
    """Replay ``schedule`` against the rules; return I/O statistics.

    Raises :class:`ScheduleError` on any illegal move, on a fast-memory
    overflow, on a recomputation when ``allow_recompute=False``, or if some
    output lacks a blue pebble at the end.

    Returns a dict with loads, stores, io (under ``cost``), peak_red,
    recomputations (count of compute moves beyond the first per vertex).
    """
    cdag = schedule.cdag
    g = cdag.graph
    num_vertices = g.num_vertices
    preds = [tuple(g.predecessors(v)) for v in range(num_vertices)]
    inputs = frozenset(cdag.inputs)
    LOAD, STORE, COMPUTE, EVICT = (
        MoveKind.LOAD, MoveKind.STORE, MoveKind.COMPUTE, MoveKind.EVICT
    )
    red: set[int] = set()
    blue: set[int] = set(inputs)
    computed: set[int] = set()
    loads = stores = recomputations = 0
    peak_red = 0
    # Only LOAD and COMPUTE add a red pebble, so only they can overflow M
    # or raise the peak.
    for idx, m in enumerate(schedule.moves):
        v = m.v
        kind = m.kind
        if not (0 <= v < num_vertices):
            raise ScheduleError(f"move {idx}: vertex {v} does not exist")
        if kind is LOAD:
            if v not in blue:
                raise ScheduleError(f"move {idx}: load of {v} without a blue pebble")
            if v in red:
                raise ScheduleError(f"move {idx}: redundant load of red vertex {v}")
            red.add(v)
            loads += 1
        elif kind is STORE:
            if v not in red:
                raise ScheduleError(f"move {idx}: store of {v} without a red pebble")
            blue.add(v)
            stores += 1
            continue
        elif kind is COMPUTE:
            if v in inputs:
                raise ScheduleError(f"move {idx}: compute of input vertex {v}")
            if not red.issuperset(preds[v]):
                missing = [u for u in preds[v] if u not in red]
                raise ScheduleError(
                    f"move {idx}: compute of {v} with non-red predecessors {missing}"
                )
            if v in computed:
                if not allow_recompute:
                    raise ScheduleError(
                        f"move {idx}: recomputation of {v} is forbidden in this run"
                    )
                recomputations += 1
            else:
                computed.add(v)
            red.add(v)
        elif kind is EVICT:
            if v not in red:
                raise ScheduleError(f"move {idx}: evict of non-red vertex {v}")
            red.discard(v)
            continue
        else:  # pragma: no cover - enum is exhaustive
            raise ScheduleError(f"move {idx}: unknown kind {m.kind}")
        if len(red) > M:
            raise ScheduleError(
                f"move {idx}: fast memory overflow ({len(red)} > M={M})"
            )
        if len(red) > peak_red:
            peak_red = len(red)
    missing_outputs = [v for v in cdag.outputs if v not in blue]
    if missing_outputs:
        raise ScheduleError(f"outputs without blue pebbles at end: {missing_outputs}")
    stats = {
        "loads": loads,
        "stores": stores,
        "io": cost.io(loads, stores),
        "peak_red": peak_red,
        "recomputations": recomputations,
        "moves": len(schedule.moves),
    }
    reg = active_registry()
    if reg is not None:
        reg.inc("pebble.validated")
        reg.inc("pebble.loads", loads)
        reg.inc("pebble.stores", stores)
        reg.inc("pebble.recomputations", recomputations)
        reg.inc("pebble.moves", len(schedule.moves))
        reg.inc("pebble.io", stats["io"])
        reg.gauge_max("pebble.peak_red", peak_red)
    return stats


#: IR op kind value → pebbling move kind (the inverse of the lowering's
#: map; FREE is the IR spelling of EVICT).
_IR_MOVE_KINDS = {
    "load": MoveKind.LOAD,
    "store": MoveKind.STORE,
    "compute": MoveKind.COMPUTE,
    "free": MoveKind.EVICT,
}


def validate_ir(
    ir,
    M: int,
    allow_recompute: bool = True,
    cost: PebbleCost = PebbleCost(),
) -> dict[str, float]:
    """Walk a ``pebble``-kind :class:`repro.schedule.ir.ScheduleIR` under
    the game rules — the IR entry of the validator.

    Each op maps 1:1 back to a move (the vertex rides in ``op.index``,
    the CDAG in ``ir.meta["cdag"]``), and the walk runs through the same
    rules engine as :func:`validate_schedule`, so IR-counted schedules
    can never drift from move-list-counted ones.
    """
    cdag = ir.meta.get("cdag")
    if cdag is None:
        raise ValueError(
            "pebble IR is missing its CDAG (ir.meta['cdag']); "
            "re-lower from the spec"
        )
    schedule = Schedule(cdag=cdag)
    for i, op in enumerate(ir.ops):
        kind = _IR_MOVE_KINDS.get(op.kind.value)
        if kind is None:
            raise ScheduleError(
                f"op {i}: {op.kind.value!r} is not a pebbling move"
            )
        schedule.append(kind, int(op.index))
    return validate_schedule(schedule, M, allow_recompute=allow_recompute, cost=cost)


def schedule_io(schedule: Schedule, cost: PebbleCost = PebbleCost()) -> float:
    """I/O of a schedule without validation (for already-validated schedules)."""
    loads = sum(1 for m in schedule.moves if m.kind is MoveKind.LOAD)
    stores = sum(1 for m in schedule.moves if m.kind is MoveKind.STORE)
    return cost.io(loads, stores)
