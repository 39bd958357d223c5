"""Polynomial-time schedulers producing valid red-blue schedules.

Two generators:

* :func:`topological_schedule` — the classical no-recomputation schedule:
  visit vertices in topological order, write back evicted values that are
  still needed, evict by Belady's rule (furthest next use) or LRU.  This is
  the "reasonable compiler" whose I/O the lower bounds are compared to.

* :func:`dfs_recompute_schedule` — a deliberately recomputation-heavy
  schedule: nothing internal is ever written back; whenever a value is
  needed again after eviction it is *recomputed* from scratch.  This is the
  adversary for the Theorem 1.1 segment audit — a schedule that tries to
  trade I/O for recomputation, exactly the trade the paper proves cannot
  win asymptotically on fast-matmul CDAGs.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.cdag.core import CDAG
from repro.pebbling.game import Move, MoveKind, Schedule, ScheduleError

__all__ = ["topological_schedule", "dfs_recompute_schedule"]


def _next_use_table(cdag: CDAG, order: list[int]) -> dict[int, deque[int]]:
    """For each vertex, the queue of order-positions where it is consumed."""
    uses: dict[int, deque[int]] = defaultdict(deque)
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        for u in cdag.graph.predecessors(v):
            uses[u].append(pos[v])
    return uses


INFINITY = float("inf")


def topological_schedule(
    cdag: CDAG,
    M: int,
    order: list[int] | None = None,
    eviction: str = "belady",
) -> Schedule:
    """No-recomputation schedule with write-back and Belady/LRU eviction.

    Requires M > max fan-in (a compute needs all predecessors plus the
    result in fast memory simultaneously).
    """
    if eviction not in ("belady", "lru"):
        raise ValueError(f"unknown eviction policy {eviction!r}")
    if M <= cdag.max_fan_in():
        raise ValueError(
            f"M={M} too small: CDAG has fan-in {cdag.max_fan_in()}, need M > fan-in"
        )
    order = order if order is not None else cdag.topological_order()
    compute_order = [v for v in order if not cdag.is_input(v)]
    uses = _next_use_table(cdag, compute_order)
    sched = Schedule(cdag)
    red: set[int] = set()
    blue: set[int] = set(cdag.inputs)
    last_touch: dict[int, int] = {}
    clock = 0

    def next_use(v: int, now: int) -> float:
        q = uses.get(v)
        while q and q[0] <= now:
            q.popleft()
        return q[0] if q else INFINITY

    def make_room(pinned: set[int], now: int) -> None:
        while len(red) >= M:
            candidates = [v for v in red if v not in pinned]
            if not candidates:
                # Every resident value is pinned by the current compute —
                # the capacity boundary (M == fan-in + 1 leaves zero slack).
                # Diagnosable error instead of a bare `max() arg is an
                # empty sequence` ValueError from the policy reduction.
                raise ScheduleError(
                    f"fast memory exhausted: M={M} with max fan-in "
                    f"{cdag.max_fan_in()} leaves no evictable slot "
                    f"(pinned front: {sorted(pinned)}, resident: {sorted(red)})"
                )
            if eviction == "belady":
                victim = max(
                    candidates,
                    key=lambda v: (next_use(v, now), -last_touch.get(v, 0)),
                )
            else:
                victim = min(
                    candidates,
                    key=lambda v: last_touch.get(v, 0),
                )
            needs_keeping = next_use(victim, now) < INFINITY or cdag.is_output(victim)
            if needs_keeping and victim not in blue:
                sched.append(MoveKind.STORE, victim)
                blue.add(victim)
            sched.append(MoveKind.EVICT, victim)
            red.discard(victim)

    for i, v in enumerate(compute_order):
        pinned = set(cdag.graph.predecessors(v))
        for u in cdag.graph.predecessors(v):
            if u not in red:
                if u not in blue:
                    raise AssertionError(
                        f"vertex {u} needed but neither red nor blue: "
                        "topological order violated"
                    )
                make_room(pinned | {v}, i)
                sched.append(MoveKind.LOAD, u)
                red.add(u)
            clock += 1
            last_touch[u] = clock
        make_room(pinned | {v}, i)
        sched.append(MoveKind.COMPUTE, v)
        red.add(v)
        clock += 1
        last_touch[v] = clock
        # eager cleanup: drop dead values (free move, keeps the cache lean)
        for u in list(red):
            if next_use(u, i) == INFINITY:
                if cdag.is_output(u) and u not in blue:
                    sched.append(MoveKind.STORE, u)
                    blue.add(u)
                sched.append(MoveKind.EVICT, u)
                red.discard(u)
    for v in cdag.outputs:
        if v not in blue:
            # still red (never evicted): store now
            sched.append(MoveKind.STORE, v)
            blue.add(v)
    return sched


def dfs_recompute_schedule(cdag: CDAG, M: int, targets: list[int] | None = None) -> Schedule:
    """Recomputation-heavy schedule: never write back internal values.

    Each target output is materialized by a depth-first recomputation of its
    whole ancestry; values evicted along the way are recomputed on the next
    demand rather than reloaded.  Outputs are stored the moment they are
    computed (they must become blue), inputs are re-loaded freely (they stay
    blue by definition).

    Feasibility requires M larger than the maximum number of simultaneously
    pinned vertices on a root-to-leaf DFS front (≈ fan-in × depth); a
    :class:`ValueError` is raised when the capacity is exhausted.
    """
    sched = Schedule(cdag)
    red: set[int] = set()
    blue: set[int] = set(cdag.inputs)
    g = cdag.graph

    def make_room(pinned: set[int]) -> None:
        while len(red) >= M:
            candidates = red.difference(pinned)
            if not candidates:
                raise ValueError(
                    f"M={M} too small for DFS recomputation (pinned front too wide)"
                )
            # Deterministic victim: ``red`` is a set, so its first element
            # would depend on hash-iteration (i.e. insertion) order, making
            # the schedule — and every cache key / I/O count derived from
            # it — vary between equivalent runs.  Smallest id is as good a
            # victim as any for this deliberately recomputation-heavy
            # adversary, and it is reproducible.
            victim = min(candidates)
            sched.append(MoveKind.EVICT, victim)
            red.discard(victim)

    def materialize(v: int, pinned: set[int]) -> None:
        if v in red:
            return
        if v in blue:
            make_room(pinned)
            sched.append(MoveKind.LOAD, v)
            red.add(v)
            return
        preds = g.predecessors(v)
        inner = set(pinned)
        for u in preds:
            materialize(u, inner)
            inner.add(u)
        make_room(inner)
        sched.append(MoveKind.COMPUTE, v)
        red.add(v)
        if cdag.is_output(v):
            sched.append(MoveKind.STORE, v)
            blue.add(v)

    for target in targets if targets is not None else cdag.outputs:
        materialize(target, set())
        # drop everything between targets: maximal recomputation pressure
        for v in list(red):
            sched.append(MoveKind.EVICT, v)
            red.discard(v)
    return sched
