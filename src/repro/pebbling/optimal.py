"""Exact minimum-I/O red-blue pebbling via Dijkstra over game states.

A state is (red bitmask, blue bitmask[, computed bitmask when recomputation
is forbidden]).  Moves and costs follow :mod:`repro.pebbling.game`; compute
and evict are free, so this is a shortest-path problem with non-negative
edge weights.  Normalizations that preserve optimality and shrink the space:

* evict only when fast memory is full (lazy eviction),
* never load a red vertex, never store a blue one,
* never compute a vertex that is currently red.

Packed states.  The search keeps each state as one int, its fields laid out
high to low in tuple order (``n`` = vertex count, bit ``v`` of a field is
vertex ``v``)::

    allow_recompute=False:  red << 2n | blue << n | computed
    allow_recompute=True:              red << n  | blue

Every field is below ``2**n``, so comparing two packed ints compares their
fields lexicographically, exactly as the ``(red, blue[, computed])`` tuples
compare.  Heap entries are ``(f, g, state)``, so ties on ``(f, g)`` break
on the state the same way they would on the tuple: the packed search pops
the same states in the same order and returns the same optimum, the same
witness and the same failure at the same fuse as a tuple-state search.
Each move is one int operation on the packed state (OR in a red, blue or
computed bit, XOR out a red bit), and a compute's legality — not red, every
predecessor red, not yet computed — is one masked compare per vertex.

The search is exponential — it exists to *certify* small instances: the
recomputation-wins gadget, tiny trees/diamonds, and E7's 14-vertex slice
(one output's ancestors) of Strassen's tree-style 2×2 base-case CDAG; the
33-vertex bipartite base-case CDAG hits the default fuse at M = 3…6.
A ``max_states`` fuse raises :class:`SearchExhausted` rather than letting a
too-large instance hang; a CDAG that admits *no* complete pebbling at the
given M (the heap drains) raises :class:`Infeasible` instead — the two used
to be conflated under one exception, which made "raise the fuse" look like
a fix for structurally impossible instances.
"""

from __future__ import annotations

import heapq
import numbers

from repro.cdag.core import CDAG
from repro.pebbling.game import Move, MoveKind, PebbleCost, Schedule

__all__ = [
    "optimal_io",
    "optimal_schedule",
    "writeback_lower_bound",
    "SearchExhausted",
    "Infeasible",
]


class SearchExhausted(RuntimeError):
    """The state-space fuse blew before an optimal schedule was found."""


class Infeasible(RuntimeError):
    """No complete pebbling exists for this CDAG at this M.

    Raised when the Dijkstra heap drains with outputs still unpebbled —
    e.g. M=1 on any CDAG with an edge (computing v needs its predecessor
    red *and* a slot for v).  Distinct from :class:`SearchExhausted`: no
    fuse increase can help an infeasible instance.
    """


def writeback_lower_bound(blue: int, output_mask: int, write_cost: float) -> float:
    """Admissible h: every output still missing a blue pebble costs ≥ one store.

    Shared by the exact search and the beam search in
    :mod:`repro.pebbling.search` — both rank states by g + h with this h
    (the exact search tabulates it by the count of outputs not yet blue).
    """
    return write_cost * (output_mask & ~blue).bit_count()


def optimal_io(
    cdag: CDAG,
    M: int,
    allow_recompute: bool = True,
    cost: PebbleCost = PebbleCost(),
    max_states: int = 2_000_000,
) -> float:
    """Minimum total I/O cost to pebble ``cdag`` with fast memory M.

    With ``allow_recompute=False`` each vertex may be computed at most once
    (the assumption most classical lower bounds make); with the default the
    full game is searched, so comparing the two values on one CDAG measures
    exactly how much recomputation buys.

    Raises :class:`TypeError` if ``M`` is not an integer (a ``bool`` or a
    float such as 2.5 is refused, not rounded) and :class:`ValueError` if
    ``M < 1`` or the CDAG has more than 62 vertices, all before searching.
    """
    io, _ = _search(cdag, M, allow_recompute, cost, max_states, witness=False)
    return io


def optimal_schedule(
    cdag: CDAG,
    M: int,
    allow_recompute: bool = True,
    cost: PebbleCost = PebbleCost(),
    max_states: int = 2_000_000,
) -> tuple[float, Schedule]:
    """Like :func:`optimal_io`, but also reconstruct an optimal move list.

    The returned schedule is a *witness*: replaying it through
    :func:`~repro.pebbling.game.validate_schedule` yields exactly the
    returned cost (the test suite asserts this agreement).  Reconstruction
    keeps a parent pointer per improved state, so memory grows with the
    explored state count — same order as the search itself.
    """
    io, sched = _search(cdag, M, allow_recompute, cost, max_states, witness=True)
    assert sched is not None
    return io, sched


#: Move kind by the code a parent pointer stores.
_MOVE_KINDS = (MoveKind.LOAD, MoveKind.STORE, MoveKind.COMPUTE, MoveKind.EVICT)
_LOAD, _STORE, _COMPUTE, _EVICT = range(4)


def _search(
    cdag: CDAG,
    M: int,
    allow_recompute: bool,
    cost: PebbleCost,
    max_states: int,
    witness: bool,
) -> tuple[float, Schedule | None]:
    if isinstance(M, bool) or not isinstance(M, numbers.Integral):
        raise TypeError(f"M must be an int, got {type(M).__name__}")
    n = cdag.num_vertices
    if n > 62:
        raise ValueError("optimal search is limited to ≤ 62 vertices (bitmask state)")
    if M < 1:
        raise ValueError("M must be >= 1")
    g = cdag.graph
    full = (1 << n) - 1
    input_mask = 0
    for v in cdag.inputs:
        input_mask |= 1 << v
    output_mask = 0
    for v in cdag.outputs:
        output_mask |= 1 << v

    # Field offsets of the packed state (see the module docstring).
    track_computed = not allow_recompute
    rs = 2 * n if track_computed else n
    bs = n if track_computed else 0
    # One (test mask, expected, set bits, v) row per non-input vertex, in
    # vertex order: v may be computed iff state & test == expected, and
    # computing it ORs in its red (and computed) bit.
    computes = []
    for v in range(n):
        if (input_mask >> v) & 1:
            continue
        pm = 0
        for u in g.predecessors(v):
            pm |= 1 << u
        cbit = (1 << v) if track_computed else 0
        computes.append(
            (((1 << v) | pm) << rs | cbit, pm << rs, (1 << v) << rs | cbit, v)
        )
    out_field = output_mask << bs
    read_cost, write_cost = cost.read_cost, cost.write_cost
    # h = stores still needed for outputs, by count of outputs not yet blue
    h_of_missing = [write_cost * k for k in range(n + 1)]

    start = input_mask << bs
    best: dict[int, float] = {start: 0.0}
    # parent[state] = (previous state, move kind code, vertex); only
    # populated when a witness is requested.
    parent: dict[int, tuple[int, int, int]] = {}
    # heap entries: (f = g + h, g, state)
    heap = [(h_of_missing[(out_field & ~start).bit_count()], 0.0, start)]
    heappush, heappop = heapq.heappush, heapq.heappop
    inf = float("inf")
    popped = 0

    while heap:
        _, dist, state = heappop(heap)
        if best[state] < dist:
            continue
        missing = (out_field & ~state).bit_count()
        if not missing:
            return dist, _reconstruct(cdag, parent, state) if witness else None
        popped += 1
        if popped > max_states:
            raise SearchExhausted(
                f"optimal pebbling search exceeded {max_states} states "
                f"(V={n}, M={M})"
            )
        red = state >> rs
        blue = (state >> bs) & full
        h = h_of_missing[missing]
        free_f = dist + h

        if red.bit_count() < M:
            # loads: any blue, non-red vertex
            ndist = dist + read_cost
            nf = ndist + h
            rem = (blue & ~red) << rs
            while rem:
                bit = rem & -rem
                rem ^= bit
                nstate = state | bit
                if ndist < best.get(nstate, inf):
                    best[nstate] = ndist
                    if witness:
                        parent[nstate] = (state, _LOAD, bit.bit_length() - 1 - rs)
                    heappush(heap, (nf, ndist, nstate))
            # computes
            for test, expected, add, v in computes:
                if state & test == expected:
                    nstate = state | add
                    if dist < best.get(nstate, inf):
                        best[nstate] = dist
                        if witness:
                            parent[nstate] = (state, _COMPUTE, v)
                        heappush(heap, (free_f, dist, nstate))
        else:
            # fast memory full: evictions (free)
            rem = red << rs
            while rem:
                bit = rem & -rem
                rem ^= bit
                nstate = state ^ bit
                if dist < best.get(nstate, inf):
                    best[nstate] = dist
                    if witness:
                        parent[nstate] = (state, _EVICT, bit.bit_length() - 1 - rs)
                    heappush(heap, (free_f, dist, nstate))
        # stores: any red, non-blue vertex (allowed regardless of fullness)
        ndist = dist + write_cost
        nf = ndist + h
        nf_output = ndist + h_of_missing[missing - 1]
        rem = (red & ~blue) << bs
        while rem:
            bit = rem & -rem
            rem ^= bit
            nstate = state | bit
            if ndist < best.get(nstate, inf):
                best[nstate] = ndist
                if witness:
                    parent[nstate] = (state, _STORE, bit.bit_length() - 1 - bs)
                heappush(heap, (nf_output if bit & out_field else nf, ndist, nstate))

    raise Infeasible(
        f"no complete pebbling exists for CDAG {cdag.name!r} with M={M} "
        f"(V={n}, max fan-in {cdag.max_fan_in()})"
    )


def _reconstruct(
    cdag: CDAG, parent: dict[int, tuple[int, int, int]], goal: int
) -> Schedule:
    """Walk the parent chain back from the goal state into a move list."""
    moves: list[Move] = []
    state = goal
    while state in parent:
        state, code, v = parent[state]
        moves.append(Move(_MOVE_KINDS[code], v))
    moves.reverse()
    return Schedule(cdag, moves)
