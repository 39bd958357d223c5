"""The packed-int exact search against the tuple-state search it replaced.

``_tuple_search`` is the earlier loop of :func:`repro.pebbling.optimal._search`,
kept verbatim apart from names: each state is a ``(red, blue[, computed])``
tuple, each edge builds a :class:`Move`.  Both are Dijkstra with the same
heap key ``(f, g, state)``, and packed-int order equals tuple order, so they
must agree on the optimum, on the witness move list, and on which failure
is raised at which ``max_states`` fuse.
"""

import heapq
import random

import pytest

from repro.algorithms import strassen
from repro.cdag import base_case_cdag
from repro.cdag.core import CDAG
from repro.cdag.families import (
    binary_tree_cdag,
    diamond_chain_cdag,
    recompute_wins_cdag,
)
from repro.graphs.digraph import DiGraph
from repro.pebbling.game import Move, MoveKind, PebbleCost, Schedule, validate_schedule
from repro.pebbling.optimal import (
    Infeasible,
    SearchExhausted,
    optimal_schedule,
    writeback_lower_bound,
)


def _tuple_search(cdag, M, allow_recompute, cost, max_states):
    n = cdag.num_vertices
    g = cdag.graph
    pred_mask = [0] * n
    for v in range(n):
        for u in g.predecessors(v):
            pred_mask[v] |= 1 << u
    input_mask = 0
    for v in cdag.inputs:
        input_mask |= 1 << v
    output_mask = 0
    for v in cdag.outputs:
        output_mask |= 1 << v
    non_inputs = [v for v in range(n) if not (input_mask >> v) & 1]

    track_computed = not allow_recompute
    start = (0, input_mask, 0) if track_computed else (0, input_mask)
    best = {start: 0.0}
    parent = {}

    def h_of(blue):
        return writeback_lower_bound(blue, output_mask, cost.write_cost)

    heap = [(h_of(input_mask), 0.0, start)]
    popped = 0

    while heap:
        f, dist, state = heapq.heappop(heap)
        if best.get(state, float("inf")) < dist:
            continue
        red, blue = state[0], state[1]
        if (blue & output_mask) == output_mask:
            moves = []
            while state in parent:
                state, move = parent[state]
                moves.append(move)
            moves.reverse()
            return dist, moves
        popped += 1
        if popped > max_states:
            raise SearchExhausted(
                f"optimal pebbling search exceeded {max_states} states "
                f"(V={n}, M={M})"
            )
        red_count = bin(red).count("1")
        computed = state[2] if track_computed else 0

        def push(nred, nblue, ncomputed, ndist, move):
            nstate = (nred, nblue, ncomputed) if track_computed else (nred, nblue)
            if ndist < best.get(nstate, float("inf")):
                best[nstate] = ndist
                parent[nstate] = (state, move)
                heapq.heappush(heap, (ndist + h_of(nblue), ndist, nstate))

        if red_count < M:
            rem = blue & ~red
            while rem:
                bit = rem & -rem
                rem ^= bit
                v = bit.bit_length() - 1
                push(red | bit, blue, computed, dist + cost.read_cost,
                     Move(MoveKind.LOAD, v))
            for v in non_inputs:
                bit = 1 << v
                if red & bit:
                    continue
                if (pred_mask[v] & red) != pred_mask[v]:
                    continue
                if track_computed and (computed >> v) & 1:
                    continue
                push(red | bit, blue, computed | (1 << v) if track_computed else 0,
                     dist, Move(MoveKind.COMPUTE, v))
        else:
            rem = red
            while rem:
                bit = rem & -rem
                rem ^= bit
                push(red & ~bit, blue, computed, dist,
                     Move(MoveKind.EVICT, bit.bit_length() - 1))
        rem = red & ~blue
        while rem:
            bit = rem & -rem
            rem ^= bit
            push(red, blue | bit, computed, dist + cost.write_cost,
                 Move(MoveKind.STORE, bit.bit_length() - 1))

    raise Infeasible(
        f"no complete pebbling exists for CDAG {cdag.name!r} with M={M} "
        f"(V={n}, max fan-in {cdag.max_fan_in()})"
    )


def _path(k: int) -> CDAG:
    g = DiGraph()
    g.add_vertices(k)
    for i in range(k - 1):
        g.add_edge(i, i + 1)
    return CDAG(g, [0], [k - 1], name=f"path{k}")


def _random_cdag(seed: int, n: int) -> CDAG:
    """Random fan-in ≤ 2 CDAG; sinks (or the last vertex) are outputs."""
    rng = random.Random(seed)
    g = DiGraph()
    g.add_vertices(n)
    inputs = []
    for v in range(n):
        k = rng.randint(0, min(v, 2))
        if k == 0:
            inputs.append(v)
        for u in rng.sample(range(v), k):
            g.add_edge(u, v)
    sinks = [v for v in range(n) if g.out_degree(v) == 0 and v not in inputs]
    return CDAG(g, inputs, sinks or [n - 1], name=f"rand{seed}")


def _strassen_slice() -> CDAG:
    """E7's instance: C12's slice of Strassen's base-case CDAG."""
    base = base_case_cdag(strassen(), style="tree")
    return base.ancestor_closure([base.outputs[1]])


#: Small enough to sweep M from one below the feasibility edge upward.
INSTANCES = (
    [_path(k) for k in (2, 3, 5)]
    + [diamond_chain_cdag(k) for k in (1, 2, 3)]
    + [binary_tree_cdag(h) for h in (1, 2)]
    + [recompute_wins_cdag(1, 2)]
    + [_random_cdag(seed, 6 + seed % 4) for seed in range(8)]
)
COSTS = [PebbleCost(), PebbleCost(1.0, 3.0)]


def _outcome(search):
    """(io, moves) on success, (exception type, message) on failure."""
    try:
        return search()
    except (Infeasible, SearchExhausted) as exc:
        return type(exc), str(exc)


def _packed(cdag, M, allow_recompute, cost, max_states=2_000_000):
    io, sched = optimal_schedule(cdag, M, allow_recompute, cost, max_states)
    return io, sched.moves


def _assert_same(cdag, M, allow_recompute, cost, max_states=2_000_000):
    got = _outcome(lambda: _packed(cdag, M, allow_recompute, cost, max_states))
    want = _outcome(
        lambda: _tuple_search(cdag, M, allow_recompute, cost, max_states)
    )
    assert got == want, (cdag.name, M, allow_recompute, cost, max_states)
    io, moves = got
    if isinstance(moves, list):  # a witness replays at exactly its cost
        stats = validate_schedule(Schedule(cdag, moves), M, allow_recompute, cost)
        assert stats["io"] == io


@pytest.mark.parametrize("cost", COSTS, ids=["unit", "nvm3"])
@pytest.mark.parametrize("allow_recompute", [True, False])
@pytest.mark.parametrize("cdag", INSTANCES, ids=lambda c: c.name)
def test_same_optimum_and_witness(cdag, allow_recompute, cost):
    """From one below the feasibility edge (fan-in + 1) upward."""
    edge = cdag.max_fan_in() + 1
    for M in range(max(1, edge - 1), edge + 3):
        _assert_same(cdag, M, allow_recompute, cost)


#: Larger instances, at the M their callers use.  The tuple search needs
#: ~1 s per cost for the binary tree without recomputation and ~10 s for
#: each of the gadget's other three combinations; the fuse test below runs
#: both of them in both modes.
LARGER = [
    pytest.param(
        _strassen_slice(), 4, allow_recompute, cost,
        id=f"strassen-slice-{allow_recompute}-{cid}",
    )
    for allow_recompute in (True, False)
    for cid, cost in zip(["unit", "nvm3"], COSTS)
] + [
    pytest.param(binary_tree_cdag(3), 3, True, cost, id=f"bintree3-True-{cid}")
    for cid, cost in zip(["unit", "nvm3"], COSTS)
] + [
    pytest.param(
        recompute_wins_cdag(2, 2), 3, True, COSTS[1], id="gadget2x2-True-nvm3"
    ),
]


@pytest.mark.parametrize("cdag, M, allow_recompute, cost", LARGER)
def test_same_optimum_and_witness_on_larger_instances(
    cdag, M, allow_recompute, cost
):
    _assert_same(cdag, M, allow_recompute, cost)


@pytest.mark.parametrize("allow_recompute", [True, False])
@pytest.mark.parametrize(
    "cdag, M",
    [(recompute_wins_cdag(2, 2), 3), (binary_tree_cdag(3), 3), (_path(3), 1)],
    ids=["gadget2x2", "bintree3", "path3-infeasible"],
)
def test_same_failure_at_every_small_fuse(cdag, M, allow_recompute):
    for max_states in range(1, 51):
        _assert_same(cdag, M, allow_recompute, PebbleCost(), max_states)
