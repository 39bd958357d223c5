"""validate_schedule against the replay loop it replaced.

``_set_replay`` is the earlier body of
:func:`repro.pebbling.game.validate_schedule` up to its stats dict: it looks
predecessors and input-ness up on the CDAG per move and checks the
fast-memory bound after every move.  On the Theorem 1.1 adversary's
schedule and on single-move mutants of it, both must return the same
stats or raise the same :class:`ScheduleError` message.
"""

import random

import pytest

from repro.algorithms import strassen
from repro.cdag import build_recursive_cdag
from repro.pebbling.game import (
    Move,
    MoveKind,
    PebbleCost,
    Schedule,
    ScheduleError,
    validate_schedule,
)
from repro.pebbling.heuristics import dfs_recompute_schedule

M = 16


def _set_replay(schedule, M, allow_recompute=True, cost=PebbleCost()):
    g = schedule.cdag.graph
    red = set()
    blue = set(schedule.cdag.inputs)
    computed_times = {}
    loads = stores = 0
    peak_red = 0
    for idx, m in enumerate(schedule.moves):
        v = m.v
        if not (0 <= v < g.num_vertices):
            raise ScheduleError(f"move {idx}: vertex {v} does not exist")
        if m.kind is MoveKind.LOAD:
            if v not in blue:
                raise ScheduleError(f"move {idx}: load of {v} without a blue pebble")
            if v in red:
                raise ScheduleError(f"move {idx}: redundant load of red vertex {v}")
            red.add(v)
            loads += 1
        elif m.kind is MoveKind.STORE:
            if v not in red:
                raise ScheduleError(f"move {idx}: store of {v} without a red pebble")
            blue.add(v)
            stores += 1
        elif m.kind is MoveKind.COMPUTE:
            if schedule.cdag.is_input(v):
                raise ScheduleError(f"move {idx}: compute of input vertex {v}")
            missing = [u for u in g.predecessors(v) if u not in red]
            if missing:
                raise ScheduleError(
                    f"move {idx}: compute of {v} with non-red predecessors {missing}"
                )
            if v in computed_times and not allow_recompute:
                raise ScheduleError(
                    f"move {idx}: recomputation of {v} is forbidden in this run"
                )
            computed_times[v] = computed_times.get(v, 0) + 1
            red.add(v)
        elif m.kind is MoveKind.EVICT:
            if v not in red:
                raise ScheduleError(f"move {idx}: evict of non-red vertex {v}")
            red.discard(v)
        if len(red) > M:
            raise ScheduleError(
                f"move {idx}: fast memory overflow ({len(red)} > M={M})"
            )
        peak_red = max(peak_red, len(red))
    missing_outputs = [v for v in schedule.cdag.outputs if v not in blue]
    if missing_outputs:
        raise ScheduleError(f"outputs without blue pebbles at end: {missing_outputs}")
    return {
        "loads": loads,
        "stores": stores,
        "io": cost.io(loads, stores),
        "peak_red": peak_red,
        "recomputations": sum(t - 1 for t in computed_times.values()),
        "moves": len(schedule.moves),
    }


def _outcome(replay, *args):
    try:
        return replay(*args)
    except ScheduleError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def adversary():
    """The Theorem 1.1 adversary's schedule on H^{8×8} at M = 16."""
    H = build_recursive_cdag(strassen(), 8, style="tree")
    return dfs_recompute_schedule(H.cdag, M)


def _mutants(schedule, count=4, seed=0):
    """Drop, duplicate, or re-kind one move at ``count`` seeded positions."""
    moves = schedule.moves
    rng = random.Random(seed)
    for i in sorted(rng.sample(range(len(moves)), count)):
        yield f"drop@{i}", moves[:i] + moves[i + 1:]
        yield f"dup@{i}", moves[: i + 1] + moves[i:]
        for kind in MoveKind:
            if kind is not moves[i].kind:
                swapped = Move(kind, moves[i].v)
                yield f"{kind.value}@{i}", moves[:i] + [swapped] + moves[i + 1:]


@pytest.mark.parametrize("allow_recompute", [True, False])
@pytest.mark.parametrize("capacity", [M, M - 1])
def test_same_stats_or_error_on_the_adversary(adversary, capacity, allow_recompute):
    cost = PebbleCost(1.0, 3.0)
    args = (adversary, capacity, allow_recompute, cost)
    want = _outcome(_set_replay, *args)
    assert _outcome(validate_schedule, *args) == want
    if capacity == M and allow_recompute:
        assert want["recomputations"] > 10_000


def test_same_stats_or_error_on_single_move_mutants(adversary):
    outcomes = set()
    for name, moves in _mutants(adversary):
        mutant = Schedule(adversary.cdag, moves)
        want = _outcome(_set_replay, mutant, M)
        assert _outcome(validate_schedule, mutant, M) == want, name
        outcomes.add(want if isinstance(want, str) else "ok")
    assert len(outcomes) >= 5  # the mutants reach several distinct checks


def test_out_of_range_and_tail_errors_match(adversary):
    cdag = adversary.cdag
    for moves in (
        [Move(MoveKind.LOAD, cdag.num_vertices)],
        [Move(MoveKind.LOAD, -1)],
        adversary.moves[:-1000],
        [],
    ):
        mutant = Schedule(cdag, moves)
        assert _outcome(validate_schedule, mutant, M) == _outcome(
            _set_replay, mutant, M
        )
