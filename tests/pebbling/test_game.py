"""Unit tests for red-blue pebble game semantics."""

import pytest

from repro.cdag.core import CDAG
from repro.graphs.digraph import DiGraph
from repro.pebbling.game import (
    Move,
    MoveKind,
    PebbleCost,
    Schedule,
    validate_schedule,
    schedule_io,
)
from repro.pebbling.game import ScheduleError


def path3() -> CDAG:
    """x → u → y"""
    g = DiGraph()
    g.add_vertices(3)
    g.add_edges([(0, 1), (1, 2)])
    return CDAG(g, [0], [2], name="path3")


def valid_schedule(c: CDAG) -> Schedule:
    s = Schedule(c)
    s.append(MoveKind.LOAD, 0)
    s.append(MoveKind.COMPUTE, 1)
    s.append(MoveKind.COMPUTE, 2)
    s.append(MoveKind.STORE, 2)
    return s


class TestValidation:
    def test_valid_schedule_passes(self):
        stats = validate_schedule(valid_schedule(path3()), M=3)
        assert stats["loads"] == 1
        assert stats["stores"] == 1
        assert stats["io"] == 2.0
        assert stats["recomputations"] == 0

    def test_load_without_blue_rejected(self):
        c = path3()
        s = Schedule(c)
        s.append(MoveKind.LOAD, 1)  # internal, never stored
        with pytest.raises(ScheduleError, match="without a blue"):
            validate_schedule(s, M=3)

    def test_compute_missing_pred_rejected(self):
        c = path3()
        s = Schedule(c)
        s.append(MoveKind.COMPUTE, 1)
        with pytest.raises(ScheduleError, match="non-red predecessors"):
            validate_schedule(s, M=3)

    def test_compute_input_rejected(self):
        c = path3()
        s = Schedule(c)
        s.append(MoveKind.COMPUTE, 0)
        with pytest.raises(ScheduleError, match="input"):
            validate_schedule(s, M=3)

    def test_capacity_overflow_rejected(self):
        c = path3()
        s = valid_schedule(c)
        with pytest.raises(ScheduleError, match="overflow"):
            validate_schedule(s, M=1)

    def test_missing_output_rejected(self):
        c = path3()
        s = Schedule(c)
        s.append(MoveKind.LOAD, 0)
        s.append(MoveKind.COMPUTE, 1)
        s.append(MoveKind.COMPUTE, 2)
        with pytest.raises(ScheduleError, match="outputs without blue"):
            validate_schedule(s, M=3)

    def test_store_requires_red(self):
        c = path3()
        s = Schedule(c)
        s.append(MoveKind.STORE, 1)
        with pytest.raises(ScheduleError, match="without a red"):
            validate_schedule(s, M=3)

    def test_evict_requires_red(self):
        c = path3()
        s = Schedule(c)
        s.append(MoveKind.EVICT, 0)
        with pytest.raises(ScheduleError, match="non-red"):
            validate_schedule(s, M=3)

    def test_redundant_load_rejected(self):
        c = path3()
        s = Schedule(c)
        s.append(MoveKind.LOAD, 0)
        s.append(MoveKind.LOAD, 0)
        with pytest.raises(ScheduleError, match="redundant"):
            validate_schedule(s, M=3)

    def test_unknown_vertex_rejected(self):
        c = path3()
        s = Schedule(c)
        s.append(MoveKind.LOAD, 99)
        with pytest.raises(ScheduleError, match="does not exist"):
            validate_schedule(s, M=3)


class TestRecomputation:
    def recompute_schedule(self) -> Schedule:
        c = path3()
        s = Schedule(c)
        s.append(MoveKind.LOAD, 0)
        s.append(MoveKind.COMPUTE, 1)
        s.append(MoveKind.EVICT, 1)
        s.append(MoveKind.COMPUTE, 1)  # recompute
        s.append(MoveKind.COMPUTE, 2)
        s.append(MoveKind.STORE, 2)
        return s

    def test_allowed_by_default(self):
        stats = validate_schedule(self.recompute_schedule(), M=3)
        assert stats["recomputations"] == 1

    def test_forbidden_mode_rejects(self):
        with pytest.raises(ScheduleError, match="recomputation"):
            validate_schedule(self.recompute_schedule(), M=3, allow_recompute=False)


class TestCostModel:
    def test_symmetric_default(self):
        assert PebbleCost().io(3, 2) == 5.0

    def test_zero_costs_are_legal(self):
        assert PebbleCost(0.0, 0.0).io(3, 2) == 0.0

    @pytest.mark.parametrize(
        "read_cost, write_cost",
        [(-1.0, 1.0), (1.0, -0.5), (float("nan"), 1.0), (1.0, float("inf"))],
    )
    def test_negative_or_non_finite_rejected(self, read_cost, write_cost):
        with pytest.raises(ValueError, match="finite and >= 0"):
            PebbleCost(read_cost, write_cost)

    def test_nvm_asymmetric(self):
        cost = PebbleCost(read_cost=1, write_cost=5)
        stats = validate_schedule(valid_schedule(path3()), M=3, cost=cost)
        assert stats["io"] == 6.0

    def test_schedule_io_shortcut(self):
        s = valid_schedule(path3())
        assert schedule_io(s) == 2.0

    def test_counts(self):
        s = valid_schedule(path3())
        assert s.counts() == {"load": 1, "store": 1, "compute": 2, "evict": 0}
        assert len(s) == 4

    def test_peak_red_tracked(self):
        stats = validate_schedule(valid_schedule(path3()), M=3)
        assert stats["peak_red"] == 3
