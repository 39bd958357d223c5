"""Unit tests for the distributed pebble game (parallel model as a game)."""

import pytest

from repro.cdag.families import binary_tree_cdag, diamond_chain_cdag
from repro.cdag.recursive import build_recursive_cdag
from repro.graphs.topo import dfs_postorder
from repro.pebbling.parallel_game import (
    ParallelMoveKind,
    ParallelSchedule,
    ParallelScheduleError,
    block_parallel_schedule,
    parallel_segment_audit,
    peak_live_size,
    validate_parallel_schedule,
)


class TestValidation:
    def test_manual_schedule(self):
        c = binary_tree_cdag(2)  # inputs 0..3, internal 4,5, root 6
        s = ParallelSchedule(c, 2)
        # inputs round-robin: proc0 {0,2}, proc1 {1,3}
        s.send(1, 1, 0)
        s.compute(0, c.graph.successors(0)[0])  # needs 0,1 local at proc0
        s.send(1, 3, 0)
        s.send(0, 2, 1)  # irrelevant extra traffic
        s.compute(0, c.graph.successors(2)[0])
        root = c.outputs[0]
        s.compute(0, root)
        stats = validate_parallel_schedule(s, M=8)
        assert stats["max_io"] >= 2
        assert stats["recomputations"] == 0

    def test_compute_without_local_pred_rejected(self):
        c = binary_tree_cdag(2)
        s = ParallelSchedule(c, 2)
        s.compute(0, c.graph.successors(0)[0])  # pred 1 lives on proc1
        with pytest.raises(ParallelScheduleError, match="without"):
            validate_parallel_schedule(s, M=8)

    def test_send_unheld_rejected(self):
        c = binary_tree_cdag(2)
        s = ParallelSchedule(c, 2)
        s.send(0, 1, 1)  # input 1 belongs to proc1
        with pytest.raises(ParallelScheduleError, match="unheld"):
            validate_parallel_schedule(s, M=8)

    def test_overflow_rejected(self):
        c = binary_tree_cdag(3)
        s = ParallelSchedule(c, 2)
        with pytest.raises(ParallelScheduleError, match="input share"):
            validate_parallel_schedule(s, M=2)

    def test_missing_outputs_rejected(self):
        c = binary_tree_cdag(2)
        s = ParallelSchedule(c, 2)
        with pytest.raises(ParallelScheduleError, match="outputs"):
            validate_parallel_schedule(s, M=8)

    def test_recompute_flag(self):
        c = diamond_chain_cdag(2)
        s = block_parallel_schedule(c, 2, 16)
        stats = validate_parallel_schedule(s, 16, allow_recompute=False)
        assert stats["recomputations"] == 0


class TestBlockScheduler:
    @pytest.mark.parametrize("P", [1, 2, 4])
    def test_valid_on_trees(self, P):
        c = binary_tree_cdag(4)
        s = block_parallel_schedule(c, P, 32)
        validate_parallel_schedule(s, 32, allow_recompute=False)

    def test_p1_no_communication(self):
        c = binary_tree_cdag(3)
        s = block_parallel_schedule(c, 1, 32)
        stats = validate_parallel_schedule(s, 32)
        assert stats["total_io"] == 0

    def test_communication_grows_with_p(self):
        c = binary_tree_cdag(4)
        io = []
        for P in (1, 2, 4):
            s = block_parallel_schedule(c, P, 48)
            io.append(validate_parallel_schedule(s, 48)["total_io"])
        assert io[0] <= io[1] <= io[2]

    def test_spill_keeps_live_values(self, strassen_alg):
        """Tight memory forces spills; validity proves no live value died."""
        H = build_recursive_cdag(strassen_alg, 4, style="tree")
        peak = peak_live_size(H.cdag)
        P = 4
        M = -(-peak // P) + 8
        s = block_parallel_schedule(H.cdag, P, M)
        validate_parallel_schedule(s, M, allow_recompute=False)

    def test_m_too_small_rejected(self):
        c = binary_tree_cdag(3)
        with pytest.raises(ValueError):
            block_parallel_schedule(c, 2, 2)


class TestPeakLive:
    def test_dfs_leq_kahn(self, strassen_alg):
        H = build_recursive_cdag(strassen_alg, 8, style="tree")
        kahn = peak_live_size(H.cdag)
        dfs = peak_live_size(H.cdag, dfs_postorder(H.cdag.graph))
        assert dfs <= kahn

    def test_chain_peak_small(self):
        c = diamond_chain_cdag(8)
        assert peak_live_size(c) <= 5


class TestParallelAudit:
    def test_audit_mechanics(self, strassen_alg):
        H = build_recursive_cdag(strassen_alg, 8, style="tree")
        peak = peak_live_size(H.cdag)
        P = 7
        M = -(-peak // P) + 8
        sched = block_parallel_schedule(H.cdag, P, M)
        assert validate_parallel_schedule(sched, M)["total_io"] > 0
        pigeon, rep = parallel_segment_audit(H, sched, M=M)
        assert 0 <= pigeon < P
        # at this large M the sound floor is 0: vacuous but consistent
        assert rep.per_segment_bound == max(0, rep.outputs_per_segment // 2 - M)
        assert rep.holds

    def test_invalid_r_rejected(self, strassen_alg):
        H = build_recursive_cdag(strassen_alg, 4, style="tree")
        sched = ParallelSchedule(H.cdag, 2)
        with pytest.raises(ValueError):
            parallel_segment_audit(H, sched, M=4, r=3)
