"""Unit tests for the heuristic schedulers."""

import pytest

from repro.cdag.core import CDAG
from repro.cdag.families import (
    binary_tree_cdag,
    diamond_chain_cdag,
    grid_cdag,
    recompute_wins_cdag,
)
from repro.bounds.formulas import fft_bound_memory
from repro.cdag.fft import fft_cdag
from repro.pebbling.game import ScheduleError, validate_schedule
from repro.pebbling.heuristics import dfs_recompute_schedule, topological_schedule


class TestTopologicalSchedule:
    @pytest.mark.parametrize("M", [3, 5, 16])
    def test_valid_on_trees(self, M):
        c = binary_tree_cdag(4)
        s = topological_schedule(c, M)
        stats = validate_schedule(s, M, allow_recompute=False)
        assert stats["recomputations"] == 0

    @pytest.mark.parametrize("eviction", ["belady", "lru"])
    def test_policies_valid(self, eviction):
        c = fft_cdag(16)
        s = topological_schedule(c, 8, eviction=eviction)
        validate_schedule(s, 8, allow_recompute=False)

    def test_belady_not_worse_than_lru_on_fft(self):
        c = fft_cdag(16)
        io_b = validate_schedule(topological_schedule(c, 6, eviction="belady"), 6)["io"]
        io_l = validate_schedule(topological_schedule(c, 6, eviction="lru"), 6)["io"]
        assert io_b <= io_l

    def test_big_cache_minimal_io(self):
        """With M ≥ |V| the schedule loads inputs once and stores outputs once."""
        c = binary_tree_cdag(3)
        s = topological_schedule(c, 100)
        stats = validate_schedule(s, 100)
        assert stats["loads"] == len(c.inputs)
        assert stats["stores"] == len(c.outputs)

    def test_m_too_small_rejected(self):
        c = binary_tree_cdag(3)
        with pytest.raises(ValueError, match="fan-in"):
            topological_schedule(c, 2)

    def test_unknown_eviction_rejected(self):
        with pytest.raises(ValueError):
            topological_schedule(binary_tree_cdag(2), 4, eviction="rand")

    def test_io_decreases_with_memory(self):
        for c, Ms in ((grid_cdag(6, 6), (3, 6, 12, 40)), (fft_cdag(64), (4, 8, 16, 32))):
            ios = [validate_schedule(topological_schedule(c, M), M)["io"] for M in Ms]
            assert ios == sorted(ios, reverse=True), c.name

    def test_fft_io_tracks_its_floor(self):
        """Table I's FFT row: write-back I/O at M = 8 stays within a
        constant band of Ω(n·log n / log M) across n."""
        ratios = []
        for n in (16, 32, 64):
            io = validate_schedule(topological_schedule(fft_cdag(n), 8), 8)["io"]
            assert io >= fft_bound_memory(n, 8) / 4
            ratios.append(io / fft_bound_memory(n, 8))
        assert max(ratios) / min(ratios) < 3

    def test_small_cache_forces_spills(self):
        c = fft_cdag(16)
        stats = validate_schedule(topological_schedule(c, 4), 4)
        assert stats["stores"] > len(c.outputs)  # some write-backs happened

    @pytest.mark.parametrize(
        "cdag",
        [
            binary_tree_cdag(4),
            diamond_chain_cdag(4),
            grid_cdag(4, 4),
            fft_cdag(8),
            recompute_wins_cdag(2, 2),
        ],
        ids=["bintree", "diamond", "grid", "fft", "gadget"],
    )
    def test_capacity_boundary_m_equals_fan_in_plus_one(self, cdag):
        """Regression for the capacity boundary: at the minimum legal
        M = max_fan_in + 1 the compute front pins every slot, and the
        scheduler used to die in `make_room` with a bare `max() arg is an
        empty sequence`.  It must produce a valid schedule instead."""
        M = cdag.max_fan_in() + 1
        stats = validate_schedule(topological_schedule(cdag, M), M)
        assert stats["io"] > 0

    def test_exhausted_memory_is_a_schedule_error_with_context(self):
        """White-box: a CDAG that under-reports its fan-in sneaks past the
        entry guard, so `make_room` itself must raise the diagnosable
        ScheduleError naming M, the fan-in, and the pinned front."""

        class UnderReportingCDAG(CDAG):
            def max_fan_in(self):
                return 1

        inner = binary_tree_cdag(3)
        lying = UnderReportingCDAG(
            inner.graph, inner.inputs, inner.outputs, name="lying"
        )
        with pytest.raises(ScheduleError, match="pinned front"):
            topological_schedule(lying, 2)
        with pytest.raises(ScheduleError, match="M=2"):
            topological_schedule(lying, 2)


class TestDFSRecompute:
    def test_valid_with_recomputation(self):
        c = binary_tree_cdag(4)
        s = dfs_recompute_schedule(c, 8)
        stats = validate_schedule(s, 8, allow_recompute=True)
        assert stats["recomputations"] == 0  # tree: each vertex used once

    def test_recomputes_on_shared_structure(self):
        c = diamond_chain_cdag(6)
        s = dfs_recompute_schedule(c, 4)
        stats = validate_schedule(s, 4, allow_recompute=True)
        assert stats["recomputations"] == 0  # one output → one DFS

    def test_recomputes_across_outputs(self):
        """Shared butterflies are recomputed, and the recomputing schedule
        still pays at least the FFT floor Ω(n·log n / log M)."""
        for n, M in ((8, 6), (32, 8)):
            s = dfs_recompute_schedule(fft_cdag(n), M)
            stats = validate_schedule(s, M, allow_recompute=True)
            assert stats["recomputations"] > 0
            assert stats["io"] >= fft_bound_memory(n, M)

    def test_never_stores_internals(self):
        c = fft_cdag(8)
        s = dfs_recompute_schedule(c, 6)
        from repro.pebbling.game import MoveKind

        stored = {m.v for m in s.moves if m.kind is MoveKind.STORE}
        assert stored <= set(c.outputs)

    def test_capacity_too_small_raises(self):
        c = fft_cdag(16)  # DFS front needs ~2·depth pebbles
        with pytest.raises(ValueError, match="too small"):
            dfs_recompute_schedule(c, 2)

    def test_deterministic_across_runs(self):
        """Regression: the eviction victim used to come out of a set, so
        two runs on the same CDAG could emit different (both valid)
        schedules — and different cache keys downstream.  Two runs must
        now produce move-for-move identical schedules."""
        for c, M in ((fft_cdag(8), 6), (diamond_chain_cdag(6), 4)):
            s1 = dfs_recompute_schedule(c, M)
            s2 = dfs_recompute_schedule(c, M)
            assert s1.moves == s2.moves

    def test_targets_subset(self):
        c = fft_cdag(8)
        s = dfs_recompute_schedule(c, 6, targets=c.outputs[:2])
        from repro.pebbling.game import MoveKind

        computed = {m.v for m in s.moves if m.kind is MoveKind.COMPUTE}
        assert set(c.outputs[:2]) <= computed
