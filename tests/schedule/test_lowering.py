"""The lowering contract: reference interpretation == physical machine runs.

``seq_io`` lowerings are recorded from the machine executors themselves,
and the other kinds are built from the same simulations their executors
use, so interpreting the lowered IR must produce *word-identical*
(reads, writes, peak_fast) to executing the real algorithm on a
SequentialMachine — for every variant, replay mode, and workload kind.
"""

import numpy as np
import pytest

from repro import schedule
from repro.execution import (
    execute_abmm,
    execute_lru_trace,
    execute_parallel_bfs,
    execute_recursive_bilinear,
    execute_tiled,
)
from repro.machine.sequential import SequentialMachine


def _physical_seq(run):
    m = SequentialMachine(run["M"])
    run["fn"](m)
    return {
        "reads": m.words_read,
        "writes": m.words_written,
        "io": m.words_read + m.words_written,
        "peak_fast": m.peak_fast_words,
    }


class TestSequentialLowerings:
    @pytest.mark.parametrize("n,M", [(16, 128), (32, 256)])
    @pytest.mark.parametrize("replay", [True, False])
    def test_recursive_matches_machine(self, strassen_alg, rng, n, M, replay):
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        phys = _physical_seq(
            {
                "M": M,
                "fn": lambda m: execute_recursive_bilinear(
                    m, strassen_alg, A, B, level_replay=replay
                ),
            }
        )
        spec = schedule.seq_io_schedule(strassen_alg, n, M, replay=replay)
        rep = schedule.run(spec, backend="reference")
        assert rep.counter_view() == phys

    @pytest.mark.parametrize("n,M", [(16, 64), (32, 300)])
    def test_tiled_matches_machine(self, rng, n, M):
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        phys = _physical_seq({"M": M, "fn": lambda m: execute_tiled(m, A, B)})
        rep = schedule.run(schedule.seq_io_schedule(None, n, M), backend="reference")
        assert rep.counter_view() == phys

    @pytest.mark.parametrize("n,M", [(16, 128), (32, 256)])
    def test_abmm_matches_machine_including_phases(self, ks_alg, rng, n, M):
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        m = SequentialMachine(M)
        _, phases = execute_abmm(m, ks_alg, A, B)
        spec = schedule.seq_io_schedule("karstadt_schwartz", n, M)
        rep = schedule.run(spec, backend="reference")
        assert rep.reads == m.words_read
        assert rep.writes == m.words_written
        assert rep.peak_fast == m.peak_fast_words
        for key in ("io_transform_forward", "io_bilinear", "io_total",
                    "transform_fraction"):
            assert rep.metrics[key] == phases[key], key

    def test_classical_string_means_recursive_base_case(self, rng):
        """"classical" resolves like the engine: recursive DFS of the 2×2
        base case, NOT the tiled execution (alg=None)."""
        from repro.engine.runners import resolve_algorithm

        n, M = 16, 128
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        phys = _physical_seq(
            {
                "M": M,
                "fn": lambda m: execute_recursive_bilinear(
                    m, resolve_algorithm("classical"), A, B, level_replay=True
                ),
            }
        )
        rep = schedule.run(schedule.seq_io_schedule("classical", n, M),
                           backend="reference")
        assert rep.counter_view() == phys


class TestLruLowering:
    @pytest.mark.parametrize("n,M", [(8, 16), (16, 32)])
    def test_trace_matches_executor(self, n, M):
        st = execute_lru_trace(n, M)
        rep = schedule.run(schedule.lru_trace_schedule(n, M), backend="reference")
        for key in ("hits", "misses", "writebacks", "io"):
            assert rep.metrics[key] == st[key], key


class TestPebbleLowering:
    def test_moves_match_validator(self, strassen_alg):
        from repro.cdag import base_case_cdag
        from repro.pebbling import topological_schedule, validate_schedule

        cdag = base_case_cdag(strassen_alg)
        M = 12
        sched = topological_schedule(cdag, M)
        stats = validate_schedule(sched, M)
        rep = schedule.run(schedule.pebble_schedule(sched, M), backend="reference")
        for key in ("loads", "stores", "io", "peak_red", "recomputations"):
            assert rep.metrics[key] == stats[key], key


class TestParallelCommLowering:
    def test_comm_matches_bfs_execution(self, strassen_alg, rng):
        n, P = 16, 7
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        _, stats = execute_parallel_bfs(strassen_alg, A, B, P=P)
        rep = schedule.run(schedule.parallel_comm_schedule(strassen_alg, n, P),
                           backend="reference")
        assert rep.metrics["comm_per_proc_max"] == stats.comm_per_proc_max
        assert rep.metrics["total_comm_words"] == int(stats.sent.sum())
        assert rep.metrics["levels"] == stats.levels


class TestLoweredShape:
    def test_replay_lowering_avoids_the_full_tree(self, strassen_alg):
        """replay=True lowers one subtree per level plus REPLAY records:
        ops grow ~×4 per doubling (leaf streaming), not ×7 (tree fan-out)."""
        r32 = len(schedule.seq_io_schedule(strassen_alg, 32, 256).lower())
        r64 = len(schedule.seq_io_schedule(strassen_alg, 64, 256).lower())
        f32 = len(schedule.seq_io_schedule(strassen_alg, 32, 256, replay=False).lower())
        f64 = len(schedule.seq_io_schedule(strassen_alg, 64, 256, replay=False).lower())
        assert r32 < f32 and r64 < f64
        assert r64 / r32 < 5 < f64 / f32

    def test_lowerings_validate(self, strassen_alg):
        for spec in (
            schedule.seq_io_schedule(strassen_alg, 16, 128),
            schedule.seq_io_schedule(None, 16, 64),
            schedule.seq_io_schedule("karstadt_schwartz", 16, 128),
            schedule.lru_trace_schedule(8, 16),
            schedule.parallel_comm_schedule(strassen_alg, 16, 7),
        ):
            spec.lower().validate()
