"""Unit tests for the tiled classical execution and the naive LRU trace."""

import numpy as np
import pytest

from repro.bounds.formulas import classical_sequential
from repro.execution.classical_tiled import execute_lru_trace, execute_tiled
from repro.execution.hybrid import largest_leaf_tile
from repro.machine.sequential import SequentialMachine


class TestLargestTile:
    @pytest.mark.parametrize(
        # 4b² ≤ M (A, B, C + charged product scratch), not the old 3b²
        "n,M,expected",
        [(16, 192, 4), (16, 48, 2), (16, 3, 1), (12, 108, 4), (16, 256, 8)],
    )
    def test_values(self, n, M, expected):
        assert largest_leaf_tile((n, n, n), M) == expected


class TestTiledMatmul:
    @pytest.mark.parametrize("n,M", [(8, 48), (16, 48), (16, 192), (32, 108)])
    def test_correct_product(self, rng, n, M):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        m = SequentialMachine(M)
        assert np.allclose(execute_tiled(m, A, B), A @ B)

    def test_io_formula(self, rng):
        """I/O = 2(n/b)³b² + 2(n/b)²·b²·… exactly (deterministic count)."""
        n, M = 16, 48  # b = 2 under the honest 4b² ≤ M footprint
        m = SequentialMachine(M)
        execute_tiled(m, rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        q, b = n // 2, 2
        assert m.words_read == 2 * q ** 3 * b * b
        assert m.words_written == q * q * b * b  # one store per C tile

    def test_replay_counters_match_full(self, rng):
        """Replay mode charges the untouched C-tile passes exactly."""
        n, M = 16, 48
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        full = SequentialMachine(M)
        execute_tiled(full, A, B)
        rep = SequentialMachine(M)
        assert execute_tiled(rep, A, B, replay=True) is None
        assert rep.words_read == full.words_read
        assert rep.words_written == full.words_written
        assert rep.peak_fast_words == full.peak_fast_words

    def test_io_shrinks_with_memory(self, rng):
        A = rng.standard_normal((16, 16))
        B = rng.standard_normal((16, 16))
        ios = []
        for M in (12, 48, 192, 768):
            m = SequentialMachine(M)
            execute_tiled(m, A, B)
            ios.append(m.io_operations)
        assert ios == sorted(ios, reverse=True)

    def test_respects_classical_lower_bound(self, rng):
        n, M = 32, 48
        m = SequentialMachine(M)
        execute_tiled(m, rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        assert m.io_operations >= classical_sequential(n, M) / 4

    def test_capacity_never_violated(self, rng):
        m = SequentialMachine(48)
        execute_tiled(m, rng.standard_normal((16, 16)), rng.standard_normal((16, 16)))
        assert m.peak_fast_words <= 48

    def test_bad_tile_rejected(self, rng):
        m = SequentialMachine(48)
        A = rng.standard_normal((16, 16))
        with pytest.raises(ValueError):
            execute_tiled(m, A, A, tile=5)  # doesn't divide 16
        with pytest.raises(ValueError):
            execute_tiled(m, A, A, tile=8)  # 4·64 > 48

    def test_non_square_rejected(self, rng):
        m = SequentialMachine(48)
        with pytest.raises(ValueError):
            execute_tiled(m, rng.standard_normal((4, 8)), rng.standard_normal((8, 4)))


class TestNaiveLRUTrace:
    def test_small_cache_thrashes(self):
        """Naive order at tiny M pays Θ(n³): ~1 miss per inner iteration."""
        n, M = 16, 8
        st = execute_lru_trace(n, M)
        assert st["misses"] >= n ** 3 / 2

    def test_huge_cache_compulsory_only(self):
        n = 8
        st = execute_lru_trace(n, 10_000)
        assert st["misses"] == 3 * n * n  # compulsory misses only

    def test_naive_worse_than_tiled_shape(self, rng):
        """The naive trace pays ~n³ I/O where tiling pays ~n³/√M."""
        n, M = 16, 64
        naive = execute_lru_trace(n, M)["io"]
        m = SequentialMachine(M)
        execute_tiled(m, rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        assert naive > m.io_operations

    def test_writeback_accounting(self):
        st = execute_lru_trace(4, 8)
        assert st["writebacks"] >= 16  # every C word written back at least once

    def test_row_replay_and_kernels_identical(self):
        """Every fast path (vector kernel, row periodicity replay) returns
        stats identical to the plain scalar row-by-row simulation."""
        for n, M in [(8, 16), (12, 48), (16, 64)]:
            ref = execute_lru_trace(n, M, kernel="scalar", row_replay=False)
            for kernel in ("scalar", "vector", "auto"):
                for rr in (False, True):
                    got = execute_lru_trace(n, M, kernel=kernel, row_replay=rr)
                    assert got == ref, (n, M, kernel, rr)
