"""Unit tests for the out-of-core recursive bilinear execution."""

import numpy as np
import pytest

from repro.bounds.formulas import fast_sequential
from repro.execution.recursive_bilinear import execute_recursive_bilinear, stream_linear_combination
from repro.machine.sequential import SequentialMachine


class TestStreaming:
    def test_combination_value(self):
        m = SequentialMachine(M=16)
        m.place_input("src", np.arange(16.0).reshape(4, 4))
        m.alloc_slow("dst", (2, 2))
        stream_linear_combination(
            m,
            [("src", 0, 0, 1.0), ("src", 2, 2, -1.0)],
            ("dst", 0, 0),
            2,
        )
        expected = np.arange(16.0).reshape(4, 4)[:2, :2] - np.arange(16.0).reshape(4, 4)[2:, 2:]
        assert np.array_equal(m.slow["dst"], expected)

    def test_io_accounting(self):
        m = SequentialMachine(M=16)
        m.place_input("src", np.zeros((4, 4)))
        m.alloc_slow("dst", (2, 2))
        stream_linear_combination(m, [("src", 0, 0, 2.0)], ("dst", 0, 0), 2)
        assert m.words_read == 4
        assert m.words_written == 4

    def test_tiny_memory_chunks_within_rows(self):
        m = SequentialMachine(M=6)
        m.place_input("src", np.arange(64.0).reshape(8, 8))
        m.alloc_slow("dst", (8, 8))
        stream_linear_combination(m, [("src", 0, 0, 1.0)], ("dst", 0, 0), 8)
        assert np.array_equal(m.slow["dst"], m.slow["src"])
        assert m.peak_fast_words <= 6

    def test_empty_sources_rejected(self):
        m = SequentialMachine(M=8)
        with pytest.raises(ValueError):
            stream_linear_combination(m, [], ("x", 0, 0), 2)

    def test_impossible_memory_raises(self):
        # M=1: the two-buffer stream footprint leaves no room for a chunk
        m = SequentialMachine(M=1)
        m.place_input("src", np.zeros((4, 4)))
        m.alloc_slow("dst", (4, 4))
        with pytest.raises(MemoryError):
            stream_linear_combination(
                m, [("src", 0, 0, 1.0)] * 4, ("dst", 0, 0), 4
            )


class TestRecursiveExecution:
    @pytest.mark.parametrize("n,M", [(8, 192), (16, 48), (32, 48), (32, 192)])
    def test_strassen_correct(self, strassen_alg, rng, n, M):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        m = SequentialMachine(M)
        C = execute_recursive_bilinear(m, strassen_alg, A, B)
        assert np.allclose(C, A @ B)
        assert m.peak_fast_words <= M

    def test_winograd_and_classical2(self, winograd_alg, classical_alg, rng):
        A = rng.standard_normal((16, 16))
        B = rng.standard_normal((16, 16))
        for alg in (winograd_alg, classical_alg):
            m = SequentialMachine(100)
            assert np.allclose(execute_recursive_bilinear(m, alg, A, B), A @ B)

    def test_in_cache_case_minimal_io(self, strassen_alg, rng):
        """3n² ≤ M: loads 2n², stores n² — nothing else."""
        n = 8
        m = SequentialMachine(3 * n * n)
        execute_recursive_bilinear(m, strassen_alg, rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        assert m.words_read == 2 * n * n
        assert m.words_written == n * n

    def test_io_exponent_near_log2_7(self, strassen_alg, rng):
        """log-log slope of I/O vs n ≈ ω₀ once n ≫ √M."""
        from repro.bounds.validation import fit_exponent

        M = 48
        sizes = [32, 64, 128]
        ios = []
        for n in sizes:
            m = SequentialMachine(M)
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, n))
            execute_recursive_bilinear(m, strassen_alg, A, B)
            ios.append(m.io_operations)
        slope = fit_exponent(sizes, ios)
        assert abs(slope - np.log2(7)) < 0.12

    def test_never_below_lower_bound(self, strassen_alg, rng):
        n, M = 64, 48
        m = SequentialMachine(M)
        execute_recursive_bilinear(m, strassen_alg, rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        assert m.io_operations >= fast_sequential(n, M)

    def test_classical2_io_exceeds_strassen_at_scale(self, strassen_alg, classical_alg, rng):
        """⟨2,2,2;8⟩ recursion (t=8) must pay more I/O than t=7 — who wins."""
        n, M = 64, 48
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        m7 = SequentialMachine(M)
        execute_recursive_bilinear(m7, strassen_alg, A, B)
        m8 = SequentialMachine(M)
        execute_recursive_bilinear(m8, classical_alg, A, B)
        assert m8.io_operations > m7.io_operations

    def test_general_base_cases_track_omega0(self, strassen_alg, classical_alg, rng):
        """Table I row 4 with d = 4 base cases built by tensor products:
        ⟨4,4,4;49⟩ (ω₀ = log₂7) measures a smaller exponent than
        ⟨4,4,4;56⟩ (ω₀ ≈ 2.90), and both multiply exactly."""
        from repro.algorithms.tensor import tensor_power, tensor_product
        from repro.bounds.validation import fit_exponent

        sizes, M = (16, 64), 96
        fitted = []
        for alg in (tensor_power(strassen_alg, 2), tensor_product(strassen_alg, classical_alg)):
            ios = []
            for n in sizes:
                A = rng.standard_normal((n, n))
                B = rng.standard_normal((n, n))
                m = SequentialMachine(M)
                assert np.allclose(execute_recursive_bilinear(m, alg, A, B), A @ B)
                ios.append(m.io_operations)
            fitted.append(fit_exponent(sizes, ios))
        assert fitted[0] < fitted[1]

    def test_base_size_cap_forces_deeper_recursion(self, strassen_alg, rng):
        n, M = 16, 10_000
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        m_shallow = SequentialMachine(M)
        execute_recursive_bilinear(m_shallow, strassen_alg, A, B)
        m_deep = SequentialMachine(M)
        execute_recursive_bilinear(m_deep, strassen_alg, A, B, base_size=4)
        assert m_deep.io_operations > m_shallow.io_operations

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_level_replay_cross_check(self, strassen_alg, winograd_alg, rng, n):
        """Replay counters must match the full execution exactly; the
        built-in cross-check (shadow full machine) raises on any drift."""
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        for alg in (strassen_alg, winograd_alg):
            m = SequentialMachine(48)
            out = execute_recursive_bilinear(
                m, alg, A, B, level_replay=True, cross_check=True
            )
            assert out is None  # replay skips the numeric product
            assert m.peak_fast_words <= 48

    def test_level_replay_much_cheaper(self, strassen_alg, rng):
        """Replay executes O(levels·t) streams, not t^levels recursions."""
        import time

        n = 64
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        t0 = time.perf_counter()
        execute_recursive_bilinear(SequentialMachine(48), strassen_alg, A, B)
        full = time.perf_counter() - t0
        t0 = time.perf_counter()
        execute_recursive_bilinear(
            SequentialMachine(48), strassen_alg, A, B, level_replay=True
        )
        rep = time.perf_counter() - t0
        assert rep < full

    def test_rectangular_classical_correct(self, rng):
        """Rectangular ⟨2,3,4⟩ recursion: (4×9)·(9×16) over two levels."""
        from repro.algorithms.classical import classical

        alg = classical(2, 3, 4)
        A = rng.standard_normal((4, 9))
        B = rng.standard_normal((9, 16))
        m = SequentialMachine(40)
        C = execute_recursive_bilinear(m, alg, A, B)
        assert np.allclose(C, A @ B)
        assert m.peak_fast_words <= 40

    def test_rectangular_nonconforming_rejected_before_side_effects(self, rng):
        from repro.algorithms.classical import classical

        m = SequentialMachine(10)
        # inner dimensions disagree → rejected before any machine op
        with pytest.raises(ValueError):
            execute_recursive_bilinear(
                m, classical(2, 3, 4),
                rng.standard_normal((4, 9)), rng.standard_normal((4, 16)),
            )
        assert m.words_read == 0 and m.words_written == 0
        assert not m.slow

    def test_mismatched_shapes_rejected(self, strassen_alg, rng):
        m = SequentialMachine(100)
        with pytest.raises(ValueError):
            execute_recursive_bilinear(m, strassen_alg, rng.standard_normal((4, 4)), rng.standard_normal((8, 8)))
