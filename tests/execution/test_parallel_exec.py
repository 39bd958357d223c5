"""Unit tests for the distributed executions (SUMMA and BFS-Strassen)."""

import numpy as np
import pytest

from repro.bounds.formulas import classical_memory_independent, fast_memory_independent
from repro.execution.parallel_classical import parallel_classical_summa
from repro.execution.parallel_strassen import execute_parallel_bfs
from repro.machine.parallel import BSPMachine


class TestSUMMA:
    @pytest.mark.parametrize("P,n", [(1, 4), (4, 8), (16, 16), (9, 12)])
    def test_correct(self, rng, P, n):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        m = BSPMachine(P)
        assert np.allclose(parallel_classical_summa(m, A, B), A @ B)

    def test_comm_volume_formula(self, rng):
        """Per-processor words = 2(q−1)(n/q)² exactly for interior ranks."""
        n, q = 16, 4
        m = BSPMachine(q * q)
        parallel_classical_summa(m, rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        b = n // q
        expected_recv = 2 * (q - 1) * b * b
        assert int(m.received.max()) == expected_recv

    def test_non_square_p_rejected(self, rng):
        m = BSPMachine(3)
        with pytest.raises(ValueError):
            parallel_classical_summa(m, np.ones((4, 4)), np.ones((4, 4)))

    def test_grid_must_divide_n(self, rng):
        m = BSPMachine(4)
        with pytest.raises(ValueError):
            parallel_classical_summa(m, np.ones((5, 5)), np.ones((5, 5)))

    def test_comm_shrinks_with_p_per_proc(self, rng):
        n = 24
        per_proc = []
        for P in (4, 16):  # q = 2, 4
            m = BSPMachine(P)
            parallel_classical_summa(m, rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            per_proc.append(m.max_io_per_processor)
            assert per_proc[-1] >= classical_memory_independent(n, P) / 8
        assert per_proc[1] < per_proc[0]


class TestBFSStrassen:
    @pytest.mark.parametrize("P,n", [(1, 8), (7, 8), (49, 16)])
    def test_correct(self, strassen_alg, rng, P, n):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C, stats = execute_parallel_bfs(strassen_alg, A, B, P=P)
        assert np.allclose(C, A @ B)
        assert stats.P == P

    def test_winograd_works_too(self, winograd_alg, rng):
        A = rng.standard_normal((8, 8))
        B = rng.standard_normal((8, 8))
        C, _ = execute_parallel_bfs(winograd_alg, A, B, P=7)
        assert np.allclose(C, A @ B)

    def test_p1_no_communication(self, strassen_alg, rng):
        _, stats = execute_parallel_bfs(strassen_alg, rng.standard_normal((8, 8)), rng.standard_normal((8, 8)), P=1)
        assert stats.comm_per_proc_max == 0

    def test_comm_respects_memory_independent_floor(self, strassen_alg, rng):
        n, P = 32, 49
        _, stats = execute_parallel_bfs(strassen_alg, rng.standard_normal((n, n)), rng.standard_normal((n, n)), P=P)
        floor = fast_memory_independent(n, P)
        assert stats.comm_per_proc_max >= floor / 8  # constant-factor slack

    def test_strong_scaling_shape(self, strassen_alg, rng):
        """Per-proc comm decreases with P but slower than 1/P (the
        memory-independent regime's signature)."""
        n = 32
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        comm = {}
        for P in (7, 49):
            _, stats = execute_parallel_bfs(strassen_alg, A, B, P=P)
            comm[P] = stats.comm_per_proc_max
        assert comm[49] < comm[7]
        assert comm[49] > comm[7] / 7  # sub-linear scaling

    def test_local_io_term(self, strassen_alg):
        """A parallel_comm point's local I/O is one leaf sub-problem's
        (n/2 after one BFS level) sequential I/O."""
        from repro.engine import execute_point, parallel_comm_point, seq_io_point

        m, _, _ = execute_point(parallel_comm_point(strassen_alg, 16, 7, M=48).to_dict())
        assert m["local_io_per_proc"] > 0
        leaf, _, _ = execute_point(seq_io_point(strassen_alg, 8, 48).to_dict())
        assert m["local_io_per_proc"] == leaf["io"]

    def test_bad_p_rejected(self, strassen_alg, rng):
        with pytest.raises(ValueError):
            execute_parallel_bfs(strassen_alg, np.ones((8, 8)), np.ones((8, 8)), P=6)

    def test_n_too_small_rejected(self, strassen_alg):
        with pytest.raises(ValueError):
            execute_parallel_bfs(strassen_alg, np.ones((2, 2)), np.ones((2, 2)), P=49)

    def test_sent_received_balance(self, strassen_alg, rng):
        _, stats = execute_parallel_bfs(strassen_alg, rng.standard_normal((16, 16)), rng.standard_normal((16, 16)), P=7)
        assert stats.sent.sum() == stats.received.sum()
