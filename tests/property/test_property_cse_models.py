"""Hypothesis property tests: CSE semantics and exact I/O models.

Invariants: the CSE'd straight-line program computes exactly mat·x; CSE
never exceeds the flat addition count; the symbolic backend's closed
forms track the executors under randomized parameters.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms.cse import greedy_cse
from repro.algorithms.strassen import strassen
from repro.execution import execute_recursive_bilinear, execute_tiled
from repro.machine import SequentialMachine
from repro.schedule import run, seq_io_schedule

sign_matrix = st.lists(
    st.lists(st.sampled_from([-1, 0, 1]), min_size=4, max_size=4),
    min_size=2,
    max_size=8,
).map(lambda rows: np.array(rows, dtype=np.int64))


class TestCSESemantics:
    @given(mat=sign_matrix, data=st.data())
    @settings(max_examples=60)
    def test_cse_program_computes_mat_times_x(self, mat, data):
        x = np.array(
            data.draw(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
        )
        res = greedy_cse(mat)
        assert np.array_equal(res.evaluate(x), mat @ x)

    @given(mat=sign_matrix)
    @settings(max_examples=60)
    def test_cse_never_worse_than_flat(self, mat):
        res = greedy_cse(mat)
        assert res.additions <= res.flat_additions

    @given(mat=sign_matrix)
    def test_row_permutation_flat_invariant_and_semantics(self, mat):
        """Greedy tie-breaking may vary with row order (the heuristic is
        order-dependent), but the *flat* count is permutation-invariant and
        the permuted program still computes the permuted product."""
        res_perm = greedy_cse(mat[::-1])
        assert res_perm.flat_additions == greedy_cse(mat).flat_additions
        x = np.arange(1, 5)
        assert np.array_equal(res_perm.evaluate(x), mat[::-1] @ x)


class TestIOModelsRandomized:
    @given(
        log_n=st.integers(3, 5),
        M=st.sampled_from([27, 48, 75, 108, 192]),
    )
    @settings(max_examples=12)
    def test_tiled_model_matches(self, log_n, M):
        n = 2 ** log_n
        rng = np.random.default_rng(0)
        machine = SequentialMachine(M)
        execute_tiled(machine, rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        report = run(seq_io_schedule(None, n, M), backend="symbolic")
        assert report.io == machine.io_operations

    @given(
        log_n=st.integers(3, 5),
        M=st.sampled_from([48, 108, 192]),
    )
    @settings(max_examples=10)
    def test_recursive_model_matches(self, log_n, M):
        n = 2 ** log_n
        rng = np.random.default_rng(0)
        machine = SequentialMachine(M)
        execute_recursive_bilinear(
            machine, strassen(), rng.standard_normal((n, n)), rng.standard_normal((n, n))
        )
        report = run(seq_io_schedule(strassen(), n, M), backend="symbolic")
        assert report.io == machine.io_operations
