"""Unit tests for the write-avoiding study and the rectangular recursion."""

import numpy as np
import pytest

from repro.algorithms import classical, strassen
from repro.algorithms.tensor import tensor_product
from repro.bounds.formulas import rectangular_bound
from repro.execution import execute_recursive_bilinear
from repro.execution.write_avoiding import (
    nvm_cost_comparison,
    recursive_fast_write_profile,
    tiled_matmul_write_profile,
)
from repro.machine import SequentialMachine


class TestWriteProfiles:
    def test_tiled_writes_are_exactly_n2(self):
        """The tiled classical algorithm stores each C tile once: writes = n²."""
        prof = tiled_matmul_write_profile(32, 48)
        assert prof["writes"] == 32 * 32

    def test_tiled_write_fraction_small(self):
        prof = tiled_matmul_write_profile(64, 48)
        assert prof["write_fraction"] < 0.1

    def test_fast_writes_grow_superquadratically(self):
        """DFS temporaries make the fast algorithm write Θ(n^{ω₀})."""
        w32 = recursive_fast_write_profile(strassen(), 32, 48)["writes"]
        w64 = recursive_fast_write_profile(strassen(), 64, 48)["writes"]
        assert w64 / w32 > 5.0  # ≈ 7 per doubling, ≫ 4 (= quadratic)

    def test_fast_write_fraction_constant(self):
        prof = recursive_fast_write_profile(strassen(), 64, 48)
        assert 0.2 < prof["write_fraction"] < 0.5


class TestNVMComparison:
    def test_growing_omega_favors_classical(self):
        rows = nvm_cost_comparison(strassen(), 64, 48, [1.0, 4.0, 16.0, 64.0])
        wins = [r["classical_wins"] for r in rows]
        assert wins == sorted(wins)  # once classical wins, it keeps winning
        assert wins[-1]  # at ω = 64 the write-light algorithm wins

    def test_costs_monotone_in_omega(self):
        rows = nvm_cost_comparison(strassen(), 32, 48, [1.0, 2.0, 8.0])
        fast = [r["fast_cost"] for r in rows]
        assert fast == sorted(fast)


class TestRectangularRecursion:
    @pytest.mark.parametrize("t", [1, 2])
    def test_classical_234_correct(self, rng, t):
        alg = classical(2, 3, 4)
        A = rng.standard_normal((2 ** t, 3 ** t))
        B = rng.standard_normal((3 ** t, 4 ** t))
        m = SequentialMachine(64)
        C = execute_recursive_bilinear(m, alg, A, B)
        assert np.allclose(C, A @ B)

    def test_square_degenerates_correctly(self, rng):
        alg = classical(2)
        A = rng.standard_normal((8, 8))
        B = rng.standard_normal((8, 8))
        m = SequentialMachine(64)
        assert np.allclose(execute_recursive_bilinear(m, alg, A, B), A @ B)

    def test_tensor_built_rectangular(self, rng):
        alg = tensor_product(classical(1, 2, 2), classical(2, 1, 2))  # ⟨2,2,4;16⟩
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 4))
        m = SequentialMachine(40)
        assert np.allclose(execute_recursive_bilinear(m, alg, A, B), A @ B)

    def test_io_respects_rectangular_bound_shape(self, rng):
        """Measured I/O vs Ω(q^t/M^{log_{mp}q − 1}) across t."""
        alg = classical(2, 3, 4)
        M = 64
        ratios = []
        for t in (1, 2):
            A = rng.standard_normal((2 ** t, 3 ** t))
            B = rng.standard_normal((3 ** t, 4 ** t))
            m = SequentialMachine(M)
            execute_recursive_bilinear(m, alg, A, B)
            bound = rectangular_bound(24, t, 2, 4, M)
            assert m.io_operations >= bound / 64
            ratios.append(m.io_operations / bound)
        assert ratios[1] / ratios[0] < 8  # constants stay in a band

    def test_fitting_shape_computed_directly(self, rng):
        """(4×4)·(4×4) is no ⟨2,3,4⟩ power, but its 48 words fit M = 64:
        the cache-fit base case solves it in one pass."""
        alg = classical(2, 3, 4)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        m = SequentialMachine(64)
        assert np.allclose(execute_recursive_bilinear(m, alg, A, B), A @ B)
        assert m.io_operations == 48

    def test_bad_shapes_rejected(self, rng):
        """(8×8)·(8×8) neither fits M = 64 nor divides by (2, 3, 4)."""
        alg = classical(2, 3, 4)
        m = SequentialMachine(64)
        with pytest.raises(ValueError):
            execute_recursive_bilinear(
                m, alg, rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
            )
        assert m.io_operations == 0

    def test_mismatched_inner_rejected(self, rng):
        alg = classical(2, 3, 4)
        m = SequentialMachine(64)
        with pytest.raises(ValueError):
            execute_recursive_bilinear(
                m, alg, rng.standard_normal((2, 3)), rng.standard_normal((4, 4))
            )
