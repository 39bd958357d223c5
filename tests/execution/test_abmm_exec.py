"""Unit tests for the out-of-core ABMM execution (Theorem 4.1's numbers)."""

import numpy as np
import pytest

from repro.basis.transform import recursive_basis_transform
from repro.bounds.formulas import fast_sequential
from repro.execution.abmm_exec import execute_abmm, machine_basis_transform
from repro.machine.sequential import SequentialMachine


class TestMachineTransform:
    def test_matches_in_memory_transform(self, ks_alg, rng):
        n = 16
        A = rng.standard_normal((n, n))
        m = SequentialMachine(M=64)
        m.place_input("A", A)
        machine_basis_transform(m, "A", "At", n, ks_alg.phi, 1)
        expected = recursive_basis_transform(A, ks_alg.phi)
        assert np.allclose(m.slow["At"], expected)

    def test_stop_size(self, ks_alg, rng):
        n = 16
        A = rng.standard_normal((n, n))
        m = SequentialMachine(M=64)
        m.place_input("A", A)
        machine_basis_transform(m, "A", "At", n, ks_alg.phi, 4)
        expected = recursive_basis_transform(A, ks_alg.phi, stop_size=4)
        assert np.allclose(m.slow["At"], expected)

    def test_io_n2_logn(self, ks_alg, rng):
        """Transform I/O grows as n²·log n, not n^{ω₀}."""
        ios = []
        for n in (16, 32, 64):
            m = SequentialMachine(M=64)
            m.place_input("A", rng.standard_normal((n, n)))
            machine_basis_transform(m, "A", "At", n, ks_alg.phi, 1)
            ios.append(m.io_operations / (n * n * np.log2(n)))
        # normalized values stay within a constant band
        assert max(ios) / min(ios) < 1.5

    def test_capacity_respected(self, ks_alg, rng):
        m = SequentialMachine(M=12)
        m.place_input("A", rng.standard_normal((16, 16)))
        machine_basis_transform(m, "A", "At", 16, ks_alg.phi, 1)
        assert m.peak_fast_words <= 12


class TestABMMExecution:
    @pytest.mark.parametrize("n,M", [(16, 192), (32, 48), (64, 48)])
    def test_correct_product(self, ks_alg, rng, n, M):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        m = SequentialMachine(M)
        C, phases = execute_abmm(m, ks_alg, A, B)
        assert np.allclose(C, A @ B)
        assert phases["io_total"] == pytest.approx(m.io_operations)
        assert phases["io_total"] >= fast_sequential(n, M)

    def test_phase_split_sums(self, ks_alg, rng):
        m = SequentialMachine(192)
        C, p = execute_abmm(m, ks_alg, rng.standard_normal((32, 32)), rng.standard_normal((32, 32)))
        assert p["io_total"] == pytest.approx(
            p["io_transform_forward"] + p["io_bilinear"] + p["io_transform_inverse"]
        )

    def test_transform_fraction_shrinks(self, ks_alg, rng):
        """Theorem 4.1's 'negligible' claim, measured."""
        fracs = []
        for n in (16, 32, 64):
            m = SequentialMachine(48)
            _, p = execute_abmm(m, ks_alg, rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            fracs.append(p["transform_fraction"])
        assert fracs[2] < fracs[0]

    def test_ks_bilinear_io_beats_winograd(self, ks_alg, winograd_alg, rng):
        """The §IV payoff: sparser core → less bilinear-phase I/O."""
        from repro.execution.recursive_bilinear import execute_recursive_bilinear

        n, M = 64, 48
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        m_ks = SequentialMachine(M)
        _, p = execute_abmm(m_ks, ks_alg, A, B)
        m_w = SequentialMachine(M)
        execute_recursive_bilinear(m_w, winograd_alg, A, B)
        assert p["io_bilinear"] < m_w.io_operations
        assert p["io_total"] < m_w.io_operations  # transforms included

    def test_too_small_memory_raises(self, ks_alg, rng):
        m = SequentialMachine(2)
        with pytest.raises(MemoryError):
            execute_abmm(m, ks_alg, rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))

    @pytest.mark.parametrize(
        "a_shape,b_shape", [((16, 8), (8, 16)), ((16, 16), (8, 8)), ((12, 12), (12, 12))]
    )
    def test_bad_operands_rejected_before_any_io(self, ks_alg, rng, a_shape, b_shape):
        """Non-square, mismatched or non-power-of-two operands raise before
        the first machine op, so a rejected run charges no I/O."""
        m = SequentialMachine(48)
        with pytest.raises(ValueError):
            execute_abmm(
                m, ks_alg, rng.standard_normal(a_shape), rng.standard_normal(b_shape)
            )
        assert m.io_operations == 0

