"""Tests: the symbolic closed forms match the deterministic executors to the word."""

import pytest

from repro.execution import execute_abmm, execute_recursive_bilinear, execute_tiled
from repro.machine import SequentialMachine
from repro.schedule import run, seq_io_schedule


def symbolic(alg, n, M, **kw):
    """The symbolic backend's report for one seq_io workload."""
    return run(seq_io_schedule(alg, n, M, **kw), backend="symbolic")


class TestExactModels:
    @pytest.mark.parametrize("n,M", [(16, 48), (32, 48), (32, 192), (64, 108)])
    def test_tiled_model_exact(self, rng, n, M):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        machine = SequentialMachine(M)
        execute_tiled(machine, A, B)
        assert symbolic(None, n, M).io == machine.io_operations

    @pytest.mark.parametrize("n,M", [(16, 48), (32, 48), (64, 192)])
    def test_recursive_model_exact_strassen(self, strassen_alg, rng, n, M):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        machine = SequentialMachine(M)
        execute_recursive_bilinear(machine, strassen_alg, A, B)
        assert symbolic(strassen_alg, n, M).io == machine.io_operations

    def test_recursive_model_exact_winograd(self, winograd_alg, rng):
        machine = SequentialMachine(48)
        A = rng.standard_normal((32, 32))
        B = rng.standard_normal((32, 32))
        execute_recursive_bilinear(machine, winograd_alg, A, B)
        assert symbolic(winograd_alg, 32, 48).io == machine.io_operations

    def test_recursive_model_with_base_cap(self, strassen_alg, rng):
        machine = SequentialMachine(10_000)
        A = rng.standard_normal((16, 16))
        B = rng.standard_normal((16, 16))
        execute_recursive_bilinear(machine, strassen_alg, A, B, base_size=4)
        assert (
            symbolic(strassen_alg, 16, 10_000, base_size=4).io
            == machine.io_operations
        )

    def test_transform_model_exact(self, ks_alg, rng):
        n = 32
        machine = SequentialMachine(48)
        _, phases = execute_abmm(
            machine, ks_alg, rng.standard_normal((n, n)), rng.standard_normal((n, n))
        )
        report = symbolic("karstadt_schwartz", n, 48)
        for phase in ("io_transform_forward", "io_transform_inverse"):
            assert report.metrics[phase] == phases[phase]


class TestModelProperties:
    def test_tiled_model_scaling(self):
        """With b fixed by M, doubling n multiplies reads by 8 exactly."""
        io32 = symbolic(None, 32, 48).io
        io64 = symbolic(None, 64, 48).io
        # reads ×8, writes ×4
        assert io64 > 7 * io32 / 1.2

    def test_recursive_model_t_growth(self, strassen_alg):
        """Doubling n multiplies I/O by ~7 (converging from above: the
        linear Θ(n²) terms decay relative to the t-fold recursion)."""
        io = [symbolic(strassen_alg, n, 48).io for n in (32, 64, 128, 256)]
        ratios = [io[i + 1] / io[i] for i in range(3)]
        assert all(6.9 < r < 7.7 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)  # converging toward 7

    def test_strassen_model_below_winograd(self, strassen_alg, winograd_alg):
        """nnz(U,V,W) is lower for Strassen ⇒ less streamed I/O per level."""
        assert symbolic(strassen_alg, 64, 48).io < symbolic(winograd_alg, 64, 48).io

    def test_rectangular_model_exact(self, rng):
        """The closed form covers rectangular bases too: Grey ⟨5,2,2;18⟩."""
        from repro.algorithms.bilinear import recursion_shape
        from repro.zoo import load_algorithm

        alg = load_algorithm("grey-522-18")
        R, K, C = recursion_shape(alg, 25)
        machine = SequentialMachine(48)
        execute_recursive_bilinear(
            machine, alg, rng.standard_normal((R, K)), rng.standard_normal((K, C))
        )
        report = symbolic(alg, 25, 48)
        assert (report.reads, report.writes, report.peak_fast) == (
            machine.words_read, machine.words_written, machine.peak_fast_words
        )
