"""Hybrid seq_io schedules: backend agreement and spec plumbing."""

import numpy as np
import pytest

from repro import schedule
from repro.algorithms.bilinear import recursion_shape
from repro.engine.runners import resolve_algorithm
from repro.execution import execute_hybrid, execute_recursive_bilinear
from repro.machine.sequential import SequentialMachine

GRID = [
    ("strassen", 16, 48, 1, "tiled", True),
    ("strassen", 16, 48, 2, "resident", True),
    ("winograd", 16, 48, 1, "resident", True),
    ("laderman", 27, 64, 1, "tiled", True),
    ("grey-522-18", 25, 64, 1, "resident", True),
    ("strassen", 16, 48, 2, "tiled", False),
    ("winograd", 16, 48, 1, "resident", False),
    ("grey-522-18", 25, 64, 1, "tiled", False),
]


def _operands(alg, n):
    R, K, C = recursion_shape(alg, n)
    rng = np.random.default_rng(0)
    return rng.standard_normal((R, K)), rng.standard_normal((K, C))


def _machine_view(alg_name, n, M, cutoff, leaf, replay):
    """counter_view of the physical hybrid execution."""
    alg = resolve_algorithm(alg_name)
    m = SequentialMachine(M)
    execute_hybrid(m, alg, *_operands(alg, n), cutoff, leaf=leaf,
                   level_replay=replay)
    return {"reads": m.words_read, "writes": m.words_written,
            "io": m.io_operations, "peak_fast": m.peak_fast_words}


class TestSpec:
    def test_cutoff_selects_hybrid_variant(self):
        spec = schedule.seq_io_schedule("strassen", 16, 48, cutoff=1)
        assert spec.params["variant"] == "hybrid"
        assert spec.params["cutoff"] == 1
        assert spec.params["leaf"] == "tiled"

    def test_no_cutoff_keeps_pure_variants(self):
        assert schedule.seq_io_schedule("strassen", 16, 48).params.get(
            "variant"
        ) != "hybrid"

    def test_bad_leaf_rejected(self):
        with pytest.raises(ValueError):
            schedule.seq_io_schedule("strassen", 16, 48, cutoff=1, leaf="mosaic")

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            schedule.seq_io_schedule("strassen", 16, 48, cutoff=-1)


class TestBackendAgreement:
    @pytest.mark.parametrize("alg,n,M,cutoff,leaf,replay", GRID)
    def test_three_backends_word_identical(self, alg, n, M, cutoff, leaf, replay):
        spec = schedule.seq_io_schedule(alg, n, M, replay=replay, cutoff=cutoff,
                                        leaf=leaf)
        views = {
            backend: schedule.run(spec, backend=backend).counter_view()
            for backend in ("reference", "vector", "symbolic")
        }
        views["machine"] = _machine_view(alg, n, M, cutoff, leaf, replay)
        assert (views["reference"] == views["vector"] == views["symbolic"]
                == views["machine"]), views

    def test_symbolic_closed_form_reaches_large_n(self):
        """The memoized closed form evaluates n = 4096 hybrids instantly —
        the scale the materializing backends cannot touch."""
        rep = schedule.run(
            schedule.seq_io_schedule("strassen", 4096, 4096, cutoff=3,
                                     leaf="resident"),
            backend="symbolic",
        )
        assert rep.io > 0

    def test_memoized_costs_stable_across_calls(self):
        spec = schedule.seq_io_schedule("strassen", 64, 48, cutoff=2)
        a = schedule.run(spec, backend="symbolic").counter_view()
        b = schedule.run(spec, backend="symbolic").counter_view()
        assert a == b

    def test_cutoff_zero_tiled_equals_classical_spec(self):
        """ℓ=0 hybrid (tiled) and the plain classical schedule agree."""
        n, M = 32, 48
        hyb = schedule.run(
            schedule.seq_io_schedule("strassen", n, M, cutoff=0, leaf="tiled"),
            backend="symbolic",
        )
        cls = schedule.run(
            schedule.seq_io_schedule(None, n, M), backend="symbolic"
        )
        assert hyb.counter_view() == cls.counter_view()


class TestTooSmallMemory:
    """Every counting path rejects an M that holds no sub-problem with the
    same exception type: the executors' :class:`MemoryError`."""

    CASES = [
        # pure-fast recursion: M=2 holds not even a 1×1×1 base case
        ("strassen", 16, 2, None),
        # hybrid tiled leaf: M=3 holds not even a 1×1 tile set
        ("strassen", 16, 3, 1),
    ]

    @pytest.mark.parametrize("alg,n,M,cutoff", CASES)
    @pytest.mark.parametrize("path", ["machine", "reference", "vector", "symbolic"])
    def test_memory_error_names_M(self, path, alg, n, M, cutoff):
        with pytest.raises(MemoryError, match=f"M={M}"):
            if path == "machine":
                live = resolve_algorithm(alg)
                m = SequentialMachine(M)
                if cutoff is None:
                    execute_recursive_bilinear(m, live, *_operands(live, n))
                else:
                    execute_hybrid(m, live, *_operands(live, n), cutoff)
            else:
                spec = schedule.seq_io_schedule(alg, n, M, cutoff=cutoff)
                schedule.run(spec, backend=path)
