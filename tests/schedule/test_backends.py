"""Backend equivalence and the unified facade.

The backends must be *exactly* interchangeable wherever they overlap:
machine (the physical executor), reference (op-by-op machine
interpretation), vector (numpy array passes), symbolic (closed-form
recurrences).  Divergence of even one word is a bug — that exactness is
what the differential harness leans on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import schedule
from repro.schedule import BACKENDS, BackendUnsupported, Executor, ScheduleReport


GRID = [
    ("strassen", 16, 48),
    ("strassen", 32, 256),
    ("winograd", 16, 128),
    ("karstadt_schwartz", 32, 256),
    ("classical", 16, 64),
    (None, 32, 300),
]


def _assert_seq_io_agree(spec):
    views = {
        name: schedule.run(spec, backend=name).counter_view()
        for name in sorted(BACKENDS)
    }
    assert views["machine"] == views["reference"]
    assert views["vector"] == views["reference"]
    assert views["symbolic"] == views["reference"]


class TestBackendEquivalence:
    @pytest.mark.parametrize("alg,n,M", GRID)
    def test_seq_io_backends_agree_exactly(self, alg, n, M):
        _assert_seq_io_agree(schedule.seq_io_schedule(alg, n, M))

    @pytest.mark.parametrize("leaf", ["tiled", "resident"])
    def test_hybrid_cutoff_backends_agree_exactly(self, leaf):
        _assert_seq_io_agree(
            schedule.seq_io_schedule("strassen", 32, 96, cutoff=1, leaf=leaf)
        )

    @pytest.mark.parametrize("n,M", [(8, 16), (16, 32)])
    def test_lru_trace_backends_agree_exactly(self, n, M):
        spec = schedule.lru_trace_schedule(n, M)
        reports = {
            name: schedule.run(spec, backend=name) for name in sorted(BACKENDS)
        }
        for key in ("hits", "misses", "writebacks", "io"):
            vals = {name: r.metrics[key] for name, r in reports.items()}
            assert vals["machine"] == vals["reference"], (key, vals)
            assert len(set(vals.values())) == 1, (key, vals)

    def test_pebble_reference_and_vector_agree(self, strassen_alg):
        from repro.cdag import base_case_cdag
        from repro.pebbling import topological_schedule

        sched = topological_schedule(base_case_cdag(strassen_alg), 12)
        spec = schedule.pebble_schedule(sched, 12)
        ref = schedule.run(spec, backend="reference")
        vec = schedule.run(spec, backend="vector")
        for key in ("loads", "stores", "io", "peak_red", "recomputations"):
            assert vec.metrics[key] == ref.metrics[key], key

    def test_symbolic_rejects_pebble_and_parallel_comm(self, strassen_alg):
        from repro.cdag import base_case_cdag
        from repro.pebbling import topological_schedule

        sched = topological_schedule(base_case_cdag(strassen_alg), 12)
        with pytest.raises(BackendUnsupported):
            schedule.run(schedule.pebble_schedule(sched, 12), backend="symbolic")
        with pytest.raises(BackendUnsupported):
            schedule.run(
                schedule.parallel_comm_schedule(strassen_alg, 16, 7),
                backend="symbolic",
            )

    def test_machine_rejects_pebble(self, strassen_alg):
        from repro.cdag import base_case_cdag
        from repro.pebbling import topological_schedule

        sched = topological_schedule(base_case_cdag(strassen_alg), 12)
        with pytest.raises(BackendUnsupported):
            schedule.run(schedule.pebble_schedule(sched, 12), backend="machine")

    def test_machine_runs_parallel_comm_like_the_ir(self, strassen_alg):
        spec = schedule.parallel_comm_schedule(strassen_alg, 16, 7)
        ran = schedule.run(spec, backend="machine")
        for backend in ("reference", "vector"):
            assert schedule.run(spec, backend=backend).metrics == ran.metrics

    def test_summa_is_not_lowered(self, monkeypatch):
        """SUMMA counts only on the machine backend; the lowering refuses
        it before any owner-map work."""
        import repro.execution.parallel_strassen as bfs

        def refuse(*args, **kwargs):
            raise AssertionError("summa lowering simulated BFS communication")

        monkeypatch.setattr(bfs, "simulate_bfs_comm", refuse)
        spec = schedule.parallel_comm_schedule(None, 8, 4)
        assert schedule.run(spec, backend="machine").metrics["comm_per_proc_max"] > 0
        for backend in ("reference", "vector", "symbolic"):
            with pytest.raises(BackendUnsupported):
                schedule.run(spec, backend=backend)

    def test_symbolic_reaches_4096(self):
        rep = schedule.run(
            schedule.seq_io_schedule("strassen", 4096, 4096), backend="symbolic"
        )
        assert rep.io > 0
        assert rep.peak_fast <= 4096


@settings(max_examples=25, deadline=None)
@given(
    logn=st.integers(min_value=2, max_value=6),
    M=st.integers(min_value=48, max_value=2048),
    alg=st.sampled_from(["strassen", "winograd", "classical"]),
)
def test_symbolic_equals_reference_on_random_points(logn, M, alg):
    """Property: the closed form reproduces interpretation on random (n, M)."""
    spec = schedule.seq_io_schedule(alg, 2 ** logn, M)
    ref = schedule.run(spec, backend="reference").counter_view()
    sym = schedule.run(spec, backend="symbolic").counter_view()
    assert sym == ref


class TestFacade:
    def test_registry_members_satisfy_protocol(self):
        for name, backend in BACKENDS.items():
            assert isinstance(backend, Executor)
            assert backend.name == name

    def test_unknown_backend_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown backend"):
            schedule.run(schedule.lru_trace_schedule(8, 16), backend="gpu")

    def test_wrong_schedule_type_raises(self):
        with pytest.raises(TypeError, match="ScheduleSpec or ScheduleIR"):
            schedule.run({"kind": "seq_io"})

    def test_run_accepts_raw_ir(self, strassen_alg):
        spec = schedule.seq_io_schedule(strassen_alg, 16, 128)
        from_spec = schedule.run(spec, backend="vector")
        from_ir = schedule.run(spec.lower(), backend="vector")
        assert from_ir.counter_view() == from_spec.counter_view()

    def test_report_shape(self):
        rep = schedule.run(schedule.lru_trace_schedule(8, 16))
        assert isinstance(rep, ScheduleReport)
        assert rep.kind == "lru_trace"
        assert rep.backend == "reference"
        assert rep.to_dict()["params"]["n"] == 8

    def test_reference_charges_live_machine(self, strassen_alg):
        from repro.machine.sequential import SequentialMachine

        spec = schedule.seq_io_schedule(strassen_alg, 16, 128)
        m = SequentialMachine(128)
        rep = schedule.run(spec, machine=m, backend="reference")
        assert m.words_read == rep.reads
        assert m.words_written == rep.writes

    def test_vector_folds_totals_into_machine(self, strassen_alg):
        from repro.machine.sequential import SequentialMachine

        spec = schedule.seq_io_schedule(strassen_alg, 16, 128)
        m = SequentialMachine(128)
        rep = schedule.run(spec, machine=m, backend="vector")
        assert m.words_read == rep.reads
        assert m.words_written == rep.writes


class TestMachineBackend:
    def test_wrong_product_raises(self, monkeypatch):
        import repro.execution

        real = repro.execution.execute_recursive_bilinear
        monkeypatch.setattr(repro.execution, "execute_recursive_bilinear",
                            lambda *a, **k: real(*a, **k) + 1.0)
        spec = schedule.seq_io_schedule("strassen", 16, 48, replay=False)
        with pytest.raises(AssertionError, match="wrong product"):
            schedule.run(spec, backend="machine")

    def test_seed_comes_from_payload(self):
        """The seed changes the operands, never the counters or params."""
        runs = []
        for seed in (0, 7):
            spec = schedule.seq_io_schedule("strassen", 16, 48, replay=False)
            spec.payload["seed"] = seed
            runs.append(schedule.run(spec, backend="machine"))
        assert runs[0].counter_view() == runs[1].counter_view()
        assert runs[0].params == runs[1].params
        assert "seed" not in runs[0].params

    def test_executes_on_live_machine(self, strassen_alg):
        from repro.machine.sequential import SequentialMachine

        spec = schedule.seq_io_schedule(strassen_alg, 16, 128)
        m = SequentialMachine(128)
        rep = schedule.run(spec, machine=m, backend="machine")
        assert m.words_read == rep.reads
        assert m.words_written == rep.writes

    def test_does_not_lower(self, monkeypatch):
        import importlib

        lowering = importlib.import_module("repro.schedule.lower")

        def refuse(spec):
            raise AssertionError("machine backend lowered")

        monkeypatch.setattr(lowering, "lower", refuse)
        monkeypatch.setattr(lowering, "lower_seq_io", refuse)
        schedule.run(schedule.seq_io_schedule("winograd", 16, 48), backend="machine")


class TestTopLevelExports:
    def test_canonical_names_importable_from_repro(self):
        import repro

        for name in (
            "execute_tiled",
            "execute_lru_trace",
            "execute_recursive_bilinear",
            "execute_abmm",
            "execute_parallel_bfs",
            "schedule",
        ):
            assert hasattr(repro, name), name
