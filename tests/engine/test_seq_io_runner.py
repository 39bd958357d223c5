"""The seq_io / hybrid / lru_trace / parallel_comm runners: one
schedule.run per point, on the machine backend unless the point names
another."""

import re

import pytest

import repro.execution
from repro.engine import (
    execute_point,
    hybrid_point,
    lru_trace_point,
    parallel_comm_point,
    seq_io_point,
)


@pytest.fixture
def replay_flags(monkeypatch):
    """Record the ``level_replay`` each DFS executor call receives."""
    seen = []
    for name in ("execute_recursive_bilinear", "execute_hybrid"):
        real = getattr(repro.execution, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            seen.append((_name, kwargs["level_replay"]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(repro.execution, name, spy)
    return seen


class TestReplayDefaults:
    """Hand-written points (e.g. a ``repro serve`` body) may omit ``replay``."""

    def test_seq_io_runs_in_full(self, replay_flags):
        spec = {"kind": "seq_io",
                "params": {"alg": "strassen", "n": 32, "M": 48, "seed": 0}}
        metrics, _, _ = execute_point(spec)
        assert replay_flags == [("execute_recursive_bilinear", False)]
        built, _, _ = execute_point(seq_io_point("strassen", 32, 48).to_dict())
        assert metrics == built

    def test_seq_io_checks_product(self, monkeypatch):
        real = repro.execution.execute_recursive_bilinear
        monkeypatch.setattr(
            repro.execution, "execute_recursive_bilinear",
            lambda *a, **k: real(*a, **k) + 1.0,
        )
        spec = {"kind": "seq_io",
                "params": {"alg": "strassen", "n": 16, "M": 48, "seed": 0}}
        with pytest.raises(AssertionError, match="wrong product"):
            execute_point(spec)

    def test_hybrid_replays(self, replay_flags):
        spec = {"kind": "hybrid",
                "params": {"alg": "strassen", "n": 32, "M": 48, "cutoff": 1,
                           "seed": 0}}
        metrics, _, _ = execute_point(spec)
        assert replay_flags == [("execute_hybrid", True)]
        built, _, _ = execute_point(hybrid_point("strassen", 32, 48, 1).to_dict())
        assert metrics == built


class TestMachineBackendKey:
    @pytest.mark.parametrize("build", [
        lambda b: seq_io_point("strassen", 16, 48, backend=b),
        lambda b: hybrid_point("strassen", 16, 48, 1, backend=b),
        lambda b: lru_trace_point(16, 32, backend=b),
        lambda b: parallel_comm_point("strassen", 16, 7, M=48, backend=b),
        lambda b: parallel_comm_point(None, 16, 4, backend=b),
    ])
    def test_machine_is_the_default_key(self, build):
        assert build("machine").key == build(None).key
        assert "backend" not in build("machine").params

    def test_explicit_machine_backend_runs_the_same(self):
        point = seq_io_point("karstadt_schwartz", 16, 48).to_dict()
        explicit = {"kind": "seq_io",
                    "params": {**point["params"], "backend": "machine"}}
        assert execute_point(explicit)[0] == execute_point(point)[0]


class TestHandWrittenPointErrors:
    """Typed errors for hand-written points, raised before any execution."""

    @pytest.mark.parametrize("alg", ["karstadt_schwartz", None])
    def test_hybrid_rejects_a_non_bilinear_algorithm(self, alg, replay_flags):
        spec = {"kind": "hybrid",
                "params": {"alg": alg, "n": 16, "M": 48, "cutoff": 1, "seed": 0}}
        with pytest.raises(ValueError, match="plain bilinear algorithm"):
            execute_point(spec)
        assert replay_flags == []

    @pytest.mark.parametrize("kind, params", [
        ("seq_io", {"alg": "strassen", "n": 16, "M": 48}),
        ("hybrid", {"alg": "strassen", "n": 16, "M": 48, "cutoff": 1}),
        ("parallel_comm", {"alg": "strassen", "n": 16, "P": 7, "M": None}),
        ("lru_trace", {"n": 16}),
        ("pebble_optimal", {"family": "binary_tree", "family_params": {"depth": 2},
                            "allow_recompute": True, "read_cost": 1.0,
                            "write_cost": 1.0, "max_states": 1000}),
        ("pebble_search", {"family": "binary_tree", "family_params": {"depth": 2},
                           "M": 3, "read_cost": 1.0, "write_cost": 1.0}),
        ("segment_audit", {"alg": "strassen", "n": 4, "M": 16, "style": "tree"}),
    ])
    def test_missing_seed_is_named(self, kind, params, replay_flags):
        """The seed of the kinds that carry one, else the one required
        field each hand-written body here leaves out, is named in a
        ValueError before anything runs."""
        omitted = {"lru_trace": "M", "pebble_optimal": "M",
                   "pebble_search": "scheduler",
                   "segment_audit": "scheduler"}.get(kind, "seed")
        with pytest.raises(ValueError, match=re.escape(f"param(s) ['{omitted}']")):
            execute_point({"kind": kind, "params": params})
        assert replay_flags == []
