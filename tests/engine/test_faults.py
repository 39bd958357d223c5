"""Fault-tolerant execution, exercised by *real* child-process failures.

Every test drives :func:`repro.engine.run_sweep` against the deterministic
fault-injection harness (:mod:`repro.engine.faults`): workers genuinely
``os._exit``, genuinely hang, genuinely raise — no mocks.  Covered:

* worker hard-crash mid-sweep → pool rebuild, sweep completes;
* hanging point → per-point timeout kills it, sweep still returns;
* transient flake → retried exactly ``max_retries`` times;
* parallel sweep with injected faults → surviving points bit-identical
  to a clean serial run;
* resume-from-cache after a partial failure → zero recomputation.
"""

import json

import pytest

from repro.engine import (
    EngineConfig,
    FaultInjected,
    FaultRule,
    apply_fault,
    inject_faults,
    run_sweep,
    seq_io_point,
)
from repro.engine.wal import iter_records

SIZES = [8, 16, 32]
M = 48


def _points(sizes=SIZES):
    return [seq_io_point("strassen", n, M) for n in sizes]


def _rule(mode, n, **kw):
    return FaultRule(mode=mode, kind="seq_io", params={"n": n}, **kw)


class TestHarness:
    """The injection switchboard itself."""

    def test_noop_without_env(self):
        assert apply_fault({"kind": "seq_io", "params": {"n": 8}}) is None

    def test_rule_matching_is_subset_match(self):
        rule = _rule("raise", 16)
        assert rule.matches({"kind": "seq_io", "params": {"n": 16, "M": 48}})
        assert not rule.matches({"kind": "seq_io", "params": {"n": 8}})
        assert not rule.matches({"kind": "pebble_optimal", "params": {"n": 16}})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(mode="meltdown")

    def test_raise_fires_exactly_times_then_clears(self):
        spec = {"kind": "seq_io", "params": {"n": 16}}
        with inject_faults(_rule("raise", 16, times=2)):
            for _ in range(2):
                with pytest.raises(FaultInjected):
                    apply_fault(spec)
            assert apply_fault(spec) is None  # spent — runs normally

    def test_corrupt_returns_garbage_metrics(self):
        spec = {"kind": "seq_io", "params": {"n": 16}}
        with inject_faults(_rule("corrupt", 16)):
            metrics, trace = apply_fault(spec)
        assert metrics["corrupt"] is True
        assert metrics["io"] < 0

    def test_attempt_counts_shared_via_directory(self, tmp_path):
        """Counts live on disk, so they survive the counting process."""
        spec = {"kind": "seq_io", "params": {"n": 16}}
        with inject_faults(_rule("raise", 16, times=1), counter_dir=str(tmp_path)):
            with pytest.raises(FaultInjected):
                apply_fault(spec)
            assert apply_fault(spec) is None
        assert len(list(tmp_path.iterdir())) == 2  # one claimed slot per execution


class TestCrashRecovery:
    def test_worker_crash_recovers_and_completes(self):
        """A worker dying mid-sweep (BrokenProcessPool) rebuilds the pool,
        re-queues the in-flight points, and completes everything."""
        with inject_faults(_rule("crash", 16, times=1)):
            res = run_sweep(_points(), EngineConfig(workers=2))
        assert res.failures == []
        assert [p.x for p in res.points] == [float(n) for n in SIZES]
        assert res.stats["pool_rebuilds"] >= 1
        assert res.stats["degraded"] == 0.0

    def test_repeated_crashes_degrade_to_serial(self, monkeypatch):
        """More unexpected breaks than MAX_POOL_REBUILDS → the rest of the
        sweep runs serially in-process instead of aborting."""
        monkeypatch.setattr("repro.engine.core.MAX_POOL_REBUILDS", 1)
        with inject_faults(_rule("crash", 16, times=2)):
            res = run_sweep(_points(), EngineConfig(workers=2))
        assert res.failures == []
        assert len(res.points) == len(SIZES)
        assert res.stats["degraded"] == 1.0
        assert res.stats["pool_rebuilds"] == 1


class TestReusedWorkers:
    """Pools outlive a sweep, so a fault plan installed after the workers
    were forked must still reach them — and a removed plan must not."""

    def test_plan_installed_after_fork_reaches_reused_workers(self):
        clean = run_sweep(_points(), EngineConfig(workers=2))
        assert clean.stats["pool_rebuilds"] == 0
        with inject_faults(_rule("crash", 16, times=1)):
            res = run_sweep(_points(), EngineConfig(workers=2))
        assert res.stats["pool_rebuilds"] >= 1
        assert res.failures == [] and res.measured == clean.measured

    def test_plan_removed_after_fork_no_longer_fires(self):
        with inject_faults(_rule("raise", 16, times=99)):
            faulty = run_sweep(_points(), EngineConfig(workers=2))
        assert [r.params["n"] for r in faulty.failures] == [16]
        res = run_sweep(_points(), EngineConfig(workers=2))
        assert res.failures == [] and len(res.points) == len(SIZES)


class TestTimeout:
    def test_timeout_fires_on_hanging_point_and_sweep_returns(self):
        with inject_faults(_rule("hang", 16, times=9, hang_s=60.0)):
            res = run_sweep(
                [seq_io_point("strassen", n, M) for n in (8, 16)],
                EngineConfig(workers=2, point_timeout_s=1.5),
            )
        assert [p.x for p in res.points] == [8.0]
        assert len(res.failures) == 1
        failed = res.failures[0]
        assert failed.status == "timeout"
        assert failed.error["type"] == "TimeoutError"
        assert failed.error["attempts"] == 1
        assert res.stats["timeouts"] == 1
        assert res.stats["retries"] == 0

    def test_hang_then_recover_via_retry(self):
        """A point that hangs once and then behaves is saved by a retry."""
        with inject_faults(_rule("hang", 16, times=1, hang_s=60.0)):
            res = run_sweep(
                [seq_io_point("strassen", n, M) for n in (8, 16)],
                EngineConfig(workers=2, point_timeout_s=1.5, max_retries=1),
            )
        assert res.failures == []
        assert [p.x for p in res.points] == [8.0, 16.0]
        assert res.stats["timeouts"] == 1
        assert res.stats["retries"] == 1


class TestRetries:
    def test_flake_retried_then_succeeds(self):
        """Fails twice, succeeds on the third execution: exactly two
        retries are charged and the result is indistinguishable."""
        with inject_faults(_rule("raise", 16, times=2)):
            res = run_sweep(_points(), EngineConfig(workers=0, max_retries=2))
        assert res.failures == []
        assert res.stats["retries"] == 2
        assert res.stats["errors"] == 2
        clean = run_sweep(_points(), EngineConfig())
        assert [r.fingerprint() for r in res.runs] == [
            r.fingerprint() for r in clean.runs
        ]

    def test_persistent_failure_retried_exactly_max_retries_times(self):
        with inject_faults(_rule("raise", 16, times=99)):
            res = run_sweep(_points(), EngineConfig(workers=0, max_retries=2))
        assert res.stats["retries"] == 2
        assert res.stats["errors"] == 3
        assert len(res.failures) == 1
        failed = res.failures[0]
        assert failed.status == "error"
        assert failed.error["type"] == "FaultInjected"
        assert failed.error["attempts"] == 3  # 1 first try + 2 retries
        assert "FaultInjected" in failed.error["traceback"]
        assert [p.x for p in res.points] == [8.0, 32.0]

    def test_fail_fast_skips_the_rest(self):
        with inject_faults(_rule("raise", 8, times=99)):
            res = run_sweep(_points(), EngineConfig(workers=0, fail_fast=True))
        assert res.points == []
        assert sorted(r.status for r in res.failures) == [
            "error", "skipped", "skipped"
        ]
        skipped = [r for r in res.failures if r.status == "skipped"]
        assert {r.params["n"] for r in skipped} == {16, 32}


class TestDeterminism:
    def test_faulty_parallel_matches_clean_serial_bit_for_bit(self):
        """workers=4 with an injected crash and an injected flake still
        produces results bit-identical to a clean serial run."""
        clean = run_sweep(_points(), EngineConfig(workers=0))
        with inject_faults(
            _rule("crash", 16, times=1),
            _rule("raise", 32, times=1),
        ):
            faulty = run_sweep(
                _points(),
                EngineConfig(workers=4, max_retries=1),
            )
        assert faulty.failures == []
        assert [r.fingerprint() for r in faulty.runs] == [
            r.fingerprint() for r in clean.runs
        ]
        assert faulty.measured == clean.measured
        assert [r.trace for r in faulty.runs] == [r.trace for r in clean.runs]


class TestCheckpointResume:
    def test_incremental_jsonl_survives_mid_sweep_failure(self, tmp_path):
        """Completed points are on disk even though a later point failed —
        the stream is written as points finish, not at sweep end."""
        path = tmp_path / "results.jsonl"
        with inject_faults(_rule("raise", 16, times=99)):
            run_sweep(_points(), EngineConfig(workers=0, sweep_dir=tmp_path))
        lines = list(iter_records(path))
        assert [l["status"] for l in lines] == ["ok", "error", "ok"]
        assert [l["params"]["n"] for l in lines] == SIZES
        assert lines[1]["error"]["type"] == "FaultInjected"

    def test_resume_after_abort_recomputes_nothing(self, tmp_path):
        """Survivors of a faulty sweep are cache hits on the re-run; only
        the failed point is recomputed, and a third run is 100% hits."""
        cfg = lambda: EngineConfig(workers=0, cache_dir=tmp_path)  # noqa: E731
        with inject_faults(_rule("raise", 16, times=99)):
            first = run_sweep(_points(), cfg())
        assert len(first.failures) == 1

        second = run_sweep(_points(), cfg())
        assert second.stats["cache_hits"] == 2
        assert second.stats["cache_misses"] == 1
        assert second.failures == []
        assert all(
            p.run.cached for p in second.points if p.run.params["n"] != 16
        )

        third = run_sweep(_points(), cfg())
        assert third.stats["hit_rate"] == 1.0
        assert all(p.run.wall_time_s == 0.0 for p in third.points)

    def test_failed_points_are_never_cached(self, tmp_path):
        with inject_faults(_rule("raise", 16, times=99)):
            run_sweep(_points(), EngineConfig(workers=0, cache_dir=tmp_path))
        from repro.engine import ResultCache

        assert len(ResultCache(tmp_path)) == 2  # only the survivors


class TestCLIFailureSurface:
    def test_sweep_exit_code_and_json_on_failure(self, capsys):
        from repro.cli import main

        with inject_faults(_rule("raise", 8, times=99)):
            rc = main(["sweep", "8", "16", "--M", str(M), "--json"])
        assert rc == 1
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert len(payload["failures"]) == 1
        assert payload["failures"][0]["status"] == "error"
        assert [p["x"] for p in payload["points"]] == [16.0]
        assert "1 of 2 point(s) failed" in out.err

    def test_sweep_exit_zero_when_clean(self, capsys):
        from repro.cli import main

        rc = main(["sweep", "8", "--M", str(M), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["failures"] == []


class TestDelayMode:
    """``delay``: a slow worker, not a dead one — the execution succeeds."""

    def test_delay_sleeps_then_runs_normally(self):
        import time

        spec = {"kind": "seq_io", "params": {"n": 16}}
        with inject_faults(_rule("delay", 16, times=1, delay_s=0.3)):
            t0 = time.monotonic()
            assert apply_fault(spec) is None  # proceed with the execution
            assert time.monotonic() - t0 >= 0.3
            t0 = time.monotonic()
            assert apply_fault(spec) is None  # rule spent: no sleep
            assert time.monotonic() - t0 < 0.2

    def test_delayed_point_still_produces_correct_metrics(self, tmp_path):
        baseline = run_sweep(_points([8]), EngineConfig())
        with inject_faults(_rule("delay", 8, times=9, delay_s=0.1)):
            delayed = run_sweep(_points([8]), EngineConfig())
        assert not delayed.failures
        assert delayed.points[0].measured == baseline.points[0].measured
        # tail latency is visible in provenance but never in the counts
        assert delayed.points[0].run.wall_time_s >= 0.1

    def test_delay_round_trips_through_env(self):
        from repro.engine.faults import FaultPlan

        plan = FaultPlan(rules=[_rule("delay", 32, delay_s=2.5)])
        back = FaultPlan.from_env(plan.to_env())
        assert back.rules[0].mode == "delay"
        assert back.rules[0].delay_s == 2.5

    def test_delay_outruns_timeout_when_longer_than_budget(self, tmp_path):
        """A delay larger than point_timeout_s behaves like a slow hang:
        the timeout machinery must still fire."""
        with inject_faults(_rule("delay", 8, times=9, delay_s=30.0)):
            res = run_sweep(
                _points([8]),
                EngineConfig(workers=2, point_timeout_s=1.0, max_retries=0),
            )
        assert len(res.failures) == 1
        assert res.failures[0].status == "timeout"
