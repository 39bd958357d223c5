"""Engine behavior: caching, parallel fan-out, point traces, wrappers."""

import re
import warnings

import pytest

from repro.engine import (
    EngineConfig,
    load_results_jsonl,
    parallel_comm_point,
    pebble_optimal_point,
    run_point,
    run_sweep,
    seq_io_point,
)
from repro.engine.wal import WALError

SIZES = [8, 16, 32]
M = 48


def _points():
    return [seq_io_point("strassen", n, M) for n in SIZES]


class TestRunPoint:
    def test_fresh_run_is_uncached(self, tmp_path):
        cfg = EngineConfig(cache_dir=tmp_path)
        res = run_point(seq_io_point("strassen", 16, M), cfg)
        assert not res.cached
        assert res.metrics["io"] > 0
        assert res.metrics["io"] >= res.metrics["bound"]

    def test_second_run_hits_cache(self, tmp_path):
        cfg = EngineConfig(cache_dir=tmp_path)
        first = run_point(seq_io_point("strassen", 16, M), cfg)
        second = run_point(seq_io_point("strassen", 16, M), cfg)
        assert second.cached and not first.cached
        assert second.metrics == first.metrics
        assert second.fingerprint() == first.fingerprint()

    def test_no_cache_dir_never_caches(self):
        res1 = run_point(seq_io_point("strassen", 16, M))
        res2 = run_point(seq_io_point("strassen", 16, M))
        assert not res1.cached and not res2.cached
        assert res1.fingerprint() == res2.fingerprint()

    def test_pebble_point(self):
        with_r = run_point(
            pebble_optimal_point("recompute_wins", 3, True, gadgets=1, flush_length=2)
        )
        without = run_point(
            pebble_optimal_point("recompute_wins", 3, False, gadgets=1, flush_length=2)
        )
        assert with_r.metrics["io"] < without.metrics["io"]


class TestPebbleSearchPoint:
    def test_portfolio_matches_exhaustive_optimum(self):
        from repro.engine import pebble_search_point

        res = run_point(
            pebble_search_point(
                "recompute_wins", 3, scheduler="portfolio",
                gadgets=1, flush_length=2,
            )
        )
        opt = run_point(
            pebble_optimal_point("recompute_wins", 3, True, gadgets=1, flush_length=2)
        )
        assert res.metrics["io"] == opt.metrics["io"]
        assert res.metrics["winner"]  # the race records which member won
        for k in ("loads", "stores", "recomputations", "moves", "peak_red"):
            assert k in res.metrics

    def test_beam_memo_on_recursive_family(self):
        from repro.engine import pebble_search_point

        res = run_point(
            pebble_search_point(
                "zoo_recursive", 6, scheduler="beam-memo",
                alg="strassen", n=4, style="tree",
            )
        )
        assert res.metrics["vertices"] > 62
        assert res.metrics["io"] > 0

    def test_beam_memo_requires_recursive_family(self):
        from repro.engine import pebble_search_point
        from repro.engine.runners import execute_point

        point = pebble_search_point("binary_tree", 4, scheduler="beam-memo", depth=3)
        with pytest.raises(KeyError, match="zoo_recursive"):
            execute_point(point.to_dict())

    def test_search_point_is_cacheable(self, tmp_path):
        from repro.engine import pebble_search_point

        cfg = EngineConfig(cache_dir=tmp_path)
        point = pebble_search_point(
            "recompute_wins", 3, scheduler="portfolio", gadgets=1, flush_length=2
        )
        first = run_point(point, cfg)
        second = run_point(point, cfg)
        assert second.cached and not first.cached
        assert second.metrics == first.metrics


class TestPebbleCostAtBuildTime:
    @pytest.mark.parametrize("costs", [(-1.0, 1.0), (1.0, float("nan"))])
    def test_bad_costs_rejected_before_a_point_exists(self, costs):
        from repro.engine import pebble_search_point

        read_cost, write_cost = costs
        with pytest.raises(ValueError, match="finite and >= 0"):
            pebble_optimal_point(
                "binary_tree", 4, read_cost=read_cost, write_cost=write_cost,
                depth=2,
            )
        with pytest.raises(ValueError, match="finite and >= 0"):
            pebble_search_point(
                "binary_tree", 4, read_cost=read_cost, write_cost=write_cost,
                depth=2,
            )

    def test_zero_cost_keeps_its_key_params(self):
        point = pebble_optimal_point(
            "binary_tree", 4, read_cost=0, write_cost=2, depth=2
        )
        assert point.params["read_cost"] == 0.0
        assert point.params["write_cost"] == 2.0


class TestRunSweep:
    def test_repeat_sweep_is_cache_served(self, tmp_path):
        cfg = EngineConfig(cache_dir=tmp_path)
        first = run_sweep(_points(), cfg)
        second = run_sweep(_points(), cfg)
        assert first.stats["cache_hits"] == 0
        assert second.stats["cache_hits"] == len(SIZES)
        assert second.stats["hit_rate"] >= 0.9  # the acceptance criterion
        assert all(p.run.cached for p in second.points)
        assert second.measured == first.measured
        # cache-served points skip recomputation entirely
        assert all(p.run.wall_time_s == 0.0 for p in second.points)

    def test_parallel_identical_to_serial(self):
        serial = run_sweep(_points(), EngineConfig(workers=0))
        parallel = run_sweep(_points(), EngineConfig(workers=4))
        assert [r.fingerprint() for r in serial.runs] == [
            r.fingerprint() for r in parallel.runs
        ]
        assert serial.measured == parallel.measured
        assert [r.trace for r in serial.runs] == [r.trace for r in parallel.runs]

    def test_parallel_populates_cache(self, tmp_path):
        cfg = EngineConfig(workers=4, cache_dir=tmp_path)
        run_sweep(_points(), cfg)
        again = run_sweep(_points(), cfg)
        assert again.stats["hit_rate"] == 1.0

    def test_sweep_points_carry_x_and_bound(self):
        res = run_sweep(_points(), EngineConfig())
        assert res.values == [float(n) for n in SIZES]
        assert all(p.bound is not None and p.measured >= p.bound for p in res.points)
        assert res.parameter == "n"

    def test_parameter_selection(self):
        """I/O vs M at n = 64: the M^{1−ω₀/2} decay of the fast bound."""
        points = [seq_io_point("strassen", 64, m) for m in (12, 48, 192, 768)]
        res = run_sweep(points, EngineConfig(), parameter="M")
        assert res.values == [12.0, 48.0, 192.0, 768.0]
        assert res.measured == sorted(res.measured, reverse=True)
        assert all(p.measured >= p.bound for p in res.points)

    def test_jsonl_output(self, tmp_path):
        path = tmp_path / "results.jsonl"
        res = run_sweep(_points(), EngineConfig(sweep_dir=tmp_path))
        loaded = load_results_jsonl(path)
        assert [r.fingerprint() for r in loaded] == [
            r.fingerprint() for r in res.runs
        ]

    def test_sweep_from_jsonl_round_trip(self, tmp_path):
        from repro.analysis.fitting import sweep_from_jsonl

        path = tmp_path / "results.jsonl"
        res = run_sweep(_points(), EngineConfig(sweep_dir=tmp_path))
        rebuilt = sweep_from_jsonl(path)
        assert rebuilt.measured == res.measured
        assert rebuilt.exponent == pytest.approx(res.exponent)

    def test_jsonl_tolerates_truncated_final_line(self, tmp_path):
        """A writer killed mid-line must not poison the stream: the
        truncated final line is skipped silently, not an exception."""
        path = tmp_path / "results.jsonl"
        res = run_sweep(_points(), EngineConfig(sweep_dir=tmp_path))
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "deadbeef", "kind": "seq_io", "par')  # no newline
        loaded = load_results_jsonl(path)
        assert [r.fingerprint() for r in loaded] == [
            r.fingerprint() for r in res.runs
        ]

    def test_jsonl_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_sweep(_points(), EngineConfig(sweep_dir=tmp_path))
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:20]  # corrupt a non-final line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(WALError):
            load_results_jsonl(path)

    def test_flipped_digit_mid_file_raises(self, tmp_path):
        """A flipped digit in a point's count leaves valid JSON: only the
        checksum keeps it from loading as a different measurement."""
        from repro.obs.manifest import MANIFEST_NAME, RunManifest

        sweep_dir = tmp_path / "sweep"
        run_sweep(_points(), EngineConfig(sweep_dir=sweep_dir))
        stream = sweep_dir / "results.jsonl"
        lines = stream.read_text().splitlines(keepends=True)
        digit = re.search(r'"io": ?(\d)', lines[1])
        flipped = "3" if digit.group(1) == "2" else "2"
        lines[1] = lines[1][: digit.start(1)] + flipped + lines[1][digit.end(1):]
        stream.write_text("".join(lines))
        with pytest.raises(WALError, match="checksum mismatch at record 1"):
            load_results_jsonl(stream)
        with pytest.raises(WALError):
            RunManifest.load(sweep_dir / MANIFEST_NAME)

    def test_resume_after_torn_line_keeps_stream_readable(self, tmp_path):
        """A sweep killed mid-line and re-run into the same directory must
        not glue its next record onto the torn fragment."""
        from repro.obs import build_report, render_report
        from repro.obs.manifest import MANIFEST_NAME, RunManifest
        from repro.obs.report import load_sweep_runs

        sweep_dir = tmp_path / "sweep"
        cfg = EngineConfig(cache_dir=tmp_path / "cache", sweep_dir=sweep_dir)
        run_sweep(_points()[:2], cfg)
        stream = sweep_dir / "results.jsonl"
        with stream.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "deadbeef", "kind": "seq_io", "par')  # no newline
        with pytest.warns(RuntimeWarning, match="truncated final"):
            res = run_sweep(_points(), cfg)  # the resume reads the torn ledger
        assert res.stats["cache_hits"] == 2 and not res.failures

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no torn line left to skip
            assert len(load_results_jsonl(stream)) == 5  # 2 + 3 records
            assert len(load_sweep_runs(sweep_dir)) == 3
            ledger = RunManifest.load(sweep_dir / MANIFEST_NAME)["points"]
        assert sorted(e["status"] for e in ledger.values()) == ["ok"] * 3
        assert "fitted exponent" in render_report(build_report(sweep_dir))

    def test_jsonl_streams_incrementally(self, tmp_path, monkeypatch):
        """Each point's line is flushed as it completes, not at sweep end —
        verified by reading the file right after each point is recorded."""
        from repro.engine.core import _SweepRunner

        path = tmp_path / "results.jsonl"
        lines_at_done: list[int] = []
        record = _SweepRunner._record

        def recording(runner, index, run):
            record(runner, index, run)
            lines_at_done.append(
                len(path.read_text().splitlines()) if path.exists() else 0
            )

        monkeypatch.setattr(_SweepRunner, "_record", recording)
        run_sweep(_points(), EngineConfig(sweep_dir=tmp_path))
        assert lines_at_done == [1, 2, 3]

    def test_pooled_wall_time_is_per_point_not_pool_average(self):
        """submit-based dispatch measures wall time inside the worker, so
        per-point values are real (positive and not all identical)."""
        res = run_sweep(_points(), EngineConfig(workers=2))
        walls = [r.wall_time_s for r in res.runs]
        assert all(w > 0 for w in walls)
        assert len(set(walls)) == len(walls)

    def test_clean_sweep_reports_zeroed_fault_stats(self):
        res = run_sweep(_points(), EngineConfig(workers=2))
        for key in ("errors", "timeouts", "retries", "pool_rebuilds",
                    "failures", "degraded"):
            assert res.stats[key] == 0
        assert res.failures == []

    def test_run_results_default_ok_status(self):
        res = run_sweep(_points(), EngineConfig())
        assert all(r.status == "ok" and r.ok and r.error is None
                   for r in res.runs)
        round_tripped = [type(r).from_dict(r.to_dict()) for r in res.runs]
        assert [r.status for r in round_tripped] == ["ok"] * len(SIZES)


class TestTraceEvents:
    def test_machine_counters_in_trace(self):
        res = run_point(seq_io_point("strassen", 16, M))
        counters = res.trace["metrics"]["counters"]
        assert counters["machine.seq.loads"] > 0
        assert counters["machine.seq.store_words"] > 0
        # the registry's transfer words equal the machine's counted I/O;
        # replay points charge the skipped isomorphic sub-problems via
        # machine.seq.replay_words
        total = (
            counters["machine.seq.load_words"]
            + counters["machine.seq.store_words"]
            + counters.get("machine.seq.replay_words", 0)
        )
        assert total == res.metrics["io"]
        assert "events" not in res.trace

    def test_full_execution_trace_has_no_replay(self):
        res = run_point(seq_io_point("strassen", 16, M, replay=False))
        counters = res.trace["metrics"]["counters"]
        assert "machine.seq.replays" not in counters
        total = counters["machine.seq.load_words"] + counters["machine.seq.store_words"]
        assert total == res.metrics["io"]

    def test_pebble_trace_event(self):
        from repro.engine import segment_audit_point

        res = run_point(segment_audit_point("strassen", n=4, M=16))
        assert res.trace["metrics"]["counters"]["pebble.validated"] == 1

    def test_bsp_trace_event(self):
        res = run_point(parallel_comm_point(None, 8, 4))
        assert res.trace["metrics"]["counters"]["machine.bsp.supersteps"] > 0


class TestBackendSelection:
    def test_backend_omitted_keeps_cache_key_stable(self, strassen_alg):
        """``backend=None`` must not enter params: pre-redesign cache
        entries keyed without the field stay valid."""
        p0 = seq_io_point(strassen_alg, 16, M)
        p1 = seq_io_point(strassen_alg, 16, M, backend="vector")
        assert "backend" not in p0.params
        assert p1.params["backend"] == "vector"
        assert p0.key != p1.key

    def test_seq_io_backends_match_physical_run(self, strassen_alg):
        phys = run_point(seq_io_point(strassen_alg, 16, M))
        for backend in ("reference", "vector", "symbolic"):
            res = run_point(seq_io_point(strassen_alg, 16, M, backend=backend))
            assert res.metrics["io"] == phys.metrics["io"], backend
            assert res.metrics["peak_fast"] == phys.metrics["peak_fast"], backend

    def test_parallel_comm_backend_matches_physical_run(self, strassen_alg):
        phys = run_point(parallel_comm_point(strassen_alg, 16, 7, M=M))
        assert phys.metrics["local_io_per_proc"] > 0
        for backend in ("machine", "reference", "vector"):
            counted = run_point(
                parallel_comm_point(strassen_alg, 16, 7, M=M, backend=backend)
            )
            assert counted.metrics == phys.metrics, backend

    @pytest.mark.parametrize("backend", ["reference", "vector", "symbolic", "nonsense"])
    def test_summa_runs_on_machine_only(self, backend):
        """Never a silent fallback to the physical run."""
        from repro.schedule import BackendUnsupported

        error = KeyError if backend == "nonsense" else BackendUnsupported
        with pytest.raises(error):
            run_point(parallel_comm_point(None, 8, 4, backend=backend))

    @pytest.mark.parametrize("backend", [None, "reference", "vector", "symbolic"])
    @pytest.mark.parametrize("alg", ["strassen", None])
    def test_parallel_comm_rejects_zero_memory(self, alg, backend):
        P = 4 if alg is None else 7
        with pytest.raises(ValueError, match="M must be >= 1"):
            run_point(parallel_comm_point(alg, 16, P, M=0, backend=backend))

    def test_summa_memory_floor_is_five_blocks(self, tmp_path):
        """SUMMA's peak is A, B and C plus the broadcast blocks Ak and Bk:
        M = 5·(n/√P)² runs; one word less is refused by parallel_comm_point."""
        block = (16 // 2) ** 2
        assert run_point(parallel_comm_point(None, 16, 4, M=5 * block)).metrics[
            "comm_per_proc_max"] > 0
        sweep_dir = tmp_path / "sweep"
        with pytest.raises(ValueError, match=r"SUMMA needs M >= 5·\(n/√P\)² = 320"):
            run_sweep([parallel_comm_point(None, 16, 4, M=5 * block - 1)],
                      EngineConfig(sweep_dir=sweep_dir))
        assert not sweep_dir.exists()

    @pytest.mark.parametrize("n, P", [(16, 3), (16, 8), (15, 4), (16, 0)])
    def test_summa_rejects_bad_grid_at_build_time(self, n, P):
        from repro.schedule import parallel_comm_schedule

        with pytest.raises(ValueError, match="SUMMA needs"):
            parallel_comm_point(None, n, P)
        with pytest.raises(ValueError, match="SUMMA needs"):
            parallel_comm_schedule(None, n, P)


class TestAlgorithmSpecs:
    def test_corpus_algorithm_is_cacheable(self, tmp_path):
        """Arbitrary (non-registry) algorithms key by their coefficients."""
        from repro.algorithms import algorithm_corpus

        alg = algorithm_corpus(count=1, seed=3)[0]
        cfg = EngineConfig(cache_dir=tmp_path)
        first = run_point(seq_io_point(alg, 16, M), cfg)
        second = run_point(seq_io_point(alg, 16, M), cfg)
        assert second.cached
        assert second.metrics == first.metrics

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            run_point(seq_io_point("nonsense", 16, M))


class TestRetryBackoffJitter:
    def test_full_jitter_spread_and_bounds(self):
        import random

        from repro.engine import retry_delay_s

        rng = random.Random(7)
        cap = 4.0
        for attempt in (1, 2, 3, 6, 12):
            bound = min(cap, 0.5 * 2 ** (attempt - 1))
            samples = [
                retry_delay_s(0.5, attempt, cap=cap, rng=rng) for _ in range(500)
            ]
            assert all(0.0 <= s <= bound for s in samples)
            # full jitter: the draws actually spread over [0, bound]
            assert max(samples) > 0.75 * bound
            assert min(samples) < 0.25 * bound
            assert len(set(samples)) > 400

    def test_jitter_disabled_gives_deterministic_envelope(self):
        from repro.engine import retry_delay_s

        delays = [retry_delay_s(0.1, a, cap=30.0, jitter=False) for a in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.4, 0.8]

    def test_cap_bounds_every_attempt(self):
        from repro.engine import retry_delay_s

        assert retry_delay_s(1.0, 50, cap=2.0, jitter=False) == 2.0
        assert retry_delay_s(1.0, 50, cap=2.0) <= 2.0

    def test_zero_base_is_zero_delay(self):
        from repro.engine import retry_delay_s

        assert retry_delay_s(0.0, 3) == 0.0
