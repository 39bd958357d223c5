"""`repro report`: builder, renderer (golden output), and CLI plumbing."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.manifest import MANIFEST_SCHEMA, RunManifest, validate_manifest
from repro.obs.report import build_report, load_sweep_runs, render_report

GOLDEN = Path(__file__).with_name("golden_report.md")


def make_fixture_sweep(sweep_dir: Path) -> None:
    """A hand-built, fully deterministic sweep directory.

    Two ok seq_io points (n=8 cached, n=16 executed), one executed point
    carrying LRU simulator metrics, one permanent failure, and a hybrid
    cutoff sweep (ℓ = 0, 1, 2 at n=16, M=48, minimum at ℓ=1) — enough to
    exercise every report section, including Constants, with fixed
    numbers.
    """
    sweep_dir.mkdir(parents=True, exist_ok=True)
    runs = [
        {
            "key": "aaaa000000000001", "kind": "seq_io",
            "params": {"alg": "strassen", "n": 8, "M": 48},
            "metrics": {"io": 64.0, "bound": 32.0},
            "cached": True, "wall_time_s": 0.0, "status": "ok",
            "trace": {"metrics": {"counters": {
                "machine.lru.hits": 40, "machine.lru.misses": 8,
                "machine.lru.writebacks": 2,
            }}},
        },
        {
            "key": "aaaa000000000002", "kind": "seq_io",
            "params": {"alg": "strassen", "n": 16, "M": 48},
            "metrics": {"io": 512.0, "bound": 128.0},
            "cached": False, "wall_time_s": 0.5, "status": "ok",
            "trace": {"metrics": {"counters": {
                "machine.lru.hits": 50, "machine.lru.misses": 2,
                "machine.lru.writebacks": 2,
            }}},
        },
        {
            "key": "aaaa000000000003", "kind": "seq_io",
            "params": {"alg": "strassen", "n": 32, "M": 48},
            "metrics": {}, "cached": False, "wall_time_s": 0.0,
            "status": "error", "trace": {},
            "error": {"type": "ValueError", "message": "boom", "attempts": 2},
        },
        {
            "key": "bbbb000000000001", "kind": "hybrid",
            "params": {"alg": "strassen", "n": 16, "M": 48, "cutoff": 0,
                       "leaf": "tiled"},
            "metrics": {"io": 2048.0, "bound": 128.0, "n_eff": 16.0},
            "cached": False, "wall_time_s": 0.03, "status": "ok", "trace": {},
        },
        {
            "key": "bbbb000000000002", "kind": "hybrid",
            "params": {"alg": "strassen", "n": 16, "M": 48, "cutoff": 1,
                       "leaf": "tiled"},
            "metrics": {"io": 1408.0, "bound": 128.0, "n_eff": 16.0},
            "cached": False, "wall_time_s": 0.02, "status": "ok", "trace": {},
        },
        {
            "key": "bbbb000000000003", "kind": "hybrid",
            "params": {"alg": "strassen", "n": 16, "M": 48, "cutoff": 2,
                       "leaf": "tiled"},
            "metrics": {"io": 1664.0, "bound": 128.0, "n_eff": 16.0},
            "cached": False, "wall_time_s": 0.01, "status": "ok", "trace": {},
        },
    ]
    with (sweep_dir / "results.jsonl").open("w") as fh:
        for run in runs:
            fh.write(json.dumps(run, sort_keys=True) + "\n")
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "created_at": 100.0,
        "updated_at": 200.0,
        "code_version": "cafecafecafecafe",
        "git_sha": None,
        "host": {"platform": "TestOS-1.0", "python": "3.11.0",
                 "hostname": "fixture"},
        "config": {"workers": 2, "profile": "wall"},
        "parameter": "n",
        "points": {
            r["key"]: {
                "kind": r["kind"], "params": r["params"], "status": r["status"],
                "attempts": (r.get("error") or {}).get("attempts", 1),
                "cached": r["cached"], "wall_time_s": r["wall_time_s"],
            }
            for r in runs
        },
        "metrics": {"counters": {
            "engine.cache.hits": 1, "engine.cache.misses": 2,
            "engine.errors": 2, "engine.retries": 1,
        }},
        "stats": {"points": 3, "failures": 1},
    }
    (sweep_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
    profiles = sweep_dir / "profiles"
    profiles.mkdir()
    (profiles / "aaaa000000000002.wall.json").write_text(
        json.dumps({"key": "aaaa000000000002", "wall_time_s": 0.5})
    )


class TestBuildReport:
    def test_fixture_report_fields(self, tmp_path):
        make_fixture_sweep(tmp_path)
        report = build_report(tmp_path)
        assert report["runs"] == {"total": 6, "ok": 5, "cached": 1, "failed": 1}
        # exponent of io ~ n^3 between (8, 64) and (16, 512); the hybrid
        # cutoff sweep is excluded from the exponent fit by design
        assert report["fit"]["exponent"] == pytest.approx(3.0)
        assert report["fit"]["fitted_points"] == 2
        assert report["fit"]["points"][1]["wall_time_s"] == 0.5
        assert report["cache"] == {
            "hits": 1, "misses": 2, "corrupt": 0,
            "hit_rate": pytest.approx(1 / 3),
        }
        assert report["lru"]["hits"] == 90
        assert report["lru"]["misses"] == 10
        assert report["lru"]["hit_rate"] == pytest.approx(0.9)
        assert report["faults"]["by_status"] == {"error": 1}
        assert report["faults"]["by_error_type"] == {"ValueError": 1}
        assert report["ledger"] == {
            "ok": 5, "pending": 0, "error": 1, "timeout": 0, "skipped": 0
        }
        assert [s["key"] for s in report["slowest"]] == [
            "aaaa000000000002",
            "bbbb000000000001",
            "bbbb000000000002",
            "bbbb000000000003",
        ]
        assert report["profiles"]["artifacts"] == ["aaaa000000000002.wall.json"]

    def test_constants_section_fits_and_crossover(self, tmp_path):
        """The Constants section: per-algorithm leading-constant fit plus
        the hybrid crossover table with the ℓ=1 minimum marked."""
        make_fixture_sweep(tmp_path)
        report = build_report(tmp_path)
        constants = report["constants"]
        (fit,) = constants["fits"]
        assert fit["algorithm"] == "strassen"
        assert fit["omega0"] == pytest.approx(2.8074, abs=1e-3)
        assert fit["points"] == 2
        assert fit["constant"] > 0
        assert fit["spread"] >= 1.0
        assert fit["reference"] is None  # Smith's c=2 is classical-only
        rows = constants["crossover"]
        assert [(r["cutoff"], r["io"]) for r in rows] == [
            (0, 2048.0), (1, 1408.0), (2, 1664.0)
        ]
        assert [r["best"] for r in rows] == [False, True, False]
        rendered = render_report(report)
        assert "## Constants" in rendered
        assert "### Hybrid crossover" in rendered
        assert "2n^3/sqrt(M)" in rendered

    def test_constants_classical_group_carries_smith_reference(self, tmp_path):
        make_fixture_sweep(tmp_path)
        with (tmp_path / "results.jsonl").open("a") as fh:
            for key, n, io in (
                ("cccc000000000001", 8, 2.2 * 8**3 / 48**0.5),
                ("cccc000000000002", 16, 2.2 * 16**3 / 48**0.5),
            ):
                fh.write(json.dumps({
                    "key": key, "kind": "seq_io",
                    "params": {"alg": None, "n": n, "M": 48},
                    "metrics": {"io": io, "bound": io / 2.2, "n_eff": float(n)},
                    "cached": False, "wall_time_s": 0.001, "status": "ok",
                    "trace": {},
                }) + "\n")
        report = build_report(tmp_path)
        classical = next(
            f for f in report["constants"]["fits"] if f["algorithm"] == "classical"
        )
        assert classical["omega0"] == 3.0
        assert classical["reference"] == 2.0
        assert classical["constant"] == pytest.approx(2.2, rel=1e-6)
        assert classical["within_tol"] is True
        assert classical["spread"] == pytest.approx(1.0)

    def test_reference_omega0_from_alg_params(self, tmp_path):
        """The fit reference comes from the runs' own algorithm."""
        make_fixture_sweep(tmp_path)
        report = build_report(tmp_path)
        assert report["fit"]["algorithm"] == "strassen"
        assert report["fit"]["reference_omega0"] == pytest.approx(2.8074, abs=1e-3)

    def test_reference_omega0_non_strassen(self, tmp_path):
        """Satellite regression: a Laderman sweep directory reports
        ω₀ = 3·log₂₇ 23, not the old hardcoded log₂ 7."""
        make_fixture_sweep(tmp_path)
        raw = (tmp_path / "results.jsonl").read_text().replace(
            '"strassen"', '"laderman"'
        )
        (tmp_path / "results.jsonl").write_text(raw)
        report = build_report(tmp_path)
        assert report["fit"]["algorithm"] == "laderman"
        assert report["fit"]["reference_omega0"] == pytest.approx(2.8540, abs=1e-3)

    def test_reference_absent_for_mixed_algorithms(self, tmp_path):
        make_fixture_sweep(tmp_path)
        with (tmp_path / "results.jsonl").open("a") as fh:
            fh.write(json.dumps({
                "key": "aaaa000000000004", "kind": "seq_io",
                "params": {"alg": "winograd", "n": 64, "M": 48},
                "metrics": {"io": 4096.0, "bound": 512.0},
                "cached": False, "wall_time_s": 0.1, "status": "ok",
                "trace": {},
            }) + "\n")
        report = build_report(tmp_path)
        assert report["fit"]["algorithm"] is None
        assert report["fit"]["reference_omega0"] is None

    def test_jsonl_dedup_last_record_wins(self, tmp_path):
        make_fixture_sweep(tmp_path)
        rerun = {
            "key": "aaaa000000000003", "kind": "seq_io",
            "params": {"alg": "strassen", "n": 32, "M": 48},
            "metrics": {"io": 4096.0, "bound": 512.0},
            "cached": False, "wall_time_s": 1.5, "status": "ok", "trace": {},
        }
        with (tmp_path / "results.jsonl").open("a") as fh:
            fh.write(json.dumps(rerun, sort_keys=True) + "\n")
        runs = {r.key: r for r in load_sweep_runs(tmp_path)}
        assert len(runs) == 6
        assert runs["aaaa000000000003"].ok  # the re-run replaced the failure
        report = build_report(tmp_path)
        assert report["runs"]["failed"] == 0

    def test_not_a_sweep_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_report(tmp_path / "nothing-here")

    def test_manifestless_directory_still_reports(self, tmp_path):
        make_fixture_sweep(tmp_path)
        (tmp_path / "manifest.json").unlink()
        report = build_report(tmp_path)
        assert report["manifest"] is None
        assert report["ledger"] is None
        assert report["runs"]["total"] == 6


class TestGoldenOutput:
    def test_rendered_dashboard_matches_golden(self, tmp_path):
        """Full-dashboard pin: any rendering change must be deliberate."""
        make_fixture_sweep(tmp_path)
        rendered = render_report(build_report(tmp_path))
        expected = GOLDEN.read_text().replace("{SWEEP_DIR}", str(tmp_path))
        assert rendered == expected


class TestReportCli:
    def test_cli_renders_dashboard(self, tmp_path, capsys):
        make_fixture_sweep(tmp_path)
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fitted exponent: **3**" in out
        assert "1 hits / 2 misses / 0 corrupt" in out

    def test_cli_json_is_machine_readable(self, tmp_path, capsys):
        make_fixture_sweep(tmp_path)
        assert main(["report", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fit"]["exponent"] == pytest.approx(3.0)

    def test_cli_rejects_non_sweep_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "report:" in capsys.readouterr().err

    def test_cli_rejects_invalid_manifest(self, tmp_path, capsys):
        make_fixture_sweep(tmp_path)
        (tmp_path / "manifest.json").write_text('{"schema": "wrong"}')
        assert main(["report", str(tmp_path)]) == 2
        assert "invalid sweep manifest" in capsys.readouterr().err


class TestServeSection:
    def test_daemon_directory_reports_breaker_and_backpressure(self, tmp_path):
        """A serve dir (manifest written by the daemon) gets a Serving
        section with the admission, breaker, and backpressure counters."""
        from repro.serve import Daemon, QueueFull, ServeConfig

        d = Daemon(ServeConfig(serve_dir=tmp_path / "serve", workers=1,
                               queue_depth=1, wal_sync="off"))
        params = {"alg": "strassen", "n": 8, "M": 48, "seed": 0, "replay": True}
        d.submit("seq_io", params)
        with pytest.raises(QueueFull):
            d.submit("seq_io", dict(params, n=16))
        d._dispatch(d.queue.get(timeout=1.0))
        d.cached_answer("seq_io", params)  # one memory fast-path hit
        d._flush_manifest()

        report = build_report(tmp_path / "serve")
        serve = report["serve"]
        assert serve["submitted"] == 2
        assert serve["accepted"] == 1
        assert serve["rejected"] == 1
        assert serve["jobs_done"] == 1
        assert serve["cache_hits_mem"] == 1
        assert serve["breaker"]["state"] == "closed"
        # the job ledger is folded from the WAL, not kept in the manifest
        assert report["ledger"]["ok"] == 1
        assert sum(report["ledger"].values()) == 1

        rendered = render_report(report)
        assert "## Serving (daemon)" in rendered
        assert "1 rejected (backpressure)" in rendered
        assert "breaker closed" in rendered

    def test_plain_sweep_has_no_serve_section(self, tmp_path):
        make_fixture_sweep(tmp_path)
        report = build_report(tmp_path)
        assert report["serve"] is None
        assert "Serving" not in render_report(report)


class TestEndToEnd:
    def test_report_on_real_sweep_sources_metrics_registry(self, tmp_path):
        """The acceptance criterion: a fresh engine sweep's report shows
        per-point wall time, cache hit/miss counts, LRU hit rate, and the
        fitted exponent — all flowing out of MetricsRegistry snapshots."""
        from repro.engine import (
            EngineConfig,
            lru_trace_point,
            run_sweep,
            seq_io_point,
        )

        sweep_dir = tmp_path / "sweep"
        points = [seq_io_point(None, n, 48) for n in (8, 16, 32)]
        points += [lru_trace_point(n, 48) for n in (8, 16, 32)]
        config = EngineConfig(cache_dir=tmp_path / "cache", sweep_dir=sweep_dir)
        run_sweep(points, config)

        assert validate_manifest(RunManifest.load(sweep_dir / "manifest.json")) == []
        report = build_report(sweep_dir)
        assert report["cache"] == {
            "hits": 0, "misses": 6, "corrupt": 0, "hit_rate": 0.0
        }
        assert report["lru"]["hits"] > 0
        assert 0 < report["lru"]["hit_rate"] < 1
        assert report["fit"]["exponent"] == pytest.approx(3.0, abs=0.5)
        executed = [p for p in report["fit"]["points"] if not p["cached"]]
        assert len(executed) == 6
        assert all(p["wall_time_s"] > 0 for p in executed)

        run_sweep(points, config)  # second pass: all points cache-served
        report = build_report(sweep_dir)
        # the manifest carries the *latest* sweep's registry snapshot
        assert report["cache"]["hits"] == 6
        assert report["cache"]["misses"] == 0
        assert report["cache"]["hit_rate"] == 1.0

        rendered = render_report(report)
        for needle in ("fitted exponent", "LRU simulator", "engine result cache"):
            assert needle in rendered
