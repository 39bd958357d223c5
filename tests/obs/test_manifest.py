"""RunManifest lifecycle, ledger fold, merge-on-rerun, and schema validation."""

import json

import pytest

from repro.analysis.results import RunResult
from repro.engine.runners import seq_io_point
from repro.obs.manifest import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    RunManifest,
    validate_manifest,
)


def _run(point, **fields) -> RunResult:
    fields = {"metrics": {"io": 1.0}, **fields}
    return RunResult(key=point.key, kind=point.kind, params=dict(point.params),
                     **fields)


def _keyed(points) -> list:
    return [(p, p.key) for p in points]


def _append(stream, run: RunResult) -> None:
    with stream.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(run.to_dict(), sort_keys=True) + "\n")


def _minimal_manifest() -> dict:
    return {
        "schema": MANIFEST_SCHEMA,
        "created_at": 1.0,
        "updated_at": 2.0,
        "code_version": "abc",
        "git_sha": None,
        "host": {"platform": "x", "python": "3", "hostname": "h"},
        "config": {},
        "parameter": "n",
        "points": {},
        "metrics": {},
    }


class TestLifecycle:
    def test_start_writes_pending_ledger(self, tmp_path):
        points = [seq_io_point("strassen", n, 48) for n in (8, 16)]
        man = RunManifest(tmp_path)
        man.start({"workers": 0}, "n", _keyed(points))
        data = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert data["schema"] == MANIFEST_SCHEMA
        assert data["parameter"] == "n"
        assert data["config"] == {"workers": 0}
        assert set(data["points"]) == {p.key for p in points}
        assert all(e["status"] == "pending" for e in data["points"].values())
        assert validate_manifest(data) == []

    def test_load_folds_checkpoint_stream(self, tmp_path):
        """The on-disk ledger stays pending; load folds results.jsonl."""
        point = seq_io_point("strassen", 8, 48)
        man = RunManifest(tmp_path)
        man.start({}, "n", _keyed([point]))
        _append(tmp_path / "results.jsonl", _run(point, wall_time_s=0.25))
        on_disk = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert on_disk["points"][point.key]["status"] == "pending"
        entry = RunManifest.load(tmp_path / MANIFEST_NAME)["points"][point.key]
        assert entry["status"] == "ok"
        assert entry["attempts"] == 1
        assert entry["wall_time_s"] == 0.25

    def test_fold_last_record_wins_and_counts_attempts(self, tmp_path):
        point = seq_io_point("strassen", 8, 48)
        man = RunManifest(tmp_path)
        man.start({}, "n", _keyed([point]))
        stream = tmp_path / "results.jsonl"
        _append(stream, _run(point))
        _append(stream, _run(point, status="error", metrics={},
                             error={"type": "E", "message": "", "attempts": 3}))
        entry = RunManifest.load(tmp_path / MANIFEST_NAME)["points"][point.key]
        assert entry["status"] == "error"
        assert entry["attempts"] == 3

    def test_fold_ignores_keys_outside_the_ledger(self, tmp_path):
        """A sweep dir reused by a different sweep keeps the earlier
        sweep's records in its log; only this sweep's points fold."""
        mine, other = (seq_io_point("strassen", n, 48) for n in (8, 16))
        stream = tmp_path / "sweep" / "results.jsonl"
        man = RunManifest(tmp_path / "sweep")
        man.start({"sweep_dir": str(tmp_path / "sweep")}, "n", _keyed([mine]))
        _append(stream, _run(other))
        _append(stream, _run(mine))
        points = RunManifest.load(tmp_path / "sweep" / MANIFEST_NAME)["points"]
        assert set(points) == {mine.key}
        assert points[mine.key]["status"] == "ok"

    def test_moved_directory_folds_its_own_stream(self, tmp_path):
        point = seq_io_point("strassen", 8, 48)
        man = RunManifest(tmp_path / "a")
        man.start({"sweep_dir": str(tmp_path / "a")}, "n", _keyed([point]))
        _append(tmp_path / "a" / "results.jsonl", _run(point))
        (tmp_path / "a").rename(tmp_path / "b")
        points = RunManifest.load(tmp_path / "b" / MANIFEST_NAME)["points"]
        assert points[point.key]["status"] == "ok"

    def test_finish_attaches_stats_and_metrics(self, tmp_path):
        man = RunManifest(tmp_path)
        man.start({}, "n", [])
        man.finish({"points": 0}, {"counters": {"engine.cache.hits": 3}})
        data = RunManifest.load(tmp_path / MANIFEST_NAME)
        assert data["stats"] == {"points": 0}
        assert data["metrics"]["counters"]["engine.cache.hits"] == 3

    def test_rerun_merges_keeps_ok_entries(self, tmp_path):
        """Re-running into the same directory must not lose finished work."""
        p1 = seq_io_point("strassen", 8, 48)
        p2 = seq_io_point("strassen", 16, 48)
        man = RunManifest(tmp_path)
        man.start({}, "n", _keyed([p1]))
        _append(tmp_path / "results.jsonl", _run(p1, wall_time_s=0.5))
        # second sweep into the same directory, superset of points; the
        # earlier run was killed before its finish() write
        man2 = RunManifest(tmp_path)
        man2.start({}, "n", _keyed([p1, p2]))
        data = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert data["points"][p1.key]["status"] == "ok"  # survived the merge
        assert data["points"][p2.key]["status"] == "pending"

    def test_write_leaves_no_temp_droppings(self, tmp_path):
        man = RunManifest(tmp_path)
        man.start({}, "n", [])
        assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_NAME]


class TestValidation:
    def test_minimal_manifest_is_valid(self):
        assert validate_manifest(_minimal_manifest()) == []

    def test_non_dict_rejected(self):
        assert validate_manifest([1, 2]) != []

    def test_wrong_schema_string(self):
        bad = {**_minimal_manifest(), "schema": "nope/9"}
        assert any("schema" in p for p in validate_manifest(bad))

    def test_missing_field(self):
        bad = _minimal_manifest()
        del bad["code_version"]
        assert any("code_version" in p for p in validate_manifest(bad))

    def test_wrong_field_type(self):
        bad = {**_minimal_manifest(), "points": []}
        assert any("points" in p for p in validate_manifest(bad))

    def test_ledger_entry_unknown_status(self):
        bad = _minimal_manifest()
        bad["points"]["k"] = {
            "kind": "seq_io", "params": {}, "status": "exploded",
            "attempts": 1, "cached": False, "wall_time_s": 0.0,
        }
        assert any("exploded" in p for p in validate_manifest(bad))

    def test_ledger_entry_missing_field(self):
        bad = _minimal_manifest()
        bad["points"]["k"] = {"kind": "seq_io"}
        assert any("missing" in p for p in validate_manifest(bad))

    def test_load_raises_on_invalid(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text(json.dumps({"schema": "wrong"}))
        with pytest.raises(ValueError, match="invalid sweep manifest"):
            RunManifest.load(path)

    def test_load_raises_on_torn_json(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text('{"schema": "repro.sweep-')
        with pytest.raises(json.JSONDecodeError):
            RunManifest.load(path)
