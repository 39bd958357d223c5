"""Logs written while every trace also carried the derived
``trace["events"]`` view (beside ``trace["metrics"]``), and before
``results.jsonl`` lines carried a checksum, keep loading: the manifest
folds them, ``repro report`` renders them and the fitting layer reads
them — with no loader code for the retired view — also after a resume
appended checksummed lines to the same file.

``legacy_results.jsonl`` holds two ``results.jsonl`` lines verbatim as a
``repro sweep 8 16 --M 48 --sweep-dir DIR`` wrote them then.
"""

import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.fitting import sweep_from_jsonl
from repro.cli import main
from repro.engine import EngineConfig, load_results_jsonl, run_sweep, seq_io_point
from repro.obs.manifest import MANIFEST_NAME, RunManifest

LEGACY = Path(__file__).with_name("legacy_results.jsonl")


@pytest.fixture
def legacy_sweep(tmp_path):
    """A sweep dir: a pending ledger for the legacy keys plus their log."""
    records = [json.loads(line) for line in LEGACY.read_text().splitlines()]
    assert all(set(r["trace"]) == {"events", "metrics"} for r in records)
    points = [SimpleNamespace(key=r["key"], kind=r["kind"], params=r["params"])
              for r in records]
    RunManifest(tmp_path).start({}, "n", [(p, p.key) for p in points])
    shutil.copy(LEGACY, tmp_path / "results.jsonl")
    return tmp_path, records


def test_manifest_folds_legacy_lines(legacy_sweep):
    sweep_dir, records = legacy_sweep
    points = RunManifest.load(sweep_dir / MANIFEST_NAME)["points"]
    assert {k: e["status"] for k, e in points.items()} == {
        r["key"]: "ok" for r in records
    }


def test_report_renders_legacy_lines(legacy_sweep, capsys):
    sweep_dir, _ = legacy_sweep
    assert main(["report", str(sweep_dir)]) == 0
    out = capsys.readouterr().out
    assert "ledger: 2 ok" in out
    assert "fitted exponent: **3.305**" in out


def test_fitting_reads_legacy_lines(legacy_sweep):
    sweep_dir, records = legacy_sweep
    sweep = sweep_from_jsonl(sweep_dir / "results.jsonl")
    assert [p.measured for p in sweep.points] == [1200.0, 11856.0]
    assert sweep.exponent == pytest.approx(3.3045, abs=1e-4)
    # the trace is kept as written, the retired view included
    runs = load_results_jsonl(sweep_dir / "results.jsonl")
    assert [run.trace for run in runs] == [r["trace"] for r in records]


def test_resume_appends_framed_lines_after_legacy_ones(legacy_sweep, capsys):
    sweep_dir, records = legacy_sweep
    stream = sweep_dir / "results.jsonl"
    run_sweep([seq_io_point("strassen", n, 48) for n in (8, 16, 32)],
              EngineConfig(sweep_dir=sweep_dir))
    framed = [not line.startswith(b"{") for line in stream.read_bytes().splitlines()]
    assert framed == [False, False, True, True, True]

    runs = load_results_jsonl(stream)
    assert [run.to_dict() for run in runs[:2]] == records
    assert [run.params["n"] for run in runs[2:]] == [8, 16, 32]
    points = RunManifest.load(sweep_dir / MANIFEST_NAME)["points"]
    assert {k: e["status"] for k, e in points.items()} == {
        run.key: "ok" for run in runs
    }
    assert main(["report", str(sweep_dir)]) == 0
    assert "ledger: 5 ok" in capsys.readouterr().out
