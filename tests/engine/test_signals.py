"""Graceful SIGTERM/SIGINT drain of ``run_sweep`` (real signals, real process).

The sweep must not die mid-write when the operator (or an orchestrator
like the serve daemon's supervisor, or CI's timeout) terminates it: it
flushes the JSONL checkpoint and the manifest, marks what never ran as
``skipped``, and a re-run resumes from cache with zero recomputation.
"""

import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import EngineConfig, run_sweep, seq_io_point
from repro.obs.manifest import RunManifest, validate_manifest

M = 48

_DRIVER = """
import sys
from repro.engine import EngineConfig, run_sweep, seq_io_point
from repro.engine.faults import FaultPlan, FaultRule
import os, json

sweep_dir, cache_dir, faults_dir = sys.argv[1], sys.argv[2], sys.argv[3]
plan = FaultPlan(
    rules=[FaultRule(mode="delay", kind="seq_io", params={"n": 32},
                     times=1, delay_s=60.0)],
    dir=faults_dir,
)
os.environ["REPRO_FAULTS"] = plan.to_env()
points = [seq_io_point("strassen", n, 48) for n in (8, 16, 32)]
res = run_sweep(points, EngineConfig(
    workers=2, cache_dir=cache_dir, sweep_dir=sweep_dir, max_retries=1,
))
print(json.dumps({"interrupted": res.stats.get("interrupted"),
                  "ok": len(res.points),
                  "failures": [[r.status, r.params.get("n")] for r in res.failures]}))
"""


def _wait_for_ok_points(manifest_path: Path, want: int, timeout: float = 120.0) -> None:
    """Poll the folded ledger (manifest + checkpoint stream) until ``want``
    points read ``ok``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a line may be mid-write
                points = RunManifest.load(manifest_path)["points"]
            done = sum(1 for p in points.values() if p.get("status") == "ok")
            if done >= want:
                return
        except (FileNotFoundError, json.JSONDecodeError):
            pass
        time.sleep(0.1)
    raise TimeoutError(f"never saw {want} ok points in {manifest_path}")


def _start_driver(tmp_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    return subprocess.Popen(
        [sys.executable, "-c", _DRIVER, str(tmp_path / "sweep"),
         str(tmp_path / "cache"), str(tmp_path / "faults")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # its own process group, pool workers too
    )


@pytest.mark.slow
def test_sigterm_mid_sweep_drains_cleanly_and_resumes(tmp_path):
    sweep_dir = tmp_path / "sweep"
    cache_dir = tmp_path / "cache"
    proc = _start_driver(tmp_path)
    try:
        # n=8 and n=16 finish fast; n=32 is held asleep by the delay fault
        _wait_for_ok_points(sweep_dir / "manifest.json", want=2)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    except BaseException:
        proc.kill()
        raise

    # the drain is an orderly return, not a crash
    assert proc.returncode == 0, err
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["interrupted"] == 1.0
    assert summary["ok"] == 2
    assert ["skipped", 32] in summary["failures"]

    # the flushed manifest is valid and carries the full taxonomy
    data = RunManifest.load(sweep_dir / "manifest.json")
    assert validate_manifest(data) == []
    statuses = sorted(p["status"] for p in data["points"].values())
    assert statuses == ["ok", "ok", "skipped"]

    # checkpoint stream flushed too: every completed point is replayable
    lines = (sweep_dir / "results.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3  # 2 ok + 1 skipped record

    # a re-run resumes from cache: the survivors are hits, the victim runs
    points = [seq_io_point("strassen", n, M) for n in (8, 16, 32)]
    res = run_sweep(points, EngineConfig(cache_dir=cache_dir))
    assert not res.failures and len(res.points) == 3
    cached = {int(p.x): p.run.cached for p in res.points}
    assert cached[8] and cached[16] and not cached[32]


@pytest.mark.slow
def test_sigkill_mid_sweep_leaves_a_foldable_ledger_and_resumes(tmp_path):
    """kill -9 gets no drain: no skipped records, no finish() write.  The
    ledger must still read what finished — folded from the checkpoint
    stream over the pending rows written at start."""
    sweep_dir = tmp_path / "sweep"
    cache_dir = tmp_path / "cache"
    proc = _start_driver(tmp_path)
    try:
        _wait_for_ok_points(sweep_dir / "manifest.json", want=2)
    finally:
        # the driver and its pool workers, which would otherwise sleep on
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGKILL

    data = RunManifest.load(sweep_dir / "manifest.json")
    assert validate_manifest(data) == []
    assert "stats" not in data  # the end-of-sweep write never happened
    by_n = {p["params"]["n"]: p["status"] for p in data["points"].values()}
    assert by_n == {8: "ok", 16: "ok", 32: "pending"}

    assert main(["report", str(sweep_dir)]) == 0

    points = [seq_io_point("strassen", n, M) for n in (8, 16, 32)]
    res = run_sweep(points, EngineConfig(cache_dir=cache_dir))
    assert not res.failures and len(res.points) == 3
    assert res.stats["cache_hits"] == 2 and res.stats["cache_misses"] == 1
    assert not {int(p.x): p.run.cached for p in res.points}[32]


def test_handlers_restored_after_sweep():
    before = signal.getsignal(signal.SIGTERM)
    run_sweep([seq_io_point("strassen", 8, M)], EngineConfig())
    assert signal.getsignal(signal.SIGTERM) is before
