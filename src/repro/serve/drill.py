"""Chaos certification drill for the serve daemon.

``repro serve-drill`` runs three staged failure scenarios against *real*
daemon subprocesses (never mocks) and reports a pass/fail check matrix.
CI runs this as the ``serving`` job; docs/serving.md documents the
failure matrix these checks certify.

1. **Backpressure** — a daemon with a tiny queue and artificially slow
   executions (the ``delay`` fault) is hit with a burst of distinct
   points; at least one must be refused with HTTP 429 + a retry hint,
   and every *accepted* job must still be answered.
2. **Circuit breaker** — a ``crash`` fault kills the worker on the first
   execution of a poisoned point; the breaker (threshold 1) must trip,
   the retried execution must succeed on the degraded serial path (the
   fault is spent by then — a crash rule that stays live in serial mode
   would take the daemon itself down, which is exactly why degraded mode
   is a *fallback*, not a home), and after the cooldown a fresh point
   must be answered through the recovered pool (breaker closed again).
3. **Kill + restart, exactly-once** — a batch of jobs with
   client-chosen ids is submitted, the daemon is SIGKILLed mid-load,
   restarted on the same directory, and the batch is resubmitted with
   the same ids.  Every job must be answered, the WAL must contain
   exactly one terminal record per job id (zero lost, zero duplicated),
   and a replayed answer must bit-match a fresh local execution.

Each daemon runs in its own process group.  The kill takes the whole group
(daemon, pool workers, resource tracker), as a host crash would, and
stopping a daemon kills whatever is left of its group.  A drill starts
clean: it removes the fault counters and the scenario serve directories
an earlier drill left under the same ``--dir``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.engine.faults import ENV_VAR as FAULTS_ENV
from repro.engine.faults import FaultPlan, FaultRule
from repro.engine.wal import iter_records
from repro.serve.api import ServeClient, ServeError
from repro.serve.daemon import ENDPOINT_NAME, WAL_NAME

__all__ = ["run_drill"]

_STARTUP_TIMEOUT_S = 30.0
# what a drill writes under its --dir; removed at the start of each drill
_DRILL_DIRS = ("fault-counters", "backpressure", "breaker", "restart")


def _point(M: int, n: int = 16) -> dict:
    """A small, fast, distinct-by-M sequential-I/O point."""
    return {"kind": "seq_io",
            "params": {"alg": "strassen", "n": n, "M": M, "seed": 0,
                       "replay": True}}


def _spawn_daemon(serve_dir: Path, *, python: str, extra_flags: list[str],
                  fault_plan: FaultPlan | None = None) -> subprocess.Popen:
    try:
        (serve_dir / ENDPOINT_NAME).unlink()  # never discover a dead endpoint
    except FileNotFoundError:
        pass
    cmd = [
        python, "-m", "repro", "serve",
        "--dir", str(serve_dir),
        "--host", "127.0.0.1", "--port", "0",
        "--allow-remote-shutdown",
        *extra_flags,
    ]
    env = os.environ.copy()
    if fault_plan is not None:
        env[FAULTS_ENV] = fault_plan.to_env()
    else:
        env.pop(FAULTS_ENV, None)
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,  # its own group: pool workers die with it
    )


def _connect(serve_dir: Path, proc: subprocess.Popen) -> ServeClient:
    deadline = time.monotonic() + _STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited during startup (rc={proc.returncode}): "
                f"{proc.stderr.read().decode(errors='replace')[-2000:]}"
            )
        try:
            client = ServeClient.from_endpoint_file(serve_dir, wait_s=1.0)
            if client.healthz():
                return client
        except (OSError, json.JSONDecodeError):
            pass
        time.sleep(0.2)
    raise RuntimeError("daemon did not become healthy in time")


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the daemon's whole process group and reap the daemon."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group is already gone
    proc.wait()


def _stop(proc: subprocess.Popen, client: ServeClient | None = None) -> None:
    if client is not None:
        try:
            client.shutdown()
        except Exception:
            pass
        client.close()
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
    _kill_group(proc)  # whatever outlived the daemon: workers, tracker


# --------------------------------------------------------------------- #
# scenarios
# --------------------------------------------------------------------- #
def _drill_backpressure(base: Path, python: str, checks: dict, details: dict,
                        faults_dir: Path) -> None:
    serve_dir = base / "backpressure"
    plan = FaultPlan(
        rules=[FaultRule(mode="delay", kind="seq_io", times=10_000, delay_s=0.4)],
        dir=str(faults_dir / "backpressure"),
    )
    proc = _spawn_daemon(
        serve_dir, python=python, fault_plan=plan,
        extra_flags=["--workers", "1", "--queue-depth", "2",
                     "--retry-after", "0.5", "--wal-sync", "batch"],
    )
    client = None
    try:
        client = _connect(serve_dir, proc)
        accepted, rejected = [], 0
        retry_hint_ok = True
        for i in range(10):
            try:
                resp = client.point(**_point(M=40 + 2 * i))
                if "job_id" in resp:
                    accepted.append(resp["job_id"])
            except ServeError as exc:
                if exc.status == 429:
                    rejected += 1
                    retry_hint_ok &= exc.payload.get("retry_after_s", 0) > 0
                else:
                    raise
        answered = 0
        for jid in accepted:
            info = client.wait_for_job(jid, timeout=60)
            answered += int(info.get("result", {}).get("status") == "ok")
        status = client.status()
        checks["backpressure_429_seen"] = rejected > 0
        checks["backpressure_retry_hint"] = retry_hint_ok
        checks["backpressure_accepted_all_answered"] = answered == len(accepted)
        checks["backpressure_metrics_counted"] = status["rejected"] == rejected
        details["backpressure"] = {
            "accepted": len(accepted), "rejected": rejected, "answered": answered,
        }
    finally:
        _stop(proc, client)


def _drill_breaker(base: Path, python: str, checks: dict, details: dict,
                   faults_dir: Path) -> None:
    serve_dir = base / "breaker"
    poisoned_M = 37
    plan = FaultPlan(
        rules=[FaultRule(mode="crash", kind="seq_io",
                         params={"M": poisoned_M}, times=1)],
        dir=str(faults_dir / "breaker"),
    )
    proc = _spawn_daemon(
        serve_dir, python=python, fault_plan=plan,
        extra_flags=["--workers", "2", "--breaker-threshold", "1",
                     "--breaker-cooldown", "2.0", "--wal-sync", "batch"],
    )
    client = None
    try:
        client = _connect(serve_dir, proc)
        # first execution crashes the worker; the retry runs on the
        # degraded serial path (breaker open) with the fault spent
        resp = client.point(**_point(M=poisoned_M), wait_s=90)
        survived = resp.get("result", {}).get("status") == "ok"
        status = client.status()
        tripped = status["breaker"]["trips"] >= 1
        degraded = status["degraded_executions"] >= 1
        time.sleep(2.5)  # past the cooldown: the pool gets its probe back
        probe = client.point(**_point(M=52), wait_s=90)
        recovered = probe.get("result", {}).get("status") == "ok"
        closed = client.status()["breaker"]["state"] == "closed"
        checks["breaker_tripped"] = tripped
        checks["breaker_degraded_execution"] = degraded
        checks["breaker_poisoned_point_survived"] = survived
        checks["breaker_recovered_closed"] = recovered and closed
        details["breaker"] = {
            "status": status["breaker"],
            "degraded_executions": status["degraded_executions"],
            "pool_broken": status["pool_broken"],
        }
    finally:
        _stop(proc, client)


def _drill_kill_restart(base: Path, python: str, checks: dict, details: dict,
                        faults_dir: Path) -> None:
    serve_dir = base / "restart"
    plan = FaultPlan(  # slow every execution so the kill lands mid-load
        rules=[FaultRule(mode="delay", kind="seq_io", times=10_000, delay_s=0.3)],
        dir=str(faults_dir / "restart"),
    )
    flags = ["--workers", "2", "--queue-depth", "64", "--wal-sync", "always"]
    proc = _spawn_daemon(serve_dir, python=python, fault_plan=plan,
                         extra_flags=flags)
    client = None
    job_ids = [f"drill-{i}" for i in range(8)]
    points = {jid: _point(M=60 + 2 * i) for i, jid in enumerate(job_ids)}
    try:
        client = _connect(serve_dir, proc)
        for jid in job_ids:
            client.point(**points[jid], job_id=jid)
        time.sleep(1.0)  # let some jobs finish, leave others in flight
        _kill_group(proc)
        client.close()

        proc = _spawn_daemon(serve_dir, python=python, fault_plan=plan,
                             extra_flags=flags)
        client = _connect(serve_dir, proc)
        replayed = client.status()["wal_replayed"]
        # idempotent resubmission: same ids, no duplicates admitted
        for jid in job_ids:
            client.point(**points[jid], job_id=jid)
        results = {jid: client.wait_for_job(jid, timeout=120) for jid in job_ids}
        all_ok = all(
            r.get("result", {}).get("status") == "ok" for r in results.values()
        )
        done_counts = {jid: 0 for jid in job_ids}
        for record in iter_records(serve_dir / WAL_NAME):
            if record.get("type") == "done" and record.get("id") in done_counts:
                done_counts[record["id"]] += 1
        exactly_once = all(c == 1 for c in done_counts.values())

        # a served answer must bit-match a fresh local execution
        from repro.engine import EngineConfig, ExperimentPoint, run_point

        probe_id = job_ids[0]
        local = run_point(
            ExperimentPoint.from_dict(points[probe_id]), EngineConfig()
        )
        served = results[probe_id]["result"]["metrics"]
        checks["restart_all_answered"] = all_ok
        checks["restart_exactly_once"] = exactly_once
        checks["restart_wal_replayed"] = replayed >= 0  # informational floor
        checks["restart_answers_match_local"] = served == local.metrics
        details["restart"] = {
            "replayed": replayed,
            "done_counts": done_counts,
            "states": {jid: r.get("state") for jid, r in results.items()},
        }
    finally:
        _stop(proc, client)


def run_drill(base_dir: str | Path, python: str = sys.executable) -> dict:
    """Run every scenario; returns ``{"ok", "checks", "details"}``."""
    base = Path(base_dir)
    base.mkdir(parents=True, exist_ok=True)
    for name in _DRILL_DIRS:  # spent fault counters, an old run's WALs
        shutil.rmtree(base / name, ignore_errors=True)
    faults_dir = base / "fault-counters"
    checks: dict[str, bool] = {}
    details: dict = {}
    for scenario in (_drill_backpressure, _drill_breaker, _drill_kill_restart):
        try:
            scenario(base, python, checks, details, faults_dir)
        except Exception as exc:
            name = scenario.__name__.removeprefix("_drill_")
            checks[f"{name}_completed"] = False
            details[name] = {"error": f"{type(exc).__name__}: {exc}"}
    return {"ok": all(checks.values()) and len(checks) > 0,
            "checks": checks, "details": details}
