"""The serve daemon: a crash-safe job-queue front end for the engine.

:class:`Daemon` glues the serve subsystem together around the existing
execution machinery (:func:`repro.engine.runners.execute_point`, the
content-addressed :class:`~repro.engine.cache.ResultCache`, and the
engine's worker-pool :class:`~repro.engine.pool.Supervisor`):

* a **sync fast path** — a point whose answer is already cached is
  served inside the HTTP exchange, no WAL record, no queue (a request
  answered before it is acknowledged needs no recovery record);
* a :class:`~repro.serve.wal.WriteAheadLog` — every *asynchronously
  accepted* job is durably recorded before the client's 202, and every
  terminal answer is recorded before followers are released, so a
  SIGKILL + restart replays to exactly the accepted-but-unanswered set:
  zero lost, zero duplicated answers;
* a bounded :class:`~repro.serve.queue.JobQueue` — admission control;
  overload is refused at the door with a retry hint (HTTP 429);
* a :class:`~repro.serve.coalesce.Coalescer` — identical in-flight
  points execute once, followers ride the leader;
* the supervisor's :class:`~repro.engine.pool.CircuitBreaker` gate —
  ``breaker_threshold`` consecutive pool breaks trip it and execution
  degrades to in-process serial until a half-open probe proves the pool
  healthy again;
* per-job **deadline budgets** — an absolute instant past which the
  answer is worthless; expired jobs fail fast with ``timeout`` status,
  layered under ``EngineConfig.point_timeout_s``; the tighter of the two
  bounds every pooled execution (an in-process one, at ``workers`` ≤ 1
  or degraded, is only refused once its deadline has passed);
* **graceful drain** — SIGTERM/SIGINT stops admission (``/readyz`` goes
  503), lets in-flight work finish within ``DRAIN_TIMEOUT_S``, flushes
  the manifest and metrics, and leaves unfinished jobs in the WAL for
  the next incarnation.

The supervisor starts ``spawn`` workers: the daemon is heavily
multi-threaded and forking a multi-threaded process can deadlock the
child in a held lock.  ``REPRO_FAULTS`` reaches the workers with each
task, so the chaos drill can kill them.

A :func:`~repro.engine.runners.closed_form` job with no time limit runs
in its dispatcher thread: cheaper than a pool round trip, it never takes
the breaker's half-open probe or counts as degraded.  A job with a
deadline or ``point_timeout_s`` goes to the pool, where it can be killed.

Threading model: HTTP handler threads (admission + sync fast path),
``workers`` dispatcher threads (each feeds the shared pool or, degraded,
executes in-process), and one flusher thread (manifest + metrics +
endpoint heartbeat every ``FLUSH_INTERVAL_S``).
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.analysis.results import RunResult
from repro.engine.core import EngineConfig
from repro.engine.keys import point_key
from repro.engine.pool import CircuitBreaker, PoolVictim, Supervisor
from repro.engine.runners import closed_form, execute_point
from repro.engine.wal import WAL_SYNC_MODES, atomic_write
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.serve.coalesce import Coalescer
from repro.serve.queue import Job, JobQueue, QueueFull
from repro.serve import wal as _wal
from repro.serve.wal import WriteAheadLog

__all__ = ["ServeConfig", "Daemon", "DrainingError", "ENDPOINT_NAME", "WAL_NAME"]

ENDPOINT_NAME = "endpoint.json"
WAL_NAME = "serve.wal"

#: Upper bound on any blocking wait in daemon threads, so stop flags are
#: noticed promptly.
_POLL_S = 0.25

#: Size of the in-memory LRU fronting the disk cache on the sync fast path.
MEM_CACHE_ENTRIES = 4096

#: How many times one job survives a pool break or an execution timeout
#: of its own before being failed outright (a job lost to the kill of
#: another job's hung worker is re-queued free).
MAX_JOB_RETRIES = 2

#: Cadence of the flusher thread (manifest + metrics + WAL group commit
#: for ``wal_sync="batch"``).
FLUSH_INTERVAL_S = 1.0

#: How long a graceful shutdown waits for in-flight jobs.
DRAIN_TIMEOUT_S = 30.0


class DrainingError(RuntimeError):
    """The daemon is shutting down and no longer admits jobs."""


@dataclass
class ServeConfig:
    """Everything that shapes one daemon instance.

    serve_dir:
        Home for the WAL, ``endpoint.json``, the run manifest, and
        (through the embedded engine config, unless overridden) the
        result cache — the directory ``repro report`` consumes.
    host / port:
        Bind address; port 0 picks an ephemeral port, published in
        ``<serve_dir>/endpoint.json`` for discovery.
    engine:
        The :class:`~repro.engine.core.EngineConfig` supplying cache
        location/budget and ``point_timeout_s``.  ``cache_dir`` defaults
        to ``<serve_dir>/cache`` when unset.
    workers:
        Worker-pool width *and* dispatcher-thread count; 0 or 1 runs
        every job in-process (no pool, breaker effectively idle).
        Closed-form jobs without a time limit run in-process at any width.
    queue_depth / retry_after_s:
        Admission bound and the 429 ``Retry-After`` hint.
    wal_sync:
        WAL durability, one of :data:`~repro.engine.wal.WAL_SYNC_MODES`.
    breaker_threshold / breaker_cooldown_s:
        Circuit-breaker tuning (consecutive pool breaks to trip; seconds
        open before the half-open probe).
    allow_remote_shutdown:
        Expose ``POST /shutdown`` (tests and drills; a production
        daemon should be signalled instead).
    """

    serve_dir: str | Path = "serve"
    host: str = "127.0.0.1"
    port: int = 0
    engine: EngineConfig = field(default_factory=EngineConfig)
    workers: int = 2
    queue_depth: int = 256
    retry_after_s: float = 1.0
    wal_sync: str = "always"
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 5.0
    allow_remote_shutdown: bool = False

    def __post_init__(self) -> None:
        if self.wal_sync not in WAL_SYNC_MODES:
            raise ValueError(
                f"unknown wal_sync {self.wal_sync!r} (use one of {WAL_SYNC_MODES})"
            )
        if self.queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {self.queue_depth}")
        self.serve_dir = Path(self.serve_dir).expanduser()
        if self.engine.cache_dir is None:
            self.engine.cache_dir = self.serve_dir / "cache"

    def public_dict(self) -> dict:
        """JSON-safe fields (the manifest's ``config``), engine last."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("engine", "allow_remote_shutdown")}
        return out | {"serve_dir": str(self.serve_dir),
                      "engine": self.engine.public_dict()}


def _run_result(job: Job, metrics: dict, trace: dict, cached: bool,
                wall: float, status: str = "ok", error: dict | None = None) -> dict:
    return RunResult(
        key=job.key,
        kind=job.kind,
        params=dict(job.params),
        metrics=metrics,
        cached=cached,
        wall_time_s=wall,
        trace=trace,
        status=status,
        error=error,
    ).to_dict()


class Daemon:
    """The serve daemon.  Construct, :meth:`start`, :meth:`wait`/:meth:`stop`."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        config.serve_dir.mkdir(parents=True, exist_ok=True)
        self.metrics = MetricsRegistry()
        self.cache = config.engine.open_cache(registry=self.metrics)
        self.wal = WriteAheadLog(config.serve_dir / WAL_NAME, sync=config.wal_sync)
        self.queue = JobQueue(depth=config.queue_depth,
                              retry_after_s=config.retry_after_s)
        self.coalescer = Coalescer()
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            cooldown_s=config.breaker_cooldown_s,
        )
        self.pool = Supervisor(config.workers, self.breaker, self.metrics,
                               method="spawn")
        self.manifest = RunManifest(config.serve_dir)
        self.manifest.start(config.public_dict(), parameter="serve", points=[])
        self._manifest_lock = threading.Lock()

        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        # (submitted_at, id) of the terminal jobs in _jobs, oldest first
        self._terminal: list[tuple[float, str]] = []
        self._job_attempts: dict[str, int] = {}
        self._mem_cache: OrderedDict[str, dict] = OrderedDict()
        self._mem_lock = threading.Lock()

        self.draining = threading.Event()
        self._stopped = threading.Event()
        self._server = None
        self.started_at: float | None = None
        self.replayed = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> tuple[str, int]:
        """Replay the WAL, start dispatchers + HTTP; returns (host, port)."""
        from repro.serve.api import build_server

        self._replay()
        self.started_at = time.time()
        self._server = build_server(self, self.config.host, self.config.port)
        host, port = self._server.server_address[:2]
        loops = [(f"serve-dispatch-{i}", self._dispatch_loop, {})
                 for i in range(max(1, self.config.workers))]
        loops += [("serve-flush", self._flush_loop, {}),
                  ("serve-http", self._server.serve_forever,
                   {"poll_interval": _POLL_S})]
        for name, target, kwargs in loops:
            threading.Thread(target=target, kwargs=kwargs, name=name,
                             daemon=True).start()
        self._write_endpoint(host, port)
        return host, port

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only)."""
        def _drain(signum, frame):
            # flag only — everything heavy happens in wait() off the handler
            self.draining.set()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

    def wait(self) -> None:
        """Block until a drain is requested, then shut down cleanly."""
        while not self.draining.is_set():
            self.draining.wait(_POLL_S)
        self.stop()

    def stop(self) -> None:
        """Drain: refuse new work, finish in-flight, flush, persist."""
        if self._stopped.is_set():
            return
        self.draining.set()
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        busy = True
        while time.monotonic() < deadline:
            with self._jobs_lock:
                busy = any(j.state == "running" for j in self._jobs.values())
            if not busy and len(self.queue) == 0:
                break
            time.sleep(_POLL_S)
        self._stopped.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        # jobs still running lose their workers and stay pending in the WAL
        self.pool.close(clean=not busy)
        for job in self.queue.drain():
            # still pending in the WAL: the next incarnation replays it
            self.metrics.inc("serve.jobs.orphaned")
        self.wal.sync()
        self.wal.close()
        if self.cache is not None:
            self.cache.close()
        self._flush_manifest()
        try:
            (self.config.serve_dir / ENDPOINT_NAME).unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------ #
    # WAL replay / durability
    # ------------------------------------------------------------------ #
    def _replay(self) -> None:
        """Rebuild state from the WAL: answered jobs answerable, pending
        jobs re-queued exactly once, then compact."""
        ledger = self.wal.replay()
        pending: list[dict] = []
        for jid, entry in ledger.items():
            rec = entry["job"]
            job = Job(
                id=jid,
                kind=rec.get("kind", "?"),
                params=dict(rec.get("params", {})),
                key=rec.get("key", ""),
                deadline=rec.get("deadline"),
                submitted_at=rec.get("submitted_at", 0.0),
            )
            with self._jobs_lock:
                self._jobs[jid] = job
            if entry["status"] == "done":
                job.finish(entry["result"], state="done")
                self._retire([job])
            elif entry["status"] == "cancelled":
                job.state = "cancelled"
                job.done_event.set()
                self._retire([job])
            else:
                pending.append({"job": job, "into": entry["coalesced_into"],
                                "entry": entry})
        # leaders first, then followers, in original submission order
        pending.sort(key=lambda p: (p["into"] is not None,
                                    p["job"].submitted_at))
        for item in pending:
            job = item["job"]
            leader_id = item["into"]
            if leader_id is not None:
                leader_entry = ledger.get(leader_id)
                if leader_entry is not None and leader_entry["status"] == "done":
                    # the leader answered before the crash; hand the
                    # follower its copy and record it terminally
                    self._finish_job(job, dict(leader_entry["result"]),
                                     state="done", wal=True)
                    continue
            leader = self.coalescer.admit(job)
            if leader is None:
                self.queue.requeue(job, front=False)
            self.replayed += 1
            self.metrics.inc("serve.wal.replayed")
        self.wal.compact(self.wal.replay())

    def _finish_job(self, job: Job, result: dict, state: str | None = None,
                    wal: bool = True) -> None:
        """Terminal bookkeeping: WAL record first, then wake waiters."""
        if state is None:
            state = "done" if result.get("status") == "ok" else "failed"
        if wal:
            for done in (job, *job.followers):
                self.wal.append({"type": "done", "id": done.id, "result": result})
        job.finish(result, state=state)
        self._retire([job, *job.followers])
        self.coalescer.release(job)
        status = result.get("status", "ok")
        name = "serve.jobs.done" if status == "ok" else "serve.jobs.failed"
        self.metrics.inc(name, 1 + len(job.followers))
        if status == "timeout":
            self.metrics.inc("serve.jobs.expired")

    def _retire(self, jobs: list[Job]) -> None:
        """Forget the attempts of jobs that turned terminal and keep at
        most :data:`repro.serve.wal.KEEP_TERMINAL` terminal jobs
        answerable, evicting the oldest submitted first — the ones a
        compaction drops from the WAL.  An evicted id is unknown, as after
        a restart."""
        with self._jobs_lock:
            for job in jobs:
                self._job_attempts.pop(job.id, None)
                heapq.heappush(self._terminal, (job.submitted_at, job.id))
            while len(self._terminal) > _wal.KEEP_TERMINAL:
                self._jobs.pop(heapq.heappop(self._terminal)[1], None)

    # ------------------------------------------------------------------ #
    # admission (called from HTTP handler threads)
    # ------------------------------------------------------------------ #
    def lookup(self, job_id: str) -> Job | None:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def cached_answer(self, kind: str, params: dict) -> dict | None:
        """The sync fast path: answer from memory or disk, or None."""
        key = point_key(kind, params)
        with self._mem_lock:
            hit = self._mem_cache.get(key)
            if hit is not None:
                self._mem_cache.move_to_end(key)
                self.metrics.inc("serve.cache.hit.mem")
                return dict(hit)
        if self.cache is not None:
            payload = self.cache.get(key)
            if payload is not None:
                self.metrics.inc("serve.cache.hit.disk")
                result = RunResult(
                    key=key, kind=kind, params=dict(params),
                    metrics=payload["metrics"], cached=True,
                    wall_time_s=0.0, trace=payload.get("trace", {}),
                ).to_dict()
                self._mem_put(key, result)
                return result
        return None

    def _mem_put(self, key: str, result: dict) -> None:
        with self._mem_lock:
            self._mem_cache[key] = result
            self._mem_cache.move_to_end(key)
            while len(self._mem_cache) > MEM_CACHE_ENTRIES:
                self._mem_cache.popitem(last=False)

    def submit(self, kind: str, params: dict, deadline_s: float | None = None,
               job_id: str | None = None) -> Job:
        """Admit one job (the async path).  Raises :class:`QueueFull` when
        the queue is at depth and :class:`DrainingError` during shutdown.

        ``job_id`` makes resubmission idempotent: a client that got no
        acknowledgement can resubmit with the same id and receive the
        original job (answered or in-flight) instead of a duplicate.
        """
        if self.draining.is_set():
            raise DrainingError("daemon is draining")
        self.metrics.inc("serve.submitted")
        if job_id is not None:
            existing = self.lookup(job_id)
            if existing is not None:
                self.metrics.inc("serve.resubmitted")
                return existing
        now = time.time()
        job = Job(
            id=job_id or uuid.uuid4().hex,
            kind=kind,
            params=dict(params),
            key=point_key(kind, params),
            deadline=None if deadline_s is None else now + deadline_s,
            submitted_at=now,
        )
        leader = self.coalescer.admit(job)
        if leader is None:
            try:
                self.queue.put(job)
            except QueueFull:
                self.coalescer.release(job)
                self.metrics.inc("serve.rejected")
                raise
            self.metrics.inc("serve.accepted")
        else:
            self.metrics.inc("serve.coalesced")
        # Durability ordering: WAL after the queue admitted the job but
        # before the caller acknowledges it.  A crash in between loses a
        # job the client was never told about — acceptable; a crash any
        # time after the ack replays it.
        self.wal.append({
            "type": "submit", "id": job.id, "kind": job.kind,
            "params": job.params, "key": job.key, "deadline": job.deadline,
            "submitted_at": job.submitted_at,
        })
        if leader is not None:
            self.wal.append({"type": "coalesce", "id": job.id, "into": leader.id})
        with self._jobs_lock:
            self._jobs[job.id] = job
        depth = len(self.queue)
        self.metrics.gauge_set("serve.queue.depth", depth)
        self.metrics.gauge_max("serve.queue.peak", depth)
        return job

    # ------------------------------------------------------------------ #
    # dispatch (worker threads)
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while not self._stopped.is_set():
            job = self.queue.get(timeout=_POLL_S)
            self.metrics.gauge_set("serve.queue.depth", len(self.queue))
            if job is None:
                if self.draining.is_set():
                    return
                continue
            try:
                self._dispatch(job)
            except Exception as exc:  # never let a dispatcher die silently
                self.metrics.inc("serve.dispatch.errors")
                self._fail_job(job, exc, self._job_attempts.get(job.id, 0))

    def _budget_s(self, job: Job) -> float | None:
        """Tightest applicable limit: deadline remainder vs point timeout."""
        limits = []
        remaining = job.remaining_s()
        if remaining is not None:
            limits.append(remaining)
        if self.config.engine.point_timeout_s is not None:
            limits.append(self.config.engine.point_timeout_s)
        return min(limits) if limits else None

    def _dispatch(self, job: Job) -> None:
        remaining = job.remaining_s()
        if remaining is not None and remaining <= 0:
            self._finish_job(job, _run_result(
                job, {}, {}, False, 0.0, status="timeout",
                error={"type": "DeadlineExceeded",
                       "message": "deadline expired before execution",
                       "attempts": 0},
            ))
            return
        # a just-finished leader for the same key may have filled the cache
        cached = self.cached_answer(job.kind, job.params)
        if cached is not None:
            self._finish_job(job, cached)
            return
        if self._budget_s(job) is None and closed_form(job.kind, job.params):
            # cheaper here than a pool round trip; never the breaker's probe
            self._execute_serial(job)
            return
        use_pool = (
            self.config.workers > 1
            and not self._stopped.is_set()
            and self.breaker.allow()
        )
        self.metrics.gauge_set(
            "serve.breaker.open", 0.0 if self.breaker.state == "closed" else 1.0
        )
        if use_pool:
            self._execute_pooled(job)
        else:
            if self.config.workers > 1:
                self.metrics.inc("serve.degraded.executions")
            self._execute_serial(job)

    def _complete(self, job: Job, metrics: dict, trace: dict, wall: float) -> None:
        if self.cache is not None:
            self.cache.put(job.key, {"kind": job.kind, "params": job.params,
                                     "metrics": metrics, "trace": trace})
        result = _run_result(job, metrics, trace, False, wall)
        self._mem_put(job.key, dict(result, cached=True))
        self.metrics.observe("serve.job.wall_ms", wall * 1000.0)
        self._finish_job(job, result)

    def _retry_or_fail(self, job: Job, status: str, err_type: str,
                       message: str) -> None:
        attempts = self._job_attempts.get(job.id, 0) + 1
        self._job_attempts[job.id] = attempts
        expired = job.remaining_s() is not None and job.remaining_s() <= 0
        if attempts <= MAX_JOB_RETRIES and not expired:
            self.metrics.inc("serve.jobs.retried")
            self.queue.requeue(job, front=False)
            return
        self._finish_job(job, _run_result(
            job, {}, {}, False, 0.0, status=status,
            error={"type": err_type, "message": message, "attempts": attempts},
        ))

    def _execute_pooled(self, job: Job) -> None:
        budget = self._budget_s(job)
        try:
            future = self.pool.submit(job.spec, None)
            metrics, trace, wall = self.pool.result(future, timeout=budget)
        except PoolVictim:
            # lost to the kill of another job's hung worker: not its fault
            self.queue.requeue(job)
            return
        except FutureTimeout:
            # a worker is hung past every budget: kill it, charge the job
            self.pool.kill(future)
            self._retry_or_fail(job, "timeout", "TimeoutError",
                                f"execution exceeded budget of {budget:.3f}s")
            return
        except BrokenProcessPool as exc:
            self._retry_or_fail(job, "error", type(exc).__name__, str(exc))
            return
        except Exception as exc:
            # the experiment itself raised: a valid (negative) answer
            self._fail_job(job, exc, self._job_attempts.get(job.id, 0) + 1)
            return
        self._complete(job, metrics, trace, wall)

    def _execute_serial(self, job: Job) -> None:
        try:
            metrics, trace, wall = execute_point(job.spec, None)
        except Exception as exc:
            self._fail_job(job, exc, self._job_attempts.get(job.id, 0) + 1)
            return
        self._complete(job, metrics, trace, wall)

    def _fail_job(self, job: Job, exc: Exception, attempts: int) -> None:
        """Answer a job whose execution raised with an ``error`` result."""
        self._finish_job(job, _run_result(
            job, {}, {}, False, 0.0, status="error",
            error={"type": type(exc).__name__, "message": str(exc),
                   "attempts": attempts},
        ))

    # ------------------------------------------------------------------ #
    # flushing / introspection
    # ------------------------------------------------------------------ #
    def _flush_loop(self) -> None:
        while not self._stopped.is_set():
            self._stopped.wait(FLUSH_INTERVAL_S)
            self.wal.sync()
            self._flush_manifest()

    def _flush_manifest(self) -> None:
        # run-level facts only: the per-job ledger is the WAL's to keep
        with self._manifest_lock:
            self.manifest.finish(self.stats(), self.metrics.to_dict())

    def _write_endpoint(self, host: str, port: int) -> None:
        payload = {
            "host": host,
            "port": port,
            "pid": os.getpid(),
            "started_at": self.started_at,
        }
        atomic_write(self.config.serve_dir / ENDPOINT_NAME,
                     json.dumps(payload, sort_keys=True).encode("utf-8"))

    def stats(self) -> dict:
        """JSON-safe operational summary (feeds /status and the manifest)."""
        m = self.metrics
        return {
            "submitted": m.value("serve.submitted"),
            "accepted": m.value("serve.accepted"),
            "rejected": m.value("serve.rejected"),
            "resubmitted": m.value("serve.resubmitted"),
            "coalesced": m.value("serve.coalesced"),
            "cache_hits_mem": m.value("serve.cache.hit.mem"),
            "cache_hits_disk": m.value("serve.cache.hit.disk"),
            "jobs_done": m.value("serve.jobs.done"),
            "jobs_failed": m.value("serve.jobs.failed"),
            "jobs_expired": m.value("serve.jobs.expired"),
            "jobs_retried": m.value("serve.jobs.retried"),
            "degraded_executions": m.value("serve.degraded.executions"),
            "pool_broken": m.value("engine.pool.broken"),
            "pool_rebuilds": m.value("engine.pool.rebuilds"),
            "wal_records": float(self.wal.appended),
            "wal_replayed": m.value("serve.wal.replayed"),
            "queue_depth": float(len(self.queue)),
            "in_flight": float(self.coalescer.in_flight()),
            "breaker": self.breaker.public_dict(),
            "draining": self.draining.is_set(),
        }
