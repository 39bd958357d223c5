"""The experiment engine: cached, parallel, fault-tolerant execution.

``run_point`` executes one :class:`~repro.engine.runners.ExperimentPoint`
through the content-addressed cache; ``run_sweep`` fans a list of points
out over the worker pool of a :class:`~repro.engine.pool.Supervisor`
(pools outlive the sweep) and assembles a typed
:class:`~repro.analysis.results.SweepResult`.  Because every
experiment is a pure counting run (the paper's machines are deterministic
models, not wall-clock measurements), a cache hit is exactly as good as a
re-execution and a ``workers=4`` sweep is bit-identical to a serial one —
results are keyed and compared by content, never by provenance.

Fault tolerance (see ``docs/engine.md``): sweeps survive the failures that
long ``pebble_optimal`` campaigns actually produce.  Dispatch is
``submit``-based with a sliding window of at most ``workers`` in-flight
points, so the engine can

* enforce a per-point wall-clock timeout (``point_timeout_s``) by killing
  the pool's workers and marking the point ``timeout`` (the other
  in-flight points are re-queued free of charge);
* retry failed points with full-jittered exponential backoff up to
  ``max_retries``;
* re-queue every in-flight point of a broken pool (a worker died) on a
  fresh pool — degrading to serial in-process execution after more than
  :data:`MAX_POOL_REBUILDS` unexpected breaks instead of aborting;
* checkpoint incrementally: every completed point is cached and appended
  to the checksummed result log *as it finishes*, so an aborted sweep
  resumes from cache with zero recomputation.

A sweep never raises for a failing point: survivors land in
``SweepResult.points``, permanent failures in ``SweepResult.failures``
with a typed status (``error`` / ``timeout`` / ``skipped``), and
``SweepResult.stats`` reports ``errors`` / ``timeouts`` / ``retries`` /
``pool_rebuilds``.
"""

from __future__ import annotations

import math
import random
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.results import RunResult, SweepPoint, SweepResult
from repro.engine.cache import ResultCache
from repro.engine.pool import CircuitBreaker, Supervisor
from repro.engine.runners import PRIMARY_METRIC, ExperimentPoint, closed_form, execute_point
from repro.engine.wal import RecordLog, iter_records
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PROFILE_MODES, PROFILE_SUBDIR

__all__ = [
    "EngineConfig",
    "run_point",
    "run_sweep",
    "load_results_jsonl",
    "retry_delay_s",
]


#: Process-wide RNG for jittered backoff.  Deliberately *not* seeded from
#: experiment parameters: retry timing is provenance, never a result, so
#: randomizing it cannot perturb any counted quantity.
_JITTER_RNG = random.Random()

#: Base of the exponential backoff between retries of one point; the
#: actual delay is full-jittered by :func:`retry_delay_s`, so a mass
#: re-queue after a pool rebuild does not retry in lockstep.
RETRY_BACKOFF_S = 0.05

#: How many *unexpected* pool breaks (worker death) a sweep repairs before
#: degrading the rest of it to serial in-process execution (a timeout kill
#: is not a break).
MAX_POOL_REBUILDS = 2


def retry_delay_s(
    base: float,
    attempt: int,
    *,
    cap: float = 30.0,
    jitter: bool = True,
    rng: random.Random | None = None,
) -> float:
    """Backoff delay before re-running a failed ``attempt`` (1-based).

    With ``jitter`` (the default) this is *full jitter*: a uniform draw
    from ``[0, min(cap, base * 2**(attempt-1))]``.  Deterministic
    exponential backoff re-queues an entire fleet in lockstep — after a
    pool rebuild every victim retries at exactly the same instant, which
    is precisely the thundering herd the backoff was meant to avoid.
    ``jitter=False`` gives the legacy deterministic upper envelope; either
    way the delay is bounded by ``cap``.
    """
    bound = min(cap, base * (2 ** (attempt - 1)))
    if bound <= 0:
        return 0.0
    if not jitter:
        return bound
    return (rng or _JITTER_RNG).uniform(0.0, bound)


@dataclass
class EngineConfig:
    """How the engine executes: parallelism, cache, output, recovery.

    workers:
        Process-pool width; 0 or 1 runs serially in-process.  Without a
        ``point_timeout_s``, :func:`~repro.engine.runners.closed_form`
        points run in-process at any width, before the pooled ones.
    cache_dir:
        Directory for the persistent result cache; None disables caching.
    point_timeout_s:
        Per-point wall-clock limit.  Only enforceable with ``workers > 1``
        (an in-process point cannot be killed), where it sends every
        point to the pool; a point that exceeds it is marked ``timeout``
        and its worker is terminated.
    max_retries:
        How many times a failed (error or timeout) point is re-queued
        before it is recorded as a permanent failure (backoff:
        :data:`RETRY_BACKOFF_S`).
    fail_fast:
        Stop dispatching after the first permanent failure; remaining
        points are recorded as ``skipped``.  Default is keep-going.
    sweep_dir:
        An observability directory for the sweep.  When set, the engine
        appends every :class:`RunResult` to ``results.jsonl`` there as one
        checksummed record (:mod:`repro.engine.wal`) *as it completes* —
        the incremental checkpoint stream, consumable by
        :func:`repro.analysis.fitting.sweep_from_jsonl` — and writes a
        ``manifest.json`` at start and end whose ledger is folded from
        that stream on load, and profiling artifacts under ``profiles/``.
        This is the directory ``repro report`` consumes.
    profile:
        Per-point profiling mode — one of
        :data:`~repro.obs.profile.PROFILE_MODES` ("off", "cprofile",
        "tracemalloc").  Any mode but "off" requires a ``sweep_dir``
        (artifacts need a home); profiling never touches the
        deterministic trace.
    cache_max_bytes:
        Size budget for the result cache; least-recently-used entries
        are evicted when a write pushes the cache over it (None = no
        budget).  Long-lived consumers — the serve daemon above all —
        must set this or the cache grows without bound.

    A sweep run from the main thread drains gracefully on SIGTERM/SIGINT:
    it stops dispatching, marks the in-flight and queued points
    ``skipped``, flushes the result log and the manifest, and returns the
    partial :class:`SweepResult` (``stats["interrupted"] = 1``) instead of
    dying mid-write.  A second signal falls through to the previous
    handler.
    """

    workers: int = 0
    cache_dir: str | Path | None = None
    point_timeout_s: float | None = None
    max_retries: int = 0
    fail_fast: bool = False
    sweep_dir: str | Path | None = None
    profile: str = "off"
    cache_max_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.profile not in PROFILE_MODES:
            raise ValueError(
                f"unknown profile mode {self.profile!r} (use one of {PROFILE_MODES})"
            )
        if self.profile != "off" and self.sweep_dir is None:
            raise ValueError(
                f"profile={self.profile!r} requires sweep_dir (artifacts need a home)"
            )

    def open_cache(self, registry: MetricsRegistry | None = None) -> ResultCache | None:
        if self.cache_dir is None:
            return None
        if registry is None:
            return ResultCache(self.cache_dir, max_bytes=self.cache_max_bytes)
        return ResultCache(
            self.cache_dir,
            on_corrupt=lambda key, quarantined: registry.inc("engine.cache.corrupt"),
            max_bytes=self.cache_max_bytes,
            on_evict=lambda key: registry.inc("engine.cache.evicted"),
        )

    # -- observability plumbing ----------------------------------------- #
    def profile_spec(self, key: str) -> dict | None:
        """The picklable per-point profiling spec (None when off)."""
        if self.profile == "off":
            return None
        return {
            "mode": self.profile,
            "dir": str(Path(self.sweep_dir) / PROFILE_SUBDIR),
            "key": key,
        }

    def public_dict(self) -> dict:
        """JSON-safe execution-shaping fields (the manifest's ``config``)."""
        return {
            "workers": self.workers,
            "cache_dir": None if self.cache_dir is None else str(self.cache_dir),
            "sweep_dir": None if self.sweep_dir is None else str(self.sweep_dir),
            "profile": self.profile,
            "point_timeout_s": self.point_timeout_s,
            "max_retries": self.max_retries,
            "fail_fast": self.fail_fast,
            "cache_max_bytes": self.cache_max_bytes,
        }


def _finish(
    point: ExperimentPoint,
    key: str,
    metrics: dict,
    trace: dict,
    cached: bool,
    wall: float,
) -> RunResult:
    return RunResult(
        key=key,
        kind=point.kind,
        params=dict(point.params),
        metrics=metrics,
        cached=cached,
        wall_time_s=wall,
        trace=trace,
    )


def run_point(
    point: ExperimentPoint, config: EngineConfig | None = None
) -> RunResult:
    """Execute one experiment point through the cache (always in-process).

    Unlike :func:`run_sweep`, a failing executor raises here — the
    single-point API fails loudly rather than returning a taxonomy.
    """
    config = config or EngineConfig()
    cache = config.open_cache()
    key = point.key
    hit = cache.get(key) if cache is not None else None
    if hit is not None:
        cache.close()
        return _finish(point, key, hit["metrics"], hit.get("trace", {}), True, 0.0)
    metrics, trace, wall = execute_point(point.to_dict(), config.profile_spec(key))
    if cache is not None:
        cache.put(key, {"kind": point.kind, "params": point.params,
                        "metrics": metrics, "trace": trace})
        cache.close()  # checkpoints now, not whenever the collector runs
    return _finish(point, key, metrics, trace, False, wall)


# --------------------------------------------------------------------- #
# fault-tolerant sweep dispatch
# --------------------------------------------------------------------- #
@dataclass
class _Task:
    """One uncached point moving through the dispatch loop."""

    index: int
    point: ExperimentPoint
    key: str
    attempts: int = 0        # executions charged against the retry budget
    submitted_at: float = 0.0
    not_before: float = 0.0  # backoff gate for the next submission
    errors: list = field(default_factory=list)


#: Upper bound on any blocking wait in the dispatch loops, so a signal
#: handler's stop flag is noticed promptly (PEP 475: a returning handler
#: does not interrupt a blocking wait).
_SIGNAL_POLL_S = 0.25


def _pop_ready(tasks: deque, now: float) -> _Task | None:
    for i, task in enumerate(tasks):
        if task.not_before <= now:
            del tasks[i]
            return task
    return None


def _traceback_tail(exc: BaseException, limit: int = 12) -> str:
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    return "".join(lines[-limit:])


class _SweepRunner:
    """State machine behind :func:`run_sweep`: cache scan, dispatch,
    retry/timeout/rebuild handling, incremental checkpointing.

    All sweep-level accounting goes through one typed
    :class:`~repro.obs.metrics.MetricsRegistry` (``engine.*`` names, see
    docs/observability.md) instead of ad-hoc integer attributes; the
    snapshot lands in the run manifest and feeds ``SweepResult.stats``.
    """

    def __init__(
        self, points: list[ExperimentPoint], config: EngineConfig, parameter: str
    ) -> None:
        self.points = points
        self.config = config
        self.parameter = parameter
        self.metrics = MetricsRegistry()
        self.cache = config.open_cache(registry=self.metrics)
        self.results: list[RunResult | None] = [None] * len(points)
        self.failures: list[RunResult] = []
        self.degraded = False
        self.stop = False  # tripped by fail_fast or a drain signal
        self.interrupted = False  # SIGTERM/SIGINT received mid-sweep
        self._log: RecordLog | None = None
        self.manifest: RunManifest | None = (
            RunManifest(config.sweep_dir) if config.sweep_dir is not None else None
        )

    # -- checkpointing ------------------------------------------------- #
    def _count(self, name: str) -> int:
        return int(self.metrics.value(name))

    def _write_jsonl(self, run: RunResult) -> None:
        if self._log is not None:
            self._log.append(run.to_dict())

    def _record(self, index: int, run: RunResult) -> None:
        self.results[index] = run
        self._write_jsonl(run)
        point_metrics = (run.trace or {}).get("metrics")
        if point_metrics:
            # fold the point's machine metrics into the sweep-level view
            self.metrics.merge(point_metrics)

    def _complete(self, task: _Task, metrics: dict, trace: dict, wall: float) -> None:
        if self.cache is not None:
            self.cache.put(task.key, {"kind": task.point.kind,
                                      "params": task.point.params,
                                      "metrics": metrics, "trace": trace})
        self.metrics.observe("engine.point.wall_ms", int(wall * 1000))
        self._record(task.index, _finish(task.point, task.key, metrics, trace, False, wall))

    # -- failure taxonomy ---------------------------------------------- #
    def _fail_attempt(self, task: _Task, kind: str, exc: BaseException | None) -> bool:
        """Charge one failed execution; returns True when re-queued."""
        if kind == "timeout":
            detail = {
                "type": "TimeoutError",
                "message": f"exceeded point_timeout_s={self.config.point_timeout_s}",
                "traceback": "",
            }
            self.metrics.inc("engine.timeouts")
        else:
            detail = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": _traceback_tail(exc),
            }
            self.metrics.inc("engine.errors")
            self.metrics.inc(f"engine.errors.by_type.{detail['type']}")
        task.errors.append(detail)
        if task.attempts <= self.config.max_retries and not self.stop:
            task.not_before = time.perf_counter() + retry_delay_s(
                RETRY_BACKOFF_S, task.attempts)
            self.metrics.inc("engine.retries")
            return True
        self._fail_permanently(task, "timeout" if kind == "timeout" else "error")
        return False

    def _fail_permanently(self, task: _Task, status: str) -> None:
        skip_reason = (
            "interrupted: the sweep received SIGTERM/SIGINT and drained"
            if self.interrupted
            else "fail_fast: an earlier point failed"
        )
        last = task.errors[-1] if task.errors else {
            "type": "Skipped", "message": skip_reason, "traceback": "",
        }
        run = RunResult(
            key=task.key,
            kind=task.point.kind,
            params=dict(task.point.params),
            metrics={},
            cached=False,
            wall_time_s=0.0,
            trace={},
            status=status,
            error={**last, "attempts": task.attempts},
        )
        self.failures.append(run)
        self.metrics.inc(f"engine.failures.{status}")
        # skipped records go to the checkpoint stream too: the result log
        # is the sweep's per-point ledger, folded into the manifest on load
        self._write_jsonl(run)
        if self.config.fail_fast and status != "skipped":
            self.stop = True

    def _skip_remaining(self, tasks) -> None:
        for task in tasks:
            self._fail_permanently(task, "skipped")

    # -- graceful interruption (SIGTERM/SIGINT) ------------------------- #
    def _install_signal_handlers(self) -> dict | None:
        """Route SIGTERM/SIGINT into a graceful drain (main thread only).

        The handler only flips flags — the dispatch loops notice them at
        their next bounded wait, mark the outstanding points ``skipped``,
        and let the ordinary finalization path flush the checkpoint and
        the manifest.  PEP 475 means a flag-setting handler does *not*
        break a blocking wait, so every wait in the dispatch loops is
        capped at ``_SIGNAL_POLL_S``.  The first signal also restores the
        previous handlers, so a second signal behaves as if the engine
        had never intervened (normally: process death).
        """
        if threading.current_thread() is not threading.main_thread():
            return None
        previous: dict = {}

        def _interrupt(signum, frame):
            self.interrupted = True
            self.stop = True
            self._restore_signal_handlers(previous)

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[sig] = signal.signal(sig, _interrupt)
            except (ValueError, OSError):  # embedded interpreter, etc.
                pass
        return previous or None

    @staticmethod
    def _restore_signal_handlers(previous: dict | None) -> None:
        for sig, handler in (previous or {}).items():
            try:
                if signal.getsignal(sig) != handler:
                    signal.signal(sig, handler)
            except (ValueError, OSError):
                pass

    # -- serial execution (workers<=1, closed-form points, degraded) ---- #
    def _run_serial(self, tasks: deque) -> None:
        while tasks and not self.stop:
            task = tasks.popleft()
            delay = task.not_before - time.perf_counter()
            while delay > 0 and not self.stop:
                time.sleep(min(delay, _SIGNAL_POLL_S))
                delay = task.not_before - time.perf_counter()
            if self.stop:
                tasks.appendleft(task)
                break
            task.attempts += 1
            try:
                metrics, trace, wall = execute_point(
                    task.point.to_dict(), self.config.profile_spec(task.key)
                )
            except Exception as exc:
                if self._fail_attempt(task, "error", exc):
                    tasks.append(task)
            else:
                self._complete(task, metrics, trace, wall)
        self._skip_remaining(tasks)

    # -- pooled execution (see engine/pool.py) --------------------------- #
    def _requeue_victims(self, in_flight: dict, tasks: deque) -> None:
        """Re-queue in-flight points lost to a pool break or kill through
        no fault of their own — their execution never finished, so it is
        not charged against the retry budget."""
        for task in in_flight.values():
            task.attempts -= 1
            tasks.appendleft(task)
        in_flight.clear()

    def _wait_budget(self, in_flight: dict, tasks: deque) -> float | None:
        deadlines = []
        now = time.perf_counter()
        if self.config.point_timeout_s is not None:
            deadlines += [
                t.submitted_at + self.config.point_timeout_s
                for t in in_flight.values()
            ]
        deadlines += [t.not_before for t in tasks if t.not_before > now]
        if not deadlines:
            return None
        return max(0.01, min(deadlines) - now)

    def _run_pooled(self, tasks: deque) -> None:
        cfg = self.config
        # the sweep's degrade rule: serial for good after more than
        # MAX_POOL_REBUILDS unexpected breaks in total
        pool = Supervisor(cfg.workers, registry=self.metrics, gate=CircuitBreaker(
            max(1, MAX_POOL_REBUILDS + 1), math.inf, consecutive=False,
        ))
        in_flight: dict[Future, _Task] = {}
        clean = False
        try:
            while (tasks or in_flight) and not self.stop:
                # submit ready tasks up to the window of `workers`
                while tasks and len(in_flight) < cfg.workers:
                    task = _pop_ready(tasks, time.perf_counter())
                    if task is None:
                        break
                    task.attempts += 1
                    task.submitted_at = time.perf_counter()
                    fut = pool.submit(task.point.to_dict(), cfg.profile_spec(task.key))
                    in_flight[fut] = task

                broken = False
                if in_flight:
                    budget = self._wait_budget(in_flight, tasks)
                    done, _ = wait(
                        list(in_flight),
                        timeout=_SIGNAL_POLL_S
                        if budget is None
                        else min(budget, _SIGNAL_POLL_S),
                        return_when=FIRST_COMPLETED,
                    )
                    for fut in done:
                        try:
                            metrics, trace, wall = pool.result(fut)
                        except BrokenProcessPool:
                            broken = True  # culprit and victims look alike
                        except Exception as exc:
                            task = in_flight.pop(fut)
                            if self._fail_attempt(task, "error", exc):
                                tasks.append(task)
                        else:
                            self._complete(in_flight.pop(fut), metrics, trace, wall)
                else:
                    # everything is backing off; sleep until the next gate
                    time.sleep(
                        min(
                            self._wait_budget(in_flight, tasks) or 0.01,
                            _SIGNAL_POLL_S,
                        )
                    )
                    continue

                if broken:
                    self._requeue_victims(in_flight, tasks)
                    if not pool.gate.allow():
                        self.degraded = True
                        self._run_serial(tasks)
                        return
                    continue

                # enforce the per-point wall-clock timeout
                if cfg.point_timeout_s is not None and in_flight:
                    now = time.perf_counter()
                    expired = [
                        fut for fut, task in in_flight.items()
                        if now - task.submitted_at >= cfg.point_timeout_s
                    ]
                    for fut in expired:
                        task = in_flight.pop(fut)
                        if self._fail_attempt(task, "timeout", None):
                            tasks.append(task)
                    if expired:
                        # the hung workers must die: kill the pool and
                        # spare the innocents' retry budget
                        pool.kill(expired[0])
                        self._requeue_victims(in_flight, tasks)
            if self.stop:
                self._skip_remaining(in_flight.values())
                in_flight.clear()
                self._skip_remaining(tasks)
            else:
                clean = True
        finally:
            pool.close(clean)

    # -- orchestration -------------------------------------------------- #
    def run(self) -> SweepResult:
        cfg = self.config
        t_start = time.perf_counter()
        if cfg.sweep_dir is not None:
            # flushed per record, never fsync'd: a point is cheap to redo
            self._log = RecordLog(Path(cfg.sweep_dir) / "results.jsonl", sync="off")
        keys = [point.key for point in self.points]
        if self.manifest is not None:
            self.manifest.start(cfg.public_dict(), self.parameter,
                                zip(self.points, keys))
        previous_handlers = self._install_signal_handlers()
        try:
            pooled = cfg.workers and cfg.workers > 1
            inline: deque[_Task] = deque()  # every point when not pooled
            remote: deque[_Task] = deque()
            for i, (point, key) in enumerate(zip(self.points, keys)):
                hit = self.cache.get(key) if self.cache is not None else None
                if hit is not None:
                    self.metrics.inc("engine.cache.hits")
                    self._record(i, _finish(
                        point, key, hit["metrics"], hit.get("trace", {}), True, 0.0
                    ))
                else:
                    if self.cache is not None:
                        self.metrics.inc("engine.cache.misses")
                    to_pool = pooled and not (
                        cfg.point_timeout_s is None  # only a worker can be killed
                        and closed_form(point.kind, point.params))
                    (remote if to_pool else inline).append(
                        _Task(index=i, point=point, key=key))

            self._run_serial(inline)  # closed-form first: cheaper than a pool trip
            if remote:
                self._run_pooled(remote)
        finally:
            self._restore_signal_handlers(previous_handlers)
            if self._log is not None:
                self._log.close()
                self._log = None
            if self.cache is not None:
                self.cache.close()
        return self._assemble(t_start)

    def _assemble(self, t_start: float) -> SweepResult:
        runs = [r for r in self.results if r is not None]
        sweep_points = []
        for run in runs:
            if self.parameter not in run.params:
                # Refusing to invent an x-value: silently substituting the
                # enumeration index corrupts every downstream fit.
                raise KeyError(
                    f"sweep parameter {self.parameter!r} missing from params "
                    f"of point {run.key} (kind={run.kind}, params keys: "
                    f"{sorted(run.params)}); pass the swept parameter name "
                    f"to run_sweep(..., parameter=...)"
                )
            x = run.params[self.parameter]
            if self.parameter == "n":
                # Rectangular recursions grow all three dimensions; the
                # executor reports the geometric-mean side (R·K·C)^{1/3} as
                # ``n_eff`` and fits use it so the exponent lands on ω₀
                # (square runs report n_eff == n, so nothing changes there).
                x = run.metrics.get("n_eff", x)
            metric = PRIMARY_METRIC.get(run.kind, "io")
            extras = {
                k: float(v)
                for k, v in run.metrics.items()
                if k not in (metric, "bound") and isinstance(v, (int, float))
                and not isinstance(v, bool)
            }
            sweep_points.append(
                SweepPoint(
                    x=float(x),
                    measured=float(run.metrics[metric]),
                    bound=run.metrics.get("bound"),
                    extras=extras,
                    run=run,
                )
            )
        n = len(self.points)
        hits = self._count("engine.cache.hits")
        stats = {
            "points": n,
            "cache_hits": hits,
            "cache_misses": n - hits,
            "hit_rate": hits / n if n else 0.0,
            "workers": self.config.workers,
            "wall_time_s": time.perf_counter() - t_start,
            "errors": self._count("engine.errors"),
            "timeouts": self._count("engine.timeouts"),
            "retries": self._count("engine.retries"),
            "pool_rebuilds": self._count("engine.pool.rebuilds"),
            "failures": len(self.failures),
            "degraded": 1.0 if self.degraded else 0.0,
            "interrupted": 1.0 if self.interrupted else 0.0,
        }
        if self.manifest is not None:
            self.manifest.finish(stats, self.metrics.to_dict())
        return SweepResult(
            parameter=self.parameter,
            points=sweep_points,
            failures=self.failures,
            stats=stats,
        )


def run_sweep(
    points: list[ExperimentPoint],
    config: EngineConfig | None = None,
    parameter: str = "n",
) -> SweepResult:
    """Execute many points — cache first, then fault-tolerant dispatch.

    ``parameter`` names the swept params entry used as each point's
    x-value; a completed point whose params lack it raises ``KeyError``
    at assembly (the engine refuses to substitute the enumeration index —
    that silently corrupts downstream fits).  Result order always
    matches input order regardless of worker scheduling or retries.  A
    failing point never raises: it is retried per the config and, if it
    keeps failing, lands in ``SweepResult.failures`` with a typed status
    while the rest of the sweep completes (see module docstring).
    """
    config = config or EngineConfig()
    return _SweepRunner(points, config, parameter).run()


def load_results_jsonl(path: str | Path) -> list[RunResult]:
    """Read back the log a sweep wrote, one RunResult per record.

    The log is :mod:`repro.engine.wal`'s checksummed format: a torn final
    line is skipped silently, a bad line anywhere else raises
    :class:`~repro.engine.wal.WALError`.  Unframed lines from older sweeps
    still load.
    """
    if not Path(path).is_file():
        raise FileNotFoundError(f"no result log at {path}")
    return [RunResult.from_dict(record) for record in iter_records(path)]
