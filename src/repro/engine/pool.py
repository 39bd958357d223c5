"""The worker-pool supervisor shared by sweeps and the serve daemon.

Starting a :class:`~concurrent.futures.ProcessPoolExecutor` costs more
than a typical symbolic sweep, and a fresh worker has empty in-process
memos, so pools outlive their caller.  :func:`borrow` checks out an idle
live pool of the requested width and start method (or starts one) for
one caller only; :func:`give_back` returns it after a clean finish, and
:func:`discard` kills it instead.  An idle pool is shut down after
:data:`IDLE_TIMEOUT_S`, and every idle pool at interpreter exit.

A :class:`Supervisor` runs one caller's pool: ``run_sweep`` (``fork``,
cheap for one-shot sweeps) or the serve daemon (``spawn``: forking its
threads can deadlock the child).  It borrows lazily, sends each task the
fault plan the parent holds at submit time (``REPRO_FAULTS``, see
:mod:`repro.engine.faults`), and ends each pool generation at most once
— by a deliberate :meth:`~Supervisor.kill` (a point past its timeout) or
an unexpected break (a worker died).  A task lost to the supervisor's
own kill raises :class:`PoolVictim`, which callers re-queue without
charging retries or the gate.  Breaks charge the gate, a
:class:`CircuitBreaker` tuned to the caller's degrade rule, and the
caller's registry counts ``engine.pool.broken`` (once per broken
generation) and ``engine.pool.rebuilds`` (each pool after the first).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

from repro.engine.faults import ENV_VAR
from repro.engine.runners import execute_point

__all__ = [
    "IDLE_TIMEOUT_S", "borrow", "give_back", "discard",
    "BREAKER_STATES", "CircuitBreaker", "PoolVictim", "Supervisor",
]

#: Seconds an idle pool waits for its next sweep before it is shut down:
#: long enough to carry a campaign of back-to-back sweeps, short enough
#: that a process which stopped sweeping does not keep idle workers.
IDLE_TIMEOUT_S = 2.0

_lock = threading.Lock()
#: idle pool -> the token of its latest return (its expiry timer holds it)
_idle: dict[ProcessPoolExecutor, object] = {}


def _worker_init() -> None:
    """Reset signal disposition in pool workers.

    Forked workers inherit the parent's handlers — including the sweep's
    flag-setting drain handler, which would turn :func:`discard`'s
    ``proc.terminate()`` into a no-op (the worker sets a flag on *its*
    copy of the runner and keeps executing).  Workers must die on SIGTERM
    (the supervisor kills hung pools that way) and must leave SIGINT to
    the parent, which drains and terminates them deliberately."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _live(pool: ProcessPoolExecutor) -> bool:
    return not pool._broken and all(
        proc.is_alive() for proc in (pool._processes or {}).values()
    )


def borrow(workers: int, method: str = "fork") -> ProcessPoolExecutor:
    """Check out an idle live pool of ``workers`` ``method`` workers, or
    start one."""
    with _lock:
        mine = [pool for pool in _idle if pool._max_workers == workers
                and pool._mp_context.get_start_method() == method]
        for pool in reversed(mine):  # the most recently returned first
            del _idle[pool]
            if _live(pool):
                return pool
            discard(pool)
    return ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                               mp_context=multiprocessing.get_context(method))


def give_back(pool: ProcessPoolExecutor) -> None:
    """Return a pool whose caller finished cleanly (nothing in flight)."""
    stay = object()
    with _lock:
        _idle[pool] = stay
    timer = threading.Timer(IDLE_TIMEOUT_S, _expire, (pool, stay))
    timer.daemon = True
    timer.start()


def _expire(pool: ProcessPoolExecutor, stay: object) -> None:
    with _lock:
        if _idle.get(pool) is not stay:
            return  # borrowed since, and maybe given back again
        del _idle[pool]
    pool.shutdown(wait=False)


def discard(pool: ProcessPoolExecutor) -> None:
    """Terminate the pool's workers (hung or not) and abandon it."""
    for proc in list((pool._processes or {}).values()):
        if proc.is_alive():
            proc.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


@atexit.register
def _shutdown_idle() -> None:
    with _lock:
        pools = list(_idle)
        _idle.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def _execute(fault_plan: str | None, spec: dict,
             profile: dict | None) -> tuple[dict, dict, float]:
    """Run one point in a worker under the parent's fault plan."""
    if fault_plan is None:
        os.environ.pop(ENV_VAR, None)
    else:
        os.environ[ENV_VAR] = fault_plan
    return execute_point(spec, profile)


# --------------------------------------------------------------------- #
# the degrade gate
# --------------------------------------------------------------------- #
BREAKER_STATES = ("closed", "open", "half_open")


class CircuitBreaker:
    """The degrade gate over infrastructure failures (pool breaks — a
    point that raises is a valid answer from a healthy pool).

    ``closed``: healthy; ``failure_threshold`` consecutive failures (in
    total with ``consecutive=False``) trip it.  ``open``: the caller runs
    serially for ``cooldown_s`` (``math.inf``: for good).  ``half_open``:
    the cooldown expired and exactly one probe may use the pool; its
    success closes the breaker, its failure re-opens it.
    """

    def __init__(self, failure_threshold: int = 3, cooldown_s: float = 10.0,
                 clock=time.monotonic, consecutive: bool = True) -> None:
        if failure_threshold <= 0:
            raise ValueError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.consecutive = consecutive
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_out = False
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if self._state == "open" and self._clock() - self._opened_at >= self.cooldown_s:
            self._state = "half_open"
            self._probe_out = False

    def allow(self) -> bool:
        """May the pool be used for the next task right now?  In
        ``half_open`` only the first caller gets True (the probe)."""
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return True
            if self._state == "half_open" and not self._probe_out:
                self._probe_out = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            if self.consecutive:
                self._consecutive_failures = 0
            if self._state == "half_open":
                self._state = "closed"
            self._probe_out = False

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            self._consecutive_failures += 1
            if self._state == "half_open" or (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self._probe_out = False
                self.trips += 1

    def public_dict(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self.trips,
                "failure_threshold": self.failure_threshold,
                "cooldown_s": self.cooldown_s,
            }


# --------------------------------------------------------------------- #
# the supervisor
# --------------------------------------------------------------------- #
class PoolVictim(Exception):
    """A task lost to the supervisor's own kill of its pool: it did nothing
    wrong, so it is re-queued without charging its retries or the gate."""


class Supervisor:
    """One caller's worker pool: borrow, submit, kill, rebuild, give back.

    Thread-safe (the daemon's dispatcher threads share one).  ``gate``
    decides when the caller runs serially instead; ``registry`` is the
    caller's :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    def __init__(self, workers: int, gate: CircuitBreaker, registry,
                 method: str = "fork") -> None:
        self.workers = workers
        self.gate = gate
        self.registry = registry
        self.method = method
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._generation = 0
        self._killed: set[int] = set()  # generations ended on purpose
        self._closed = False

    def submit(self, spec: dict, profile: dict | None) -> Future:
        """Submit one point spec with the fault plan the parent holds now.
        A task that cannot reach a worker gets an already-failed future,
        which :meth:`result` reports like any other loss."""
        with self._lock:
            if self._pool is None and not self._closed:
                if self._generation:
                    self.registry.inc("engine.pool.rebuilds")
                self._pool = borrow(self.workers, self.method)
                self._generation += 1
            pool, generation = self._pool, self._generation
        future = Future()
        if pool is None:
            future.cancel()  # closed
        else:
            try:
                future = pool.submit(_execute, os.environ.get(ENV_VAR), spec,
                                     profile)
            except RuntimeError as exc:  # the pool broke or was shut down
                future.set_exception(BrokenProcessPool(str(exc)))
        future.generation = generation
        return future

    def _end(self, generation: int, on_purpose: bool) -> bool:
        """Discard ``generation``'s pool unless it has already ended."""
        with self._lock:
            if generation != self._generation or self._pool is None:
                return False
            pool, self._pool = self._pool, None
            if on_purpose:
                self._killed.add(generation)
        discard(pool)
        return True

    def result(self, future: Future, timeout: float | None = None):
        """The task's ``(metrics, trace, wall)``, or raises:

        * ``TimeoutError`` — nothing recorded; the caller may :meth:`kill`;
        * :class:`PoolVictim` — lost to the supervisor's own kill;
        * ``BrokenProcessPool`` — the pool broke (recorded and charged to
          the gate once per generation);
        * the point's own exception — an answer from a healthy pool, which
          the gate hears as a success, like every returned value.
        """
        try:
            value = future.result(timeout=timeout)
        except (BrokenProcessPool, CancelledError) as exc:
            if future.generation in self._killed:
                raise PoolVictim(str(exc)) from exc
            if self._end(future.generation, on_purpose=False):
                self.registry.inc("engine.pool.broken")
                self.gate.record_failure()
            raise BrokenProcessPool(str(exc) or "a pool worker died") from exc
        except FutureTimeout:
            raise
        except Exception:
            self.gate.record_success()
            raise
        self.gate.record_success()
        return value

    def kill(self, future: Future) -> None:
        """Kill the pool ``future`` was submitted to, at most once per
        generation: its other tasks become victims, and the next task
        starts a fresh pool.  A hung point is its own fault — the pool ran
        it — so the gate hears a success (settling a half-open probe)."""
        self._end(future.generation, on_purpose=True)
        self.gate.record_success()

    def close(self, clean: bool = True) -> None:
        """Give the pool back (``clean``: nothing in flight) or discard it.
        Tasks still in flight, or submitted later, become victims."""
        with self._lock:
            self._closed = True
            self._killed.add(self._generation)
            pool, self._pool = self._pool, None
        if pool is not None:
            (give_back if clean else discard)(pool)
