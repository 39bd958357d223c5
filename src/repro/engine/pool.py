"""Worker pools that outlive one sweep.

Forking a :class:`~concurrent.futures.ProcessPoolExecutor` costs more than
a typical symbolic sweep's whole execution, and a fresh worker starts with
empty in-process memos.  So the engine keeps its pools between
:func:`~repro.engine.run_sweep` calls:

* :func:`borrow` checks out an idle, live pool of the requested width, or
  forks a new one when there is none.  A checked-out pool belongs to one
  sweep only, so two threads sweeping at once never share workers.
* :func:`give_back` returns a pool after its sweep ended cleanly.
* :func:`discard` kills a pool instead (point timeout, broken pool, drain
  signal, ``fail_fast``); a discarded pool never comes back.

An idle pool is shut down after :data:`IDLE_TIMEOUT_S` without a borrower,
and every idle pool is shut down at interpreter exit.

A worker serves many sweeps, so what a sweep sets up in the parent after
the fork has to travel with each task: :func:`submit` sends the parent's
fault plan (``REPRO_FAULTS``, see :mod:`repro.engine.faults`) as it stands
at submit time.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
from concurrent.futures import Future, ProcessPoolExecutor

from repro.engine.faults import ENV_VAR
from repro.engine.runners import execute_point

__all__ = ["IDLE_TIMEOUT_S", "borrow", "give_back", "discard", "submit"]

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
    (the engine kills hung pools that way) and must leave SIGINT to the
    parent, which drains and terminates them deliberately."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _live(pool: ProcessPoolExecutor) -> bool:
    return not pool._broken and all(
        proc.is_alive() for proc in (pool._processes or {}).values()
    )


def borrow(workers: int) -> ProcessPoolExecutor:
    """Check out an idle live pool with ``workers`` workers, or fork one."""
    with _lock:
        mine = [pool for pool in _idle if pool._max_workers == workers]
        for pool in reversed(mine):  # the most recently returned first
            del _idle[pool]
            if _live(pool):
                return pool
            discard(pool)
    return ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)


def give_back(pool: ProcessPoolExecutor) -> None:
    """Return a pool whose sweep ended cleanly (nothing left in flight)."""
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


def submit(pool: ProcessPoolExecutor, spec: dict,
           profile: dict | None) -> Future:
    """Submit one point spec with the fault plan the parent holds now."""
    return pool.submit(_execute, os.environ.get(ENV_VAR), spec, profile)
