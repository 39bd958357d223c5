"""Pool lifetime: worker pools outlive one ``run_sweep`` call.

A sweep that ends cleanly gives its pool back for the next sweep; a sweep
that had to kill its pool (point timeout, drain signal, ``fail_fast``)
never returns it; two sweeps running at once never share a pool; a
sweep's symbolic ``seq_io`` (closed-form) points run in-process and borrow
none unless a point timeout needs a worker to kill.  The
pools are observed through a recording wrapper around
``repro.engine.pool.borrow``, where the sweep's supervisor borrows them.
"""

import os
import signal
import threading
import time

import pytest

from repro.engine import (
    EngineConfig,
    FaultRule,
    inject_faults,
    lru_trace_point,
    run_sweep,
    seq_io_point,
)
from repro.engine import pool as registry
from repro.engine.core import _SweepRunner

M = 48
SIZES = (8, 16, 32)


def _points(sizes=SIZES):
    return [seq_io_point("strassen", n, M) for n in sizes]


def _rule(mode, n, **kw):
    return FaultRule(mode=mode, kind="seq_io", params={"n": n}, **kw)


def _pids(pool) -> set[int]:
    return set(pool._processes or {})


@pytest.fixture
def borrowed(monkeypatch):
    """Every pool the sweeps borrow, in order."""
    pools = []
    borrow = registry.borrow

    def recording(*args):
        pool = borrow(*args)
        pools.append(pool)
        return pool

    monkeypatch.setattr(registry, "borrow", recording)
    return pools


def _fingerprints(sweep):
    return [r.fingerprint() for r in sweep.runs]


def test_consecutive_sweeps_share_workers(borrowed, tmp_path):
    serial = run_sweep(_points(), EngineConfig(workers=0))
    first = run_sweep(_points(), EngineConfig(workers=2, cache_dir=tmp_path / "a"))
    pids = _pids(borrowed[0])
    second = run_sweep(_points(), EngineConfig(workers=2, cache_dir=tmp_path / "b"))
    assert len(borrowed) == 2 and borrowed[1] is borrowed[0]
    assert len(pids) == 2 and _pids(borrowed[1]) == pids
    assert borrowed[0] in registry._idle  # given back again
    assert first.stats["pool_rebuilds"] == second.stats["pool_rebuilds"] == 0
    assert first.stats["cache_hits"] == second.stats["cache_hits"] == 0
    assert _fingerprints(first) == _fingerprints(second) == _fingerprints(serial)


def _symbolic(sizes=SIZES):
    return [seq_io_point("strassen", n, M, backend="symbolic") for n in sizes]


def test_symbolic_sweep_borrows_no_pool(borrowed):
    serial = run_sweep(_symbolic(), EngineConfig(workers=0))
    pooled = run_sweep(_symbolic(), EngineConfig(workers=2))
    assert borrowed == []
    assert pooled.failures == [] and pooled.stats["pool_rebuilds"] == 0
    assert _fingerprints(pooled) == _fingerprints(serial)


def test_mixed_sweep_pools_only_the_machine_points(borrowed):
    mixed = [p for pair in zip(_points(), _symbolic()) for p in pair]
    serial = run_sweep(mixed, EngineConfig(workers=0))
    pooled = run_sweep(mixed, EngineConfig(workers=2))
    assert len(borrowed) == 1
    assert pooled.failures == []
    assert _fingerprints(pooled) == _fingerprints(serial)  # input order kept


def test_point_timeout_pools_and_kills_symbolic_points(borrowed):
    serial = run_sweep(_symbolic(), EngineConfig(workers=0))
    with inject_faults(_rule("hang", 16, times=1, hang_s=60.0)):
        killed = run_sweep(_symbolic(), EngineConfig(
            workers=2, point_timeout_s=1.0, max_retries=1,
        ))
    assert len(borrowed) >= 1
    assert killed.stats["timeouts"] == 1 and killed.failures == []
    assert _fingerprints(killed) == _fingerprints(serial)


def test_symbolic_lru_trace_points_are_pooled_and_killable(borrowed):
    """A symbolic ``lru_trace`` point simulates the trace, so it is not
    closed-form: it keeps the pool's parallelism and its timeout."""
    points = [lru_trace_point(n, 64, backend="symbolic") for n in (8, 16)]
    serial = run_sweep(points, EngineConfig(workers=0))
    pooled = run_sweep(points, EngineConfig(workers=2))
    assert len(borrowed) == 1
    assert _fingerprints(pooled) == _fingerprints(serial)
    hang = FaultRule(mode="hang", kind="lru_trace", params={"n": 16},
                     times=1, hang_s=60.0)
    with inject_faults(hang):
        killed = run_sweep(points, EngineConfig(
            workers=2, point_timeout_s=1.0, max_retries=1,
        ))
    assert killed.stats["timeouts"] == 1 and killed.failures == []
    assert _fingerprints(killed) == _fingerprints(serial)


def test_timeout_kill_leaves_next_sweep_on_fresh_workers(borrowed, monkeypatch):
    serial = run_sweep(_points(), EngineConfig(workers=0))
    hung_pids = set()
    fail_attempt = _SweepRunner._fail_attempt

    def note_hung_workers(runner, task, kind, exc):
        # a timeout is charged before the engine kills the pool
        if kind == "timeout":
            hung_pids.update(_pids(borrowed[-1]))
        return fail_attempt(runner, task, kind, exc)

    monkeypatch.setattr(_SweepRunner, "_fail_attempt", note_hung_workers)
    with inject_faults(_rule("hang", 16, times=1, hang_s=60.0)):
        killed = run_sweep(_points(), EngineConfig(
            workers=2, point_timeout_s=1.0, max_retries=1,
        ))
    assert killed.stats["timeouts"] == 1 and killed.failures == []
    assert killed.stats["pool_rebuilds"] >= 1
    hung = borrowed[0]
    assert len(hung_pids) == 2
    assert hung not in registry._idle and hung._shutdown_thread

    after = run_sweep(_points(), EngineConfig(workers=2))
    assert borrowed[-1] is not hung
    assert len(_pids(borrowed[-1])) == 2
    assert _pids(borrowed[-1]).isdisjoint(hung_pids)
    assert after.stats["pool_rebuilds"] == 0
    assert _fingerprints(after) == _fingerprints(serial)
    assert _fingerprints(killed) == _fingerprints(serial)
    assert [r.trace for r in after.runs] == [r.trace for r in serial.runs]


def test_fail_fast_sweep_does_not_return_its_pool(borrowed):
    # n=32 sleeps in flight while n=8 fails and trips fail_fast
    with inject_faults(_rule("raise", 8, times=99), _rule("delay", 32, delay_s=30.0)):
        res = run_sweep(_points((32, 8, 16)), EngineConfig(workers=2, fail_fast=True))
    assert sorted((r.status, r.params["n"]) for r in res.failures) == [
        ("error", 8), ("skipped", 16), ("skipped", 32)
    ]
    assert len(borrowed) == 1
    assert borrowed[0] not in registry._idle
    assert borrowed[0]._shutdown_thread


def test_interrupted_sweep_does_not_return_its_pool(borrowed, monkeypatch):
    assert threading.current_thread() is threading.main_thread()
    record = _SweepRunner._record
    interrupted = []

    def interrupt_after_first_point(runner, index, run):
        # the sweep's drain handler is installed while it records points
        record(runner, index, run)
        if not interrupted:
            interrupted.append(index)
            os.kill(os.getpid(), signal.SIGINT)

    monkeypatch.setattr(_SweepRunner, "_record", interrupt_after_first_point)
    with inject_faults(_rule("delay", 32, delay_s=30.0)):
        res = run_sweep(_points(), EngineConfig(workers=2))
    assert res.stats["interrupted"] == 1.0
    assert "skipped" in {r.status for r in res.failures}
    assert len(borrowed) == 1
    assert borrowed[0] not in registry._idle
    assert borrowed[0]._shutdown_thread


def test_concurrent_sweeps_get_different_pools(borrowed, monkeypatch):
    both_borrowed = threading.Barrier(2, timeout=30)
    recording = registry.borrow

    def rendezvous(*args):
        pool = recording(*args)
        both_borrowed.wait()  # both sweeps hold a pool at the same time
        return pool

    monkeypatch.setattr(registry, "borrow", rendezvous)
    results = [None, None]

    def sweep(slot):
        results[slot] = run_sweep(_points(), EngineConfig(workers=2))

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert len(borrowed) == 2 and borrowed[0] is not borrowed[1]
    assert len(_pids(borrowed[0])) == len(_pids(borrowed[1])) == 2
    assert _pids(borrowed[0]).isdisjoint(_pids(borrowed[1]))
    assert _fingerprints(results[0]) == _fingerprints(results[1])


def test_idle_pool_is_shut_down_after_the_timeout(monkeypatch):
    monkeypatch.setattr(registry, "IDLE_TIMEOUT_S", 0.05)
    pool = registry.borrow(3)
    pool.submit(abs, -1).result()
    registry.give_back(pool)
    assert pool in registry._idle
    deadline = time.monotonic() + 10.0
    while pool in registry._idle and time.monotonic() < deadline:
        time.sleep(0.02)
    assert pool not in registry._idle
    assert pool._shutdown_thread


def test_dead_idle_pool_is_never_handed_out():
    pool = registry.borrow(3)
    pool.submit(abs, -1).result()
    registry.give_back(pool)
    for proc in pool._processes.values():
        proc.kill()
        proc.join()
    fresh = registry.borrow(3)
    try:
        assert fresh is not pool
        assert pool not in registry._idle
    finally:
        registry.discard(fresh)
