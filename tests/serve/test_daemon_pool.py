"""The daemon's pooled path: ``workers=2`` runs jobs on the engine's
supervisor (spawned workers), with real worker deaths and hangs from the
fault-injection harness.

* a crashed worker trips the breaker, the job is answered on the degraded
  serial path, and after the cooldown a probe closes the breaker again;
* a worker hung past ``point_timeout_s`` is killed, and the job that was
  in flight beside it is re-queued without charging its retries;
* a symbolic ``seq_io`` job without a time limit runs in its dispatcher
  thread: it starts no pool, never counts as degraded, and leaves the
  half-open probe to a pooled job; a deadline, a point timeout or a
  simulating kind (symbolic ``lru_trace``) sends it to the pool, where a
  hang is killed.
"""

import time

import pytest

from repro.engine import EngineConfig, FaultRule, inject_faults
from repro.engine import pool as registry
from repro.serve import Daemon, ServeConfig

KIND = "seq_io"


def _params(M, n=16):
    return {"alg": "strassen", "n": n, "M": M, "seed": 0, "replay": True}


def _symbolic(M, n=16):
    return dict(_params(M, n), backend="symbolic")


def _rule(mode, M, **kw):
    return FaultRule(mode=mode, kind=KIND, params={"M": M}, times=1, **kw)


def _answer(daemon, job, timeout=60):
    assert job.done_event.wait(timeout), "job was never answered"
    return job.result


@pytest.fixture
def borrowed(monkeypatch):
    """Every pool the daemon's supervisor borrows, in order."""
    pools = []
    borrow = registry.borrow

    def recording(*args):
        pools.append(borrow(*args))
        return pools[-1]

    monkeypatch.setattr(registry, "borrow", recording)
    return pools


@pytest.fixture
def serve(tmp_path):
    """Start daemons on fresh directories; stop them after the test."""
    daemons = []

    def start(**kw):
        daemon = Daemon(ServeConfig(serve_dir=tmp_path / f"serve{len(daemons)}",
                                    workers=2, **kw))
        daemons.append(daemon)
        daemon.start()
        return daemon

    yield start
    for daemon in daemons:
        daemon.stop()


def test_crash_trips_breaker_then_probe_closes_it(serve):
    # times=1: the crash is spent before the serial retry, which runs in
    # this very process
    with inject_faults(_rule("crash", 37)):
        d = serve(breaker_threshold=1, breaker_cooldown_s=1.0)
        poisoned = d.submit(KIND, _params(37))
        assert _answer(d, poisoned)["status"] == "ok"
        stats = d.stats()
        assert stats["breaker"]["trips"] == 1
        assert stats["degraded_executions"] == 1
        assert stats["pool_broken"] == 1

        time.sleep(1.2)  # past the cooldown: the pool gets its probe
        probe = d.submit(KIND, _params(52))
        assert _answer(d, probe)["status"] == "ok"
        stats = d.stats()
        assert stats["breaker"]["state"] == "closed"
        assert stats["degraded_executions"] == 1  # the probe used the pool
        assert stats["pool_rebuilds"] == 1


def test_hang_kill_spares_the_job_in_flight_beside_it(serve):
    # the neighbour runs 1.5 s, from 1 s after the hang until 0.5 s past
    # the hung job's 2 s timeout — in flight when its worker pool is killed
    with inject_faults(_rule("hang", 37, hang_s=60.0),
                       _rule("delay", 52, delay_s=1.5)):
        d = serve(engine=EngineConfig(point_timeout_s=2.0))
        warm = [d.submit(KIND, _params(M)) for M in (40, 42)]  # start workers
        assert all(_answer(d, job)["status"] == "ok" for job in warm)

        hung = d.submit(KIND, _params(37))
        time.sleep(1.0)
        neighbour = d.submit(KIND, _params(52))
        assert _answer(d, neighbour)["status"] == "ok"
        assert _answer(d, hung)["status"] == "ok"  # its retry no longer hangs
        stats = d.stats()
        assert stats["jobs_retried"] == 1  # the hung job only
        assert stats["pool_rebuilds"] == 1
        assert stats["pool_broken"] == 0  # a timeout kill is not a break
        assert stats["breaker"]["state"] == "closed"


def test_symbolic_job_starts_no_pool(serve, borrowed):
    d = serve()
    assert _answer(d, d.submit(KIND, _symbolic(48)))["status"] == "ok"
    assert d.stats()["degraded_executions"] == 0
    assert borrowed == []


def test_symbolic_job_leaves_the_probe_to_a_pooled_job(serve):
    with inject_faults(_rule("crash", 37)):
        d = serve(breaker_threshold=1, breaker_cooldown_s=1.0)
        assert _answer(d, d.submit(KIND, _params(37)))["status"] == "ok"
        assert _answer(d, d.submit(KIND, _symbolic(40)))["status"] == "ok"
        assert d.stats()["degraded_executions"] == 1  # the crashed job only

        time.sleep(1.2)  # past the cooldown: the probe is up for grabs
        assert _answer(d, d.submit(KIND, _symbolic(42)))["status"] == "ok"
        assert d.stats()["breaker"]["state"] == "half_open"

        probe = d.submit(KIND, _params(52))
        assert _answer(d, probe)["status"] == "ok"
        stats = d.stats()
        assert stats["breaker"]["state"] == "closed"
        assert stats["degraded_executions"] == 1
        assert stats["pool_rebuilds"] == 1


def test_symbolic_job_with_a_time_limit_uses_the_pool(serve, borrowed):
    d = serve()
    job = d.submit(KIND, _symbolic(48), deadline_s=60.0)
    assert _answer(d, job)["status"] == "ok"
    assert len(borrowed) == 1
    lru = {"n": 16, "M": 64, "backend": "symbolic"}  # simulates: never closed-form
    assert _answer(d, d.submit("lru_trace", lru))["status"] == "ok"
    assert len(borrowed) == 1  # the same pool, borrowed once
    assert d.stats()["degraded_executions"] == 0


def test_point_timeout_kills_a_hung_symbolic_job(serve):
    with inject_faults(FaultRule(mode="hang", kind=KIND,
                                 params={"M": 37, "backend": "symbolic"},
                                 times=1, hang_s=60.0)):
        d = serve(engine=EngineConfig(point_timeout_s=1.0))
        hung = d.submit(KIND, _symbolic(37))
        assert _answer(d, hung, timeout=30)["status"] == "ok"  # the retry
        stats = d.stats()
        assert stats["jobs_retried"] == 1
        assert stats["pool_rebuilds"] == 1
