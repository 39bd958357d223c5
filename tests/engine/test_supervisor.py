"""The pool supervisor's contract, driven directly with real workers.

One pool per generation however many threads race to submit; a kill ends
a generation once and turns its other tasks into victims; a break is
counted and charged to the gate once per generation.
"""

import sys
import threading

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.engine import FaultRule, inject_faults, seq_io_point
from repro.engine.pool import CircuitBreaker, PoolVictim, Supervisor
from repro.obs.metrics import MetricsRegistry


def _spec(n):
    return seq_io_point("strassen", n, 48).to_dict()


def _rule(mode, n, **kw):
    return FaultRule(mode=mode, kind="seq_io", params={"n": n}, **kw)


@pytest.fixture
def supervisor():
    sup = Supervisor(2, CircuitBreaker(failure_threshold=2), MetricsRegistry())
    yield sup
    sup.close(clean=False)


def test_racing_submits_after_a_kill_start_one_pool(supervisor):
    first = supervisor.submit(_spec(8), None)
    expected = supervisor.result(first, timeout=60)[0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for generation in range(2, 12):
            supervisor.kill(first)
            futures = []
            start = threading.Barrier(8, timeout=30)

            def race():
                start.wait()
                futures.append(supervisor.submit(_spec(8), None))

            threads = [threading.Thread(target=race) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert {f.generation for f in futures} == {generation}
            assert all(supervisor.result(f, timeout=60)[0] == expected
                       for f in futures)
            first = futures[0]
    finally:
        sys.setswitchinterval(interval)
    assert supervisor.registry.value("engine.pool.rebuilds") == 10


def test_kill_ends_a_generation_once_and_spares_its_victims(supervisor):
    with inject_faults(_rule("hang", 8, hang_s=60.0), _rule("delay", 16, delay_s=60.0)):
        hung = supervisor.submit(_spec(8), None)
        victim = supervisor.submit(_spec(16), None)
        with pytest.raises(TimeoutError):
            supervisor.result(hung, timeout=1.0)
        supervisor.kill(hung)
        supervisor.kill(victim)  # same generation: nothing left to kill
        with pytest.raises(PoolVictim):
            supervisor.result(victim, timeout=30)
    assert supervisor.registry.value("engine.pool.broken") == 0
    assert supervisor.gate.public_dict()["consecutive_failures"] == 0
    assert supervisor.submit(_spec(8), None).generation == 2


def test_a_break_is_counted_once_per_generation(supervisor):
    with inject_faults(_rule("crash", 8), _rule("delay", 16, delay_s=60.0)):
        crashed = supervisor.submit(_spec(8), None)
        beside = supervisor.submit(_spec(16), None)
        with pytest.raises(BrokenProcessPool):
            supervisor.result(crashed, timeout=30)
        with pytest.raises(BrokenProcessPool):
            supervisor.result(beside, timeout=30)
    assert supervisor.registry.value("engine.pool.broken") == 1
    assert supervisor.gate.public_dict()["consecutive_failures"] == 1
    assert supervisor.gate.state == "closed"  # threshold 2 not reached
