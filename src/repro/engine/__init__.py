"""The parallel experiment engine with a persistent result cache.

Every experiment in this reproduction is a deterministic counting run
(CDAG build → schedule/pebble → simulate → count I/O) on the paper's pure
machine models, so results are perfectly memoizable.  This package turns
that property into infrastructure:

* :mod:`repro.engine.runners` — declarative, picklable experiment points
  (``seq_io_point``, ``parallel_comm_point``, ``pebble_optimal_point``,
  ``segment_audit_point``, ``lru_trace_point``) and their pure executors;
* :mod:`repro.engine.keys` — content-addressed cache keys over
  (kind, params, code version, schema);
* :mod:`repro.engine.cache` — the checksummed SQLite result store;
* :mod:`repro.engine.core` — :func:`run_point` / :func:`run_sweep` with
  the :class:`EngineConfig`-controlled process-pool fan-out, per-point
  timeouts, retries, pool recovery, and incremental checkpointing;
* :mod:`repro.engine.wal` — the checksummed append-only record log that
  sweeps' ``results.jsonl`` and the serve daemon's WAL share;
* :mod:`repro.engine.pool` — the worker-pool supervisor shared with the
  serve daemon: pools that outlive their caller, timeout kills, rebuilds
  and the circuit breaker that degrades to serial execution;
* :mod:`repro.engine.faults` — the deterministic fault-injection harness
  (crash / hang / raise / corrupt on the Nth execution of a point) that
  the recovery paths are tested against.

Quick start::

    from repro.engine import EngineConfig, run_sweep, seq_io_point

    points = [seq_io_point("strassen", n, M=48) for n in (32, 64, 128)]
    sweep = run_sweep(points, EngineConfig(workers=4, cache_dir=".cache"))
    print(sweep.exponent, sweep.stats["hit_rate"])
"""

from repro.engine.cache import ResultCache
from repro.engine.core import (
    EngineConfig,
    load_results_jsonl,
    retry_delay_s,
    run_point,
    run_sweep,
)
from repro.engine.faults import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    apply_fault,
    inject_faults,
)
from repro.engine.keys import CACHE_SCHEMA, code_version, point_key
from repro.engine.runners import (
    PRIMARY_METRIC,
    ExperimentPoint,
    algorithm_spec,
    execute_point,
    lru_trace_point,
    parallel_comm_point,
    pebble_optimal_point,
    pebble_search_point,
    resolve_algorithm,
    segment_audit_point,
    hybrid_point,
    seq_io_point,
)

__all__ = [
    "EngineConfig",
    "run_point",
    "run_sweep",
    "load_results_jsonl",
    "retry_delay_s",
    "ResultCache",
    "CACHE_SCHEMA",
    "code_version",
    "point_key",
    "ExperimentPoint",
    "PRIMARY_METRIC",
    "algorithm_spec",
    "resolve_algorithm",
    "execute_point",
    "seq_io_point",
    "hybrid_point",
    "parallel_comm_point",
    "pebble_optimal_point",
    "pebble_search_point",
    "segment_audit_point",
    "lru_trace_point",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "apply_fault",
    "inject_faults",
]
