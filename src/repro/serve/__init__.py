"""Resilient serving of experiment points: the ``repro serve`` daemon.

The engine (:mod:`repro.engine`) runs *batch* sweeps; this package keeps
the same pure, content-addressed execution machinery alive behind a
local HTTP/JSON API, hardened for long-lived operation:

* :mod:`repro.serve.wal` — crash-safe write-ahead job log (the engine's
  checksummed record log, fsync'd, replayable, compactable);
* :mod:`repro.serve.queue` — bounded admission queue (backpressure →
  HTTP 429 + Retry-After);
* :mod:`repro.serve.coalesce` — identical in-flight points execute once;
* :mod:`repro.serve.daemon` — the daemon itself (WAL replay, dispatch,
  deadlines, graceful drain); its worker pool and circuit breaker are the
  engine's (:mod:`repro.engine.pool`), shared with ``run_sweep``;
* :mod:`repro.serve.api` — the HTTP server and :class:`ServeClient`;
* :mod:`repro.serve.drill` — the chaos-certification drill run in CI.

Quick start::

    from repro.serve import Daemon, ServeClient, ServeConfig

    daemon = Daemon(ServeConfig(serve_dir="serve"))
    host, port = daemon.start()
    client = ServeClient(host, port)
    answer = client.point("seq_io", {"alg": "strassen", "n": 32, "M": 48,
                                     "seed": 0, "replay": True}, wait_s=30)

See ``docs/serving.md`` for the API, the WAL format, and the failure
matrix the chaos drill certifies.
"""

from repro.engine.pool import BREAKER_STATES, CircuitBreaker
from repro.serve.api import ServeClient, ServeError
from repro.serve.coalesce import Coalescer
from repro.serve.daemon import Daemon, DrainingError, ServeConfig
from repro.serve.queue import JOB_STATES, Job, JobQueue, QueueFull
from repro.serve.wal import WriteAheadLog, fold_records

__all__ = [
    "Daemon",
    "ServeConfig",
    "ServeClient",
    "ServeError",
    "DrainingError",
    "WriteAheadLog",
    "fold_records",
    "Job",
    "JobQueue",
    "QueueFull",
    "JOB_STATES",
    "Coalescer",
    "CircuitBreaker",
    "BREAKER_STATES",
]
