"""repro.schedule — the shared Schedule IR and its counting backends.

Every counting path in the repository interprets the same object: a
recursive two-level-memory schedule.  This package makes that object
explicit — a flat typed op list (:mod:`repro.schedule.ir`) that the
sequential executions, the LRU trace, the pebbling validator, and the
BFS-parallel simulator all lower to (:mod:`repro.schedule.lower`) — and
puts three interchangeable counting backends behind one facade, next to
the ``machine`` backend that runs the physical execution itself:

    >>> from repro import schedule
    >>> spec = schedule.seq_io_schedule("strassen", n=4096, M=4096)
    >>> schedule.run(spec, backend="symbolic").io       # milliseconds
    >>> schedule.run(spec, backend="reference").io      # op-by-op, same count

See docs/schedule_ir.md for the op reference, the lowering contract, and
the backend support matrix.
"""

from repro.schedule.api import (
    BACKENDS,
    BackendUnsupported,
    Executor,
    ScheduleReport,
    run,
)
from repro.schedule.ir import IRValidationError, Op, OpKind, ScheduleIR
from repro.schedule.lower import lower
from repro.schedule.spec import (
    ScheduleSpec,
    lru_trace_schedule,
    parallel_comm_schedule,
    pebble_schedule,
    seq_io_schedule,
    spec_from_params,
)

__all__ = [
    "OpKind",
    "Op",
    "ScheduleIR",
    "IRValidationError",
    "BackendUnsupported",
    "ScheduleSpec",
    "seq_io_schedule",
    "lru_trace_schedule",
    "pebble_schedule",
    "parallel_comm_schedule",
    "spec_from_params",
    "lower",
    "run",
    "ScheduleReport",
    "Executor",
    "BACKENDS",
]
