"""Machine backend: the physical executors on live machines.

The ground truth the other backends are certified against, behind the
same facade.  A ``seq_io`` spec runs its variant's executor through
:func:`repro.schedule.lower.execute_seq_io` (the call lowering records)
on a :class:`~repro.machine.sequential.SequentialMachine` with
standard-normal operands seeded from ``payload["seed"]`` (default 0), so
the seed never reaches the spec's params or label.  With replay off the
product is checked against ``A @ B``; level replay computes no product.
An ``lru_trace`` spec runs
:func:`~repro.execution.classical_tiled.execute_lru_trace`.  Nothing is
lowered.  ``pebble`` (a move list, not an execution) and
``parallel_comm`` (whose physical run stays in the engine's runner, next
to the classical SUMMA baseline) raise
:class:`~repro.schedule.ir.BackendUnsupported`.
"""

from __future__ import annotations

import numpy as np

from repro.schedule.ir import BackendUnsupported
from repro.schedule.spec import ScheduleSpec

__all__ = ["execute"]


def _seq_io(spec: ScheduleSpec, machine=None) -> dict:
    from repro.machine.sequential import SequentialMachine
    from repro.schedule.lower import execute_seq_io, seq_io_operands

    rng = np.random.default_rng(spec.payload.get("seed", 0))
    a_shape, b_shape = seq_io_operands(spec)
    A = rng.standard_normal(a_shape)
    B = rng.standard_normal(b_shape)
    if machine is None:
        machine = SequentialMachine(int(spec.params["M"]))
    C, phases = execute_seq_io(machine, spec, A, B)
    if C is not None and not np.allclose(C, A @ B):
        raise AssertionError(f"wrong product at n={spec.params['n']}")
    stats = machine.stats()
    keys = ("io", "reads", "writes", "peak_fast", "io_cost")
    return {k: stats[k] for k in keys} | phases


def _lru_trace(spec: ScheduleSpec) -> dict:
    from repro.execution.classical_tiled import execute_lru_trace

    p = spec.params
    st = execute_lru_trace(p["n"], p["M"], kernel=p.get("kernel", "auto"),
                           row_replay=bool(p.get("row_replay", True)))
    counts = {k: int(st[k]) for k in ("hits", "misses", "writebacks", "io")}
    return counts | {"reads": counts["misses"], "writes": counts["writebacks"]}


def execute(spec: ScheduleSpec, machine=None) -> dict:
    """Run a workload spec's physical execution; returns metrics."""
    if spec.kind == "seq_io":
        return _seq_io(spec, machine)
    if spec.kind == "lru_trace":
        return _lru_trace(spec)
    if spec.kind in ("pebble", "parallel_comm"):
        raise BackendUnsupported(
            f"machine backend does not execute {spec.kind!r} workloads; "
            "use the reference or vector backend"
        )
    raise KeyError(f"machine backend: unknown workload kind {spec.kind!r}")
