"""Machine backend: the physical executors on live machines.

The ground truth the other backends are certified against, behind the
same facade.  Operands are standard-normal, seeded from
``payload["seed"]`` (default 0), so the seed never reaches the spec's
params or label.  Nothing is lowered.

* ``seq_io`` runs its variant's executor through
  :func:`repro.schedule.lower.execute_seq_io` (the call lowering
  records) on a :class:`~repro.machine.sequential.SequentialMachine`;
  with replay off the product is checked against ``A @ B``, level
  replay computes no product.
* ``lru_trace`` runs
  :func:`~repro.execution.classical_tiled.execute_lru_trace`.
* ``parallel_comm`` runs
  :func:`~repro.execution.parallel_strassen.execute_parallel_bfs`
  (``bfs``) or :func:`~repro.execution.parallel_classical.
  parallel_classical_summa` on a ``BSPMachine(P, M)`` (``summa``),
  checks the product, and reports the comm metrics the reference and
  vector backends read off the lowered IR.  SUMMA runs here only: its
  broadcasts are not lowered.

``pebble`` (a move list, not an execution) raises
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


def _parallel_comm(spec: ScheduleSpec) -> dict:
    from repro.schedule.reference import comm_metrics

    p = spec.params
    n, P = p["n"], p["P"]
    rng = np.random.default_rng(spec.payload.get("seed", 0))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    if p["variant"] == "summa":
        from repro.execution.parallel_classical import parallel_classical_summa
        from repro.machine.parallel import BSPMachine

        bsp = BSPMachine(P, p["M"])
        C = parallel_classical_summa(bsp, A, B)
        sent, received, levels = bsp.sent, bsp.received, 0
    else:
        from repro.execution.parallel_strassen import execute_parallel_bfs

        C, stats = execute_parallel_bfs(spec.payload["alg"], A, B, P=P)
        sent, received, levels = stats.sent, stats.received, stats.levels
    if not np.allclose(C, A @ B):
        raise AssertionError(f"wrong product at P={P}")
    return comm_metrics(sent, received, levels)


def execute(spec: ScheduleSpec, machine=None) -> dict:
    """Run a workload spec's physical execution; returns metrics."""
    if spec.kind == "seq_io":
        return _seq_io(spec, machine)
    if spec.kind == "lru_trace":
        return _lru_trace(spec)
    if spec.kind == "parallel_comm":
        return _parallel_comm(spec)
    if spec.kind == "pebble":
        raise BackendUnsupported(
            "machine backend does not execute 'pebble' workloads; "
            "use the reference or vector backend"
        )
    raise KeyError(f"machine backend: unknown workload kind {spec.kind!r}")
