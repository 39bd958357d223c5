"""Reference backend: op-by-op interpretation of a lowered ScheduleIR.

This is the trust anchor of the backend set: it reproduces today's exact
machine counts by construction, because the sequential-workload path *is*
the machine — :meth:`repro.machine.sequential.SequentialMachine.consume_ir`
charges each op through the same ``_charge_alloc`` capacity check, the
same counters, the same metrics-registry publications, and the same
replay-charge path (:meth:`charge_replayed_io`, behind ``replay``) the
physical executors use.  The other workload kinds route to their canonical rule engines: the
LRU cache for TRACE streams, the red-blue game validator for pebbling
moves, the owner-map tallies for parallel communication.

The vector and symbolic backends are certified against this one
(``repro falsify`` backend probes + tests/schedule/); its ``seq_io`` ops
are recorded from the physical executors themselves.
"""

from __future__ import annotations

import numpy as np

from repro.schedule.ir import OpKind, ScheduleIR

__all__ = ["execute", "comm_metrics", "parallel_comm"]


def _seq_io(ir: ScheduleIR, machine=None) -> dict:
    from repro.machine.sequential import SequentialMachine

    if machine is None:
        machine = SequentialMachine(int(ir.params["M"]))
    return machine.consume_ir(ir)


def _lru_trace(ir: ScheduleIR, params: dict) -> dict:
    from repro.execution.classical_tiled import _naive_trace_addresses
    from repro.machine.cache import LRUCache

    n = int(params["n"])
    cache = LRUCache(int(params["M"]))
    kernel = params.get("kernel", "auto")
    for op in ir.ops:
        if op.kind is not OpKind.TRACE:
            continue
        i = int(op.index)
        addrs, writes = _naive_trace_addresses(n, range(i, i + 1))
        cache.access_many(addrs, write=writes, kernel=kernel)
    cache.flush()
    st = cache.stats()
    return {
        "hits": int(st["hits"]),
        "misses": int(st["misses"]),
        "writebacks": int(st["writebacks"]),
        "reads": int(st["misses"]),
        "writes": int(st["writebacks"]),
        "io": int(st["io"]),
    }


def _pebble(ir: ScheduleIR, params: dict) -> dict:
    from repro.pebbling.game import PebbleCost, validate_ir

    stats = validate_ir(
        ir,
        M=int(params["M"]),
        allow_recompute=bool(params.get("allow_recompute", True)),
        cost=PebbleCost(
            float(params.get("read_cost", 1.0)),
            float(params.get("write_cost", 1.0)),
        ),
    )
    return {
        **{k: stats[k] for k in ("loads", "stores", "io", "peak_red",
                                 "recomputations", "moves")},
        "reads": int(stats["loads"]),
        "writes": int(stats["stores"]),
    }


def comm_metrics(sent, received, levels: int) -> dict:
    """The ``parallel_comm`` metrics of per-processor word tallies.

    Every word moved is charged once to its sender, so ``sent`` sums to
    the total.  The one reader for all backends that count the kind: the
    machine backend hands in its run's tallies, reference and vector
    those of the lowered IR (:func:`parallel_comm`).
    """
    total = int(np.sum(sent))
    per_proc = np.asarray(sent) + np.asarray(received)
    return {
        "total_comm_words": total,
        "comm_per_proc_max": int(per_proc.max()),
        "comm_per_proc_mean": float(per_proc.mean()),
        "levels": int(levels),
        "reads": total,
        "writes": 0,
        "io": total,
    }


def parallel_comm(ir: ScheduleIR) -> dict:
    """Count a lowered ``parallel_comm`` IR from its ``meta`` tallies."""
    sent = ir.meta.get("sent")
    received = ir.meta.get("received")
    if sent is None or received is None:
        raise ValueError(
            "parallel_comm IR is missing its per-processor tallies "
            "(ir.meta['sent'/'received']); re-lower from the spec"
        )
    return comm_metrics(sent, received, ir.meta.get("levels", ir.num_levels))


def execute(ir: ScheduleIR, machine=None) -> dict:
    """Interpret a lowered IR; returns the workload's metrics dict."""
    if ir.kind == "seq_io":
        return _seq_io(ir, machine)
    if ir.kind == "lru_trace":
        return _lru_trace(ir, ir.params)
    if ir.kind == "pebble":
        return _pebble(ir, ir.params)
    if ir.kind == "parallel_comm":
        return parallel_comm(ir)
    raise KeyError(f"reference backend: unknown workload kind {ir.kind!r}")
