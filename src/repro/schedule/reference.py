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

from repro.schedule.ir import OpKind, ScheduleIR

__all__ = ["execute"]


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


def _parallel_comm(ir: ScheduleIR) -> dict:
    sent = ir.meta.get("sent")
    received = ir.meta.get("received")
    if sent is None or received is None:
        raise ValueError(
            "parallel_comm IR is missing its per-processor tallies "
            "(ir.meta['sent'/'received']); re-lower from the spec"
        )
    total = sum(op.words for op in ir.ops if op.kind is OpKind.COMM)
    per_proc = sent + received
    return {
        "total_comm_words": int(total),
        "comm_per_proc_max": int(per_proc.max()),
        "comm_per_proc_mean": float(per_proc.mean()),
        "levels": int(ir.meta.get("levels", ir.num_levels)),
        "reads": int(total),
        "writes": 0,
        "io": int(total),
    }


def execute(ir: ScheduleIR, machine=None) -> dict:
    """Interpret a lowered IR; returns the workload's metrics dict."""
    if ir.kind == "seq_io":
        return _seq_io(ir, machine)
    if ir.kind == "lru_trace":
        return _lru_trace(ir, ir.params)
    if ir.kind == "pebble":
        return _pebble(ir, ir.params)
    if ir.kind == "parallel_comm":
        return _parallel_comm(ir)
    raise KeyError(f"reference backend: unknown workload kind {ir.kind!r}")
