"""Vector backend: whole-schedule numpy passes over the flat op list.

Where the reference backend walks one op at a time, this backend turns
the IR into parallel numpy arrays (kind codes, word counts, occupancy
deltas) and counts a whole schedule with a handful of array reductions:

* reads/writes — masked sums over the word array, with REPLAY expansion
  records resolved in increasing index order (nested replays see the
  already-resolved contributions of their span, the array analogue of
  :meth:`SequentialMachine.charge_replayed_io`);
* peak fast-memory and the capacity invariant — a cumulative sum over
  the signed occupancy deltas (LOAD/ALLOC positive, FREE negative;
  REPLAY contributes nothing, matching the machine's replay semantics);
* LRU traces — whole row *batches* pushed through the vectorized
  offline kernel (:func:`repro.machine.lru_kernel.simulate_lru_batch`)
  instead of one row per call;
* pebbling — counter tallies via ``bincount`` over the move kinds (the
  red-set occupancy walk for peak/recomputation stays a loop: it is
  inherently sequential state);
* parallel communication — the reference backend's reader of the
  lowering's per-processor tallies (nothing there to vectorize).

Counts are word-identical to the reference backend on every workload —
certified by the ``repro falsify`` backend probes and tests/schedule/.
"""

from __future__ import annotations

import numpy as np

from repro.schedule.ir import OpKind, ScheduleIR
from repro.schedule.reference import parallel_comm

__all__ = ["execute", "effective_rw"]

_CODE = {k: i for i, k in enumerate(OpKind)}
_LOAD = _CODE[OpKind.LOAD]
_STORE = _CODE[OpKind.STORE]
_ALLOC = _CODE[OpKind.ALLOC]
_FREE = _CODE[OpKind.FREE]
_REPLAY = _CODE[OpKind.REPLAY]
_COMPUTE = _CODE[OpKind.COMPUTE]


def _arrays(ir: ScheduleIR) -> tuple[np.ndarray, np.ndarray]:
    count = len(ir.ops)
    kinds = np.fromiter((_CODE[op.kind] for op in ir.ops), np.int8, count=count)
    words = np.fromiter((op.words for op in ir.ops), np.int64, count=count)
    return kinds, words


def effective_rw(ir: ScheduleIR) -> tuple[np.ndarray, np.ndarray]:
    """Per-op effective (reads, writes) arrays, REPLAY spans resolved.

    Replays resolve in index order, so a nested replay's span already
    contains the effective (resolved) contributions of inner replays —
    the array analogue of :meth:`SequentialMachine.charge_replayed_io`.
    Exposed for the differential localizer, which compares this against
    an independent scalar walk op by op.
    """
    kinds, words = _arrays(ir)
    eff_r = np.where(kinds == _LOAD, words, 0)
    eff_w = np.where(kinds == _STORE, words, 0)
    for i in np.nonzero(kinds == _REPLAY)[0]:
        op = ir.ops[int(i)]
        a, b = op.span
        eff_r[i] = int(eff_r[a:b].sum()) * op.repeats
        eff_w[i] = int(eff_w[a:b].sum()) * op.repeats
    return eff_r, eff_w


def _seq_io(ir: ScheduleIR) -> dict:
    from repro.machine.sequential import FastMemoryOverflow

    M = int(ir.params["M"])
    kinds, words = _arrays(ir)
    delta = np.where((kinds == _LOAD) | (kinds == _ALLOC), words, 0) - np.where(
        kinds == _FREE, words, 0
    )
    occupancy = np.cumsum(delta)
    peak = int(occupancy.max(initial=0))
    if peak > M:
        over = int(np.argmax(occupancy > M))
        raise FastMemoryOverflow(
            f"fast memory overflow at op {over}: {int(occupancy[over])} > M={M}"
        )
    eff_r, eff_w = effective_rw(ir)
    reads = int(eff_r.sum())
    writes = int(eff_w.sum())
    metrics = {
        "reads": reads,
        "writes": writes,
        "io": reads + writes,
        "peak_fast": peak,
    }
    tag_idx: dict[str, list[int]] = {}
    for i, op in enumerate(ir.ops):
        if op.tag is not None:
            tag_idx.setdefault(op.tag, []).append(i)
    if tag_idx:
        eff_io = eff_r + eff_w
        metrics["tags"] = {
            tag: int(eff_io[idx].sum()) for tag, idx in sorted(tag_idx.items())
        }
    return metrics


def _lru_trace(ir: ScheduleIR) -> dict:
    from repro.machine.cache import LRUCache
    from repro.execution.classical_tiled import _naive_trace_addresses

    n = int(ir.params["n"])
    M = int(ir.params["M"])
    rows = sorted(int(op.index) for op in ir.ops if op.kind is OpKind.TRACE)
    cache = LRUCache(M)
    # Batch whole row groups through the offline kernel: each access_many
    # call carries rows_per_batch · 3n² addresses (bounded to keep the
    # int64 scratch arrays modest).
    rows_per_batch = max(1, (1 << 21) // max(1, 3 * n * n))
    i = 0
    while i < len(rows):
        j = i
        while j + 1 < len(rows) and rows[j + 1] == rows[j] + 1 and j - i + 1 < rows_per_batch:
            j += 1
        addrs, writes = _naive_trace_addresses(n, range(rows[i], rows[j] + 1))
        cache.access_many(addrs, write=writes, kernel="vector")
        i = j + 1
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


def _pebble(ir: ScheduleIR) -> dict:
    kinds, _ = _arrays(ir)
    counts = np.bincount(kinds, minlength=len(OpKind))
    loads = int(counts[_LOAD])
    stores = int(counts[_STORE])
    rc = float(ir.params.get("read_cost", 1.0))
    wc = float(ir.params.get("write_cost", 1.0))
    # The red-set occupancy is sequential state; only LOAD/COMPUTE/FREE
    # ops touch it, and the counters above are already done.
    red: set[int] = set()
    peak_red = 0
    computed: dict[int, int] = {}
    for op in ir.ops:
        if op.kind is OpKind.LOAD:
            red.add(int(op.index))
        elif op.kind is OpKind.COMPUTE:
            v = int(op.index)
            computed[v] = computed.get(v, 0) + 1
            red.add(v)
        elif op.kind is OpKind.FREE:
            red.discard(int(op.index))
        else:
            continue
        peak_red = max(peak_red, len(red))
    return {
        "loads": loads,
        "stores": stores,
        "io": loads * rc + stores * wc,
        "peak_red": peak_red,
        "recomputations": sum(t - 1 for t in computed.values()),
        "moves": len(ir.ops),
        "reads": loads,
        "writes": stores,
    }


def execute(ir: ScheduleIR, machine=None) -> dict:
    """Count a lowered IR with batched array passes; returns metrics."""
    if ir.kind == "seq_io":
        metrics = _seq_io(ir)
    elif ir.kind == "lru_trace":
        metrics = _lru_trace(ir)
    elif ir.kind == "pebble":
        metrics = _pebble(ir)
    elif ir.kind == "parallel_comm":
        metrics = parallel_comm(ir)
    else:
        raise KeyError(f"vector backend: unknown workload kind {ir.kind!r}")
    if machine is not None and ir.kind == "seq_io":
        # Fold the counted totals into a live machine's ledger (block
        # charge; the per-op walk is the reference backend's job).
        machine.charge_replayed_io(metrics["reads"], metrics["writes"], 1)
    return metrics
