"""Symbolic backend: closed-form I/O counts, no schedule materialized.

The sequential workloads are self-similar: all t sub-problems of a
recursion level are isomorphic (the SUB_H structure behind Lemma 2.2), so
their I/O satisfies a recurrence over the O(log n) distinct sub-problem
sizes instead of the O(t^levels) schedule.  This backend evaluates that
recurrence directly from the workload *spec* — it never lowers, which is
what pushes sweeps to n ≥ 4096 (7¹²⁺ subproblems) in milliseconds where
even the replay-lowered IR costs thousands of ops and the explicit-CDAG
path caps out near n ≈ 32.

Closed forms (word-exact with the schedules recorded from the executors,
certified by the ``repro falsify`` backend probes).  One recurrence,
:func:`_hybrid_costs`, is the closed form of the one executor DFS — the
only copy of the recursion written independently of it; the ``seq_io``
variants are its presets, as the executors are:

* hybrid (fast above cutoff ℓ, classical leaves below), memoized on
  (shape, remaining levels).  Above the cutoff, square case (d = base
  dim, h = s/d):
    reads(s)  = t·reads(h)  + h²·(nnz U + nnz V + nnz W)
    writes(s) = t·writes(h) + h²·(2t + d²)
  cache-fit base (R·K + K·C + R·C ≤ M, first): (RK + KC, RC, peak
  RK + KC + RC); stream peak 2·chunk(h) with
  chunk(h) = min(max(1, (M//2)//h), h) · (h if M//2 ≥ h else M//2);
  at the cutoff, :func:`_leaf_costs` — tiled leaf, tile
  b = largest_leaf_tile: (2qᵣq_cq_k b², qᵣq_c b², 4b²), or resident-C
  leaf (2RKC/b, RC, b² + b + cw(1+b))
* recursive bilinear: the hybrid recurrence at cutoff ``hybrid_depth``
  (the cache-fit base case is reached on every path first)
* tiled classical: the tiled leaf on (n, n, n)
* ABMM: per transform level s (n down to s₀): (n/s)²·Σ_q₂ nnz(row q₂)·(s/2)²
  reads and n² writes, plus the recursive recurrence at cutoff s₀
* LRU trace: the exact periodic-state extrapolation — rows are simulated
  until the cache state provably cycles, then the remaining n − O(1) rows
  are charged in closed form (same counters as the full simulation)

Pebbling move lists and owner-map communication have no closed form here;
those kinds raise :class:`~repro.schedule.ir.BackendUnsupported`.
"""

from __future__ import annotations

import numpy as np

from repro.schedule.ir import BackendUnsupported
from repro.schedule.spec import ScheduleSpec, _dfs_preset

__all__ = ["execute"]


def _stream_costs(
    nnz: int, shape: int | tuple[int, int], M: int
) -> tuple[int, int, int]:
    """(reads, writes, peak) of one streamed linear combination into a block.

    ``shape`` is the block shape — an int h for h×h or a (rows, cols) pair.
    """
    if nnz == 0:
        raise ValueError("empty linear combination")
    hr, hc = (shape, shape) if isinstance(shape, int) else shape
    chunk_words = M // 2
    if chunk_words < 1:
        raise MemoryError(f"M={M} too small to stream {nnz}-term combinations")
    rows = min(max(1, chunk_words // hc), hr)
    cols = hc if chunk_words >= hc else chunk_words
    return nnz * hr * hc, hr * hc, 2 * rows * cols


def _leaf_costs(leaf: str, shape: tuple[int, int, int], M: int) -> tuple[int, int, int]:
    """(reads, writes, peak) of one classical hybrid leaf on (R, K, C)."""
    R, K, C = shape
    if leaf == "tiled":
        from repro.execution.classical_tiled import TILE_FOOTPRINT
        from repro.execution.hybrid import largest_leaf_tile

        b = largest_leaf_tile(shape, M)
        if TILE_FOOTPRINT * b * b > M:
            raise ValueError(f"invalid tile size {b} for shape={shape}, M={M}")
        qr, qk, qc = R // b, K // b, C // b
        return 2 * qr * qc * qk * b * b, qr * qc * b * b, 4 * b * b
    if leaf == "resident":
        from repro.execution.hybrid import resident_block

        b, cw = resident_block(R, C, M)
        w = min(cw, b)
        reads = 2 * (R // b) * (C // b) * K * b
        return reads, (R // b) * (C // b) * b * b, b * b + b + w * (1 + b)
    raise KeyError(f"unknown hybrid leaf {leaf!r}")


def _hybrid_costs(
    alg,
    shape: tuple[int, int, int],
    M: int,
    cutoff: int,
    base_size: int,
    leaf: str,
    memo: dict,
) -> tuple[int, int, int]:
    """(reads, writes, peak) of the DFS at (R, K, C), ``cutoff`` levels left.

    Memoized on (shape, remaining cutoff levels).  Above the cutoff: the
    streamed encoders and decoder plus t isomorphic sub-problems; at the
    cutoff the classical leaf's counts; the cache-fit base case takes
    precedence throughout, mirroring ``hybrid._hybrid_mult`` exactly.
    """
    from repro.execution.recursive_bilinear import _is_base, _split_shape

    key = (shape, max(int(cutoff), 0))
    if key in memo:
        return memo[key]
    R, K, C = shape
    if _is_base(shape, M, base_size):
        res = (R * K + K * C, R * C, R * K + K * C + R * C)
    elif cutoff <= 0:
        res = _leaf_costs(leaf, shape, M)
    else:
        hr, hk, hc = _split_shape(alg, shape)
        reads = writes = peak = 0
        for l in range(alg.t):
            for mat, blk in ((alg.U, (hr, hk)), (alg.V, (hk, hc))):
                sr, sw, sp = _stream_costs(int(np.count_nonzero(mat[l])), blk, M)
                reads += sr
                writes += sw
                peak = max(peak, sp)
        sub_r, sub_w, sub_p = _hybrid_costs(
            alg, (hr, hk, hc), M, cutoff - 1, base_size, leaf, memo
        )
        reads += alg.t * sub_r
        writes += alg.t * sub_w
        peak = max(peak, sub_p)
        for q in range(alg.n * alg.p):
            sr, sw, sp = _stream_costs(int(np.count_nonzero(alg.W[q])), (hr, hc), M)
            reads += sr
            writes += sw
            peak = max(peak, sp)
        res = (reads, writes, peak)
    memo[key] = res
    return res


def _transform_costs(phi: np.ndarray, n: int, stop: int, M: int) -> tuple[int, int, int]:
    """(reads, writes, peak) of one streamed recursive basis transform."""
    phi = np.asarray(phi)
    reads = writes = peak = 0
    s = n
    while s > stop and s >= 2:
        h = s // 2
        blocks = (n // s) ** 2
        for q2 in range(4):
            sr, sw, sp = _stream_costs(int(np.count_nonzero(phi[q2])), h, M)
            reads += blocks * sr
            writes += blocks * sw
            peak = max(peak, sp)
        s = h
    return reads, writes, peak


def _seq_io(spec: ScheduleSpec) -> dict:
    p = spec.params
    n, M = int(p["n"]), int(p["M"])
    variant = p.get("variant", "recursive")
    if variant in ("tiled", "recursive", "hybrid"):
        if variant == "tiled":
            reads, writes, peak = _leaf_costs("tiled", (n, n, n), M)
        else:
            alg, shape, cutoff, bs, leaf = _dfs_preset(spec)
            reads, writes, peak = _hybrid_costs(alg, shape, M, cutoff, bs, leaf, {})
        return {"reads": reads, "writes": writes, "io": reads + writes,
                "peak_fast": peak}
    if variant == "abmm":
        from repro.basis.transform import invert_base_transform
        from repro.execution.abmm_exec import abmm_stop_size
        from repro.execution.hybrid import hybrid_depth
        from repro.util.checks import check_power_of_two

        check_power_of_two(n, "n")
        alt = spec.payload["alg"]
        stop = abmm_stop_size(n, M, p.get("base_size"))
        fr, fw, fp = _transform_costs(alt.phi, n, stop, M)
        gr, gw, gp = _transform_costs(alt.psi, n, stop, M)
        shape = (n, n, n)
        br, bw, bp = _hybrid_costs(
            alt.core, shape, M, hybrid_depth(alt.core, shape, M, stop), stop,
            "tiled", {},
        )
        ir_, iw, ip = _transform_costs(invert_base_transform(alt.nu), n, stop, M)
        reads = fr + gr + br + ir_
        writes = fw + gw + bw + iw
        io_fwd = fr + fw + gr + gw
        io_bil = br + bw
        io_inv = ir_ + iw
        return {
            "reads": reads,
            "writes": writes,
            "io": reads + writes,
            "peak_fast": max(fp, gp, bp, ip),
            "io_transform_forward": float(io_fwd),
            "io_bilinear": float(io_bil),
            "io_transform_inverse": float(io_inv),
            "io_total": float(io_fwd + io_bil + io_inv),
            "transform_fraction": float(
                (io_fwd + io_inv) / max(1.0, io_fwd + io_bil + io_inv)
            ),
        }
    raise KeyError(f"unknown seq_io variant {variant!r}")


def _lru_trace(spec: ScheduleSpec) -> dict:
    from repro.execution.classical_tiled import execute_lru_trace

    p = spec.params
    st = execute_lru_trace(
        int(p["n"]), int(p["M"]), kernel=p.get("kernel", "auto"), row_replay=True
    )
    return {
        "hits": int(st["hits"]),
        "misses": int(st["misses"]),
        "writebacks": int(st["writebacks"]),
        "reads": int(st["misses"]),
        "writes": int(st["writebacks"]),
        "io": int(st["io"]),
    }


def execute(spec: ScheduleSpec, machine=None) -> dict:
    """Count a workload spec in closed form; returns metrics."""
    if spec.kind == "seq_io":
        metrics = _seq_io(spec)
    elif spec.kind == "lru_trace":
        metrics = _lru_trace(spec)
    elif spec.kind in ("pebble", "parallel_comm"):
        raise BackendUnsupported(
            f"symbolic backend has no closed form for {spec.kind!r} workloads; "
            "see the backend support matrix in docs/schedule_ir.md"
        )
    else:
        raise KeyError(f"symbolic backend: unknown workload kind {spec.kind!r}")
    if machine is not None and spec.kind == "seq_io":
        machine.charge_replayed_io(metrics["reads"], metrics["writes"], 1)
    return metrics
