"""Lowering: from workload specs to the flat Schedule IR.

Every lowering here is a *structural mirror* of the corresponding machine
executor: it emits exactly the op sequence the executor's machine calls
would produce — same chunking, same buffer lifetimes, same replay
boundaries — without touching numpy data.  The contract (checked by the
differential harness and tests/schedule/test_lowering.py) is:

    interpreting the lowered IR with the reference backend produces
    *word-identical* (reads, writes, peak_fast) to running the physical
    executor on a :class:`~repro.machine.sequential.SequentialMachine`.

The sequential ⟨n,m,p;t⟩ recursion is lowered once, by
:func:`_lower_hybrid` — the mirror of the one executor DFS
``repro.execution.hybrid._hybrid_mult`` (streamed linear combinations,
the cache-fit base case, level-replay REPLAY records, a classical leaf at
the cutoff).  The ``seq_io`` variants are its presets, as the executors
are:

* ``hybrid`` — :func:`repro.execution.hybrid.execute_hybrid`: the DFS
  with the spec's cutoff and tiled / resident-C leaf (De Stefani's hybrid
  algorithms);
* ``recursive`` — :func:`repro.execution.recursive_bilinear.
  execute_recursive_bilinear`: the DFS at cutoff ``hybrid_depth``;
* ``tiled`` — :func:`repro.execution.classical_tiled.execute_tiled`: the
  tiled leaf on (n, n, n);
* ``abmm`` — :func:`repro.execution.abmm_exec.execute_abmm`: basis
  transforms around the DFS, its ops tagged by phase.

The non-matmul kinds:

* ``lru_trace`` — one TRACE op per i-row of the naive matmul trace;
* ``pebble`` — a 1:1 move translation of a red-blue pebbling schedule;
* ``parallel_comm`` — owner-map simulation of the BFS-parallel execution
  emitting one COMM op per (level, product, operand) redistribution.
"""

from __future__ import annotations

import numpy as np

from repro.schedule.ir import Op, OpKind, ScheduleIR
from repro.schedule.spec import ScheduleSpec, _dfs_preset

__all__ = ["lower", "lower_seq_io", "lower_lru_trace", "lower_pebble",
           "lower_parallel_comm"]


def lower(spec: ScheduleSpec) -> ScheduleIR:
    """Dispatch a spec to its lowering; returns a validated ScheduleIR."""
    if spec.kind == "seq_io":
        ir = lower_seq_io(spec)
    elif spec.kind == "lru_trace":
        ir = lower_lru_trace(spec)
    elif spec.kind == "pebble":
        ir = lower_pebble(spec)
    elif spec.kind == "parallel_comm":
        ir = lower_parallel_comm(spec)
    else:
        raise KeyError(f"no lowering for workload kind {spec.kind!r}")
    ir.validate()
    return ir


# --------------------------------------------------------------------- #
# seq_io: streamed linear combinations (mirror of stream_linear_combination)
# --------------------------------------------------------------------- #
def _lower_stream(
    ir: ScheduleIR,
    n_sources: int,
    shape: int | tuple[int, int],
    M: int,
    level: int,
    tag: str | None = None,
) -> None:
    """Mirror of ``stream_linear_combination``: chunked dst = Σ coeff·src.

    Emits, per chunk: ALLOC acc, (LOAD src, FREE src) × n_sources,
    STORE acc, FREE acc — the exact buffer lifetime of the machine
    version, so peak fast-memory matches word-for-word.  ``shape`` is the
    block shape (an int h for h×h, or a (rows, cols) pair).
    """
    if n_sources == 0:
        raise ValueError("empty linear combination")
    hr, hc = (shape, shape) if isinstance(shape, int) else shape
    chunk_words = M // 2
    if chunk_words < 1:
        raise MemoryError(
            f"M={M} too small to stream {n_sources}-term combinations"
        )
    rows_budget = max(1, chunk_words // hc)
    cols_budget = hc if chunk_words >= hc else chunk_words
    r = 0
    while r < hr:
        rows = min(rows_budget, hr - r)
        c = 0
        while c < hc:
            cols = min(cols_budget, hc - c)
            words = rows * cols
            ir.emit(OpKind.ALLOC, "_acc", words, level, tag=tag)
            for _ in range(n_sources):
                ir.emit(OpKind.LOAD, "_src", words, level, tag=tag)
                ir.emit(OpKind.FREE, "_src", words, level, tag=tag)
            ir.emit(OpKind.STORE, "_acc", words, level, tag=tag)
            ir.emit(OpKind.FREE, "_acc", words, level, tag=tag)
            c += cols
        r += rows


def _lower_leaf_tiled(
    ir: ScheduleIR, shape: tuple[int, int, int], M: int, level: int, replay: bool
) -> None:
    """Mirror of ``hybrid._tiled_leaf`` (rectangular blocked classical)."""
    from repro.execution.classical_tiled import TILE_FOOTPRINT
    from repro.execution.hybrid import largest_leaf_tile

    R, K, C = shape
    b = largest_leaf_tile(shape, M)
    if TILE_FOOTPRINT * b * b > M:
        raise ValueError(f"invalid tile size {b} for shape={shape}, M={M}")
    qr, qk, qc = R // b, K // b, C // b
    w = b * b
    ir.emit(OpKind.ALLOC, "Pt", w, level)
    pass_span: tuple[int, int] | None = None
    for i in range(qr):
        for j in range(qc):
            if replay and pass_span is not None:
                ir.emit(OpKind.REPLAY, "Ct", 0, level, index=i * qc + j,
                        span=pass_span, repeats=1)
                continue
            i0 = len(ir.ops)
            ir.emit(OpKind.ALLOC, "Ct", w, level, index=i * qc + j)
            for _k in range(qk):
                ir.emit(OpKind.LOAD, "At", w, level)
                ir.emit(OpKind.LOAD, "Bt", w, level)
                ir.emit(OpKind.COMPUTE, "matmul", 0, level)
                ir.emit(OpKind.FREE, "At", w, level)
                ir.emit(OpKind.FREE, "Bt", w, level)
            ir.emit(OpKind.STORE, "Ct", w, level, index=i * qc + j)
            ir.emit(OpKind.FREE, "Ct", w, level)
            pass_span = (i0, len(ir.ops))
    ir.emit(OpKind.FREE, "Pt", w, level)


def _lower_leaf_resident(
    ir: ScheduleIR, shape: tuple[int, int, int], M: int, level: int, replay: bool
) -> None:
    """Mirror of ``hybrid._resident_leaf`` (Smith et al. resident-C)."""
    from repro.execution.hybrid import resident_block

    R, K, C = shape
    b, cw = resident_block(R, C, M)
    pass_span: tuple[int, int] | None = None
    for i in range(R // b):
        for j in range(C // b):
            if replay and pass_span is not None:
                ir.emit(OpKind.REPLAY, "Cb", 0, level, index=i * (C // b) + j,
                        span=pass_span, repeats=1)
                continue
            i0 = len(ir.ops)
            ir.emit(OpKind.ALLOC, "Cb", b * b, level, index=i * (C // b) + j)
            for _k in range(K):
                ir.emit(OpKind.LOAD, "Ar", b, level)
                c0 = 0
                while c0 < b:
                    w = min(cw, b - c0)
                    ir.emit(OpKind.LOAD, "Br", w, level)
                    ir.emit(OpKind.ALLOC, "Pr", b * w, level)
                    ir.emit(OpKind.COMPUTE, "rank1", 0, level)
                    ir.emit(OpKind.FREE, "Pr", b * w, level)
                    ir.emit(OpKind.FREE, "Br", w, level)
                    c0 += w
                ir.emit(OpKind.FREE, "Ar", b, level)
            ir.emit(OpKind.STORE, "Cb", b * b, level, index=i * (C // b) + j)
            ir.emit(OpKind.FREE, "Cb", b * b, level)
            pass_span = (i0, len(ir.ops))


def _lower_hybrid(
    ir: ScheduleIR,
    alg,
    shape: tuple[int, int, int],
    M: int,
    cutoff: int,
    base_size: int,
    level: int,
    replay: bool,
    leaf: str,
    tag: str | None = None,
) -> None:
    """Mirror of ``hybrid._hybrid_mult``: the DFS with classical leaves.

    ``shape`` is the (R, K, C) operand triple of the (R×K)·(K×C) product —
    equal sides for square algorithms, divided by (n, m, p) per level for
    rectangular base cases.  The cache-fit base case takes precedence over
    the cutoff; at ``level == cutoff`` the classical leaf lowering is
    emitted instead of recursing.  ``tag`` labels the recursion's own ops
    (ABMM's bilinear phase, whose cutoff is never reached).
    """
    from repro.execution.recursive_bilinear import _is_base, _split_shape

    R, K, C = shape
    if _is_base(shape, M, base_size):
        ir.emit(OpKind.LOAD, "_a", R * K, level, tag=tag)
        ir.emit(OpKind.LOAD, "_b", K * C, level, tag=tag)
        ir.emit(OpKind.ALLOC, "_c", R * C, level, tag=tag)
        ir.emit(OpKind.COMPUTE, "matmul", 0, level, tag=tag)
        ir.emit(OpKind.STORE, "_c", R * C, level, tag=tag)
        ir.emit(OpKind.FREE, "_a", R * K, level, tag=tag)
        ir.emit(OpKind.FREE, "_b", K * C, level, tag=tag)
        ir.emit(OpKind.FREE, "_c", R * C, level, tag=tag)
        return
    if level >= cutoff:
        lower_leaf = _lower_leaf_tiled if leaf == "tiled" else _lower_leaf_resident
        lower_leaf(ir, shape, M, level, replay)
        return
    hr, hk, hc = _split_shape(alg, shape)
    sub_span: tuple[int, int] | None = None
    for l in range(alg.t):
        _lower_stream(ir, int(np.count_nonzero(alg.U[l])), (hr, hk), M, level,
                      tag=tag)
        _lower_stream(ir, int(np.count_nonzero(alg.V[l])), (hk, hc), M, level,
                      tag=tag)
        if replay and sub_span is not None:
            # Isomorphic to the measured sub-problem (Lemma 2.2): expand by
            # reference instead of lowering another copy of the subtree.
            ir.emit(OpKind.REPLAY, f"M{l}", 0, level, index=l,
                    span=sub_span, repeats=1, tag=tag)
        else:
            i0 = len(ir.ops)
            _lower_hybrid(ir, alg, (hr, hk, hc), M, cutoff, base_size,
                          level + 1, replay, leaf, tag)
            if replay:
                sub_span = (i0, len(ir.ops))
    for q in range(alg.n * alg.p):
        _lower_stream(ir, int(np.count_nonzero(alg.W[q])), (hr, hc), M, level,
                      tag=tag)


def _lower_basis_transform(
    ir: ScheduleIR, n: int, phi: np.ndarray, stop: int, M: int, tag: str
) -> None:
    """Mirror of ``abmm_exec.machine_basis_transform`` (streamed levels)."""
    from repro.util.checks import check_power_of_two

    check_power_of_two(n, "n")
    phi = np.asarray(phi)
    d = 2
    s = n
    level = 0
    while s > stop and s >= d:
        h = s // d
        blocks_per_side = n // s
        for _bi in range(blocks_per_side):
            for _bj in range(blocks_per_side):
                for q2 in range(d * d):
                    _lower_stream(
                        ir, int(np.count_nonzero(phi[q2])), h, M, level, tag=tag
                    )
        s = h
        level += 1


def _lower_abmm(
    ir: ScheduleIR, alt, n: int, M: int, base_size: int | None, replay: bool
) -> None:
    """Mirror of ``abmm_exec.execute_abmm`` (transforms + bilinear core)."""
    from repro.basis.transform import invert_base_transform
    from repro.execution.abmm_exec import abmm_stop_size
    from repro.execution.hybrid import hybrid_depth

    stop = abmm_stop_size(n, M, base_size)
    _lower_basis_transform(ir, n, alt.phi, stop, M, tag="transform_forward")
    _lower_basis_transform(ir, n, alt.psi, stop, M, tag="transform_forward")
    shape = (n, n, n)
    _lower_hybrid(ir, alt.core, shape, M, hybrid_depth(alt.core, shape, M, stop),
                  stop, 0, replay, "tiled", tag="bilinear")
    nu_inv = invert_base_transform(alt.nu)
    _lower_basis_transform(ir, n, nu_inv, stop, M, tag="transform_inverse")


def lower_seq_io(spec: ScheduleSpec) -> ScheduleIR:
    """Lower a sequential out-of-core matmul workload."""
    p = spec.params
    n, M = p["n"], p["M"]
    variant = p.get("variant", "recursive")
    replay = bool(p.get("replay", True))
    ir = ScheduleIR(kind="seq_io", params=dict(p))
    if variant == "tiled":
        _lower_leaf_tiled(ir, (n, n, n), M, 0, replay)
    elif variant == "abmm":
        _lower_abmm(ir, spec.payload["alg"], n, M, p.get("base_size"), replay)
    elif variant in ("recursive", "hybrid"):
        alg, shape, cutoff, bs, leaf = _dfs_preset(spec)
        _lower_hybrid(ir, alg, shape, M, cutoff, bs, 0, replay, leaf)
    else:
        raise KeyError(f"unknown seq_io variant {variant!r}")
    return ir


# --------------------------------------------------------------------- #
# lru_trace
# --------------------------------------------------------------------- #
def lower_lru_trace(spec: ScheduleSpec) -> ScheduleIR:
    """One TRACE op per i-row of the naive matmul trace (3n² accesses)."""
    n = spec.params["n"]
    ir = ScheduleIR(kind="lru_trace", params=dict(spec.params))
    for i in range(n):
        ir.emit(OpKind.TRACE, "row", 3 * n * n, 0, index=i)
    return ir


# --------------------------------------------------------------------- #
# pebble
# --------------------------------------------------------------------- #
def lower_pebble(spec: ScheduleSpec) -> ScheduleIR:
    """1:1 translation of a red-blue pebbling move list into IR ops.

    LOAD/STORE moves carry one word each; COMPUTE keeps the vertex in
    ``index``; EVICT becomes FREE.  The CDAG rides in ``ir.meta`` so the
    validator (:func:`repro.pebbling.game.validate_ir`) can walk the IR
    under the game rules.
    """
    from repro.pebbling.game import MoveKind

    sched = spec.payload["schedule"]
    ir = ScheduleIR(kind="pebble", params=dict(spec.params))
    kind_map = {
        MoveKind.LOAD: OpKind.LOAD,
        MoveKind.STORE: OpKind.STORE,
        MoveKind.COMPUTE: OpKind.COMPUTE,
        MoveKind.EVICT: OpKind.FREE,
    }
    for m in sched.moves:
        words = 1 if m.kind in (MoveKind.LOAD, MoveKind.STORE) else 0
        ir.emit(kind_map[m.kind], m.kind.value, words, 0, index=int(m.v))
    ir.meta["cdag"] = sched.cdag
    return ir


# --------------------------------------------------------------------- #
# parallel_comm (owner-map simulation; value-independent)
# --------------------------------------------------------------------- #
def lower_parallel_comm(spec: ScheduleSpec) -> ScheduleIR:
    """Owner-map mirror of the BFS-parallel execution's communication.

    Replays the round-robin redistribution of
    :func:`repro.execution.parallel_strassen.execute_parallel_bfs` tracking
    only entry→owner maps (no numeric data), emitting one COMM op per
    (level, product, operand/output) redistribution whose ``words`` is the
    number of entries that change processor.  Per-processor sent/received
    tallies land in ``ir.meta`` — they are exactly the physical
    execution's, certified by tests/schedule/test_backends.py.
    """
    from repro.execution.parallel_strassen import simulate_bfs_comm

    alg = spec.payload["alg"]
    n, P = spec.params["n"], spec.params["P"]
    ir = ScheduleIR(kind="parallel_comm", params=dict(spec.params))

    def emit(level: int, l: int, label: str, words: int) -> None:
        ir.emit(OpKind.COMM, label, words, level, index=l)

    sent, received, levels = simulate_bfs_comm(alg, n, P, emit=emit)
    ir.meta["sent"] = sent
    ir.meta["received"] = received
    ir.meta["levels"] = levels
    return ir
