"""Lowering: from workload specs to the flat Schedule IR.

``seq_io`` schedules are *recorded*, not written out by hand:
:func:`lower_seq_io` runs the spec's machine executor on zero operands
against a recording stand-in for
:class:`~repro.machine.sequential.SequentialMachine` that appends one op
per machine call.  The lowering contract

    interpreting the lowered IR with the reference backend produces
    *word-identical* (reads, writes, peak_fast) to running the physical
    executor on a :class:`~repro.machine.sequential.SequentialMachine`

therefore holds by construction: the ops are the executor's own calls —
same chunking, same buffer lifetimes, same replay boundaries.  The
``seq_io`` variants name the executor that is run; :func:`execute_seq_io`
is the one variant → executor dispatch, shared with the ``machine``
backend (:mod:`repro.schedule.machine`), which runs the same call on a
live machine with seeded operands:

* ``hybrid`` — :func:`repro.execution.hybrid.execute_hybrid` with the
  spec's cutoff and tiled / resident-C leaf (De Stefani's hybrid
  algorithms);
* ``recursive`` — :func:`repro.execution.recursive_bilinear.
  execute_recursive_bilinear`: the same DFS at cutoff ``hybrid_depth``;
* ``tiled`` — :func:`repro.execution.classical_tiled.execute_tiled`;
* ``abmm`` — :func:`repro.execution.abmm_exec.execute_abmm`, its ops
  tagged by phase.

Recorded ops carry level 0 and no index, and there are no COMPUTE
markers; a level replay becomes a REPLAY op spanning the recorded
segment it repeats.

The non-matmul kinds:

* ``lru_trace`` — one TRACE op per i-row of the naive matmul trace;
* ``pebble`` — a 1:1 move translation of a red-blue pebbling schedule;
* ``parallel_comm`` — owner-map simulation of the BFS-parallel execution
  emitting one COMM op per (level, product, operand) redistribution
  (the ``summa`` variant raises :class:`BackendUnsupported`).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np

from repro.machine.sequential import STREAM_BUFFERS, TILE_BUFFERS, stream_chunks
from repro.schedule.ir import BackendUnsupported, Op, OpKind, ScheduleIR
from repro.schedule.spec import ScheduleSpec

__all__ = ["lower", "lower_seq_io", "lower_lru_trace", "lower_pebble",
           "lower_parallel_comm", "execute_seq_io", "seq_io_operands"]


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
# seq_io: recorded from the executors
# --------------------------------------------------------------------- #
_NO_COMPUTE = nullcontext()


class _Recorder:
    """The :class:`~repro.machine.sequential.SequentialMachine` calls the
    executors make, appended to ``ops`` instead of counted.

    Each transfer or fast buffer becomes a LOAD, STORE, ALLOC or FREE op
    tagged with the active :meth:`phase`; the bulk calls expand into the
    ops of their per-chunk loops; a :meth:`replay` becomes a REPLAY op
    whose span is the segment's op range.  Slow arrays are
    zeros and loads are views, so the executors' numpy work runs on
    throwaway data.  No counters: the backends count the ops and check
    capacity.
    """

    def __init__(self, M: int, ops: list[Op]) -> None:
        self.M = M
        self.ops = ops
        self.slow: dict[str, np.ndarray] = {}
        self.fast: dict[str, np.ndarray] = {}
        self.tag: str | None = None

    def _emit(self, kind: OpKind, name: str, words: int, span=None) -> None:
        self.ops.append(Op(kind, name, words, 0, None, span, 1 if span else 0,
                           self.tag))

    def place_input(self, name: str, arr: np.ndarray) -> None:
        self.slow[name] = arr

    def alloc_slow(self, name: str, shape) -> None:
        self.slow[name] = np.zeros(shape)

    def drop_slow(self, name: str) -> None:
        self.slow.pop(name, None)

    def fetch_output(self, name: str) -> np.ndarray:
        return self.slow[name]

    def load(self, name: str, into: str | None = None, copy: bool = True):
        return self.load_slice(name, ..., into or name)

    def load_slice(self, name: str, idx, into: str, copy: bool = True):
        buf = self.fast[into] = self.slow[name][idx]
        self._emit(OpKind.LOAD, into, buf.size)
        return buf

    def allocate(self, name: str, shape) -> np.ndarray:
        buf = self.fast[name] = np.zeros(shape)
        self._emit(OpKind.ALLOC, name, buf.size)
        return buf

    def store(self, name: str, to: str | None = None) -> None:
        buf = self.slow[to or name] = self.fast[name]
        self._emit(OpKind.STORE, name, buf.size)

    def store_slice(self, name: str, to: str, idx) -> None:
        self._emit(OpKind.STORE, name, self.fast[name].size)

    def free(self, name: str) -> None:
        self._emit(OpKind.FREE, name, self.fast.pop(name).size)

    def stream_combination(self, sources, dst, shape, budget) -> None:
        acc, src = STREAM_BUFFERS
        for _r, _c, rows, cols in stream_chunks(shape, budget):
            w = rows * cols
            self._emit(OpKind.ALLOC, acc, w)
            for _ in sources:
                self._emit(OpKind.LOAD, src, w)
                self._emit(OpKind.FREE, src, w)
            self._emit(OpKind.STORE, acc, w)
            self._emit(OpKind.FREE, acc, w)

    def tile_k_loop(self, a_name, b_name, into, i, j, b, qk) -> None:
        at, bt = TILE_BUFFERS
        for _k in range(qk):
            self._emit(OpKind.LOAD, at, b * b)
            self._emit(OpKind.LOAD, bt, b * b)
            self._emit(OpKind.FREE, at, b * b)
            self._emit(OpKind.FREE, bt, b * b)

    def compute(self):
        return _NO_COMPUTE

    @contextmanager
    def phase(self, name: str):
        self.tag = name
        yield {"io": 0}
        self.tag = None

    def mark(self) -> int:
        return len(self.ops)

    def segment(self, mark: int) -> tuple[int, int]:
        return mark, len(self.ops)

    def replay(self, segment: tuple[int, int], label: str) -> None:
        self._emit(OpKind.REPLAY, label, 0, segment)


def seq_io_operands(spec: ScheduleSpec) -> tuple[tuple[int, int], tuple[int, int]]:
    """Shapes of A and B of a ``seq_io`` spec: the recursion shape of the
    DFS variants (rectangular for ⟨n,m,p⟩ algorithms), n×n otherwise."""
    from repro.algorithms.bilinear import recursion_shape

    n = spec.params["n"]
    if spec.params.get("variant", "recursive") in ("recursive", "hybrid"):
        R, K, C = recursion_shape(spec.payload["alg"], n)
    else:
        R = K = C = n
    return (R, K), (K, C)


def execute_seq_io(machine, spec: ScheduleSpec, A, B) -> tuple:
    """Run the executor a ``seq_io`` spec's variant names on ``machine`` —
    a live :class:`~repro.machine.sequential.SequentialMachine` (the
    ``machine`` backend) or a :class:`_Recorder` (lowering).  Returns
    (C, ABMM phase metrics); C is None under level replay."""
    from repro.execution import (
        execute_abmm,
        execute_hybrid,
        execute_recursive_bilinear,
        execute_tiled,
    )

    p = spec.params
    variant = p.get("variant", "recursive")
    replay = bool(p.get("replay", True))
    alg = spec.payload["alg"]
    if variant == "tiled":
        return execute_tiled(machine, A, B, replay=replay), {}
    if variant == "abmm":
        return execute_abmm(machine, alg, A, B, p.get("base_size"),
                            level_replay=replay)
    if variant == "recursive":
        return execute_recursive_bilinear(machine, alg, A, B, p.get("base_size"),
                                          level_replay=replay), {}
    if variant == "hybrid":
        return execute_hybrid(machine, alg, A, B, p["cutoff"], p.get("base_size"),
                              p.get("leaf", "tiled"), level_replay=replay), {}
    raise KeyError(f"unknown seq_io variant {variant!r}")


def lower_seq_io(spec: ScheduleSpec) -> ScheduleIR:
    """Lower a sequential out-of-core matmul workload by running its
    executor on zero operands against a :class:`_Recorder`."""
    ir = ScheduleIR(kind="seq_io", params=dict(spec.params))
    a_shape, b_shape = seq_io_operands(spec)
    execute_seq_io(_Recorder(spec.params["M"], ir.ops), spec,
                   np.zeros(a_shape), np.zeros(b_shape))
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

    The ``summa`` variant has no lowering: its broadcasts are counted
    only by running it on the BSP machine (the ``machine`` backend).
    """
    from repro.execution.parallel_strassen import simulate_bfs_comm

    if spec.params.get("variant") == "summa":
        raise BackendUnsupported(
            "parallel_comm 'summa' has no lowering; run it on the machine backend"
        )
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
