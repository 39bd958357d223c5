"""Classical matrix multiplication on the sequential machine.

Two executions:

* :func:`execute_tiled` — the textbook communication-optimal blocked
  algorithm: tiles of side b with 4b² ≤ M; I/O ≈ 2(n/b)³·b² + 3n²
  = Θ(n³/√M), matching the Hong–Kung bound of Table I row 1 (with P = 1).
  The footprint is **four** tiles, not the textbook three: accumulating
  ``C += A·B`` at tile granularity needs the product tile materialized
  somewhere, and this machine charges it (``Pt``) instead of letting numpy
  hide it.  (The literature's 3-tile count assumes word-granular fused
  multiply-add; an array-level execution honestly pays the fourth tile.)

* :func:`execute_lru_trace` — the *naive* triple loop pushed through a
  word-granular LRU cache, for small n.  Shows the model does not depend on
  the program being clever: once n² ≫ M the naive ordering pays Θ(n³) I/O,
  strictly worse than tiling, while both respect the lower bound.  The
  trace is generated as numpy address arrays and fed through the
  vectorized :meth:`LRUCache.access_many` kernel, so n in the hundreds is
  cheap where the per-word Python loop topped out an order of magnitude
  earlier.
"""

from __future__ import annotations

import numpy as np

from repro.machine.cache import LRUCache
from repro.machine.sequential import SequentialMachine

__all__ = [
    "execute_tiled",
    "execute_lru_trace",
]

#: Fast-memory tiles a blocked multiply holds at once: A, B, C and the
#: charged product scratch P (see module docstring).
TILE_FOOTPRINT = 4


def execute_tiled(
    machine: SequentialMachine,
    A: np.ndarray,
    B: np.ndarray,
    tile: int | None = None,
    replay: bool = False,
) -> np.ndarray | None:
    """Blocked classical matmul with explicit tile transfers.

    Loop order (i, j, k) keeps the C-tile resident across the k loop, so
    each C-tile is loaded/stored once: I/O = 2(n/b)³b² + (n/b)²b²
    (C allocate+store) — the classical upper bound.  The loop nest is the
    hybrid DFS's tiled leaf (:func:`repro.execution.hybrid._tiled_leaf`)
    on (n, n, n).

    ``replay=True`` executes only the first of the (n/b)² identical
    C-tile passes and scales the counters by the remaining count
    (:meth:`SequentialMachine.replay`); counters are exact
    (each pass moves identical word counts) but the numeric product is not
    produced — the function returns ``None``.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n):
        raise ValueError("square, same-shaped operands required")
    from repro.execution.hybrid import _tiled_leaf, largest_leaf_tile

    b = tile if tile is not None else largest_leaf_tile((n, n, n), machine.M)
    if n % b != 0 or TILE_FOOTPRINT * b * b > machine.M:
        raise ValueError(f"invalid tile size {b} for n={n}, M={machine.M}")

    machine.place_input("A", A)
    machine.place_input("B", B)
    _tiled_leaf(machine, "A", "B", "C", (n, n, n), replay, b)
    if replay:
        return None
    return machine.fetch_output("C")


def _naive_trace_addresses(n: int, rows: range) -> tuple[np.ndarray, np.ndarray]:
    """Address/write arrays of the naive i-j-k loop restricted to ``rows``.

    Address map: A at [0, n²), B at [n², 2n²), C at [2n², 3n²); the trace
    interleaves A[i,k], B[k,j], C[i,j] exactly as the scalar loop did.
    """
    n2 = n * n
    i = np.asarray(rows, dtype=np.int64)[:, None, None]  # (ni, 1, 1)
    j = np.arange(n, dtype=np.int64)[None, :, None]      # (1, n, 1)
    k = np.arange(n, dtype=np.int64)[None, None, :]      # (1, 1, n)
    triple = np.empty((len(rows), n, n, 3), dtype=np.int64)
    triple[..., 0] = i * n + k            # A[i,k]
    triple[..., 1] = n2 + k * n + j       # B[k,j]
    triple[..., 2] = 2 * n2 + i * n + j   # C[i,j]
    addrs = triple.reshape(-1)
    writes = np.zeros(addrs.shape, dtype=bool)
    writes[2::3] = True                   # the C accumulate is a write
    return addrs, writes


def _shift_row_addrs(addrs: np.ndarray, n: int) -> np.ndarray:
    """Relabel addresses of row i to their row-(i+1) counterparts.

    A[i,k] → A[i+1,k] and C[i,j] → C[i+1,j] shift by n inside their n²
    blocks; B addresses are row-independent.
    """
    n2 = n * n
    shifted = addrs.copy()
    shifted[addrs < n2] += n
    shifted[addrs >= 2 * n2] += n
    return shifted


def execute_lru_trace(
    n: int, M: int, kernel: str = "auto", row_replay: bool = True
) -> dict[str, int]:
    """Naive i-j-k matmul address trace through an LRU cache of M words.

    Returns the cache statistics; no numeric result (the trace is the
    object of study).  The trace is generated one i-row at a time (3n²
    accesses) as numpy arrays and pushed through
    :meth:`LRUCache.access_many`; ``kernel`` selects the cache's
    simulation path ("auto"/"vector"/"scalar" — the vectorized kernel is
    stat-identical to the scalar reference, which the machine tests
    certify).

    ``row_replay=True`` exploits that the trace is periodic in i: row i+1
    is exactly row i with A/C addresses relabeled one row down.  Once the
    post-row cache state equals the relabeled previous state (same LRU
    order, same dirty bits) *and* the row's counter deltas repeat, every
    remaining row provably behaves identically — the counters are charged
    in O(1) and simulation stops.  The check is exact, so the returned
    stats are identical to the full simulation (covered by tests);
    ``row_replay=False`` forces the full row-by-row run.
    """
    cache = LRUCache(M)
    prev_state: tuple[np.ndarray, np.ndarray] | None = None
    prev_delta: tuple[int, int, int] | None = None
    for i in range(n):
        addrs, writes = _naive_trace_addresses(n, range(i, i + 1))
        before = (cache.hits, cache.misses, cache.writebacks)
        cache.access_many(addrs, write=writes, kernel=kernel)
        delta = (
            cache.hits - before[0],
            cache.misses - before[1],
            cache.writebacks - before[2],
        )
        state_addrs = np.fromiter(
            cache._lines.keys(), dtype=np.int64, count=len(cache._lines)
        )
        state_dirty = np.fromiter(
            cache._lines.values(), dtype=bool, count=len(cache._lines)
        )
        if (
            row_replay
            and prev_state is not None
            and delta == prev_delta
            and np.array_equal(_shift_row_addrs(prev_state[0], n), state_addrs)
            and np.array_equal(prev_state[1], state_dirty)
        ):
            remaining = n - 1 - i
            cache.hits += delta[0] * remaining
            cache.misses += delta[1] * remaining
            cache.writebacks += delta[2] * remaining
            # the final state is the current one relabeled `remaining` rows
            # down; flush() below only counts dirty lines, which the
            # relabeling preserves, so the stats are exact.
            break
        prev_state, prev_delta = (state_addrs, state_dirty), delta
    cache.flush()
    return cache.stats()
