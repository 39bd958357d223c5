"""Hybrid fast/classical out-of-core matrix multiplication — the one DFS.

De Stefani (arXiv:1904.12804) studies *hybrid* algorithms: run the fast
⟨n,m,p;t⟩ recursion for the top ℓ levels, then finish every sub-problem
with the classical cubic algorithm.  The interesting physics lives in the
cutoff ℓ and in *leading constants*, not exponents — Smith et al.
(arXiv:1702.02017) pin the classical constant at 2n³/√M, which the
``resident`` leaf below attains up to an O(1/√M) factor.

:func:`_hybrid_mult` is the only sequential ⟨n,m,p;t⟩ recursion in
:mod:`repro.execution`: streamed encoders, DFS, streamed decoder and the
level-replay charging for ``level < cutoff``, a classical leaf at
``level == cutoff``:

* ``leaf="tiled"`` — four b×b tiles, 4b² ≤ M (:func:`_tiled_leaf`);
* ``leaf="resident"`` — the Smith et al. constant-optimal blocking: a
  C-block of side b with (b+1)² ≤ M stays resident while A-columns and
  B-rows stream through as rank-1 updates.  Reads = 2·R·K·C/b ≈ 2n³/√M,
  writes = R·C — the leading constant 2 of arXiv:1702.02017 instead of the
  tiled leaf's 4.

The two classical ends of the family are presets of this code:

* :func:`~repro.execution.recursive_bilinear.execute_recursive_bilinear`
  is the DFS at ``cutoff =`` :func:`hybrid_depth`: every path hits the
  cache-fit base case (R·K + K·C + R·C ≤ M) *before* the cutoff.
* :func:`~repro.execution.classical_tiled.execute_tiled` is
  :func:`_tiled_leaf` on (n, n, n).  The cache-fit check deliberately
  precedes the cutoff check — a sub-problem that fits entirely in fast
  memory is solved in one pass no matter the strategy — so
  ``execute_hybrid(cutoff=0)`` equals it exactly when the top problem
  does not fit in fast memory (3n² > M).
* :func:`~repro.execution.abmm_exec.execute_abmm` runs the DFS on the
  transformed operands.

The ``seq_io`` Schedule IR is recorded from these executors:
``repro.schedule.lower`` runs them on a recording machine, so a lowered
schedule is their op stream by construction.  The one independent copy
of the recursion is the symbolic closed form
``repro.schedule.symbolic._hybrid_costs``, memoized on (shape, remaining
levels); the falsify probes certify it word-identical to the executions.
"""

from __future__ import annotations

from math import gcd, isqrt

import numpy as np

from repro.algorithms.bilinear import BilinearAlgorithm
from repro.execution.classical_tiled import TILE_FOOTPRINT
from repro.execution.recursive_bilinear import (
    _is_base,
    _split_shape,
    stream_linear_combination,
)
from repro.machine.sequential import SequentialMachine

__all__ = [
    "execute_hybrid",
    "hybrid_depth",
    "validate_hybrid_shapes",
    "largest_leaf_tile",
    "resident_block",
    "HYBRID_LEAVES",
]

#: Classical leaf schemes: ``tiled`` (4-tile blocked; ``execute_tiled`` is
#: this leaf on (n, n, n)) and ``resident`` (Smith et al. resident-C rank-1
#: streaming).
HYBRID_LEAVES = ("tiled", "resident")


def largest_leaf_tile(shape: tuple[int, int, int], M: int) -> int:
    """Largest tile side b dividing all of (R, K, C) with 4b² ≤ M (at least 1).

    The 4 is :data:`~repro.execution.classical_tiled.TILE_FOOTPRINT`: the
    true peak is A-tile + B-tile + C-tile + product scratch.  On (n, n, n)
    this is the tile :func:`~repro.execution.classical_tiled.execute_tiled`
    uses by default.  The scan starts at √(M/4), so it costs at most that
    many steps however large the shape.
    """
    R, K, C = shape
    g = gcd(gcd(R, K), C)
    top = min(g, isqrt(max(M, 0) // TILE_FOOTPRINT))  # 4b² ≤ M
    return next((b for b in range(top, 1, -1) if g % b == 0), 1)


def resident_block(R: int, C: int, M: int) -> tuple[int, int]:
    """(block side b, column-chunk width cw) of the resident-C leaf.

    b is the largest divisor of gcd(R, C) whose minimal footprint
    (b+1)² = b² (C-block) + b (A-column) + 1 (B-row chunk) + b (product
    chunk) fits in M; cw then takes whatever budget remains, capping the
    per-update product scratch at b·cw words.
    """
    g = gcd(R, C)
    top = min(g, isqrt(max(M, 0)) - 1)  # (b+1)² ≤ M
    best = next((b for b in range(top, 1, -1) if g % b == 0), 1)
    if (best + 1) * (best + 1) > M:
        raise ValueError(f"invalid resident block {best} for M={M}")
    cw = min(best, max(1, (M - best * best - best) // (best + 1)))
    return best, cw


def hybrid_depth(
    alg: BilinearAlgorithm,
    shape: int | tuple[int, int, int],
    M: int,
    base_size: int | None = None,
) -> int:
    """Levels a pure-fast DFS recurses before its cache-fit base case.

    ``cutoff >= hybrid_depth(...)`` makes :func:`execute_hybrid`
    word-identical to ``execute_recursive_bilinear``.  ``shape`` is the
    (R, K, C) triple, or the A-side n (expanded via ``recursion_shape``).
    Raises :class:`MemoryError` when M < 3: no sub-problem fits then.
    """
    from repro.algorithms.bilinear import recursion_shape

    if M < 3:
        raise MemoryError(f"M={M} cannot hold even a 1×1×1 base case")
    if isinstance(shape, int):
        shape = recursion_shape(alg, shape)
    if base_size is None:
        base_size = max(shape)
    depth = 0
    while not _is_base(shape, M, base_size):
        shape = _split_shape(alg, shape)
        depth += 1
    return depth


def validate_hybrid_shapes(
    alg: BilinearAlgorithm,
    shape: tuple[int, int, int],
    M: int,
    base_size: int,
    cutoff: int,
) -> None:
    """Walk the hybrid recursion's shapes, raising before any machine op.

    Divisibility by (n, m, p) is only required down to the cutoff — the
    classical leaves tile whatever shape they receive — which is exactly
    what lets hybrid points run sizes a pure-fast recursion rejects.
    """
    level = 0
    while level < cutoff and not _is_base(shape, M, base_size):
        shape = _split_shape(alg, shape)
        level += 1
    if not _is_base(shape, M, base_size) and TILE_FOOTPRINT > M:
        raise MemoryError(f"M={M} cannot hold even a 1×1 classical leaf")


def _tiled_leaf(
    machine: SequentialMachine,
    a_name: str,
    b_name: str,
    c_name: str,
    shape: tuple[int, int, int],
    replay: bool,
    b: int | None = None,
) -> None:
    """Blocked classical (R×K)·(K×C) on named slow arrays.

    Tile side ``b`` defaults to :func:`largest_leaf_tile`.  Loop order
    (i, j, k) keeps the C-tile resident across the k loop, which is one
    :meth:`~repro.machine.sequential.SequentialMachine.tile_k_loop` call
    per C tile: charged as qk A- and B-tile loads, computed in bulk.  With
    ``replay`` only the first C-tile pass runs and the rest are charged.
    """
    R, K, C = shape
    M = machine.M
    if b is None:
        b = largest_leaf_tile(shape, M)
    if TILE_FOOTPRINT * b * b > M:
        raise ValueError(f"invalid tile size {b} for shape={shape}, M={M}")
    machine.alloc_slow(c_name, (R, C))
    qr, qk, qc = R // b, K // b, C // b
    machine.allocate("Pt", (b, b))  # charged product scratch
    pass_io = None
    for i in range(qr):
        for j in range(qc):
            if replay and pass_io is not None:
                machine.replay(pass_io, "Ct")
                continue
            mark = machine.mark()
            machine.allocate("Ct", (b, b))
            machine.tile_k_loop(a_name, b_name, "Ct", i, j, b, qk)
            machine.store_slice(
                "Ct", c_name, np.s_[i * b : (i + 1) * b, j * b : (j + 1) * b]
            )
            machine.free("Ct")
            pass_io = machine.segment(mark)
    machine.free("Pt")


def _resident_leaf(
    machine: SequentialMachine,
    a_name: str,
    b_name: str,
    c_name: str,
    shape: tuple[int, int, int],
    replay: bool,
) -> None:
    """Smith et al. resident-C leaf: rank-1 streaming into a b×b C-block.

    Per (i, j) block: keep C resident, and for every k load one b-word
    A-column and one b-word B-row (in cw-wide chunks whose product scratch
    is charged), accumulating C += a·bᵀ.  Reads 2·R·K·C/b, writes R·C,
    peak b² + b + cw·(b+1) ≤ M — the 2n³/√M + n² classical optimum.
    """
    R, K, C = shape
    b, cw = resident_block(R, C, machine.M)
    machine.alloc_slow(c_name, (R, C))
    pass_io = None
    for i in range(R // b):
        for j in range(C // b):
            if replay and pass_io is not None:
                machine.replay(pass_io, "Cb")
                continue
            mark = machine.mark()
            c_blk = machine.allocate("Cb", (b, b))
            for k in range(K):
                a_col = machine.load_slice(
                    a_name, np.s_[i * b : (i + 1) * b, k : k + 1], "Ar", copy=False
                )
                c0 = 0
                while c0 < b:
                    w = min(cw, b - c0)
                    b_row = machine.load_slice(
                        b_name, np.s_[k : k + 1, j * b + c0 : j * b + c0 + w],
                        "Br", copy=False,
                    )
                    t = machine.allocate("Pr", (b, w))
                    with machine.compute():
                        np.multiply(a_col, b_row, out=t)
                        np.add(c_blk[:, c0 : c0 + w], t, out=c_blk[:, c0 : c0 + w])
                    machine.free("Pr")
                    machine.free("Br")
                    c0 += w
                machine.free("Ar")
            machine.store_slice(
                "Cb", c_name, np.s_[i * b : (i + 1) * b, j * b : (j + 1) * b]
            )
            machine.free("Cb")
            pass_io = machine.segment(mark)


_LEAF_EXECUTORS = {"tiled": _tiled_leaf, "resident": _resident_leaf}


def _hybrid_mult(
    machine: SequentialMachine,
    alg: BilinearAlgorithm,
    a_name: str,
    b_name: str,
    c_name: str,
    shape: tuple[int, int, int],
    cutoff: int,
    level: int,
    base_size: int,
    leaf: str,
    tag: str,
    replay: bool = False,
) -> None:
    """The ⟨n,m,p;t⟩ DFS, with a classical ``leaf`` at ``level == cutoff``.

    The cache-fit base case takes precedence over the cutoff.  ``tag``
    names this call's slow temporaries; ``replay`` executes one of the t
    isomorphic sub-problems per level and charges the rest.
    """
    R, K, C = shape
    if _is_base(shape, machine.M, base_size):
        a = machine.load(a_name, "_a", copy=False)
        b = machine.load(b_name, "_b", copy=False)
        c = machine.allocate("_c", (R, C))
        with machine.compute():
            np.matmul(a, b, out=c)
        machine.store("_c", c_name)
        machine.free("_a")
        machine.free("_b")
        machine.free("_c")
        return
    if level >= cutoff:
        _LEAF_EXECUTORS[leaf](machine, a_name, b_name, c_name, shape, replay)
        return
    hr, hk, hc = _split_shape(alg, shape)
    machine.alloc_slow(c_name, (R, C))
    prod_names: list[str] = []
    sub_io = None
    for l in range(alg.t):
        ah = f"{tag}.A{l}"
        bh = f"{tag}.B{l}"
        ml = f"{tag}.M{l}"
        machine.alloc_slow(ah, (hr, hk))
        machine.alloc_slow(bh, (hk, hc))
        stream_linear_combination(
            machine,
            [
                (a_name, (q // alg.m) * hr, (q % alg.m) * hk, float(alg.U[l, q]))
                for q in np.nonzero(alg.U[l])[0]
            ],
            (ah, 0, 0),
            (hr, hk),
        )
        stream_linear_combination(
            machine,
            [
                (b_name, (q // alg.p) * hk, (q % alg.p) * hc, float(alg.V[l, q]))
                for q in np.nonzero(alg.V[l])[0]
            ],
            (bh, 0, 0),
            (hk, hc),
        )
        if replay and sub_io is not None:
            # Isomorphic to the measured sub-problem (same shape, same
            # remaining cutoff budget): charge, don't execute.
            machine.alloc_slow(ml, (hr, hc))
            machine.replay(sub_io, ml)
        else:
            mark = machine.mark()
            _hybrid_mult(
                machine, alg, ah, bh, ml, (hr, hk, hc), cutoff, level + 1,
                base_size, leaf, f"{tag}.{l}", replay=replay,
            )
            sub_io = machine.segment(mark)
        machine.drop_slow(ah)
        machine.drop_slow(bh)
        prod_names.append(ml)
    for q in range(alg.n * alg.p):
        stream_linear_combination(
            machine,
            [
                (prod_names[int(l)], 0, 0, float(alg.W[q, l]))
                for l in np.nonzero(alg.W[q])[0]
            ],
            (c_name, (q // alg.p) * hr, (q % alg.p) * hc),
            (hr, hc),
        )
    for ml in prod_names:
        machine.drop_slow(ml)


def execute_hybrid(
    machine: SequentialMachine,
    alg: BilinearAlgorithm,
    A: np.ndarray,
    B: np.ndarray,
    cutoff: int,
    base_size: int | None = None,
    leaf: str = "tiled",
    level_replay: bool = False,
    cross_check: bool = False,
) -> np.ndarray | None:
    """Fast recursion above ``cutoff`` levels, classical leaves below.

    ``cutoff=0`` is the pure classical execution (word-identical to
    ``execute_tiled`` on square problems exceeding fast memory);
    ``cutoff >= hybrid_depth(alg, shape, M)`` is word-identical to
    ``execute_recursive_bilinear`` — the property suite certifies both.
    ``leaf`` selects the classical scheme (:data:`HYBRID_LEAVES`).

    Shapes are validated before the first machine operation, and — unlike
    the pure-fast executor — divisibility is only required for the top
    ``cutoff`` levels.  ``level_replay`` / ``cross_check`` behave as in
    ``execute_recursive_bilinear`` (replay returns ``None``; the
    cross-check runs a shadow full execution and compares counters).
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")
    if leaf not in HYBRID_LEAVES:
        raise ValueError(f"unknown hybrid leaf {leaf!r} (choose from {HYBRID_LEAVES})")
    A, B, shape = _operands(alg, A, B, square=cutoff > 0)
    if base_size is None:
        base_size = max(shape)
    validate_hybrid_shapes(alg, shape, machine.M, base_size, cutoff)
    return _run_dfs(
        machine, alg, A, B, shape, int(cutoff), base_size, leaf,
        level_replay, cross_check,
    )


def _operands(
    alg: BilinearAlgorithm, A: np.ndarray, B: np.ndarray, square: bool
) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """float64 operands and their (R, K, C) shape; a square algorithm
    needs equal sides when ``square`` (any fast level runs)."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError("conforming 2-d operands required")
    shape = (A.shape[0], A.shape[1], B.shape[1])
    if square and alg.is_square and not (shape[0] == shape[1] == shape[2]):
        raise ValueError("square, same-shaped operands required")
    return A, B, shape


def _run_dfs(
    machine: SequentialMachine,
    alg: BilinearAlgorithm,
    A: np.ndarray,
    B: np.ndarray,
    shape: tuple[int, int, int],
    cutoff: int,
    base_size: int,
    leaf: str,
    level_replay: bool,
    cross_check: bool,
) -> np.ndarray | None:
    """Place A, B and run :func:`_hybrid_mult` on validated operands.

    Returns C, or ``None`` under ``level_replay``; ``cross_check`` then
    reruns in full on a shadow machine and raises if a counter differs.
    """
    def run(m: SequentialMachine, replay: bool) -> None:
        m.place_input("A", A)
        m.place_input("B", B)
        _hybrid_mult(
            m, alg, "A", "B", "C", shape, cutoff, 0, base_size, leaf, "r",
            replay=replay,
        )

    run(machine, level_replay)
    if not level_replay:
        return machine.fetch_output("C")
    if cross_check:
        ref = SequentialMachine(
            machine.M, read_cost=machine.read_cost, write_cost=machine.write_cost
        )
        run(ref, False)
        mismatches = {
            key: (got, want)
            for key, got, want in [
                ("reads", machine.words_read, ref.words_read),
                ("writes", machine.words_written, ref.words_written),
                ("peak_fast", machine.peak_fast_words, ref.peak_fast_words),
            ]
            if got != want
        }
        if mismatches:
            raise AssertionError(
                f"level-replay counters diverge from full execution: {mismatches}"
            )
    return None
