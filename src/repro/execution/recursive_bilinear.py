"""Out-of-core DFS execution of any recursive bilinear ⟨n,m,p;t⟩ algorithm.

The recursion mirrors Algorithm 2: above the cache cutoff, each encoded
operand Â_l = Σ_q U[l,q]·A_q is *streamed* through fast memory in row
chunks (reads: nnz·|block|, writes: |block| per combination), the t
sub-products are computed depth-first, and the output blocks are streamed
back through the decoder.  At the cutoff (the whole sub-problem fits:
R·K + K·C + R·C ≤ M, i.e. 3s² ≤ M in the square case) the operands are
loaded and solved in-cache with a charged output buffer
(``np.matmul(..., out=...)`` — the footprint is genuinely the three live
matrices, no hidden temporary), and stored.

The recursion state is the operand-shape triple (R, K, C) for the product
(R×K)·(K×C): a square algorithm keeps R = K = C = s and divides by d each
level; a rectangular ⟨n,m,p⟩ base case divides the three sides by n, m, p
respectively — the (nᴸ×mᴸ)·(mᴸ×pᴸ) recursion of Lemma 2.2, whose I/O
recurrence gives the Θ((n_eff/√M)^{ω₀}·M) upper bound with
n_eff = (R·K·C)^{1/3} and ω₀ = 3·log_{nmp} t.

The DFS itself is written once, in :mod:`repro.execution.hybrid`:
:func:`execute_recursive_bilinear` is its preset with the classical
cutoff at :func:`~repro.execution.hybrid.hybrid_depth`, where every path
has already reached the cache-fit base case.  This module keeps the
pieces both share — the streamed linear combination and the shape
recursion (:func:`_is_base`, :func:`_split_shape`).

Level-replay mode (``execute_recursive_bilinear(..., level_replay=True)``)
exploits that the t sub-problems of a level are isomorphic: their I/O is
value-independent and identical, so the machine executes the encoders for
every l (their cost varies with nnz(U[l]), nnz(V[l])), recurses into
*one* sub-problem, and charges the other t−1 via
:meth:`SequentialMachine.replay`.  Counters are exact — the
cross-check flag proves it against full execution — but the numeric
product is not computed (the function returns ``None``).  Wall time drops
from Θ(tᴸ) recursive calls to Θ(L·t) at depth L.  Either way each streamed
combination is one machine call whatever its chunk count, so wall time
follows the number of combinations, not the words they move.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bilinear import BilinearAlgorithm
from repro.machine.sequential import SequentialMachine

__all__ = [
    "execute_recursive_bilinear",
    "stream_linear_combination",
]


def stream_linear_combination(
    machine: SequentialMachine,
    sources: list[tuple[str, int, int, float]],
    dst: tuple[str, int, int],
    shape: int | tuple[int, int],
) -> None:
    """dst_block = Σ coeff·src_block, streamed through fast memory.

    ``sources`` — (slow name, row offset, col offset, coefficient) of
    blocks; ``dst`` — (slow name, row offset, col offset); ``shape`` — the
    common block shape, an int h for h×h blocks or a (rows, cols) pair.
    Only two buffers are ever resident — the accumulator and the current
    source chunk, combined in place — so row chunks are sized to the true
    footprint 2·chunk_words ≤ M, independent of the fan-in.  The chunk
    loop is one
    :meth:`~repro.machine.sequential.SequentialMachine.stream_combination`
    call: charged chunk by chunk from the geometry, computed in bulk.
    """
    if not sources:
        raise ValueError("empty linear combination")
    hr, hc = (shape, shape) if isinstance(shape, int) else shape
    chunk_words = machine.M // 2
    if chunk_words < 1:
        raise MemoryError(
            f"M={machine.M} too small to stream {len(sources)}-term combinations"
        )
    rows_budget = max(1, chunk_words // hc)
    cols_budget = hc if chunk_words >= hc else chunk_words
    machine.stream_combination(
        sources, dst, (hr, hc), (rows_budget, cols_budget)
    )


def _is_base(shape: tuple[int, int, int], M: int, base_size: int) -> bool:
    """Cache-fit cutoff: the three live matrices of (R×K)·(K×C) fit in M."""
    R, K, C = shape
    return R * K + K * C + R * C <= M and max(R, K, C) <= base_size


def _split_shape(
    alg: BilinearAlgorithm, shape: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Sub-problem shape one level down; raises if the sides don't divide."""
    R, K, C = shape
    if R % alg.n or K % alg.m or C % alg.p:
        if alg.is_square and R == K == C:
            raise ValueError(
                f"problem size {R} not divisible by base dimension {alg.n}"
            )
        raise ValueError(
            f"problem shape {shape} not divisible by base dimensions "
            f"({alg.n},{alg.m},{alg.p})"
        )
    return (R // alg.n, K // alg.m, C // alg.p)


def execute_recursive_bilinear(
    machine: SequentialMachine,
    alg: BilinearAlgorithm,
    A: np.ndarray,
    B: np.ndarray,
    base_size: int | None = None,
    level_replay: bool = False,
    cross_check: bool = False,
) -> np.ndarray | None:
    """Run the DFS out-of-core algorithm; returns C (and leaves counters set).

    Square algorithms take square, same-shaped operands; rectangular
    ⟨n,m,p⟩ algorithms take conforming A (R×K) and B (K×C) whose sides
    divide down by (n, m, p) per level — e.g. (nᴸ×mᴸ)·(mᴸ×pᴸ).  Shapes
    and per-level divisibility are validated *before* the first machine
    operation, so a rejected point leaves no partial counters or trace.

    ``base_size`` caps the in-cache cutoff; by default the recursion
    bottoms out as soon as the whole sub-problem fits
    (R·K + K·C + R·C ≤ M), the choice that yields the Θ((n/√M)^{ω₀}·M)
    upper bound.

    ``level_replay=True`` executes one of the t isomorphic sub-problems per
    level and charges the rest (see module docstring); counters and peak
    fast-memory are exact but the product is not computed — returns
    ``None``.  ``cross_check=True`` (with replay) additionally runs the
    full execution on a shadow machine and raises if any counter differs;
    use on small n to certify the replay path.
    """
    from repro.execution.hybrid import _operands, _run_dfs, hybrid_depth

    A, B, shape = _operands(alg, A, B, square=True)
    if base_size is None:
        base_size = max(shape)  # cutoff decided purely by the cache-fit test
    # Past the depth every path is cache-fit before the cutoff, so the
    # hybrid DFS is the pure-fast one; the walk also checks divisibility.
    cutoff = hybrid_depth(alg, shape, machine.M, base_size)
    return _run_dfs(
        machine, alg, A, B, shape, cutoff, base_size, "tiled",
        level_replay, cross_check,
    )
