"""BFS-parallel Strassen (CAPS-style) with exact per-word communication.

P = 7^k processors.  Each BFS level splits the processor group into seven
subgroups, one per product M_l; the encoded operands Â_l = Σ U[l,q]·A_q are
redistributed round-robin over the subgroup.  After k levels each group is
a single processor that multiplies its (n/2^k)-sized sub-problem locally;
the decode path redistributes upward symmetrically.

The simulation tracks, for every matrix entry, its *owner processor*, and
charges one word of communication whenever an entry needed by processor p
is owned by p′ ≠ p — the parallel model's I/O definition, counted exactly.
Numeric data rides along so tests verify C = A·B.

The communication term yields the memory-independent n²/P^{2/ω₀}; the
memory-dependent term (n/√M)^{ω₀}·M/P is the local I/O of one leaf
sub-problem, which the engine's ``parallel_comm`` runner counts as a
``seq_io`` schedule.  Together they trace Theorem 1.1's max{·,·}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.bilinear import BilinearAlgorithm

__all__ = [
    "ParallelRunStats",
    "execute_parallel_bfs",
    "simulate_bfs_comm",
]


@dataclass
class ParallelRunStats:
    """Per-run accounting for the BFS execution."""

    P: int
    n: int
    levels: int
    sent: np.ndarray
    received: np.ndarray

    @property
    def comm_per_proc_max(self) -> int:
        return int((self.sent + self.received).max())


def _round_robin_owners(group: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Even entry→processor map over ``group`` (the model's even distribution)."""
    count = shape[0] * shape[1]
    return group[np.arange(count) % len(group)].reshape(shape)


def _block(Xs: np.ndarray, q: int, h: int) -> np.ndarray:
    bi, bj = q // 2, q % 2
    return Xs[bi * h : (bi + 1) * h, bj * h : (bj + 1) * h]


def _bfs_levels(alg: BilinearAlgorithm, n: int, P: int) -> int:
    """Validate (alg, n, P) and return the BFS recursion depth."""
    if (alg.n, alg.m, alg.p) != (2, 2, 2):
        raise ValueError("BFS parallel execution implemented for 2×2 base cases")
    t = alg.t
    levels = 0
    pp = P
    while pp > 1:
        if pp % t != 0:
            raise ValueError(f"P={P} is not a power of {t}")
        pp //= t
        levels += 1
    if n % (2 ** levels) != 0:
        raise ValueError(f"n={n} too small for {levels} BFS levels")
    return levels


def simulate_bfs_comm(
    alg: BilinearAlgorithm,
    n: int,
    P: int,
    emit=None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Owner-map-only replay of the BFS execution's communication.

    Tracks entry→processor maps through the same round-robin
    redistribution as :func:`execute_parallel_bfs` without any numeric
    data — communication is value-independent, so these (sent, received)
    tallies are the physical run's: :func:`execute_parallel_bfs` takes
    them from here.  ``emit(level, l, label, words)``, when given, is called once
    per redistribution that moves ≥1 word — the hook the Schedule IR
    lowering uses to materialize COMM ops.

    Returns ``(sent, received, levels)``.
    """
    levels = _bfs_levels(alg, n, P)
    t = alg.t
    sent = np.zeros(P, dtype=np.int64)
    received = np.zeros(P, dtype=np.int64)

    def charge(src: np.ndarray, dst: np.ndarray, level: int, l: int, label: str) -> None:
        mask = src != dst
        words = int(np.count_nonzero(mask))
        if words:
            np.add.at(sent, src[mask].ravel(), 1)
            np.add.at(received, dst[mask].ravel(), 1)
            if emit is not None:
                emit(level, l, label, words)

    def bfs(ownA: np.ndarray, ownB: np.ndarray, group: np.ndarray, s: int,
            level: int) -> np.ndarray:
        if len(group) == 1:
            return np.full((s, s), group[0], dtype=np.int64)
        h = s // 2
        m = len(group) // t
        child_own: list[np.ndarray] = []
        for l in range(t):
            subgroup = group[l * m : (l + 1) * m]
            newA = _round_robin_owners(subgroup, (h, h))
            for q in np.nonzero(alg.U[l])[0]:
                charge(_block(ownA, int(q), h), newA, level, l, "encodeA")
            newB = _round_robin_owners(subgroup, (h, h))
            for q in np.nonzero(alg.V[l])[0]:
                charge(_block(ownB, int(q), h), newB, level, l, "encodeB")
            child_own.append(bfs(newA, newB, subgroup, h, level + 1))
        ownC = _round_robin_owners(group, (s, s))
        for q in range(4):
            bi, bj = q // 2, q % 2
            dst = ownC[bi * h : (bi + 1) * h, bj * h : (bj + 1) * h]
            for l in np.nonzero(alg.W[q])[0]:
                charge(child_own[int(l)], dst, level, int(l), "decode")
        return ownC

    all_procs = np.arange(P, dtype=np.int64)
    bfs(
        _round_robin_owners(all_procs, (n, n)),
        _round_robin_owners(all_procs, (n, n)),
        all_procs,
        n,
        0,
    )
    return sent, received, levels


def execute_parallel_bfs(
    alg: BilinearAlgorithm,
    A: np.ndarray,
    B: np.ndarray,
    P: int,
) -> tuple[np.ndarray, ParallelRunStats]:
    """Run the BFS-parallel algorithm; P must be a power of alg.t (7^k).

    The communication tallies come from :func:`simulate_bfs_comm`; the
    numeric product recurses through ``alg.apply_one_level``.  Returns
    (C, stats).
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    n = A.shape[0]
    sent, received, levels = simulate_bfs_comm(alg, n, P)

    def bfs(X: np.ndarray, Y: np.ndarray, level: int) -> np.ndarray:
        if level == levels:
            return X @ Y
        return alg.apply_one_level(X, Y, lambda a, b: bfs(a, b, level + 1))

    return bfs(A, B, 0), ParallelRunStats(
        P=P, n=n, levels=levels, sent=sent, received=received
    )
