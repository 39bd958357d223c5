"""Algorithm 1 (ABMM) on the sequential machine, phase-separated I/O.

Theorem 4.1 rests on one quantitative observation: the basis-transform
passes cost Θ(n² log n) I/O while the bilinear part costs
Θ((n/√M)^{log₂7}·M), so the transforms are asymptotically negligible and
the fast-matmul lower bound transfers to ABMM.  This module measures both
phases separately so the benches can show the ratio actually vanishing.
"""

from __future__ import annotations

import numpy as np

from repro.basis.abmm import AlternativeBasisAlgorithm
from repro.basis.transform import invert_base_transform
from repro.execution.hybrid import _hybrid_mult, hybrid_depth
from repro.execution.recursive_bilinear import stream_linear_combination
from repro.machine.sequential import SequentialMachine
from repro.util.checks import check_power_of_two

__all__ = ["machine_basis_transform", "abmm_stop_size", "execute_abmm"]


def machine_basis_transform(
    machine: SequentialMachine,
    src_name: str,
    dst_name: str,
    n: int,
    phi: np.ndarray,
    stop_size: int = 1,
) -> None:
    """Streamed recursive basis transform of a slow-memory n×n array.

    Level ℓ mixes the d² sub-blocks of each of the 4^ℓ current blocks by
    ``phi``, writing into a fresh slow array; each level moves Θ(n²) words,
    and there are log₂(n/stop_size) levels.
    """
    check_power_of_two(n, "n")
    phi = np.asarray(phi)
    d = 2
    cur = src_name
    level = 0
    s = n
    while s > stop_size and s >= d:
        h = s // d
        nxt = f"{dst_name}._lvl{level}"
        machine.alloc_slow(nxt, (n, n))
        blocks_per_side = n // s
        for bi in range(blocks_per_side):
            for bj in range(blocks_per_side):
                base_r, base_c = bi * s, bj * s
                for q2 in range(d * d):
                    sources = [
                        (
                            cur,
                            base_r + (q // d) * h,
                            base_c + (q % d) * h,
                            float(phi[q2, q]),
                        )
                        for q in np.nonzero(phi[q2])[0]
                    ]
                    stream_linear_combination(
                        machine,
                        sources,
                        (nxt, base_r + (q2 // d) * h, base_c + (q2 % d) * h),
                        h,
                    )
        if cur != src_name:
            machine.drop_slow(cur)
        cur = nxt
        s = h
        level += 1
    machine.slow[dst_name] = machine.slow[cur]
    if cur != dst_name and cur != src_name:
        machine.drop_slow(cur)


def abmm_stop_size(n: int, M: int, base_size: int | None) -> int:
    """The ABMM cutoff: largest power-of-two s with 3s² ≤ M (≤ base_size)."""
    stop = n
    while stop > 1 and (3 * stop * stop > M or (base_size and stop > base_size)):
        stop //= 2
    if 3 * stop * stop > M:
        raise MemoryError(f"M={M} cannot hold even a {stop}×{stop} base case")
    return stop


def execute_abmm(
    machine: SequentialMachine,
    alt: AlternativeBasisAlgorithm,
    A: np.ndarray,
    B: np.ndarray,
    base_size: int | None = None,
    level_replay: bool = False,
) -> tuple[np.ndarray | None, dict[str, float]]:
    """Run ABMM out-of-core; returns (C, per-phase I/O breakdown).

    The transforms recurse exactly as deep as the bilinear part will: the
    cutoff size s₀ (:func:`abmm_stop_size`: largest s with 3s² ≤ M,
    bounded by ``base_size``) is computed up front and used as both the
    transform stop size and the recursion base — below s₀ everything stays
    in the original basis and the in-cache products are plain matmuls.
    Operands must be square, same-shaped and of power-of-two side; they are
    validated before the first machine operation.

    ``level_replay=True`` replays the bilinear phase (one of the t
    isomorphic sub-problems executed per level, the rest charged — see
    :mod:`repro.execution.recursive_bilinear`); the transform phases always
    execute in full.  Counters stay exact but C is not computed — the
    returned product is ``None``.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n):
        raise ValueError("square, same-shaped operands required")
    check_power_of_two(n, "n")
    stop = abmm_stop_size(n, machine.M, base_size)
    machine.place_input("A_orig", A)
    machine.place_input("B_orig", B)

    with machine.phase("transform_forward") as fwd:
        machine_basis_transform(machine, "A_orig", "A", n, alt.phi, stop)
        machine_basis_transform(machine, "B_orig", "B", n, alt.psi, stop)
    shape = (n, n, n)
    with machine.phase("bilinear") as bil:
        _hybrid_mult(
            machine, alt.core, "A", "B", "C_t", shape,
            hybrid_depth(alt.core, shape, machine.M, stop), 0, stop, "tiled", "r",
            replay=level_replay,
        )
    with machine.phase("transform_inverse") as inv:
        nu_inv = invert_base_transform(alt.nu)
        machine_basis_transform(machine, "C_t", "C", n, nu_inv, stop)
    io_fwd, io_bilinear, io_inv = fwd["io"], bil["io"], inv["io"]

    C = None if level_replay else machine.fetch_output("C")
    return C, {
        "io_transform_forward": float(io_fwd),
        "io_bilinear": float(io_bilinear),
        "io_transform_inverse": float(io_inv),
        "io_total": float(io_fwd + io_bilinear + io_inv),
        "transform_fraction": float(
            (io_fwd + io_inv) / max(1.0, io_fwd + io_bilinear + io_inv)
        ),
    }
