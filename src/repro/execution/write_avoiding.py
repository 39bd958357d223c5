"""Write-avoiding execution study (§V: non-volatile memory).

The paper's discussion cites Carson et al. and Blelloch et al.: when
writes cost ω ≫ reads (NVM), algorithms should minimize writes, and
recomputation can trade reads for writes.  This module provides the
sequential-machine counterpart of that discussion:

* :func:`tiled_matmul_write_profile` — the classical tiled algorithm's
  read/write breakdown: writes are already only n² (each C tile stored
  once), i.e. classical tiled matmul is write-avoiding "for free";
* :func:`recursive_fast_write_profile` — the DFS fast algorithm writes
  Θ((n/√M)^{ω₀}·M) temporaries, so its write volume *grows* with the
  recursion — the asymmetry the NVM model punishes;
* :func:`nvm_cost_comparison` — total cost under read_cost=1,
  write_cost=ω for both, locating the ω beyond which classical tiling
  beats the fast algorithm at a given (n, M) despite more reads.
"""

from __future__ import annotations

from repro.algorithms.bilinear import BilinearAlgorithm

__all__ = [
    "tiled_matmul_write_profile",
    "recursive_fast_write_profile",
    "nvm_cost_comparison",
]


def _write_profile(alg, n: int, M: int, seed: int) -> dict[str, float]:
    """Reads/writes of one full (replay-off, product-checked) ``seq_io``
    run on the machine backend."""
    from repro import schedule

    spec = schedule.seq_io_schedule(alg, n, M, replay=False)
    spec.payload["seed"] = seed
    report = schedule.run(spec, backend="machine")
    return {
        "reads": float(report.reads),
        "writes": float(report.writes),
        "write_fraction": report.writes / report.io,
    }


def tiled_matmul_write_profile(n: int, M: int, seed: int = 0) -> dict[str, float]:
    """Reads/writes of the tiled classical execution at (n, M)."""
    return _write_profile(None, n, M, seed)


def recursive_fast_write_profile(
    alg: BilinearAlgorithm, n: int, M: int, seed: int = 0
) -> dict[str, float]:
    """Reads/writes of the DFS fast execution at (n, M)."""
    return _write_profile(alg, n, M, seed)


def nvm_cost_comparison(
    alg: BilinearAlgorithm, n: int, M: int, omegas: list[float], seed: int = 0
) -> list[dict[str, float]]:
    """Total cost (reads + ω·writes) of tiled-classical vs fast DFS.

    Returns one record per ω with both costs and the winner — the
    quantitative content of §V's "algorithms that minimize writes are
    likely to be more efficient" for this pair of executions.
    """
    classical = tiled_matmul_write_profile(n, M, seed)
    fast = recursive_fast_write_profile(alg, n, M, seed)
    out = []
    for omega in omegas:
        c_cost = classical["reads"] + omega * classical["writes"]
        f_cost = fast["reads"] + omega * fast["writes"]
        out.append(
            {
                "omega": float(omega),
                "classical_cost": c_cost,
                "fast_cost": f_cost,
                "classical_wins": c_cost < f_cost,
                "fast_write_fraction": fast["write_fraction"],
                "classical_write_fraction": classical["write_fraction"],
            }
        )
    return out
