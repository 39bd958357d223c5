"""Instrumented out-of-core and distributed executions.

Each routine here is a *real* algorithm running against a machine model
from :mod:`repro.machine`, producing both the numeric result (checked in
tests against plain matmul) and exact I/O counters.  These are the measured
**upper bounds** that the benchmarks plot against Theorem 1.1's lower
bounds: the paper's claims are about shape (exponents, who wins, where the
parallel max{·,·} crosses over), and shape needs both sides.

* :func:`execute_hybrid` — fast recursion for the top ``cutoff`` levels,
  classical ``tiled``/``resident`` leaves below (``docs/hybrid.md``); its
  DFS is the only sequential ⟨n,m,p;t⟩ recursion in this package, and the
  next two are its presets;
* :func:`execute_recursive_bilinear` — the DFS of any bilinear algorithm
  with streamed linear combinations and no classical levels,
  I/O = Θ((n/√M)^{ω₀}·M);
* :func:`execute_tiled` — the classical tiled leaf alone, I/O ≈
  2n³/√(M/4) + n²;
* :func:`execute_abmm` — Algorithm 1 on the sequential machine,
  separating transform I/O (Θ(n² log n)) from bilinear I/O (Theorem 4.1's
  "negligible" claim, measured);
* :func:`execute_parallel_bfs` / :func:`parallel_classical_summa` —
  distributed executions for the parallel bounds (SUMMA on the BSP
  machine); a ``parallel_comm`` point adds the local I/O of one leaf
  sub-problem as a sequential run.

All of these run behind the unified facade :func:`repro.schedule.run`
as its ``machine`` backend; the "reference", "vector" and "symbolic"
backends count the same workloads without executing them (SUMMA on
``machine`` only).
"""

from repro.execution.classical_tiled import execute_lru_trace, execute_tiled
from repro.execution.recursive_bilinear import execute_recursive_bilinear
from repro.execution.hybrid import HYBRID_LEAVES, execute_hybrid, hybrid_depth
from repro.execution.abmm_exec import execute_abmm
from repro.execution.parallel_classical import parallel_classical_summa
from repro.execution.parallel_strassen import execute_parallel_bfs, simulate_bfs_comm

__all__ = [
    "execute_tiled",
    "execute_lru_trace",
    "execute_recursive_bilinear",
    "execute_hybrid",
    "hybrid_depth",
    "HYBRID_LEAVES",
    "execute_abmm",
    "execute_parallel_bfs",
    "simulate_bfs_comm",
    "parallel_classical_summa",
]
