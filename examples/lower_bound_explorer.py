"""Lower-bound explorer: Table I interactively, plus measured upper bounds.

Sweeps (n, M, P), prints every Table I row's value, the dominant term of
Theorem 1.1's parallel max{·,·}, and — for parameter points small enough to
execute — the measured I/O of the instrumented algorithms next to the
floors they respect.

Run:  python examples/lower_bound_explorer.py [n] [M] [P]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import (
    evaluate_table1,
    fast_memory_independent,
    fast_parallel,
    format_table1,
    execute_parallel_bfs,
    execute_recursive_bilinear,
    strassen,
    execute_tiled,
)
from repro.analysis.report import text_table
from repro.bounds.formulas import parallel_crossover_P
from repro.machine import SequentialMachine


def explore(n: int, M: int, P: int) -> None:
    print(format_table1())
    print(f"\nEvaluated at n={n}, M={M}, P={P}:")
    rows = []
    for entry in evaluate_table1(n, M, P):
        for expr, value in entry["bounds"].items():
            rows.append([entry["algorithm"][:44], expr, value])
    print(text_table(["algorithm", "bound", "value"], rows))

    p_star = parallel_crossover_P(n, M)
    print(f"\nTheorem 1.1 parallel max{{·,·}}: crossover at P* ≈ {p_star:,.0f}")
    md, mi = fast_parallel(n, M, P), fast_memory_independent(n, P)
    dominant = "memory-dependent" if md >= mi else "memory-independent"
    print(f"at P={P}: memory-dependent={md:,.0f}, memory-independent={mi:,.0f} "
          f"→ {dominant} dominates")


def measure(n: int, M: int, P: int) -> None:
    if n > 256:
        print(f"\n(n={n} too large for the measured section; skipping)")
        return
    print("\nMeasured upper bounds at the same point:")
    rng = np.random.default_rng(1)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))

    rows = []
    mach = SequentialMachine(M)
    execute_tiled(mach, A, B)
    rows.append(["tiled classical (sequential)", mach.io_operations])
    mach = SequentialMachine(M)
    execute_recursive_bilinear(mach, strassen(), A, B)
    rows.append(["DFS Strassen (sequential)", mach.io_operations])
    # nearest power of 7 for the BFS run (one BFS level per factor of 7)
    levels = max(0, min(2, round(np.log(P) / np.log(7)))) if P > 1 else 0
    bfs_p = 7 ** levels
    if bfs_p > 1 and n % (2 ** levels) == 0:
        _, stats = execute_parallel_bfs(strassen(), A, B, P=bfs_p)
        rows.append([f"BFS Strassen comm/proc (P={bfs_p})", stats.comm_per_proc_max])
    print(text_table(["execution", "measured I/O (words)"], rows))


def main() -> None:
    args = [int(a) for a in sys.argv[1:4]]
    n = args[0] if len(args) > 0 else 64
    M = args[1] if len(args) > 1 else 48
    P = args[2] if len(args) > 2 else 49
    explore(n, M, P)
    measure(n, M, P)


if __name__ == "__main__":
    main()
