"""repro — executable reproduction of Nissim & Schwartz (2019),
"Revisiting the I/O-Complexity of Fast Matrix Multiplication with
Recomputations".

The paper proves that recomputation cannot asymptotically reduce the I/O
complexity of any fast matrix-multiplication algorithm with a 2×2 base
case.  This library makes every object in that proof concrete and
checkable, and pairs each lower bound with an instrumented upper bound:

* ``repro.algorithms`` — bilinear algorithms (U,V,W), Brent validation,
  Strassen/Winograd/classical, the de Groote symmetry corpus, and the
  Hopcroft–Kerr certificate sets;
* ``repro.basis`` — alternative-basis machinery and our rediscovery of the
  Karstadt–Schwartz 12-addition decomposition;
* ``repro.cdag`` — encoder graphs (Fig. 2), the base-case CDAG (Fig. 1),
  the recursive H^{n×n} with SUB_H^{r×r} bookkeeping, classical/FFT CDAGs,
  and synthetic recomputation families;
* ``repro.graphs`` / ``repro.flow`` — max-flow, matchings, dominator sets,
  and the Grigoriev information flow (brute-forced and in closed form);
* ``repro.pebbling`` — the red-blue pebble game with and without
  recomputation, heuristic and exact optimal schedulers, and the Theorem
  1.1 segment audit;
* ``repro.machine`` / ``repro.execution`` — the paper's sequential and
  parallel machine models as counting simulators, with out-of-core and
  distributed matmul executions on top;
* ``repro.bounds`` — every row of Table I as formulas with provenance;
* ``repro.lemmas`` — each lemma of Sections III–IV as an executable check;
* ``repro.analysis`` / ``repro.viz`` — sweeps, fits, and figure renderers;
* ``repro.engine`` — the cached, parallel experiment engine every sweep
  and benchmark runs through.

Quick start::

    from repro import strassen, build_recursive_cdag, check_lemma31
    alg = strassen()
    print(check_lemma31(alg))            # the paper's key matching lemma
    H = build_recursive_cdag(alg, 8)     # the CDAG the bounds live on

Sweeps run through the engine (typed results, persistent cache, workers)::

    from repro import EngineConfig, run_sweep, seq_io_point
    points = [seq_io_point("strassen", n, M=48) for n in (32, 64, 128)]
    sweep = run_sweep(points, EngineConfig(workers=4, cache_dir=".cache"))
    print(sweep.exponent)                # ≈ log₂7
"""

from repro.algorithms import (
    BilinearAlgorithm,
    strassen,
    winograd,
    classical,
    is_valid_algorithm,
    algorithm_corpus,
)
from repro.basis import karstadt_schwartz, AlternativeBasisAlgorithm, abmm_multiply
from repro.cdag import (
    CDAG,
    base_case_cdag,
    build_recursive_cdag,
    classical_mm_cdag,
    fft_cdag,
)
from repro.pebbling import (
    topological_schedule,
    validate_schedule,
    optimal_io,
    segment_audit,
)
from repro.machine import SequentialMachine, BSPMachine, LRUCache
from repro.execution import (
    execute_tiled,
    execute_lru_trace,
    execute_recursive_bilinear,
    execute_abmm,
    execute_parallel_bfs,
    parallel_classical_summa,
)
from repro import schedule
from repro.bounds import (
    OMEGA0_STRASSEN,
    fast_sequential,
    fast_parallel,
    fast_memory_independent,
    parallel_max_bound,
    format_table1,
    evaluate_table1,
)
from repro.analysis.results import (
    BoundValue,
    RunResult,
    SweepPoint,
    SweepResult,
    Table1Evaluation,
)
from repro.engine import (
    EngineConfig,
    ExperimentPoint,
    run_point,
    run_sweep,
    parallel_comm_point,
    pebble_optimal_point,
    segment_audit_point,
    seq_io_point,
)
from repro.lemmas import (
    check_lemma22,
    check_lemma31,
    check_lemma32,
    check_lemma33,
    check_lemma37,
    check_lemma310,
    check_lemma311,
    check_theorem11_sequential,
    check_theorem41,
)

__version__ = "1.0.0"

__all__ = [
    "BilinearAlgorithm",
    "strassen",
    "winograd",
    "classical",
    "is_valid_algorithm",
    "algorithm_corpus",
    "karstadt_schwartz",
    "AlternativeBasisAlgorithm",
    "abmm_multiply",
    "CDAG",
    "base_case_cdag",
    "build_recursive_cdag",
    "classical_mm_cdag",
    "fft_cdag",
    "topological_schedule",
    "validate_schedule",
    "optimal_io",
    "segment_audit",
    "SequentialMachine",
    "BSPMachine",
    "LRUCache",
    "schedule",
    "execute_tiled",
    "execute_lru_trace",
    "execute_recursive_bilinear",
    "execute_abmm",
    "execute_parallel_bfs",
    "parallel_classical_summa",
    "OMEGA0_STRASSEN",
    "fast_sequential",
    "fast_parallel",
    "fast_memory_independent",
    "parallel_max_bound",
    "format_table1",
    "evaluate_table1",
    "BoundValue",
    "RunResult",
    "SweepPoint",
    "SweepResult",
    "Table1Evaluation",
    "EngineConfig",
    "ExperimentPoint",
    "run_point",
    "run_sweep",
    "seq_io_point",
    "parallel_comm_point",
    "pebble_optimal_point",
    "segment_audit_point",
    "check_lemma22",
    "check_lemma31",
    "check_lemma32",
    "check_lemma33",
    "check_lemma37",
    "check_lemma310",
    "check_lemma311",
    "check_theorem11_sequential",
    "check_theorem41",
    "__version__",
]
