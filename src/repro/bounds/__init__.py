"""Lower-bound formula library and the Table I registry.

Every row of the paper's Table I is a callable here, parameterized by
(n, M, P), together with provenance: which citation proved it, and whether
the proof tolerates recomputation ("[here]" rows are the paper's own
contribution).  :mod:`repro.bounds.validation` compares measured I/O from
the executions against these floors and fits exponents.
"""

from repro.bounds.formulas import (
    OMEGA0_STRASSEN,
    classical_sequential,
    classical_parallel,
    classical_memory_independent,
    fast_sequential,
    fast_parallel,
    fast_memory_independent,
    parallel_max_bound,
    rectangular_bound,
    fft_bound_memory,
    fft_bound_independent,
    dfs_io_leading_coefficient,
)
from repro.bounds.table1 import TABLE1_ROWS, Table1Row, format_table1, evaluate_table1
from repro.bounds.validation import (
    fit_exponent,
    bound_respected,
    shape_report,
    shape_holds,
)
from repro.bounds.constants import (
    SMITH_CLASSICAL_CONSTANT,
    CONSTANT_SPREAD_TOL,
    ConstantFit,
    io_model,
    smith_classical_reference,
    fit_leading_constant,
    constant_within,
    constant_drift_holds,
    ConstantSeries,
    leading_constant_series,
)

__all__ = [
    "OMEGA0_STRASSEN",
    "classical_sequential",
    "classical_parallel",
    "classical_memory_independent",
    "fast_sequential",
    "fast_parallel",
    "fast_memory_independent",
    "parallel_max_bound",
    "rectangular_bound",
    "fft_bound_memory",
    "fft_bound_independent",
    "dfs_io_leading_coefficient",
    "TABLE1_ROWS",
    "Table1Row",
    "format_table1",
    "evaluate_table1",
    "fit_exponent",
    "bound_respected",
    "shape_report",
    "shape_holds",
    "SMITH_CLASSICAL_CONSTANT",
    "CONSTANT_SPREAD_TOL",
    "ConstantFit",
    "io_model",
    "smith_classical_reference",
    "fit_leading_constant",
    "constant_within",
    "constant_drift_holds",
    "ConstantSeries",
    "leading_constant_series",
]
