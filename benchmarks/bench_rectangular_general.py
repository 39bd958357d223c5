"""E15 — Table I rows 4–5 exercised with concrete general/rectangular
base cases built by tensor products.

Row 4 ("general base case"): Strassen ⊗ Strassen (⟨4,4,4;49⟩, ω₀ = log₂7)
and Strassen ⊗ classical (⟨4,4,4;56⟩, ω₀ ≈ 2.90) run on the machine; their
measured exponents straddle as their ω₀ predict.

Row 5 (rectangular ⟨m,n,p;q⟩): the ⟨2,3,4;24⟩ recursion measured against
Ω(q^t/M^{log_{mp}q − 1}).
"""

from __future__ import annotations

import numpy as np
from conftest import banner

from repro.algorithms import classical, strassen
from repro.algorithms.tensor import tensor_power, tensor_product
from repro.analysis.report import text_table
from repro.bounds.formulas import rectangular_bound
from repro.bounds.validation import fit_exponent
from repro.execution import execute_recursive_bilinear
from repro.machine import SequentialMachine


def test_general_base_case_exponents(benchmark, rng):
    """Measured I/O exponents of d=4 base cases track their ω₀."""
    algs = [
        tensor_power(strassen(), 2, name="strassen⊗strassen"),
        tensor_product(strassen(), classical(2), name="strassen⊗classical"),
    ]
    sizes = [16, 64, 256]
    M = 96

    def sweep():
        out = {}
        for alg in algs:
            ios = []
            for n in sizes:
                A = rng.standard_normal((n, n))
                B = rng.standard_normal((n, n))
                mach = SequentialMachine(M)
                C = execute_recursive_bilinear(mach, alg, A, B)
                assert np.allclose(C, A @ B)
                ios.append(mach.io_operations)
            out[alg.name] = (ios, fit_exponent(sizes, ios), alg.omega0)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(banner("E15 — general base case (Table I row 4): measured exponents"))
    rows = [
        [name, f"{fitted:.3f}", f"{omega:.3f}"]
        for name, (_, fitted, omega) in results.items()
    ]
    print(text_table(["algorithm", "fitted exponent", "ω₀"], rows))
    fitted = {name: f for name, (_, f, _) in results.items()}
    assert fitted["strassen⊗strassen"] < fitted["strassen⊗classical"]


def test_rectangular_row(benchmark, rng):
    """⟨2,3,4;24⟩ recursion vs the row-5 bound."""
    alg = classical(2, 3, 4)
    M = 64

    def sweep():
        rows = []
        for t in (1, 2, 3):
            A = rng.standard_normal((2 ** t, 3 ** t))
            B = rng.standard_normal((3 ** t, 4 ** t))
            mach = SequentialMachine(M)
            C = execute_recursive_bilinear(mach, alg, A, B)
            assert np.allclose(C, A @ B)
            bound = rectangular_bound(24, t, 2, 4, M)
            rows.append([t, 24 ** t, mach.io_operations, bound,
                         mach.io_operations / bound])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(banner("E15 — rectangular ⟨2,3,4;24⟩ (Table I row 5)"))
    print(text_table(["t", "q^t", "measured I/O", "Ω(q^t/M^{log_mp q−1})", "ratio"], rows))
    for _, _, io, bound, _ in rows:
        assert io >= bound / 64
