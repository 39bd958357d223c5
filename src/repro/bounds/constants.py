"""Leading-constant fits — the axis exponent fits cannot see.

:mod:`repro.bounds.validation` fits log-log *slopes*; two executions with
identical exponents but 2× different constants look the same to it.  The
hybrid study (De Stefani, arXiv:1904.12804) lives entirely in that blind
spot, and Smith et al. (arXiv:1702.02017) pin the classical sequential
constant exactly: I/O ≥ 2n³/√M − 2M for any classical (cubic) schedule,
attained by the resident-C blocking (:mod:`repro.execution.hybrid`).

This module fits c in

    io = c · n_eff^ω₀ / M^(ω₀/2 − 1)

(the bound shape of Theorem 1.1 / Hong–Kung with the constant left free;
for ω₀ = 3 the model is n³/√M, so the Smith et al. reference line is
c = 2).  The falsify battery's ``constants`` checker uses the per-point
ratio spread: a sweep whose constant drifts with n can keep its exponent
error inside the 0.15 gate while the spread exposes it — the
``constant_drift`` mutant class certifies exactly that.

:func:`leading_constant_series` gives the executor side of the same
question: κ(n) = IO(n)/((n/√M)^{ω₀}·M) of the DFS executor, counted by
the symbolic backend (word-identical to the machine), converges to the
executor's leading coefficient — comparable with the closed form of
:func:`repro.bounds.formulas.dfs_io_leading_coefficient`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
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

#: Smith et al.'s tight classical leading constant: I/O ≥ 2n³/√M − 2M.
SMITH_CLASSICAL_CONSTANT = 2.0

#: Max tolerated max/min ratio spread for a constant-stable sweep.  A
#: constant drifting like n^0.09 over a 16× size range already spreads
#: 16^0.09 ≈ 1.28 > this gate while moving the fitted exponent by only
#: 0.09 < the 0.15 exponent gate — the regime the checker exists for.
CONSTANT_SPREAD_TOL = 1.25


def io_model(n_eff: float, M: float, omega0: float) -> float:
    """The unit-constant bound shape n_eff^ω₀ / M^(ω₀/2 − 1).

    Identical to ``(n_eff/√M)^ω₀ · M`` — the Theorem 1.1 / Hong–Kung form
    with the constant factored out.
    """
    return float(n_eff) ** omega0 / float(M) ** (omega0 / 2.0 - 1.0)


def smith_classical_reference(n: float, M: float) -> float:
    """Smith et al.'s classical reference line 2n³/√M (arXiv:1702.02017)."""
    return SMITH_CLASSICAL_CONSTANT * float(n) ** 3 / math.sqrt(float(M))


@dataclass(frozen=True)
class ConstantFit:
    """A through-origin least-squares fit of the leading constant.

    ``constant`` minimizes Σ (io_i − c·model_i)²; ``ratios`` are the
    per-point io_i/model_i whose spread measures constant stability.
    """

    constant: float
    omega0: float
    ratios: tuple[float, ...]

    @property
    def min_ratio(self) -> float:
        return min(self.ratios)

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)

    @property
    def spread(self) -> float:
        """max/min per-point constant — 1.0 for a perfectly stable c."""
        return self.max_ratio / self.min_ratio


def fit_leading_constant(
    n_effs, Ms, measured, omega0: float
) -> ConstantFit:
    """Fit c in measured ≈ c·n_eff^ω₀/M^(ω₀/2−1) over a sweep.

    ``Ms`` may be a scalar (fixed-M sweep) or one value per point.
    Requires at least one point with a positive model value.
    """
    n_effs = [float(x) for x in n_effs]
    if not hasattr(Ms, "__len__"):
        Ms = [float(Ms)] * len(n_effs)
    if not (len(n_effs) == len(Ms) == len(measured)):
        raise ValueError("n_effs, Ms, measured must have equal lengths")
    models = [io_model(x, m, omega0) for x, m in zip(n_effs, Ms)]
    if not models or any(f <= 0 for f in models) or any(y <= 0 for y in measured):
        raise ValueError("constant fit needs positive measurements and model values")
    c = sum(y * f for y, f in zip(measured, models)) / sum(f * f for f in models)
    ratios = tuple(float(y) / f for y, f in zip(measured, models))
    return ConstantFit(constant=float(c), omega0=float(omega0), ratios=ratios)


def constant_within(
    fit: ConstantFit, reference: float, tol: float = 0.15
) -> bool:
    """Is the fitted constant within ``tol`` (relative) of ``reference``?"""
    return abs(fit.constant - reference) <= tol * reference


def constant_drift_holds(report, tol: float = CONSTANT_SPREAD_TOL) -> bool:
    """Constant-stability check on a :class:`~repro.bounds.validation.ShapeReport`.

    The report's per-point measured/bound ratios are the sweep's local
    constants; a drift-free sweep has spread ≈ 1.  Complements
    ``shape_holds``: exponent drift below the exponent gate still moves
    the spread past this one.
    """
    return bool(report.constant_factor_spread <= tol)


@dataclass
class ConstantSeries:
    """κ(n) over a size sweep, with convergence diagnostics."""

    sizes: list[int]
    kappas: list[float]

    @property
    def last(self) -> float:
        return self.kappas[-1]

    @property
    def relative_step(self) -> float:
        """|κ_last − κ_prev| / κ_last — small when converged."""
        if len(self.kappas) < 2:
            return float("inf")
        return abs(self.kappas[-1] - self.kappas[-2]) / abs(self.kappas[-1])

    @property
    def monotone(self) -> bool:
        diffs = np.diff(self.kappas)
        return bool(np.all(diffs >= 0) or np.all(diffs <= 0))


def leading_constant_series(alg, sizes: list[int], M: int) -> ConstantSeries:
    """κ(n) of the DFS executor, from the symbolic backend's exact counts."""
    from repro.bounds.formulas import fast_sequential
    from repro.schedule import run, seq_io_schedule

    kappas = [
        float(run(seq_io_schedule(alg, n, M), backend="symbolic").io)
        / fast_sequential(n, M, alg.omega0)
        for n in sizes
    ]
    return ConstantSeries(sizes=list(sizes), kappas=kappas)
