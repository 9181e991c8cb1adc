"""Single source of truth for numeric tolerances.

The algorithms need only fixed tolerances, so there is one frozen
:data:`DEFAULT` and every tolerance-sensitive operation reads
``DEFAULT.<field>`` where it uses it; no function takes a per-call override.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericConfig:
    # psd_factor slack for slightly negative eigenvalues (relative to ||M||_F).
    psd_tol: float = 1e-9
    # Declared singular when min eigenvalue <= singular_rtol * scale.
    singular_rtol: float = 1e-12
    # Sum of mu must match the budget within budget_rtol * n.
    budget_rtol: float = 1e-9
    # Column sums of the gradient matrix at theta0, relative to the max row norm.
    gradient_balance_rtol: float = 1e-6
    # E-optimality eigen-gap thresholds (relative to the top eigenvalue).
    eigen_gap_error: float = 1e-8
    eigen_gap_warn: float = 1e-3
    # Stationarity residual required for a Converged solve.
    stationarity_tol: float = 1e-6
    # Absolute slack before an objective increase counts as divergence.
    divergence_slack: float = 1e-12


DEFAULT = NumericConfig()
