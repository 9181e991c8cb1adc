"""Single source of truth for numeric tolerances.

The algorithms need only fixed tolerances, so there is one frozen
:data:`DEFAULT` and every tolerance-sensitive operation reads
``DEFAULT.<field>`` where it uses it. The one per-call override is the
fits' ``tol`` (the CLI's ``--tol``), whose default is ``newton_tol``.
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
    # A without-replacement expected count at 1 - cap_tol or above is capped.
    cap_tol: float = 1e-12
    # Newton stops at max |risk gradient| <= newton_tol (the default --tol); a
    # line-search step may raise the risk by line_search_rtol * max(1, |risk|).
    newton_tol: float = 1e-10
    line_search_rtol: float = 1e-12
    # Singular Hessian (rank deficiency, separation) at this least eigenvalue
    # once each parameter is scaled by its largest curvature along the fit.
    curvature_rtol: float = 1e-8
    # Logistic probabilities are clipped to [p_clamp, 1 - p_clamp].
    p_clamp: float = 1e-12
    # Floors of the lognormal fit's starting scale and, in the sequential
    # anticipation, of the lognormal residual scale and finpop's least
    # covariance eigenvalue.
    scale_floor: float = 1e-8
    sigma_floor: float = 1e-6
    cov_eigen_floor: float = 1e-8


DEFAULT = NumericConfig()
