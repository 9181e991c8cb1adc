"""Optimal-scheme solvers: closed-form allocation and fixed-point iteration.

Linear criteria admit the closed form mu_i proportional to sqrt(c_i), with an
iterative capping pass for without-replacement designs where expected counts
are bounded by one. Spectral criteria wrap that closed form in a fixed-point
loop: linearize at the current scheme, solve, repeat. The loop stops when the
relative objective improvement drops below eps AND the scheme satisfies the
first-order stationarity conditions; it stops with a Diverged status the
moment the objective strictly increases, keeping the best scheme seen. The
iteration has no general convergence guarantee, so the status field is the
honest record of what happened.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT
from .covariance import GradientSet, gamma
from .criteria import (
    CoefficientSet,
    CriterionSpec,
    _coefficients_from_phi,
    coefficients,
    phi_matrix_derivative,
    phi_value,
)
from .errors import Infeasible, InvalidBudget, InvalidInput
from .sampling import DesignFamily, SamplingScheme, uniform_scheme, validate_scheme

CAP_TOL = 1e-12


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    DIVERGED = "Diverged"
    MAX_ITER = "MaxIter"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class SolveTrace:
    """Outcome of one solve: status, per-iteration objectives, final scheme.

    ``iterations`` counts scheme refinements actually performed;
    ``objective_per_iter`` starts with the objective at the initial scheme, so
    it holds iterations + 1 entries on a clean run. ``capped_set_size`` is the
    number of units pinned at the without-replacement cap (zero otherwise),
    and ``stationarity`` the first-order residual of the final scheme when it
    was checked. ``zero_ids`` names the offending units on an Infeasible stop.
    """

    status: SolveStatus
    iterations: int
    objective_per_iter: tuple[float, ...]
    final_scheme: SamplingScheme
    capped_set_size: int
    stationarity: float | None = None
    zero_ids: tuple[int, ...] = field(default=())


def _sqrt_coefficients(c) -> np.ndarray:
    arr = c.c if isinstance(c, CoefficientSet) else np.asarray(c, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise InvalidInput(f"coefficients must be a non-empty vector, got {arr.shape}")
    top = arr.max()
    # NaN fails both comparisons, so the per-entry checks below run only to
    # name the fault.
    if not (arr.min() > 0.0 and top < np.inf):
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise InvalidInput("coefficients must be finite and non-negative")
        zero = tuple(int(i) for i in np.flatnonzero(arr == 0.0))
        raise Infeasible(
            f"feasible solution does not exist: {len(zero)} units have zero "
            "coefficient and would receive zero selection mass; consider "
            "anticipated coefficients",
            zero_ids=zero,
        )
    # Coefficients only matter through ratios of square roots; normalizing by
    # the maximum keeps the arithmetic in a safe range.
    return np.sqrt(arr / top)


def l_optimal_scheme(c, n: float, family: DesignFamily) -> SamplingScheme:
    """Closed-form optimal scheme mu_i proportional to sqrt(c_i).

    Without replacement, entries that the proportional rule pushes to one or
    beyond are pinned there and the remaining budget is re-spread over the
    rest, repeating until every free entry is below the cap. Units landing
    exactly on the cap are pinned too.
    """
    s = _sqrt_coefficients(c)
    n_units = s.shape[0]
    if not np.isfinite(n) or n <= 0:
        raise InvalidBudget(f"budget n must be positive, got {n}")
    if family is DesignFamily.PO_WOR and n > n_units:
        raise InvalidBudget(
            f"expected size {n} exceeds the {n_units} available units"
        )
    mu = n * s / s.sum()
    # This is also the capping loop's first round, so when nothing reaches the
    # cap the loop would return these same bits.
    # mu is fresh and ours: read-only, it is kept by validate_scheme uncopied.
    if family is not DesignFamily.PO_WOR or mu.max() < 1.0:
        mu.flags.writeable = False
        return validate_scheme(mu, family, n)
    capped = np.zeros(n_units, dtype=bool)
    mu = np.empty(n_units)
    for _ in range(n_units):
        free = ~capped
        n_free = n - capped.sum()
        mu[capped] = 1.0
        mu[free] = n_free * s[free] / s[free].sum()
        newly = free & (mu >= 1.0)
        if not newly.any():
            break
        capped |= newly
    mu.flags.writeable = False
    return validate_scheme(mu, family, n)


def stationarity_residual(
    scheme: SamplingScheme,
    c,
    family: DesignFamily | None = None,
) -> float:
    """First-order optimality residual of a scheme for given coefficients.

    Zero at an exact optimum. For unconstrained families this measures the
    deviation from proportionality mu_i ~ sqrt(c_i); without replacement it is
    the largest violation among the cap, proportionality on the uncapped set,
    and the threshold condition ranking capped above uncapped units.
    """
    if family is None:
        family = scheme.family
    arr = c.c if isinstance(c, CoefficientSet) else np.asarray(c, dtype=float)
    if arr.shape[0] != scheme.n_units:
        raise InvalidInput(
            f"{arr.shape[0]} coefficients for a scheme of {scheme.n_units} units"
        )
    s = np.sqrt(np.maximum(arr, 0.0))
    s_max = float(s.max())
    if s_max <= 0.0:
        return float("inf")
    mu = scheme.mu
    n = scheme.budget_n
    mu_max = float(mu.max())
    # With nothing at the cap every unit is free and only proportionality
    # can fail, so the masked copies below are not needed.
    if family is not DesignFamily.PO_WOR or mu_max < 1.0 - CAP_TOL:
        return float(np.max(np.abs(mu * s.sum() / n - s)) / s_max)
    capped = mu >= 1.0 - CAP_TOL
    cap_violation = max(0.0, mu_max - 1.0)
    prop_violation = 0.0
    threshold_violation = 0.0
    free = ~capped
    if free.any():
        n_free = n - float(capped.sum())
        prop_violation = float(
            np.max(np.abs(mu[free] * s[free].sum() / n_free - s[free])) / s_max
        )
        if capped.any():
            # Capped units must dominate: sqrt(c_i) >= sqrt(c_j)/mu_j for all
            # capped i and free j.
            bar = float(np.max(s[free] / mu[free]))
            threshold_violation = max(0.0, (bar - float(s[capped].min())) / s_max)
    return max(cap_violation, prop_violation, threshold_violation)


def _capped_count(scheme: SamplingScheme) -> int:
    if scheme.family is not DesignFamily.PO_WOR:
        return 0
    return int(np.sum(scheme.mu >= 1.0 - CAP_TOL))


def fixed_point_solve(
    spec: CriterionSpec,
    grads: GradientSet,
    family: DesignFamily,
    n: float,
    mu0: SamplingScheme | None = None,
    max_iter: int = 100,
    eps: float = 1e-3,
) -> SolveTrace:
    """Optimal scheme for any criterion via linearize-and-solve iteration.

    Linear criteria are exact after a single refinement. For the others each
    pass computes coefficients at the current scheme and jumps to their
    closed-form optimum; see the module docstring for the stopping rules.
    The covariance Gamma = H^-1 V(mu) H^-1 is computed once per scheme: the
    one behind a scheme's objective is reused to linearize at that scheme,
    so each iteration makes a single pass over the units to build V(mu).
    """
    if mu0 is None:
        mu0 = uniform_scheme(grads.n_units, n, family)
    elif mu0.n_units != grads.n_units or mu0.family is not family:
        raise InvalidInput("mu0 does not match the problem size or design family")

    def objective(scheme):
        gam = gamma(grads, scheme).gamma
        return phi_value(spec, gam, grads), gam

    def linearize(scheme, gam):
        phi = phi_matrix_derivative(spec, gam, grads)
        return _coefficients_from_phi(spec, grads, phi, scheme)

    def infeasible_trace(exc, objs, last_scheme, t):
        return SolveTrace(
            status=SolveStatus.INFEASIBLE,
            iterations=t,
            objective_per_iter=tuple(objs),
            final_scheme=last_scheme,
            capped_set_size=_capped_count(last_scheme),
            zero_ids=exc.zero_ids,
        )

    obj0, gam_current = objective(mu0)
    objs = [obj0]
    if spec.is_linear:
        cs = coefficients(spec, grads)
        try:
            scheme = l_optimal_scheme(cs, n, family)
        except Infeasible as exc:
            return infeasible_trace(exc, objs, mu0, 0)
        objs.append(objective(scheme)[0])
        resid = stationarity_residual(scheme, cs, family)
        return SolveTrace(
            status=SolveStatus.CONVERGED,
            iterations=1,
            objective_per_iter=tuple(objs),
            final_scheme=scheme,
            capped_set_size=_capped_count(scheme),
            stationarity=resid,
        )

    current = mu0
    best_scheme, best_obj = mu0, objs[0]
    cs_current: CoefficientSet | None = None
    for t in range(1, max_iter + 1):
        if cs_current is None:
            cs_current = linearize(current, gam_current)
        try:
            scheme = l_optimal_scheme(cs_current, n, family)
        except Infeasible as exc:
            return infeasible_trace(exc, objs, current, t - 1)
        obj, gam = objective(scheme)
        objs.append(obj)
        if obj > objs[-2] + DEFAULT.divergence_slack:
            return SolveTrace(
                status=SolveStatus.DIVERGED,
                iterations=t,
                objective_per_iter=tuple(objs),
                final_scheme=best_scheme,
                capped_set_size=_capped_count(best_scheme),
            )
        if obj < best_obj:
            best_scheme, best_obj = scheme, obj
        improvement = (objs[-2] - obj) / max(abs(objs[-2]), 1e-300)
        if improvement < eps:
            cs_current = linearize(scheme, gam)
            resid = stationarity_residual(scheme, cs_current, family)
            if resid <= DEFAULT.stationarity_tol:
                return SolveTrace(
                    status=SolveStatus.CONVERGED,
                    iterations=t,
                    objective_per_iter=tuple(objs),
                    final_scheme=scheme,
                    capped_set_size=_capped_count(scheme),
                    stationarity=resid,
                )
        else:
            cs_current = None
        current, gam_current = scheme, gam
    return SolveTrace(
        status=SolveStatus.MAX_ITER,
        iterations=max_iter,
        objective_per_iter=tuple(objs),
        final_scheme=current,
        capped_set_size=_capped_count(current),
    )
