"""Optimal-scheme solvers: closed-form allocation and fixed-point iteration.

Linear criteria admit the closed form mu_i proportional to sqrt(c_i), with an
iterative capping pass for without-replacement designs where expected counts
are bounded by one. Spectral criteria wrap that closed form in a fixed-point
loop: linearize at the current scheme, solve, repeat. Linear criteria, whose
coefficients do not depend on the scheme, run through the same loop and take
an early exit, Converged, right after the first refinement. The loop stops
when the relative objective improvement drops below eps AND the scheme
satisfies the first-order stationarity conditions; it stops with a Diverged
status the moment the objective strictly increases, keeping the best scheme
seen. Every stop builds its SolveTrace in one place. The
iteration has no general convergence guarantee, so the status field is the
honest record of what happened.

Each refinement reads the gradients once. The pass that sums the
coefficients c writes r = sqrt(c) over them and sums S = sum r and
W = sum psi psi^T / r, so the next scheme mu' = n r / S and its middle matrix
V(mu') = (S/n) W, less sum psi psi^T without replacement, need no second pass
and no N-long c. The solver falls back to ``l_optimal_scheme(c)``, with c and
V from passes of their own, when a without-replacement unit would reach the
cap or max mu' exceeds 1/2, where that subtraction would lose more than one
bit, and when a coefficient is zero, negative or not finite, which the closed
form then reports. A refinement from a without-replacement scheme that itself
exceeds 1/2 skips the fused sums and takes the fallback at once. The uniform
start's objective comes from ``gamma``.

The stationarity check of a scheme mu solves for the next scheme mu' at once:
with no unit at the cap in either, the residual is max|mu - mu'| / max mu',
which is ``stationarity_residual`` up to rounding, and otherwise it is
``stationarity_residual``. A scheme that fails the check steps to that mu'.
The check makes three passes over the schemes (a difference, its absolute
value, the maximum) when both came from the fused step: max mu' is
sqrt(max c) n / S, and neither scheme exceeds 1/2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT
from .covariance import GradientSet, _sandwich, gamma
from .criteria import (
    CriterionSpec,
    _coefficients_from_phi,
    phi_matrix_derivative,
    phi_value,
)
# Unused here: perfbench's tracer test asserts that it rebinds this import too.
from .criteria import coefficients  # noqa: F401
from .errors import Infeasible, InvalidInput, SubdesignError
from .linalg import unit_blocks
from .sampling import DesignFamily, SamplingScheme, check_budget, uniform_scheme, validate_scheme


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
    was checked (0.0 for a linear criterion with no unit capped). ``zero_ids``
    names the offending units on an Infeasible stop. ``final_gamma`` is the
    covariance Gamma of ``final_scheme``, which gave its objective.
    """

    status: SolveStatus
    iterations: int
    objective_per_iter: tuple[float, ...]
    final_scheme: SamplingScheme
    capped_set_size: int
    stationarity: float | None = None
    zero_ids: tuple[int, ...] = field(default=())
    final_gamma: np.ndarray | None = None


def _sqrt_coefficients(c) -> np.ndarray:
    arr = np.asarray(c, dtype=float)
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
    s = arr / top
    return np.sqrt(s, out=s)


def l_optimal_scheme(c, n: float, family: DesignFamily) -> SamplingScheme:
    """Closed-form optimal scheme mu_i proportional to sqrt(c_i).

    Without replacement, entries that the proportional rule pushes to one or
    beyond are pinned there and the remaining budget is re-spread over the
    rest, repeating until every free entry is below the cap. Units landing
    exactly on the cap are pinned too. The coefficients are checked first,
    then the budget, by ``check_budget``.
    """
    s = _sqrt_coefficients(c)
    n_units = s.shape[0]
    check_budget(n_units, n, family)
    total = s.sum()
    # n * s / total is the capping loop's first round, which it returns when
    # nothing reaches the cap; s.max() is exactly 1 (top / top), so by monotone
    # rounding its largest entry is n / total. mu reuses s, fresh and ours:
    # read-only, validate_scheme keeps it uncopied.
    if family is not DesignFamily.PO_WOR or n / total < 1.0:
        mu = np.divide(np.multiply(n, s, out=s), total, out=s)
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
    arr = np.asarray(c, dtype=float)
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
    if family is not DesignFamily.PO_WOR or mu_max < 1.0 - DEFAULT.cap_tol:
        return float(np.max(np.abs(mu * s.sum() / n - s)) / s_max)
    capped = mu >= 1.0 - DEFAULT.cap_tol
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


def _closed_form_step(grads, phi, n, family, fuse=True):
    """Coefficients c of phi, their closed form mu', V(mu') and max mu', from
    one pass over psi: c is None where that pass gives mu', the rest where
    the module docstring's fallback (c from a pass of its own) runs."""
    cs, sums = _coefficients_from_phi(grads, phi, fuse)
    if sums is None:
        return cs, None, None, None
    roots, total, low, top, w = sums
    scale = n / total
    # Multiplying by scale rounds monotonically, so low * scale and
    # top * scale are the least and the largest entry of mu'.
    top = float(top * scale)
    if not low * scale > 0.0 or (family is DesignFamily.PO_WOR and top > 0.5):
        return _coefficients_from_phi(grads, phi)[0], None, None, None
    mu = np.multiply(roots, scale, out=roots)
    mu.flags.writeable = False
    v = np.multiply(w, total / n, out=w)
    if family is DesignFamily.PO_WOR:
        v -= grads.v_theta0
    # mu is positive and under the cap by the test above, and it sums to n
    # up to rounding, so validate_scheme's passes over it would find nothing.
    return None, SamplingScheme(mu=mu, family=family, budget_n=float(n)), v, top


def _residual_and_next(
    scheme, cs, n, family, nxt=None, top=None, fused=False
) -> tuple[float, SamplingScheme | None]:
    """Residual of ``scheme``, and ``nxt``: the closed form of ``cs``, solved
    here when not given, None if that raises. ``top`` is max ``nxt.mu`` when
    known; ``fused`` says that ``scheme`` came from ``_closed_form_step``, so
    no entry of it exceeds 1/2. ``cs`` is None only beside a fused ``nxt``,
    which never reads it; max|mu - mu'| is taken a block at a time."""
    if nxt is None:
        try:
            nxt = l_optimal_scheme(cs, n, family)
        except SubdesignError:  # the next refinement raises it again
            return stationarity_residual(scheme, cs, family), None
    if top is None:
        top = float(nxt.mu.max())
    if family is DesignFamily.PO_WOR and (
        top >= 1.0 or not fused and scheme.mu.max() >= 1.0 - DEFAULT.cap_tol
    ):
        return stationarity_residual(scheme, cs, family), nxt
    gap = max(
        float(np.abs(scheme.mu[u] - nxt.mu[u]).max()) for u in unit_blocks(scheme.n_units)
    )
    return gap / top, nxt


def fixed_point_solve(
    spec: CriterionSpec,
    grads: GradientSet,
    family: DesignFamily,
    n: float,
    max_iter: int = 100,
    eps: float = 1e-3,
) -> SolveTrace:
    """Optimal scheme for any criterion via linearize-and-solve iteration.

    The iteration starts from the uniform scheme. Linear criteria are exact
    after a single refinement: they exit the loop there, before the
    divergence test, checked with their step as its own next refinement.
    For the others each pass computes coefficients at the current scheme and
    jumps to their closed-form optimum, which also gives the stationarity
    residual; see the module docstring for the stopping rules. The covariance
    Gamma = H^-1 V(mu) H^-1 of a scheme's objective is reused to linearize at
    that scheme, and the pass over the units that linearizes also sums V of
    the next scheme, so each iteration reads the gradients once.
    """
    def objective(scheme, v=None):
        gam = gamma(grads, scheme).gamma if v is None else _sandwich(grads, v)
        return phi_value(spec, gam, grads), gam

    def refine(gam, at, v_at):
        # Past a without-replacement scheme above 1/2 the next one is most
        # likely capped too, and the fused sums would be thrown away.
        fuse = v_at is not None or family is not DesignFamily.PO_WOR or at.mu.max() <= 0.5
        phi = phi_matrix_derivative(spec, gam, grads)
        return _closed_form_step(grads, phi, n, family, fuse)

    def stop(status, t, scheme, gam, stationarity=None, zero_ids=()):
        capped = 0
        if scheme.family is DesignFamily.PO_WOR:
            capped = int(np.sum(scheme.mu >= 1.0 - DEFAULT.cap_tol))
        return SolveTrace(
            status, t, tuple(objs), scheme, capped, stationarity, zero_ids, gam
        )

    current = uniform_scheme(grads.n_units, n, family)
    best_obj, gam_current = objective(current)
    objs = [best_obj]
    best = (current, gam_current)
    step = None  # the next step, once a failed stationarity check built it
    v = None  # V(current) when the fused pass gave it
    for t in range(1, max_iter + 1):
        cs, scheme, v, top = refine(gam_current, current, v) if step is None else step
        if scheme is None:
            try:
                scheme = l_optimal_scheme(cs, n, family)
            except Infeasible as exc:
                return stop(
                    SolveStatus.INFEASIBLE, t - 1, current, gam_current,
                    zero_ids=exc.zero_ids,
                )
        obj, gam = objective(scheme, v)
        objs.append(obj)
        fused = v is not None  # V(scheme) came with it from the fused step
        if spec.is_linear:  # c does not depend on Gamma: the step is its own next one
            resid = _residual_and_next(scheme, cs, n, family, scheme, top, fused)[0]
            return stop(SolveStatus.CONVERGED, t, scheme, gam, resid)
        if obj > objs[-2] + DEFAULT.divergence_slack:
            return stop(SolveStatus.DIVERGED, t, *best)
        if obj < best_obj:
            best, best_obj = (scheme, gam), obj
        improvement = (objs[-2] - obj) / max(abs(objs[-2]), 1e-300)
        current, gam_current, step = scheme, gam, None
        if improvement < eps:
            cs, nxt, v, top = refine(gam, current, v)
            resid, nxt = _residual_and_next(current, cs, n, family, nxt, top, fused)
            step = (cs, nxt, v, top)
            if resid <= DEFAULT.stationarity_tol:
                return stop(SolveStatus.CONVERGED, t, current, gam, resid)
    return stop(SolveStatus.MAX_ITER, max_iter, current, gam_current)
