"""Risk problems: per-unit losses, gradients, Hessians, and Newton fitting.

A RiskProblem bundles the per-unit evaluators for one model on one dataset.
Three concrete models are provided:

* ``finpop_problem``: weighted mean of a finite population of outcome vectors,
  quadratic loss with weights normalized to sum one (Hessian is the identity).
* ``lognormal_problem``: location/scale fit of log-transformed positive data
  with parameters (eta, sigma).
* ``qblogit_problem``: quasi-binomial logistic regression with fractional
  responses in [0, 1].

Each public constructor validates and normalizes its inputs, then hands the
arrays to a private builder. ``RiskProblem.take(idx)`` calls the same builder
on a row subset, so the restricted model keeps what was fixed over the full
population: the weight normalization and, for finpop, the starting point.

``fit_full`` minimizes the total loss over all units; ``multiplier_fit``
minimizes a multiplier-weighted loss over all units; ``weighted_fit``
minimizes the inverse-probability weighted loss given realized selection
counts, evaluating the sampled rows only, since units that were not drawn
carry zero weight. All three run damped Newton with step halving so the
objective never increases within an iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    EmptySample,
    InvalidData,
    InvalidInput,
    InvalidWeights,
    NoConvergence,
    SingularHessian,
)
from .linalg import logistic
from .sampling import SamplingScheme

P_CLAMP = 1e-12

# A Hessian whose smallest eigenvalue falls this far below the largest
# curvature scale seen during a fit is treated as singular. Catches both
# rank-deficient designs and complete separation, where the curvature decays
# exponentially along the Newton path while the gradient does the same.
CURVATURE_RTOL = 1e-8


@dataclass(frozen=True)
class RiskProblem:
    """Per-unit evaluators for one estimation problem on a fixed dataset.

    ``unit_losses`` and ``unit_gradients`` map a parameter vector to per-unit
    values (shapes (N,) and (N, p)). ``hessian(theta, multipliers)`` returns
    the Hessian of the multiplier-weighted total loss; multipliers of None
    mean the plain full-data sum. ``expected_hessian`` is the model-based
    counterpart used where observed curvature would inject residual noise.
    ``take(idx)`` returns the same model restricted to the rows ``idx``; its
    per-unit values are the full ones indexed by ``idx`` (for qblogit, up to
    the rounding of the BLAS product ``X @ theta``).
    """

    kind: str
    n_units: int
    n_params: int
    param_names: tuple[str, ...]
    weights: np.ndarray | None
    data: dict = field(repr=False)
    unit_losses: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    unit_gradients: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    hessian: Callable[[np.ndarray, np.ndarray | None], np.ndarray] = field(repr=False)
    expected_hessian: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    default_init: Callable[[np.ndarray | None], np.ndarray] = field(repr=False)
    in_domain: Callable[[np.ndarray], bool] = field(repr=False)
    take: Callable[[np.ndarray], "RiskProblem"] = field(repr=False)


@dataclass(frozen=True)
class FitResult:
    theta0: np.ndarray
    iterations: int
    final_gradient_norm: float
    hessian_at_opt: np.ndarray


def _positive_weights(w, n: int) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if arr.shape != (n,):
        raise InvalidWeights(f"expected {n} weights, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InvalidWeights("weights must be finite and strictly positive")
    return arr


def finpop_problem(Y, w) -> RiskProblem:
    """Weighted mean of outcome vectors under quadratic loss.

    Weights are renormalized to sum one, which pins the full-data Hessian to
    the identity regardless of the data.
    """
    y = np.asarray(Y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.shape[0] < 1:
        raise InvalidData(f"expected an N x m outcome matrix, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InvalidData("outcomes contain non-finite values")
    w_norm = _positive_weights(w, y.shape[0])
    return _finpop(y, w_norm / w_norm.sum(), y.mean(axis=0))


def _finpop(y: np.ndarray, w_norm: np.ndarray, y_mean: np.ndarray) -> RiskProblem:
    n, m = y.shape

    def losses(theta):
        resid = y - theta
        return 0.5 * w_norm * np.sum(resid * resid, axis=1)

    def gradients(theta):
        return -w_norm[:, None] * (y - theta)

    def hess(theta, multipliers=None):
        total = w_norm.sum() if multipliers is None else float(multipliers @ w_norm)
        return total * np.eye(m)

    def expected_hess(theta):
        return np.eye(m)

    def init(multipliers=None):
        return y_mean.copy()

    return RiskProblem(
        kind="finpop",
        n_units=n,
        n_params=m,
        param_names=tuple(f"theta{j + 1}" for j in range(m)),
        weights=w_norm,
        data={"y": y},
        unit_losses=losses,
        unit_gradients=gradients,
        hessian=hess,
        expected_hessian=expected_hess,
        default_init=init,
        in_domain=lambda theta: True,
        take=lambda idx: _finpop(y[idx], w_norm[idx], y_mean),
    )


def lognormal_problem(y, w) -> RiskProblem:
    """Location/scale fit (eta, sigma) to the logs of positive observations.

    The loss per unit is 0.5 * w_i * ((log y_i - eta)^2 / sigma^2 + log sigma^2)
    with weights renormalized to sum one, so the full fit has the closed form
    eta = sum(w log y), sigma^2 = sum(w (log y - eta)^2).
    """
    obs = np.asarray(y, dtype=float)
    if obs.ndim != 1 or obs.shape[0] < 1:
        raise InvalidData(f"expected a 1-d observation vector, got shape {obs.shape}")
    if not np.all(np.isfinite(obs)) or np.any(obs <= 0.0):
        raise InvalidData("observations must be finite and strictly positive")
    w_norm = _positive_weights(w, obs.shape[0])
    w_norm = w_norm / w_norm.sum()
    return _lognormal(obs, np.log(obs), w_norm)


def _lognormal(obs: np.ndarray, log_y: np.ndarray, w_norm: np.ndarray) -> RiskProblem:
    n = obs.shape[0]

    def losses(theta):
        eta, sigma = theta
        r = log_y - eta
        return 0.5 * w_norm * (r * r / sigma**2 + np.log(sigma**2))

    def gradients(theta):
        eta, sigma = theta
        r = log_y - eta
        g_eta = -w_norm * r / sigma**2
        g_sigma = -w_norm * (r * r - sigma**2) / sigma**3
        return np.column_stack([g_eta, g_sigma])

    def hess(theta, multipliers=None):
        eta, sigma = theta
        u = np.ones(n) if multipliers is None else multipliers
        uw = u * w_norm
        r = log_y - eta
        h_ee = np.sum(uw) / sigma**2
        h_es = 2.0 * np.sum(uw * r) / sigma**3
        h_ss = 3.0 * np.sum(uw * r * r) / sigma**4 - np.sum(uw) / sigma**2
        return np.array([[h_ee, h_es], [h_es, h_ss]])

    def expected_hess(theta):
        sigma = theta[1]
        return np.diag([1.0, 2.0]) / sigma**2

    def init(multipliers=None):
        u = np.ones(n) if multipliers is None else multipliers
        uw = u * w_norm
        total = uw.sum()
        if total <= 0.0:
            raise EmptySample("no effective weight in the sample")
        eta = float(uw @ log_y) / total
        var = float(uw @ (log_y - eta) ** 2) / total
        return np.array([eta, max(np.sqrt(var), 1e-8)])

    return RiskProblem(
        kind="lognormal",
        n_units=n,
        n_params=2,
        param_names=("eta", "sigma"),
        weights=w_norm,
        data={"y": obs, "log_y": log_y},
        unit_losses=losses,
        unit_gradients=gradients,
        hessian=hess,
        expected_hessian=expected_hess,
        default_init=init,
        in_domain=lambda theta: bool(theta[1] > 0.0),
        take=lambda idx: _lognormal(obs[idx], log_y[idx], w_norm[idx]),
    )


def qblogit_problem(X, y) -> RiskProblem:
    """Quasi-binomial logistic regression with responses in [0, 1]."""
    x = np.asarray(X, dtype=float)
    resp = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidData(f"expected an N x p design matrix, got shape {x.shape}")
    if resp.shape != (x.shape[0],):
        raise InvalidData(
            f"response length {resp.shape} does not match {x.shape[0]} design rows"
        )
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(resp)):
        raise InvalidData("design or response contains non-finite values")
    if np.any(resp < 0.0) or np.any(resp > 1.0):
        raise InvalidData("responses must lie in [0, 1]")
    if np.any(np.all(x == 0.0, axis=0)):
        dead = int(np.argmax(np.all(x == 0.0, axis=0)))
        raise InvalidData(f"design column {dead} is identically zero")
    return _qblogit(x, resp)


def _qblogit(x: np.ndarray, resp: np.ndarray) -> RiskProblem:
    n, p = x.shape

    def losses(theta):
        t = x @ theta
        return np.logaddexp(0.0, t) - resp * t

    def gradients(theta):
        return (logistic(x @ theta) - resp)[:, None] * x

    def hess(theta, multipliers=None):
        pr = np.clip(logistic(x @ theta), P_CLAMP, 1.0 - P_CLAMP)
        wdiag = pr * (1.0 - pr)
        if multipliers is not None:
            wdiag = wdiag * multipliers
        return (x * wdiag[:, None]).T @ x

    def init(multipliers=None):
        return np.zeros(p)

    return RiskProblem(
        kind="qblogit",
        n_units=n,
        n_params=p,
        param_names=tuple(f"beta{j + 1}" for j in range(p)),
        weights=None,
        data={"X": x, "y": resp},
        unit_losses=losses,
        unit_gradients=gradients,
        hessian=hess,
        expected_hessian=lambda theta: hess(theta, None),
        default_init=init,
        in_domain=lambda theta: True,
        take=lambda idx: _qblogit(x[idx], resp[idx]),
    )


def _newton(
    problem: RiskProblem,
    multipliers: np.ndarray | None,
    theta_init: np.ndarray | None,
    tol: float,
    max_iter: int,
) -> FitResult:
    u = multipliers
    theta = problem.default_init(u) if theta_init is None else np.asarray(theta_init, float)
    if theta.shape != (problem.n_params,):
        raise InvalidInput(
            f"theta_init has shape {theta.shape}, expected ({problem.n_params},)"
        )
    if not np.all(np.isfinite(theta)) or not problem.in_domain(theta):
        raise InvalidInput("theta_init is outside the parameter domain")

    def total_grad(th):
        g = problem.unit_gradients(th)
        return g.sum(axis=0) if u is None else u @ g

    def total_loss(th):
        ell = problem.unit_losses(th)
        return float(ell.sum() if u is None else u @ ell)

    risk = total_loss(theta)
    grad = total_grad(theta)
    hess = problem.hessian(theta, u)
    h_ref = float(np.linalg.norm(hess, "fro"))
    for iteration in range(max_iter):
        h_ref = max(h_ref, float(np.linalg.norm(hess, "fro")))
        _require_pd(hess, h_ref)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= tol:
            return FitResult(
                theta0=theta,
                iterations=iteration,
                final_gradient_norm=gnorm,
                hessian_at_opt=hess,
            )
        step = np.linalg.solve(hess, -grad)
        alpha = 1.0
        accepted = False
        for _ in range(31):
            candidate = theta + alpha * step
            if problem.in_domain(candidate) and np.all(np.isfinite(candidate)):
                cand_risk = total_loss(candidate)
                if np.isfinite(cand_risk) and cand_risk <= risk + 1e-12 * max(1.0, abs(risk)):
                    theta, risk = candidate, cand_risk
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            raise NoConvergence(
                f"line search failed to reduce the risk at iteration {iteration + 1}"
            )
        grad = total_grad(theta)
        hess = problem.hessian(theta, u)
    gnorm = float(np.max(np.abs(grad)))
    if gnorm <= tol:
        _require_pd(hess, max(h_ref, float(np.linalg.norm(hess, "fro"))))
        return FitResult(
            theta0=theta,
            iterations=max_iter,
            final_gradient_norm=gnorm,
            hessian_at_opt=hess,
        )
    raise NoConvergence(
        f"gradient norm {gnorm:.3e} above tolerance {tol:.3e} after {max_iter} iterations"
    )


def _require_pd(hess: np.ndarray, scale: float) -> None:
    min_eig = float(np.linalg.eigvalsh(hess)[0])
    if scale <= 0.0 or min_eig <= CURVATURE_RTOL * scale:
        raise SingularHessian(
            f"Hessian is singular to working precision (min eigenvalue {min_eig:.3e} "
            f"against curvature scale {scale:.3e})"
        )


def fit_full(
    problem: RiskProblem,
    theta_init=None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> FitResult:
    """Minimize the total loss over all units by damped Newton."""
    return _newton(problem, None, theta_init, tol, max_iter)


def weighted_fit(
    problem: RiskProblem,
    counts,
    scheme: SamplingScheme,
    theta_init=None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> FitResult:
    """Minimize the inverse-probability weighted loss sum(S_i/mu_i * loss_i).

    Units with zero counts carry zero weight, so the fit evaluates the sampled
    rows only (``problem.take`` on the support of ``counts``) and its cost
    grows with the sample, not the population. Inputs are checked at full
    length; the fit fails with EmptySample when nothing was selected.
    """
    s = np.asarray(counts, dtype=float)
    if s.shape != (problem.n_units,):
        raise InvalidInput(
            f"counts have shape {s.shape}, expected ({problem.n_units},)"
        )
    if scheme.n_units != problem.n_units:
        raise InvalidInput(
            f"scheme covers {scheme.n_units} units, problem has {problem.n_units}"
        )
    if np.any(s < 0) or not np.all(np.isfinite(s)):
        raise InvalidInput("counts must be non-negative and finite")
    if s.sum() == 0:
        raise EmptySample("no units were selected")
    support = np.flatnonzero(s)
    multipliers = s[support] / scheme.mu[support]
    return _newton(problem.take(support), multipliers, theta_init, tol, max_iter)


def multiplier_fit(
    problem: RiskProblem,
    multipliers,
    theta_init=None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> FitResult:
    """Minimize sum(u_i * loss_i) for externally assembled multipliers u.

    Used by callers that combine several draws into one weight vector, e.g.
    pooling across sampling stages.
    """
    u = np.asarray(multipliers, dtype=float)
    if u.shape != (problem.n_units,):
        raise InvalidInput(
            f"multipliers have shape {u.shape}, expected ({problem.n_units},)"
        )
    if np.any(u < 0) or not np.all(np.isfinite(u)):
        raise InvalidInput("multipliers must be non-negative and finite")
    if u.sum() == 0:
        raise EmptySample("no units carry positive weight")
    return _newton(problem, u, theta_init, tol, max_iter)
