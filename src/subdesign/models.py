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
minimizes a multiplier-weighted loss; ``weighted_fit`` minimizes the
inverse-probability weighted loss given realized selection counts. The last
two check their full-length inputs, then evaluate only the rows with positive
weight, since the others contribute nothing; so does the Monte-Carlo loop in
``evaluate``, which starts from a draw's support. All of them run damped
Newton with step halving so the objective never increases within an
iteration.

``MODELS`` is the model table: one ``ModelSpec`` per model name, holding
everything other modules need to know about that model (its CSV layout, how
to build it from named arrays, its default Gram matrix, and how the
sequential pipeline anticipates its coefficients). A new model is its
problem builder, one entry there and a generator in ``synth``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import DEFAULT
from .errors import (
    EmptySample,
    InvalidData,
    InvalidInput,
    InvalidWeights,
    NoConvergence,
    NotPSD,
    SingularHessian,
)
from .linalg import as_symmetric, logistic, spd_inverse
from .sampling import SamplingScheme

P_CLAMP = 1e-12

# A Hessian whose smallest eigenvalue, with each parameter measured in units
# of the largest curvature seen for it during a fit, falls to this is treated
# as singular. Catches both rank-deficient designs and complete separation,
# where the curvature decays exponentially along the Newton path while the
# gradient does the same.
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
        wdiag = _logistic_weights(x, theta)
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


def _logistic_weights(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Logistic curvature weights pr (1 - pr), at probabilities clipped off 0 and 1."""
    pr = np.clip(logistic(x @ theta), P_CLAMP, 1.0 - P_CLAMP)
    return pr * (1.0 - pr)


def leverage(X, theta) -> np.ndarray:
    """Hat-matrix diagonal of a logistic fit: W_ii x_i^T (X^T W X)^-1 x_i."""
    x = np.asarray(X, dtype=float)
    th = np.asarray(theta, dtype=float)
    if x.ndim != 2 or th.shape != (x.shape[1],):
        raise InvalidInput("X must be N x p and theta length p")
    w = _logistic_weights(x, th)
    h_inv = spd_inverse((x * w[:, None]).T @ x)
    return w * np.sum((x @ h_inv) * x, axis=1)


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
    d_ref = np.diag(hess)
    for iteration in range(max_iter):
        d_ref = np.maximum(d_ref, np.diag(hess))
        _require_pd(hess, d_ref)
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
        _require_pd(hess, np.maximum(d_ref, np.diag(hess)))
        return FitResult(
            theta0=theta,
            iterations=max_iter,
            final_gradient_norm=gnorm,
            hessian_at_opt=hess,
        )
    raise NoConvergence(
        f"gradient norm {gnorm:.3e} above tolerance {tol:.3e} after {max_iter} iterations"
    )


def _require_pd(hess: np.ndarray, d_ref: np.ndarray) -> None:
    """Raise SingularHessian unless the Hessian is positive definite in scaled terms.

    The test matrix is the Jacobi scaling D^-1/2 H D^-1/2 with D = diag(d_ref),
    the largest diagonal seen for each parameter along the fit, so changing a
    parameter's units changes nothing. A zero or negative diagonal entry is
    singular. The smallest eigenvalue of H is at most that of the test matrix
    times max(d_ref), which is at most the largest Frobenius norm of H along
    the fit, so every Hessian rejected here also fails the unscaled test
    against that norm.
    """
    diag = np.diag(hess)
    if not np.all(diag > 0.0):
        raise SingularHessian(
            f"Hessian is singular to working precision (diagonal entry {diag.min():.3e})"
        )
    scale = 1.0 / np.sqrt(d_ref)
    min_eig = float(np.linalg.eigvalsh(hess * np.outer(scale, scale))[0])
    if min_eig <= CURVATURE_RTOL:
        raise SingularHessian(
            f"Hessian is singular to working precision (min eigenvalue {min_eig:.3e} "
            "of the Jacobi-scaled Hessian)"
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
    rows only (``problem.take`` on the support of ``counts``) and its Newton
    iterations cost in the sample, not the population. Inputs are checked at
    full length; the fit fails with EmptySample when nothing was selected.
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
    support = np.flatnonzero(s)
    return _fit_on_support(
        problem, support, s[support] / scheme.mu[support], theta_init, tol, max_iter
    )


def multiplier_fit(
    problem: RiskProblem,
    multipliers,
    theta_init=None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> FitResult:
    """Minimize sum(u_i * loss_i) for externally assembled multipliers u.

    Used by callers that combine several draws into one weight vector. As in
    ``weighted_fit``, the multipliers are checked at full length and Newton
    runs on the rows where they are positive.
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
    support = np.flatnonzero(u)
    return _fit_on_support(problem, support, u[support], theta_init, tol, max_iter)


def _fit_on_support(
    problem: RiskProblem,
    support: np.ndarray,
    multipliers: np.ndarray,
    theta_init=None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> FitResult:
    """Newton on the rows ``support`` (increasing unit indices) with their multipliers.

    Callers pass unchecked but valid inputs: positive finite multipliers, one
    per support unit. An empty support raises EmptySample.
    """
    if support.size == 0:
        raise EmptySample("no units were selected")
    return _newton(problem.take(support), multipliers, theta_init, tol, max_iter)


# Floors that keep the anticipated dispersions of the sequential pipeline
# strictly positive when few outcomes have been revealed.
SIGMA_FLOOR = 1e-6
COV_EIGEN_FLOOR = 1e-8


def _lognormal_anticipate(aux: dict) -> np.ndarray:
    """Anticipated variance of the location: c_i = w_i^2 ((pred_i - center)^2 + disp_i^2).

    Inputs: weights, predictions (log scale), dispersions, center (the
    preliminary location).
    """
    w = np.asarray(aux["weights"], dtype=float)
    pred = np.asarray(aux["predictions"], dtype=float)
    disp = np.asarray(aux["dispersions"], dtype=float)
    center = float(aux["center"])
    if not (w.shape == pred.shape == disp.shape) or w.ndim != 1:
        raise InvalidInput("weights, predictions, dispersions must be equal-length vectors")
    if np.any(disp <= 0.0) or not np.all(np.isfinite(disp)):
        raise InvalidInput("dispersions must be strictly positive")
    return w**2 * ((pred - center) ** 2 + disp**2)


def _qblogit_anticipate(aux: dict) -> np.ndarray:
    """Anticipated ER distance: the logistic leverage h_ii of X at theta.

    Deflated to h_ii (1 - h_ii) when ``deflate`` is set.
    """
    h = leverage(aux["X"], aux["theta"])
    return h * (1.0 - h) if aux.get("deflate", False) else h


def _finpop_anticipate(aux: dict) -> np.ndarray:
    """Anticipated standardized quadratic form of the weighted mean.

    c_i = w_i^2 ((pred_i - center)^T V^-1 (pred_i - center) + tr(V^-1 Disp_i))
    from weights, predictions (N x m), center, v (m x m) and
    dispersion_matrices (one m x m PSD block per unit, or a single shared
    block). Predictions and blocks must be finite. The PSD check costs one
    eigendecomposition for a shared block and one batched call for a stack,
    not one call per unit.
    """
    w = np.asarray(aux["weights"], dtype=float)
    pred = np.asarray(aux["predictions"], dtype=float)
    center = np.asarray(aux["center"], dtype=float)
    v = as_symmetric(aux["v"])
    if pred.ndim == 1:
        pred = pred[:, None]
    n, m = pred.shape
    if w.shape != (n,) or center.shape != (m,) or v.shape != (m, m):
        raise InvalidInput("inconsistent shapes among weights, predictions, center, v")
    v_inv = spd_inverse(v)
    blocks = np.asarray(aux["dispersion_matrices"], dtype=float)
    if blocks.shape not in ((m, m), (n, m, m)):
        raise InvalidInput(
            f"dispersion_matrices must be ({n}, {m}, {m}) or ({m}, {m}), "
            f"got {blocks.shape}"
        )
    if not (np.all(np.isfinite(blocks)) and np.all(np.isfinite(pred))):
        raise InvalidInput("dispersion_matrices and predictions must be finite")
    sym = 0.5 * (blocks + np.swapaxes(blocks, -1, -2))
    min_eig = np.atleast_1d(np.linalg.eigvalsh(sym)[..., 0])
    floor = -DEFAULT.psd_tol * np.maximum(np.linalg.norm(sym, axis=(-2, -1)), 1.0)
    bad = np.flatnonzero(min_eig < floor)
    if bad.size:
        i = int(bad[0])
        raise NotPSD(f"dispersion block {i} has min eigenvalue {min_eig[i]:.3e}")
    blocks = np.broadcast_to(blocks, (n, m, m))
    resid = pred - center
    quad = np.sum((resid @ v_inv) * resid, axis=1)
    traces = np.einsum("ij,nji->n", v_inv, blocks)
    return w**2 * (quad + traces)


def _lognormal_aux(problem, selected, theta, config) -> dict:
    """Location model of the revealed log outcomes on the auxiliary columns."""
    ylog = problem.data["log_y"]
    n = problem.n_units
    cols = config.columns if config is not None else None
    if cols is not None and cols.shape[0] != n:
        raise InvalidInput(f"auxiliary columns cover {cols.shape[0]} units, expected {n}")

    design = np.ones((n, 1)) if cols is None else np.column_stack([np.ones(n), cols])
    x_sel = design[selected]
    y_sel = ylog[selected]
    coef, _, rank, _ = np.linalg.lstsq(x_sel, y_sel, rcond=None)
    if rank < design.shape[1]:
        warnings.warn(
            "degenerate auxiliary regression, falling back to the global mean",
            RuntimeWarning,
        )
        pred = np.full(n, float(y_sel.mean()))
        resid = y_sel - y_sel.mean()
    else:
        pred = design @ coef
        resid = y_sel - x_sel @ coef
    sigma = max(float(np.sqrt(np.mean(resid**2))), SIGMA_FLOOR)
    return {
        "weights": problem.weights,
        "predictions": pred,
        "dispersions": np.full(n, sigma),
        "center": float(theta[0]),
    }


def _finpop_aux(problem, selected, theta, config) -> dict:
    """Group means and a pooled within-group covariance of the revealed outcomes."""
    y = problem.data["y"]
    n, m = y.shape
    groups = config.groups if config is not None else None

    if groups is None:
        base = y[selected].mean(axis=0)
        pred = np.tile(base, (n, 1))
        resid = y[selected] - base
    else:
        if groups.shape != (n,):
            raise InvalidInput(f"group labels cover {groups.shape} units, expected ({n},)")
        global_mean = y[selected].mean(axis=0)
        pred = np.tile(global_mean, (n, 1))
        resid_rows = []
        missing = 0
        for label in np.unique(groups):
            in_group = groups == label
            seen = in_group & selected
            if not np.any(seen):
                missing += 1
                continue
            mean = y[seen].mean(axis=0)
            pred[in_group] = mean
            resid_rows.append(y[seen] - mean)
        if missing:
            warnings.warn(
                f"{missing} group(s) have no sampled units yet, using the global mean",
                RuntimeWarning,
            )
        resid = np.vstack(resid_rows) if resid_rows else y[selected] - global_mean

    cov = resid.T @ resid / max(len(resid), 1)
    cov = 0.5 * (cov + cov.T)
    min_eig = float(np.linalg.eigvalsh(cov)[0])
    if min_eig < COV_EIGEN_FLOOR:
        cov = cov + (COV_EIGEN_FLOOR - min_eig) * np.eye(m)

    w = problem.weights
    centered = pred - theta
    v_hat = (w[:, None] ** 2 * centered).T @ centered
    v_hat += float(np.sum(w**2)) * cov
    v_hat = 0.5 * (v_hat + v_hat.T)
    return {
        "weights": w,
        "predictions": pred,
        "center": theta,
        "v": v_hat,
        "dispersion_matrices": cov,
    }


def _qblogit_aux(problem, selected, theta, config) -> dict:
    """The design matrix and the current fit: leverage needs no outcomes."""
    return {
        "X": np.asarray(problem.data["X"], dtype=float),
        "theta": theta,
        "deflate": bool(config.deflate) if config is not None else False,
    }


@dataclass(frozen=True)
class ModelSpec:
    """One model as the rest of the package sees it.

    Parsed CSV columns and synthetic pools are dicts keyed by column name,
    except that the numbered block is one matrix under ``block_key``. A ``z``
    block and a ``g`` column feed the sequential pipeline, not the fit.
    """

    schema: str  # the CSV layout as messages write it
    scalars: tuple[str, ...]  # required columns after ``id``, in parse order
    block: str  # prefix of the numbered columns prefix1..prefixk
    block_key: str
    block_required: bool
    optional: tuple[str, ...]  # optional columns, parsed after the block
    build: Callable[[dict], RiskProblem]
    gram: Callable[[RiskProblem], np.ndarray]  # default V-optimality Gram matrix
    criterion: str  # token of the criterion that anticipation targets
    update_aux: Callable[..., dict]  # (problem, selected, theta, AuxConfig) -> aux
    anticipate: Callable[[dict], np.ndarray]  # aux -> coefficients


def _design_gram(problem: RiskProblem) -> np.ndarray:
    """x x^T averaged over the design rows."""
    x = problem.data["X"]
    return as_symmetric(x.T @ x / x.shape[0])


MODELS = {
    # The population mean predicts the full parameter vector.
    "finpop": ModelSpec(
        schema="id,w,y1..ym[,g]", scalars=("w",), block="y", block_key="y",
        block_required=True, optional=("g",),
        build=lambda cols: finpop_problem(cols["y"], cols["w"]),
        gram=lambda problem: np.eye(problem.n_params),
        criterion="d-s", update_aux=_finpop_aux, anticipate=_finpop_anticipate,
    ),
    # The location/scale model predicts the location only.
    "lognormal": ModelSpec(
        schema="id,w,y[,z1..zk]", scalars=("w", "y"), block="z", block_key="z",
        block_required=False, optional=(),
        build=lambda cols: lognormal_problem(cols["y"], cols["w"]),
        gram=lambda problem: np.diag([1.0, 0.0]),
        criterion="c:1,0", update_aux=_lognormal_aux, anticipate=_lognormal_anticipate,
    ),
    "qblogit": ModelSpec(
        schema="id,y,x1..xp", scalars=("y",), block="x", block_key="X",
        block_required=True, optional=(),
        build=lambda cols: qblogit_problem(cols["X"], cols["y"]),
        gram=_design_gram,
        criterion="d-er", update_aux=_qblogit_aux, anticipate=_qblogit_anticipate,
    ),
}
