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

``fit_full`` minimizes the total loss over all units, ``weighted_fit`` the
inverse-probability weighted loss of one ``DrawResult``, and
``multiplier_fit`` a loss weighted by multipliers on a support of unit
indices, as the pooled stage fit assembles them. The last two evaluate only
those rows, since the others carry zero weight, and check their inputs at
the cost of the sample, not of the population. All three run damped Newton
with step halving so the objective never increases within an iteration.
Newton reads a problem through one closure, ``newton_terms``,
which returns the total risk, gradient and Hessian from one evaluation; a
line-search candidate costs one evaluation, and an accepted candidate's
gradient and Hessian are the next iterate's. qblogit's closure walks the
design in blocks of ``linalg.BLOCK_UNITS`` rows with buffers reused from
block to block, computing each block's linear predictor and logistic once
and filling its weighted design rows one column at a time.
Without multipliers its gradient is the unblocked sum in unit order at any
N; its other totals add per-block sums, which are the unblocked ones bit for
bit up to BLOCK_UNITS rows.

``MODELS`` is the model table: one ``ModelSpec`` per model name, holding
everything other modules need to know about that model (its CSV layout, how
to build it from named arrays, its default Gram matrix, and how the
sequential pipeline anticipates its coefficients), read through
``model_spec``. A new model is its problem builder, one entry there and a
generator in ``synth``.
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
    NoConvergence,
    NotPSD,
    SingularHessian,
)
from .linalg import BLOCK_UNITS, as_symmetric, logistic, spd_inverse, unit_blocks
from .sampling import DrawResult, SamplingScheme

@dataclass(frozen=True)
class RiskProblem:
    """Per-unit evaluators for one estimation problem on a fixed dataset.

    ``unit_losses`` maps a parameter vector to the per-unit losses, shape
    (N,), and ``gradient_rows`` to the per-unit gradients as one C-ordered
    p x N array whose row j holds parameter j's gradient for every unit,
    written once without an N x p intermediate; ``unit_gradients`` is the
    same values as a C-ordered N x p array, so its ``sum(axis=0)`` adds the
    units in order. ``hessian(theta, multipliers)`` returns
    the Hessian of the multiplier-weighted total loss; multipliers of None
    mean the plain full-data sum. ``newton_terms(theta, multipliers)`` returns
    that total loss (a float), its gradient and its Hessian together, sharing
    the per-unit work; it is all that Newton evaluates. ``expected_hessian``
    is the model-based counterpart used where observed curvature would inject
    residual noise; None says that it is the full-data ``hessian`` itself
    (qblogit, whose link is canonical), so that matrix is computed once.
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
    gradient_rows: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    hessian: Callable[[np.ndarray, np.ndarray | None], np.ndarray] = field(repr=False)
    newton_terms: Callable[..., tuple[float, np.ndarray, np.ndarray]] = field(repr=False)
    expected_hessian: Callable[[np.ndarray], np.ndarray] | None = field(repr=False)
    default_init: Callable[[np.ndarray | None], np.ndarray] = field(repr=False)
    in_domain: Callable[[np.ndarray], bool] = field(repr=False)
    take: Callable[[np.ndarray], "RiskProblem"] = field(repr=False)

    def unit_gradients(self, theta: np.ndarray) -> np.ndarray:
        return self.gradient_rows(theta).T.copy()


@dataclass(frozen=True)
class FitResult:
    theta0: np.ndarray
    iterations: int
    final_gradient_norm: float
    hessian_at_opt: np.ndarray
    risk: float  # the (weighted) risk at theta0, as the fit summed it


def _total(values: np.ndarray, multipliers: np.ndarray | None):
    """Per-unit values summed over the units, weighted by the multipliers if given."""
    return values.sum(axis=0) if multipliers is None else multipliers @ values


def _positive_weights(w, n: int) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if arr.shape != (n,):
        raise InvalidData(f"expected {n} weights, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InvalidData("weights must be finite and strictly positive")
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

    def losses(resid):
        return 0.5 * w_norm * np.sum(resid * resid, axis=1)

    def gradients(resid):
        return -w_norm[:, None] * resid

    def gradient_rows(theta):
        """``gradients`` at theta, written in place into one m x N array."""
        rows = np.subtract(y.T, theta[:, None], out=np.empty((m, n)))
        rows *= w_norm
        return np.negative(rows, out=rows)

    def hess(theta, multipliers=None):
        total = w_norm.sum() if multipliers is None else float(multipliers @ w_norm)
        return total * np.eye(m)

    def newton_terms(theta, multipliers=None):
        resid = y - theta
        return (
            float(_total(losses(resid), multipliers)),
            _total(gradients(resid), multipliers),
            hess(theta, multipliers),
        )

    def init(multipliers=None):
        return y_mean.copy()

    return RiskProblem(
        kind="finpop",
        n_units=n,
        n_params=m,
        param_names=tuple(f"theta{j + 1}" for j in range(m)),
        weights=w_norm,
        data={"y": y},
        unit_losses=lambda theta: losses(y - theta),
        gradient_rows=gradient_rows,
        hessian=hess,
        newton_terms=newton_terms,
        expected_hessian=lambda theta: np.eye(m),
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

    # Each evaluator takes the residuals r = log y - eta and sigma.
    def losses(r, sigma):
        return 0.5 * w_norm * (r * r / sigma**2 + np.log(sigma**2))

    def gradients(r, sigma):
        """The unit gradients as one row per parameter: eta's, then sigma's."""
        return -w_norm * r / sigma**2, -w_norm * (r * r - sigma**2) / sigma**3

    def gradient_rows(theta):
        """``gradients`` at theta, written in place into one 2 x N array;
        Newton keeps ``gradients``, whose r it shares with the loss."""
        sigma, rows = theta[1], np.empty((2, n))
        r = np.subtract(log_y, theta[0], out=rows[0])
        np.multiply(r, r, out=rows[1])
        rows[1] -= sigma**2
        rows *= w_norm
        np.negative(rows, out=rows)
        rows[0] /= sigma**2
        rows[1] /= sigma**3
        return rows

    def hess(r, sigma, multipliers):
        uw = w_norm if multipliers is None else multipliers * w_norm
        h_ee = np.sum(uw) / sigma**2
        h_es = 2.0 * np.sum(uw * r) / sigma**3
        h_ss = 3.0 * np.sum(uw * r * r) / sigma**4 - np.sum(uw) / sigma**2
        return np.array([[h_ee, h_es], [h_es, h_ss]])

    def newton_terms(theta, multipliers=None):
        r, sigma = log_y - theta[0], theta[1]
        risk = float(_total(losses(r, sigma), multipliers))
        if multipliers is None:
            # Each row summed in unit order, the sum that .sum(axis=0) takes
            # over the N x 2 unit gradients.
            grad = np.array([np.add.accumulate(g, out=g)[-1] for g in gradients(r, sigma)])
        else:
            grad = multipliers @ np.column_stack(gradients(r, sigma))
        return risk, grad, hess(r, sigma, multipliers)

    def init(multipliers=None):
        u = np.ones(n) if multipliers is None else multipliers
        uw = u * w_norm
        total = uw.sum()
        if total <= 0.0:
            raise EmptySample("no effective weight in the sample")
        eta = float(uw @ log_y) / total
        var = float(uw @ (log_y - eta) ** 2) / total
        return np.array([eta, max(np.sqrt(var), DEFAULT.scale_floor)])

    return RiskProblem(
        kind="lognormal",
        n_units=n,
        n_params=2,
        param_names=("eta", "sigma"),
        weights=w_norm,
        data={"y": obs, "log_y": log_y},
        unit_losses=lambda theta: losses(log_y - theta[0], theta[1]),
        gradient_rows=gradient_rows,
        hessian=lambda theta, multipliers=None: hess(log_y - theta[0], theta[1], multipliers),
        newton_terms=newton_terms,
        expected_hessian=lambda theta: np.diag([1.0, 2.0]) / theta[1] ** 2,
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
    for j in range(x.shape[1]):
        if not x[:, j].any():
            raise InvalidData(f"design column {j} is identically zero")
    return _qblogit(x, resp)


def _qblogit(x: np.ndarray, resp: np.ndarray) -> RiskProblem:
    n, p = x.shape

    def losses(theta):
        t = x @ theta
        return np.logaddexp(0.0, t) - resp * t

    def gradient_rows(theta):
        """(pr - y) x, from one full-N product x @ theta: BLAS gemv may round
        a row differently when fewer rows share the call."""
        r = logistic(x @ theta)
        r -= resp
        return np.multiply(r, x.T, out=np.empty((p, n)))

    def hess(theta, multipliers=None):
        total, xw = np.zeros((p, p)), np.empty((min(n, BLOCK_UNITS), p))
        for rows, xb, t, pr in _logit_blocks(x, theta):
            w = _logistic_weights(pr)
            if multipliers is not None:
                w *= multipliers[rows]
            total += _scaled_rows(xb, w, xw).T @ xb
        return total

    def newton_terms(theta, multipliers=None):
        size = min(n, BLOCK_UNITS)
        ell, resid, w_buf = np.empty(size), np.empty(size), np.empty(size)
        g_t, xw = np.empty((p, size)), np.empty((size, p))
        risk, grad, total = 0.0, np.zeros(p), np.zeros((p, p))
        for rows, xb, t, pr in _logit_blocks(x, theta):
            m, rb = t.size, resp[rows]
            loss = np.logaddexp(0.0, t, out=ell[:m])
            loss -= np.multiply(rb, t, out=resid[:m])
            r = np.subtract(pr, rb, out=resid[:m])
            w = _logistic_weights(pr, out=w_buf[:m])
            if multipliers is None:
                risk += float(loss.sum())
                # The unit gradients r_i x_i, one parameter per row, summed in
                # unit order: the sequential sum that unit_gradients(theta)
                # .sum(axis=0) takes, continued from the previous blocks.
                g = np.multiply(r, xb.T, out=g_t[:, :m])
                g[:, 0] += grad
                grad = np.add.accumulate(g, axis=1, out=g)[:, -1].copy()
            else:
                ub = multipliers[rows]
                risk += float(ub @ loss)
                grad += ub @ _scaled_rows(xb, r, xw)
                w *= ub
            total += _scaled_rows(xb, w, xw).T @ xb
        return risk, grad, total

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
        gradient_rows=gradient_rows,
        hessian=hess,
        newton_terms=newton_terms,
        expected_hessian=None,
        default_init=init,
        in_domain=lambda theta: True,
        take=lambda idx: _qblogit(x[idx], resp[idx]),
    )


def _logit_blocks(x: np.ndarray, theta: np.ndarray):
    """Yield (rows, xb, t, pr) for each BLOCK_UNITS block of design rows.

    ``xb = x[rows]``, ``t = xb @ theta`` and ``pr = logistic(t)``. t and pr are
    views of two buffers allocated once per call, which the next block
    overwrites.
    """
    size = min(x.shape[0], BLOCK_UNITS)
    t_buf, pr_buf = np.empty(size), np.empty(size)
    for rows in unit_blocks(x.shape[0]):
        xb = x[rows]
        t = np.matmul(xb, theta, out=t_buf[: xb.shape[0]])
        yield rows, xb, t, logistic(t, out=pr_buf[: xb.shape[0]])


def _scaled_rows(xb: np.ndarray, w: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The rows of ``xb`` scaled by ``w``, ``xb * w[:, None]``, in the leading
    rows of the C-order buffer ``buf``.

    It is filled one column at a time: each multiply runs over the block's
    units, where the broadcast form runs an inner loop of p per unit.
    """
    out = buf[: xb.shape[0]]
    for j in range(xb.shape[1]):
        np.multiply(xb[:, j], w, out=out[:, j])
    return out


def _logistic_weights(pr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic curvature weights pr (1 - pr), at probabilities clipped off 0 and 1."""
    w = np.clip(pr, DEFAULT.p_clamp, 1.0 - DEFAULT.p_clamp, out=out)
    w *= 1.0 - w
    return w


def leverage(X, theta) -> np.ndarray:
    """Hat-matrix diagonal of a logistic fit: W_ii x_i^T (X^T W X)^-1 x_i.

    Two passes over the rows in blocks: the first stores the weights W_ii and
    sums X^T W X, the second scales them by the quadratic forms.
    """
    x = np.asarray(X, dtype=float)
    th = np.asarray(theta, dtype=float)
    if x.ndim != 2 or th.shape != (x.shape[1],):
        raise InvalidInput("X must be N x p and theta length p")
    h = np.empty(x.shape[0])
    gram = np.zeros((th.size, th.size))
    xw = np.empty((min(x.shape[0], BLOCK_UNITS), th.size))
    for rows, xb, t, pr in _logit_blocks(x, th):
        w = _logistic_weights(pr, out=h[rows])
        gram += _scaled_rows(xb, w, xw).T @ xb
    h_inv = spd_inverse(gram)
    for rows in unit_blocks(x.shape[0]):
        xb = x[rows]
        h[rows] *= np.sum((xb @ h_inv) * xb, axis=1)
    return h


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

    risk, grad, hess = problem.newton_terms(theta, u)
    d_ref = np.diag(hess)
    # The last pass only tests convergence: an unconverged fit stops there
    # before the PD test, a converged one passes it and returns.
    for iteration in range(max(max_iter, 0) + 1):
        d_ref = np.maximum(d_ref, np.diag(hess))
        gnorm = float(np.max(np.abs(grad)))
        if iteration >= max_iter and gnorm > tol:
            raise NoConvergence(
                f"gradient norm {gnorm:.3e} above tolerance {tol:.3e} "
                f"after {max_iter} iterations"
            )
        _require_pd(hess, d_ref)
        if gnorm <= tol:
            return FitResult(
                theta0=theta,
                iterations=iteration,
                final_gradient_norm=gnorm,
                hessian_at_opt=hess,
                risk=risk,
            )
        step = np.linalg.solve(hess, -grad)
        alpha = 1.0
        for _ in range(31):
            candidate = theta + alpha * step
            if problem.in_domain(candidate) and np.all(np.isfinite(candidate)):
                terms = problem.newton_terms(candidate, u)
                slack = DEFAULT.line_search_rtol * max(1.0, abs(risk))
                if np.isfinite(terms[0]) and terms[0] <= risk + slack:
                    theta, (risk, grad, hess) = candidate, terms
                    break
            alpha *= 0.5
        else:
            raise NoConvergence(
                f"line search failed to reduce the risk at iteration {iteration + 1}"
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
    if min_eig <= DEFAULT.curvature_rtol:
        raise SingularHessian(
            f"Hessian is singular to working precision (min eigenvalue {min_eig:.3e} "
            "of the Jacobi-scaled Hessian)"
        )


def fit_full(
    problem: RiskProblem,
    theta_init=None,
    tol: float = DEFAULT.newton_tol,
    max_iter: int = 60,
) -> FitResult:
    """Minimize the total loss over all units by damped Newton."""
    return _newton(problem, None, theta_init, tol, max_iter)


def weighted_fit(
    problem: RiskProblem,
    sample: DrawResult,
    scheme: SamplingScheme,
    theta_init=None,
    tol: float = DEFAULT.newton_tol,
    max_iter: int = 60,
) -> FitResult:
    """Minimize one draw's inverse-probability weighted loss sum(S_i/mu_i * loss_i).

    Unsampled units carry zero weight, so Newton runs on ``problem.take`` of
    the draw's support with multipliers ``support_counts / mu``, and costs in
    the sample, not the population. The draw is trusted to be what ``draw``
    returns; only its N is checked against the scheme's and the problem's.
    An empty draw raises EmptySample.
    """
    if not sample.n_units == scheme.n_units == problem.n_units:
        raise InvalidInput(
            f"draw covers {sample.n_units} units and scheme {scheme.n_units}, "
            f"problem has {problem.n_units}"
        )
    support = sample.support
    if support.size == 0:
        raise EmptySample("no units were selected")
    u = sample.support_counts / scheme.mu[support]
    return _newton(problem.take(support), u, theta_init, tol, max_iter)


def multiplier_fit(
    problem: RiskProblem,
    support,
    multipliers,
    theta_init=None,
    tol: float = DEFAULT.newton_tol,
    max_iter: int = 60,
) -> FitResult:
    """Minimize sum(u_i * loss_i) over the units ``support`` with multipliers u.

    Used by callers that combine several draws into one weight vector.
    ``support`` holds increasing integer unit indices and ``multipliers`` one
    positive, finite u_i each; both are checked in their own length, never
    the population's. An empty support raises EmptySample.
    """
    idx = np.asarray(support)
    u = np.asarray(multipliers, dtype=float)
    if idx.ndim != 1 or u.shape != idx.shape:
        raise InvalidInput(
            f"support {idx.shape} and multipliers {u.shape} must be vectors of one length"
        )
    if idx.size == 0:
        raise EmptySample("no units carry positive weight")
    if (
        idx.dtype.kind not in "iu" or idx[0] < 0 or idx[-1] >= problem.n_units
        or np.any(idx[1:] <= idx[:-1])
    ):
        raise InvalidInput(
            f"support must be increasing integer unit indices in [0, {problem.n_units})"
        )
    if not np.all((u > 0.0) & (u < np.inf)):  # NaN fails too
        raise InvalidInput("multipliers must be positive and finite")
    return _newton(problem.take(idx), u, theta_init, tol, max_iter)


def _lognormal_anticipate(aux: dict) -> np.ndarray:
    """Anticipated variance of the location: c_i = w_i^2 ((pred_i - center)^2 + disp_i^2).

    These are the coefficients of the ``c:1,0`` criterion. Inputs: weights,
    predictions (log scale), dispersions, center (the preliminary location).
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

    These are the coefficients of the ``d-er`` criterion. Deflated to
    h_ii (1 - h_ii) when ``deflate`` is set.
    """
    h = leverage(aux["X"], aux["theta"])
    return h * (1.0 - h) if aux.get("deflate", False) else h


def _finpop_anticipate(aux: dict) -> np.ndarray:
    """Anticipated standardized quadratic form of the weighted mean.

    The coefficients of the ``d-s`` criterion,
    c_i = w_i^2 ((pred_i - center)^T V^-1 (pred_i - center) + tr(V^-1 Disp_i)),
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
    sigma = max(float(np.sqrt(np.mean(resid**2))), DEFAULT.sigma_floor)
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
            seen = selected[in_group[selected]]
            if not seen.size:
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
    if min_eig < DEFAULT.cov_eigen_floor:
        cov = cov + (DEFAULT.cov_eigen_floor - min_eig) * np.eye(m)

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
    update_aux: Callable[..., dict]  # (problem, drawn units ascending, theta, AuxConfig) -> aux
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
        update_aux=_finpop_aux, anticipate=_finpop_anticipate,
    ),
    # The location/scale model predicts the location only.
    "lognormal": ModelSpec(
        schema="id,w,y[,z1..zk]", scalars=("w", "y"), block="z", block_key="z",
        block_required=False, optional=(),
        build=lambda cols: lognormal_problem(cols["y"], cols["w"]),
        gram=lambda problem: np.diag([1.0, 0.0]),
        update_aux=_lognormal_aux, anticipate=_lognormal_anticipate,
    ),
    "qblogit": ModelSpec(
        schema="id,y,x1..xp", scalars=("y",), block="x", block_key="X",
        block_required=True, optional=(),
        build=lambda cols: qblogit_problem(cols["X"], cols["y"]),
        gram=_design_gram,
        update_aux=_qblogit_aux, anticipate=_qblogit_anticipate,
    ),
}


def model_spec(kind: str) -> ModelSpec:
    """The table entry for a model name; InvalidInput for an unknown one."""
    if kind not in MODELS:
        raise InvalidInput(f"unknown model kind {kind!r}")
    return MODELS[kind]
