"""Multi-stage subsampling with pooled estimation.

Stage 1 draws uniformly because no estimate exists yet. Every later stage
fits an auxiliary model to the outcomes revealed so far, anticipates the
allocation coefficients for the units that are still unobserved, and draws
from the resulting scheme. Estimation always pools all stages through a
single inverse-probability weighted fit, evaluated on the units that some
stage drew.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .criteria import CoefficientSet, CriterionSpec, anticipated_coefficients
from .errors import InvalidInput, SubdesignError, StageFailure, Unsupported
from .models import MODELS, FitResult, RiskProblem, _fit_on_support
from .sampling import (
    DesignFamily,
    DrawResult,
    SamplingScheme,
    derive_seed,
    draw,
    uniform_scheme,
)
from .solver import l_optimal_scheme


@dataclass(frozen=True)
class AuxConfig:
    """Side information available before outcomes are revealed.

    columns : optional (N, k) matrix of predictors for the location model
        used with log-scale outcomes.
    groups : optional (N,) integer labels; group means and a pooled
        within-group covariance stand in for unseen multivariate outcomes.
    deflate : shrink logistic leverage h to h(1-h) when anticipating
        fraction-outcome designs.
    """

    columns: np.ndarray | None = None
    groups: np.ndarray | None = None
    deflate: bool = False

    def __post_init__(self):
        if self.columns is not None:
            cols = np.atleast_2d(np.asarray(self.columns, dtype=float))
            if cols.ndim != 2 or not np.all(np.isfinite(cols)):
                raise InvalidInput("auxiliary columns must be a finite 2-d array")
            object.__setattr__(self, "columns", cols)
        if self.groups is not None:
            g = np.asarray(self.groups)
            if g.ndim != 1:
                raise InvalidInput("group labels must be a 1-d array")
            object.__setattr__(self, "groups", g)


@dataclass(frozen=True)
class StageRecord:
    """Everything produced by one sampling stage."""

    k: int
    scheme: SamplingScheme
    draw: DrawResult
    theta_hat: np.ndarray = field(repr=False)
    m_k: int

    def __post_init__(self):
        theta = np.asarray(self.theta_hat, dtype=float)
        theta.setflags(write=False)
        object.__setattr__(self, "theta_hat", theta)


def stage_seed(master_seed: int, k: int) -> int:
    """Deterministic per-stage seed derived from the master seed."""
    return derive_seed(master_seed, k)


def _pooled_support(records) -> tuple[np.ndarray, np.ndarray]:
    """Units drawn in some stage, in increasing order, and their pooled multipliers.

    Each stage contributes its inverse-probability multipliers S_i / mu_i,
    weighted by that stage's share n_j / m_k of the cumulative budget. The
    sums are taken in stage order, as over the full population, so every
    multiplier is the same float as in the dense vector.
    """
    if not records:
        raise InvalidInput("need at least one stage record")
    sizes = np.array([float(r.scheme.budget_n) for r in records])
    m_k = sizes.sum()
    support = np.unique(np.concatenate([r.draw.support for r in records]))
    u = np.zeros(support.size)
    for rec, n_j in zip(records, sizes):
        drawn = rec.draw.support
        u[np.searchsorted(support, drawn)] += (
            (n_j / m_k) * rec.draw.support_counts / rec.scheme.mu[drawn]
        )
    return support, u


def pooled_multipliers(records) -> np.ndarray:
    """Aggregate stage draws into one weight vector over all units.

    Each stage contributes its inverse-probability multipliers S_i / mu_i,
    weighted by that stage's share n_j / m_k of the cumulative budget; units
    no stage drew get zero.
    """
    support, u_support = _pooled_support(records)
    u = np.zeros(records[0].scheme.n_units)
    u[support] = u_support
    return u


def pooled_risk(records, problem: RiskProblem, theta) -> float:
    """Value of the pooled weighted risk at theta, summed over the drawn units."""
    support, u = _pooled_support(records)
    return float(u @ problem.take(support).unit_losses(np.asarray(theta, dtype=float)))


def pooled_estimate(
    records,
    problem: RiskProblem,
    theta_init=None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> FitResult:
    """Fit theta on the stage-share weighted combination of all draws.

    Newton runs on the union of the stage supports; no stage drew the other
    units, so their multipliers are zero.
    """
    support, u = _pooled_support(records)
    return _fit_on_support(problem, support, u, theta_init, tol, max_iter)


def _selected_mask(records) -> np.ndarray:
    mask = np.zeros(records[0].scheme.n_units, dtype=bool)
    for rec in records:
        mask[rec.draw.support] = True
    return mask


def update_aux(records, problem: RiskProblem, config: AuxConfig | None = None) -> dict:
    """Refresh the auxiliary inputs that anticipation needs.

    Only outcomes of units selected in some stage are consulted; predictions
    cover the whole population. The returned mapping feeds straight into
    anticipated_coefficients for the problem's model kind.
    """
    if not records:
        raise InvalidInput("need at least one stage record")
    spec = MODELS.get(problem.kind)
    if spec is None:
        raise Unsupported(f"no auxiliary updater for model kind {problem.kind!r}")
    return spec.update_aux(problem, _selected_mask(records), records[-1].theta_hat, config)


def anticipate_scheme(
    records,
    problem: RiskProblem,
    n_k: float,
    family: DesignFamily,
    config: AuxConfig | None = None,
) -> tuple[SamplingScheme, CoefficientSet]:
    """Allocation for the next stage from anticipated coefficients."""
    aux = update_aux(records, problem, config)
    cs = anticipated_coefficients(problem.kind, **aux)
    scheme = l_optimal_scheme(cs, n_k, family)
    return scheme, cs


def run_k_stages(
    problem: RiskProblem,
    batch_sizes,
    family: DesignFamily,
    seed: int,
    criterion: CriterionSpec | None = None,
    aux_config: AuxConfig | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> tuple[StageRecord, ...]:
    """Run the full multi-stage pipeline and return one record per stage.

    The first stage samples uniformly; each later stage reallocates using
    coefficients anticipated from everything revealed so far. Any failure
    (empty draw, singular fit, infeasible allocation) aborts with the
    records of the completed stages attached.
    """
    sizes = [float(n) for n in np.atleast_1d(np.asarray(batch_sizes, dtype=float))]
    if len(sizes) < 1:
        raise InvalidInput("need at least one batch size")
    if any(n <= 0 for n in sizes):
        raise InvalidInput("batch sizes must be positive")
    if criterion is not None:
        canonical = anticipated_criterion_label(problem.kind)
        if criterion.label != canonical:
            raise Unsupported(
                f"anticipation for {problem.kind!r} is derived for the "
                f"{canonical!r} criterion, got {criterion.label!r}"
            )

    records: list[StageRecord] = []
    theta = None
    for k, n_k in enumerate(sizes, start=1):
        try:
            if k == 1:
                scheme = uniform_scheme(problem.n_units, n_k, family)
            else:
                scheme, _ = anticipate_scheme(records, problem, n_k, family, aux_config)
            result = draw(scheme, stage_seed(seed, k))
            records.append(
                StageRecord(
                    k=k,
                    scheme=scheme,
                    draw=result,
                    theta_hat=np.zeros(problem.n_params),
                    m_k=int(round(sum(sizes[:k]))),
                )
            )
            fit = pooled_estimate(records, problem, theta_init=theta, tol=tol, max_iter=max_iter)
        except SubdesignError as err:
            records = records[:-1] if records and records[-1].k == k else records
            raise StageFailure(
                f"stage {k} failed: {err}", stage=k, records=tuple(records)
            ) from err
        theta = fit.theta0
        records[-1] = replace(records[-1], theta_hat=theta)
    return tuple(records)


def anticipated_criterion_label(kind: str) -> str:
    """Label of the criterion each model's anticipation targets."""
    spec = MODELS.get(kind)
    if spec is None:
        raise Unsupported(f"no anticipated criterion for model kind {kind!r}")
    return spec.criterion
