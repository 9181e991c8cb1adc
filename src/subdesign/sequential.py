"""Multi-stage subsampling with pooled estimation.

Stage 1 draws uniformly because no estimate exists yet. Every later stage
fits an auxiliary model to the outcomes revealed so far, anticipates the
allocation coefficients for the units that are still unobserved, and draws
from the resulting scheme. Estimation always pools all stages through a
single inverse-probability weighted fit, evaluated on the units that some
stage drew.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT
from .criteria import anticipated_coefficients
from .errors import InvalidInput, SubdesignError, StageFailure
from .models import FitResult, RiskProblem, model_spec, multiplier_fit
from .sampling import (
    DesignFamily,
    DrawResult,
    SamplingScheme,
    check_budget,
    derive_seed,
    draw,
    uniform_scheme,
)
from .solver import l_optimal_scheme


@dataclass(frozen=True)
class AuxConfig:
    """Side information available before outcomes are revealed.

    columns : optional (N, k) matrix of predictors for the location model
        used with log-scale outcomes; an (N,) array is one column.
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
            cols = np.asarray(self.columns, dtype=float)
            if cols.ndim == 1:
                cols = cols[:, None]
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
    risk: float = float("nan")  # pooled risk of stages 1..k at theta_hat

    def __post_init__(self):
        theta = np.asarray(self.theta_hat, dtype=float)
        theta.setflags(write=False)
        object.__setattr__(self, "theta_hat", theta)


def _drawn_units(records) -> np.ndarray:
    """Units drawn in some stage, in increasing order."""
    if not records:
        raise InvalidInput("need at least one stage record")
    return np.unique(np.concatenate([r.draw.support for r in records]))


def _pooled_support(records) -> tuple[np.ndarray, np.ndarray]:
    """Units drawn in some stage, in increasing order, and their pooled multipliers.

    Each stage contributes its inverse-probability multipliers S_i / mu_i,
    weighted by that stage's share n_j / m_k of the cumulative budget; units
    no stage drew have multiplier zero and are left out. The sums are taken
    in stage order, so every multiplier is the same float as in a sum over
    the full population.
    """
    support = _drawn_units(records)
    sizes = np.array([float(r.scheme.budget_n) for r in records])
    m_k = sizes.sum()
    u = np.zeros(support.size)
    for rec, n_j in zip(records, sizes):
        drawn = rec.draw.support
        u[np.searchsorted(support, drawn)] += (
            (n_j / m_k) * rec.draw.support_counts / rec.scheme.mu[drawn]
        )
    return support, u


def pooled_estimate(
    records,
    problem: RiskProblem,
    theta_init=None,
    tol: float = DEFAULT.newton_tol,
    max_iter: int = 60,
) -> FitResult:
    """Fit theta on the stage-share weighted combination of all draws.

    One ``multiplier_fit`` on the union of the stage supports and their
    pooled multipliers; no stage drew the other units, so they weigh nothing.
    """
    support, u = _pooled_support(records)
    return multiplier_fit(problem, support, u, theta_init, tol, max_iter)


def update_aux(records, problem: RiskProblem, config: AuxConfig | None = None) -> dict:
    """Refresh the auxiliary inputs that anticipation needs.

    Only outcomes of units selected in some stage are consulted; predictions
    cover the whole population. The returned mapping feeds straight into
    anticipated_coefficients for the problem's model kind.
    """
    return model_spec(problem.kind).update_aux(
        problem, _drawn_units(records), records[-1].theta_hat, config
    )


def anticipate_scheme(
    records,
    problem: RiskProblem,
    n_k: float,
    family: DesignFamily,
    config: AuxConfig | None = None,
) -> tuple[SamplingScheme, np.ndarray]:
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
    aux_config: AuxConfig | None = None,
    tol: float = DEFAULT.newton_tol,
    max_iter: int = 60,
) -> tuple[StageRecord, ...]:
    """Run the full multi-stage pipeline and return one record per stage.

    The first stage samples uniformly; each later stage reallocates using
    coefficients anticipated from everything revealed so far. Any failure
    (empty draw, singular fit, infeasible allocation) aborts with the
    records of the completed stages attached. An empty or non-positive size
    list is InvalidInput, and every size passes ``check_budget`` before stage 1.
    """
    given = np.atleast_1d(np.asarray(batch_sizes, dtype=object))
    if len(given) < 1:
        raise InvalidInput("need at least one batch size")
    if any(isinstance(n_k, numbers.Real) and n_k <= 0 for n_k in given):
        raise InvalidInput("batch sizes must be positive")
    for n_k in given:  # as given: a string or a complex is no real size
        check_budget(problem.n_units, n_k, family)
    sizes = [float(n_k) for n_k in given]

    records: list[StageRecord] = []
    theta = None
    for k, n_k in enumerate(sizes, start=1):
        try:
            if k == 1:
                scheme = uniform_scheme(problem.n_units, n_k, family)
            else:
                scheme, _ = anticipate_scheme(records, problem, n_k, family, aux_config)
            record = StageRecord(
                k=k,
                scheme=scheme,
                draw=draw(scheme, derive_seed(seed, k)),
                theta_hat=np.zeros(problem.n_params),
                m_k=int(round(sum(sizes[:k]))),
            )
            fit = pooled_estimate(
                [*records, record], problem, theta_init=theta, tol=tol,
                max_iter=max_iter,
            )
        except SubdesignError as err:
            raise StageFailure(
                f"stage {k} failed: {err}", stage=k, records=tuple(records)
            ) from err
        theta = fit.theta0
        records.append(replace(record, theta_hat=theta, risk=fit.risk))
    return tuple(records)
