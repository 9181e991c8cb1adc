"""Seeded synthetic data pools.

Three generators, one per model family, shaped like heavy-tailed
administrative data: clustered case weights, predictive plus pure-noise
auxiliaries, and multivariate outcomes whose first column dwarfs the others
in scale. The generators are deterministic in (n_units, seed) and are the
fixtures behind the evaluation and acceptance suites, so their parameters
stay frozen.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .models import RiskProblem, model_spec

FINPOP_SCALE_GAP = 100.0


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))


def _check_size(n_units: int) -> int:
    n = int(n_units)
    if n < 10:
        raise InvalidInput("need at least 10 units")
    return n


def lognormal_pool(n_units: int, seed: int = 0) -> dict:
    """Positive outcomes with case-structured weights.

    Units arrive in cases that share a sampling weight; log-outcomes follow
    a linear signal in the first auxiliary column with heavy symmetric
    residuals, while the second column is pure noise.
    """
    n = _check_size(n_units)
    rng = _rng(seed)
    n_cases = max(2, n // 4)
    case = rng.integers(0, n_cases, n)
    case_weight = rng.lognormal(0.0, 0.5, n_cases)
    w = case_weight[case]
    z1 = rng.normal(0.0, 1.0, n)
    z2 = rng.normal(0.0, 1.0, n)
    resid = rng.normal(0.0, 0.5, n)
    log_y = 0.6 + 0.8 * z1 + resid
    return {
        "w": w,
        "y": np.exp(log_y),
        "z": np.column_stack([z1, z2]),
    }


def qblogit_pool(n_units: int, seed: int = 0) -> dict:
    """Fraction-valued outcomes with slopes that vary across groups.

    A single global logistic curve is deliberately misspecified for this
    pool: each latent group has its own slope, which spreads the residuals
    and the leverage scores.
    """
    n = _check_size(n_units)
    rng = _rng(seed)
    n_groups = 5
    g = rng.integers(0, n_groups, n)
    icept = rng.normal(0.0, 0.6, n_groups)
    slope1 = 1.0 + rng.normal(0.0, 0.7, n_groups)
    slope2 = -0.6 + rng.normal(0.0, 0.5, n_groups)
    x1 = rng.normal(0.0, 1.0, n)
    x2 = rng.normal(0.0, 1.0, n)
    lin = icept[g] + slope1[g] * x1 + slope2[g] * x2
    p = 1.0 / (1.0 + np.exp(-lin))
    y = np.clip(p + rng.normal(0.0, 0.07, n), 0.0, 1.0)
    return {
        "X": np.column_stack([np.ones(n), x1, x2]),
        "y": y,
    }


def finpop_pool(n_units: int, seed: int = 0) -> dict:
    """Three correlated outcome columns with a deliberate scale gap.

    The first column lives roughly 100x above the other two, so criteria
    that sum raw variances are dominated by it. Groups shift all three
    columns together; weights are skewed.
    """
    n = _check_size(n_units)
    rng = _rng(seed)
    n_groups = 3
    g = rng.integers(0, n_groups, n)
    shift = rng.normal(0.0, 1.0, n_groups)
    factor = rng.normal(0.0, 1.0, n)
    y1 = FINPOP_SCALE_GAP * (5.0 + 0.7 * shift[g] + 0.55 * factor + rng.normal(0.0, 0.4, n))
    y2 = 4.0 + 0.8 * shift[g] + 0.7 * factor + rng.normal(0.0, 0.5, n)
    y3 = 2.5 + 0.3 * shift[g] + 0.5 * factor + rng.normal(0.0, 0.5, n)
    w = rng.lognormal(0.0, 0.8, n)
    return {
        "w": w,
        "y": np.column_stack([y1, y2, y3]),
        "g": g,
    }


def pool_problem(kind: str, pool: dict) -> RiskProblem:
    """Model object for a generated pool."""
    return model_spec(kind).build(pool)


_GENERATORS = {"finpop": finpop_pool, "lognormal": lognormal_pool, "qblogit": qblogit_pool}


def make_pool(kind: str, n_units: int, seed: int = 0) -> dict:
    """Dispatch to the generator for a model kind."""
    model_spec(kind)  # refuses an unknown name
    return _GENERATORS[kind](n_units, seed)
