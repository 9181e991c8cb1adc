"""Seeded synthetic data pools.

Three generators, one per model family, shaped like heavy-tailed
administrative data: clustered case weights, predictive plus pure-noise
auxiliaries, and multivariate outcomes whose first column dwarfs the others
in scale. The generators are deterministic in (n_units, seed) and are the
fixtures behind the evaluation and acceptance suites, so their parameters
stay frozen.

Each generator fills the arrays it returns in place, in the order of the
plain expressions its docstring gives, with the same random draws in the
same order, and runs ``exp`` only on contiguous arrays (the strided loop
can round differently). So the values are those expressions' bit for bit,
while an index vector is dropped once used and at most three N-long
temporaries exist beside the outputs.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .models import RiskProblem, model_spec
from .sampling import _nonnegative_int

FINPOP_SCALE_GAP = 100.0


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=_nonnegative_int(seed, "seed")))


def _check_size(n_units: int) -> int:
    n = _nonnegative_int(n_units, "n_units")
    if n < 10:
        raise InvalidInput("need at least 10 units")
    return n


def lognormal_pool(n_units: int, seed: int = 0) -> dict:
    """Positive outcomes with case-structured weights.

    Units arrive in cases that share a sampling weight; log-outcomes follow
    a linear signal in the first auxiliary column with heavy symmetric
    residuals, while the second column is pure noise:
    ``w = case_weight[case]``, ``z = [z1, z2]`` and
    ``y = exp(0.6 + 0.8 * z1 + resid)``.
    """
    n = _check_size(n_units)
    rng = _rng(seed)
    n_cases = max(2, n // 4)
    case = rng.integers(0, n_cases, n)
    w = rng.lognormal(0.0, 0.5, n_cases)[case]
    del case
    z = np.empty((n, 2))
    z[:, 0] = rng.normal(0.0, 1.0, n)
    z[:, 1] = rng.normal(0.0, 1.0, n)
    y = np.multiply(0.8, z[:, 0])
    y += 0.6
    y += rng.normal(0.0, 0.5, n)
    np.exp(y, out=y)
    return {"w": w, "y": y, "z": z}


def qblogit_pool(n_units: int, seed: int = 0) -> dict:
    """Fraction-valued outcomes with slopes that vary across groups.

    A single global logistic curve is deliberately misspecified for this
    pool: each latent group has its own slope, which spreads the residuals
    and the leverage scores. ``X = [1, x1, x2]`` and
    ``y = clip(1 / (1 + exp(-lin)) + noise, 0, 1)`` with
    ``lin = icept[g] + slope1[g] * x1 + slope2[g] * x2``.
    """
    n = _check_size(n_units)
    rng = _rng(seed)
    n_groups = 5
    g = rng.integers(0, n_groups, n)
    icept = rng.normal(0.0, 0.6, n_groups)
    slope1 = 1.0 + rng.normal(0.0, 0.7, n_groups)
    slope2 = -0.6 + rng.normal(0.0, 0.5, n_groups)
    x = np.empty((n, 3))
    x[:, 0] = 1.0
    x[:, 1] = rng.normal(0.0, 1.0, n)
    x[:, 2] = rng.normal(0.0, 1.0, n)
    lin = np.take(slope1, g)
    lin *= x[:, 1]
    lin += np.take(icept, g)
    term = np.take(slope2, g)
    del g
    term *= x[:, 2]
    lin += term
    del term
    np.negative(lin, out=lin)
    np.exp(lin, out=lin)
    lin += 1.0
    np.divide(1.0, lin, out=lin)
    y = rng.normal(0.0, 0.07, n)
    y += lin
    np.clip(y, 0.0, 1.0, out=y)
    return {"X": x, "y": y}


def finpop_pool(n_units: int, seed: int = 0) -> dict:
    """Three correlated outcome columns with a deliberate scale gap.

    The first column lives roughly 100x above the other two, so criteria
    that sum raw variances are dominated by it. Groups shift all three
    columns together; weights are skewed. Column j is
    ``base + gain * shift[g] + load * factor + noise`` with its own constants
    and noise draw, and the first is then scaled by ``FINPOP_SCALE_GAP``.
    """
    n = _check_size(n_units)
    rng = _rng(seed)
    n_groups = 3
    g = rng.integers(0, n_groups, n)
    shift = rng.normal(0.0, 1.0, n_groups)
    factor = rng.normal(0.0, 1.0, n)
    y, col = np.empty((n, 3)), np.empty(n)
    for j, (base, gain, load, noise_sd) in enumerate(
        ((5.0, 0.7, 0.55, 0.4), (4.0, 0.8, 0.7, 0.5), (2.5, 0.3, 0.5, 0.5))
    ):
        np.take(gain * shift, g, out=col)
        col += base
        col += np.multiply(load, factor)
        col += rng.normal(0.0, noise_sd, n)
        if j == 0:
            col *= FINPOP_SCALE_GAP
        y[:, j] = col
    del factor, col
    w = rng.lognormal(0.0, 0.8, n)
    return {"w": w, "y": y, "g": g}


def pool_problem(kind: str, pool: dict) -> RiskProblem:
    """Model object for a generated pool."""
    return model_spec(kind).build(pool)


_GENERATORS = {"finpop": finpop_pool, "lognormal": lognormal_pool, "qblogit": qblogit_pool}


def make_pool(kind: str, n_units: int, seed: int = 0) -> dict:
    """Dispatch to the generator for a model kind."""
    model_spec(kind)  # refuses an unknown name
    return _GENERATORS[kind](n_units, seed)
