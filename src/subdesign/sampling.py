"""Sampling-design families and seeded draws of selection counts.

Three families are supported: Poisson sampling with replacement (independent
Poisson counts), Poisson sampling without replacement (independent Bernoulli
indicators, expected counts capped at one), and multinomial sampling with a
fixed realized size. A scheme assigns each population unit a positive expected
selection count; validation enforces the family's domain exactly and never
rescales on the caller's behalf.

Draws use the Philox counter-based bit generator keyed by the caller's 64-bit
seed, so equal (scheme, seed) pairs produce bitwise identical counts on any
platform.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, NumericConfig
from .errors import BudgetMismatch, InvalidBudget, InvalidInput, OutOfDomain


class DesignFamily(enum.Enum):
    """How selection counts are generated from expected counts."""

    PO_WR = "po-wr"
    PO_WOR = "po-wor"
    MULTI = "multi"

    @classmethod
    def from_token(cls, token: str) -> "DesignFamily":
        try:
            return cls(token.strip().lower())
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise InvalidInput(f"unknown design family {token!r}; expected one of {valid}")


@dataclass(frozen=True)
class SamplingScheme:
    """Validated expected selection counts for one design family.

    ``mu`` has one entry per population unit and sums to ``budget_n``. Build
    instances through ``validate_scheme`` so the domain checks always run.
    """

    mu: np.ndarray
    family: DesignFamily
    budget_n: float

    @property
    def n_units(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class DrawResult:
    """Realized selection counts from one seeded draw."""

    counts: np.ndarray
    realized_size: int
    seed: int


def validate_scheme(
    mu,
    family: DesignFamily,
    n: float,
    config: NumericConfig = DEFAULT,
) -> SamplingScheme:
    """Check mu against the family's domain and wrap it in a SamplingScheme.

    Raises instead of repairing: a sum that misses the budget or a capped entry
    above one is the caller's bug, and silently renormalizing would mask it.
    """
    arr = np.asarray(mu, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise InvalidInput(f"mu must be a non-empty 1-d sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("mu has non-finite entries")
    if not np.isfinite(n) or n <= 0:
        raise InvalidBudget(f"budget n must be positive and finite, got {n}")
    if family is DesignFamily.MULTI and abs(n - round(n)) > 0:
        raise InvalidBudget(f"multinomial designs need an integer budget, got {n}")
    if np.any(arr <= 0.0):
        bad = int(np.argmin(arr))
        raise OutOfDomain(f"mu[{bad}] = {arr[bad]} is not strictly positive")
    if family is DesignFamily.PO_WOR and np.any(arr > 1.0):
        bad = int(np.argmax(arr))
        raise OutOfDomain(
            f"mu[{bad}] = {arr[bad]} exceeds 1; without-replacement schemes are capped at 1"
        )
    total = float(arr.sum())
    if abs(total - n) > config.budget_rtol * max(abs(n), 1.0):
        raise BudgetMismatch(f"sum(mu) = {total!r} does not match budget n = {n!r}")
    arr = arr.copy()
    arr.flags.writeable = False
    return SamplingScheme(mu=arr, family=family, budget_n=float(n))


def uniform_scheme(
    n_units: int,
    n: float,
    family: DesignFamily,
    config: NumericConfig = DEFAULT,
) -> SamplingScheme:
    """Scheme with equal expected counts n/N for every unit."""
    if n_units < 1:
        raise InvalidInput(f"population size must be at least 1, got {n_units}")
    if family is DesignFamily.PO_WOR and n > n_units:
        raise InvalidBudget(
            f"cannot place expected size {n} without replacement in {n_units} units"
        )
    mu = np.full(n_units, float(n) / n_units)
    # Guarantee the exact budget under the family cap despite division round-off.
    if family is DesignFamily.PO_WOR:
        mu = np.minimum(mu, 1.0)
    return validate_scheme(mu, family, n, config)


def derive_seed(*keys: int) -> int:
    """Deterministic 64-bit draw seed derived from a tuple of integer keys.

    Stage, replicate and replication seeds all come from here, each keyed by
    its master seed and index, so equal keys always give equal draws.
    """
    ss = np.random.SeedSequence(entropy=[int(k) for k in keys])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def draw(scheme: SamplingScheme, seed: int) -> DrawResult:
    """One seeded draw of selection counts from the scheme's distribution."""
    if seed < 0 or seed > np.iinfo(np.uint64).max:
        raise InvalidInput(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    mu = scheme.mu
    if scheme.family is DesignFamily.PO_WR:
        counts = rng.poisson(mu)
    elif scheme.family is DesignFamily.PO_WOR:
        counts = rng.random(mu.shape[0]) < mu
    else:
        n = int(round(scheme.budget_n))
        pvals = mu / mu.sum()
        counts = rng.multinomial(n, pvals)
    counts = counts.astype(np.int64, copy=False)
    counts.flags.writeable = False
    return DrawResult(counts=counts, realized_size=int(counts.sum()), seed=int(seed))
