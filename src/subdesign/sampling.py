"""Sampling-design families and seeded draws of selection counts.

Three families are supported: Poisson sampling with replacement (independent
Poisson counts), Poisson sampling without replacement (independent Bernoulli
indicators, expected counts capped at one), and multinomial sampling with a
fixed realized size. A scheme assigns each population unit a positive expected
selection count; validation enforces the family's domain exactly and never
rescales on the caller's behalf.

Draws use the Philox counter-based bit generator keyed by the caller's 64-bit
seed. With-replacement and multinomial draws rest on Poisson splitting:
independent Poisson(mu_i) counts have the same law as a total
K ~ Poisson(sum mu) followed by K independent categorical draws with
probabilities mu / sum(mu), and a multinomial draw is the second step with
K = n. Each categorical draw places a Philox uniform, scaled by the total, in
the scheme's running sum ``np.cumsum(mu)`` with ``np.searchsorted``. A scheme
builds that running sum on its first draw and keeps it, so a draw costs
O(n log N) after one O(N) set-up per scheme. Without-replacement draws stay
one uniform per unit, since no exact shortcut is known for unequal mu. Both
paths are IEEE-754 arithmetic on Philox output (a sequential ``cumsum``, one
product per uniform and a binary search), so equal (scheme, seed) pairs
produce bitwise identical counts on any platform. A draw keeps the drawn
units alone; its N-length ``counts`` is built when first read.
"""

from __future__ import annotations

import enum
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT
from .errors import InvalidBudget, InvalidInput, OutOfDomain


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

    @cached_property
    def cdf(self) -> np.ndarray:
        """Running sums of mu, the table categorical draws search.

        Built on the first draw and kept, never by ``validate_scheme``: the
        solvers build many schemes that are never drawn from.
        """
        cdf = np.cumsum(self.mu)
        cdf.flags.writeable = False
        return cdf

    @cached_property
    def mu_max(self) -> float:
        """The largest entry of mu, stored by the builders that hold it already."""
        return float(self.mu.max())

    def _with_max(self, top) -> SamplingScheme:
        self.__dict__["mu_max"] = float(top)  # mu_max's cache: ``top`` is the exact max
        return self


@dataclass(frozen=True)
class DrawResult:
    """The units one seeded draw selected.

    ``support`` lists the units drawn at least once in increasing order and
    ``support_counts`` their counts, so estimators work on the sample alone.
    """

    support: np.ndarray = field(repr=False)
    support_counts: np.ndarray = field(repr=False)
    n_units: int
    realized_size: int
    seed: int

    @cached_property
    def counts(self) -> np.ndarray:
        """The selection count of every population unit, built on first read."""
        counts = np.zeros(self.n_units, dtype=np.int64)
        counts[self.support] = self.support_counts
        counts.flags.writeable = False
        return counts


def validate_scheme(mu, family: DesignFamily, n: float) -> SamplingScheme:
    """Check mu against the family's domain and wrap it in a SamplingScheme.

    Raises instead of repairing: a sum that misses the budget or a capped entry
    above one is the caller's bug, and silently renormalizing would mask it.
    The scheme keeps a read-only copy of ``mu``; a read-only array that owns
    its data, as the solvers hand over, is kept as it is.
    """
    arr = np.asarray(mu, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise InvalidInput(f"mu must be a non-empty 1-d sequence, got shape {arr.shape}")
    top = arr.max()  # NaN fails both bounds: the per-entry passes below only raise
    in_domain = arr.min() > 0.0 and (top <= 1.0 if family is DesignFamily.PO_WOR else top < np.inf)
    if not in_domain and not np.all(np.isfinite(arr)):
        raise InvalidInput("mu has non-finite entries")
    check_budget(arr.shape[0], n, family)
    if not in_domain and np.any(arr <= 0.0):
        bad = int(np.argmin(arr))
        raise OutOfDomain(f"mu[{bad}] = {arr[bad]} is not strictly positive")
    if not in_domain and family is DesignFamily.PO_WOR and np.any(arr > 1.0):
        bad = int(np.argmax(arr))
        raise OutOfDomain(
            f"mu[{bad}] = {arr[bad]} exceeds 1; without-replacement schemes are capped at 1"
        )
    total = float(arr.sum())
    if abs(total - n) > DEFAULT.budget_rtol * max(abs(n), 1.0):
        raise InvalidBudget(f"sum(mu) = {total!r} does not match budget n = {n!r}")
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.flags.writeable = False
    return SamplingScheme(mu=arr, family=family, budget_n=float(n))._with_max(top)


def check_budget(n_units: int, n: float, family: DesignFamily) -> None:
    """Refuse a budget n that is not a positive and finite real number (a bool
    is none), not an integer under multi, or above N = ``n_units`` under
    po-wor, where each mu_i is capped at one."""
    if not isinstance(n, numbers.Real) or isinstance(n, bool):
        raise InvalidBudget(f"budget n must be a real number, got {n!r}")
    if not np.isfinite(n) or n <= 0:
        raise InvalidBudget(f"budget n must be positive and finite, got {n}")
    if family is DesignFamily.MULTI and abs(n - round(n)) > 0:
        raise InvalidBudget(f"multinomial designs need an integer budget, got {n}")
    if family is DesignFamily.PO_WOR and n > n_units:
        raise InvalidBudget(
            f"cannot place expected size {n} without replacement in {n_units} units"
        )


def uniform_scheme(n_units: int, n: float, family: DesignFamily) -> SamplingScheme:
    """Scheme with equal expected counts n/N for every unit, after ``check_budget``."""
    if n_units < 1:
        raise InvalidInput(f"population size must be at least 1, got {n_units}")
    check_budget(n_units, n, family)
    # With n <= N checked, the rounded n/N is at most 1: no unit exceeds the cap.
    mu = np.full(n_units, float(n) / n_units)
    mu.flags.writeable = False
    return validate_scheme(mu, family, n)


def _nonnegative_int(value, what: str) -> int:
    """``value`` as an int; a bool, a float, a string or a negative is refused."""
    try:
        k = operator.index(value)
    except TypeError:
        k = None
    if k is None or isinstance(value, bool):
        raise InvalidInput(f"{what} must be an integer, got {value!r}")
    if k < 0:
        raise InvalidInput(f"{what} must be non-negative, got {k}")
    return k


def derive_seed(*keys: int) -> int:
    """Deterministic 64-bit draw seed derived from a tuple of integer keys.

    Stage, replicate and replication seeds all come from here, each keyed by
    its master seed and index, so equal keys always give equal draws. Keys
    must be non-negative integers: none is truncated or wrapped.
    """
    ss = np.random.SeedSequence(entropy=[_nonnegative_int(k, "seed key") for k in keys])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def draw(scheme: SamplingScheme, seed: int) -> DrawResult:
    """One seeded draw of selection counts from the scheme's distribution.

    po-wr draws a total K ~ Poisson(sum mu) and multi takes K = n; either then
    places K categorical draws with probabilities mu / sum(mu) through the
    scheme's cached running sum (see the module docstring). po-wor draws one
    Bernoulli(mu_i) indicator per unit.
    """
    if _nonnegative_int(seed, "seed") > np.iinfo(np.uint64).max:
        raise InvalidInput(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    mu = scheme.mu
    if scheme.family is DesignFamily.PO_WOR:
        support = np.flatnonzero(rng.random(mu.shape[0]) < mu)
        support_counts = np.ones(support.shape[0], dtype=np.int64)
    else:
        cdf = scheme.cdf
        total = cdf[-1]
        if scheme.family is DesignFamily.PO_WR:
            k = int(rng.poisson(total))
        else:
            k = int(round(scheme.budget_n))
        # Sorted targets let each binary search start where the last one
        # ended; the order of the K draws does not change the counts.
        uniforms = rng.random(k)
        uniforms.sort()
        # Unit i takes the targets in [cdf[i-1], cdf[i]). A uniform below one
        # times cdf[-1] stays below cdf[-1] under round-to-nearest; a target
        # reaching it would map to index N, so it is clamped to the last unit.
        units = np.searchsorted(cdf, uniforms * total, side="right")
        units = np.minimum(units, mu.shape[0] - 1)
        support, support_counts = np.unique(units, return_counts=True)
        support_counts = support_counts.astype(np.int64, copy=False)
    support.flags.writeable = support_counts.flags.writeable = False
    return DrawResult(
        support=support,
        support_counts=support_counts,
        n_units=mu.shape[0],
        realized_size=int(support_counts.sum()),
        seed=int(seed),
    )
