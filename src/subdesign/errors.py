"""Exception taxonomy shared by all subdesign modules.

Every error raised by the library derives from :class:`SubdesignError` so callers
can catch the whole family with one clause. The CLI maps these onto exit codes.
"""

from __future__ import annotations


class SubdesignError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(SubdesignError):
    """Malformed input: non-finite entries, dimension mismatch, missing argument."""


class NotPSD(SubdesignError):
    """A matrix required to be positive semidefinite is not, beyond tolerance."""


class SingularMatrix(SubdesignError):
    """A matrix required to be invertible is singular or numerically near-singular."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class SingularHessian(SubdesignError):
    """The Hessian of a risk problem is singular or indefinite where PD is required."""


class NoConvergence(SubdesignError):
    """An iterative fit exhausted its iteration budget."""


class EmptySample(SubdesignError):
    """A subsample fit was requested but no unit was selected."""


class InvalidWeights(SubdesignError):
    """Unit weights violate their domain (must be strictly positive)."""


class InvalidData(SubdesignError):
    """Data violates a model's domain (e.g. non-positive outcomes for a log scale)."""


class OutOfDomain(SubdesignError):
    """A sampling scheme leaves the feasible domain of its design family."""


class BudgetMismatch(SubdesignError):
    """Scheme expected size does not match the declared budget."""


class InvalidBudget(SubdesignError):
    """The budget itself is infeasible for the family (n > N without replacement, ...)."""


class Infeasible(SubdesignError):
    """No feasible optimal scheme exists (some coefficient is exactly zero)."""

    def __init__(self, message: str, zero_ids: tuple[int, ...] = ()):
        super().__init__(message)
        self.zero_ids = tuple(zero_ids)


class NotDifferentiable(SubdesignError):
    """The criterion is not differentiable at this point (repeated top eigenvalue)."""


class Unsupported(SubdesignError):
    """The operation is outside the supported envelope (size limits, missing pieces)."""


class UnreliableEstimate(SubdesignError):
    """A Monte Carlo estimate had too many failed replicates to be trusted.

    ``failures`` counts the failed replicates by exception class name.
    """

    def __init__(
        self,
        message: str,
        n_failed: int = 0,
        n_total: int = 0,
        failures: dict[str, int] | None = None,
    ):
        super().__init__(message)
        self.n_failed = n_failed
        self.n_total = n_total
        self.failures = dict(failures or {})


class DegenerateCriterion(SubdesignError):
    """A criterion evaluated to zero where a ratio requires a positive value."""


class StageFailure(SubdesignError):
    """A sequential stage failed; partial records are attached."""

    def __init__(self, message: str, stage: int, records: tuple = ()):
        super().__init__(message)
        self.stage = stage
        self.records = tuple(records)
