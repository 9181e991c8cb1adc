"""Exception taxonomy shared by all subdesign modules.

Every error raised by the library derives from :class:`SubdesignError` so callers
can catch the whole family with one clause. The CLI exits with a class's
``exit_code``: 2 for usage or schema errors, 3 for estimation failures, 5 for an
infeasible allocation. A bare :class:`SubdesignError` has none and propagates.
"""

from __future__ import annotations


class SubdesignError(Exception):
    """Base class for all errors raised by this package."""

    exit_code: int | None = None


class InvalidInput(SubdesignError):
    """Malformed input: non-finite entries, dimension mismatch, missing argument."""

    exit_code = 2


class NotPSD(SubdesignError):
    """A matrix required to be positive semidefinite is not, beyond tolerance."""

    exit_code = 3


class SingularMatrix(SubdesignError):
    """A matrix required to be invertible is singular or numerically near-singular."""

    exit_code = 3

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class SingularHessian(SubdesignError):
    """The Hessian of a risk problem is singular or indefinite where PD is required."""

    exit_code = 3


class NoConvergence(SubdesignError):
    """An iterative fit exhausted its iteration budget."""

    exit_code = 3


class EmptySample(SubdesignError):
    """A subsample fit was requested but no unit was selected."""

    exit_code = 3


class InvalidData(SubdesignError):
    """Data violates a model's domain (e.g. non-positive outcomes or weights)."""

    exit_code = 2


class OutOfDomain(SubdesignError):
    """A sampling scheme leaves the feasible domain of its design family."""

    exit_code = 3


class InvalidBudget(SubdesignError):
    """The budget is infeasible for the family, or a scheme's expected size misses it."""

    exit_code = 2


class Infeasible(SubdesignError):
    """No feasible optimal scheme exists (some coefficient is exactly zero)."""

    exit_code = 5

    def __init__(self, message: str, zero_ids: tuple[int, ...] = ()):
        super().__init__(message)
        self.zero_ids = tuple(zero_ids)


class NotDifferentiable(SubdesignError):
    """The criterion is not differentiable at this point (repeated top eigenvalue)."""

    exit_code = 3


class Unsupported(SubdesignError):
    """The operation is outside the supported envelope (size limits, missing pieces)."""

    exit_code = 2


class UnreliableEstimate(SubdesignError):
    """A Monte Carlo estimate had too many failed replicates to be trusted.

    ``failures`` counts the failed replicates by exception class name.
    """

    exit_code = 3

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

    exit_code = 3


class StageFailure(SubdesignError):
    """A sequential stage failed; partial records are attached."""

    exit_code = 3

    def __init__(self, message: str, stage: int, records: tuple = ()):
        super().__init__(message)
        self.stage = stage
        self.records = tuple(records)
