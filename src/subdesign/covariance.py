"""Asymptotic covariance of the weighted estimator and dispersion matrices.

Given per-unit gradients at the fitted parameter and a sampling scheme, the
estimator's covariance has the sandwich form H^-1 V H^-1 where V depends on
the design family: sum(psi psi^T / mu_i) for with-replacement and multinomial
designs, and sum(psi psi^T (1/mu_i - 1)) without replacement, which vanishes
at a census.

The gradients are stored column-major: ``GradientSet.psi_t`` is one p x N
C-contiguous array, and the N x p ``psi`` is a view of it. Passes over the
units (V(mu) here, the criterion coefficients in ``criteria``) walk it in
blocks of ``BLOCK_UNITS`` units, reading contiguous rows. ``v_matrix`` sums V
for a given scheme; the fixed-point solver gets V of each refined scheme
from the coefficient pass instead, and falls back to ``v_matrix`` where a
without-replacement scheme reaches the cap or exceeds 1/2.

The dispersion matrices defined here turn expected-distance objectives into
linear trace criteria: minimizing E[d(theta_hat)] is the same as minimizing
tr(Gamma M) for the matching M.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT
from .errors import InvalidInput, SingularHessian, Unsupported
from .linalg import as_symmetric, spd_inverse, unit_blocks
from .sampling import DesignFamily, SamplingScheme


@dataclass(frozen=True)
class GradientSet:
    """Per-unit gradients and curvature of a problem at its fitted parameter.

    The gradients are stored once, as the read-only C-contiguous p x N array
    ``psi_t`` whose row j holds parameter j's gradient for every unit, so each
    pass over the units reads contiguous rows. ``psi`` is its transpose, an
    F-ordered N x p view with one gradient per row, not a second copy; the
    array passed as ``psi`` is copied into ``psi_t``. Construction checks the
    first-order condition (columns of psi sum to nearly zero) and that the
    Hessian is positive definite, so downstream covariance algebra can rely
    on both.
    """

    psi: np.ndarray
    hessian: np.ndarray
    theta0: np.ndarray
    expected_hessian: np.ndarray | None = None
    psi_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        if psi.ndim != 2 or psi.shape[0] < 1:
            raise InvalidInput(f"psi must be an N x p matrix, got shape {psi.shape}")
        if not np.all(np.isfinite(psi)):
            raise InvalidInput("psi contains non-finite entries")
        row_norms = np.linalg.norm(psi, axis=1)
        scale = float(row_norms.max())
        if scale > 0.0:
            imbalance = float(np.max(np.abs(psi.sum(axis=0))))
            if imbalance > DEFAULT.gradient_balance_rtol * scale:
                raise InvalidInput(
                    f"gradient columns sum to {imbalance:.3e}, which exceeds "
                    f"{DEFAULT.gradient_balance_rtol:.1e} of the largest row norm "
                    f"{scale:.3e}; gradients must be evaluated at a fitted parameter"
                )
        h = as_symmetric(self.hessian)
        if h.shape[0] != psi.shape[1]:
            raise InvalidInput(
                f"hessian is {h.shape[0]} x {h.shape[0]} but gradients have "
                f"{psi.shape[1]} columns"
            )
        min_eig = float(np.linalg.eigvalsh(h)[0])
        if min_eig <= 0.0:
            raise SingularHessian(
                f"hessian must be positive definite, min eigenvalue {min_eig:.3e}"
            )
        psi_t = psi.T.copy(order="C")
        psi_t.flags.writeable = False
        object.__setattr__(self, "psi_t", psi_t)
        object.__setattr__(self, "psi", psi_t.T)

    @property
    def n_units(self) -> int:
        return self.psi.shape[0]

    @property
    def n_params(self) -> int:
        return self.psi.shape[1]

    def blocks(self) -> list[slice]:
        """Consecutive unit ranges of at most BLOCK_UNITS units covering 0..N-1."""
        return unit_blocks(self.n_units)

    @cached_property
    def hessian_inv(self) -> np.ndarray:
        return spd_inverse(self.hessian)

    @cached_property
    def v_theta0(self) -> np.ndarray:
        """Total outer-product matrix sum(psi_i psi_i^T), the robust V(theta0)."""
        return as_symmetric(self.psi.T @ self.psi)


@dataclass(frozen=True)
class CovarianceReport:
    v: np.ndarray
    gamma: np.ndarray


class DispersionKind(enum.Enum):
    """Which matrix turns an expected distance into a trace objective."""

    ER = "d-er"
    KL = "d-kl"
    SANDWICH = "d-s"


def gradients_at(problem, theta0, *, hessian=None) -> GradientSet:
    """Evaluate a risk problem's gradients and Hessians at a fitted parameter;
    ``hessian``, when given, is the Hessian at ``theta0`` (a fit's ``hessian_at_opt``)."""
    theta = np.asarray(theta0, dtype=float)
    psi = problem.unit_gradients(theta)
    hess = problem.hessian(theta, None) if hessian is None else hessian
    expected = hess if problem.expected_hessian is None else problem.expected_hessian(theta)
    return GradientSet(psi=psi, hessian=hess, theta0=theta, expected_hessian=expected)


def v_matrix(grads: GradientSet, scheme: SamplingScheme) -> np.ndarray:
    """Design-dependent middle matrix V(mu; theta0) of the sandwich covariance.

    V = sum_i c_i psi_i psi_i^T with c_i = 1/mu_i (1/mu_i - 1 without
    replacement). Each block of units adds, for every i, the dots of
    w = psi_t[i] * c with the rows psi_t[i:], which fills row i of the upper
    triangle; the lower triangle is copied from it, so V is exactly symmetric.
    """
    if scheme.n_units != grads.n_units:
        raise InvalidInput(
            f"scheme covers {scheme.n_units} units, gradients cover {grads.n_units}"
        )
    p = grads.n_params
    v = np.zeros((p, p))
    for units in grads.blocks():
        coef = 1.0 / scheme.mu[units]
        if scheme.family is DesignFamily.PO_WOR:
            coef -= 1.0
        block = grads.psi_t[:, units]
        for i in range(p):
            v[i, i:] += block[i:] @ (block[i] * coef)
    lower = np.tril_indices(p, -1)
    v[lower] = v.T[lower]
    return v


def _sandwich(grads: GradientSet, v: np.ndarray) -> np.ndarray:
    """Covariance H^-1 V H^-1 for a middle matrix V already summed."""
    hinv = grads.hessian_inv
    return as_symmetric(hinv @ v @ hinv)


def gamma(grads: GradientSet, scheme: SamplingScheme) -> CovarianceReport:
    """Sandwich covariance H^-1 V H^-1 for the scheme's design family."""
    v = v_matrix(grads, scheme)
    return CovarianceReport(v=v, gamma=_sandwich(grads, v))


def dispersion_matrix(kind: DispersionKind, grads: GradientSet) -> np.ndarray:
    """Matrix M with E[distance] proportional to tr(Gamma M).

    The ER distance uses the Hessian, KL the model-based Hessian, and the
    sandwich distance H V(theta0)^-1 H, the inverse of the robust covariance.
    A distance for a dispersion matrix Sigma of one's own is the L criterion
    with L L^T = Sigma^-1.
    """
    if kind is DispersionKind.ER:
        return as_symmetric(grads.hessian)
    if kind is DispersionKind.KL:
        if grads.expected_hessian is None:
            raise Unsupported(
                f"{kind.value} dispersion needs an expected Hessian, which this "
                "problem does not provide"
            )
        return as_symmetric(grads.expected_hessian)
    if kind is DispersionKind.SANDWICH:
        v0_inv = spd_inverse(grads.v_theta0)
        h = grads.hessian
        return as_symmetric(h @ v0_inv @ h)
    raise InvalidInput(f"unknown dispersion kind {kind!r}")
