"""Dense kernels shared by the numeric modules.

Everything here operates on plain numpy arrays. Inputs are treated as symmetric:
only one triangle is authoritative and results are explicitly symmetrized, so
callers never have to worry about round-off asymmetry accumulating through
products. Eigen-based routines are backed by LAPACK via numpy with a
deterministic sign convention layered on top. ``logistic`` is the one
overflow-safe sigmoid, used by the logistic model and its leverage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .errors import InvalidInput, NotPSD, SingularMatrix


def as_symmetric(m) -> np.ndarray:
    """Validate a square, finite matrix and return its symmetrized copy."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InvalidInput("matrix must have dimension >= 1")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    return 0.5 * (a + a.T)


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


@dataclass(frozen=True)
class EigenPair:
    """Eigendecomposition of a symmetric matrix.

    ``values`` are sorted descending; ``vectors`` holds the matching orthonormal
    eigenvectors as columns, each signed so its first non-negligible component
    is positive.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def reconstruct(self) -> np.ndarray:
        q = self.vectors
        return (q * self.values) @ q.T


def sym_eigen(m) -> EigenPair:
    """Full eigendecomposition of a symmetric matrix, descending order.

    The sign convention (first component of each eigenvector with magnitude
    above 1e-12 made positive) makes repeated calls on equal inputs return
    identical output, which the seeded reproducibility contracts rely on.
    """
    a = as_symmetric(m)
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(values)[::-1]
    values = np.ascontiguousarray(values[order])
    vectors = np.ascontiguousarray(vectors[:, order])
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        nonzero = np.flatnonzero(np.abs(col) > 1e-12)
        lead = nonzero[0] if nonzero.size else int(np.argmax(np.abs(col)))
        if col[lead] < 0.0:
            vectors[:, j] = -col
    return EigenPair(values=values, vectors=vectors)


def psd_factor(m) -> np.ndarray:
    """Factor a PSD matrix as L @ L.T.

    Strictly positive definite inputs get the Cholesky factor; semidefinite ones
    fall back to the eigenvalue square root with slightly negative eigenvalues
    (within ``DEFAULT.psd_tol * ||M||_F``) clamped to zero.
    """
    a = as_symmetric(m)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    pair = sym_eigen(a)
    tol = DEFAULT.psd_tol
    scale = frob(a)
    floor = -tol * scale if scale > 0.0 else -tol
    min_eig = float(pair.values[-1])
    if min_eig < floor:
        raise NotPSD(
            f"matrix is not positive semidefinite: min eigenvalue {min_eig:.3e} "
            f"below tolerance {floor:.3e}"
        )
    clamped = np.clip(pair.values, 0.0, None)
    return pair.vectors * np.sqrt(clamped)


def spd_inverse(m) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix."""
    a = as_symmetric(m)
    pair = sym_eigen(a)
    min_eig = float(pair.values[-1])
    scale = frob(a)
    if min_eig <= DEFAULT.singular_rtol * scale:
        raise SingularMatrix(
            f"matrix is singular to working precision (min eigenvalue {min_eig:.3e})",
            min_eigenvalue=min_eig,
        )
    q = pair.vectors
    inv = (q / pair.values) @ q.T
    return 0.5 * (inv + inv.T)


def logistic(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)) evaluated without overflow on either tail."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out
