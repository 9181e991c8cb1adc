"""Dense kernels shared by the numeric modules.

Everything here operates on plain numpy arrays. Inputs are treated as symmetric:
only one triangle is authoritative and results are explicitly symmetrized, so
callers never have to worry about round-off asymmetry accumulating through
products. Eigen-based routines are backed by LAPACK via numpy. Eigenvectors
keep the signs LAPACK gives them: every caller uses them only through products
Q f(Lambda) Q^T or the squares of their entries, which a sign cannot change.
``logistic`` is the one overflow-safe sigmoid, used by the logistic model and
its leverage; one unmasked divide takes both of its branches. The fit's
blocked passes and the gradient checks run along whole rows or columns, not
through masked ufuncs, ``[:, None]`` broadcasts or axis-0 reductions, which do
the same operations in the same order several times slower.
``BLOCK_UNITS`` sizes every blocked pass over the units, whether over the
gradients in ``covariance`` and ``criteria`` or over the design rows of the
logistic model. ``map_blocks`` splits such a pass over two threads when the
affinity gives two CPUs (numpy drops the GIL inside its products and ufuncs)
and returns each block's result in block order, for the caller to fold.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading

import numpy as np

from .config import DEFAULT
from .errors import InvalidInput, NotPSD, SingularMatrix

# Units per block of a pass over the units: a block of p-vectors and the
# block's temporaries stay in cache while each is used, and no temporary
# grows with N.
BLOCK_UNITS = 1 << 14


def unit_blocks(n: int) -> list[slice]:
    """Consecutive unit ranges of at most BLOCK_UNITS units covering 0..n-1."""
    return [slice(s, s + BLOCK_UNITS) for s in range(0, n, BLOCK_UNITS)]


def worker_count() -> int:
    """The CPUs this process may use, by its affinity; one without fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def map_blocks(fn, n: int) -> list:
    """``fn(units)`` for every block of ``unit_blocks(n)``, in block order.

    Given two blocks and two CPUs, a thread living for this call runs the last
    half in a copy of the caller's context (so ``np.errstate`` holds) while the
    caller runs the first; a half that raises there reruns here, as if serial.
    """
    blocks = unit_blocks(n)
    half = len(blocks) // 2
    if half == 0 or worker_count() < 2:
        return [fn(units) for units in blocks]
    tail = []

    def run_tail():
        with contextlib.suppress(Exception):  # raised again below
            tail.append([fn(units) for units in blocks[half:]])

    thread = threading.Thread(target=contextvars.copy_context().run, args=(run_tail,))
    thread.start()
    try:
        head = [fn(units) for units in blocks[:half]]
    finally:
        thread.join()
    return head + (tail[0] if tail else [fn(units) for units in blocks[half:]])


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


def sym_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric matrix in descending order, and the matching
    orthonormal eigenvectors as the columns of a contiguous matrix."""
    a = as_symmetric(m)
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(values)[::-1]
    return np.ascontiguousarray(values[order]), np.ascontiguousarray(vectors[:, order])


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
    values, vectors = sym_eigen(a)
    tol = DEFAULT.psd_tol
    scale = float(np.linalg.norm(a, "fro"))
    floor = -tol * scale if scale > 0.0 else -tol
    min_eig = float(values[-1])
    if min_eig < floor:
        raise NotPSD(
            f"matrix is not positive semidefinite: min eigenvalue {min_eig:.3e} "
            f"below tolerance {floor:.3e}"
        )
    return vectors * np.sqrt(np.clip(values, 0.0, None))


def spd_inverse(m) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix."""
    a = as_symmetric(m)
    values, q = sym_eigen(a)
    min_eig = float(values[-1])
    if min_eig <= DEFAULT.singular_rtol * float(np.linalg.norm(a, "fro")):
        raise SingularMatrix(
            f"matrix is singular to working precision (min eigenvalue {min_eig:.3e})",
            min_eigenvalue=min_eig,
        )
    inv = (q / values) @ q.T
    return 0.5 * (inv + inv.T)


def logistic(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-t)) evaluated without overflow on either tail.

    With e = exp(-|t|) <= 1 the value is 1 / (1 + e) for t >= 0 and
    e / (1 + e) below, so one unmasked divide of max(e, [t >= 0]) by 1 + e
    takes both branches; a NaN t stays NaN. ``out``, if given, receives the
    result and must not share memory with t.
    """
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    return np.divide(np.maximum(e, t >= 0, out=e), d, out=out)
