"""Design criteria: objective values, matrix derivatives, unit coefficients.

Every criterion maps the estimator covariance Gamma to a scalar. Linear
criteria (trace against a fixed matrix) are minimized in closed form; the
spectral ones (D, E, the q-norm family) enter a linearization loop instead.
Both paths reduce to per-unit coefficients

    c_i = || L^T H^-1 psi_i ||^2   with   L L^T = phi(Gamma),

where phi is the criterion's matrix derivative. The derivative of the
objective in the expected count mu_i is then -c_i / mu_i^2, which is what the
finite-difference tests pin down.

Normalization constants (1/p for the average-variance criteria, 1/m for a
p x m target matrix) are kept in both the value and the derivative so paired
criteria coincide exactly, not just up to scale.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .covariance import DispersionKind, GradientSet, dispersion_matrix, gamma
from .errors import InvalidInput, NotDifferentiable, SingularMatrix
from .linalg import as_symmetric, psd_factor, sym_eigen, unit_blocks
from .models import model_spec
from .sampling import SamplingScheme

LINEAR_KINDS = frozenset({"A", "C", "L", "V", "Distance"})


@dataclass(frozen=True)
class CriterionSpec:
    """One design criterion, fully parameterized.

    Exactly the fields relevant to ``kind`` are set: a target vector for C,
    a p x m target matrix for L, a feature Gram matrix for V, the exponent for
    PhiQ, and a dispersion kind for Distance.
    """

    kind: str
    c: np.ndarray | None = None
    l_matrix: np.ndarray | None = None
    gram: np.ndarray | None = None
    q: float | None = None
    dispersion: DispersionKind | None = None

    @property
    def is_linear(self) -> bool:
        return self.kind in LINEAR_KINDS

    @property
    def label(self) -> str:
        if self.kind == "C":
            return "c:" + ",".join(format(v, "g") for v in self.c)
        if self.kind == "PhiQ":
            return f"phi:{self.q:g}"
        if self.kind == "Distance":
            return self.dispersion.value
        return self.kind


def a_opt() -> CriterionSpec:
    """Average parameter variance tr(Gamma)/p."""
    return CriterionSpec(kind="A")


def c_opt(c) -> CriterionSpec:
    """Variance of the linear combination c^T theta."""
    vec = np.asarray(c, dtype=float)
    if vec.ndim != 1 or vec.shape[0] < 1 or not np.all(np.isfinite(vec)):
        raise InvalidInput("c must be a finite non-empty vector")
    if np.all(vec == 0.0):
        raise InvalidInput("c must be non-zero")
    return CriterionSpec(kind="C", c=vec)


def l_opt(l_matrix) -> CriterionSpec:
    """Average variance of the m linear combinations in the columns of L."""
    mat = np.asarray(l_matrix, dtype=float)
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.ndim != 2 or not np.all(np.isfinite(mat)):
        raise InvalidInput("L must be a finite p x m matrix")
    if np.all(mat == 0.0):
        raise InvalidInput("L must be non-zero")
    return CriterionSpec(kind="L", l_matrix=mat)


def v_opt(gram) -> CriterionSpec:
    """Average prediction variance against a feature Gram matrix."""
    g = as_symmetric(gram)
    return CriterionSpec(kind="V", gram=g)


def d_opt() -> CriterionSpec:
    """Generalized variance det(Gamma)^(1/p)."""
    return CriterionSpec(kind="D")


def e_opt() -> CriterionSpec:
    """Largest eigenvalue of Gamma."""
    return CriterionSpec(kind="E")


def phi_q(q: float) -> CriterionSpec:
    """Eigenvalue q-norm (tr(Gamma^q)/p)^(1/q); q=1 is A, large q approaches E."""
    if not np.isfinite(q) or q <= 0:
        raise InvalidInput(f"phi exponent must be positive, got {q}")
    return CriterionSpec(kind="PhiQ", q=float(q))


def distance_opt(kind: DispersionKind) -> CriterionSpec:
    """Expected-distance criterion tr(Gamma M)/p for the dispersion matrix M."""
    return CriterionSpec(kind="Distance", dispersion=kind)


def _static_phi(spec: CriterionSpec, p: int, grads: GradientSet | None) -> np.ndarray:
    """Constant derivative matrix of a linear criterion."""
    if spec.kind == "A":
        return np.eye(p) / p
    if spec.kind == "C":
        if spec.c.shape[0] != p:
            raise InvalidInput(f"c has length {spec.c.shape[0]}, expected {p}")
        return np.outer(spec.c, spec.c)
    if spec.kind == "L":
        if spec.l_matrix.shape[0] != p:
            raise InvalidInput(
                f"L has {spec.l_matrix.shape[0]} rows, expected {p}"
            )
        return (spec.l_matrix @ spec.l_matrix.T) / spec.l_matrix.shape[1]
    if spec.kind == "V":
        if spec.gram.shape[0] != p:
            raise InvalidInput(f"Gram matrix is {spec.gram.shape}, expected {p} x {p}")
        return spec.gram / p
    if spec.kind == "Distance":
        if grads is None:
            raise InvalidInput(
                f"{spec.label} needs the problem's gradients to build its "
                "dispersion matrix"
            )
        return dispersion_matrix(spec.dispersion, grads) / p
    raise InvalidInput(f"{spec.kind} has no constant derivative matrix")


def _positive_spectrum(gam: np.ndarray, what: str):
    values, vectors = sym_eigen(gam)
    low = float(values[-1])
    if values[0] <= 0.0 or low <= DEFAULT.singular_rtol * float(values[0]):
        raise SingularMatrix(
            f"{what} needs a full-rank covariance; min eigenvalue {low:.3e}",
            min_eigenvalue=low,
        )
    return values, vectors


def phi_value(
    spec: CriterionSpec,
    gam,
    grads: GradientSet | None = None,
) -> float:
    """Scalar objective of the criterion at the covariance matrix."""
    g = as_symmetric(gam)
    p = g.shape[0]
    if spec.is_linear:
        phi = _static_phi(spec, p, grads)
        return float(np.sum(g * phi))
    if spec.kind == "D":
        values, _ = _positive_spectrum(g, "D-optimality")
        return float(np.exp(np.mean(np.log(values))))
    if spec.kind == "E":
        return float(np.linalg.eigvalsh(g)[-1])
    if spec.kind == "PhiQ":
        values, _ = _positive_spectrum(g, f"phi:{spec.q:g}")
        return float((np.sum(values**spec.q) / p) ** (1.0 / spec.q))
    raise InvalidInput(f"unknown criterion kind {spec.kind!r}")


def objective_for_derivative(
    spec: CriterionSpec,
    gam,
    grads: GradientSet | None = None,
) -> float:
    """The objective whose gradient the coefficients represent.

    Identical to ``phi_value`` except for D, where the derivative matrix
    Gamma^-1 belongs to log det(Gamma), not to det(Gamma)^(1/p). The two
    share their minimizer; ``fixed_point_solve`` tracks ``phi_value``, and the
    finite-difference checks of the coefficients differentiate this one.
    """
    if spec.kind == "D":
        values, _ = _positive_spectrum(as_symmetric(gam), "D-optimality")
        return float(np.sum(np.log(values)))
    return phi_value(spec, gam, grads)


def phi_matrix_derivative(
    spec: CriterionSpec,
    gam,
    grads: GradientSet | None = None,
) -> np.ndarray:
    """Derivative matrix phi(Gamma) of the objective with respect to Gamma."""
    g = as_symmetric(gam)
    p = g.shape[0]
    if spec.is_linear:
        return _static_phi(spec, p, grads)
    if spec.kind == "D":
        values, q_mat = _positive_spectrum(g, "D-optimality")
        return as_symmetric((q_mat / values) @ q_mat.T)
    if spec.kind == "E":
        values, vectors = sym_eigen(g)
        top = float(values[0])
        if top <= 0.0:
            raise NotDifferentiable("E-optimality derivative undefined at Gamma = 0")
        gap = (top - float(values[1])) / top if p > 1 else 1.0
        if gap < DEFAULT.eigen_gap_error:
            raise NotDifferentiable(
                f"leading eigenvalue is numerically repeated (relative gap "
                f"{gap:.2e}); E-optimality is not differentiable here"
            )
        if gap < DEFAULT.eigen_gap_warn:
            warnings.warn(
                f"E-optimality eigen-gap {gap:.2e} is small; the derivative "
                "is ill-conditioned",
                stacklevel=2,
            )
        return np.outer(vectors[:, 0], vectors[:, 0])
    if spec.kind == "PhiQ":
        values, q_mat = _positive_spectrum(g, f"phi:{spec.q:g}")
        q = spec.q
        trace_q = float(np.sum(values**q))
        scale = p ** (-1.0 / q) * trace_q ** (1.0 / q - 1.0)
        power = (q_mat * values ** (q - 1.0)) @ q_mat.T
        return as_symmetric(scale * power)
    raise InvalidInput(f"unknown criterion kind {spec.kind!r}")


def coefficients(
    spec: CriterionSpec,
    grads: GradientSet,
    at: SamplingScheme | None = None,
) -> np.ndarray:
    """Per-unit coefficients c_i = ||L^T H^-1 psi_i||^2 for the criterion.

    Linear criteria have a fixed L; the spectral ones are linearized at the
    scheme ``at``, which is therefore required for them. The coefficients
    drive the optimal allocation mu ~ sqrt(c) on their raw scale (the solver
    normalizes); a zero entry makes that scheme infeasible.
    """
    p = grads.n_params
    if spec.is_linear:
        phi = _static_phi(spec, p, grads)
    else:
        if at is None:
            raise InvalidInput(
                f"{spec.label} is linearized around a scheme; pass the current "
                "iterate as `at`"
            )
        phi = phi_matrix_derivative(spec, gamma(grads, at).gamma, grads)
    return _coefficients_from_phi(grads, phi)[0]


def _coefficients_from_phi(grads: GradientSet, phi: np.ndarray, fuse: bool = False):
    """Coefficients c for a derivative matrix phi, and the sums of their closed form.

    Returns (c, sums). With ``fuse`` the same pass over the units also sums
    r_i = sqrt(c_i), S = sum r_i and W = sum psi_i psi_i^T / r_i, and ``sums``
    is (r, S, min r, max r, W). A coefficient that is zero, negative or not
    finite stops the sums before its root is taken, and ``sums`` is None, as
    it is without ``fuse``.
    """
    m_t = (grads.hessian_inv @ psd_factor(phi)).T
    c = np.empty(grads.n_units)
    roots = np.empty(grads.n_units) if fuse else None
    w = np.zeros((grads.n_params, grads.n_params))
    total, low, top = 0.0, np.inf, 0.0
    for units in unit_blocks(grads.n_units):
        # t is k x block: column i is L^T H^-1 psi_i, and its squares are
        # summed row after row, a sequential sum over the k terms.
        block = grads.psi_t[:, units]
        t = m_t @ block
        t *= t
        cb = t.sum(axis=0, out=c[units])
        if roots is None:
            continue
        cb_min, cb_max = cb.min(), cb.max()
        if not (cb_min > 0.0 and cb_max < np.inf):  # NaN fails too
            roots = None
            continue
        low, top = min(low, cb_min), max(top, cb_max)
        rb = np.sqrt(cb, out=roots[units])
        total += rb.sum()
        # One product for the block; W is symmetric up to rounding, and only
        # the symmetrized covariance built from it is used.
        w += (block / rb) @ block.T
    if roots is None:
        return c, None
    # sqrt rounds monotonically, so it maps the extreme c to the extreme r.
    return c, (roots, total, float(np.sqrt(low)), float(np.sqrt(top)), w)


def anticipated_coefficients(model_kind: str, **aux) -> np.ndarray:
    """Coefficients with unobserved responses replaced by model expectations.

    The exact c_i depend on outcomes that are unknown before sampling; taking
    expectations under a working model yields strictly positive surrogates
    whenever the assumed dispersions are positive, so no unit is starved of
    selection mass. The auxiliary inputs, the formula and the criterion it
    targets are the model's entry in ``models.MODELS``.
    """
    return model_spec(model_kind).anticipate(aux)


def _sized(spec: CriterionSpec, problem) -> CriterionSpec:
    """``spec`` once its c or L fits the problem's parameter count, if given."""
    if problem is not None:
        _static_phi(spec, problem.n_params, None)
    return spec


def parse_criterion(token: str, problem=None) -> CriterionSpec:
    """Build a CriterionSpec from its text form.

    Recognized tokens: ``A``, ``c`` or ``c:v1,...,vp``, ``L:@file.csv``, ``V``,
    ``D``, ``E``, ``phi:q``, ``d-er``, ``d-kl``, ``d-s``. A bare ``c`` targets
    the first parameter coordinate; ``V`` derives its Gram matrix from the
    problem, which must then be supplied. Given the problem, a ``c:`` vector
    or ``L:@`` matrix of the wrong size is refused here, before any fit. A
    relative ``L:@`` path is read from the working directory.
    """
    text = token.strip()
    low = text.lower()
    if low == "a":
        return a_opt()
    if low == "d":
        return d_opt()
    if low == "e":
        return e_opt()
    if low == "v":
        if problem is None:
            raise InvalidInput("criterion V needs the model to build its Gram matrix")
        return v_opt(model_spec(problem.kind).gram(problem))
    if low == "c":
        if problem is None:
            raise InvalidInput(
                "bare criterion c needs the model to size its target vector"
            )
        vec = np.zeros(problem.n_params)
        vec[0] = 1.0
        return c_opt(vec)
    if low.startswith("c:"):
        try:
            vec = np.array([float(v) for v in text[2:].split(",")])
        except ValueError:
            raise InvalidInput(f"cannot parse c vector from {token!r}")
        return _sized(c_opt(vec), problem)
    if low.startswith("l:@"):
        path = os.path.abspath(text[3:])
        try:
            # An empty file is reported below; loadtxt's own warning about it
            # would only repeat that on stderr.
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                mat = np.loadtxt(path, delimiter=",", ndmin=2)
        except OSError:
            raise InvalidInput(f"cannot read L matrix from {path!r}")
        except ValueError as err:
            raise InvalidInput(f"cannot parse L matrix in {path!r}: {err}")
        if mat.size == 0:
            raise InvalidInput(f"L matrix file {path!r} is empty")
        return _sized(l_opt(mat), problem)
    if low.startswith("phi:"):
        try:
            q = float(text[4:])
        except ValueError:
            raise InvalidInput(f"cannot parse phi exponent from {token!r}")
        return phi_q(q)
    if low == "d-er":
        return distance_opt(DispersionKind.ER)
    if low == "d-kl":
        return distance_opt(DispersionKind.KL)
    if low == "d-s":
        return distance_opt(DispersionKind.SANDWICH)
    raise InvalidInput(f"unknown criterion token {token!r}")
