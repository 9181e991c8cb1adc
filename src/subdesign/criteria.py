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
from .linalg import as_symmetric, psd_factor, sym_eigen
from .models import MODELS, leverage  # noqa: F401  (leverage is re-exported)
from .sampling import SamplingScheme

LINEAR_KINDS = frozenset({"A", "C", "L", "V", "Distance"})


@dataclass(frozen=True)
class CriterionSpec:
    """One design criterion, fully parameterized.

    Exactly the fields relevant to ``kind`` are set: a target vector for C,
    a p x m target matrix for L, a feature Gram matrix for V, the exponent for
    PhiQ, and a dispersion kind (plus optional explicit Sigma) for Distance.
    """

    kind: str
    c: np.ndarray | None = None
    l_matrix: np.ndarray | None = None
    gram: np.ndarray | None = None
    q: float | None = None
    dispersion: DispersionKind | None = None
    explicit_sigma: np.ndarray | None = None

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
            if self.dispersion is DispersionKind.EXPLICIT:
                return "d-explicit"
            return self.dispersion.value
        return self.kind


@dataclass(frozen=True)
class CoefficientSet:
    """Per-unit coefficients c_i driving the optimal allocation mu ~ sqrt(c).

    Coefficients are kept on their raw scale (the solver normalizes); zero
    entries are flagged because they make the optimal scheme infeasible,
    pushing the corresponding expected count to zero.
    """

    c: np.ndarray
    criterion: CriterionSpec
    at_scheme: SamplingScheme | None = None

    @property
    def zero_ids(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.c == 0.0))

    @property
    def has_zeros(self) -> bool:
        return bool(np.any(self.c == 0.0))


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


def distance_opt(kind: DispersionKind, explicit_sigma=None) -> CriterionSpec:
    """Expected-distance criterion tr(Gamma M)/p for the dispersion matrix M."""
    if kind is DispersionKind.EXPLICIT:
        if explicit_sigma is None:
            raise InvalidInput("explicit dispersion requires the Sigma matrix")
        return CriterionSpec(
            kind="Distance",
            dispersion=kind,
            explicit_sigma=as_symmetric(explicit_sigma),
        )
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
        m = dispersion_matrix(spec.dispersion, grads, spec.explicit_sigma)
        return m / p
    raise InvalidInput(f"{spec.kind} has no constant derivative matrix")


def _positive_spectrum(gam: np.ndarray, what: str):
    pair = sym_eigen(gam)
    top = float(pair.values[0])
    if top <= 0.0 or float(pair.values[-1]) <= DEFAULT.singular_rtol * top:
        raise SingularMatrix(
            f"{what} needs a full-rank covariance; min eigenvalue "
            f"{float(pair.values[-1]):.3e}",
            min_eigenvalue=float(pair.values[-1]),
        )
    return pair


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
        pair = _positive_spectrum(g, "D-optimality")
        return float(np.exp(np.mean(np.log(pair.values))))
    if spec.kind == "E":
        return float(np.linalg.eigvalsh(g)[-1])
    if spec.kind == "PhiQ":
        pair = _positive_spectrum(g, f"phi:{spec.q:g}")
        return float((np.sum(pair.values**spec.q) / p) ** (1.0 / spec.q))
    raise InvalidInput(f"unknown criterion kind {spec.kind!r}")


def objective_for_derivative(
    spec: CriterionSpec,
    gam,
    grads: GradientSet | None = None,
) -> float:
    """The objective whose gradient the coefficients represent.

    Identical to ``phi_value`` except for D, where the derivative matrix
    Gamma^-1 belongs to the log-determinant form; both forms share their
    minimizer, so the solver tracks this one.
    """
    if spec.kind == "D":
        pair = _positive_spectrum(as_symmetric(gam), "D-optimality")
        return float(np.sum(np.log(pair.values)))
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
        pair = _positive_spectrum(g, "D-optimality")
        q_mat = pair.vectors
        inv = (q_mat / pair.values) @ q_mat.T
        return as_symmetric(inv)
    if spec.kind == "E":
        pair = sym_eigen(g)
        top = float(pair.values[0])
        if top <= 0.0:
            raise NotDifferentiable("E-optimality derivative undefined at Gamma = 0")
        gap = (top - float(pair.values[1])) / top if p > 1 else 1.0
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
        v1 = pair.vectors[:, 0]
        return np.outer(v1, v1)
    if spec.kind == "PhiQ":
        pair = _positive_spectrum(g, f"phi:{spec.q:g}")
        q = spec.q
        trace_q = float(np.sum(pair.values**q))
        scale = p ** (-1.0 / q) * trace_q ** (1.0 / q - 1.0)
        q_mat = pair.vectors
        power = (q_mat * pair.values ** (q - 1.0)) @ q_mat.T
        return as_symmetric(scale * power)
    raise InvalidInput(f"unknown criterion kind {spec.kind!r}")


def coefficients(
    spec: CriterionSpec,
    grads: GradientSet,
    at: SamplingScheme | None = None,
) -> CoefficientSet:
    """Per-unit coefficients c_i = ||L^T H^-1 psi_i||^2 for the criterion.

    Linear criteria have a fixed L; the spectral ones are linearized at the
    scheme ``at``, which is therefore required for them.
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
    return _coefficients_from_phi(spec, grads, phi, at)


def _coefficients_from_phi(
    spec: CriterionSpec,
    grads: GradientSet,
    phi: np.ndarray,
    at: SamplingScheme | None,
) -> CoefficientSet:
    """Coefficients for a derivative matrix phi already evaluated at ``at``.

    The fixed-point solver calls this with the phi of the covariance it has
    just computed for the objective, so V(mu) is built once per scheme.
    """
    m_t = (grads.hessian_inv @ psd_factor(phi)).T
    c = np.empty(grads.n_units)
    for units in grads.blocks():
        # t is k x block: column i is L^T H^-1 psi_i, and its squares are
        # summed row after row, a sequential sum over the k terms.
        t = m_t @ grads.psi_t[:, units]
        t *= t
        t.sum(axis=0, out=c[units])
    return CoefficientSet(c=c, criterion=spec, at_scheme=at)


def anticipated_coefficients(model_kind: str, **aux) -> CoefficientSet:
    """Coefficients with unobserved responses replaced by model expectations.

    The exact c_i depend on outcomes that are unknown before sampling; taking
    expectations under a working model yields strictly positive surrogates
    whenever the assumed dispersions are positive, so no unit is starved of
    selection mass. The auxiliary inputs, the formula and the criterion it
    targets are the model's entry in ``models.MODELS``.
    """
    spec = MODELS.get(model_kind)
    if spec is None:
        raise InvalidInput(f"unknown model kind {model_kind!r}")
    return CoefficientSet(c=spec.anticipate(aux), criterion=parse_criterion(spec.criterion))


def parse_criterion(token: str, problem=None) -> CriterionSpec:
    """Build a CriterionSpec from its text form.

    Recognized tokens: ``A``, ``c`` or ``c:v1,...,vp``, ``L:@file.csv``, ``V``,
    ``D``, ``E``, ``phi:q``, ``d-er``, ``d-kl``, ``d-s``. A bare ``c`` targets
    the first parameter coordinate; ``V`` derives its Gram matrix from the
    problem, which must then be supplied. A relative ``L:@`` path is read
    from the working directory.
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
        return v_opt(default_gram(problem))
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
        return c_opt(vec)
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
        return l_opt(mat)
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


def default_gram(problem) -> np.ndarray:
    """Feature Gram matrix for V-optimality under the empirical measure."""
    spec = MODELS.get(problem.kind)
    if spec is None:
        raise InvalidInput(f"no default Gram matrix for model kind {problem.kind!r}")
    return spec.gram(problem)
