"""Design criteria: objective values, matrix derivatives, unit coefficients.

Every criterion maps the estimator covariance Gamma to a scalar. Linear
criteria (trace against a fixed matrix) are minimized in closed form; the
spectral ones (D, E, the q-norm family) enter a linearization loop instead.
Both paths reduce to per-unit coefficients

    c_i = || L^T H^-1 psi_i ||^2   with   L L^T = phi(Gamma),

where phi is the criterion's matrix derivative. The derivative of the
objective in the expected count mu_i is then -c_i / mu_i^2, which is what the
finite-difference tests pin down.

``CRITERIA`` is the criterion table: one ``Criterion`` per kind, holding all
that the package reads about it. ``parse_criterion`` reads the text forms
through one token table, so no other code tests a kind. Normalization
constants (1/p for the average-variance criteria, 1/m for a p x m target
matrix) are kept in both the value and the derivative so paired criteria
coincide exactly, not just up to scale.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .covariance import DispersionKind, GradientSet, dispersion_matrix, gamma
from .errors import InvalidInput, NotDifferentiable, SingularMatrix
from .linalg import as_symmetric, psd_factor, sym_eigen, unit_blocks
from .models import model_spec
from .sampling import SamplingScheme


@dataclass(frozen=True)
class CriterionSpec:
    """One design criterion, fully parameterized.

    ``kind`` is a key of ``CRITERIA``. Exactly the fields relevant to it are
    set: a target vector for C, a p x m target matrix for L, a feature Gram
    matrix for V, the exponent for PhiQ, and a dispersion kind for Distance.
    """

    kind: str
    c: np.ndarray | None = None
    l_matrix: np.ndarray | None = None
    gram: np.ndarray | None = None
    q: float | None = None
    dispersion: DispersionKind | None = None

    def __post_init__(self):
        if self.kind not in CRITERIA:
            raise InvalidInput(f"unknown criterion kind {self.kind!r}")

    @property
    def is_linear(self) -> bool:
        return CRITERIA[self.kind].linear

    @property
    def label(self) -> str:
        return CRITERIA[self.kind].label(self)


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


def _dispersion_phi(spec, p, grads):
    if grads is None:
        raise InvalidInput(
            f"{spec.label} needs the problem's gradients to build its dispersion matrix"
        )
    return dispersion_matrix(spec.dispersion, grads) / p


def _positive_spectrum(gam: np.ndarray, what: str):
    values, vectors = sym_eigen(gam)
    low = float(values[-1])
    if values[0] <= 0.0 or low <= DEFAULT.singular_rtol * float(values[0]):
        raise SingularMatrix(
            f"{what} needs a full-rank covariance; min eigenvalue {low:.3e}",
            min_eigenvalue=low,
        )
    return values, vectors


def _d_value(spec, g):
    values, _ = _positive_spectrum(g, "D-optimality")
    return float(np.exp(np.mean(np.log(values))))


def _d_log_det(spec, g):
    values, _ = _positive_spectrum(g, "D-optimality")
    return float(np.sum(np.log(values)))


def _d_derivative(spec, g):
    values, q_mat = _positive_spectrum(g, "D-optimality")
    return as_symmetric((q_mat / values) @ q_mat.T)


def _e_derivative(spec, g):
    values, vectors = sym_eigen(g)
    top = float(values[0])
    if top <= 0.0:
        raise NotDifferentiable("E-optimality derivative undefined at Gamma = 0")
    gap = (top - float(values[1])) / top if g.shape[0] > 1 else 1.0
    if gap < DEFAULT.eigen_gap_error:
        raise NotDifferentiable(
            f"leading eigenvalue is numerically repeated (relative gap {gap:.2e}); "
            "E-optimality is not differentiable here"
        )
    if gap < DEFAULT.eigen_gap_warn:
        warnings.warn(
            f"E-optimality eigen-gap {gap:.2e} is small; the derivative is ill-conditioned",
            stacklevel=3,
        )
    return np.outer(vectors[:, 0], vectors[:, 0])


def _phi_q_value(spec, g):
    values, _ = _positive_spectrum(g, spec.label)
    return float((np.sum(values**spec.q) / g.shape[0]) ** (1.0 / spec.q))


def _phi_q_derivative(spec, g):
    values, q_mat = _positive_spectrum(g, spec.label)
    q = spec.q
    trace_q = float(np.sum(values**q))
    scale = g.shape[0] ** (-1.0 / q) * trace_q ** (1.0 / q - 1.0)
    power = (q_mat * values ** (q - 1.0)) @ q_mat.T
    return as_symmetric(scale * power)


@dataclass(frozen=True)
class Criterion:
    """One criterion kind. A linear one gives ``phi(spec, p, grads)``, its constant
    derivative matrix, valued tr(Gamma phi), and ``misfit`` for a target that
    does not fit p; a spectral one ``value`` and ``derivative`` of Gamma, and
    ``objective`` where that derivative is another's with the same minimizer."""

    label: Callable = lambda spec: spec.kind
    phi: Callable | None = None
    misfit: str = ""
    value: Callable | None = None
    derivative: Callable | None = None
    objective: Callable | None = None

    @property
    def linear(self) -> bool:  # the coefficients do not depend on the scheme
        return self.phi is not None


CRITERIA = {
    "A": Criterion(phi=lambda spec, p, grads: np.eye(p) / p),
    "C": Criterion(
        label=lambda spec: "c:" + ",".join(format(v, "g") for v in spec.c),
        phi=lambda spec, p, grads: np.outer(spec.c, spec.c),
        misfit="c has length {}, expected {}",
    ),
    "L": Criterion(
        phi=lambda spec, p, grads: spec.l_matrix @ spec.l_matrix.T / spec.l_matrix.shape[1],
        misfit="L has {} rows, expected {}",
    ),
    "V": Criterion(
        phi=lambda spec, p, grads: spec.gram / p,
        misfit="Gram matrix is ({0}, {0}), expected {1} x {1}",
    ),
    "Distance": Criterion(label=lambda spec: spec.dispersion.value, phi=_dispersion_phi),
    "D": Criterion(value=_d_value, derivative=_d_derivative, objective=_d_log_det),
    "E": Criterion(
        value=lambda spec, g: float(np.linalg.eigvalsh(g)[-1]), derivative=_e_derivative
    ),
    "PhiQ": Criterion(
        label=lambda spec: f"phi:{spec.q:g}",
        value=_phi_q_value,
        derivative=_phi_q_derivative,
    ),
}


def _static_phi(spec: CriterionSpec, p: int, grads: GradientSet | None) -> np.ndarray:
    """Constant derivative matrix of a linear criterion, refused unless p x p."""
    entry = CRITERIA[spec.kind]
    phi = entry.phi(spec, p, grads)
    if phi.shape[0] != p:
        raise InvalidInput(entry.misfit.format(phi.shape[0], p))
    return phi


def phi_value(
    spec: CriterionSpec,
    gam,
    grads: GradientSet | None = None,
) -> float:
    """Scalar objective of the criterion at the covariance matrix."""
    g = as_symmetric(gam)
    if spec.is_linear:
        return float(np.sum(g * _static_phi(spec, g.shape[0], grads)))
    return CRITERIA[spec.kind].value(spec, g)


def objective_for_derivative(
    spec: CriterionSpec,
    gam,
    grads: GradientSet | None = None,
) -> float:
    """The objective whose gradient the coefficients represent.

    Identical to ``phi_value`` except where the criterion's entry gives an
    ``objective``: for D the derivative matrix Gamma^-1 belongs to
    log det(Gamma), not to det(Gamma)^(1/p). The two share their minimizer;
    ``fixed_point_solve`` tracks ``phi_value``, and the finite-difference
    checks of the coefficients differentiate this one.
    """
    objective = CRITERIA[spec.kind].objective
    if objective is None:
        return phi_value(spec, gam, grads)
    return objective(spec, as_symmetric(gam))


def phi_matrix_derivative(
    spec: CriterionSpec,
    gam,
    grads: GradientSet | None = None,
) -> np.ndarray:
    """Derivative matrix phi(Gamma) of the objective with respect to Gamma."""
    g = as_symmetric(gam)
    if spec.is_linear:
        return _static_phi(spec, g.shape[0], grads)
    return CRITERIA[spec.kind].derivative(spec, g)


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
    """Coefficients c for a derivative matrix phi, or the sums of their closed form.

    Without ``fuse`` returns (c, None). With ``fuse`` the same pass over the
    units writes r_i = sqrt(c_i) over c_i and sums S = sum r_i and
    W = sum psi_i psi_i^T / r_i, returning (None, (r, S, min r, max r, W)), so
    no N-long c is kept. A coefficient that is zero, negative or not finite
    stops the sums before its root is taken, and c comes from a pass without
    ``fuse``.
    """
    m_t = (grads.hessian_inv @ psd_factor(phi)).T
    out = np.empty(grads.n_units)
    w = np.zeros((grads.n_params, grads.n_params))
    total, low, top = 0.0, np.inf, 0.0
    for units in unit_blocks(grads.n_units):
        # t is k x block: column i is L^T H^-1 psi_i, and its squares are
        # summed row after row, a sequential sum over the k terms.
        block = grads.psi_t[:, units]
        t = m_t @ block
        t *= t
        cb = t.sum(axis=0, out=out[units])
        if fuse:
            cb_min, cb_max = cb.min(), cb.max()
            if not (cb_min > 0.0 and cb_max < np.inf):  # NaN fails too
                return _coefficients_from_phi(grads, phi)
            low, top = min(low, cb_min), max(top, cb_max)
            rb = np.sqrt(cb, out=cb)
            total += rb.sum()
            # One product for the block; W is symmetric up to rounding, and
            # only the symmetrized covariance built from it is used.
            w += (block / rb) @ block.T
    if not fuse:
        return out, None
    # sqrt rounds monotonically, so it maps the extreme c to the extreme r.
    return None, (out, total, float(np.sqrt(low)), float(np.sqrt(top)), w)


def anticipated_coefficients(model_kind: str, **aux) -> np.ndarray:
    """Coefficients with unobserved responses replaced by model expectations.

    The exact c_i depend on outcomes that are unknown before sampling; taking
    expectations under a working model yields strictly positive surrogates
    whenever the assumed dispersions are positive, so no unit is starved of
    selection mass. The auxiliary inputs, the formula and the criterion it
    targets are the model's entry in ``models.MODELS``.
    """
    return model_spec(model_kind).anticipate(aux)


def _bare_c(text: str, token: str, problem) -> CriterionSpec:
    if problem is None:
        raise InvalidInput("bare criterion c needs the model to size its target vector")
    return c_opt(np.eye(problem.n_params)[0])


def _gram(text: str, token: str, problem) -> CriterionSpec:
    if problem is None:
        raise InvalidInput("criterion V needs the model to build its Gram matrix")
    return v_opt(model_spec(problem.kind).gram(problem))


def _numbers(parse, text: str, token: str, what: str):
    try:
        return parse(text)
    except ValueError:
        raise InvalidInput(f"cannot parse {what} from {token!r}")


def _l_file(text: str, token: str, problem) -> CriterionSpec:
    path = os.path.abspath(text)
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


# Text forms in lower case: a key ending in ":" or "@" prefixes parameters. A
# builder takes the text after the key, the token and the problem (or None).
_TOKENS = {
    "a": lambda *_: a_opt(),
    "c": _bare_c,
    "c:": lambda text, token, problem: c_opt(
        _numbers(lambda s: [float(v) for v in s.split(",")], text, token, "c vector")
    ),
    "l:@": _l_file,
    "v": _gram,
    "d": lambda *_: d_opt(),
    "e": lambda *_: e_opt(),
    "phi:": lambda text, token, problem: phi_q(_numbers(float, text, token, "phi exponent")),
    **{kind.value: lambda *_, kind=kind: distance_opt(kind) for kind in DispersionKind},
}


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
    for key, build in _TOKENS.items():
        if low == key or key[-1] in ":@" and low.startswith(key):
            spec = build(text[len(key):], token, problem)
            if problem is not None and CRITERIA[spec.kind].misfit:
                _static_phi(spec, problem.n_params, None)
            return spec
    raise InvalidInput(f"unknown criterion token {token!r}")
