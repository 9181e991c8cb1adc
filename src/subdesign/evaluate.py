"""Scheme comparison: efficiency tables, grid oracles, Monte-Carlo checks.

Relative efficiency is always computed from the analytic asymptotic
covariance, never from simulation; the Monte-Carlo helpers exist to verify
that the analytic covariance is trustworthy in the first place.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import signal
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb

import numpy as np

from .config import DEFAULT
from .covariance import GradientSet, gradients_at
from .criteria import CriterionSpec, phi_value
from .errors import (
    DegenerateCriterion,
    EmptySample,
    InvalidInput,
    NoConvergence,
    OutOfDomain,
    SingularHessian,
    SingularMatrix,
    Unsupported,
    UnreliableEstimate,
)
# ``weighted_fit`` is the estimator each Monte-Carlo replicate computes. The
# loop calls its support-only core directly, but the name stays importable
# from this module, as callers and the benchmark's tracer expect.
from .models import RiskProblem, _fit_on_support, fit_full, model_spec, weighted_fit  # noqa: F401
from .sampling import (
    DesignFamily,
    SamplingScheme,
    _draw_support,
    _nonnegative_int,
    derive_seed,
    validate_scheme,
)
from .solver import SolveStatus, SolveTrace, fixed_point_solve

MAX_GRID_ROWS = 20_000_000
# Above this share of failed replicates a Monte-Carlo run is refused: the
# surviving replicates would be a biased selection.
MAX_FAILURE_RATE = 0.05
FIT_ERRORS = (EmptySample, SingularHessian, NoConvergence, SingularMatrix, OutOfDomain)


def rel_efficiency(
    spec: CriterionSpec,
    gamma_at_mu: np.ndarray,
    gamma_at_opt: np.ndarray,
    grads: GradientSet | None = None,
) -> float:
    """Criterion value at the optimal scheme over the value at mu.

    Equals 1 when mu is itself optimal and drops toward 0 as mu wastes
    budget on uninformative units.
    """
    num = phi_value(spec, gamma_at_opt, grads)
    den = phi_value(spec, gamma_at_mu, grads)
    if not np.isfinite(den) or den == 0.0:
        raise DegenerateCriterion(f"criterion {spec.label} vanishes at the candidate scheme")
    return num / den


@dataclass(frozen=True)
class EfficiencyTable:
    """Cross-criterion efficiency grid with per-row solver metadata.

    Rows produce schemes, columns evaluate them. A row whose solve diverged
    or was infeasible keeps its status but renders blank cells.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple[tuple[float | None, ...], ...]
    statuses: tuple[SolveStatus, ...]
    iterations: tuple[int, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["row_criterion", "iterations", "status"]
            + [f"{label}_eff" for label in self.col_labels]
        )
        for i, label in enumerate(self.row_labels):
            row = [label, self.iterations[i], self.statuses[i].value]
            row += [
                "" if v is None else f"{v:.10g}" for v in self.cells[i]
            ]
            writer.writerow(row)
        return buf.getvalue()

    def to_text(self) -> str:
        headers = ["criterion", "iter", "status"] + list(self.col_labels)
        body = []
        for i, label in enumerate(self.row_labels):
            cells = [
                "" if v is None else f"{v:.4f}" for v in self.cells[i]
            ]
            body.append([label, str(self.iterations[i]), self.statuses[i].value] + cells)
        widths = [
            max(len(headers[j]), *(len(row[j]) for row in body)) if body else len(headers[j])
            for j in range(len(headers))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines) + "\n"


def efficiency_table_from_gradients(
    grads: GradientSet,
    family: DesignFamily,
    n: float,
    row_specs,
    col_specs,
    max_iter: int = 100,
    eps: float = 1e-3,
) -> EfficiencyTable:
    """Build the efficiency grid from precomputed gradients.

    Each column is referenced against the best criterion value seen across
    the column's own solve and every row scheme, so cells stay at or below
    one even when a column's fixed-point solve did not converge.
    """
    row_specs = list(row_specs)
    col_specs = list(col_specs)
    traces: dict[str, SolveTrace] = {}
    for spec in row_specs + col_specs:
        if spec.label not in traces:
            traces[spec.label] = fixed_point_solve(
                spec, grads, family, n, max_iter=max_iter, eps=eps
            )

    col_values = []
    for spec in col_specs:
        values = [phi_value(spec, trace.final_gamma, grads) for trace in traces.values()]
        col_values.append(min(values))

    cells = []
    for spec in row_specs:
        trace = traces[spec.label]
        if trace.status in (SolveStatus.DIVERGED, SolveStatus.INFEASIBLE):
            cells.append(tuple([None] * len(col_specs)))
            continue
        gam = trace.final_gamma
        row = []
        for j, col in enumerate(col_specs):
            den = phi_value(col, gam, grads)
            if not np.isfinite(den) or den == 0.0:
                raise DegenerateCriterion(
                    f"criterion {col.label} vanishes at the {spec.label} scheme"
                )
            row.append(col_values[j] / den)
        cells.append(tuple(row))

    return EfficiencyTable(
        row_labels=tuple(s.label for s in row_specs),
        col_labels=tuple(s.label for s in col_specs),
        cells=tuple(cells),
        statuses=tuple(traces[s.label].status for s in row_specs),
        iterations=tuple(traces[s.label].iterations for s in row_specs),
    )


@lru_cache(maxsize=8)
def _compositions(parts: int, steps: int) -> np.ndarray:
    """All strictly positive integer vectors of length parts summing to steps."""
    if parts == 1:
        return np.array([[steps]], dtype=np.int64)
    blocks = []
    for first in range(1, steps - parts + 2):
        rest = _compositions(parts - 1, steps - first)
        head = np.full((len(rest), 1), first, dtype=np.int64)
        blocks.append(np.hstack([head, rest]))
    return np.vstack(blocks)


def _pairwise_refine(mu: np.ndarray, c: np.ndarray, cap: float | None) -> np.ndarray:
    """One sweep of exact two-coordinate reallocations at fixed budget."""
    mu = mu.copy()
    s = np.sqrt(c)
    n_units = len(mu)
    for i in range(n_units):
        for j in range(i + 1, n_units):
            total = mu[i] + mu[j]
            share = total * s[i] / (s[i] + s[j])
            if cap is not None:
                share = min(max(share, total - cap), cap)
            lo = 1e-12 * total
            share = min(max(share, lo), total - lo)
            mu[i], mu[j] = share, total - share
    return mu


def brute_force_l_optimal(
    c,
    n: float,
    family: DesignFamily,
    grid_steps: int = 40,
) -> SamplingScheme:
    """Grid-search the linear-criterion allocation, then refine locally.

    Exhaustive over a simplex lattice, so only small populations are
    accepted. Serves as an independent check on the closed-form allocation.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or len(c) > 5:
        raise Unsupported("grid search handles at most 5 units")
    if np.any(c <= 0) or not np.all(np.isfinite(c)):
        raise InvalidInput("coefficients must be strictly positive and finite")
    n_units = len(c)
    if comb(grid_steps - 1, n_units - 1) > MAX_GRID_ROWS:
        raise Unsupported(
            f"grid of {grid_steps} steps over {n_units} units is too large"
        )
    parts = _compositions(n_units, grid_steps)
    mu_grid = (float(n) / grid_steps) * parts
    cap = None
    if family is DesignFamily.PO_WOR:
        cap = 1.0
        keep = np.all(mu_grid <= 1.0, axis=1)
        mu_grid = mu_grid[keep]
        if len(mu_grid) == 0:
            raise Unsupported("no grid point satisfies the probability cap")
    # The constant shift for without-replacement designs does not move the
    # argmin, so one objective serves every family.
    objective = (c / mu_grid).sum(axis=1)
    best = mu_grid[int(np.argmin(objective))]
    refined = _pairwise_refine(best, c, cap)
    if (c / refined).sum() > (c / best).sum():
        refined = best
    return validate_scheme(refined, family, float(n))


@dataclass(frozen=True)
class MonteCarloCovariance:
    """Sample covariance of repeated draw-and-fit replicates.

    ``failures`` counts the failed replicates by exception class name; its
    values sum to ``n_failed``.
    """

    cov: np.ndarray
    thetas: np.ndarray
    n_failed: int
    n_total: int
    failures: dict[str, int]

    @property
    def failure_rate(self) -> float:
        return self.n_failed / self.n_total


def _worker_count() -> int:
    """One Monte-Carlo worker per CPU this process may use; one without fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _replicate_outcomes(problem, scheme, seed, replicates, tol, max_iter) -> list:
    """Each replicate's fitted theta, or the class name of the fit error it raised."""
    outcomes = []
    for r in replicates:
        support, support_counts = _draw_support(scheme, derive_seed(seed, r))
        try:
            fit = _fit_on_support(
                problem, support, support_counts / scheme.mu[support],
                tol=tol, max_iter=max_iter,
            )
        except FIT_ERRORS as err:
            outcomes.append(type(err).__name__)
            continue
        outcomes.append(fit.theta0)
    return outcomes


def _sharded_outcomes(run_shard, R: int) -> list:
    """``run_shard`` over contiguous shards of ``range(R)``, one per worker, in order.

    Shard 0 runs here and each other shard in a forked child, which pickles
    its outcomes into a pipe. A shard whose child fails or sends back too few
    outcomes runs again here, so an exception surfaces as in a serial loop.
    Every child is reaped before this returns, and killed first if this raises.
    """
    workers = _worker_count()
    bounds = [R * k // workers for k in range(workers + 1)]
    shards = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    pids, readers = [], []  # the children not yet reaped; every pipe's read end
    try:
        for shard in shards[1:]:
            read_fd, write_fd = os.pipe()
            readers.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        with os.fdopen(write_fd, "wb") as pipe:
                            pickle.dump(run_shard(shard), pipe, pickle.HIGHEST_PROTOCOL)
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(write_fd)
            pids.append(pid)
        outcomes = run_shard(shards[0])
        for shard, reader in zip(shards[1:], readers):
            payload = reader.read()
            status = os.waitpid(pids.pop(0), 0)[1]
            got = pickle.loads(payload) if status == 0 else []
            outcomes += got if len(got) == len(shard) else run_shard(shard)
        return outcomes
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def monte_carlo_covariance(
    problem: RiskProblem,
    scheme: SamplingScheme,
    R: int,
    seed: int,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> MonteCarloCovariance:
    """Estimate the covariance of the weighted estimator by simulation.

    Each replicate is the ``weighted_fit`` of one draw, run straight on the
    draw's support: the loop takes the drawn units and their counts from the
    random core of ``draw``, builds no N-length ``counts`` and skips the
    full-length checks, so a replicate's fit costs in the sample size, not the
    population.
    Replicates that fail to fit (an empty draw raises EmptySample) are dropped
    and counted by exception class; the run aborts when more than
    MAX_FAILURE_RATE of them do.

    Replicate r draws with ``derive_seed(seed, r)``, so replicates are
    independent, and they are spread in contiguous shards over the CPUs this
    process may use, one forked worker each. The results are gathered in
    replicate order, so they are bit-identical whatever the number of CPUs.
    Where ``os.fork`` is missing the loop runs in this process.
    """
    seed = _nonnegative_int(seed, "seed")
    R = _nonnegative_int(R, "R")
    if R < 1000:
        raise InvalidInput("need at least 1000 replicates for a stable covariance")
    if scheme.n_units != problem.n_units:
        raise InvalidInput(
            f"scheme covers {scheme.n_units} units, problem has {problem.n_units}"
        )
    run_shard = partial(_replicate_outcomes, problem, scheme, seed, tol=tol, max_iter=max_iter)
    outcomes = _sharded_outcomes(run_shard, R)
    thetas = [o for o in outcomes if not isinstance(o, str)]
    failures = dict(Counter(o for o in outcomes if isinstance(o, str)))
    failed = sum(failures.values())
    if failed > MAX_FAILURE_RATE * R:
        reasons = ", ".join(f"{name}: {k}" for name, k in sorted(failures.items()))
        raise UnreliableEstimate(
            f"{failed} of {R} replicates failed to fit ({reasons})",
            n_failed=failed,
            n_total=R,
            failures=failures,
        )
    stacked = np.array(thetas)
    centered = stacked - stacked.mean(axis=0)
    cov = centered.T @ centered / (len(stacked) - 1)
    return MonteCarloCovariance(
        cov=cov, thetas=stacked, n_failed=failed, n_total=R, failures=failures
    )


@dataclass(frozen=True)
class Reparameterization:
    """Nonsingular linear change of the parameter vector."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
            raise InvalidInput("reparameterization matrix must be square and finite")
        sv = np.linalg.svd(a, compute_uv=False)
        if sv.size and sv[-1] <= DEFAULT.singular_rtol * sv[0]:
            raise InvalidInput("reparameterization matrix is singular")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)


def reparam_invariance(
    problem: RiskProblem,
    reparam: Reparameterization,
    spec: CriterionSpec,
    family: DesignFamily,
    n: float,
) -> tuple[SamplingScheme, SamplingScheme, float]:
    """Optimal schemes before and after a linear reparameterization.

    The transformed problem replaces the model matrix X by X A^-1, so the
    fitted parameter becomes A theta. Returns both schemes and the sup-norm
    difference of their probabilities.
    """
    if "X" not in problem.data:
        raise Unsupported("the reparameterization harness needs a model matrix")
    if not isinstance(reparam, Reparameterization):
        reparam = Reparameterization(np.asarray(reparam, dtype=float))
    a = reparam.matrix
    if a.shape != (problem.n_params, problem.n_params):
        raise InvalidInput(
            f"map is {a.shape}, parameter dimension is {problem.n_params}"
        )
    x = np.asarray(problem.data["X"], dtype=float)
    transformed = model_spec(problem.kind).build({**problem.data, "X": x @ np.linalg.inv(a)})

    schemes = []
    for prob in (problem, transformed):
        fit = fit_full(prob)
        grads = gradients_at(prob, fit.theta0)
        trace = fixed_point_solve(spec, grads, family, n)
        schemes.append(trace.final_scheme)
    sup_diff = float(np.max(np.abs(schemes[0].mu - schemes[1].mu)))
    return schemes[0], schemes[1], sup_diff
