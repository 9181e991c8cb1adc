"""Scheme comparison: efficiency tables, Monte-Carlo checks, reparameterization.

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
from functools import partial
from typing import NamedTuple

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
from .models import RiskProblem, fit_full, model_spec, weighted_fit
from .sampling import (
    DesignFamily,
    SamplingScheme,
    _nonnegative_int,
    derive_seed,
    draw,
)
from .solver import SolveStatus, fixed_point_solve

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


class _SolveSummary(NamedTuple):
    status: SolveStatus
    iterations: int
    final_gamma: np.ndarray


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
    # Per solve only what the table reads: a trace's N-long schemes are
    # dropped as soon as its solve returns.
    traces: dict[str, _SolveSummary] = {}
    for spec in row_specs + col_specs:
        if spec.label not in traces:
            trace = fixed_point_solve(spec, grads, family, n, max_iter=max_iter, eps=eps)
            traces[spec.label] = _SolveSummary(trace.status, trace.iterations, trace.final_gamma)
            del trace

    # Each column's criterion at every solve's final Gamma, one column at a
    # time: the column's reference is their minimum, the cells divide it by
    # the row solves' entries.
    col_values = [
        {label: phi_value(spec, trace.final_gamma, grads) for label, trace in traces.items()}
        for spec in col_specs
    ]
    refs = [min(values.values()) for values in col_values]

    cells = []
    for spec in row_specs:
        if traces[spec.label].status in (SolveStatus.DIVERGED, SolveStatus.INFEASIBLE):
            cells.append(tuple([None] * len(col_specs)))
            continue
        row = []
        for col, values, ref in zip(col_specs, col_values, refs):
            den = values[spec.label]
            if not np.isfinite(den) or den == 0.0:
                raise DegenerateCriterion(
                    f"criterion {col.label} vanishes at the {spec.label} scheme"
                )
            row.append(ref / den)
        cells.append(tuple(row))

    return EfficiencyTable(
        row_labels=tuple(s.label for s in row_specs),
        col_labels=tuple(s.label for s in col_specs),
        cells=tuple(cells),
        statuses=tuple(traces[s.label].status for s in row_specs),
        iterations=tuple(traces[s.label].iterations for s in row_specs),
    )


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
        sample = draw(scheme, derive_seed(seed, r))
        try:
            fit = weighted_fit(problem, sample, scheme, tol=tol, max_iter=max_iter)
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
    tol: float = DEFAULT.newton_tol,
    max_iter: int = 60,
) -> MonteCarloCovariance:
    """Estimate the covariance of the weighted estimator by simulation.

    Replicate r is the ``weighted_fit`` of its own independent draw,
    ``draw(scheme, derive_seed(seed, r))``; the fit reads only the drawn units
    and their counts, so a replicate costs in the sample size, not the
    population. Replicates that fail to fit (an empty draw raises
    EmptySample) are dropped and counted by exception class; the run aborts
    when more than MAX_FAILURE_RATE of them do.

    The replicates are spread in contiguous shards over the CPUs this process
    may use, one forked worker each, and gathered in replicate order, so the
    results are bit-identical whatever the number of CPUs. Where ``os.fork``
    is missing the loop runs in this process.
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
