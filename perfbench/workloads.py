"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the seed (``setup``), computes reference
values for its output checks once (``prepare``), then runs passes of a fixed
set of operations (``run_pass``). A pass is timed per operation; every output
is checked after the timed region, conditioned on the status the program
reported, never against stored numbers.

* ``cli-chain``: ``fit``, ``design``, ``evaluate`` and ``sequential`` CLI
  processes on one qblogit CSV. CSV parsing and formatting in ``dataio`` and
  full-N Newton in ``models`` carry the time; the solver does one refinement
  per (linear) criterion.
* ``spectral``: ``fixed_point_solve`` for five spectral criteria on
  in-memory lognormal and qblogit pools. The linearize-and-solve loop is the
  whole cost; no CSV is read or written.
* ``studies``: ``monte_carlo_covariance`` (many draws and sparse IPW refits)
  and a 10-replication finpop ``sequential`` CLI run (the anticipation loop),
  at a population 10-100 times smaller than the other two.
"""

from __future__ import annotations

import csv
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import subdesign as sd
import subdesign.dataio  # not imported by the package; binds sd.dataio
from subdesign.config import DEFAULT

from tracer import Tracer, load_spans

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")
CLI_TIMEOUT_S = 170

# Sizes per workload; "smoke" runs every code path at about 2,000 rows.
SIZES = {
    "cli-chain": {
        "full": {"n_units": 100_000, "n": 1000, "stages": 5},
        "smoke": {"n_units": 2_000, "n": 100, "stages": 5},
    },
    "spectral": {
        "full": {"n_units": 500_000, "n": 1000},
        "smoke": {"n_units": 2_000, "n": 100},
    },
    "studies": {
        "full": {
            "mc_units": 100_000, "mc_n": 1000, "replicates": 1000,
            "seq_units": 10_000, "stage_n": 100, "stages": 5, "replications": 10,
        },
        "smoke": {
            "mc_units": 2_000, "mc_n": 200, "replicates": 1000,
            "seq_units": 2_000, "stage_n": 20, "stages": 5, "replications": 3,
        },
    },
}

SPECTRAL_MODELS = ("lognormal", "qblogit")
SPECTRAL_CRITERIA = ("D", "phi:2", "phi:5", "phi:10", "E")
EVALUATE_CRITERIA = ("A", "c", "d-er", "d-s")
# Acceptance check 08's band for the Monte-Carlo over analytic trace ratio.
MC_RATIO_BAND = (0.85, 1.15)
MC_MAX_FAILURE_RATE = 0.05
EFFICIENCY_CEILING = 1.0 + 1e-9
THETA_RTOL = 1e-8


def criterion_key(token: str) -> str:
    """Criterion token as it appears in metric names (``phi:5`` -> ``phi5``)."""
    return token.replace(":", "")


class Run:
    """Counts operations and records why any of them failed."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, label: str) -> "Op":
        return Op(self, label)


class Op:
    """One benchmark operation; a failed check or an exception fails it."""

    def __init__(self, run: Run, label: str):
        self.run = run
        self.label = label
        self.ok = True

    def check(self, cond, what: str) -> bool:
        if not cond:
            self.ok = False
            self.run.problems.append(f"{self.label}: {what}")
        return bool(cond)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.run.attempted += 1
        if exc is not None:
            # An operation boundary: record the failure and keep measuring.
            self.ok = False
            detail = "".join(traceback.format_exception(exc_type, exc, tb))
            self.run.problems.append(f"{self.label}: raised\n{detail}")
        if not self.ok:
            self.run.failed += 1
        return exc is None or isinstance(exc, Exception)


@dataclass
class Pass:
    """What one pass measured: wall time per operation and exact counts."""

    wall: dict = field(default_factory=dict)
    step_ms: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    solves: dict = field(default_factory=dict)
    mc: tuple | None = None
    span_counts: dict | None = None

    def timed(self, kind: str, seconds: float, steps: int = 1) -> None:
        """Record one operation of a kind, made of ``steps`` steps."""
        self.wall[kind] = self.wall.get(kind, 0.0) + seconds
        self.step_ms.append(1e3 * seconds / steps)

    @property
    def wall_s(self) -> float:
        return sum(self.wall.values())

    @property
    def ms_per_step(self) -> float:
        """Mean over the pass's operations of milliseconds per step."""
        return sum(self.step_ms) / len(self.step_ms)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_scheme(op: Op, path: str, n_units: int, n: float, family) -> np.ndarray:
    """N rows, positive, summing to n within budget_rtol, capped under po-wor."""
    header, rows = read_csv(path)
    name = os.path.basename(path)
    op.check(header == ["id", "mu"], f"{name} header is {header}")
    mu = np.array([float(row[1]) for row in rows])
    op.check(len(mu) == n_units, f"{name} has {len(mu)} rows, expected {n_units}")
    op.check(
        abs(float(mu.sum()) - n) <= DEFAULT.budget_rtol * max(n, 1.0),
        f"{name} sums to {float(mu.sum())!r}, budget {n}",
    )
    op.check(bool(np.all(mu > 0.0)), f"{name} has a non-positive entry")
    if family is sd.DesignFamily.PO_WOR:
        op.check(float(mu.max()) <= 1.0, f"{name} has mu {float(mu.max())!r} > 1")
    return mu


def check_solve(op: Op, spec, grads, status: str, scheme, initial_objective: float):
    """Converged: stationary to stationarity_tol. Diverged: kept <= initial."""
    if status == sd.SolveStatus.CONVERGED.value:
        cs = sd.coefficients(spec, grads, at=scheme)
        resid = sd.stationarity_residual(scheme, cs, scheme.family)
        op.check(
            resid <= DEFAULT.stationarity_tol,
            f"{spec.label} Converged with stationarity residual {resid:.3e}",
        )
    elif status == sd.SolveStatus.DIVERGED.value:
        kept = sd.phi_value(spec, sd.gamma(grads, scheme).gamma, grads)
        op.check(
            kept <= initial_objective,
            f"{spec.label} Diverged and kept objective {kept!r} above the "
            f"initial {initial_objective!r}",
        )


def check_learning_curve(op: Op, path: str, replications: int) -> None:
    header, rows = read_csv(path)
    op.check(len(rows) == replications, f"learning curve has {len(rows)} rows")
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    op.check(bool(np.all(np.isfinite(values))), "learning curve has a non-finite value")


def file_sizes(directory: str, names) -> dict:
    return {name: os.path.getsize(os.path.join(directory, name)) for name in names}


class Workload:
    """Shared plumbing: directories, CLI processes and traced calls."""

    name = ""
    in_process = True

    def __init__(self, run: Run, seed: int, scale: str):
        self.run = run
        self.seed = seed
        self.size = SIZES[self.name][scale]
        self.dir = os.path.join(run.work_dir, self.name)
        self.input_dir = os.path.join(self.dir, "input")
        self.out_dir = os.path.join(self.dir, "out")
        self.spans_path = os.path.join(self.dir, "spans.json")
        os.makedirs(self.input_dir, exist_ok=True)
        os.makedirs(self.out_dir, exist_ok=True)
        self.facts: dict = {}

    def new_pass(self) -> Pass:
        """Start a pass with an empty output directory.

        No check can then read a file that an earlier pass left behind.
        """
        shutil.rmtree(self.out_dir)
        os.makedirs(self.out_dir)
        return Pass()

    def cli(self, p: Pass, tracer: Tracer | None, args: list[str]):
        """Run one CLI command in its own process; return (seconds, process)."""
        if tracer is None:
            cmd = [sys.executable, "-m", "subdesign.cli", *args]
        else:
            cmd = [sys.executable, LAUNCHER, self.spans_path, *args]
            if os.path.exists(self.spans_path):
                os.remove(self.spans_path)
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=False
        )
        seconds = time.perf_counter() - start
        if tracer is not None:
            p.spans.append(load_spans(self.spans_path))
        return seconds, proc

    def call(self, p: Pass, tracer: Tracer | None, fn):
        """Time fn() in this process, traced when a tracer is given."""
        if tracer is None:
            start = time.perf_counter()
            result = fn()
            return time.perf_counter() - start, result
        with tracer.active():
            start = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - start
        p.spans.append(tracer.take())
        return seconds, result

    def check_exit(self, op: Op, proc) -> bool:
        return op.check(
            proc.returncode == 0,
            f"exit code {proc.returncode}, expected 0: {proc.stderr.strip()}",
        )


class CliChain(Workload):
    name = "cli-chain"
    in_process = False

    def setup(self) -> None:
        self.pool = sd.make_pool("qblogit", self.size["n_units"], self.seed)
        self.csv = os.path.join(self.input_dir, "qblogit.csv")
        sd.dataio.write_pool(self.csv, "qblogit", self.pool)

    def prepare(self) -> None:
        problem = sd.pool_problem("qblogit", self.pool)
        self.fit = sd.fit_full(problem)
        self.grads = sd.gradients_at(problem, self.fit.theta0)
        self.facts = {
            "input_csv_bytes": os.path.getsize(self.csv),
            "psi_bytes_computed": self.grads.psi.nbytes,
        }

    def run_pass(self, tracer: Tracer | None) -> Pass:
        p = self.new_pass()
        n_units, n = self.size["n_units"], self.size["n"]
        out = self.out_dir
        common = ["--model", "qblogit", "--input", self.csv, "--out", out]

        with self.run.op("fit") as op:
            seconds, proc = self.cli(p, tracer, ["fit", *common])
            p.timed("fit_s", seconds)
            if self.check_exit(op, proc):
                _, rows = read_csv(os.path.join(out, "theta0.csv"))
                theta = np.array([float(v) for v in rows[0]])
                ref = self.fit.theta0
                err = float(np.linalg.norm(theta - ref) / np.linalg.norm(ref))
                op.check(err <= THETA_RTOL, f"theta0 differs from fit_full by {err:.3e}")
                with open(os.path.join(out, "gradients.csv"), encoding="utf-8") as fh:
                    lines = sum(1 for _ in fh)
                op.check(lines == n_units + 1, f"gradients.csv has {lines - 1} rows")
                p.counts["fit.bytes"] = file_sizes(out, ["theta0.csv", "gradients.csv"])

        with self.run.op("design") as op:
            seconds, proc = self.cli(p, tracer, [
                "design", *common, "--criterion", "A", "--family", "po-wor",
                "--n", str(n),
            ])
            p.timed("design_s", seconds)
            if self.check_exit(op, proc):
                family = sd.DesignFamily.PO_WOR
                mu = check_scheme(op, os.path.join(out, "scheme.csv"), n_units, n, family)
                _, trace_rows = read_csv(os.path.join(out, "trace.csv"))
                status = trace_rows[-1][2]
                check_solve(
                    op, sd.a_opt(), self.grads, status,
                    sd.validate_scheme(mu, family, n), float(trace_rows[0][1]),
                )
                p.counts["design.solve"] = [len(trace_rows) - 1, status]
                p.counts["design.bytes"] = file_sizes(out, ["scheme.csv", "trace.csv"])

        with self.run.op("evaluate") as op:
            seconds, proc = self.cli(p, tracer, [
                "evaluate", *common, "--family", "po-wr", "--n", str(n),
                "--criteria", *EVALUATE_CRITERIA,
            ])
            p.timed("evaluate_s", seconds)
            if self.check_exit(op, proc):
                _, rows = read_csv(os.path.join(out, "efficiency.csv"))
                op.check(len(rows) == len(EVALUATE_CRITERIA), f"{len(rows)} table rows")
                for row in rows:
                    cells = [float(v) for v in row[3:] if v != ""]
                    op.check(
                        all(0.0 < v <= EFFICIENCY_CEILING for v in cells),
                        f"row {row[0]} has an efficiency outside (0, 1]: {row[3:]}",
                    )
                p.counts["evaluate.solves"] = [[row[0], int(row[1]), row[2]] for row in rows]

        with self.run.op("sequential") as op:
            stages = self.size["stages"]
            seconds, proc = self.cli(p, tracer, [
                "sequential", *common, "--family", "po-wor", "--stages", str(stages),
                "--n", str(n), "--seed", str(self.seed),
            ])
            p.timed("sequential_s", seconds)
            if self.check_exit(op, proc):
                check_learning_curve(op, os.path.join(out, "learning_curve.csv"), 1)
                names = [f"scheme_stage_{k}.csv" for k in range(1, stages + 1)]
                for name in names:
                    check_scheme(op, os.path.join(out, name), n_units, n, sd.DesignFamily.PO_WOR)
                p.counts["sequential.bytes"] = file_sizes(
                    out, names + ["stages.csv", "learning_curve.csv"]
                )
        return p


class Spectral(Workload):
    name = "spectral"

    def setup(self) -> None:
        self.models = {}
        for kind in SPECTRAL_MODELS:
            pool = sd.make_pool(kind, self.size["n_units"], self.seed)
            problem = sd.pool_problem(kind, pool)
            fit = sd.fit_full(problem)
            grads = sd.gradients_at(problem, fit.theta0)
            grads.hessian_inv  # cached on first use; warm it outside the passes
            specs = [sd.parse_criterion(token, problem) for token in SPECTRAL_CRITERIA]
            self.models[kind] = (fit, grads, specs)

    def prepare(self) -> None:
        self.facts = {
            "input_csv_bytes": 0,
            "psi_bytes_computed": {
                kind: grads.psi.nbytes for kind, (_, grads, _) in self.models.items()
            },
        }

    def run_pass(self, tracer: Tracer | None) -> Pass:
        p = self.new_pass()
        n, family = self.size["n"], sd.DesignFamily.PO_WOR
        for kind, (fit, grads, specs) in self.models.items():
            p.counts[f"{kind}.setup_newton_iters"] = fit.iterations
            for token, spec in zip(SPECTRAL_CRITERIA, specs):
                with self.run.op(f"solve {kind} {token}") as op:
                    seconds, trace = self.call(
                        p, tracer, lambda: sd.fixed_point_solve(spec, grads, family, n)
                    )
                    # One step per objective evaluation: the initial one and
                    # one per iteration. Normalising each solve on its own
                    # keeps the seed's effect on iteration counts out.
                    p.timed("solve_s", seconds, len(trace.objective_per_iter))
                    status = trace.status.value
                    p.solves[(kind, criterion_key(token))] = (trace.iterations, status)
                    p.counts[f"{kind}.{token}"] = [trace.iterations, status]
                    check_solve(
                        op, spec, grads, status, trace.final_scheme,
                        trace.objective_per_iter[0],
                    )
        return p


class Studies(Workload):
    name = "studies"

    def setup(self) -> None:
        size = self.size
        pool = sd.make_pool("lognormal", size["mc_units"], self.seed)
        self.problem = sd.pool_problem("lognormal", pool)
        self.fit = sd.fit_full(self.problem)
        self.grads = sd.gradients_at(self.problem, self.fit.theta0)
        trace = sd.fixed_point_solve(
            sd.a_opt(), self.grads, sd.DesignFamily.PO_WR, size["mc_n"]
        )
        if trace.status is not sd.SolveStatus.CONVERGED:
            raise RuntimeError(f"A-optimal set-up solve stopped with {trace.status}")
        self.scheme = trace.final_scheme
        finpop = sd.make_pool("finpop", size["seq_units"], self.seed)
        self.csv = os.path.join(self.input_dir, "finpop.csv")
        sd.dataio.write_pool(self.csv, "finpop", finpop)

    def prepare(self) -> None:
        self.analytic_trace = float(np.trace(sd.gamma(self.grads, self.scheme).gamma))
        self.facts = {
            "input_csv_bytes": os.path.getsize(self.csv),
            "psi_bytes_computed": self.grads.psi.nbytes,
        }

    def run_pass(self, tracer: Tracer | None) -> Pass:
        p = self.new_pass()
        size = self.size
        p.counts["setup_newton_iters"] = self.fit.iterations

        with self.run.op("monte_carlo_covariance") as op:
            seconds, mc = self.call(p, tracer, lambda: sd.monte_carlo_covariance(
                self.problem, self.scheme, R=size["replicates"], seed=self.seed
            ))
            p.timed("mc_s", seconds)
            ratio = float(np.trace(mc.cov)) / self.analytic_trace
            low, high = MC_RATIO_BAND
            op.check(low <= ratio <= high, f"MC trace ratio {ratio:.4f} outside [{low}, {high}]")
            op.check(
                mc.failure_rate <= MC_MAX_FAILURE_RATE,
                f"MC failure rate {mc.failure_rate:.3f}",
            )
            p.mc = (mc.n_failed, mc.n_total)
            p.counts["mc.n_failed"] = mc.n_failed

        with self.run.op("sequential") as op:
            reps = size["replications"]
            seconds, proc = self.cli(p, tracer, [
                "sequential", "--model", "finpop", "--input", self.csv, "--out", self.out_dir,
                "--family", "po-wr", "--stages", str(size["stages"]),
                "--n", str(size["stage_n"]), "--replications", str(reps),
                "--seed", str(self.seed),
            ])
            p.timed("sequential_s", seconds)
            if self.check_exit(op, proc):
                check_learning_curve(op, os.path.join(self.out_dir, "learning_curve.csv"), reps)
                p.counts["sequential.bytes"] = file_sizes(self.out_dir, ["learning_curve.csv"])
        return p


WORKLOADS = {cls.name: cls for cls in (CliChain, Spectral, Studies)}
