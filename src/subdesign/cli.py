"""Command line front end.

Five subcommands: ``fit``, ``design``, ``evaluate``, ``sequential``,
``synth``. Options resolve as flags over config file over built-in defaults,
and every token is checked before any data is loaded. Exit codes: 0 success,
2 usage or schema error, 3 estimation failure, 4 solver stopped without
converging, 5 infeasible allocation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import dataio
from .covariance import gradients_at
from .criteria import parse_criterion
from .errors import InvalidInput, StageFailure, SubdesignError
from .evaluate import efficiency_table_from_gradients
from .models import MODELS, fit_full
from .sampling import DesignFamily, derive_seed
from .sequential import run_k_stages
from .solver import SolveStatus, fixed_point_solve
from .synth import make_pool

PROG = "subdesign"

DEFAULT_BATTERY = (
    "A", "c", "D", "E", "d-er", "d-s", "phi:0.5", "phi:5", "phi:10",
)

@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options for one command invocation."""

    command: str
    input: str | None
    model: str
    criterion: str | None
    family: str
    n: str | None
    seed: int
    tol: float
    max_iter: int
    eps: float
    out: str
    criteria: tuple[str, ...] = ()
    stages: int | None = None
    replications: int = 1
    n_units: int | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Design and evaluate unequal-probability subsamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "fit": "Fit the full-data parameter and write gradients.",
        "design": "Solve for an optimal sampling scheme.",
        "evaluate": "Cross-criterion efficiency table.",
        "sequential": "Multi-stage adaptive subsampling.",
        "synth": "Write a seeded synthetic dataset.",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value option file")
        p.add_argument("--input", help="input CSV path")
        p.add_argument("--model", choices=list(MODELS))
        p.add_argument("--criterion", help="criterion token, e.g. A or c:1,0")
        p.add_argument("--family", help="po-wr, po-wor or multi")
        p.add_argument("--n", help="budget; comma list of stage sizes for sequential")
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--eps", type=float)
        p.add_argument("--out", help="output directory")
        if name == "evaluate":
            p.add_argument(
                "--criteria",
                nargs="+",
                help="criterion tokens for the table rows and columns",
            )
        if name == "sequential":
            p.add_argument("--stages", type=int)
            p.add_argument("--replications", type=int)
        if name == "synth":
            p.add_argument("--n-units", dest="n_units", type=int)
    return parser


_FILE_KEYS = {
    "input": str,
    "model": str,
    "criterion": str,
    "family": str,
    "n": str,
    "seed": int,
    "tol": float,
    "max_iter": int,
    "eps": float,
    "out": str,
    "criteria": lambda text: text.split(),
    "stages": int,
    "replications": int,
    "n_units": int,
}


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise InvalidInput(f"cannot read config file {path}: {err}") from err
    opts = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidInput(f"{path} line {lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in _FILE_KEYS:
            raise InvalidInput(f"{path} line {lineno}: unknown option {key!r}")
        try:
            opts[key] = _FILE_KEYS[key](value.strip())
        except ValueError:
            raise InvalidInput(
                f"{path} line {lineno}: bad value for {key!r}"
            ) from None
    return opts


def _merge(args: argparse.Namespace, file_opts: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return file_opts.get(key, default)


def _check_criterion_token(token: str) -> None:
    """Reject malformed tokens now; tokens that only need the model pass."""
    try:
        parse_criterion(token)
    except InvalidInput as err:
        if "needs the model" not in str(err):
            raise


def _parse_budget(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise InvalidInput(f"{what} must be an integer, got {text!r}") from None
    if value < 1:
        raise InvalidInput(f"{what} must be at least 1, got {value}")
    return value


def build_config(args: argparse.Namespace) -> RunConfig:
    """Resolve flags, config file and defaults, and validate every token."""
    file_opts = _read_config_file(args.config) if args.config else {}
    command = args.command

    model = _merge(args, file_opts, "model")
    if model is None:
        raise InvalidInput("--model is required")
    if model not in MODELS:
        raise InvalidInput(f"unknown model kind {model!r}")

    input_path = _merge(args, file_opts, "input")
    if command != "synth":
        if input_path is None:
            raise InvalidInput("--input is required")
        if not os.path.isfile(input_path):
            raise InvalidInput(f"input file {input_path!r} does not exist")

    family = _merge(args, file_opts, "family", default="po-wor")
    DesignFamily.from_token(family)

    criterion = _merge(args, file_opts, "criterion")
    if command == "design":
        if criterion is None:
            raise InvalidInput("--criterion is required for design")
    if criterion is not None:
        _check_criterion_token(criterion)

    raw_criteria = _merge(args, file_opts, "criteria")
    if command == "evaluate":
        criteria = tuple(raw_criteria) if raw_criteria is not None else DEFAULT_BATTERY
        if not criteria:
            raise InvalidInput("the criteria list must not be empty")
        for token in criteria:
            _check_criterion_token(token)
    else:
        criteria = ()

    n_token = _merge(args, file_opts, "n")
    if command == "design" and n_token is None:
        raise InvalidInput("--n is required for design")
    if command == "sequential" and n_token is None:
        raise InvalidInput("--n is required for sequential")
    if n_token is not None:
        if command == "sequential":
            for part in str(n_token).split(","):
                _parse_budget(part, "each stage size")
        else:
            _parse_budget(str(n_token), "--n")

    seed = _merge(args, file_opts, "seed", default=0)
    if seed < 0:
        raise InvalidInput(f"--seed must be non-negative, got {seed}")

    tol = _merge(args, file_opts, "tol", default=1e-10)
    if not (tol > 0):
        raise InvalidInput(f"--tol must be positive, got {tol}")

    eps = _merge(args, file_opts, "eps", default=1e-3)
    if not (eps > 0):
        raise InvalidInput(f"--eps must be positive, got {eps}")

    default_max_iter = 60 if command in ("fit", "sequential") else 100
    max_iter = _merge(args, file_opts, "max_iter", default=default_max_iter)
    if max_iter < 1:
        raise InvalidInput(f"--max-iter must be at least 1, got {max_iter}")

    stages = _merge(args, file_opts, "stages")
    replications = _merge(args, file_opts, "replications", default=1)
    if command == "sequential":
        if stages is not None and stages < 1:
            raise InvalidInput(f"--stages must be at least 1, got {stages}")
        if replications < 1:
            raise InvalidInput(
                f"--replications must be at least 1, got {replications}"
            )

    n_units = _merge(args, file_opts, "n_units")
    if command == "synth":
        if n_units is None:
            raise InvalidInput("--n-units is required for synth")
        if n_units < 1:
            raise InvalidInput(f"--n-units must be at least 1, got {n_units}")

    return RunConfig(
        command=command,
        input=input_path,
        model=model,
        criterion=criterion,
        family=family,
        n=None if n_token is None else str(n_token),
        seed=seed,
        tol=tol,
        max_iter=max_iter,
        eps=eps,
        out=_merge(args, file_opts, "out", default="."),
        criteria=criteria,
        stages=stages,
        replications=replications,
        n_units=n_units,
    )


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.out, exist_ok=True)
    return os.path.join(config.out, name)


def _load(config: RunConfig) -> dataio.LoadedData:
    return dataio.load_problem(config.input, config.model)


def cmd_fit(config: RunConfig) -> int:
    data = _load(config)
    fit = fit_full(data.problem, tol=config.tol, max_iter=config.max_iter)
    grads = gradients_at(data.problem, fit.theta0)
    theta_path = _out_path(config, "theta0.csv")
    grad_path = _out_path(config, "gradients.csv")
    dataio.write_theta(theta_path, data.problem.param_names, fit.theta0)
    dataio.write_gradients(grad_path, data.ids, grads.psi, data.problem.param_names)
    summary = ", ".join(
        f"{name}={value:.6g}"
        for name, value in zip(data.problem.param_names, fit.theta0)
    )
    print(f"fitted {config.model} on {data.problem.n_units} units: {summary}")
    print(f"wrote {theta_path} and {grad_path}")
    return 0


def cmd_design(config: RunConfig) -> int:
    data = _load(config)
    spec = parse_criterion(config.criterion, data.problem)
    family = DesignFamily.from_token(config.family)
    n = _parse_budget(config.n, "--n")
    fit = fit_full(data.problem, tol=config.tol)
    grads = gradients_at(data.problem, fit.theta0)
    trace = fixed_point_solve(
        spec, grads, family, n, max_iter=config.max_iter, eps=config.eps
    )
    scheme_path = _out_path(config, "scheme.csv")
    trace_path = _out_path(config, "trace.csv")
    dataio.write_scheme(scheme_path, data.ids, trace.final_scheme)
    dataio.write_trace(trace_path, trace)
    print(
        f"criterion {spec.label}: {trace.status.value} after "
        f"{trace.iterations} iterations, objective "
        f"{trace.objective_per_iter[-1]:.10g}"
    )
    print(f"wrote {scheme_path} and {trace_path}")
    if trace.status is SolveStatus.INFEASIBLE:
        offenders = ", ".join(data.ids[i] for i in trace.zero_ids)
        print(
            f"{PROG}: error: no feasible scheme; zero coefficient for "
            f"ids: {offenders}",
            file=sys.stderr,
        )
        return 5
    if trace.status is SolveStatus.CONVERGED:
        return 0
    return 4


def cmd_evaluate(config: RunConfig) -> int:
    data = _load(config)
    family = DesignFamily.from_token(config.family)
    if config.n is not None:
        n = _parse_budget(config.n, "--n")
    else:
        n = math.ceil(0.01 * data.problem.n_units)
    specs = [parse_criterion(token, data.problem) for token in config.criteria]
    fit = fit_full(data.problem, tol=config.tol)
    grads = gradients_at(data.problem, fit.theta0)
    table = efficiency_table_from_gradients(
        grads, family, n, specs, specs, max_iter=config.max_iter, eps=config.eps
    )
    csv_path = _out_path(config, "efficiency.csv")
    text_path = _out_path(config, "efficiency.txt")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(table.to_csv())
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(table.to_text())
    print(table.to_text(), end="")
    print(f"wrote {csv_path} and {text_path}")
    return 0


def _batch_sizes(config: RunConfig) -> list[int]:
    sizes = [
        _parse_budget(part, "each stage size") for part in config.n.split(",")
    ]
    stages = config.stages if config.stages is not None else len(sizes)
    if len(sizes) == 1 and stages > 1:
        sizes = sizes * stages
    if len(sizes) != stages:
        raise InvalidInput(
            f"--stages says {stages} but --n lists {len(sizes)} batch sizes"
        )
    return sizes


def _write_stage_outputs(config: RunConfig, data, records) -> None:
    scheme_files = []
    for rec in records:
        path = _out_path(config, f"scheme_stage_{rec.k}.csv")
        dataio.write_scheme(path, data.ids, rec.scheme)
        scheme_files.append(os.path.basename(path))
    dataio.write_stage_log(
        _out_path(config, "stages.csv"), records, data.problem, scheme_files
    )


def cmd_sequential(config: RunConfig) -> int:
    data = _load(config)
    family = DesignFamily.from_token(config.family)
    sizes = _batch_sizes(config)
    criterion = (
        parse_criterion(config.criterion, data.problem)
        if config.criterion is not None
        else None
    )
    theta_full = fit_full(data.problem, tol=config.tol).theta0

    def stages(seed):
        return run_k_stages(
            data.problem, sizes, family, seed,
            criterion=criterion, tol=config.tol, max_iter=config.max_iter,
        )

    def errors(records):
        first = float(np.linalg.norm(records[0].theta_hat - theta_full))
        final = float(np.linalg.norm(records[-1].theta_hat - theta_full))
        return first, final

    curve_path = _out_path(config, "learning_curve.csv")
    if config.replications == 1:
        try:
            records = stages(config.seed)
        except StageFailure as err:
            if err.records:
                _write_stage_outputs(config, data, err.records)
            print(f"{PROG}: error: {err}", file=sys.stderr)
            return err.exit_code
        _write_stage_outputs(config, data, records)
        first, final = errors(records)
        dataio.write_learning_curve(curve_path, [(0, first, final)])
        print(
            f"{len(records)} stages complete; stage-1 error {first:.6g}, "
            f"final error {final:.6g}"
        )
        print(f"wrote {os.path.join(config.out, 'stages.csv')} and {curve_path}")
        return 0

    rows = []
    for r in range(config.replications):
        try:
            # The 7 is part of the replication key: it fixes every
            # replication's draws.
            records = stages(derive_seed(config.seed, 7, r))
        except StageFailure as err:
            dataio.write_learning_curve(curve_path, rows)
            print(
                f"{PROG}: error: replication {r}: {err}", file=sys.stderr
            )
            return err.exit_code
        first, final = errors(records)
        rows.append((r, first, final))
    dataio.write_learning_curve(curve_path, rows)
    firsts = np.array([row[1] for row in rows])
    finals = np.array([row[2] for row in rows])
    ratio = dataio.error_ratio(finals.mean(), firsts.mean())
    print(
        f"{config.replications} replications of {len(sizes)} stages; "
        f"mean final/first error ratio {ratio:.4f}"
    )
    print(f"wrote {curve_path}")
    return 0


def cmd_synth(config: RunConfig) -> int:
    pool = make_pool(config.model, config.n_units, config.seed)
    path = _out_path(config, f"{config.model}.csv")
    dataio.write_pool(path, config.model, pool)
    print(f"wrote {path} ({config.n_units} units, seed {config.seed})")
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "design": cmd_design,
    "evaluate": cmd_evaluate,
    "sequential": cmd_sequential,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = build_config(args)
        return _COMMANDS[config.command](config)
    except SubdesignError as err:
        if err.exit_code is None:
            raise
        print(f"{PROG}: error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
