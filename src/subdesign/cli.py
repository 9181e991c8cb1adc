"""Command line front end.

Five subcommands: ``fit``, ``design``, ``evaluate``, ``sequential``,
``synth``. Each option is declared once, in ``_OPTIONS``, which builds the
subparsers and the config-file keys. A command takes only the options that
change its output, each flag spelled in full: a flag or config key it does
not take, or an abbreviated flag, is a usage error, and a stray flag is
reported with that command's usage line. Options resolve as flags over
config file over built-in defaults, and every token is checked before
any data is loaded; a criterion token that needs the model (bare ``c``,
``V``) or its parameter count (a ``c:`` vector's length, an ``L:@``
matrix's rows) is checked once the data are in, before the fit, and so is
a ``po-wor`` budget or stage size above the number of units. Exit
codes: 0 success, 2 usage or schema error, 3 estimation failure, 4 solver
stopped without converging, 5 infeasible allocation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import dataio
from .covariance import gradients_at
from .criteria import parse_criterion
from .errors import InvalidInput, StageFailure, SubdesignError
from .evaluate import efficiency_table_from_gradients
from .models import MODELS, fit_full, model_spec
from .sampling import DesignFamily, derive_seed, uniform_scheme
from .sequential import run_k_stages
from .solver import SolveStatus, fixed_point_solve
from .synth import make_pool

PROG = "subdesign"

DEFAULT_BATTERY = (
    "A", "c", "D", "E", "d-er", "d-s", "phi:0.5", "phi:5", "phi:10",
)

_COMMAND_HELP = {
    "fit": "Fit the full-data parameter and write gradients.",
    "design": "Solve for an optimal sampling scheme.",
    "evaluate": "Cross-criterion efficiency table.",
    "sequential": "Multi-stage adaptive subsampling.",
    "synth": "Write a seeded synthetic dataset.",
}

_ALL = tuple(_COMMAND_HELP)
_FITTING = ("fit", "design", "evaluate", "sequential")
_DESIGNING = ("design", "evaluate", "sequential")

# Every option but --config, once: the commands that take it and its
# add_argument keywords (value type or choices, help text). The subparsers and
# the config-file keys come from here; a config file separates the tokens of
# a list option with whitespace.
_OPTIONS = {
    "input": (_FITTING, {"help": "input CSV path"}),
    "model": (_ALL, {"choices": tuple(MODELS)}),
    "criterion": (("design",), {"help": "criterion token, e.g. A or c:1,0"}),
    "family": (_DESIGNING, {"help": "po-wr, po-wor or multi"}),
    "n": (_DESIGNING, {"help": "budget; comma list of stage sizes for sequential"}),
    "seed": (("sequential", "synth"), {"type": int}),
    "tol": (_FITTING, {"type": float}),
    "max_iter": (_FITTING, {"type": int}),
    "eps": (("design", "evaluate"), {"type": float}),
    "out": (_ALL, {"help": "output directory"}),
    "criteria": (
        ("evaluate",),
        {"nargs": "+", "help": "criterion tokens for the table rows and columns"},
    ),
    "stages": (("sequential",), {"type": int}),
    "replications": (("sequential",), {"type": int}),
    "n_units": (("synth",), {"type": int}),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options for one command invocation."""

    command: str
    input: str | None
    model: str
    criterion: str | None
    family: DesignFamily
    n: int | None
    seed: int
    tol: float
    max_iter: int
    eps: float
    out: str
    criteria: tuple[str, ...] = ()
    batch_sizes: tuple[int, ...] = ()
    replications: int = 1
    n_units: int | None = None


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: arguments it does not take are reported with its
    own usage line, not the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Design and evaluate unequal-probability subsamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, help_text in _COMMAND_HELP.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value option file")
        for key, (commands, kwargs) in _OPTIONS.items():
            if name in commands:
                p.add_argument("--" + key.replace("_", "-"), **kwargs)
    return parser


def _read_config_file(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise InvalidInput(f"cannot read config file {path}: {err}") from err
    opts, set_on = {}, {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidInput(f"{path} line {lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise InvalidInput(f"{path} line {lineno}: unknown option {key!r}")
        commands, kwargs = _OPTIONS[key]
        if command not in commands:
            raise InvalidInput(f"{path} line {lineno}: {command} takes no option {key!r}")
        if key in set_on:
            raise InvalidInput(
                f"{path} line {lineno}: {key!r} is already set on line {set_on[key]}"
            )
        set_on[key] = lineno
        convert = str.split if "nargs" in kwargs else kwargs.get("type", str)
        try:
            opts[key] = convert(value.strip())
        except ValueError:
            raise InvalidInput(
                f"{path} line {lineno}: bad value for {key!r}"
            ) from None
    return opts


def _parse_without_model(token: str) -> None:
    """Raise now for a malformed token; one that needs the model passes."""
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
    """Resolve flags over config file over defaults, and validate every token."""
    command = args.command
    opts = {
        **dict.fromkeys(_OPTIONS),
        "family": "po-wor", "seed": 0, "tol": 1e-10, "eps": 1e-3, "out": ".",
        "criteria": DEFAULT_BATTERY, "replications": 1,
        "max_iter": 60 if command in ("fit", "sequential") else 100,
        **(_read_config_file(args.config, command) if args.config else {}),
        **{key: value for key, value in vars(args).items() if value is not None},
    }

    model = opts["model"]
    if model is None:
        raise InvalidInput("--model is required")
    model_spec(model)

    input_path = opts["input"]
    if command != "synth":
        if input_path is None:
            raise InvalidInput("--input is required")
        if not os.path.isfile(input_path):
            raise InvalidInput(f"input file {input_path!r} does not exist")

    family = DesignFamily.from_token(opts["family"])

    criterion = opts["criterion"]
    if command == "design" and criterion is None:
        raise InvalidInput("--criterion is required for design")
    criteria = tuple(opts["criteria"]) if command == "evaluate" else ()
    if command == "evaluate" and not criteria:
        raise InvalidInput("the criteria list must not be empty")
    # A token that needs the model (bare c, V) is checked after the load.
    for token in (criterion,) if criterion is not None else criteria:
        _parse_without_model(token)

    n = opts["n"]
    if command in ("design", "sequential") and n is None:
        raise InvalidInput(f"--n is required for {command}")
    batch_sizes = ()
    if command == "sequential":
        batch_sizes = tuple(
            _parse_budget(part, "each stage size") for part in n.split(",")
        )
        n = None
    elif n is not None:
        n = _parse_budget(n, "--n")

    if opts["seed"] < 0:
        raise InvalidInput(f"--seed must be non-negative, got {opts['seed']}")
    if not (opts["tol"] > 0):
        raise InvalidInput(f"--tol must be positive, got {opts['tol']}")
    if not (opts["eps"] > 0):
        raise InvalidInput(f"--eps must be positive, got {opts['eps']}")
    if opts["max_iter"] < 1:
        raise InvalidInput(f"--max-iter must be at least 1, got {opts['max_iter']}")

    stages, replications = opts["stages"], opts["replications"]
    if command == "sequential":
        if stages is not None and stages < 1:
            raise InvalidInput(f"--stages must be at least 1, got {stages}")
        if replications < 1:
            raise InvalidInput(
                f"--replications must be at least 1, got {replications}"
            )
        if stages is not None and len(batch_sizes) == 1:
            batch_sizes *= stages
        if stages is not None and len(batch_sizes) != stages:
            raise InvalidInput(
                f"--stages says {stages} but --n lists {len(batch_sizes)} batch sizes"
            )

    n_units = opts["n_units"]
    if command == "synth":
        if n_units is None:
            raise InvalidInput("--n-units is required for synth")
        if n_units < 1:
            raise InvalidInput(f"--n-units must be at least 1, got {n_units}")

    opts.update(family=family, n=n, criteria=criteria, batch_sizes=batch_sizes)
    config = RunConfig(**{f.name: opts[f.name] for f in fields(RunConfig)})

    # The nearest part of --out that exists must be a directory, and no output
    # file may be one; the directories below it are made when the outputs are
    # written.
    out = existing = config.out
    if not out:
        raise InvalidInput("--out must not be empty")
    while existing and not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise InvalidInput(f"--out {out!r}: {existing!r} is not a directory")
    for path in _output_paths(config):
        if os.path.isdir(path):
            raise InvalidInput(f"output file {path!r} is a directory")
    return config


def _output_paths(config: RunConfig) -> list[str]:
    """Every file the command can write, in --out. Sequential lists its
    learning curve first, then, with one replication, each stage's scheme and
    the stage log."""
    stages = [f"scheme_stage_{k}.csv" for k in range(1, len(config.batch_sizes) + 1)]
    names = {
        "fit": ["theta0.csv", "gradients.csv"],
        "design": ["scheme.csv", "trace.csv"],
        "evaluate": ["efficiency.csv", "efficiency.txt"],
        "sequential": ["learning_curve.csv"]
        + (stages + ["stages.csv"] if config.replications == 1 else []),
        "synth": [f"{config.model}.csv"],
    }[config.command]
    return [os.path.join(config.out, name) for name in names]


def _make_outputs(config: RunConfig) -> list[str]:
    """Make --out and return the command's output paths."""
    os.makedirs(config.out, exist_ok=True)
    return _output_paths(config)


def cmd_fit(config: RunConfig) -> int:
    data = dataio.load_problem(config.input, config.model)
    fit = fit_full(data.problem, tol=config.tol, max_iter=config.max_iter)
    grads = gradients_at(data.problem, fit.theta0, hessian=fit.hessian_at_opt)
    theta_path, grad_path = _make_outputs(config)
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
    data = dataio.load_problem(config.input, config.model)
    spec = parse_criterion(config.criterion, data.problem)
    uniform_scheme(data.problem.n_units, config.n, config.family)  # po-wor n > N fails here
    fit = fit_full(data.problem, tol=config.tol)
    grads = gradients_at(data.problem, fit.theta0, hessian=fit.hessian_at_opt)
    trace = fixed_point_solve(
        spec, grads, config.family, config.n, max_iter=config.max_iter, eps=config.eps
    )
    scheme_path, trace_path = _make_outputs(config)
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
    data = dataio.load_problem(config.input, config.model)
    n = config.n if config.n is not None else math.ceil(0.01 * data.problem.n_units)
    specs = [parse_criterion(token, data.problem) for token in config.criteria]
    uniform_scheme(data.problem.n_units, n, config.family)  # po-wor n > N fails here
    fit = fit_full(data.problem, tol=config.tol)
    grads = gradients_at(data.problem, fit.theta0, hessian=fit.hessian_at_opt)
    table = efficiency_table_from_gradients(
        grads, config.family, n, specs, specs, max_iter=config.max_iter, eps=config.eps
    )
    csv_path, text_path = _make_outputs(config)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(table.to_csv())
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(table.to_text())
    print(table.to_text(), end="")
    print(f"wrote {csv_path} and {text_path}")
    return 0


def _write_stage_outputs(stage_paths: list[str], data, records) -> None:
    """The scheme of each record (stage k in ``stage_paths[k - 1]``) and the
    stage log (``stage_paths[-1]``)."""
    ids = dataio.id_fields(data.ids)
    for rec, path in zip(records, stage_paths):
        dataio.write_scheme(path, ids, rec.scheme)
    scheme_files = [os.path.basename(path) for path in stage_paths[: len(records)]]
    dataio.write_stage_log(stage_paths[-1], records, data.problem, scheme_files)


def cmd_sequential(config: RunConfig) -> int:
    data = dataio.load_problem(config.input, config.model)
    sizes = config.batch_sizes
    # A po-wor stage above N fails here, as run_k_stages words it.
    uniform_scheme(data.problem.n_units, float(max(sizes)), config.family)
    theta_full = fit_full(data.problem, tol=config.tol).theta0

    def stages(seed):
        return run_k_stages(
            data.problem, sizes, config.family, seed, tol=config.tol, max_iter=config.max_iter
        )

    def errors(records):
        first = float(np.linalg.norm(records[0].theta_hat - theta_full))
        final = float(np.linalg.norm(records[-1].theta_hat - theta_full))
        return first, final

    curve_path, *stage_paths = _make_outputs(config)
    if config.replications == 1:
        try:
            records = stages(config.seed)
        except StageFailure as err:
            if err.records:
                _write_stage_outputs(stage_paths, data, err.records)
            print(f"{PROG}: error: {err}", file=sys.stderr)
            return err.exit_code
        _write_stage_outputs(stage_paths, data, records)
        first, final = errors(records)
        dataio.write_learning_curve(curve_path, [(0, first, final)])
        print(
            f"{len(records)} stages complete; stage-1 error {first:.6g}, "
            f"final error {final:.6g}"
        )
        print(f"wrote {stage_paths[-1]} and {curve_path}")
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
    (path,) = _make_outputs(config)
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
