"""Command line front end.

Five subcommands: ``fit``, ``design``, ``evaluate``, ``sequential``,
``synth``. Each option is declared once, in ``_OPTIONS``, with all its
rules: the commands that take it, those that require it and the check its
value must pass. That one declaration builds the subparsers and the
config-file keys, and one loop in ``build_config`` applies its rules. A
command takes only the options that change its output, each flag spelled in
full: a flag or config key it does not take, or an abbreviated flag, is a
usage error, and a stray flag is reported with that command's usage line.
Options resolve as flags over config file over built-in defaults, and every
token is checked before any data is loaded; a criterion token that needs
the model (bare ``c``, ``V``) or its parameter count (a ``c:`` vector's
length, an ``L:@`` matrix's rows) is checked once the data are in, before
the fit, and so is a ``po-wor`` budget or stage size above the number of
units. Exit codes: 0 success, 2 usage or schema error, 3 estimation
failure, 4 solver stopped without converging, 5 infeasible allocation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from . import dataio
from .config import DEFAULT
from .covariance import gradients_at
from .criteria import parse_criterion
from .errors import InvalidInput, StageFailure, SubdesignError
from .evaluate import efficiency_table_from_gradients
from .models import MODELS, fit_full, model_spec
from .sampling import DesignFamily, check_budget, derive_seed
from .sequential import run_k_stages
from .solver import SolveStatus, fixed_point_solve
from .synth import make_pool

PROG = "subdesign"

DEFAULT_BATTERY = (
    "A", "c", "D", "E", "d-er", "d-s", "phi:0.5", "phi:5", "phi:10",
)

_ALL = ("fit", "design", "evaluate", "sequential", "synth")  # _COMMANDS, defined below
_FITTING = ("fit", "design", "evaluate", "sequential")
_DESIGNING = ("design", "evaluate", "sequential")

# Every option but --config, once: the commands that take it, its add_argument
# keywords (value type or choices, help text), the commands that require it
# and the test its value must pass with the words that name it. The
# subparsers, the config-file keys and build_config's checks come from here; a
# config file separates the tokens of a list option with whitespace.
_Option = namedtuple("_Option", "commands kwargs required_by check", defaults=((), None))
_POSITIVE = (lambda value: value > 0, "positive")  # NaN fails
_AT_LEAST_1 = (lambda value: value >= 1, "at least 1")
_OPTIONS = {
    "input": _Option(_FITTING, {"help": "input CSV path"}, _FITTING),
    "model": _Option(_ALL, {"choices": tuple(MODELS)}, _ALL),
    "criterion": _Option(("design",), {"help": "criterion token, e.g. A or c:1,0"}, ("design",)),
    "family": _Option(_DESIGNING, {"help": "po-wr, po-wor or multi"}),
    "n": _Option(_DESIGNING, {"help": "budget; comma list of stage sizes for sequential"},
                 ("design", "sequential")),
    "seed": _Option(("sequential", "synth"), {"type": int},
                    check=(lambda value: value >= 0, "non-negative")),
    "tol": _Option(_FITTING, {"type": float}, check=_POSITIVE),
    "max_iter": _Option(_FITTING, {"type": int}, check=_AT_LEAST_1),
    "eps": _Option(("design", "evaluate"), {"type": float}, check=_POSITIVE),
    "out": _Option(_ALL, {"help": "output directory"}),
    "criteria": _Option(
        ("evaluate",), {"nargs": "+", "help": "criterion tokens for the table rows and columns"}),
    "stages": _Option(("sequential",), {"type": int}, check=_AT_LEAST_1),
    "replications": _Option(("sequential",), {"type": int}, check=_AT_LEAST_1),
    "n_units": _Option(("synth",), {"type": int}, ("synth",), _AT_LEAST_1),
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
    for name, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value option file")
        for key, option in _OPTIONS.items():
            if name in option.commands:
                p.add_argument("--" + key.replace("_", "-"), **option.kwargs)
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
        option = _OPTIONS[key]
        if command not in option.commands:
            raise InvalidInput(f"{path} line {lineno}: {command} takes no option {key!r}")
        if key in set_on:
            raise InvalidInput(
                f"{path} line {lineno}: {key!r} is already set on line {set_on[key]}"
            )
        set_on[key] = lineno
        convert = str.split if "nargs" in option.kwargs else option.kwargs.get("type", str)
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
        "family": "po-wor", "seed": 0, "tol": DEFAULT.newton_tol, "eps": 1e-3, "out": ".",
        "criteria": DEFAULT_BATTERY, "replications": 1,
        "max_iter": 60 if command in ("fit", "sequential") else 100,
        **(_read_config_file(args.config, command) if args.config else {}),
        **{key: value for key, value in vars(args).items() if value is not None},
    }
    for key, option in _OPTIONS.items():
        flag, value = "--" + key.replace("_", "-"), opts[key]
        if value is None and command in option.required_by:
            raise InvalidInput(f"{flag} is required for {command}")
        if value is not None and option.check and not option.check[0](value):
            raise InvalidInput(f"{flag} must be {option.check[1]}, got {value}")

    model_spec(opts["model"])
    input_path = opts["input"]  # None only for synth, which takes none
    if input_path is not None and not os.path.isfile(input_path):
        raise InvalidInput(f"input file {input_path!r} does not exist")
    family = DesignFamily.from_token(opts["family"])

    criterion = opts["criterion"]
    criteria = tuple(opts["criteria"]) if command == "evaluate" else ()
    if command == "evaluate" and not criteria:
        raise InvalidInput("the criteria list must not be empty")
    # A token that needs the model (bare c, V) is checked after the load.
    for token in (criterion,) if criterion is not None else criteria:
        _parse_without_model(token)

    n, batch_sizes = opts["n"], ()
    if command == "sequential":  # --n lists the stage sizes; a lone size is repeated
        batch_sizes = tuple(_parse_budget(part, "each stage size") for part in n.split(","))
        n, stages = None, opts["stages"] or len(batch_sizes)
        if len(batch_sizes) == 1:
            batch_sizes *= stages
        if len(batch_sizes) != stages:
            raise InvalidInput(
                f"--stages says {stages} but --n lists {len(batch_sizes)} batch sizes"
            )
    elif n is not None:
        n = _parse_budget(n, "--n")

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
    """Every file the command can write, in --out."""
    names = _COMMANDS[config.command][2](config)
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
    check_budget(data.problem.n_units, config.n, config.family)
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
    check_budget(data.problem.n_units, n, config.family)
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
    for n_k in sizes:  # named as a float, as run_k_stages names it
        check_budget(data.problem.n_units, float(n_k), config.family)
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


def _sequential_outputs(config: RunConfig) -> list[str]:
    """The learning curve, then, with one replication, each stage's scheme and
    the stage log."""
    stages = [f"scheme_stage_{k}.csv" for k in range(1, len(config.batch_sizes) + 1)]
    return ["learning_curve.csv"] + (stages + ["stages.csv"] if config.replications == 1 else [])


# Each command once: its body, its help line and the names of the files it can
# write in --out, given its config.
_COMMANDS = {
    "fit": (cmd_fit, "Fit the full-data parameter and write gradients.",
            lambda config: ["theta0.csv", "gradients.csv"]),
    "design": (cmd_design, "Solve for an optimal sampling scheme.",
               lambda config: ["scheme.csv", "trace.csv"]),
    "evaluate": (cmd_evaluate, "Cross-criterion efficiency table.",
                 lambda config: ["efficiency.csv", "efficiency.txt"]),
    "sequential": (cmd_sequential, "Multi-stage adaptive subsampling.", _sequential_outputs),
    "synth": (cmd_synth, "Write a seeded synthetic dataset.",
              lambda config: [f"{config.model}.csv"]),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = build_config(args)
        return _COMMANDS[config.command][0](config)
    except SubdesignError as err:
        if err.exit_code is None:
            raise
        print(f"{PROG}: error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
