"""Write the outputs of a fixed-seed set of CLI runs to a directory.

    python tests/golden/make_goldens.py OUT_DIR

For each model (finpop, lognormal, qblogit) and seed (1, 7, 42) the script
runs, on N = 3000 units: ``synth``; ``fit``; ``design`` with the criteria A,
D, phi:5, E, V, d-kl and ``L:@L.csv``; ``evaluate`` with the default battery;
and ``sequential`` with three stages of 100 under each design family: po-wor
(the default), po-wr over three replications, and multi. Each run writes its
output files to a directory named after it, and its exit code, stdout and
stderr to ``<run>.log/``. Each (model, seed) case has its own directory,
which is the working directory of its commands; before ``design-L`` the
script writes there ``L.csv``, a p x 2 matrix with rows ``1,i`` for
i = 1..p, p read from the ``fit`` run's ``theta0.csv`` header. For
lognormal seed 1, ``fit-quoted`` fits ``quoted.csv``, the synth table that
the script rewrites with LF line endings, a blank line after the header and
each id ``<id>`` replaced by the text ``u,<id>`` plus a double quote, written
quoted with that quote doubled, so that the loader's quoting and the id
quoting of ``gradients.csv`` are covered too. Commands run
in a fresh interpreter on the ``src/`` beside this file, with relative
paths, so that two checkouts can be compared byte for byte:

    diff -r goldens_before goldens_after

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
MODELS = ("finpop", "lognormal", "qblogit")
SEEDS = (1, 7, 42)
N_UNITS = 3000
DESIGN_CRITERIA = ("A", "D", "phi:5", "E", "V", "d-kl", "L:@L.csv")
QUOTED_CASE = ("lognormal", 1)


def write_l_matrix(case: Path) -> None:
    """L.csv in the case directory: one row ``1,i`` per model parameter."""
    header = (case / "fit" / "theta0.csv").read_text().splitlines()[0]
    p = len(header.split(","))
    (case / "L.csv").write_text("".join(f"1,{i}\n" for i in range(1, p + 1)))


def write_quoted_input(case: Path, model: str) -> None:
    """quoted.csv in the case directory: the synth table with quoted ids."""
    header, *rows = (case / "synth" / f"{model}.csv").read_text().splitlines()
    body = [f'"u,{uid}""",{rest}' for uid, rest in (row.split(",", 1) for row in rows)]
    (case / "quoted.csv").write_text("\n".join([header, "", *body]) + "\n", newline="")


def runs(model: str, seed: int) -> list[tuple[str, list[str]]]:
    """(run name, CLI arguments) in order; later runs read the synth output."""
    data = ["--input", f"synth/{model}.csv", "--model", model]
    out = [
        ("synth", ["synth", "--model", model, "--n-units", str(N_UNITS),
                   "--seed", str(seed), "--out", "synth"]),
        ("fit", ["fit", *data, "--out", "fit"]),
    ]
    if (model, seed) == QUOTED_CASE:
        out.append(("fit-quoted", ["fit", "--input", "quoted.csv", "--model", model,
                                   "--out", "fit-quoted"]))
    for criterion in DESIGN_CRITERIA:
        name = "design-" + criterion.partition(":@")[0].replace(":", "")
        out.append((name, ["design", *data, "--criterion", criterion, "--n", "100",
                           "--seed", str(seed), "--out", name]))
    out.append(("evaluate", ["evaluate", *data, "--out", "evaluate"]))
    stages = ["sequential", *data, "--stages", "3", "--n", "100", "--seed", str(seed)]
    out.append(("sequential", [*stages, "--out", "sequential"]))
    out.append(("sequential-powr", [*stages, "--family", "po-wr", "--replications", "3",
                                    "--out", "sequential-powr"]))
    out.append(("sequential-multi", [*stages, "--family", "multi",
                                     "--out", "sequential-multi"]))
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(args[0])
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for model in MODELS:
        for seed in SEEDS:
            case = root / f"{model}-seed{seed}"
            case.mkdir(parents=True, exist_ok=True)
            for name, cli_args in runs(model, seed):
                if name == "design-L":
                    write_l_matrix(case)
                if name == "fit-quoted":
                    write_quoted_input(case, model)
                proc = subprocess.run(
                    [sys.executable, "-m", "subdesign.cli", *cli_args],
                    cwd=case, env=env, capture_output=True, text=True,
                )
                log = case / f"{name}.log"
                log.mkdir(exist_ok=True)
                (log / "exit_code").write_text(f"{proc.returncode}\n")
                (log / "stdout").write_text(proc.stdout)
                (log / "stderr").write_text(proc.stderr)
                print(f"{case.name} {name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
