"""Write the outputs of a fixed-seed set of CLI runs to a directory.

    python tests/golden/make_goldens.py OUT_DIR

For each model (finpop, lognormal, qblogit) and seed (1, 7, 42) the script
runs, on N = 3000 units: ``synth``; ``fit``; ``design`` with the criteria A,
D, phi:5 and E; ``evaluate`` with the default battery; and ``sequential``
with three stages of 100. Each run gets its own directory holding its output
files plus ``exit_code``, ``stdout`` and ``stderr``. Commands run in a fresh
interpreter on the ``src/`` beside this file, with relative paths, so that
two checkouts can be compared byte for byte:

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
DESIGN_CRITERIA = ("A", "D", "phi:5", "E")


def runs(model: str, seed: int) -> list[tuple[str, list[str]]]:
    """(run name, CLI arguments) in order; later runs read the synth output."""
    data = ["--input", f"synth/{model}.csv", "--model", model]
    out = [
        ("synth", ["synth", "--model", model, "--n-units", str(N_UNITS),
                   "--seed", str(seed), "--out", "synth"]),
        ("fit", ["fit", *data, "--out", "fit"]),
    ]
    for criterion in DESIGN_CRITERIA:
        name = "design-" + criterion.replace(":", "")
        out.append((name, ["design", *data, "--criterion", criterion, "--n", "100",
                           "--seed", str(seed), "--out", name]))
    out.append(("evaluate", ["evaluate", *data, "--out", "evaluate"]))
    out.append(("sequential", ["sequential", *data, "--stages", "3", "--n", "100",
                               "--seed", str(seed), "--out", "sequential"]))
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
