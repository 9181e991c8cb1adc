"""CSV ingestion and emission.

Input schemas by model kind (header row mandatory, UTF-8, dot decimals):

* finpop: ``id,w,y1..ym[,g]``
* lognormal: ``id,w,y[,z1..zk]``
* qblogit: ``id,y,x1..xp``

Unknown columns are rejected rather than ignored so that a typo in a header
fails loudly instead of silently dropping data.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidData
from .models import RiskProblem, finpop_problem, lognormal_problem, qblogit_problem
from .sampling import SamplingScheme
from .sequential import StageRecord, pooled_risk
from .solver import SolveStatus, SolveTrace


@dataclass(frozen=True)
class LoadedData:
    """A parsed input table: the model object plus everything around it."""

    problem: RiskProblem
    ids: tuple[str, ...]
    aux_columns: np.ndarray | None = None
    groups: np.ndarray | None = None


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InvalidData(f"{path} is empty") from None
            rows = [row for row in reader if row]
    except OSError as err:
        raise InvalidData(f"cannot read {path}: {err}") from err
    header = [h.strip() for h in header]
    return header, rows


def _numbered(header: list[str], prefix: str) -> list[str]:
    """Columns named prefix1..prefixk, verified dense and in order."""
    pattern = re.compile(rf"^{prefix}(\d+)$")
    found = {}
    for name in header:
        m = pattern.match(name)
        if m:
            found[int(m.group(1))] = name
    if not found:
        return []
    expected = list(range(1, max(found) + 1))
    missing = [f"{prefix}{i}" for i in expected if i not in found]
    if missing:
        raise InvalidData(f"missing column '{missing[0]}'")
    return [found[i] for i in expected]


def _column_matrix(rows, header, names, path):
    idx = [header.index(name) for name in names]
    out = np.empty((len(rows), len(names)))
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise InvalidData(
                f"{path} row {r + 2} has {len(row)} fields, header has {len(header)}"
            )
        for c, j in enumerate(idx):
            try:
                out[r, c] = float(row[j])
            except ValueError:
                raise InvalidData(
                    f"{path} row {r + 2}, column '{names[c]}': "
                    f"cannot parse {row[j]!r} as a number"
                ) from None
    return out


SCHEMAS = {
    "finpop": "id,w,y1..ym[,g]",
    "lognormal": "id,w,y[,z1..zk]",
    "qblogit": "id,y,x1..xp",
}


def load_problem(path: str, kind: str) -> LoadedData:
    """Parse an input CSV into the model object for its kind."""
    if kind not in SCHEMAS:
        raise InvalidData(f"unknown model kind {kind!r}")
    header, rows = _read_rows(path)
    if not rows:
        raise InvalidData(f"{path} has a header but no data rows")
    if len(set(header)) != len(header):
        raise InvalidData(f"{path} has duplicate columns")

    def require(*names):
        for name in names:
            if name not in header:
                raise InvalidData(
                    f"missing column '{name}' (schema for {kind}: {SCHEMAS[kind]})"
                )

    require("id")
    ids = tuple(row[header.index("id")] for row in rows)
    if len(set(ids)) < len(ids):
        seen = set()
        for unit_id in ids:
            if unit_id in seen:
                raise InvalidData(f"{path} has duplicate id {unit_id!r}")
            seen.add(unit_id)

    if kind == "finpop":
        require("w")
        y_cols = _numbered(header, "y")
        if not y_cols:
            raise InvalidData(f"missing column 'y1' (schema for finpop: {SCHEMAS['finpop']})")
        allowed = {"id", "w", "g", *y_cols}
        extra = [h for h in header if h not in allowed]
        if extra:
            raise InvalidData(f"unexpected column '{extra[0]}'")
        w = _column_matrix(rows, header, ["w"], path)[:, 0]
        y = _column_matrix(rows, header, y_cols, path)
        groups = None
        if "g" in header:
            g_raw = _column_matrix(rows, header, ["g"], path)[:, 0]
            if np.any(g_raw != np.round(g_raw)):
                raise InvalidData("column 'g' must hold integers")
            groups = g_raw.astype(int)
        return LoadedData(
            problem=finpop_problem(y, w), ids=ids, groups=groups
        )

    if kind == "lognormal":
        require("w", "y")
        z_cols = _numbered(header, "z")
        allowed = {"id", "w", "y", *z_cols}
        extra = [h for h in header if h not in allowed]
        if extra:
            raise InvalidData(f"unexpected column '{extra[0]}'")
        w = _column_matrix(rows, header, ["w"], path)[:, 0]
        y = _column_matrix(rows, header, ["y"], path)[:, 0]
        aux = _column_matrix(rows, header, z_cols, path) if z_cols else None
        return LoadedData(
            problem=lognormal_problem(y, w), ids=ids, aux_columns=aux
        )

    require("y")
    x_cols = _numbered(header, "x")
    if not x_cols:
        raise InvalidData(f"missing column 'x1' (schema for qblogit: {SCHEMAS['qblogit']})")
    allowed = {"id", "y", *x_cols}
    extra = [h for h in header if h not in allowed]
    if extra:
        raise InvalidData(f"unexpected column '{extra[0]}'")
    y = _column_matrix(rows, header, ["y"], path)[:, 0]
    x = _column_matrix(rows, header, x_cols, path)
    return LoadedData(problem=qblogit_problem(x, y), ids=ids)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_theta(path: str, param_names, theta) -> None:
    _write_csv(path, list(param_names), [[_fmt(v) for v in theta]])


def write_gradients(path: str, ids, psi: np.ndarray, param_names) -> None:
    header = ["id"] + [f"grad_{name}" for name in param_names]
    rows = [
        [ids[i]] + [_fmt(v) for v in psi[i]] for i in range(len(ids))
    ]
    _write_csv(path, header, rows)


def write_scheme(path: str, ids, scheme: SamplingScheme) -> None:
    rows = [[ids[i], _fmt(scheme.mu[i])] for i in range(len(ids))]
    _write_csv(path, ["id", "mu"], rows)


def read_scheme(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    header, rows = _read_rows(path)
    if header != ["id", "mu"]:
        raise InvalidData(f"{path}: expected header 'id,mu', got {','.join(header)}")
    ids = tuple(row[0] for row in rows)
    mu = _column_matrix(rows, header, ["mu"], path)[:, 0]
    return ids, mu


def write_trace(path: str, trace: SolveTrace) -> None:
    """One row per objective evaluation; only the last row carries the verdict."""
    rows = []
    last = len(trace.objective_per_iter) - 1
    for t, obj in enumerate(trace.objective_per_iter):
        status = trace.status.value if t == last else "running"
        rows.append([t, _fmt(obj), status])
    _write_csv(path, ["iteration", "objective", "status"], rows)


def write_stage_log(path: str, records, problem: RiskProblem, scheme_files) -> None:
    header = (
        ["stage", "m_k"]
        + [f"theta_{name}" for name in problem.param_names]
        + ["objective", "scheme_file"]
    )
    rows = []
    for rec, scheme_file in zip(records, scheme_files):
        upto = [r for r in records if r.k <= rec.k]
        objective = pooled_risk(upto, problem, rec.theta_hat)
        rows.append(
            [rec.k, rec.m_k]
            + [_fmt(v) for v in rec.theta_hat]
            + [_fmt(objective), scheme_file]
        )
    _write_csv(path, header, rows)


def write_pool(path: str, kind: str, pool: dict) -> None:
    """Emit a synthetic pool in the input schema of its model kind."""
    if kind == "lognormal":
        z = pool["z"]
        header = ["id", "w", "y"] + [f"z{j + 1}" for j in range(z.shape[1])]
        rows = [
            [i + 1, _fmt(pool["w"][i]), _fmt(pool["y"][i])]
            + [_fmt(v) for v in z[i]]
            for i in range(len(pool["y"]))
        ]
    elif kind == "qblogit":
        x = pool["X"]
        header = ["id", "y"] + [f"x{j + 1}" for j in range(x.shape[1])]
        rows = [
            [i + 1, _fmt(pool["y"][i])] + [_fmt(v) for v in x[i]]
            for i in range(len(pool["y"]))
        ]
    elif kind == "finpop":
        y = pool["y"]
        header = ["id", "w"] + [f"y{j + 1}" for j in range(y.shape[1])] + ["g"]
        rows = [
            [i + 1, _fmt(pool["w"][i])]
            + [_fmt(v) for v in y[i]]
            + [int(pool["g"][i])]
            for i in range(len(y))
        ]
    else:
        raise InvalidData(f"unknown model kind {kind!r}")
    _write_csv(path, header, rows)


def write_learning_curve(path: str, rows) -> None:
    """Per-replication first and final stage errors.

    rows: iterable of (replication, stage1_error, final_error).
    """
    out = []
    for rep, first, final in rows:
        out.append([rep, _fmt(first), _fmt(final), _fmt(final / first)])
    _write_csv(path, ["replication", "stage1_error", "final_error", "ratio"], out)
