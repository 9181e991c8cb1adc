"""CSV ingestion and emission.

Each model's input schema (header row mandatory, UTF-8, dot decimals) is its
entry in ``models.MODELS``: ``id``, the model's scalar columns, one numbered
block such as ``y1..ym``, and optional columns. Header checks run in that
order, and cells are parsed one column group at a time in the same order.

Unknown columns are rejected rather than ignored so that a typo in a header
fails loudly instead of silently dropping data.

One ``np.loadtxt`` call reads the table into a record array (``id`` as text,
the other columns as the float64 bits ``float()`` gives, every row as wide as
the header). Any other table (malformed, header only, or holding ``1_000``
or another numeral or padding that only one of numpy and ``float()`` takes)
goes through ``csv`` and a cell-by-cell parse, which names the first bad row
and column. The unit tables (scheme, gradients, synthetic pools) are written
a chunk of rows at a time through one printf-style row template, which gives
the same bytes as ``csv.writer`` with ``format(v, ".17g")``.
"""

from __future__ import annotations

import csv
import io
import mmap
import re
import warnings
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import InvalidData
from .models import RiskProblem, model_spec
from .sampling import SamplingScheme


@dataclass(frozen=True)
class LoadedData:
    """A parsed input table: the model object plus everything around it.

    ``aux_columns`` is the ``z1..zk`` block and ``groups`` the ``g`` column,
    for models whose schema has them.
    """

    problem: RiskProblem
    ids: tuple[str, ...]
    aux_columns: np.ndarray | None = None
    groups: np.ndarray | None = None


def _read_table(path: str) -> tuple[list[str], np.ndarray] | None:
    """The header and the data as one record array, or None if numpy refuses them.

    A file holding one of U+001C-U+001F is left to the csv path: numpy strips
    them around a number, ``float()`` does not.
    """
    try:
        with open(path, "rb") as raw, mmap.mmap(raw.fileno(), 0, access=mmap.ACCESS_READ) as m:
            if any(m.find(bytes([c])) >= 0 for c in range(0x1C, 0x20)):
                return None
        with open(path, newline="", encoding="utf-8") as fh:
            header = [h.strip() for h in next(csv.reader(fh))]
            dtype = [(name, object if name == "id" else float) for name in header]
            with warnings.catch_warnings():  # a header-only file: the csv path names it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    fh, dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
                )
    except (OSError, StopIteration, ValueError):
        return None
    return (header, table) if len(table) else None


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InvalidData(f"{path} is empty")
            rows = [row for row in reader if row]
    except (OSError, UnicodeDecodeError) as err:
        raise InvalidData(f"cannot read {path}: {err}") from err
    return [h.strip() for h in header], rows


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


def _ragged(path, r, row, header) -> InvalidData:
    return InvalidData(
        f"{path} row {r + 2} has {len(row)} fields, header has {len(header)}"
    )


def _parse_cells(rows, header, names, path):
    """Parse the named columns row by row, naming the first bad cell or row."""
    idx = [header.index(name) for name in names]
    out = np.empty((len(rows), len(names)))
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise _ragged(path, r, row, header)
        for c, j in enumerate(idx):
            try:
                out[r, c] = float(row[j])
            except ValueError:
                raise InvalidData(
                    f"{path} row {r + 2}, column '{names[c]}': "
                    f"cannot parse {row[j]!r} as a number"
                ) from None
    return out


def load_problem(path: str, kind: str) -> LoadedData:
    """Parse an input CSV into the model object for its kind."""
    spec = model_spec(kind)
    header, rows = _read_table(path) or _read_rows(path)
    if len(rows) == 0:
        raise InvalidData(f"{path} has a header but no data rows")
    if len(set(header)) != len(header):
        raise InvalidData(f"{path} has duplicate columns")

    def require(*names):
        for name in names:
            if name not in header:
                raise InvalidData(
                    f"missing column '{name}' (schema for {kind}: {spec.schema})"
                )

    require("id")
    if isinstance(rows, np.ndarray):
        ids = tuple(rows["id"])

        def matrix(names):
            return np.column_stack([rows[name] for name in names])

    else:
        # The per-cell parser names a bad cell or ragged row after the header checks.
        id_col = header.index("id")
        if any(len(row) <= id_col for row in rows):
            r = next(r for r, row in enumerate(rows) if len(row) != len(header))
            raise _ragged(path, r, rows[r], header)
        ids = tuple(map(itemgetter(id_col), rows))

        def matrix(names):
            return _parse_cells(rows, header, names, path)

    if len(set(ids)) < len(ids):
        seen = set()
        for unit_id in ids:
            if unit_id in seen:
                raise InvalidData(f"{path} has duplicate id {unit_id!r}")
            seen.add(unit_id)

    require(*spec.scalars)
    block = _numbered(header, spec.block)
    if spec.block_required and not block:
        require(f"{spec.block}1")
    allowed = {"id", *spec.scalars, *block, *spec.optional}
    extra = [h for h in header if h not in allowed]
    if extra:
        raise InvalidData(f"unexpected column '{extra[0]}'")
    cols = {name: matrix([name])[:, 0] for name in spec.scalars}
    if block:
        cols[spec.block_key] = matrix(block)
    for name in spec.optional:
        if name in header:
            cols[name] = matrix([name])[:, 0]
    del rows, matrix  # the table, now copied into the columns and the ids

    aux, groups = cols.get("z"), cols.get("g")
    if aux is not None and not np.all(np.isfinite(aux)):
        bad = block[int(np.argmin(np.all(np.isfinite(aux), axis=0)))]
        raise InvalidData(f"column '{bad}' must hold finite numbers")
    if groups is not None:
        if not np.all(np.isfinite(groups) & (groups == np.round(groups))):
            raise InvalidData("column 'g' must hold integers")
        groups = groups.astype(int)
    return LoadedData(problem=spec.build(cols), ids=ids, aux_columns=aux, groups=groups)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# Rows per formatted chunk of a unit table: large enough that the per-chunk
# overhead vanishes, small enough that no file-sized string is ever built.
_CHUNK_ROWS = 4096


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]


class IdFields(tuple):
    """Ids as ``csv.writer`` writes them, ready for several unit tables."""


def id_fields(ids) -> IdFields:
    """The ids as ``csv.writer`` writes them: quoted only where they must be.

    The unit writers take the result in place of the ids and use it as it is,
    so a command that writes several tables renders its ids once.
    """
    if isinstance(ids, IdFields):
        return ids
    texts = list(map(str, ids))
    if any(ch in "".join(texts) for ch in ',"\r\n'):
        texts = [_csv_field(t) for t in texts]
    return IdFields(texts)


def _write_units(path: str, header, ids, columns, groups=None) -> None:
    """One row per unit: its id, each column as ``%.17g``, then any integer group.

    Each chunk of rows is one ``%`` call on a repeated row template. ``'%.17g'
    % v`` is ``format(v, '.17g')`` for every float and ``'%d' % v`` is
    ``str(int(v))``, so the bytes are those of ``csv.writer`` with
    :func:`_fmt`. ``ids`` is a sequence (a tuple, a range) or the
    :class:`IdFields` of one; any but the latter is rendered a chunk at a
    time, so no more than a chunk of id strings exists at once. A field
    needs quoting by what it holds alone, so the chunks render as the whole
    would.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    fields = ["%s"] + ["%.17g"] * len(columns)
    if groups is not None:
        columns.append(np.asarray(groups))
        fields.append("%d")
    width = len(fields)
    row = ",".join(fields) + "\r\n"
    full_chunk = row * _CHUNK_ROWS
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(ids), _CHUNK_ROWS):
            m = min(_CHUNK_ROWS, len(ids) - start)
            cells = [None] * (m * width)
            chunk_ids = ids[start:start + m]
            cells[::width] = chunk_ids if isinstance(ids, IdFields) else id_fields(chunk_ids)
            for j, col in enumerate(columns, 1):
                cells[j::width] = col[start:start + m].tolist()
            template = full_chunk if m == _CHUNK_ROWS else row * m
            fh.write(template % tuple(cells))


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_theta(path: str, param_names, theta) -> None:
    _write_csv(path, list(param_names), [[_fmt(v) for v in theta]])


def write_gradients(path: str, ids, psi: np.ndarray, param_names) -> None:
    header = ["id"] + [f"grad_{name}" for name in param_names]
    _write_units(path, header, ids, list(psi.T))


def write_scheme(path: str, ids, scheme: SamplingScheme) -> None:
    _write_units(path, ["id", "mu"], ids, [scheme.mu])


def write_trace(path: str, trace) -> None:
    """One row per objective evaluation of a ``solver.SolveTrace``; only the last
    row carries the verdict."""
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
        rows.append(
            [rec.k, rec.m_k] + [_fmt(v) for v in rec.theta_hat] + [_fmt(rec.risk), scheme_file]
        )
    _write_csv(path, header, rows)


def write_pool(path: str, kind: str, pool: dict) -> None:
    """Emit a synthetic pool in the input schema of its model kind."""
    spec = model_spec(kind)
    block = pool[spec.block_key]
    header = ["id", *spec.scalars] + [f"{spec.block}{j + 1}" for j in range(block.shape[1])]
    columns = [pool[name] for name in spec.scalars] + list(block.T)
    groups = pool["g"] if "g" in spec.optional else None
    if groups is not None:
        header.append("g")
    _write_units(path, header, range(1, len(columns[0]) + 1), columns, groups)


def error_ratio(final: float, first: float) -> float:
    """final / first by IEEE rules, without a warning: x/0 is inf, 0/0 is nan.

    A census first stage recovers the full-data fit exactly, so its error,
    the denominator, can be 0.0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(final) / first)


def write_learning_curve(path: str, rows) -> None:
    """Per-replication first and final stage errors and their ratio.

    rows: iterable of (replication, stage1_error, final_error).
    """
    out = []
    for rep, first, final in rows:
        out.append([rep, _fmt(first), _fmt(final), _fmt(error_ratio(final, first))])
    _write_csv(path, ["replication", "stage1_error", "final_error", "ratio"], out)
