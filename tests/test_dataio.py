import csv
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdesign import dataio
from subdesign.dataio import (
    load_problem,
    write_gradients,
    write_learning_curve,
    write_pool,
    write_scheme,
    write_stage_log,
    write_theta,
    write_trace,
)
from subdesign.errors import InvalidData, InvalidInput
from subdesign.models import fit_full, lognormal_problem
from subdesign.sampling import DesignFamily, uniform_scheme
from subdesign.sequential import run_k_stages
from subdesign.solver import fixed_point_solve
from subdesign.covariance import gradients_at
from subdesign.criteria import d_opt
from subdesign.synth import finpop_pool, lognormal_pool, pool_problem, qblogit_pool


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestLoadProblem:
    def test_lognormal_round_trip(self, tmp_path):
        pool = lognormal_pool(40, seed=3)
        path = tmp_path / "d.csv"
        write_pool(str(path), "lognormal", pool)
        data = load_problem(str(path), "lognormal")
        reference = pool_problem("lognormal", pool)
        assert data.problem.kind == "lognormal"
        assert data.problem.n_units == 40
        assert np.array_equal(data.problem.data["y"], reference.data["y"])
        assert np.array_equal(data.problem.weights, reference.weights)
        assert data.aux_columns == pytest.approx(pool["z"], rel=1e-15)
        assert data.ids[:3] == ("1", "2", "3")

    def test_finpop_round_trip_with_groups(self, tmp_path):
        pool = finpop_pool(30, seed=5)
        path = tmp_path / "d.csv"
        write_pool(str(path), "finpop", pool)
        data = load_problem(str(path), "finpop")
        reference = pool_problem("finpop", pool)
        assert np.array_equal(data.problem.data["y"], reference.data["y"])
        assert np.array_equal(data.problem.weights, reference.weights)
        assert data.groups is not None
        assert np.array_equal(data.groups, pool["g"])

    def test_qblogit_round_trip(self, tmp_path):
        pool = qblogit_pool(30, seed=1)
        path = tmp_path / "d.csv"
        write_pool(str(path), "qblogit", pool)
        data = load_problem(str(path), "qblogit")
        assert data.problem.data["X"] == pytest.approx(pool["X"], rel=1e-15)
        assert data.problem.data["y"] == pytest.approx(pool["y"], rel=1e-15)

    def test_lognormal_without_aux_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,y\na,1,2\nb,1,3\n", encoding="utf-8")
        data = load_problem(str(path), "lognormal")
        assert data.aux_columns is None
        assert data.ids == ("a", "b")

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,y\n1,2\n2,3\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="missing column 'w'"):
            load_problem(str(path), "lognormal")

    def test_missing_first_outcome_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,y2\n1,1,2\n2,1,3\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="missing column 'y1'"):
            load_problem(str(path), "finpop")

    def test_outcome_gap_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,y1,y3\n1,1,2,4\n2,1,3,5\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="missing column 'y2'"):
            load_problem(str(path), "finpop")

    def test_unexpected_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,y,extra\n1,1,2,0\n2,1,3,0\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="unexpected column 'extra'"):
            load_problem(str(path), "lognormal")

    def test_bad_number_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,y\n1,1,2\n2,oops,3\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="row 3, column 'w'"):
            load_problem(str(path), "lognormal")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,y\n1,1,2\n2,1\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="row 3"):
            load_problem(str(path), "lognormal")

    def test_duplicate_columns_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,w,y\n1,1,1,2\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="duplicate"):
            load_problem(str(path), "lognormal")

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,y\na,1,2\nb,1,3\nc,1,4\nb,1,5\na,1,6\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="duplicate id 'b'"):
            load_problem(str(path), "lognormal")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InvalidData, match="empty"):
            load_problem(str(path), "lognormal")

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,y\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="no data rows"):
            load_problem(str(path), "lognormal")

    @pytest.mark.parametrize(
        "head, rows, tail",
        [
            (b"id,w,\xff\n", 0, b""),
            (b"id,w,y\n", 0, b"\xff,1,2\n"),
            (b"id,w,y\n", 20000, b"u\xff,1,2\n"),
        ],
    )
    def test_non_utf8_bytes_rejected(self, tmp_path, head, rows, tail):
        path = tmp_path / "d.csv"
        path.write_bytes(head + b"".join(b"%d,1,2\n" % i for i in range(rows)) + tail)
        with pytest.raises(InvalidData) as got:
            load_problem(str(path), "lognormal")
        assert str(got.value).startswith(
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position "
        )

    def test_fractional_group_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,y1,g\n1,1,2,0.5\n2,1,3,1\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="'g' must hold integers"):
            load_problem(str(path), "finpop")

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,y\n1,1,2\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match="unknown model kind"):
            load_problem(str(path), "probit")


class TestWriters:
    def test_theta_header_and_values(self, tmp_path):
        path = tmp_path / "theta0.csv"
        write_theta(str(path), ("eta", "sigma"), np.array([1.25, 0.5]))
        header, rows = read_rows(str(path))
        assert header == ["eta", "sigma"]
        assert len(rows) == 1
        assert [float(v) for v in rows[0]] == [1.25, 0.5]

    def test_gradients_layout(self, tmp_path):
        path = tmp_path / "gradients.csv"
        psi = np.array([[1.0, -2.0], [-1.0, 2.0]])
        write_gradients(str(path), ("u1", "u2"), psi, ("eta", "sigma"))
        header, rows = read_rows(str(path))
        assert header == ["id", "grad_eta", "grad_sigma"]
        assert rows[0][0] == "u1"
        assert float(rows[1][2]) == 2.0

    def test_ids_rendered_by_chunk_match_ids_rendered_whole(self, tmp_path):
        # Only the second chunk holds ids that need quoting.
        n_units = dataio._CHUNK_ROWS + 10
        ids = tuple(str(i) for i in range(n_units - 2)) + ('u,1', 'say "hi"')
        scheme = uniform_scheme(n_units, 3.0, DesignFamily.PO_WR)
        write_scheme(str(tmp_path / "chunked.csv"), ids, scheme)
        write_scheme(str(tmp_path / "whole.csv"), dataio.id_fields(ids), scheme)
        chunked = (tmp_path / "chunked.csv").read_bytes()
        assert chunked == (tmp_path / "whole.csv").read_bytes()
        lines = chunked.split(b"\r\n")
        assert lines[-4].startswith(b"%d," % (n_units - 3))
        assert lines[-3].startswith(b'"u,1",')
        assert lines[-2].startswith(b'"say ""hi""",')

    def test_write_pool_holds_one_chunk_of_rows(self, tmp_path):
        # One chunk of 4096 rows of five fields holds about 1.5 MB: its cells
        # as Python objects, their tuple and the formatted text. No N-long
        # structure is built: the N = 1e5 id strings alone would take 6 MB.
        n_units = 100_000
        pool = qblogit_pool(n_units, seed=8)
        write_pool(str(tmp_path / "warm.csv"), "qblogit", qblogit_pool(20, seed=8))
        tracemalloc.start()
        try:
            write_pool(str(tmp_path / "pool.csv"), "qblogit", pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_scheme_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        mu = rng.uniform(0.05, 0.9, size=12)
        scheme = uniform_scheme(12, 3.0, DesignFamily.PO_WOR)
        scheme = type(scheme)(
            mu=mu * (3.0 / mu.sum()), family=scheme.family, budget_n=3.0
        )
        path = tmp_path / "scheme.csv"
        write_scheme(str(path), tuple(str(i) for i in range(12)), scheme)
        header, rows = read_rows(str(path))
        assert header == ["id", "mu"]
        assert [row[0] for row in rows] == [str(i) for i in range(12)]
        assert np.array_equal([float(row[1]) for row in rows], scheme.mu)

    def test_trace_rows_and_statuses(self, tmp_path):
        pool = lognormal_pool(60, seed=2)
        problem = pool_problem("lognormal", pool)
        grads = gradients_at(problem, fit_full(problem).theta0)
        trace = fixed_point_solve(d_opt(), grads, DesignFamily.PO_WR, 10)
        path = tmp_path / "trace.csv"
        write_trace(str(path), trace)
        header, rows = read_rows(str(path))
        assert header == ["iteration", "objective", "status"]
        assert len(rows) == len(trace.objective_per_iter)
        assert all(row[2] == "running" for row in rows[:-1])
        assert rows[-1][2] == trace.status.value
        assert float(rows[0][1]) == trace.objective_per_iter[0]

    def test_stage_log_layout(self, tmp_path):
        pool = finpop_pool(50, seed=4)
        problem = pool_problem("finpop", pool)
        records = run_k_stages(problem, [15, 15], DesignFamily.PO_WR, seed=9)
        path = tmp_path / "stages.csv"
        write_stage_log(
            str(path), records, problem, ["scheme_stage_1.csv", "scheme_stage_2.csv"]
        )
        header, rows = read_rows(str(path))
        assert header[:2] == ["stage", "m_k"]
        assert header[-2:] == ["objective", "scheme_file"]
        assert len(header) == 2 + problem.n_params + 2
        assert [row[0] for row in rows] == ["1", "2"]
        assert [row[1] for row in rows] == ["15", "30"]
        theta_back = np.array([float(v) for v in rows[1][2:-2]])
        assert theta_back == pytest.approx(records[1].theta_hat, rel=1e-15)
        assert [float(row[-2]) for row in rows] == [rec.risk for rec in records]

    def test_learning_curve_ratio_column(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_learning_curve(str(path), [(0, 2.0, 0.5), (1, 4.0, 1.0)])
        header, rows = read_rows(str(path))
        assert header == ["replication", "stage1_error", "final_error", "ratio"]
        assert [float(r[3]) for r in rows] == [0.25, 0.25]

    @pytest.mark.filterwarnings("error")
    def test_learning_curve_zero_first_error_divides_by_ieee_rules(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_learning_curve(str(path), [(0, 0.0, 0.0), (1, 0.0, 0.5)])
        _, rows = read_rows(str(path))
        assert [r[3] for r in rows] == ["nan", "inf"]

    def test_pool_files_match_schema(self, tmp_path):
        finpop = tmp_path / "finpop.csv"
        write_pool(str(finpop), "finpop", finpop_pool(20, seed=0))
        header, rows = read_rows(str(finpop))
        assert header == ["id", "w", "y1", "y2", "y3", "g"]
        assert len(rows) == 20
        qb = tmp_path / "qblogit.csv"
        write_pool(str(qb), "qblogit", qblogit_pool(20, seed=0))
        header, rows = read_rows(str(qb))
        assert header == ["id", "y", "x1", "x2", "x3"]
        assert all(float(row[2]) == 1.0 for row in rows)


# Reference implementations: the per-cell reader and the csv.writer-based
# writer that the column-wise paths in dataio must match byte for byte.

COLUMN_GROUPS = {
    "finpop": lambda header: [["w"], numbered(header, "y"), ["g"] if "g" in header else []],
    "lognormal": lambda header: [["w"], ["y"], numbered(header, "z")],
    "qblogit": lambda header: [["y"], numbered(header, "x")],
}


def numbered(header, prefix):
    cols = [h for h in header if h[:1] == prefix and h[1:].isdigit()]
    return sorted(cols, key=lambda h: int(h[1:]))


def reference_parse(path, kind):
    """Ids and one matrix per column group, parsed row by row and cell by cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = [row for row in reader if row]
    ids = tuple(row[header.index("id")] for row in rows)
    matrices = []
    for names in COLUMN_GROUPS[kind](header):
        out = np.empty((len(rows), len(names)))
        for r, row in enumerate(rows):
            if len(row) != len(header):
                raise InvalidData(
                    f"{path} row {r + 2} has {len(row)} fields, header has {len(header)}"
                )
            for c, name in enumerate(names):
                cell = row[header.index(name)]
                try:
                    out[r, c] = float(cell)
                except ValueError:
                    raise InvalidData(
                        f"{path} row {r + 2}, column '{name}': "
                        f"cannot parse {cell!r} as a number"
                    ) from None
        matrices.append(out)
    return ids, matrices


def reference_write(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def fmt(v):
    return format(float(v), ".17g")


def reference_pool_rows(kind, pool):
    if kind == "lognormal":
        return [
            [i + 1, fmt(pool["w"][i]), fmt(pool["y"][i])] + [fmt(v) for v in pool["z"][i]]
            for i in range(len(pool["y"]))
        ]
    if kind == "qblogit":
        return [
            [i + 1, fmt(pool["y"][i])] + [fmt(v) for v in pool["X"][i]]
            for i in range(len(pool["y"]))
        ]
    return [
        [i + 1, fmt(pool["w"][i])] + [fmt(v) for v in pool["y"][i]] + [int(pool["g"][i])]
        for i in range(len(pool["y"]))
    ]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 2.0, -3.0, 1e16]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
unit_ids = st.one_of(
    st.sampled_from(["a,b", 'q"t', "line\nbreak", "cr\rlf", " lead", "", "7"]),
    st.text(max_size=6),
)
# N = 1, a few chunks with a partial last one, and exact multiples.
sizes_and_chunks = st.tuples(st.integers(1, 40), st.sampled_from([1, 3, 7, 4096]))


class TestWriterParity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), shape=sizes_and_chunks, p=st.integers(1, 4))
    def test_scheme_and_gradients_bytes(self, tmp_path_factory, data, shape, p):
        n, chunk = shape
        ids = data.draw(st.lists(unit_ids, min_size=n, max_size=n))
        psi = np.array(data.draw(st.lists(floats, min_size=n * p, max_size=n * p))).reshape(n, p)
        names = tuple(f"t{j}" for j in range(p))
        scheme = uniform_scheme(n, 1.0, DesignFamily.PO_WR)
        scheme = type(scheme)(mu=psi[:, 0].copy(), family=scheme.family, budget_n=1.0)
        out = tmp_path_factory.mktemp("w")
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk):
            write_gradients(str(out / "g.csv"), ids, psi, names)
            write_scheme(str(out / "s.csv"), ids, scheme)
        reference_write(
            str(out / "g_ref.csv"),
            ["id"] + [f"grad_{name}" for name in names],
            [[ids[i]] + [fmt(v) for v in psi[i]] for i in range(n)],
        )
        reference_write(
            str(out / "s_ref.csv"), ["id", "mu"], [[ids[i], fmt(psi[i, 0])] for i in range(n)]
        )
        assert (out / "g.csv").read_bytes() == (out / "g_ref.csv").read_bytes()
        assert (out / "s.csv").read_bytes() == (out / "s_ref.csv").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(["lognormal", "qblogit", "finpop"]),
        shape=sizes_and_chunks,
        k=st.integers(1, 3),
    )
    def test_pool_bytes(self, tmp_path_factory, data, kind, shape, k):
        n, chunk = shape

        def column(width=None):
            size = n * (width or 1)
            values = np.array(data.draw(st.lists(floats, min_size=size, max_size=size)))
            return values.reshape(n, width) if width else values

        if kind == "lognormal":
            pool = {"w": column(), "y": column(), "z": column(k)}
            header = ["id", "w", "y"] + [f"z{j + 1}" for j in range(k)]
        elif kind == "qblogit":
            pool = {"y": column(), "X": column(k)}
            header = ["id", "y"] + [f"x{j + 1}" for j in range(k)]
        else:
            groups = data.draw(st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n))
            pool = {"w": column(), "y": column(k), "g": np.array(groups, dtype=object)}
            if data.draw(st.booleans()):
                pool["g"] = np.array([g % 7 for g in groups], dtype=np.int64)
            header = ["id", "w"] + [f"y{j + 1}" for j in range(k)] + ["g"]
        out = tmp_path_factory.mktemp("p")
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk):
            write_pool(str(out / "pool.csv"), kind, pool)
        reference_write(str(out / "ref.csv"), header, reference_pool_rows(kind, pool))
        assert (out / "pool.csv").read_bytes() == (out / "ref.csv").read_bytes()

    def test_rows_beyond_one_default_chunk(self, tmp_path):
        n = 2 * dataio._CHUNK_ROWS + 5
        pool = finpop_pool(n, seed=8)
        write_pool(str(tmp_path / "pool.csv"), "finpop", pool)
        header = ["id", "w", "y1", "y2", "y3", "g"]
        reference_write(str(tmp_path / "ref.csv"), header, reference_pool_rows("finpop", pool))
        assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def cell_text(value, style):
    """One number as it may appear in a hand-written CSV cell."""
    text = repr(value)
    if style == "quoted":
        return f'"{text}"'
    if style == "padded":
        return f"  {text} "
    if style == "underscore" and math.isfinite(value) and value.is_integer():
        digits = f"{int(value):d}"
        if len(digits.lstrip("-")) > 3:
            return digits[:-3] + "_" + digits[-3:]
    return text


positive = st.floats(min_value=1e-300, max_value=1e300)


class TestReaderParity:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 30),
        k=st.integers(0, 3),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_lognormal_arrays_match_per_cell_parse(self, tmp_path_factory, data, n, k, newline):
        styles = st.sampled_from(["plain", "quoted", "padded", "underscore"])
        integral = st.integers(-(10**6), 10**6).map(float)
        lines = [",".join(["id", "w", "y"] + [f"z{j + 1}" for j in range(k)])]
        for i in range(n):
            w = data.draw(positive)
            y = data.draw(st.one_of(positive, st.integers(1, 10**6).map(float)))
            z = [data.draw(st.one_of(floats, integral)) for _ in range(k)]
            cells = [cell_text(v, data.draw(styles)) for v in (w, y, *z)]
            lines.append(",".join([f"u{i}", *cells]))
            if data.draw(st.booleans()):
                lines.append("")
        path = tmp_path_factory.mktemp("r") / "d.csv"
        path.write_bytes(newline.join(lines).encode() + newline.encode())
        ids, (w, y, z) = reference_parse(str(path), "lognormal")
        if not np.all(np.isfinite(z)):
            # Auxiliary cells must be finite; the first such column is named.
            bad = int(np.argmin(np.all(np.isfinite(z), axis=0)))
            with pytest.raises(InvalidData, match=f"^column 'z{bad + 1}' must hold finite"):
                load_problem(str(path), "lognormal")
            return
        loaded = load_problem(str(path), "lognormal")
        assert loaded.ids == ids
        assert same_bits(loaded.problem.data["y"], y[:, 0])
        assert same_bits(loaded.problem.weights, lognormal_problem(y[:, 0], w[:, 0]).weights)
        if k:
            assert same_bits(loaded.aux_columns, z)
        else:
            assert loaded.aux_columns is None

    @pytest.mark.parametrize("kind", ["finpop", "qblogit"])
    def test_pool_arrays_match_per_cell_parse(self, tmp_path, kind):
        pool = finpop_pool(257, seed=2) if kind == "finpop" else qblogit_pool(257, seed=2)
        path = tmp_path / "d.csv"
        write_pool(str(path), kind, pool)
        loaded = load_problem(str(path), kind)
        ids, matrices = reference_parse(str(path), kind)
        assert loaded.ids == ids
        if kind == "finpop":
            assert same_bits(loaded.problem.data["y"], matrices[1])
            assert np.array_equal(loaded.groups, matrices[2][:, 0].astype(int))
        else:
            assert same_bits(loaded.problem.data["y"], matrices[0][:, 0])
            assert same_bits(loaded.problem.data["X"], matrices[1])
            assert loaded.problem.data["X"].flags.c_contiguous


MALFORMED = {
    "bad cell": "id,w,y\na,1,2\nb,1,oops\nc,1,3\n",
    "short row": "id,w,y\na,1,2\nb,1\nc,1,3\n",
    "long row": "id,w,y\na,1,2\nb,1,3,4\nc,1,3\n",
    "bad cell then ragged": "id,w,y\na,x,2\nb,1\n",
    "ragged then bad cell": "id,w,y\na,1\nb,x,2\n",
    "bad later column then ragged": "id,w,y\na,1,x\nb,1\n",
    "ragged then bad later column": "id,w,y\na,1\nb,1,x\n",
    "bad cell after a blank line": "id,w,y\n\na,1,2\n\nb,1,\n",
}


class TestErrorParity:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_message_matches_per_cell_parse(self, tmp_path, case):
        path = tmp_path / "d.csv"
        path.write_text(MALFORMED[case], encoding="utf-8")
        with pytest.raises(InvalidData) as expected:
            reference_parse(str(path), "lognormal")
        with pytest.raises(InvalidData) as got:
            load_problem(str(path), "lognormal")
        assert str(got.value) == str(expected.value)

    def test_row_too_short_for_its_id_is_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("w,y,id\n1,2,a\n1,3\n", encoding="utf-8")
        with pytest.raises(InvalidData, match=r"row 3 has 2 fields, header has 3"):
            load_problem(str(path), "lognormal")

    def test_first_ragged_row_is_named_when_an_id_is_missing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("w,y,id\n1,2,a,9\n1,3\n", encoding="utf-8")
        with pytest.raises(InvalidData, match=r"row 2 has 4 fields, header has 3"):
            load_problem(str(path), "lognormal")


class TestNoPerCellLoop:
    @pytest.mark.parametrize("kind", ["lognormal", "finpop", "qblogit"])
    def test_valid_files_skip_the_per_cell_paths(self, tmp_path, kind, monkeypatch):
        pools = {"lognormal": lognormal_pool, "finpop": finpop_pool, "qblogit": qblogit_pool}
        path = tmp_path / "d.csv"
        write_pool(str(path), kind, pools[kind](1000, seed=4))

        def forbidden(*args, **kwargs):
            raise AssertionError("per-cell path used on a valid table")

        monkeypatch.setattr(dataio, "_read_rows", forbidden)
        monkeypatch.setattr(dataio, "_parse_cells", forbidden)
        monkeypatch.setattr(dataio, "_fmt", forbidden)
        data = load_problem(str(path), kind)
        grads = gradients_at(data.problem, fit_full(data.problem).theta0)
        write_gradients(str(tmp_path / "g.csv"), data.ids, grads.psi, data.problem.param_names)
        scheme = uniform_scheme(data.problem.n_units, 10.0, DesignFamily.PO_WOR)
        write_scheme(str(tmp_path / "s.csv"), data.ids, scheme)
        write_pool(str(tmp_path / "again.csv"), kind, pools[kind](1000, seed=4))
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


# (lognormal CSV text, exact message or None; {path} stands for the file).
# With None, the outcome must be that of csv.reader plus float(): the same
# ids and bits, or the same message for a malformed file.
LOADER_EDGES = {
    "trailing extra field": ("id,w,y\na,1,2,\nb,1,3\n", None),
    "whitespace-only line": ("id,w,y\na,1,2\n   \nb,1,3\n", None),
    "form-feed line": ("id,w,y\na,1,2\n\f\nb,1,3\n", None),
    "lone CR line endings": ("id,w,y\ra,1,2\rb,1,3\r", None),
    "quoted ids": ('id,w,y\n"a,b",1,2\n"q""t",1,3\n"line\nbreak",1,4\n"cr\r\nlf",1,5\n', None),
    "padded ids": ("id,w,y\n lead,1,2\ntrail ,1,3\n both ,1,4\n", None),
    "padded and quoted cells": ('id,w,y\na, 1.5 ,"2"\nb,"3", 4e-1\n', None),
    "header only": ("id,w,y\n", "{path} has a header but no data rows"),
    "header and blank lines": ("id,w,y\r\n\r\n\r\n", "{path} has a header but no data rows"),
    "BOM header": (
        "\ufeffid,w,y\na,1,2\n", "missing column 'id' (schema for lognormal: id,w,y[,z1..zk])"
    ),
    "underscore numeral": ("id,w,y\na,1,1_000\nb,1,3\n", None),
    "Arabic-Indic digit": ("id,w,y\na,1,\u0661\nb,1,3\n", None),
    "separator-padded cell": ("id,w,y\na,1,2\x1f\nb,1,3\n", None),
    "separator in an id": ("id,w,y\na\x1cb,1,2\nb,1,3\n", None),
}
# Numerals that float() reads and numpy does not, and files holding one of
# the separators U+001C-U+001F: these load cell by cell.
CSV_ONLY = {"underscore numeral", "Arabic-Indic digit", "separator in an id"}


@pytest.mark.filterwarnings("error::UserWarning", "error::RuntimeWarning")
class TestLoaderEdges:
    @pytest.mark.parametrize("case", sorted(LOADER_EDGES))
    def test_matches_csv_and_float(self, tmp_path, case, monkeypatch):
        text, message = LOADER_EDGES[case]
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        calls = []
        parse_cells = dataio._parse_cells

        def counted(*args):
            calls.append(args)
            return parse_cells(*args)

        monkeypatch.setattr(dataio, "_parse_cells", counted)
        if message is not None:
            message = message.format(path=path)
        else:
            try:
                ids, (w, y, _) = reference_parse(str(path), "lognormal")
            except InvalidData as err:
                message = str(err)
        if message is not None:
            with pytest.raises(InvalidData) as got:
                load_problem(str(path), "lognormal")
            assert str(got.value) == message
            return
        loaded = load_problem(str(path), "lognormal")
        assert loaded.ids == ids
        assert same_bits(loaded.problem.data["y"], y[:, 0])
        assert same_bits(loaded.problem.weights, lognormal_problem(y[:, 0], w[:, 0]).weights)
        assert bool(calls) == (case in CSV_ONLY)


ODD_CELLS = [
    "1", "2.5", " 0.25 ", '"3"', "1e3", "1_000", "\u0661", "nan", "-inf",
    "", "x", "0x10", "1e", '"1"x', '"4,5"', '"6\n"', "7\x1c", "\x1f8",
]
ODD_IDS = ["u{}", '"u,{}"', '"q""{}"', '"l\r\n{}"', " u{} ", "{}"]


@pytest.mark.filterwarnings("error::UserWarning", "error::RuntimeWarning")
class TestReaderParityOnOddText:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), newline=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_outcome_matches_csv_and_float(self, tmp_path_factory, data, newline):
        lines = ["id,w,y"]
        for i in range(data.draw(st.integers(1, 6))):
            width = data.draw(st.sampled_from([3, 3, 3, 3, 2, 4]))
            cells = [data.draw(st.sampled_from(ODD_IDS)).format(i)]
            cells += [data.draw(st.sampled_from(ODD_CELLS)) for _ in range(width - 1)]
            lines.append(",".join(cells))
            # Blank lines are skipped; whitespace lines are one-field rows,
            # kept distinct since the reference does not check ids.
            lines += data.draw(st.sampled_from([[], [""], [" " * (i + 1)], ["\f" * (i + 1)]]))
        path = tmp_path_factory.mktemp("odd") / "d.csv"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        try:
            ids, (w, y, _) = reference_parse(str(path), "lognormal")
            expected = lognormal_problem(y[:, 0], w[:, 0])
        except InvalidData as err:
            with pytest.raises(type(err)) as got:
                load_problem(str(path), "lognormal")
            assert str(got.value) == str(err)
            return
        loaded = load_problem(str(path), "lognormal")
        assert loaded.ids == ids
        assert same_bits(loaded.problem.data["y"], expected.data["y"])
        assert same_bits(loaded.problem.weights, expected.weights)


FINPOP_SCHEMA = "(schema for finpop: id,w,y1..ym[,g])"
LOGNORMAL_SCHEMA = "(schema for lognormal: id,w,y[,z1..zk])"
QBLOGIT_SCHEMA = "(schema for qblogit: id,y,x1..xp)"


def bad_cell(row, column, text="x"):
    return f"{{path}} row {row}, column '{column}': cannot parse {text!r} as a number"


# (model, CSV text, exact message; {path} stands for the file). Header checks
# run as: id, required scalars, the numbered block, unexpected columns. Cells
# are parsed one column group at a time in schema order (scalars, block,
# optional), whatever the header order; inside a group the first bad row wins.
MESSAGE_PINS = {
    "finpop missing id": ("finpop", "w,y1\n1,2\n", f"missing column 'id' {FINPOP_SCHEMA}"),
    "finpop missing scalar": ("finpop", "id,y1\n1,2\n", f"missing column 'w' {FINPOP_SCHEMA}"),
    "finpop missing scalar before unexpected": (
        "finpop", "id,x1,y1\n1,1,2\n", f"missing column 'w' {FINPOP_SCHEMA}"),
    "finpop missing block": ("finpop", "id,w\n1,1\n", f"missing column 'y1' {FINPOP_SCHEMA}"),
    "finpop missing first block column": ("finpop", "id,w,y2\n1,1,2\n", "missing column 'y1'"),
    "finpop missing block before unexpected": (
        "finpop", "id,w,x1\n1,1,2\n", f"missing column 'y1' {FINPOP_SCHEMA}"),
    "finpop block gap": ("finpop", "id,w,y1,y3\n1,1,2,3\n", "missing column 'y2'"),
    "finpop block gap before unexpected": (
        "finpop", "id,w,q,y1,y3\n1,1,0,2,3\n", "missing column 'y2'"),
    "finpop unexpected column": (
        "finpop", "id,w,y1,g,z1\n1,1,2,0,3\n", "unexpected column 'z1'"),
    "finpop bad w then bad y": (
        "finpop", "id,y1,y2,w,g\n1,1,2,x,0\n2,1,x,1,0\n", bad_cell(2, "w")),
    "finpop bad y then bad w": (
        "finpop", "id,y1,y2,w,g\n1,1,x,1,0\n2,1,2,x,0\n", bad_cell(3, "w")),
    "finpop bad y then bad g": (
        "finpop", "id,w,y1,g\n1,1,x,0\n2,1,2,x\n", bad_cell(2, "y1")),
    "finpop bad g then bad y": (
        "finpop", "id,w,y1,g\n1,1,2,x\n2,1,x,0\n", bad_cell(3, "y1")),
    "finpop block cells in row order": (
        "finpop", "id,w,y1,y2\n1,1,2,x\n2,1,x,3\n", bad_cell(2, "y2")),
    "lognormal missing id": ("lognormal", "w,y\n1,2\n", f"missing column 'id' {LOGNORMAL_SCHEMA}"),
    "lognormal missing first scalar": (
        "lognormal", "id,y\n1,2\n", f"missing column 'w' {LOGNORMAL_SCHEMA}"),
    "lognormal missing second scalar": (
        "lognormal", "id,w,z1\n1,1,2\n", f"missing column 'y' {LOGNORMAL_SCHEMA}"),
    "lognormal missing scalar before unexpected": (
        "lognormal", "id,w,x1\n1,1,2\n", f"missing column 'y' {LOGNORMAL_SCHEMA}"),
    "lognormal missing first block column": (
        "lognormal", "id,w,y,z2\n1,1,2,3\n", "missing column 'z1'"),
    "lognormal block gap": ("lognormal", "id,w,y,z1,z3\n1,1,2,3,4\n", "missing column 'z2'"),
    "lognormal block gap before unexpected": (
        "lognormal", "id,w,y,g,z3\n1,1,2,0,4\n", "missing column 'z1'"),
    "lognormal unexpected column": (
        "lognormal", "id,w,y,z1,g\n1,1,2,3,0\n", "unexpected column 'g'"),
    "lognormal bad w then bad y": (
        "lognormal", "id,y,w\n1,2,x\n2,x,1\n", bad_cell(2, "w")),
    "lognormal bad y then bad w": (
        "lognormal", "id,y,w\n1,x,1\n2,2,x\n", bad_cell(3, "w")),
    "lognormal bad y then bad z": (
        "lognormal", "id,w,y,z1\n1,1,x,0\n2,1,2,x\n", bad_cell(2, "y")),
    "lognormal bad z then bad y": (
        "lognormal", "id,w,y,z1\n1,1,2,x\n2,1,x,0\n", bad_cell(3, "y")),
    "qblogit missing id": ("qblogit", "y,x1\n1,2\n", f"missing column 'id' {QBLOGIT_SCHEMA}"),
    "qblogit missing scalar": ("qblogit", "id,x1\n1,1\n", f"missing column 'y' {QBLOGIT_SCHEMA}"),
    "qblogit missing scalar before unexpected": (
        "qblogit", "id,w,x1\n1,1,1\n", f"missing column 'y' {QBLOGIT_SCHEMA}"),
    "qblogit missing block": ("qblogit", "id,y\n1,0.5\n", f"missing column 'x1' {QBLOGIT_SCHEMA}"),
    "qblogit missing first block column": ("qblogit", "id,y,x2\n1,0.5,1\n", "missing column 'x1'"),
    "qblogit block gap": ("qblogit", "id,y,x1,x3\n1,0.5,1,2\n", "missing column 'x2'"),
    "qblogit unexpected column": ("qblogit", "id,y,x1,w\n1,0.5,1,1\n", "unexpected column 'w'"),
    "qblogit bad y then bad x": (
        "qblogit", "id,x1,y\n1,1,x\n2,x,0.5\n", bad_cell(2, "y")),
    "qblogit bad x then bad y": (
        "qblogit", "id,x1,y\n1,x,0.5\n2,1,x\n", bad_cell(3, "y")),
}


class TestMessagePins:
    @pytest.mark.parametrize("case", sorted(MESSAGE_PINS))
    def test_exact_message(self, tmp_path, case):
        kind, text, expected = MESSAGE_PINS[case]
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidData) as got:
            load_problem(str(path), kind)
        assert str(got.value) == expected.format(path=path)


class TestAuxiliaryCells:
    @pytest.mark.parametrize(
        "kind, text, column",
        [
            ("lognormal", "id,w,y,z1\n1,1,2,nan\n2,1,3,0\n", "z1"),
            ("lognormal", "id,w,y,z1,z2\n1,1,2,0,0\n2,1,3,0,-inf\n", "z2"),
            ("finpop", "id,w,y1,g\n1,1,2,inf\n2,1,3,0\n", "g"),
            ("finpop", "id,w,y1,g\n1,1,2,0\n2,1,3,-inf\n", "g"),
        ],
    )
    def test_non_finite_auxiliary_cells_are_rejected(self, tmp_path, kind, text, column):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidData, match=f"column '{column}'"):
            load_problem(str(path), kind)
