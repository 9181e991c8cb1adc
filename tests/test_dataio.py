import csv

import numpy as np
import pytest

from subdesign.dataio import (
    load_problem,
    read_scheme,
    write_gradients,
    write_learning_curve,
    write_pool,
    write_scheme,
    write_stage_log,
    write_theta,
    write_trace,
)
from subdesign.errors import InvalidData
from subdesign.models import fit_full
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

    def test_fractional_group_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,y1,g\n1,1,2,0.5\n2,1,3,1\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="'g' must hold integers"):
            load_problem(str(path), "finpop")

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,w,y\n1,1,2\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="unknown model kind"):
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

    def test_scheme_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        mu = rng.uniform(0.05, 0.9, size=12)
        scheme = uniform_scheme(12, 3.0, DesignFamily.PO_WOR)
        scheme = type(scheme)(
            mu=mu * (3.0 / mu.sum()), family=scheme.family, budget_n=3.0
        )
        path = tmp_path / "scheme.csv"
        write_scheme(str(path), tuple(str(i) for i in range(12)), scheme)
        ids, back = read_scheme(str(path))
        assert ids == tuple(str(i) for i in range(12))
        assert np.array_equal(back, scheme.mu)

    def test_read_scheme_rejects_other_header(self, tmp_path):
        path = tmp_path / "scheme.csv"
        path.write_text("id,weight\n1,0.5\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="expected header 'id,mu'"):
            read_scheme(str(path))

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

    def test_learning_curve_ratio_column(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_learning_curve(str(path), [(0, 2.0, 0.5), (1, 4.0, 1.0)])
        header, rows = read_rows(str(path))
        assert header == ["replication", "stage1_error", "final_error", "ratio"]
        assert [float(r[3]) for r in rows] == [0.25, 0.25]

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
