import csv
import io
import math

import numpy as np
import pytest

from subdesign import cli, errors, sequential
from subdesign.cli import main
from subdesign.dataio import write_pool
from subdesign.models import weighted_fit
from subdesign.sampling import DesignFamily
from subdesign.sequential import run_k_stages
from subdesign.synth import finpop_pool, lognormal_pool, pool_problem, qblogit_pool


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture
def lognormal_csv(tmp_path):
    path = tmp_path / "lognormal.csv"
    write_pool(str(path), "lognormal", lognormal_pool(200, seed=6))
    return str(path)


@pytest.fixture
def finpop_csv(tmp_path):
    path = tmp_path / "finpop.csv"
    write_pool(str(path), "finpop", finpop_pool(200, seed=6))
    return str(path)


class TestFit:
    def test_finpop_toy_mean(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        data.write_text("id,w,y1,y2\n1,1,0,0\n2,1,1,1\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["fit", "--input", str(data), "--model", "finpop", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_rows(out / "theta0.csv")
        assert [float(v) for v in rows[0]] == pytest.approx([0.5, 0.5], abs=1e-12)
        grad_header, grad_rows = read_rows(out / "gradients.csv")
        assert grad_header[0] == "id"
        assert len(grad_header) == 3
        assert len(grad_rows) == 2

    def test_lognormal_toy_closed_form(self, tmp_path):
        data = tmp_path / "toy.csv"
        y_hi = math.exp(2.0)
        data.write_text(
            f"id,w,y\n1,1,1\n2,1,{y_hi!r}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(
            ["fit", "--input", str(data), "--model", "lognormal", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_rows(out / "theta0.csv")
        assert [float(v) for v in rows[0]] == pytest.approx([1.0, 1.0], abs=1e-8)

    def test_malformed_header_names_column(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        data.write_text("id,y\n1,1\n2,2\n", encoding="utf-8")
        code = main(["fit", "--input", str(data), "--model", "lognormal"])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing column 'w'" in err

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        data.write_bytes(b"id,w,y\n\xff,1,2\n2,1,3\n")
        code = main(["fit", "--input", str(data), "--model", "lognormal"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"subdesign: error: cannot read {data}: 'utf-8' codec")
        assert err.count("\n") == 1

    def test_duplicate_ids_exit_2(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        data.write_text("id,w,y\n7,1,2\n8,1,3\n7,1,4\n", encoding="utf-8")
        code = main(["fit", "--input", str(data), "--model", "lognormal"])
        assert code == 2
        assert "duplicate id '7'" in capsys.readouterr().err

    def test_row_too_short_for_its_id_exits_2(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        data.write_text("w,y,id\n1,2,a\n1,3\n", encoding="utf-8")
        code = main(["fit", "--input", str(data), "--model", "lognormal"])
        assert code == 2
        assert "row 3 has 2 fields, header has 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, text, column",
        [
            ("lognormal", "id,w,y,z1\n1,1,2,nan\n2,1,3,0\n", "z1"),
            ("finpop", "id,w,y1,g\n1,1,2,inf\n2,1,3,0\n", "g"),
        ],
    )
    def test_non_finite_auxiliary_cell_exits_2(self, tmp_path, capsys, model, text, column):
        data = tmp_path / "toy.csv"
        data.write_text(text, encoding="utf-8")
        code = main(["fit", "--input", str(data), "--model", model, "--out", str(tmp_path)])
        assert code == 2
        assert f"column '{column}'" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(
            ["fit", "--input", str(tmp_path / "nope.csv"), "--model", "finpop"]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--criterion", "E"], ["--family", "po-wr"], ["--n", "5"], ["--eps", "0.1"]]
    )
    def test_options_fit_ignores_are_usage_errors(self, tmp_path, lognormal_csv, flags, capsys):
        out = tmp_path / "out"
        code = main(
            ["fit", "--input", str(lognormal_csv), "--model", "lognormal", *flags,
             "--out", str(out)]
        )
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_nonconvergent_fit_exits_3(self, tmp_path, capsys):
        data = tmp_path / "sep.csv"
        data.write_text(
            "id,y,x1\n1,0,-2\n2,0,-1\n3,1,1\n4,1,2\n",
            encoding="utf-8",
        )
        code = main(
            [
                "fit",
                "--input",
                str(data),
                "--model",
                "qblogit",
                "--max-iter",
                "5",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err


class TestDesign:
    def test_linear_criterion_converges_in_one(self, tmp_path, lognormal_csv, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "design",
                "--input",
                lognormal_csv,
                "--model",
                "lognormal",
                "--criterion",
                "A",
                "--family",
                "po-wr",
                "--n",
                "50",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header, rows = read_rows(out / "trace.csv")
        assert header == ["iteration", "objective", "status"]
        assert len(rows) == 2
        assert rows[-1][2] == "Converged"
        _, scheme_rows = read_rows(out / "scheme.csv")
        total = sum(float(row[1]) for row in scheme_rows)
        assert total == pytest.approx(50.0, rel=1e-9)

    def test_d_criterion_trace_short(self, tmp_path, lognormal_csv):
        out = tmp_path / "out"
        code = main(
            [
                "design",
                "--input",
                lognormal_csv,
                "--model",
                "lognormal",
                "--criterion",
                "D",
                "--family",
                "po-wr",
                "--n",
                "50",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, rows = read_rows(out / "trace.csv")
        assert len(rows) <= 11
        assert rows[-1][2] == "Converged"
        assert all(row[2] == "running" for row in rows[:-1])

    def test_zero_coefficient_unit_is_listed(self, tmp_path, capsys):
        data = tmp_path / "sym.csv"
        lo, hi = math.exp(-1.0), math.exp(1.0)
        data.write_text(
            f"id,w,y\na,1,{lo!r}\nb,1,1\nc,1,{hi!r}\n",
            encoding="utf-8",
        )
        code = main(
            [
                "design",
                "--input",
                str(data),
                "--model",
                "lognormal",
                "--criterion",
                "c:1,0",
                "--family",
                "po-wr",
                "--n",
                "1",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 5
        err = capsys.readouterr().err
        assert "ids: b" in err

    def test_budget_beyond_population_exits_2(self, tmp_path, lognormal_csv, capsys):
        code = main(
            [
                "design",
                "--input",
                lognormal_csv,
                "--model",
                "lognormal",
                "--criterion",
                "A",
                "--family",
                "po-wor",
                "--n",
                "500",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "without replacement" in capsys.readouterr().err

    def test_relative_l_file_is_read_from_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "data").mkdir()
        write_pool(str(tmp_path / "data" / "lognormal.csv"), "lognormal",
                   lognormal_pool(200, seed=6))
        (tmp_path / "L.csv").write_text("1,0\n0,2\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "design",
                "--input",
                "data/lognormal.csv",
                "--model",
                "lognormal",
                "--criterion",
                "L:@L.csv",
                "--n",
                "50",
                "--out",
                "out",
            ]
        )
        assert code == 0, capsys.readouterr().err
        _, rows = read_rows(tmp_path / "out" / "trace.csv")
        assert rows[-1][2] == "Converged"

    @pytest.mark.filterwarnings("error")
    def test_empty_l_file_exits_2(self, tmp_path, lognormal_csv, capsys):
        target = tmp_path / "L.csv"
        target.write_text("", encoding="utf-8")
        code = main(
            [
                "design",
                "--input",
                lognormal_csv,
                "--model",
                "lognormal",
                "--criterion",
                f"L:@{target}",
                "--n",
                "50",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "is empty" in err
        assert str(target) in err
        assert "loadtxt" not in err

    def test_non_numeric_l_file_exits_2(self, tmp_path, lognormal_csv, capsys):
        target = tmp_path / "L.csv"
        target.write_text("1,0\n0,two\n", encoding="utf-8")
        code = main(
            [
                "design",
                "--input",
                lognormal_csv,
                "--model",
                "lognormal",
                "--criterion",
                f"L:@{target}",
                "--n",
                "50",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot parse L matrix" in err
        assert str(target) in err

    def test_unknown_criterion_fails_before_load(self, tmp_path, capsys):
        data = tmp_path / "garbage.csv"
        data.write_text("not,a,valid\nschema,at,all\n", encoding="utf-8")
        code = main(
            [
                "design",
                "--input",
                str(data),
                "--model",
                "lognormal",
                "--criterion",
                "Q",
                "--n",
                "5",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown criterion token" in err
        assert "missing column" not in err

    def test_abbreviated_flag_is_usage_error(self, tmp_path, lognormal_csv, capsys):
        out = tmp_path / "out"
        code = main(
            ["design", "--input", lognormal_csv, "--model", "lognormal",
             "--crit", "A", "--n", "5", "--out", str(out)]
        )
        assert code == 2
        assert "unrecognized arguments: --crit A" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_is_reported_with_the_subcommand_usage(
        self, tmp_path, lognormal_csv, capsys
    ):
        code = main(
            ["design", "--input", lognormal_csv, "--model", "lognormal",
             "--crit", "A", "--n", "5", "--out", str(tmp_path / "out")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage: subdesign design [-h]")
        assert "--criterion CRITERION" in err
        assert err.endswith("subdesign design: error: unrecognized arguments: --crit A\n")


class TestEvaluate:
    def test_identical_rows_for_equivalent_criteria(self, tmp_path, finpop_csv, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "evaluate",
                "--input",
                finpop_csv,
                "--model",
                "finpop",
                "--family",
                "po-wr",
                "--n",
                "20",
                "--criteria",
                "A",
                "d-er",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header, rows = read_rows(out / "efficiency.csv")
        assert header == ["row_criterion", "iterations", "status", "A_eff", "d-er_eff"]
        assert len(rows) == 2
        row_a = [float(v) for v in rows[0][3:]]
        row_der = [float(v) for v in rows[1][3:]]
        assert row_a == pytest.approx(row_der, abs=1e-9)
        assert row_a[0] == pytest.approx(1.0, abs=1e-9)
        assert (out / "efficiency.txt").exists()

    def test_default_budget_is_one_percent(self, tmp_path, lognormal_csv, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "evaluate",
                "--input",
                lognormal_csv,
                "--model",
                "lognormal",
                "--family",
                "po-wr",
                "--criteria",
                "A",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        # 200 units at the default 1% rate rounds up to a budget of 2.
        text = capsys.readouterr().out
        assert "A" in text

    def test_empty_criteria_list_is_usage_error(self, lognormal_csv):
        code = main(
            [
                "evaluate",
                "--input",
                lognormal_csv,
                "--model",
                "lognormal",
                "--criteria",
            ]
        )
        assert code == 2

    def test_bad_criteria_token_fails_fast(self, tmp_path, capsys):
        data = tmp_path / "garbage.csv"
        data.write_text("not,a,valid\nschema,at,all\n", encoding="utf-8")
        code = main(
            [
                "evaluate",
                "--input",
                str(data),
                "--model",
                "lognormal",
                "--criteria",
                "A",
                "bogus",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown criterion token" in err

    def test_options_evaluate_ignores_are_usage_errors(self, tmp_path, lognormal_csv, capsys):
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--input", lognormal_csv, "--model", "lognormal",
             "--criteria", "A", "D", "--criterion", "E", "--out", str(out)]
        )
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestSequential:
    def test_single_stage_matches_library(self, tmp_path, finpop_csv):
        out = tmp_path / "out"
        code = main(
            [
                "sequential",
                "--input",
                finpop_csv,
                "--model",
                "finpop",
                "--family",
                "po-wr",
                "--stages",
                "1",
                "--n",
                "40",
                "--seed",
                "12",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        pool = finpop_pool(200, seed=6)
        problem = pool_problem("finpop", pool)
        records = run_k_stages(problem, [40], DesignFamily.PO_WR, seed=12)
        _, rows = read_rows(out / "stages.csv")
        assert len(rows) == 1
        theta_back = np.array([float(v) for v in rows[0][2:-2]])
        assert theta_back == pytest.approx(records[0].theta_hat, rel=1e-12)
        assert (out / "scheme_stage_1.csv").exists()
        assert (out / "learning_curve.csv").exists()

    def test_stage_files_quote_each_id_once(self, tmp_path, finpop_csv, monkeypatch):
        header, *rows = open(finpop_csv, encoding="utf-8").read().splitlines()
        ids = [f'u,{row.split(",", 1)[0]}"' for row in rows]
        body = ['"{}",{}'.format(uid.replace('"', '""'), row.split(",", 1)[1])
                for uid, row in zip(ids, rows)]
        data = tmp_path / "quoted.csv"
        data.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
        quoted = []
        real = cli.dataio._csv_field
        monkeypatch.setattr(
            cli.dataio, "_csv_field", lambda text: quoted.append(text) or real(text)
        )
        out = tmp_path / "out"
        code = main(
            ["sequential", "--input", str(data), "--model", "finpop", "--family",
             "po-wr", "--stages", "2", "--n", "30", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        assert quoted == ids
        for k in (1, 2):
            path = out / f"scheme_stage_{k}.csv"
            _, got = read_rows(path)
            assert [row[0] for row in got] == ids
            want = io.StringIO(newline="")
            csv.writer(want).writerows(
                [["id", "mu"]] + [[uid, format(float(mu), ".17g")] for uid, mu in got]
            )
            assert path.read_bytes() == want.getvalue().encode("utf-8")

    def test_stage_sizes_repeat_when_single_value(self, tmp_path, finpop_csv):
        out = tmp_path / "out"
        code = main(
            [
                "sequential",
                "--input",
                finpop_csv,
                "--model",
                "finpop",
                "--family",
                "po-wr",
                "--stages",
                "3",
                "--n",
                "25",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, rows = read_rows(out / "stages.csv")
        assert [row[1] for row in rows] == ["25", "50", "75"]

    def test_stage_count_mismatch_is_usage_error(self, finpop_csv, capsys):
        code = main(
            [
                "sequential",
                "--input",
                finpop_csv,
                "--model",
                "finpop",
                "--stages",
                "3",
                "--n",
                "25,25",
            ]
        )
        assert code == 2
        assert "batch sizes" in capsys.readouterr().err

    def test_stage_count_mismatch_fails_before_load(self, finpop_csv, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("input loaded before the stage count was checked")

        monkeypatch.setattr(cli.dataio, "load_problem", fail)
        code = main(
            ["sequential", "--input", finpop_csv, "--model", "finpop",
             "--stages", "3", "--n", "10,20"]
        )
        assert code == 2
        assert "batch sizes" in capsys.readouterr().err

    def test_wrong_criterion_fails_before_load(self, finpop_csv, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("input loaded before the criterion was refused")

        monkeypatch.setattr(cli.dataio, "load_problem", fail)
        code = main(
            ["sequential", "--input", finpop_csv, "--model", "finpop",
             "--criterion", "A", "--n", "10,20"]
        )
        assert code == 2
        assert "unrecognized arguments: --criterion A" in capsys.readouterr().err

    # d-s is finpop's own anticipation criterion: refused, not checked.
    @pytest.mark.parametrize("flags", [["--criterion", "d-s"], ["--eps", "0.1"]])
    def test_options_sequential_ignores_are_usage_errors(
        self, tmp_path, finpop_csv, flags, capsys
    ):
        out = tmp_path / "out"
        code = main(
            ["sequential", "--input", finpop_csv, "--model", "finpop",
             "--stages", "3", "--n", "50", *flags, "--out", str(out)]
        )
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_replications_write_learning_curve(self, tmp_path, finpop_csv, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "sequential",
                "--input",
                finpop_csv,
                "--model",
                "finpop",
                "--family",
                "po-wr",
                "--stages",
                "2",
                "--n",
                "30,30",
                "--replications",
                "3",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header, rows = read_rows(out / "learning_curve.csv")
        assert header == ["replication", "stage1_error", "final_error", "ratio"]
        assert len(rows) == 3
        for row in rows:
            assert float(row[3]) == pytest.approx(
                float(row[2]) / float(row[1]), rel=1e-12
            )
        assert "mean final/first error ratio" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("replications", ["1", "2"])
    def test_census_first_stage_gives_nan_ratio(
        self, tmp_path, lognormal_csv, replications, capsys
    ):
        out = tmp_path / "out"
        code = main(
            [
                "sequential",
                "--input",
                lognormal_csv,
                "--model",
                "lognormal",
                "--family",
                "po-wor",
                "--stages",
                "1",
                "--n",
                "200",
                "--replications",
                replications,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        _, rows = read_rows(out / "learning_curve.csv")
        assert len(rows) == int(replications)
        assert all(row[1] == "0" and row[3] == "nan" for row in rows)

    def test_replay_is_byte_identical(self, tmp_path, finpop_csv):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                [
                    "sequential",
                    "--input",
                    finpop_csv,
                    "--model",
                    "finpop",
                    "--family",
                    "po-wor",
                    "--stages",
                    "2",
                    "--n",
                    "20,20",
                    "--seed",
                    "77",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out)
        for name in ("stages.csv", "scheme_stage_1.csv", "scheme_stage_2.csv",
                     "learning_curve.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_stage_failure_keeps_partial_logs(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "small.csv"
        write_pool(str(data), "finpop", finpop_pool(50, seed=1))
        out = tmp_path / "out"
        fail_second_pooled_fit(monkeypatch)
        code = main(
            [
                "sequential",
                "--input",
                str(data),
                "--model",
                "finpop",
                "--family",
                "po-wor",
                "--stages",
                "2",
                "--n",
                "30,20",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert "stage 2 failed" in capsys.readouterr().err
        _, rows = read_rows(out / "stages.csv")
        assert len(rows) == 1

    @pytest.mark.parametrize("replications", ["1", "3"])
    def test_po_wor_stage_above_n_is_refused_before_stage_one(
        self, tmp_path, capsys, monkeypatch, replications
    ):
        def no_draw(*args):
            raise AssertionError("a stage was drawn before the sizes were checked")

        monkeypatch.setattr(sequential, "draw", no_draw)
        data = tmp_path / "finpop.csv"
        write_pool(str(data), "finpop", finpop_pool(100, seed=1))
        out = tmp_path / "out"
        code = main(
            ["sequential", "--input", str(data), "--model", "finpop", "--family", "po-wor",
             "--n", "200", "--stages", "2", "--replications", replications,
             "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "subdesign: error: cannot place expected size 200.0 without replacement "
            "in 100 units\n"
        )
        assert not (out / "stages.csv").exists()
        assert not (out / "learning_curve.csv").exists()


def fail_second_pooled_fit(monkeypatch):
    """Make the pooled fit of stage 2 raise SingularHessian."""
    real = sequential.pooled_estimate
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise errors.SingularHessian("forced failure of the second pooled fit")
        return real(*args, **kwargs)

    monkeypatch.setattr(sequential, "pooled_estimate", failing)


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                [
                    "synth",
                    "--model",
                    "finpop",
                    "--n-units",
                    "300",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out / "finpop.csv")
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_finpop_scale_separation(self, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "synth",
                "--model",
                "finpop",
                "--n-units",
                "500",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        _, rows = read_rows(out / "finpop.csv")
        y = np.array([[float(row[2]), float(row[3]), float(row[4])] for row in rows])
        sds = y.std(axis=0)
        assert 50 < sds[0] / sds[1] < 200
        assert 50 < sds[0] / sds[2] < 200

    def test_lognormal_outcomes_positive(self, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "synth",
                "--model",
                "lognormal",
                "--n-units",
                "100",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        _, rows = read_rows(out / "lognormal.csv")
        assert all(float(row[2]) > 0 for row in rows)

    @pytest.mark.parametrize(
        "flags",
        [["--max-iter", "3"], ["--input", "x.csv"], ["--criterion", "E"],
         ["--family", "po-wr"], ["--tol", "1e-8"], ["--eps", "0.1"], ["--n", "50"]],
    )
    def test_options_synth_ignores_are_usage_errors(self, tmp_path, flags, capsys):
        out = tmp_path / "out"
        code = main(
            ["synth", "--model", "finpop", "--n-units", "20", *flags, "--out", str(out)]
        )
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_too_small_pool_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["synth", "--model", "finpop", "--n-units", "5", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_synthetic_feeds_straight_into_fit(self, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "synth",
                "--model",
                "qblogit",
                "--n-units",
                "150",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        code = main(
            [
                "fit",
                "--input",
                str(out / "qblogit.csv"),
                "--model",
                "qblogit",
                "--out",
                str(out),
            ]
        )
        assert code == 0


class TestConfigFile:
    def test_flags_beat_config_file(self, tmp_path, lognormal_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input={lognormal_csv}\nmodel=lognormal\ncriterion=A\n"
            "family=po-wr\nn=30\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(
            ["design", "--config", str(cfg), "--n", "10", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_rows(out / "scheme.csv")
        total = sum(float(row[1]) for row in rows)
        assert total == pytest.approx(10.0, rel=1e-9)

    def test_config_file_fills_missing_flags(self, tmp_path, lognormal_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input={lognormal_csv}\nmodel=lognormal\ncriterion=A\n"
            "family=po-wr\nn=30\n# a comment line\nmax-iter=50\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(["design", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out / "scheme.csv")
        total = sum(float(row[1]) for row in rows)
        assert total == pytest.approx(30.0, rel=1e-9)

    def test_config_file_sets_criteria(self, tmp_path, lognormal_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input={lognormal_csv}\nmodel=lognormal\ncriteria=A D\nn=20\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(["evaluate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out / "efficiency.csv")
        assert header == ["row_criterion", "iterations", "status", "A_eff", "D_eff"]
        assert [row[0] for row in rows] == ["A", "D"]

    def test_config_file_sets_stages_and_replications(self, tmp_path, finpop_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input={finpop_csv}\nmodel=finpop\nn=30\nstages=2\nreplications=2\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(["sequential", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out / "learning_curve.csv")
        assert [row[0] for row in rows] == ["0", "1"]
        assert "2 replications of 2 stages" in capsys.readouterr().out

    def test_config_file_sets_n_units(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=finpop\nn-units=20\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["synth", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out / "finpop.csv")
        assert len(rows) == 20

    @pytest.mark.parametrize(
        "command, lines",
        [
            ("synth", ["model=finpop", "n-units=20", "stages=7"]),
            ("synth", ["model=finpop", "n-units=20", "criteria=Q"]),
            ("fit", ["input={csv}", "model=lognormal", "n_units=20"]),
            ("synth", ["model=finpop", "n-units=20", "max_iter=3"]),
            ("fit", ["input={csv}", "model=lognormal", "criterion=E"]),
            ("evaluate", ["input={csv}", "model=lognormal", "criterion=E"]),
            ("sequential", ["input={csv}", "model=lognormal", "criterion=c:1,0"]),
            ("sequential", ["input={csv}", "model=lognormal", "eps=0.1"]),
            ("fit", ["input={csv}", "model=lognormal", "seed=3"]),
            ("design", ["input={csv}", "model=lognormal", "seed=3"]),
            ("evaluate", ["input={csv}", "model=lognormal", "seed=3"]),
        ],
    )
    def test_config_key_the_command_does_not_take_rejected(
        self, tmp_path, lognormal_csv, capsys, command, lines
    ):
        key = lines[-1].split("=")[0]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines).format(csv=lognormal_csv) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"line 3: {command} takes no option {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=x\n", encoding="utf-8")
        code = main(["synth", "--config", str(cfg), "--model", "finpop", "--n-units", "5"])
        assert code == 2
        assert "line 1: bad value for 'seed'" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, lognormal_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("modle=lognormal\n", encoding="utf-8")
        code = main(["design", "--config", str(cfg), "--n", "5"])
        assert code == 2
        assert "unknown option 'modle'" in capsys.readouterr().err

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"model=finpop\nn-units=\xff\n")
        code = main(["synth", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"subdesign: error: cannot read config file {cfg}: 'utf-8' codec")
        assert err.count("\n") == 1

    def test_config_file_with_byte_order_mark(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=finpop\nn-units=20\n", encoding="utf-8-sig")
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbfmodel=")
        out = tmp_path / "out"
        code = main(["synth", "--config", str(cfg), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert (out / "finpop.csv").exists()

    def test_repeated_config_key_rejected(self, tmp_path, monkeypatch, capsys):
        def no_data(*args):
            raise AssertionError("data read before the config file was checked")

        monkeypatch.setattr(cli, "make_pool", no_data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_units=20\nmodel=finpop\n\nn-units=30\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["synth", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"subdesign: error: {cfg} line 4: 'n_units' is already set on line 1\n"
        )
        assert not out.exists()

    def test_empty_out_key_rejected(self, tmp_path, monkeypatch, capsys):
        def no_data(*args):
            raise AssertionError("data read before --out was checked")

        monkeypatch.setattr(cli, "make_pool", no_data)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=finpop\nn-units=20\nout=\n", encoding="utf-8")
        code = main(["synth", "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err == "subdesign: error: --out must not be empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_config_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        code = main(["fit", "--config", str(cfg)])
        assert code == 2
        assert "expected key=value" in capsys.readouterr().err


class TestCriterionSize:
    """A c vector or L matrix that does not fit the model is refused before the fit."""

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("design", ["--criterion", "c:1,2", "--n", "20"], "c has length 2, expected 3"),
            ("evaluate", ["--criteria", "A", "c:1,2"], "c has length 2, expected 3"),
            ("design", ["--criterion", "L:@L.csv", "--n", "20"], "L has 2 rows, expected 3"),
            ("evaluate", ["--criteria", "A", "L:@L.csv"], "L has 2 rows, expected 3"),
        ],
    )
    def test_refused_before_the_fit(
        self, tmp_path, monkeypatch, capsys, command, flags, message
    ):
        fits = []
        monkeypatch.setattr(cli, "fit_full", lambda *args, **kwargs: fits.append(args))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "L.csv").write_text("1,0\n0,1\n", encoding="utf-8")
        write_pool("qblogit.csv", "qblogit", qblogit_pool(200, seed=3))
        code = main(
            [command, "--input", "qblogit.csv", "--model", "qblogit", *flags, "--out", "out"]
        )
        assert code == 2
        assert capsys.readouterr().err == f"subdesign: error: {message}\n"
        assert fits == []
        assert not (tmp_path / "out").exists()


class TestWorSizeBeforeFit:
    """A po-wor budget or stage size above N is refused before the full fit."""

    @pytest.mark.parametrize(
        "command, flags, size",
        [
            ("design", ["--criterion", "A", "--n", "500"], "500"),
            ("evaluate", ["--n", "500"], "500"),
            ("sequential", ["--n", "500", "--stages", "2"], "500.0"),
        ],
    )
    def test_refused_before_the_fit(
        self, tmp_path, monkeypatch, capsys, command, flags, size
    ):
        fits = []
        monkeypatch.setattr(cli, "fit_full", lambda *args, **kwargs: fits.append(args))
        monkeypatch.chdir(tmp_path)
        write_pool("finpop.csv", "finpop", finpop_pool(100, seed=1))
        code = main(
            [command, "--input", "finpop.csv", "--model", "finpop", "--family", "po-wor",
             *flags, "--out", "out"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"subdesign: error: cannot place expected size {size} without replacement "
            "in 100 units\n"
        )
        assert fits == []
        assert not (tmp_path / "out").exists()


class TestUsage:
    def test_missing_subcommand(self):
        assert main([]) == 2

    def test_unknown_flag(self):
        assert main(["fit", "--frobnicate"]) == 2

    # Only sequential and synth draw random numbers.
    @pytest.mark.parametrize(
        "command, flags",
        [
            ("fit", []),
            ("design", ["--criterion", "A", "--n", "5"]),
            ("evaluate", []),
        ],
    )
    def test_seed_is_refused_where_nothing_is_drawn(
        self, tmp_path, lognormal_csv, capsys, command, flags
    ):
        out = tmp_path / "out"
        code = main(
            [command, "--input", lognormal_csv, "--model", "lognormal", *flags,
             "--seed", "3", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.endswith(f"subdesign {command}: error: unrecognized arguments: --seed 3\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "synth"])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_that_is_not_a_directory_is_refused_before_the_load(
        self, tmp_path, lognormal_csv, capsys, monkeypatch, command, under
    ):
        def no_data(*args):
            raise AssertionError("data read before --out was checked")

        monkeypatch.setattr(cli.dataio, "load_problem", no_data)
        monkeypatch.setattr(cli, "make_pool", no_data)
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        out = blocker / "sub" / "dir" if under else blocker
        flags = ["--n-units", "5"] if command == "synth" else ["--input", lognormal_csv]
        code = main([command, "--model", "lognormal", *flags, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"subdesign: error: --out {str(out)!r}: {str(blocker)!r} is not a directory\n"
        )
        assert blocker.read_text(encoding="utf-8") == "x"

    def test_empty_out_flag_refused_before_the_load(self, tmp_path, monkeypatch, capsys):
        def no_data(*args):
            raise AssertionError("data read before --out was checked")

        monkeypatch.setattr(cli, "make_pool", no_data)
        monkeypatch.chdir(tmp_path)
        code = main(["synth", "--model", "finpop", "--n-units", "20", "--out", ""])
        assert code == 2
        assert capsys.readouterr().err == "subdesign: error: --out must not be empty\n"
        assert list(tmp_path.iterdir()) == []

    # For each command, flags and an output file that the run would write.
    OUTPUT_CASES = [
        ("fit", [], "gradients.csv"),
        ("design", ["--criterion", "A", "--n", "10"], "scheme.csv"),
        ("evaluate", [], "efficiency.txt"),
        ("sequential", ["--n", "10,10"], "scheme_stage_2.csv"),
        ("sequential", ["--n", "10,10", "--replications", "2"], "learning_curve.csv"),
        ("synth", ["--n-units", "20", "--seed", "1"], "finpop.csv"),
    ]

    @pytest.mark.parametrize("command, flags, name", OUTPUT_CASES)
    def test_output_file_that_is_a_directory_is_refused_before_the_load(
        self, tmp_path, finpop_csv, capsys, monkeypatch, command, flags, name
    ):
        def no_data(*args):
            raise AssertionError("data read before the output files were checked")

        monkeypatch.setattr(cli.dataio, "load_problem", no_data)
        monkeypatch.setattr(cli, "make_pool", no_data)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        source = [] if command == "synth" else ["--input", finpop_csv]
        code = main([command, *source, "--model", "finpop", *flags, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"subdesign: error: output file {str(out / name)!r} is a directory\n"
        )
        assert [p.name for p in out.iterdir()] == [name]
        assert list((out / name).iterdir()) == []

    @pytest.mark.parametrize("command, flags, name", OUTPUT_CASES)
    def test_output_paths_are_the_files_written(
        self, tmp_path, finpop_csv, command, flags, name
    ):
        out = tmp_path / "out"
        source = [] if command == "synth" else ["--input", finpop_csv]
        argv = [command, *source, "--model", "finpop", *flags, "--out", str(out)]
        listed = cli._output_paths(cli.build_config(cli._build_parser().parse_args(argv)))
        assert main(argv) == 0
        assert sorted(listed) == sorted(str(p) for p in out.iterdir())

    def test_out_may_name_directories_yet_to_be_made(self, tmp_path):
        out = tmp_path / "a" / "b"
        argv = ["synth", "--model", "finpop", "--n-units", "20", "--out", str(out)]
        cli.build_config(cli._build_parser().parse_args(argv))
        assert not (tmp_path / "a").exists()
        assert main(argv) == 0
        assert (out / "finpop.csv").is_file()

    def test_missing_model(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("id,w,y\n1,1,2\n", encoding="utf-8")
        code = main(["fit", "--input", str(data)])
        assert code == 2
        assert "--model is required" in capsys.readouterr().err


# Exit code per error class, as the CLI has always mapped them.
EXIT_CODES = {
    "InvalidData": 2,
    "InvalidInput": 2,
    "InvalidBudget": 2,
    "Unsupported": 2,
    "EmptySample": 3,
    "SingularHessian": 3,
    "SingularMatrix": 3,
    "NoConvergence": 3,
    "NotPSD": 3,
    "OutOfDomain": 3,
    "DegenerateCriterion": 3,
    "NotDifferentiable": 3,
    "UnreliableEstimate": 3,
    "StageFailure": 3,
    "Infeasible": 5,
}


class TestExitCodes:
    def test_every_error_class_has_a_code(self):
        classes = {
            name
            for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, errors.SubdesignError)
        }
        assert classes - {"SubdesignError"} == set(EXIT_CODES)

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_main_returns_the_code(self, name, monkeypatch, capsys):
        cls = getattr(errors, name)
        err = cls("boom", 1) if cls is errors.StageFailure else cls("boom")

        def fail(args):
            raise err

        monkeypatch.setattr(cli, "build_config", fail)
        assert main(["fit"]) == EXIT_CODES[name]
        assert capsys.readouterr().err == "subdesign: error: boom\n"

    def test_bare_base_class_propagates(self, monkeypatch):
        def fail(args):
            raise errors.SubdesignError("boom")

        monkeypatch.setattr(cli, "build_config", fail)
        with pytest.raises(errors.SubdesignError, match="boom"):
            main(["fit"])
