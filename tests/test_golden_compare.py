import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent / "golden" / "compare.py"
_spec = importlib.util.spec_from_file_location("golden_compare", SCRIPT)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

OBJECTIVE = 0.0075095643602414181


def write_case(root: Path, objective: float, status: str = "Converged", code: int = 0):
    run = root / "lognormal-seed1" / "design-D"
    run.mkdir(parents=True)
    (run / "trace.csv").write_text(
        "iteration,objective,status\n"
        f"0,{0.5:.17g},running\n"
        f"1,{objective:.17g},{status}\n"
    )
    (run / "scheme.csv").write_text("id,mu\n1,0.25\n2,0.75\n")
    log = root / "lognormal-seed1" / "design-D.log"
    log.mkdir()
    (log / "exit_code").write_text(f"{code}\n")
    (log / "stdout").write_text(f"criterion D: {status} after 1 iterations, objective {objective:.10g}\n")


def run_compare(tmp_path, capsys, **change):
    write_case(tmp_path / "parent", OBJECTIVE)
    write_case(tmp_path / "change", **{"objective": OBJECTIVE, **change})
    code = compare.main([str(tmp_path / "parent"), str(tmp_path / "change")])
    return code, capsys.readouterr().out


def test_identical_directories_pass(tmp_path, capsys):
    code, out = run_compare(tmp_path, capsys)
    assert code == 0
    assert "4 files compared, 0 moved" in out


def test_one_ulp_drift_is_reported_and_passes(tmp_path, capsys):
    code, out = run_compare(tmp_path, capsys, objective=np.nextafter(OBJECTIVE, 1.0))
    assert code == 0
    assert "moved lognormal-seed1/design-D/trace.csv" in out
    assert "1 moved" in out
    assert "FAULT" not in out


def test_status_change_fails(tmp_path, capsys):
    code, out = run_compare(tmp_path, capsys, status="Diverged")
    assert code == 1
    assert "FAULT lognormal-seed1/design-D/trace.csv: line 3: ',Converged' -> ',Diverged'" in out


def test_exit_code_change_fails(tmp_path, capsys):
    code, out = run_compare(tmp_path, capsys, code=2)
    assert code == 1
    assert "FAULT lognormal-seed1/design-D.log/exit_code: exit code 0 -> 2" in out


def test_row_count_and_iteration_changes_fail(tmp_path, capsys):
    write_case(tmp_path / "parent", OBJECTIVE)
    write_case(tmp_path / "change", OBJECTIVE)
    trace = tmp_path / "change" / "lognormal-seed1" / "design-D" / "trace.csv"
    trace.write_text(trace.read_text() + f"2,{OBJECTIVE:.17g},Converged\n")
    stdout = tmp_path / "change" / "lognormal-seed1" / "design-D.log" / "stdout"
    stdout.write_text(stdout.read_text().replace("after 1 ", "after 2 "))
    code = compare.main([str(tmp_path / "parent"), str(tmp_path / "change")])
    out = capsys.readouterr().out
    assert code == 1
    assert "trace.csv: 3 lines -> 4" in out
    assert "stdout: line 1: '1' -> '2'" in out
