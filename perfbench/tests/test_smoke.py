"""Smoke tests of the benchmark: every workload at about 2,000 rows."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd, workload, trace, work_dir, run=RUN):
    return subprocess.run(
        [
            sys.executable, run, "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke",
            "--work-dir", str(work_dir),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload, trace, tmp_path):
    proc = run_bench(ROOT, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["count_mismatches"] == []

    # A second run of the same seed compares its exact counts with the first.
    again = run_bench(ROOT, workload, trace, tmp_path)
    assert again.returncode == 0, again.stderr
    assert json.loads(again.stdout.strip().splitlines()[-1])["correct"], again.stderr


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        tmp_path, "spectral", 0, tmp_path / "work", run=str(tmp_path / "perfbench" / "run.py")
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_rebinds_every_import_of_a_function():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH)
    try:
        import subdesign.evaluate
        import subdesign.models
        import subdesign.solver
        from tracer import Tracer

        original = subdesign.models.weighted_fit
        tracer = Tracer()
        with tracer.active():
            assert subdesign.models.weighted_fit is not original
            assert subdesign.evaluate.weighted_fit is subdesign.models.weighted_fit
            assert subdesign.weighted_fit is subdesign.models.weighted_fit
            assert subdesign.solver.coefficients is subdesign.criteria.coefficients
        assert subdesign.models.weighted_fit is original
        assert subdesign.evaluate.weighted_fit is original
    finally:
        sys.path.remove(BENCH)
        sys.path.remove(os.path.join(ROOT, "src"))
