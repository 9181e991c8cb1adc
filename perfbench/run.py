"""Benchmark of the subdesign chain, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli-chain,spectral,studies} \
        --seed N --seconds S --trace {0,1} [--smoke] [--work-dir DIR]

Builds the workload's inputs from the seed, runs passes of its operations for
at least S seconds (and at least two passes), checks every output, and prints
a detail line followed, as the last line of standard output, by one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` untraced and traced passes alternate and the metrics are
its per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import WRITERS, LayerStats, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
MIN_PASSES = 2
STARTUP_REPEATS = 3
BLAS_THREADS = 1
STATUS_CODES = {"Converged": 1, "Diverged": 2, "MaxIter": 3, "Infeasible": 4}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["cli-chain", "spectral", "studies"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every code path")
    parser.add_argument("--work-dir", help="scratch directory (default .perfbench_out)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_threads() -> int:
    """Run BLAS and OpenMP single-threaded and put the checkout's src first.

    With two BLAS threads the peak RSS of a run flipped between two values
    about 10 MB apart from run to run, and wall times were no lower.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, SRC)
    return len(os.sched_getaffinity(0))


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def machine_facts(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "caches_per_cpu0": caches,
    }


def compare_counts(passes, key: str) -> list[str]:
    """Exact counts must repeat across passes of one run."""
    ref = getattr(passes[0], key)
    return [
        f"pass {i}: {key} {getattr(p, key)} differ from pass 0: {ref}"
        for i, p in enumerate(passes[1:], start=1)
        if getattr(p, key) != ref
    ]


def compare_record(path: str, counts: dict) -> list[str]:
    """Exact counts must repeat across runs with the same seed and sizes.

    The first run of a seed leaves its counts in ``path``; later runs compare
    with them. A record made with other workload sizes is replaced.
    """
    record = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("sizes") != counts["sizes"]:
            record = {}
    mismatches = [
        f"{key}: {counts[key]} differ from an earlier run: {record[key]}"
        for key in counts
        if key in record and record[key] != counts[key]
    ]
    if not mismatches:
        record.update(counts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    return mismatches


# Every writer but write_pool, which only set-up calls.
OUTPUT_WRITERS = [w for w in WRITERS if w != "dataio.write_pool"]


def span_counts(stats) -> dict:
    """Counts from a traced pass that must repeat exactly for a given seed."""
    fits = ("models.fit_full", "models.weighted_fit", "models.multiplier_fit")
    return {
        "models.newton_iters": int(stats.field_sum("newton_iters")),
        "dataio.write.bytes": int(sum(stats.field(w, "bytes") for w in OUTPUT_WRITERS)),
        "sampling.draw.calls": stats.calls.get("sampling.draw", 0),
        "fit.calls": {name: stats.calls.get(name, 0) for name in fits},
        "solver.solves": [list(s) for s in stats.solves],
    }


def layer_metrics(p, stats, spectral_pairs) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, self_s, total_s, durs = stats.calls, stats.self_s, stats.total_s, stats.durations
    m = {}
    rows = stats.field("dataio.load_problem", "rows")
    load_s = total_s.get("dataio.load_problem", 0.0)
    m["dataio.load_problem.self_s"] = self_s.get("dataio.load_problem", 0.0)
    m["dataio.load_problem.rows_per_s"] = rows / load_s if load_s else 0.0
    m["dataio.write.self_s"] = sum(self_s.get(w, 0.0) for w in OUTPUT_WRITERS)
    m["dataio.write.bytes"] = sum(stats.field(w, "bytes") for w in OUTPUT_WRITERS)
    for name in ("models.fit_full", "models.multiplier_fit"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["models.newton_iters"] = stats.field_sum("newton_iters")
    for name in ("models.weighted_fit", "sampling.draw"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.p50_ms"] = 1e3 * percentile(durs.get(name, []), 50)
        m[f"{name}.p99_ms"] = 1e3 * percentile(durs.get(name, []), 99)
    m["covariance.gradients_at.self_s"] = self_s.get("covariance.gradients_at", 0.0)
    m["covariance.gamma.calls"] = calls.get("covariance.gamma", 0)
    m["covariance.gamma.total_s"] = total_s.get("covariance.gamma", 0.0)
    m["criteria.coefficients.calls"] = calls.get("criteria.coefficients", 0)
    m["criteria.coefficients.self_s"] = self_s.get("criteria.coefficients", 0.0)
    m["criteria.phi_value.calls"] = calls.get("criteria.phi_value", 0)
    m["criteria.anticipated_coefficients.calls"] = calls.get("criteria.anticipated_coefficients", 0)
    m["criteria.anticipated_coefficients.self_s"] = self_s.get(
        "criteria.anticipated_coefficients", 0.0
    )
    iterations = sum(s[2] for s in stats.solves)
    passes_bytes = sum(8 * n_units * n_params * passes for n_units, n_params, _, _, passes in stats.solves)
    m["solver.fixed_point_solve.calls"] = calls.get("solver.fixed_point_solve", 0)
    m["solver.fixed_point_solve.self_s"] = self_s.get("solver.fixed_point_solve", 0.0)
    m["solver.iterations"] = iterations
    m["solver.ms_per_iter"] = (
        1e3 * total_s.get("solver.fixed_point_solve", 0.0) / iterations if iterations else 0.0
    )
    m["solver.gamma_calls_per_iter"] = (
        stats.gamma_in_solves / iterations if iterations else 0.0
    )
    m["solver.bytes_per_iter"] = passes_bytes / iterations if iterations else 0.0
    m["solver.l_optimal_scheme.calls"] = calls.get("solver.l_optimal_scheme", 0)
    m["solver.l_optimal_scheme.self_s"] = self_s.get("solver.l_optimal_scheme", 0.0)
    m["solver.stationarity_residual.calls"] = calls.get("solver.stationarity_residual", 0)
    for pair in spectral_pairs:
        its, status = p.solves.get(pair, (0, None))
        m[f"solver.iterations.{pair[0]}.{pair[1]}"] = its
        m[f"solver.status.{pair[0]}.{pair[1]}"] = STATUS_CODES.get(status, 0)
    runs = durs.get("sequential.run_k_stages", [])
    m["sequential.run_k_stages.calls"] = len(runs)
    m["sequential.run_k_stages.p50_s"] = percentile(runs, 50)
    m["sequential.update_aux.self_s"] = self_s.get("sequential.update_aux", 0.0)
    for name in ("evaluate.efficiency_table_from_gradients", "evaluate.monte_carlo_covariance"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    n_failed, n_total = p.mc or (0, 0)
    m["evaluate.mc.n_total"] = n_total
    m["evaluate.mc.failed_ratio"] = n_failed / n_total if n_total else 0.0
    m["cli.main.calls"] = calls.get("cli.main", 0)
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    return m


def cli_startup_s() -> float:
    """Interpreter start plus ``import subdesign.cli``, timed on its own."""
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import subdesign.cli"], check=True)
        times.append(time.perf_counter() - start)
    return median(times)


def measure(args, work_dir: str):
    import resource

    from workloads import SPECTRAL_CRITERIA, SPECTRAL_MODELS, WORKLOADS, Run, criterion_key

    run = Run(work_dir)
    scale = "smoke" if args.smoke else "full"
    workload = WORKLOADS[args.workload](run, args.seed, scale)
    tracer = Tracer() if args.trace else None

    setup_times = []
    if tracer is None:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        setup_stats = None
    else:
        with tracer.active():
            workload.setup()
        setup_stats = LayerStats().add(tracer.take())
    workload.prepare()

    plain, traced = [], []
    start = time.perf_counter()
    while len(plain) + len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        plain.append(workload.run_pass(None))
        if len(plain) == 1:
            # Read after a fixed amount of work: later passes can only add
            # heap fragmentation, and their number depends on the clock.
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            if workload.in_process:
                peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            traced.append(workload.run_pass(tracer))

    mismatches = compare_counts(plain + traced, "counts")
    stats = [LayerStats() for _ in traced]
    for s, p in zip(stats, traced):
        for spans in p.spans:
            s.add(spans)
        p.span_counts = span_counts(s)
    if traced:
        mismatches += compare_counts(traced, "span_counts")
    record = {"sizes": workload.size, **plain[0].counts}
    if traced:
        record["spans"] = traced[0].span_counts
    record_dir = os.path.join(work_dir, "counts")
    os.makedirs(record_dir, exist_ok=True)
    mismatches += compare_record(
        os.path.join(record_dir, f"{args.workload}-{scale}-seed{args.seed}.json"), record
    )

    ops = sorted({op for p in plain for op in p.wall})
    walls = {op: median([p.wall[op] for p in plain]) for op in ops}
    if tracer is None:
        metrics = {
            "setup_s": median(setup_times),
            "ms_per_step": median([p.ms_per_step for p in plain]),
            "peak_rss_mb": peak_kb / 1024.0,
        }
    else:
        pairs = [(m, criterion_key(c)) for m in SPECTRAL_MODELS for c in SPECTRAL_CRITERIA]
        per_pass = [layer_metrics(p, s, pairs) for p, s in zip(traced, stats)]
        metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
        metrics["dataio.write_pool.self_s"] = setup_stats.self_s.get("dataio.write_pool", 0.0)
        metrics["synth.make_pool.total_s"] = setup_stats.total_s.get("synth.make_pool", 0.0)
        metrics["cli.startup_s"] = cli_startup_s()
        metrics["bench.trace_overhead_s"] = median([p.wall_s for p in traced]) - median(
            [p.wall_s for p in plain]
        )
        for op in ("fit_s", "design_s", "evaluate_s", "sequential_s", "solve_s", "mc_s"):
            metrics[f"wall.{op}"] = walls.get(op, 0.0)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "wall_s": walls,
        "setup_s": setup_times,
        "ms_per_step": [p.ms_per_step for p in plain],
        "counts": record,
        "facts": workload.facts,
        "problems": run.problems,
        "count_mismatches": mismatches,
    }
    correct = run.failed == 0 and not mismatches
    return correct, run, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "subdesign", "__init__.py")):
        print(f"perfbench: no subdesign sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    nproc = pin_threads()
    work_dir = os.path.abspath(args.work_dir or os.path.join(ROOT, ".perfbench_out"))
    os.makedirs(work_dir, exist_ok=True)

    correct, run, metrics, detail = measure(args, work_dir)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(
            "perfbench: metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}",
            file=sys.stderr,
        )
        return 1
    detail["facts"] = {"machine": machine_facts(nproc), **detail["facts"]}
    for problem in detail["problems"] + detail["count_mismatches"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    results_dir = os.path.join(work_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-{detail['scale']}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({**detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
