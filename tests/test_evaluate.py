import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from subdesign.covariance import GradientSet, gamma, gradients_at
from subdesign.criteria import (
    a_opt,
    c_opt,
    d_opt,
    distance_opt,
    e_opt,
    phi_q,
    phi_value,
)
from subdesign.covariance import DispersionKind
from subdesign.errors import (
    DegenerateCriterion,
    InvalidInput,
    Unsupported,
    UnreliableEstimate,
)
from subdesign.evaluate import (
    FIT_ERRORS,
    EfficiencyTable,
    MonteCarloCovariance,
    Reparameterization,
    efficiency_table_from_gradients,
    monte_carlo_covariance,
    rel_efficiency,
    reparam_invariance,
)
import subdesign
import subdesign.covariance as covariance
import subdesign.evaluate as evaluate
import subdesign.linalg as linalg
import subdesign.models as models
from subdesign.models import finpop_problem, fit_full, lognormal_problem, qblogit_problem
from subdesign.sampling import (
    DesignFamily,
    derive_seed,
    draw,
    uniform_scheme,
    validate_scheme,
)
from subdesign.solver import SolveStatus, fixed_point_solve


def lognormal_example(seed=0, n=200):
    rng = np.random.default_rng(seed)
    y = rng.lognormal(1.0, 0.7, n)
    w = rng.uniform(0.5, 3.0, n)
    return lognormal_problem(y, w)


def finpop_example(seed=0, n=150, m=2):
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 2.0, (n, m)) + rng.normal(0.0, 4.0, (1, m))
    w = rng.lognormal(0.0, 0.6, n)
    return finpop_problem(y, w)


def qblogit_example(seed=0, n=250, p=3):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(0.0, 1.0, (n, p - 1))])
    beta = rng.normal(0.0, 0.7, p)
    prob = 1.0 / (1.0 + np.exp(-x @ beta))
    y = np.clip(prob + rng.normal(0.0, 0.08, n), 0.0, 1.0)
    return qblogit_problem(x, y)


def full_fit_grads(problem):
    return gradients_at(problem, fit_full(problem).theta0)


def paired_two_group_grads(seed=0, half=8, a_scale=1.4, b_scale=1.0, delta=0.05):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(half):
        a = rng.uniform(0.8, 1.2) * a_scale
        d = rng.uniform(0.5, 1.5) * delta
        rows += [[a, d], [-a, -d]]
    for _ in range(half):
        b = rng.uniform(0.8, 1.2) * b_scale
        d = rng.uniform(0.5, 1.5) * delta
        rows += [[d, b], [-d, -b]]
    return GradientSet(psi=np.array(rows), hessian=np.eye(2), theta0=np.zeros(2))


class TestRelEfficiency:
    def test_same_scheme_is_one(self):
        gam = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert rel_efficiency(a_opt(), gam, gam) == 1.0

    def test_doubled_objective_is_half(self):
        gam = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert rel_efficiency(a_opt(), 2.0 * gam, gam) == pytest.approx(0.5)

    def test_zero_denominator(self):
        with pytest.raises(DegenerateCriterion):
            rel_efficiency(a_opt(), np.zeros((2, 2)), np.eye(2))

    def test_a_eff_of_er_distance_scheme_is_exactly_one(self):
        problem = finpop_example(seed=1)
        fit = fit_full(problem)
        grads = gradients_at(problem, fit.theta0)
        t_a = fixed_point_solve(a_opt(), grads, DesignFamily.PO_WR, 20.0)
        t_d = fixed_point_solve(
            distance_opt(DispersionKind.ER), grads, DesignFamily.PO_WR, 20.0
        )
        assert t_a.final_scheme.mu == pytest.approx(t_d.final_scheme.mu, abs=1e-12)
        g_a = gamma(grads, t_a.final_scheme).gamma
        g_d = gamma(grads, t_d.final_scheme).gamma
        assert rel_efficiency(a_opt(), g_d, g_a) == pytest.approx(1.0, abs=1e-12)


class TestEfficiencyTable:
    def test_keeps_no_scheme_per_solve(self, monkeypatch):
        # A trace kept whole holds its N-long final scheme, 8 N bytes. What
        # the table keeps per solve is its status, its iteration count and
        # its p x p final Gamma; beside that, a solve leaves a few hundred
        # bytes that numpy and the solver keep from one solve to the next
        # (repeated solves with nothing kept grow by about 250 B each). The
        # bound is 1 % of one scheme per solve, and each solve's scheme must
        # be freed before the next solve starts.
        n_units = 100_000
        grads = full_fit_grads(lognormal_example(seed=7, n=n_units))
        specs = [a_opt(), d_opt(), e_opt(), phi_q(2), c_opt([1.0, 0.0])]
        held, freed, schemes = [], [], []

        def solve(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            freed.append([ref() is None for ref in schemes])
            trace = fixed_point_solve(*args, **kwargs)
            schemes.append(weakref.ref(trace.final_scheme.mu))
            return trace

        monkeypatch.setattr(evaluate, "fixed_point_solve", solve)
        efficiency_table_from_gradients(grads, DesignFamily.PO_WR, 1000.0, specs, specs)
        held.clear()
        tracemalloc.start()
        try:
            table = efficiency_table_from_gradients(
                grads, DesignFamily.PO_WR, 1000.0, specs, specs
            )
        finally:
            tracemalloc.stop()
        assert len(held) == len(table.cells) == len(specs)
        assert all(all(at_entry) for at_entry in freed)
        per_solve = [(h - held[0]) / k for k, h in enumerate(held[1:], 1)]
        assert max(per_solve) < 8 * n_units / 100

    def test_single_a_cell(self):
        problem = lognormal_example(seed=2)
        table = efficiency_table_from_gradients(
            full_fit_grads(problem), DesignFamily.PO_WR, 30.0, [a_opt()], [a_opt()]
        )
        assert table.cells[0][0] == pytest.approx(1.0, abs=1e-9)
        assert table.statuses[0] is SolveStatus.CONVERGED

    def test_finpop_a_and_er_rows_identical(self):
        problem = finpop_example(seed=3)
        specs = [a_opt(), distance_opt(DispersionKind.ER)]
        cols = [a_opt(), d_opt()]
        table = efficiency_table_from_gradients(
            full_fit_grads(problem), DesignFamily.PO_WR, 25.0, specs, cols
        )
        assert table.cells[0] == pytest.approx(table.cells[1], abs=1e-12)

    def test_competing_c_targets_penalize_each_other(self):
        problem = lognormal_example(seed=4)
        specs = [c_opt([1.0, 0.0]), c_opt([0.0, 1.0])]
        table = efficiency_table_from_gradients(
            full_fit_grads(problem), DesignFamily.PO_WR, 30.0, specs, specs
        )
        assert table.cells[0][0] == pytest.approx(1.0, abs=1e-9)
        assert table.cells[1][1] == pytest.approx(1.0, abs=1e-9)
        assert table.cells[0][1] < 0.95
        assert table.cells[1][0] < 0.95

    def test_cells_bounded_and_diagonal_one(self):
        problem = lognormal_example(seed=5)
        specs = [a_opt(), c_opt([1.0, 0.0]), d_opt(), phi_q(2.0),
                 distance_opt(DispersionKind.ER)]
        table = efficiency_table_from_gradients(
            full_fit_grads(problem), DesignFamily.PO_WOR, 40.0, specs, specs
        )
        for i, row in enumerate(table.cells):
            assert table.statuses[i] is SolveStatus.CONVERGED
            for v in row:
                assert v <= 1.0 + 1e-9
                assert v > 0.0
            assert row[i] == pytest.approx(1.0, abs=1e-9)

    def test_diverged_row_renders_blank(self):
        grads = paired_two_group_grads(seed=1)
        specs = [a_opt(), e_opt()]
        table = efficiency_table_from_gradients(
            grads, DesignFamily.PO_WR, 8.0, specs, [a_opt()]
        )
        assert table.statuses[1] is SolveStatus.DIVERGED
        assert table.cells[1] == (None,)
        assert table.cells[0][0] == pytest.approx(1.0, abs=1e-9)

    def test_csv_and_text_rendering(self):
        grads = paired_two_group_grads(seed=2)
        specs = [a_opt(), e_opt()]
        table = efficiency_table_from_gradients(
            grads, DesignFamily.PO_WR, 8.0, specs, specs
        )
        text = table.to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("row_criterion,iterations,status,A_eff,E_eff")
        assert any(line.startswith("E,") and line.endswith(",,") for line in lines)
        rendered = table.to_text()
        assert "Diverged" in rendered
        assert "criterion" in rendered.splitlines()[0]

    def test_no_v_matrix_pass_after_the_solves(self, monkeypatch):
        # Each trace carries the Gamma of its final scheme, so the table
        # reads the gradients only inside its solves.
        passes = []
        real_v, real_solve = covariance.v_matrix, evaluate.fixed_point_solve

        def counting_v(*args):
            passes.append("v_matrix")
            return real_v(*args)

        def marking_solve(*args, **kwargs):
            trace = real_solve(*args, **kwargs)
            passes.append("solved")
            return trace

        monkeypatch.setattr(covariance, "v_matrix", counting_v)
        monkeypatch.setattr(evaluate, "fixed_point_solve", marking_solve)
        grads = full_fit_grads(lognormal_example(seed=6))
        specs = [a_opt(), d_opt(), e_opt(), phi_q(2.0)]
        table = efficiency_table_from_gradients(grads, DesignFamily.PO_WR, 20.0, specs, specs)
        assert passes.count("solved") == len(specs)
        assert passes[-1] == "solved"
        assert table.statuses[0] is SolveStatus.CONVERGED

    def test_cell_lookup(self):
        grads = full_fit_grads(lognormal_example(seed=6))
        table = efficiency_table_from_gradients(
            grads, DesignFamily.PO_WR, 20.0, [a_opt()], [d_opt()]
        )
        assert table.row_labels == ("A",)
        assert table.col_labels == ("D",)
        row = fixed_point_solve(a_opt(), grads, DesignFamily.PO_WR, 20.0)
        col = fixed_point_solve(d_opt(), grads, DesignFamily.PO_WR, 20.0)
        at_row = phi_value(d_opt(), gamma(grads, row.final_scheme).gamma, grads)
        at_col = phi_value(d_opt(), gamma(grads, col.final_scheme).gamma, grads)
        assert table.cells[0][0] == pytest.approx(min(at_row, at_col) / at_row, rel=1e-12)


class TestMonteCarloCovariance:
    def test_census_gives_zero_matrix(self):
        problem = finpop_example(seed=8, n=40)
        census = uniform_scheme(40, 40, DesignFamily.PO_WOR)
        mc = monte_carlo_covariance(problem, census, R=1000, seed=1)
        assert mc.n_failed == 0
        assert np.all(np.abs(mc.cov) <= 1e-20)

    def test_replicate_floor(self):
        problem = finpop_example(seed=9, n=30)
        scheme = uniform_scheme(30, 10, DesignFamily.PO_WR)
        with pytest.raises(InvalidInput):
            monte_carlo_covariance(problem, scheme, R=500, seed=1)

    @pytest.mark.parametrize(
        "kwargs", [{"seed": -1}, {"seed": 1.5}, {"seed": True}, {"R": 1000.5}, {"R": "1000"}]
    )
    def test_refuses_negative_or_non_integral_seed_and_count(self, kwargs, monkeypatch):
        # seed -1 raised numpy's ValueError, seed 1.5 and seed True ran as
        # seed 1 and R 1000.5 raised a TypeError from range(). No worker may
        # start first.
        def no_fork():
            raise AssertionError("a worker started before the arguments were checked")

        monkeypatch.setattr(evaluate, "_worker_count", lambda: 3)
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        problem = finpop_example(seed=9, n=30)
        scheme = uniform_scheme(30, 10, DesignFamily.PO_WR)
        with pytest.raises(InvalidInput):
            monte_carlo_covariance(problem, scheme, **{"R": 1000, "seed": 1, **kwargs})

    def test_tracks_analytic_covariance(self):
        problem = finpop_example(seed=10, n=600, m=2)
        fit = fit_full(problem)
        grads = gradients_at(problem, fit.theta0)
        scheme = uniform_scheme(600, 80, DesignFamily.PO_WR)
        mc = monte_carlo_covariance(problem, scheme, R=1500, seed=2)
        analytic = gamma(grads, scheme).gamma
        ratio = np.trace(mc.cov) / np.trace(analytic)
        assert 0.7 < ratio < 1.3

    def test_risk_gap_matches_trace_formula(self):
        # Mean excess risk of the refitted parameter against the half-trace
        # of covariance times curvature.
        problem = finpop_example(seed=11, n=500, m=2)
        fit = fit_full(problem)
        grads = gradients_at(problem, fit.theta0)
        scheme = uniform_scheme(500, 70, DesignFamily.PO_WR)
        mc = monte_carlo_covariance(problem, scheme, R=1500, seed=3)
        losses0 = problem.unit_losses(fit.theta0).sum()
        gaps = [problem.unit_losses(t).sum() - losses0 for t in mc.thetas]
        analytic = 0.5 * np.trace(gamma(grads, scheme).gamma @ grads.hessian)
        assert 0.8 < np.mean(gaps) / analytic < 1.2

    def test_unreliable_when_fits_keep_failing(self):
        x = np.column_stack([np.ones(30), np.linspace(-2, 2, 30)])
        y = (x[:, 1] > 0).astype(float)
        problem = qblogit_problem(x, y)
        scheme = uniform_scheme(30, 15, DesignFamily.PO_WR)
        with pytest.raises(UnreliableEstimate) as exc:
            monte_carlo_covariance(problem, scheme, R=1000, seed=4, max_iter=25)
        assert exc.value.n_failed > 50

    def test_failures_counted_by_exception_class(self):
        x = np.column_stack([np.ones(30), np.linspace(-2, 2, 30)])
        y = (x[:, 1] > 0).astype(float)
        problem = qblogit_problem(x, y)
        scheme = uniform_scheme(30, 15, DesignFamily.PO_WR)
        with pytest.raises(UnreliableEstimate) as exc:
            monte_carlo_covariance(problem, scheme, R=1000, seed=4, max_iter=25)
        failures = exc.value.failures
        assert failures
        assert sum(failures.values()) == exc.value.n_failed
        assert set(failures) <= {cls.__name__ for cls in FIT_ERRORS}
        for name, count in failures.items():
            assert f"{name}: {count}" in str(exc.value)

    def test_result_shape(self):
        problem = finpop_example(seed=12, n=50, m=2)
        scheme = uniform_scheme(50, 25, DesignFamily.PO_WR)
        mc = monte_carlo_covariance(problem, scheme, R=1000, seed=5)
        assert isinstance(mc, MonteCarloCovariance)
        assert mc.cov.shape == (2, 2)
        assert mc.thetas.shape == (1000 - mc.n_failed, 2)
        assert sum(mc.failures.values()) == mc.n_failed
        assert 0.0 <= mc.failure_rate <= 1.0


class TestMonteCarloCost:
    """A replicate costs O(n): its draw and its fit never touch all N units."""

    def test_draws_and_fits_stay_on_the_support(self, monkeypatch):
        n_units, seed = 3_000, 6
        problem = lognormal_example(seed=14, n=n_units)
        mu = np.random.default_rng(14).uniform(0.2, 1.0, n_units)
        scheme = validate_scheme(mu / mu.sum() * 60, DesignFamily.PO_WR, 60)
        supports = [
            np.count_nonzero(draw(scheme, derive_seed(seed, r)).counts) for r in range(1000)
        ]

        poisson_sizes, newton_sizes = [], []
        real_newton = models._newton

        def recording_newton(problem, *args, **kwargs):
            newton_sizes.append(problem.n_units)
            return real_newton(problem, *args, **kwargs)

        class SpyGenerator(np.random.Generator):
            def poisson(self, lam=1.0, size=None):
                poisson_sizes.append(int(np.prod(np.shape(lam) if size is None else size)))
                return super().poisson(lam, size)

        monkeypatch.setattr(models, "_newton", recording_newton)
        monkeypatch.setattr(np.random, "Generator", SpyGenerator)
        # The spies see this process only; keep all R replicates in it.
        monkeypatch.setattr(evaluate, "_worker_count", lambda: 1)
        mc = monte_carlo_covariance(problem, scheme, R=1000, seed=seed)
        assert mc.n_failed == 0
        assert newton_sizes == supports
        assert max(newton_sizes) < n_units
        assert poisson_sizes == [1] * 1000

    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_each_replicate_is_one_public_draw_and_weighted_fit(self, family, monkeypatch):
        problem = finpop_example(seed=17, n=120)
        scheme = uniform_scheme(120, 30, family)
        seeds, fitted = [], []

        def recording_draw(scheme_arg, seed):
            assert scheme_arg is scheme
            seeds.append(seed)
            return draw(scheme_arg, seed)

        def recording_fit(problem_arg, sample, scheme_arg, **kwargs):
            assert problem_arg is problem and scheme_arg is scheme
            fitted.append(sample.seed)
            return models.weighted_fit(problem_arg, sample, scheme_arg, **kwargs)

        monkeypatch.setattr(evaluate, "_worker_count", lambda: 1)
        monkeypatch.setattr(evaluate, "draw", recording_draw)
        monkeypatch.setattr(evaluate, "weighted_fit", recording_fit)
        mc = monte_carlo_covariance(problem, scheme, R=1000, seed=4)
        assert seeds == fitted == [derive_seed(4, r) for r in range(1000)]
        # Bit for bit the serial loop of public draws and fits.
        expected = np.array(
            [models.weighted_fit(problem, draw(scheme, s), scheme).theta0 for s in seeds]
        )
        assert mc.n_failed == 0
        assert mc.thetas.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("family", [DesignFamily.PO_WR, DesignFamily.MULTI])
    def test_no_population_length_array_per_replicate(self, family, monkeypatch):
        # tracemalloc sees this process only; keep all R replicates in it.
        monkeypatch.setattr(evaluate, "_worker_count", lambda: 1)
        n_units = 100_000
        problem = lognormal_example(seed=16, n=n_units)
        scheme = uniform_scheme(n_units, 50.0, family)
        scheme.cdf  # built once per scheme, before the loop
        tracemalloc.start()
        try:
            mc = monte_carlo_covariance(problem, scheme, R=1000, seed=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mc.n_failed == 0
        # Half of one N-length int64 count array; the replicates' own thetas
        # take about 0.2 MB at R = 1000.
        assert peak < 4 * n_units

    def test_empty_draws_count_as_empty_sample(self):
        problem = finpop_example(seed=15, n=50)
        # A po-wr total of 4 leaves about e^-4, 1.8 %, of the draws empty.
        scheme = uniform_scheme(50, 4, DesignFamily.PO_WR)
        empty = sum(draw(scheme, derive_seed(7, r)).realized_size == 0 for r in range(1000))
        assert empty > 0
        mc = monte_carlo_covariance(problem, scheme, R=1000, seed=7)
        assert mc.failures == {"EmptySample": empty}
        assert mc.n_failed == empty

        tiny = uniform_scheme(50, 0.5, DesignFamily.PO_WR)
        with pytest.raises(
            UnreliableEstimate,
            match=r"^(\d+) of 1000 replicates failed to fit \(EmptySample: \1\)$",
        ):
            monte_carlo_covariance(problem, tiny, R=1000, seed=7)


def assert_no_child_left():
    # waitpid on any child raises once this process has none, live or unreaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_bitwise_equal(a, b):
    assert a.cov.tobytes() == b.cov.tobytes()
    assert a.thetas.shape == b.thetas.shape
    assert a.thetas.tobytes() == b.thetas.tobytes()
    assert a.failures == b.failures
    assert (a.n_failed, a.n_total) == (b.n_failed, b.n_total)


def with_workers(monkeypatch, workers, call):
    """``call()`` with the Monte-Carlo worker count pinned, or at its default."""
    with monkeypatch.context() as m:
        if workers is not None:
            m.setattr(evaluate, "_worker_count", lambda: workers)
        return call()


# One worker is the serial loop, three split 1000 replicates unevenly and
# None is the number of CPUs this process may use.
WORKER_COUNTS = (1, 3, None)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="replicates run in-process")
class TestMonteCarloWorkers:
    """Results do not depend on how many processes share the replicates."""

    @pytest.mark.parametrize(
        "make, family, n",
        [
            (lognormal_example, DesignFamily.PO_WR, 40),
            (qblogit_example, DesignFamily.PO_WOR, 60),
            (finpop_example, DesignFamily.MULTI, 30),
            # About 1.8 % of these draws are empty, so failures are counted.
            (finpop_example, DesignFamily.PO_WR, 4),
        ],
    )
    def test_results_bitwise_equal_for_any_worker_count(self, monkeypatch, make, family, n):
        problem = make(seed=21, n=300)
        scheme = uniform_scheme(300, n, family)
        results = [
            with_workers(
                monkeypatch, w, lambda: monte_carlo_covariance(problem, scheme, R=1000, seed=9)
            )
            for w in WORKER_COUNTS
        ]
        assert_no_child_left()
        if n == 4:
            assert results[0].failures["EmptySample"] > 0
        for mc in results[1:]:
            assert_bitwise_equal(mc, results[0])

    def test_unreliable_estimate_equal_for_any_worker_count(self, monkeypatch):
        # The pool of test_failures_counted_by_exception_class.
        x = np.column_stack([np.ones(30), np.linspace(-2, 2, 30)])
        problem = qblogit_problem(x, (x[:, 1] > 0).astype(float))
        scheme = uniform_scheme(30, 15, DesignFamily.PO_WR)
        errors = []
        for w in WORKER_COUNTS:
            with pytest.raises(UnreliableEstimate) as exc:
                with_workers(monkeypatch, w, lambda: monte_carlo_covariance(
                    problem, scheme, R=1000, seed=4, max_iter=25
                ))
            assert_no_child_left()
            errors.append((str(exc.value), exc.value.n_failed, exc.value.failures))
        assert errors[1:] == errors[:1] * 2

    @pytest.mark.parametrize("failing", [(100,), (700,), (500, 700)])
    def test_error_inside_a_replicate_is_the_serial_one(self, monkeypatch, failing):
        # With three workers replicate 100 fails in this process while the
        # children still run, 700 in the last child, and 500 and 700 in two.
        problem = finpop_example(seed=22, n=200)
        scheme = uniform_scheme(200, 30, DesignFamily.PO_WR)
        real = evaluate.derive_seed

        def derive(seed, r):
            if r in failing:
                raise RuntimeError(f"replicate {r} failed")
            return real(seed, r)

        monkeypatch.setattr(evaluate, "derive_seed", derive)
        for w in WORKER_COUNTS:
            with pytest.raises(RuntimeError, match=rf"^replicate {failing[0]} failed$"):
                with_workers(monkeypatch, w, lambda: monte_carlo_covariance(
                    problem, scheme, R=1000, seed=5
                ))
            assert_no_child_left()

    @pytest.mark.parametrize("death", ["in a replicate", "while sending"])
    def test_shard_of_a_dead_child_is_recomputed(self, monkeypatch, death):
        problem = lognormal_example(seed=23, n=200)
        scheme = uniform_scheme(200, 30, DesignFamily.PO_WR)
        serial = with_workers(
            monkeypatch, 1, lambda: monte_carlo_covariance(problem, scheme, R=1000, seed=6)
        )
        parent, real = os.getpid(), evaluate.derive_seed

        def derive(seed, r):
            if r == 700 and os.getpid() != parent:
                os._exit(1)
            return real(seed, r)

        def torn_dump(obj, file, protocol):
            # Half a payload, then the child dies: it must not be unpickled.
            payload = evaluate.pickle.dumps(obj, protocol)
            file.write(payload[: len(payload) // 2])
            file.flush()
            os._exit(1)

        if death == "in a replicate":
            monkeypatch.setattr(evaluate, "derive_seed", derive)
        else:
            monkeypatch.setattr(evaluate.pickle, "dump", torn_dump)
        for w in (3, None):
            mc = with_workers(
                monkeypatch, w, lambda: monte_carlo_covariance(problem, scheme, R=1000, seed=6)
            )
            assert_no_child_left()
            assert_bitwise_equal(mc, serial)

    def test_one_worker_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert evaluate._worker_count() == 1

    def test_forks_after_a_threaded_solve(self, monkeypatch):
        # The coefficient pass's second thread ends with the pass, so none
        # runs when the replicates fork.
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(linalg, "worker_count", lambda: 2)
        monkeypatch.setattr(threading, "Thread", Recording)
        before = threading.active_count()
        problem = lognormal_example(seed=24, n=2 * linalg.BLOCK_UNITS + 123)
        grads = gradients_at(problem, fit_full(problem).theta0)
        trace = fixed_point_solve(d_opt(), grads, DesignFamily.PO_WR, 200)
        assert trace.status is SolveStatus.CONVERGED
        assert len(started) > trace.iterations
        assert not any(thread.is_alive() for thread in started)
        assert threading.active_count() == before
        results = [
            with_workers(monkeypatch, w, lambda: monte_carlo_covariance(
                problem, trace.final_scheme, R=1000, seed=8
            ))
            for w in WORKER_COUNTS
        ]
        assert_no_child_left()
        assert threading.active_count() == before
        for mc in results[1:]:
            assert_bitwise_equal(mc, results[0])

    def test_forks_while_blas_threads_run(self):
        # A large matmul starts OpenBLAS's thread pool before the children
        # are forked; the run must neither hang nor move a bit.
        script = textwrap.dedent("""
            import numpy as np
            import subdesign.evaluate as evaluate
            from subdesign.models import qblogit_problem
            from subdesign.sampling import DesignFamily, uniform_scheme

            rng = np.random.default_rng(0)
            a = rng.normal(size=(1500, 1500))
            a @ a
            n = 20_000
            x = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
            y = 1.0 / (1.0 + np.exp(-x @ np.array([0.3, -0.5, 0.8])))
            problem = qblogit_problem(x, y)
            scheme = uniform_scheme(n, 200, DesignFamily.PO_WR)
            sharded = evaluate.monte_carlo_covariance(problem, scheme, R=2000, seed=3)
            evaluate._worker_count = lambda: 1
            serial = evaluate.monte_carlo_covariance(problem, scheme, R=2000, seed=3)
            print(sharded.thetas.tobytes() == serial.thetas.tobytes()
                  and sharded.cov.tobytes() == serial.cov.tobytes())
        """)
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        }
        src = os.path.dirname(os.path.dirname(subdesign.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"


class TestHansenHurwitzUnbiasedness:
    def test_risk_estimator_unbiased_per_family(self):
        problem = lognormal_example(seed=13, n=60)
        rng = np.random.default_rng(13)
        thetas = [
            np.array([1.0, 0.7]),
            np.array([0.5, 1.2]),
            np.array([1.5, 0.9]),
        ]
        for family in (DesignFamily.PO_WR, DesignFamily.PO_WOR, DesignFamily.MULTI):
            scheme = uniform_scheme(60, 20, family)
            for theta in thetas:
                losses = problem.unit_losses(theta)
                target = losses.sum()
                draws = np.empty(5000)
                for r in range(5000):
                    counts = draw(scheme, int(rng.integers(2**62))).counts
                    draws[r] = (counts / scheme.mu) @ losses
                se = draws.std(ddof=1) / np.sqrt(len(draws))
                if se == 0.0:
                    assert draws.mean() == pytest.approx(target, rel=1e-12)
                else:
                    assert abs(draws.mean() - target) <= 4.0 * se


class TestReparameterization:
    def test_identity_changes_nothing(self):
        problem = qblogit_example(seed=14)
        s1, s2, diff = reparam_invariance(
            problem, Reparameterization(np.eye(3)),
            distance_opt(DispersionKind.ER), DesignFamily.PO_WR, 25.0,
        )
        assert diff == 0.0

    def test_er_and_sandwich_distances_invariant(self):
        problem = qblogit_example(seed=15)
        rng = np.random.default_rng(15)
        a = rng.normal(0.0, 1.0, (3, 3)) + 3.0 * np.eye(3)
        for kind in (DispersionKind.ER, DispersionKind.SANDWICH):
            _, _, diff = reparam_invariance(
                problem, Reparameterization(a), distance_opt(kind),
                DesignFamily.PO_WR, 25.0,
            )
            assert diff <= 1e-8

    def test_a_optimality_is_scale_sensitive(self):
        problem = qblogit_example(seed=16)
        a = np.diag([100.0, 1.0, 1.0])
        _, _, diff = reparam_invariance(
            problem, Reparameterization(a), a_opt(), DesignFamily.PO_WR, 25.0
        )
        assert diff >= 1e-3

    def test_singular_map_rejected(self):
        with pytest.raises(InvalidInput):
            Reparameterization(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_singularity_is_relative_to_scale(self):
        # Condition number 1 at a small scale is a valid map; condition
        # number 1e12 is singular to working precision at any scale.
        small = 1e-4 * np.eye(3)
        assert np.array_equal(Reparameterization(small).matrix, small)
        with pytest.raises(InvalidInput, match="singular"):
            Reparameterization(np.diag([1e6, 1e-6]))

    def test_dimension_mismatch(self):
        problem = qblogit_example(seed=17)
        with pytest.raises(InvalidInput):
            reparam_invariance(
                problem, Reparameterization(np.eye(2)), a_opt(),
                DesignFamily.PO_WR, 20.0,
            )

    def test_needs_model_matrix(self):
        problem = finpop_example(seed=18)
        with pytest.raises(Unsupported):
            reparam_invariance(
                problem, Reparameterization(np.eye(2)), a_opt(),
                DesignFamily.PO_WR, 20.0,
            )

    def test_jacobian_is_the_map(self):
        a = np.array([[2.0, 0.0], [0.5, 1.0]])
        assert np.array_equal(Reparameterization(a).matrix, a)
