import tracemalloc

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
    brute_force_l_optimal,
    efficiency_table_from_gradients,
    monte_carlo_covariance,
    rel_efficiency,
    reparam_invariance,
)
import subdesign.models as models
from subdesign.models import finpop_problem, fit_full, lognormal_problem, qblogit_problem
from subdesign.sampling import (
    DesignFamily,
    derive_seed,
    draw,
    uniform_scheme,
    validate_scheme,
)
from subdesign.solver import SolveStatus, fixed_point_solve, l_optimal_scheme


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


class TestBruteForce:
    def test_uniform_coefficients(self):
        scheme = brute_force_l_optimal(np.ones(4), 2.0, DesignFamily.PO_WR, grid_steps=20)
        assert scheme.mu == pytest.approx(np.full(4, 0.5), abs=1e-9)

    def test_two_unit_closed_form(self):
        scheme = brute_force_l_optimal(np.array([4.0, 1.0]), 1.0, DesignFamily.PO_WR)
        assert scheme.mu == pytest.approx([2 / 3, 1 / 3], abs=1e-9)

    def test_capping_case(self):
        scheme = brute_force_l_optimal(
            np.array([100.0, 1.0, 1.0, 1.0]), 2.0, DesignFamily.PO_WOR, grid_steps=30
        )
        assert scheme.mu == pytest.approx([1.0, 1 / 3, 1 / 3, 1 / 3], abs=0.02)

    def test_agrees_with_closed_form_allocation(self):
        rng = np.random.default_rng(7)
        for family in (DesignFamily.PO_WR, DesignFamily.PO_WOR):
            for _ in range(5):
                c = rng.uniform(0.2, 5.0, 4)
                exact = l_optimal_scheme(c, 2.0, family)
                grid = brute_force_l_optimal(c, 2.0, family, grid_steps=60)
                obj_exact = np.sum(c / exact.mu)
                obj_grid = np.sum(c / grid.mu)
                assert obj_exact <= obj_grid + 1e-6

    def test_population_too_large(self):
        with pytest.raises(Unsupported):
            brute_force_l_optimal(np.ones(6), 2.0, DesignFamily.PO_WR)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            brute_force_l_optimal(np.array([1.0, 0.0]), 1.0, DesignFamily.PO_WR)

    def test_po_wor_grid_respects_cap(self):
        scheme = brute_force_l_optimal(
            np.array([10.0, 1.0, 1.0]), 2.5, DesignFamily.PO_WOR, grid_steps=40
        )
        assert np.all(scheme.mu <= 1.0 + 1e-12)


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
        mc = monte_carlo_covariance(problem, scheme, R=1000, seed=seed)
        assert mc.n_failed == 0
        assert newton_sizes == supports
        assert max(newton_sizes) < n_units
        assert poisson_sizes == [1] * 1000

    @pytest.mark.parametrize("family", [DesignFamily.PO_WR, DesignFamily.MULTI])
    def test_no_population_length_array_per_replicate(self, family):
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
