from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subdesign.models as models
from subdesign.cli import _build_parser
from subdesign.config import DEFAULT
from subdesign.criteria import anticipated_coefficients, parse_criterion
from subdesign.dataio import load_problem, write_pool
from subdesign.errors import (
    EmptySample,
    InvalidData,
    InvalidInput,
    NoConvergence,
    SingularHessian,
)
from subdesign.linalg import BLOCK_UNITS, logistic, spd_inverse, unit_blocks
from subdesign.models import (
    finpop_problem,
    fit_full,
    leverage,
    lognormal_problem,
    multiplier_fit,
    qblogit_problem,
    weighted_fit,
)
from subdesign.sampling import DesignFamily, DrawResult, draw, uniform_scheme, validate_scheme
from subdesign.sequential import run_k_stages, update_aux
from subdesign.synth import make_pool, pool_problem


def random_problems(seed=0):
    rng = np.random.default_rng(seed)
    n = 40
    fin = finpop_problem(rng.standard_normal((n, 3)), rng.uniform(0.5, 2.0, n))
    logn = lognormal_problem(
        np.exp(rng.normal(1.0, 0.8, n)), rng.uniform(0.5, 2.0, n)
    )
    x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    probs = 1.0 / (1.0 + np.exp(-(x @ np.array([0.3, -0.5, 0.8]))))
    logit = qblogit_problem(x, np.clip(probs + rng.normal(0, 0.05, n), 0, 1))
    return fin, logn, logit


def make_problem(kind, rng, n):
    w = rng.uniform(0.5, 2.0, n)
    if kind == "finpop":
        return finpop_problem(rng.standard_normal((n, 2)) + 3.0, w)
    if kind == "lognormal":
        return lognormal_problem(np.exp(rng.normal(1.0, 0.8, n)), w)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    probs = 1.0 / (1.0 + np.exp(-(x @ np.array([0.3, -0.5, 0.8]))))
    return qblogit_problem(x, np.clip(probs + rng.normal(0, 0.05, n), 0, 1))


def sample_theta(kind, rng):
    if kind == "lognormal":
        return np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2.0)])
    return rng.uniform(-1, 1, size=2 if kind == "finpop" else 3)


KINDS = ("finpop", "lognormal", "qblogit")


class TestFinpop:
    def test_unweighted_mean(self):
        prob = finpop_problem([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        fit = fit_full(prob)
        assert fit.theta0 == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_gradient_balance_at_opt(self):
        prob = finpop_problem([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        g = prob.unit_gradients(np.array([0.5, 0.5]))
        assert g[0] == pytest.approx([-0.25, 0.25], abs=1e-15)
        assert g[1] == pytest.approx(-g[0], abs=1e-15)
        assert g.sum(axis=0) == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_weighted_mean_by_hand(self):
        prob = finpop_problem([[1.0, 0.0], [0.0, 1.0]], [0.9, 0.1])
        fit = fit_full(prob)
        assert fit.theta0 == pytest.approx([0.9, 0.1], abs=1e-12)

    def test_weights_renormalized_hessian_identity(self):
        rng = np.random.default_rng(1)
        prob = finpop_problem(rng.standard_normal((10, 2)), rng.uniform(1, 5, 10))
        assert prob.weights.sum() == pytest.approx(1.0)
        assert prob.hessian(np.zeros(2), None) == pytest.approx(np.eye(2), abs=1e-14)

    def test_one_newton_step_from_anywhere(self):
        rng = np.random.default_rng(2)
        prob = finpop_problem(rng.standard_normal((15, 3)), np.ones(15))
        fit = fit_full(prob, theta_init=np.array([50.0, -20.0, 3.0]))
        assert fit.iterations <= 1
        assert fit.theta0 == pytest.approx(prob.data["y"].mean(axis=0), abs=1e-10)

    def test_matches_closed_form_to_1e12(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((25, 2))
        w = rng.uniform(0.2, 3.0, 25)
        prob = finpop_problem(y, w)
        fit = fit_full(prob)
        expected = (w[:, None] * y).sum(axis=0) / w.sum()
        assert np.max(np.abs(fit.theta0 - expected)) <= 1e-12

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidData, match="^weights must be finite and strictly positive$"):
            finpop_problem([[1.0], [2.0]], [1.0, 0.0])
        with pytest.raises(InvalidData, match="^weights must be finite and strictly positive$"):
            finpop_problem([[1.0], [2.0]], [1.0, -1.0])


class TestLognormal:
    def test_closed_form_moments(self):
        # log y = (0, 2) with equal weights: eta = 1, sigma^2 = 1.
        prob = lognormal_problem([1.0, np.exp(2.0)], [0.5, 0.5])
        fit = fit_full(prob)
        assert fit.theta0 == pytest.approx([1.0, 1.0], abs=1e-10)

    def test_hessian_shape_at_optimum(self):
        prob = lognormal_problem([1.0, np.exp(2.0)], [0.5, 0.5])
        fit = fit_full(prob)
        h = prob.hessian(fit.theta0, None)
        sigma2 = fit.theta0[1] ** 2
        assert h == pytest.approx(np.diag([1.0, 2.0]) / sigma2, abs=1e-8)

    def test_expected_hessian(self):
        prob = lognormal_problem([1.0, np.exp(2.0)], [0.5, 0.5])
        assert prob.expected_hessian(np.array([1.0, 2.0])) == pytest.approx(
            np.diag([1.0, 2.0]) / 4.0
        )

    def test_degenerate_zero_variance(self):
        prob = lognormal_problem([np.e, np.e], [0.5, 0.5])
        with pytest.raises((SingularHessian, NoConvergence)):
            fit_full(prob)

    def test_weighted_moments(self):
        rng = np.random.default_rng(4)
        y = np.exp(rng.normal(0.5, 1.2, 30))
        w = rng.uniform(0.1, 2.0, 30)
        prob = lognormal_problem(y, w)
        fit = fit_full(prob)
        wn = w / w.sum()
        eta = wn @ np.log(y)
        sigma = np.sqrt(wn @ (np.log(y) - eta) ** 2)
        assert fit.theta0 == pytest.approx([eta, sigma], rel=1e-9)

    def test_rejects_nonpositive_y(self):
        with pytest.raises(InvalidData):
            lognormal_problem([1.0, 0.0], [0.5, 0.5])
        with pytest.raises(InvalidData):
            lognormal_problem([1.0, -2.0], [0.5, 0.5])


class TestQblogit:
    def test_intercept_only_score_equation(self):
        # sum(y_i - p) = 0 is solved by p = mean(y) = 0.5, i.e. theta = 0.
        prob = qblogit_problem(np.ones((3, 1)), [0.2, 0.5, 0.8])
        fit = fit_full(prob)
        assert fit.theta0 == pytest.approx([0.0], abs=1e-10)

    def test_constant_half_response(self):
        prob = qblogit_problem(np.ones((5, 1)), np.full(5, 0.5))
        fit = fit_full(prob)
        assert fit.theta0 == pytest.approx([0.0], abs=1e-12)

    def test_complete_separation_fails(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        prob = qblogit_problem(x, y)
        with pytest.raises((SingularHessian, NoConvergence)):
            fit_full(prob, max_iter=40)

    def test_rejects_out_of_range_response(self):
        with pytest.raises(InvalidData):
            qblogit_problem(np.ones((2, 1)), [0.5, 1.2])

    def test_rejects_zero_column(self):
        with pytest.raises(InvalidData):
            qblogit_problem(np.array([[1.0, 0.0], [1.0, 0.0]]), [0.3, 0.7])

    def test_names_the_first_zero_column(self):
        x = np.array([[1.0, 0.0, -0.0, 2.0], [1.0, 0.0, 0.0, 3.0]])
        with pytest.raises(InvalidData, match="^design column 1 is identically zero$"):
            qblogit_problem(x, [0.3, 0.7])

    def test_recovers_coefficients_roughly(self):
        rng = np.random.default_rng(5)
        n = 4000
        x = np.column_stack([np.ones(n), rng.standard_normal(n)])
        beta = np.array([0.4, -0.9])
        p = 1.0 / (1.0 + np.exp(-(x @ beta)))
        y = rng.binomial(1, p).astype(float)
        fit = fit_full(qblogit_problem(x, y))
        assert fit.theta0 == pytest.approx(beta, abs=0.15)

    @pytest.mark.parametrize("factor", [1e-4, 1e4])
    def test_covariate_units_do_not_make_the_hessian_singular(self, factor):
        # The same covariate in other units is the same fit with its
        # coefficient divided by the factor. The gradient tolerance is still
        # absolute, so it is converted to the new units too.
        pool = make_pool("qblogit", 100_000, seed=3)
        fit = fit_full(pool_problem("qblogit", pool))
        x = pool["X"].copy()
        x[:, 1] *= factor
        scaled = fit_full(qblogit_problem(x, pool["y"]), tol=1e-10 * max(factor, 1.0))
        expected = fit.theta0.copy()
        expected[1] /= factor
        assert scaled.theta0 == pytest.approx(expected, rel=1e-9)

    def test_collinear_covariates_stay_singular(self):
        rng = np.random.default_rng(6)
        x = np.column_stack([np.ones(200), rng.standard_normal(200)])
        x = np.column_stack([x, 1e4 * x[:, 1]])
        y = rng.uniform(0.1, 0.9, 200)
        with pytest.raises(SingularHessian):
            fit_full(qblogit_problem(x, y))


class TestGradientConsistency:
    def sample_theta(self, kind, rng):
        if kind == "lognormal":
            return np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2.0)])
        return rng.uniform(-1, 1, size=3)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_fd_gradient_matches(self, which):
        problems = random_problems(seed=10)
        prob = problems[which]
        rng = np.random.default_rng(100 + which)
        h = 1e-6
        for _ in range(100):
            i = rng.integers(prob.n_units)
            theta = self.sample_theta(prob.kind, rng)
            psi = prob.unit_gradients(theta)[i]
            fd = np.empty(prob.n_params)
            for j in range(prob.n_params):
                e = np.zeros(prob.n_params)
                e[j] = h
                fd[j] = (
                    prob.unit_losses(theta + e)[i] - prob.unit_losses(theta - e)[i]
                ) / (2 * h)
            assert np.allclose(fd, psi, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_fd_hessian_matches(self, which):
        problems = random_problems(seed=11)
        prob = problems[which]
        rng = np.random.default_rng(200 + which)
        h = 1e-6
        for _ in range(20):
            theta = self.sample_theta(prob.kind, rng)
            hess = prob.hessian(theta, None)
            fd = np.empty((prob.n_params, prob.n_params))
            for j in range(prob.n_params):
                e = np.zeros(prob.n_params)
                e[j] = h
                gp = prob.unit_gradients(theta + e).sum(axis=0)
                gm = prob.unit_gradients(theta - e).sum(axis=0)
                fd[:, j] = (gp - gm) / (2 * h)
            assert np.allclose(fd, hess, rtol=1e-4, atol=1e-6)

    def test_gradient_balance_at_fitted_theta(self):
        for prob in random_problems(seed=12):
            fit = fit_full(prob)
            psi = prob.unit_gradients(fit.theta0)
            norms = np.linalg.norm(psi, axis=1)
            assert np.max(np.abs(psi.sum(axis=0))) <= 1e-8 * norms.max()


class TestWeightedFit:
    def test_census_equals_full_fit(self):
        for prob in random_problems(seed=13):
            scheme = uniform_scheme(prob.n_units, prob.n_units, DesignFamily.PO_WOR)
            census = draw(scheme, seed=0)
            assert census.realized_size == prob.n_units
            wfit = weighted_fit(prob, census, scheme)
            ffit = fit_full(prob)
            assert wfit.theta0 == pytest.approx(ffit.theta0, abs=1e-9)

    def test_finpop_closed_form(self):
        rng = np.random.default_rng(14)
        n = 30
        y = rng.standard_normal((n, 2))
        w = rng.uniform(0.5, 2.0, n)
        prob = finpop_problem(y, w)
        scheme = uniform_scheme(n, 10, DesignFamily.PO_WR)
        result = draw(scheme, seed=77)
        counts = result.counts
        u = counts / scheme.mu
        wn = prob.weights
        expected = (u * wn) @ y / np.sum(u * wn)
        fit = weighted_fit(prob, result, scheme)
        assert fit.theta0 == pytest.approx(expected, abs=1e-10)

    def test_empty_sample(self):
        prob = finpop_problem([[1.0], [2.0]], [1.0, 1.0])
        scheme = uniform_scheme(2, 1, DesignFamily.PO_WR)
        with pytest.raises(EmptySample):
            weighted_fit(prob, drawn_units(2, [], []), scheme)

    @pytest.mark.parametrize("draw_n, scheme_n", [(3, 2), (2, 3), (3, 3)])
    def test_refuses_a_draw_or_scheme_of_another_size(self, draw_n, scheme_n):
        prob = finpop_problem([[1.0], [2.0]], [1.0, 1.0])
        scheme = uniform_scheme(scheme_n, 1, DesignFamily.PO_WR)
        with pytest.raises(InvalidInput, match="problem has 2"):
            weighted_fit(prob, drawn_units(draw_n, [0, 1], [1, 1]), scheme)

    def test_hh_risk_unbiased_po_wr(self):
        # The weighted risk at fixed theta averages to the full risk.
        rng = np.random.default_rng(15)
        n = 25
        prob = lognormal_problem(np.exp(rng.normal(0, 1, n)), np.ones(n))
        theta = np.array([0.3, 1.4])
        full = prob.unit_losses(theta).sum()
        mu = rng.uniform(0.1, 0.9, n)
        scheme = validate_scheme(mu, DesignFamily.PO_WR, mu.sum())
        reps = 5000
        vals = np.empty(reps)
        losses = prob.unit_losses(theta)
        for s in range(reps):
            counts = draw(scheme, s).counts
            vals[s] = (counts / mu) @ losses
        se = vals.std() / np.sqrt(reps)
        assert abs(vals.mean() - full) <= 4 * se


class TestFitResult:
    def test_gradient_norm_within_tol(self):
        for prob in random_problems(seed=16):
            fit = fit_full(prob, tol=1e-9)
            assert fit.final_gradient_norm <= 1e-9

    def test_hessian_at_opt_pd(self):
        for prob in random_problems(seed=17):
            fit = fit_full(prob)
            eigvals = np.linalg.eigvalsh(fit.hessian_at_opt)
            assert eigvals.min() > 0

    def test_bad_init_rejected(self):
        prob = lognormal_problem([1.0, 2.0, 3.0], np.ones(3))
        with pytest.raises(InvalidInput):
            fit_full(prob, theta_init=np.array([0.0, -1.0]))


class TestNewtonExit:
    """The last pass of the Newton loop only tests convergence."""

    def qblogit(self):
        return pool_problem("qblogit", make_pool("qblogit", 500, seed=3))

    def test_converged_on_the_last_pass(self):
        prob = self.qblogit()
        assert fit_full(prob).iterations == 5
        fit = fit_full(prob, max_iter=5)
        assert fit.iterations == 5
        assert fit.final_gradient_norm <= 1e-10

    def test_unconverged_on_the_last_pass(self):
        with pytest.raises(NoConvergence, match="after 4 iterations"):
            fit_full(self.qblogit(), max_iter=4)

    def test_zero_iterations(self):
        prob = pool_problem("finpop", make_pool("finpop", 500, seed=3))
        with pytest.raises(NoConvergence, match="after 0 iterations"):
            fit_full(prob, max_iter=0)


class TestTake:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_rows_match_the_full_problem(self, kind, seed, data):
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(1, 60))
        prob = make_problem(kind, rng, n)
        idx = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        sub = prob.take(idx)
        theta = sample_theta(kind, rng)
        assert (sub.kind, sub.n_units, sub.n_params) == (kind, idx.size, prob.n_params)
        for name in ("unit_losses", "unit_gradients"):
            full = getattr(prob, name)(theta)[idx]
            part = getattr(sub, name)(theta)
            assert part.shape == full.shape
            if kind == "qblogit":
                # The linear predictor x @ theta goes through BLAS gemv, which
                # may round a row differently depending on how many rows share
                # the call; rows then agree to the rounding of one dot product.
                x = prob.data["X"][idx]
                bound = 1e-13 * (1.0 + np.abs(x) @ np.abs(theta))
                if name == "unit_gradients":
                    bound = bound[:, None] * np.abs(x)
                assert np.all(np.abs(part - full) <= bound)
            else:
                assert np.array_equal(part, full)

    def test_keeps_full_population_normalization(self):
        rng = np.random.default_rng(30)
        for kind in ("finpop", "lognormal"):
            prob = make_problem(kind, rng, 50)
            idx = np.array([3, 17, 41])
            sub = prob.take(idx)
            assert np.array_equal(sub.weights, prob.weights[idx])
            assert sub.weights.sum() < 1.0
            assert np.array_equal(sub.take(np.array([2, 0])).weights, prob.weights[[41, 3]])

    def test_finpop_start_is_the_full_data_mean(self):
        prob = make_problem("finpop", np.random.default_rng(31), 50)
        sub = prob.take(np.array([0, 1]))
        assert np.array_equal(sub.default_init(None), prob.default_init(None))
        assert np.array_equal(sub.default_init(None), prob.data["y"].mean(axis=0))

    def test_hessian_matches_zero_multipliers_off_the_subset(self):
        rng = np.random.default_rng(32)
        for kind in KINDS:
            prob = make_problem(kind, rng, 40)
            idx = np.array([1, 5, 6, 20, 33, 39])
            u = np.zeros(40)
            u[idx] = rng.uniform(0.5, 3.0, idx.size)
            theta = sample_theta(kind, rng)
            full = prob.hessian(theta, u)
            part = prob.take(idx).hessian(theta, u[idx])
            assert part == pytest.approx(full, rel=1e-12, abs=1e-14)


def random_scheme(rng, n_units, n, family):
    mu = rng.uniform(0.2, 1.0, n_units)
    mu = mu / mu.sum() * n
    return validate_scheme(mu, family, n)


def fit_or_error(fit, *args):
    try:
        return fit(*args)
    except (SingularHessian, NoConvergence) as err:
        return type(err)


def drawn_units(n_units, support, counts):
    """A DrawResult of the given units and counts, as ``draw`` builds one."""
    support = np.asarray(support, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    return DrawResult(support, counts, n_units, int(counts.sum()), seed=0)


class TestSupportFit:
    @pytest.mark.parametrize("family", list(DesignFamily))
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_newton_over_the_full_population(self, kind, family, seed):
        rng = np.random.default_rng(seed)
        prob = make_problem(kind, rng, 300)
        scheme = random_scheme(rng, 300, 40, family)
        result = draw(scheme, seed)
        if result.realized_size == 0:
            return
        wfit = fit_or_error(weighted_fit, prob, result, scheme)
        # Zero multipliers off the draw: the fit without the row subset.
        ffit = fit_or_error(models._newton, prob, result.counts / scheme.mu, None, 1e-10, 60)
        if isinstance(ffit, type):
            assert wfit is ffit
            return
        assert wfit.iterations == ffit.iterations
        err = np.max(np.abs(wfit.theta0 - ffit.theta0))
        assert err <= 1e-12 * np.max(np.abs(ffit.theta0))

    @pytest.mark.parametrize("family", list(DesignFamily))
    @pytest.mark.parametrize("kind", KINDS)
    def test_weighted_fit_is_the_multiplier_fit_of_its_draw(self, kind, family):
        rng = np.random.default_rng(36)
        prob = make_problem(kind, rng, 300)
        scheme = random_scheme(rng, 300, 40, family)
        result = draw(scheme, 37)
        wfit = weighted_fit(prob, result, scheme)
        u = result.support_counts / scheme.mu[result.support]
        mfit = multiplier_fit(prob, result.support, u)
        assert wfit.iterations == mfit.iterations
        assert wfit.theta0.tobytes() == mfit.theta0.tobytes()
        assert wfit.risk == mfit.risk

    def test_newton_sees_only_the_support(self, monkeypatch):
        seen = []
        real = models._newton

        def recording(problem, *args, **kwargs):
            seen.append(problem.n_units)
            return real(problem, *args, **kwargs)

        monkeypatch.setattr(models, "_newton", recording)
        rng = np.random.default_rng(33)
        for kind in KINDS:
            prob = make_problem(kind, rng, 2_000)
            scheme = random_scheme(rng, 2_000, 60, DesignFamily.PO_WR)
            result = draw(scheme, 34)
            weighted_fit(prob, result, scheme)
            assert seen[-1] == result.support.size < 2_000
            multiplier_fit(prob, result.support, result.support_counts.astype(float))
            assert seen[-1] == result.support.size
        assert len(seen) == 2 * len(KINDS)

    @pytest.mark.parametrize(
        "support, multipliers",
        [
            ([7, 2], [1.0, 1.0]),  # unsorted
            ([2, 2], [1.0, 1.0]),  # repeated
            ([-1, 2], [1.0, 1.0]),  # negative
            ([2, 10], [1.0, 1.0]),  # >= N
            ([2.0, 7.0], [1.0, 1.0]),  # not integers
            ([True, False], [1.0, 1.0]),  # not integers either
            ([[2, 7]], [[1.0, 1.0]]),  # not a vector
            ([2, 7], [1.0]),  # length mismatch
            ([2, 7], [1.0, 0.0]),
            ([2, 7], [1.0, -1.0]),
            ([2, 7], [1.0, np.nan]),
            ([2, 7], [1.0, np.inf]),
        ],
    )
    def test_multiplier_fit_refuses(self, support, multipliers):
        prob = make_problem("lognormal", np.random.default_rng(35), 10)
        with pytest.raises(InvalidInput):
            multiplier_fit(prob, support, multipliers)

    @pytest.mark.parametrize("support", [[], np.array([], dtype=np.int64)])
    def test_multiplier_fit_of_an_empty_support(self, support):
        prob = make_problem("lognormal", np.random.default_rng(35), 10)
        with pytest.raises(EmptySample):
            multiplier_fit(prob, support, [])


class TestModelTable:
    @pytest.mark.parametrize("kind", list(models.MODELS))
    def test_every_entry_round_trips_its_pool(self, tmp_path, kind):
        pool = make_pool(kind, 30, seed=2)
        path = tmp_path / "pool.csv"
        write_pool(str(path), kind, pool)
        loaded = load_problem(str(path), kind)
        reference = pool_problem(kind, pool)
        assert loaded.problem.kind == reference.kind == kind
        for key, value in reference.data.items():
            assert np.array_equal(loaded.problem.data[key], value)
        assert _build_parser().parse_args(["fit", "--model", kind]).model == kind

    @pytest.mark.parametrize(
        "call",
        [
            lambda tmp, prob, recs: load_problem(str(tmp / "absent.csv"), "probit"),
            lambda tmp, prob, recs: write_pool(str(tmp / "pool.csv"), "probit", {}),
            lambda tmp, prob, recs: pool_problem("probit", {}),
            lambda tmp, prob, recs: make_pool("probit", 30),
            lambda tmp, prob, recs: anticipated_coefficients("probit"),
            lambda tmp, prob, recs: update_aux(recs, replace(prob, kind="probit")),
            lambda tmp, prob, recs: parse_criterion("V", replace(prob, kind="probit")),
        ],
        ids=[
            "load_problem", "write_pool", "pool_problem", "make_pool",
            "anticipated_coefficients", "update_aux", "parse_criterion_V",
        ],
    )
    def test_unknown_kind_is_one_error(self, tmp_path, call):
        problem = pool_problem("qblogit", make_pool("qblogit", 30, seed=2))
        records = run_k_stages(problem, [10], DesignFamily.PO_WR, seed=1)
        with pytest.raises(InvalidInput, match="^unknown model kind 'probit'$"):
            call(tmp_path, problem, records)
        assert not (tmp_path / "pool.csv").exists()


def reference_hessian(prob, theta, u):
    """The Hessian as the unblocked full-N formulas compute it."""
    if prob.kind != "qblogit":
        return prob.hessian(theta, u)
    x = prob.data["X"]
    pr = np.clip(logistic(x @ theta), DEFAULT.p_clamp, 1.0 - DEFAULT.p_clamp)
    w = pr * (1.0 - pr)
    if u is not None:
        w = w * u
    return (x * w[:, None]).T @ x


def reference_terms(prob, theta, u):
    """Risk, gradient and Hessian from three separate evaluator passes."""
    ell = prob.unit_losses(theta)
    g = prob.unit_gradients(theta)
    risk = float(ell.sum() if u is None else u @ ell)
    grad = g.sum(axis=0) if u is None else u @ g
    return risk, grad, reference_hessian(prob, theta, u)


def reference_newton(prob, theta, tol=1e-10, max_iter=60):
    """Damped Newton with a loss pass per line-search candidate, then a
    gradient pass and a Hessian pass at the accepted point."""
    risk, grad, hess = reference_terms(prob, theta, None)
    for iteration in range(max_iter + 1):
        if np.max(np.abs(grad)) <= tol:
            return theta, iteration
        step = np.linalg.solve(hess, -grad)
        alpha = 1.0
        while True:
            candidate = theta + alpha * step
            if prob.in_domain(candidate):
                cand_risk = float(prob.unit_losses(candidate).sum())
                if cand_risk <= risk + 1e-12 * max(1.0, abs(risk)):
                    break
            alpha *= 0.5
        theta, risk = candidate, cand_risk
        _, grad, hess = reference_terms(prob, theta, None)
    raise AssertionError("reference Newton did not converge")


def multipliers_with_zeros(rng, n):
    u = rng.uniform(0.5, 3.0, n)
    u[rng.random(n) < 0.3] = 0.0
    return u


class TestNewtonTerms:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 3000, BLOCK_UNITS])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_separate_passes_up_to_one_block(self, kind, n, weighted):
        rng = np.random.default_rng(n + 7 * weighted)
        prob = make_problem(kind, rng, n)
        theta = sample_theta(kind, rng)
        u = multipliers_with_zeros(rng, n) if weighted else None
        risk, grad, hess = prob.newton_terms(theta, u)
        ref_risk, ref_grad, ref_hess = reference_terms(prob, theta, u)
        assert isinstance(risk, float)
        assert risk == ref_risk
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(hess, ref_hess)
        assert np.array_equal(prob.hessian(theta, u), ref_hess)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_within_1e13_with_a_tail_block(self, kind, weighted):
        n = 2 * BLOCK_UNITS + 123
        rng = np.random.default_rng(40 + weighted)
        prob = make_problem(kind, rng, n)
        theta = sample_theta(kind, rng)
        u = multipliers_with_zeros(rng, n) if weighted else None
        got = prob.newton_terms(theta, u)
        for value, ref in zip(got, reference_terms(prob, theta, u)):
            assert np.max(np.abs(value - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(prob.hessian(theta, u) - got[2])) <= 1e-13 * np.max(
            np.abs(got[2])
        )

    def test_qblogit_gradient_is_the_unit_order_sum_at_any_size(self):
        n = 2 * BLOCK_UNITS + 123
        rng = np.random.default_rng(42)
        prob = make_problem("qblogit", rng, n)
        theta = sample_theta("qblogit", rng)
        grad = prob.newton_terms(theta, None)[1]
        assert np.array_equal(grad, prob.unit_gradients(theta).sum(axis=0))

    # finpop's loss is quadratic, so its first Newton step is exact and no
    # candidate is ever rejected.
    @pytest.mark.parametrize("kind", ["lognormal", "qblogit"])
    def test_rejected_first_candidate_matches_reference_newton(self, kind):
        rng = np.random.default_rng(43)
        prob = make_problem(kind, rng, 500)
        start = np.array([0.0, 0.5]) if kind == "lognormal" else np.array([4.0, -4.0, 4.0])
        calls = []

        def counted(theta, u=None):
            calls.append(theta)
            return prob.newton_terms(theta, u)

        fit = fit_full(replace(prob, newton_terms=counted), theta_init=start)
        # One evaluation at the start and one per accepted step: more means a
        # candidate was rejected.
        assert len(calls) > fit.iterations + 1
        theta, iterations = reference_newton(prob, start)
        assert fit.iterations == iterations
        assert np.array_equal(fit.theta0, theta)

    @pytest.mark.parametrize("seed, iterations", [(1, 5), (7, 5), (42, 5)])
    def test_qblogit_iteration_counts_at_1e5(self, seed, iterations):
        prob = pool_problem("qblogit", make_pool("qblogit", 100_000, seed))
        assert fit_full(prob).iterations == iterations


def two_divide_logistic(t):
    """The sigmoid as two divides, the second masked to t >= 0."""
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    return np.divide(1.0, d, out=e / d, where=t >= 0)


def broadcast_weights(t):
    pr = two_divide_logistic(t)
    w = np.clip(pr, DEFAULT.p_clamp, 1.0 - DEFAULT.p_clamp)
    w *= 1.0 - w
    return pr, w


def broadcast_qblogit_terms(prob, theta, u):
    """qblogit's blocked Newton terms with the broadcast row scaling and the
    masked sigmoid they were first written with."""
    x, resp = prob.data["X"], prob.data["y"]
    p = x.shape[1]
    risk, grad, total = 0.0, np.zeros(p), np.zeros((p, p))
    for rows in unit_blocks(x.shape[0]):
        xb, rb = x[rows], resp[rows]
        t = xb @ theta
        pr, w = broadcast_weights(t)
        loss = np.logaddexp(0.0, t) - rb * t
        r = pr - rb
        if u is None:
            risk += float(loss.sum())
            g = r * xb.T
            g[:, 0] += grad
            grad = np.add.accumulate(g, axis=1)[:, -1].copy()
        else:
            risk += float(u[rows] @ loss)
            grad += u[rows] @ (r[:, None] * xb)
            w *= u[rows]
        total += (xb * w[:, None]).T @ xb
    return risk, grad, total


def broadcast_leverage(x, theta):
    h = np.empty(x.shape[0])
    gram = np.zeros((x.shape[1], x.shape[1]))
    for rows in unit_blocks(x.shape[0]):
        xb = x[rows]
        h[rows] = broadcast_weights(xb @ theta)[1]
        gram += (xb * h[rows][:, None]).T @ xb
    h_inv = spd_inverse(gram)
    for rows in unit_blocks(x.shape[0]):
        xb = x[rows]
        h[rows] *= np.sum((xb @ h_inv) * xb, axis=1)
    return h


def column_stack_lognormal_terms(prob, theta, u):
    """lognormal's Newton terms with the gradient summed over the N x 2 array."""
    g = prob.unit_gradients(theta)
    ell = prob.unit_losses(theta)
    if u is None:
        return float(ell.sum()), g.sum(axis=0), prob.hessian(theta, None)
    return float(u @ ell), u @ g, prob.hessian(theta, u)


class TestContiguousPasses:
    """The row-wise and column-wise passes against the broadcast, masked and
    axis-0 forms they replaced: the same operations in the same order, so
    equal bit for bit at any N, a tail block included."""

    SIZES = [1, 3000, BLOCK_UNITS, 2 * BLOCK_UNITS + 123]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_qblogit_terms_and_hessian(self, n, weighted):
        rng = np.random.default_rng(n + 11 * weighted)
        prob = make_problem("qblogit", rng, n)
        theta = 3.0 * sample_theta("qblogit", rng)
        u = multipliers_with_zeros(rng, n) if weighted else None
        risk, grad, hess = prob.newton_terms(theta, u)
        ref_risk, ref_grad, ref_hess = broadcast_qblogit_terms(prob, theta, u)
        assert risk == ref_risk
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(hess, ref_hess)
        assert np.array_equal(prob.hessian(theta, u), ref_hess)

    @pytest.mark.parametrize("n", SIZES)
    def test_qblogit_leverage(self, n):
        rng = np.random.default_rng(n + 5)
        x = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        if n == 1:
            x = np.eye(4)
        theta = np.array([0.3, -2.5, 0.8, 4.0])
        assert np.array_equal(leverage(x, theta), broadcast_leverage(x, theta))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_lognormal_terms(self, n, weighted):
        rng = np.random.default_rng(n + 13 * weighted)
        prob = make_problem("lognormal", rng, n)
        theta = sample_theta("lognormal", rng)
        u = multipliers_with_zeros(rng, n) if weighted else None
        risk, grad, hess = prob.newton_terms(theta, u)
        ref_risk, ref_grad, ref_hess = column_stack_lognormal_terms(prob, theta, u)
        assert risk == ref_risk
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(hess, ref_hess)


class TestBlockedLeverage:
    @staticmethod
    def unblocked(x, theta):
        pr = np.clip(logistic(x @ theta), DEFAULT.p_clamp, 1.0 - DEFAULT.p_clamp)
        w = pr * (1.0 - pr)
        h_inv = spd_inverse((x * w[:, None]).T @ x)
        return w * np.sum((x @ h_inv) * x, axis=1)

    @pytest.mark.parametrize("n", [1, 3000, BLOCK_UNITS])
    def test_bit_identical_up_to_one_block(self, n):
        rng = np.random.default_rng(n)
        x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        if n == 1:
            x = np.eye(3)
        theta = np.array([0.3, -0.5, 0.8])
        assert np.array_equal(leverage(x, theta), self.unblocked(x, theta))

    def test_within_1e13_with_a_tail_block(self):
        n = 2 * BLOCK_UNITS + 123
        rng = np.random.default_rng(44)
        x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        theta = np.array([0.3, -0.5, 0.8])
        ref = self.unblocked(x, theta)
        assert np.max(np.abs(leverage(x, theta) - ref)) <= 1e-13 * np.max(ref)
