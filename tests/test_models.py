import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subdesign.models as models
from subdesign.cli import _build_parser
from subdesign.covariance import DispersionKind
from subdesign.criteria import c_opt, distance_opt, parse_criterion
from subdesign.dataio import load_problem, write_pool
from subdesign.errors import (
    EmptySample,
    InvalidData,
    InvalidInput,
    InvalidWeights,
    NoConvergence,
    SingularHessian,
)
from subdesign.models import (
    finpop_problem,
    fit_full,
    lognormal_problem,
    multiplier_fit,
    qblogit_problem,
    weighted_fit,
)
from subdesign.sampling import DesignFamily, draw, uniform_scheme, validate_scheme
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
        with pytest.raises(InvalidWeights):
            finpop_problem([[1.0], [2.0]], [1.0, 0.0])
        with pytest.raises(InvalidWeights):
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
            counts = np.ones(prob.n_units)
            wfit = weighted_fit(prob, counts, scheme)
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
        fit = weighted_fit(prob, counts, scheme)
        assert fit.theta0 == pytest.approx(expected, abs=1e-10)

    def test_empty_sample(self):
        prob = finpop_problem([[1.0], [2.0]], [1.0, 1.0])
        scheme = uniform_scheme(2, 1, DesignFamily.PO_WR)
        with pytest.raises(EmptySample):
            weighted_fit(prob, np.zeros(2), scheme)

    def test_shape_mismatch(self):
        prob = finpop_problem([[1.0], [2.0]], [1.0, 1.0])
        scheme = uniform_scheme(3, 1, DesignFamily.PO_WR)
        with pytest.raises(InvalidInput):
            weighted_fit(prob, np.ones(2), scheme)

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


class TestSupportFit:
    @pytest.mark.parametrize("family", list(DesignFamily))
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_the_full_length_multiplier_fit(self, kind, family, seed):
        rng = np.random.default_rng(seed)
        prob = make_problem(kind, rng, 300)
        scheme = random_scheme(rng, 300, 40, family)
        counts = draw(scheme, seed).counts
        if counts.sum() == 0:
            return
        wfit = fit_or_error(weighted_fit, prob, counts, scheme)
        mfit = fit_or_error(multiplier_fit, prob, counts / scheme.mu)
        if isinstance(mfit, type):
            assert wfit is mfit
            return
        assert wfit.iterations == mfit.iterations
        err = np.max(np.abs(wfit.theta0 - mfit.theta0))
        assert err <= 1e-12 * np.max(np.abs(mfit.theta0))

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
            counts = draw(scheme, 34).counts
            weighted_fit(prob, counts, scheme)
            assert seen[-1] == np.count_nonzero(counts) < 2_000
        assert len(seen) == len(KINDS)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_counts_checked_at_full_length(self, bad):
        prob = make_problem("lognormal", np.random.default_rng(35), 10)
        scheme = uniform_scheme(10, 4, DesignFamily.PO_WR)
        counts = np.zeros(10)
        counts[[2, 7]] = 1.0
        counts[5] = bad
        with pytest.raises(InvalidInput):
            weighted_fit(prob, counts, scheme)


class TestModelTable:
    def test_anticipation_tokens_parse_to_the_derived_criteria(self):
        derived = {
            "finpop": distance_opt(DispersionKind.SANDWICH),
            "lognormal": c_opt(np.array([1.0, 0.0])),
            "qblogit": distance_opt(DispersionKind.ER),
        }
        assert set(derived) == set(models.MODELS)
        for kind, expected in derived.items():
            got = parse_criterion(models.MODELS[kind].criterion)
            assert (got.kind, got.label, got.dispersion) == (
                expected.kind, expected.label, expected.dispersion
            )
            if expected.c is not None:
                assert got.c.tobytes() == expected.c.tobytes()

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
