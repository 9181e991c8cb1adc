import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdesign.covariance import (
    DispersionKind,
    GradientSet,
    dispersion_matrix,
    gamma,
    gradients_at,
    v_matrix,
)
from subdesign.criteria import coefficients, l_opt, parse_criterion
from subdesign.errors import InvalidInput, SingularHessian, SingularMatrix, Unsupported
from subdesign.linalg import BLOCK_UNITS, logistic, psd_factor, unit_blocks
from subdesign.models import finpop_problem, fit_full, lognormal_problem, qblogit_problem
from subdesign.sampling import DesignFamily, uniform_scheme, validate_scheme
from subdesign.synth import make_pool, pool_problem


def balanced_psi(rng, n, p):
    psi = rng.standard_normal((n, p))
    return psi - psi.mean(axis=0)


def make_grads(seed=0, n=12, p=3):
    rng = np.random.default_rng(seed)
    psi = balanced_psi(rng, n, p)
    b = rng.standard_normal((p, p))
    h = b @ b.T + p * np.eye(p)
    return GradientSet(psi=psi, hessian=h, theta0=np.zeros(p))


class TestGradientSet:
    def test_rejects_unbalanced_gradients(self):
        psi = np.ones((5, 2))
        with pytest.raises(InvalidInput):
            GradientSet(psi=psi, hessian=np.eye(2), theta0=np.zeros(2))

    def test_rejects_indefinite_hessian(self):
        rng = np.random.default_rng(1)
        psi = balanced_psi(rng, 6, 2)
        with pytest.raises(SingularHessian):
            GradientSet(psi=psi, hessian=np.diag([1.0, -1.0]), theta0=np.zeros(2))

    @pytest.mark.parametrize("shape", [(3,), (0, 2), (3, 0)])
    def test_rejects_a_gradient_array_that_is_not_n_by_p(self, shape):
        with pytest.raises(InvalidInput, match="^psi must be an N x p matrix"):
            GradientSet(psi=np.zeros(shape), hessian=np.eye(2), theta0=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_gradients(self, bad):
        psi = balanced_psi(np.random.default_rng(2), 6, 3)
        psi[4, 2] = bad
        with pytest.raises(InvalidInput, match="^psi contains non-finite entries$"):
            GradientSet(psi=psi, hessian=np.eye(3), theta0=np.zeros(3))

    @pytest.mark.parametrize("shift, rejected", [(4.9e-6, False), (5.1e-6, True)])
    def test_balance_is_relative_to_the_largest_row_norm(self, shift, rejected):
        # The largest row is (3, 4, 0), of norm 5; its largest entry is 4.
        psi = np.array([[3.0, 4.0, 0.0], [-3.0, -4.0, 0.0], [0.1, 0.0, 0.2], [-0.1, 0.0, -0.2]])
        psi[2, 2] += shift
        if rejected:
            with pytest.raises(InvalidInput, match="^gradient columns sum to 5.100e-06, "):
                GradientSet(psi=psi, hessian=np.eye(3), theta0=np.zeros(3))
        else:
            GradientSet(psi=psi, hessian=np.eye(3), theta0=np.zeros(3))

    def test_singular_hessian_message(self):
        psi = balanced_psi(np.random.default_rng(3), 6, 2)
        with pytest.raises(
            SingularHessian, match="^hessian must be positive definite, min eigenvalue "
        ):
            GradientSet(psi=psi, hessian=np.diag([1.0, 0.0]), theta0=np.zeros(2))

    def test_v_theta0_is_gram(self):
        g = make_grads(seed=2)
        assert g.v_theta0 == pytest.approx(g.psi.T @ g.psi)

    def test_one_readonly_p_by_n_array(self):
        rng = np.random.default_rng(11)
        psi = balanced_psi(rng, 7, 3)
        g = GradientSet(psi=psi, hessian=np.eye(3), theta0=np.zeros(3))
        assert g.psi_t.shape == (3, 7)
        assert g.psi_t.flags.c_contiguous
        assert g.psi.flags.f_contiguous
        assert np.shares_memory(g.psi, g.psi_t)
        assert not np.shares_memory(g.psi, psi)
        assert not g.psi.flags.writeable
        assert not g.psi_t.flags.writeable
        assert np.array_equal(g.psi, psi)

    def test_readonly_owned_p_by_n_array_is_kept(self):
        rng = np.random.default_rng(11)
        rows = balanced_psi(rng, 7, 3).T.copy()
        rows.flags.writeable = False
        g = GradientSet(psi=rows.T, hessian=np.eye(3), theta0=np.zeros(3))
        assert g.psi_t is rows
        assert np.shares_memory(g.psi, rows)
        assert not g.psi.flags.writeable

    def test_readonly_view_is_copied(self):
        # Read-only, but the data belongs to a wider array: keeping the view
        # would keep the whole of it.
        rng = np.random.default_rng(11)
        wide = np.concatenate([balanced_psi(rng, 7, 3).T, np.zeros((3, 5))], axis=1)
        wide.flags.writeable = False
        rows = wide[:, :7]
        g = GradientSet(psi=rows.T, hessian=np.eye(3), theta0=np.zeros(3))
        assert g.psi_t.flags.owndata
        assert not np.shares_memory(g.psi_t, wide)
        assert np.array_equal(g.psi_t, rows)

    def test_hessian_inv_cached(self):
        g = make_grads(seed=3)
        assert g.hessian_inv @ g.hessian == pytest.approx(np.eye(3), abs=1e-9)

    def test_from_problem(self):
        rng = np.random.default_rng(4)
        prob = finpop_problem(rng.standard_normal((10, 2)), np.ones(10))
        fit = fit_full(prob)
        g = gradients_at(prob, fit.theta0)
        assert g.n_units == 10
        assert g.n_params == 2
        assert g.expected_hessian == pytest.approx(np.eye(2))

    def test_qblogit_hessian_is_computed_once_and_serves_as_expected(self):
        rng = np.random.default_rng(5)
        x = np.column_stack([np.ones(200), rng.standard_normal((200, 2))])
        prob = qblogit_problem(x, rng.uniform(0.0, 1.0, 200))
        theta0 = fit_full(prob).theta0
        calls = []

        def counted(theta, multipliers=None):
            calls.append(multipliers)
            return prob.hessian(theta, multipliers)

        g = gradients_at(replace(prob, hessian=counted), theta0)
        assert calls == [None]
        assert np.array_equal(g.hessian, prob.hessian(theta0, None))
        assert np.array_equal(g.expected_hessian, g.hessian)
        assert np.array_equal(
            dispersion_matrix(DispersionKind.KL, g), dispersion_matrix(DispersionKind.ER, g)
        )

    def test_given_hessian_is_not_evaluated_again(self):
        rng = np.random.default_rng(5)
        x = np.column_stack([np.ones(200), rng.standard_normal((200, 2))])
        prob = qblogit_problem(x, rng.uniform(0.0, 1.0, 200))
        fit = fit_full(prob)

        def refused(theta, multipliers=None):
            raise AssertionError("the Hessian at theta0 was evaluated again")

        g = gradients_at(replace(prob, hessian=refused), fit.theta0, hessian=fit.hessian_at_opt)
        assert np.array_equal(g.hessian, fit.hessian_at_opt)
        assert np.array_equal(g.expected_hessian, fit.hessian_at_opt)

    @pytest.mark.parametrize("n_units", [3000, 40000])
    @pytest.mark.parametrize("kind", ["finpop", "lognormal", "qblogit"])
    def test_fit_hessian_is_the_evaluated_one(self, kind, n_units):
        # The CLI hands the fit's Hessian to gradients_at; it must be the one
        # problem.hessian returns at the optimum, bit for bit, also when the
        # sums run over more than one block of units.
        prob = pool_problem(kind, make_pool(kind, n_units, 3))
        fit = fit_full(prob)
        assert np.array_equal(fit.hessian_at_opt, prob.hessian(fit.theta0, None))


def reference_unit_gradients(prob, theta):
    """The N x p unit gradients as plain expressions of the model's data."""
    if prob.kind == "finpop":
        return -prob.weights[:, None] * (prob.data["y"] - theta)
    if prob.kind == "lognormal":
        r, sigma, w = prob.data["log_y"] - theta[0], theta[1], prob.weights
        return np.column_stack([-w * r / sigma**2, -w * (r * r - sigma**2) / sigma**3])
    x = prob.data["X"]
    return (logistic(x @ theta) - prob.data["y"])[:, None] * x


class TestGradientRows:
    @pytest.mark.parametrize("kind", ["finpop", "lognormal", "qblogit"])
    def test_rows_are_the_unit_gradients_bit_for_bit(self, kind):
        n_units = 2 * BLOCK_UNITS + 123
        prob = pool_problem(kind, make_pool(kind, n_units, 9))
        theta = fit_full(prob).theta0
        expected = reference_unit_gradients(prob, theta)
        unit = prob.unit_gradients(theta)
        assert unit.shape == (n_units, prob.n_params)
        assert unit.flags.c_contiguous
        assert unit.tobytes() == expected.tobytes()
        rows = prob.gradient_rows(theta)
        assert rows.flags.c_contiguous
        assert rows.tobytes() == unit.T.copy().tobytes()
        g = gradients_at(prob, theta)
        assert g.psi_t.flags.owndata
        assert g.psi_t.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("kind", ["finpop", "lognormal", "qblogit"])
    def test_gradients_at_holds_one_p_by_n_array(self, kind):
        # The result is the p rows of N floats. Beside them qblogit holds one
        # N-long residual while it fills them, and before that the product
        # x @ theta and the logistic's three temporaries plus its 1-byte
        # mask. No model holds more than p + 1.5 columns of 8 bytes per unit
        # at once; an N x p array copied into p x N rows holds 2p.
        n_units = 100_000
        prob = pool_problem(kind, make_pool(kind, n_units, 4))
        fit = fit_full(prob)
        gradients_at(prob, fit.theta0, hessian=fit.hessian_at_opt)  # first-call caches
        tracemalloc.start()
        try:
            g = gradients_at(prob, fit.theta0, hessian=fit.hessian_at_opt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n_units == n_units
        assert peak < (prob.n_params + 1.5) * 8 * n_units


class TestVMatrix:
    def test_census_po_wor_is_zero(self):
        g = make_grads(seed=5, n=8)
        scheme = uniform_scheme(8, 8, DesignFamily.PO_WOR)
        assert v_matrix(g, scheme) == pytest.approx(np.zeros((3, 3)), abs=1e-14)

    def test_po_wr_uniform_scaling(self):
        g = make_grads(seed=6, n=10)
        scheme = uniform_scheme(10, 2, DesignFamily.PO_WR)
        expected = (10 / 2) * (g.psi.T @ g.psi)
        assert v_matrix(g, scheme) == pytest.approx(expected, rel=1e-12)

    def test_hand_scalar_case(self):
        # N=2, p=1, psi=(1,-1), mu=(0.5,1.5): V = 1/0.5 + 1/1.5 = 8/3.
        g = GradientSet(
            psi=np.array([[1.0], [-1.0]]), hessian=np.eye(1), theta0=np.zeros(1)
        )
        scheme = validate_scheme([0.5, 1.5], DesignFamily.PO_WR, 2.0)
        assert v_matrix(g, scheme) == pytest.approx(np.array([[8.0 / 3.0]]), rel=1e-14)

    def test_multi_same_formula_as_po_wr(self):
        g = make_grads(seed=7, n=9)
        wr = uniform_scheme(9, 3, DesignFamily.PO_WR)
        multi = uniform_scheme(9, 3, DesignFamily.MULTI)
        assert v_matrix(g, wr) == pytest.approx(v_matrix(g, multi))

    def test_po_wor_below_po_wr(self):
        rng = np.random.default_rng(8)
        g = make_grads(seed=8, n=15)
        mu = rng.uniform(0.2, 0.9, 15)
        n = mu.sum()
        wor = validate_scheme(mu, DesignFamily.PO_WOR, n)
        wr = validate_scheme(mu, DesignFamily.PO_WR, n)
        diff = v_matrix(g, wr) - v_matrix(g, wor)
        assert np.linalg.eigvalsh(diff).min() >= -1e-9 * np.linalg.norm(diff, "fro")

    def test_psd_invariant(self):
        for seed in range(20):
            g = make_grads(seed=100 + seed, n=20)
            rng = np.random.default_rng(200 + seed)
            mu = rng.uniform(0.1, 0.95, 20)
            scheme = validate_scheme(mu, DesignFamily.PO_WOR, mu.sum())
            v = v_matrix(g, scheme)
            assert np.linalg.eigvalsh(v).min() >= -1e-9 * max(
                np.linalg.norm(v, "fro"), 1e-12
            )

    def test_exactly_symmetric(self):
        g = make_grads(seed=12, n=40, p=5)
        mu = np.random.default_rng(13).uniform(0.1, 0.9, 40)
        for family in DesignFamily:
            scheme = validate_scheme(mu * (20.0 / mu.sum()), family, 20.0)
            v = v_matrix(g, scheme)
            assert np.array_equal(v, v.T)

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.integers(1, 9),
        n_units=st.integers(12, 400),
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(list(DesignFamily)),
    )
    def test_matches_row_major_product(self, p, n_units, seed, family):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((n_units, p)) * rng.lognormal(0.0, 2.0, (n_units, 1))
        psi -= psi.mean(axis=0)
        g = GradientSet(psi=psi, hessian=np.eye(p), theta0=np.zeros(p))
        w = rng.uniform(0.2, 1.0, n_units)
        n = n_units // 10
        scheme = validate_scheme(n * w / w.sum(), family, n)
        coef = 1.0 / scheme.mu - (1.0 if family is DesignFamily.PO_WOR else 0.0)
        expected = psi.T @ (psi * coef[:, None])
        # V is PSD, so |V_jk| <= sqrt(V_jj V_kk), the scale of entry jk's
        # round-off.
        scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
        assert np.all(np.abs(v_matrix(g, scheme) - expected) <= 1e-13 * scale)

    def test_blocks_cover_every_unit(self):
        rng = np.random.default_rng(14)
        n_units = 2 * BLOCK_UNITS + 123
        psi = balanced_psi(rng, n_units, 3)
        g = GradientSet(psi=psi, hessian=np.eye(3), theta0=np.zeros(3))
        blocks = unit_blocks(n_units)
        assert len(blocks) == 3
        units = np.arange(n_units)
        assert np.array_equal(np.concatenate([units[b] for b in blocks]), units)
        mu = rng.uniform(0.1, 0.9, n_units)
        scheme = validate_scheme(mu, DesignFamily.PO_WR, mu.sum())
        expected = psi.T @ (psi / scheme.mu[:, None])
        scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
        assert np.all(np.abs(v_matrix(g, scheme) - expected) <= 1e-13 * scale)
        t = g.psi @ (g.hessian_inv @ psd_factor(np.eye(3) / 3))
        c = coefficients(parse_criterion("A"), g)
        assert np.array_equal(c, np.sum(t * t, axis=1))

    def test_no_n_by_p_temporary(self):
        n_units = 100_000
        g = make_grads(seed=15, n=n_units, p=3)
        scheme = uniform_scheme(n_units, 1000, DesignFamily.PO_WOR)
        tracemalloc.start()
        try:
            v_matrix(g, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n_units * 8

    def test_length_mismatch(self):
        g = make_grads(seed=9, n=5)
        scheme = uniform_scheme(6, 2, DesignFamily.PO_WR)
        with pytest.raises(InvalidInput):
            v_matrix(g, scheme)


class TestGamma:
    def test_identity_hessian_gamma_equals_v(self):
        rng = np.random.default_rng(10)
        psi = balanced_psi(rng, 12, 2)
        g = GradientSet(psi=psi, hessian=np.eye(2), theta0=np.zeros(2))
        scheme = uniform_scheme(12, 4, DesignFamily.PO_WR)
        report = gamma(g, scheme)
        assert report.gamma == pytest.approx(report.v, rel=1e-12)

    def test_hand_scalar_sandwich(self):
        # V = 8/3 with H = 2 gives Gamma = 8/3 / 4 = 2/3.
        g = GradientSet(
            psi=np.array([[1.0], [-1.0]]),
            hessian=np.array([[2.0]]),
            theta0=np.zeros(1),
        )
        scheme = validate_scheme([0.5, 1.5], DesignFamily.PO_WR, 2.0)
        report = gamma(g, scheme)
        assert report.gamma == pytest.approx(np.array([[2.0 / 3.0]]), rel=1e-12)

    def test_finpop_gamma_equals_v(self):
        rng = np.random.default_rng(11)
        prob = finpop_problem(rng.standard_normal((20, 3)), rng.uniform(0.5, 2, 20))
        fit = fit_full(prob)
        g = gradients_at(prob, fit.theta0)
        scheme = uniform_scheme(20, 5, DesignFamily.PO_WR)
        report = gamma(g, scheme)
        assert report.gamma == pytest.approx(report.v, rel=1e-10)

    def test_sandwich_identity(self):
        g = make_grads(seed=12, n=30)
        scheme = uniform_scheme(30, 6, DesignFamily.MULTI)
        report = gamma(g, scheme)
        hinv = np.linalg.inv(g.hessian)
        assert report.gamma == pytest.approx(hinv @ report.v @ hinv, rel=1e-9)

    def test_loewner_monotonicity(self):
        # Raising every expected count can only shrink the covariance.
        rng = np.random.default_rng(13)
        g = make_grads(seed=13, n=25)
        for _ in range(10):
            mu1 = rng.uniform(0.1, 0.5, 25)
            mu2 = mu1 * rng.uniform(1.0, 1.8, 25)
            s1 = validate_scheme(mu1, DesignFamily.PO_WR, mu1.sum())
            s2 = validate_scheme(mu2, DesignFamily.PO_WR, mu2.sum())
            diff = gamma(g, s1).gamma - gamma(g, s2).gamma
            assert np.linalg.eigvalsh(diff).min() >= -1e-9 * np.linalg.norm(diff, "fro")


class TestDispersionMatrix:
    def test_er_is_hessian(self):
        g = make_grads(seed=14)
        assert dispersion_matrix(DispersionKind.ER, g) == pytest.approx(g.hessian)

    def test_kl_needs_expected_hessian(self):
        g = make_grads(seed=15)
        with pytest.raises(Unsupported):
            dispersion_matrix(DispersionKind.KL, g)

    def test_kl_uses_expected_hessian(self):
        rng = np.random.default_rng(16)
        psi = balanced_psi(rng, 10, 2)
        g = GradientSet(
            psi=psi,
            hessian=np.eye(2),
            theta0=np.zeros(2),
            expected_hessian=np.diag([2.0, 3.0]),
        )
        assert dispersion_matrix(DispersionKind.KL, g) == pytest.approx(
            np.diag([2.0, 3.0])
        )

    def test_sandwich_formula(self):
        g = make_grads(seed=17, n=40)
        m = dispersion_matrix(DispersionKind.SANDWICH, g)
        v0_inv = np.linalg.inv(g.v_theta0)
        assert m == pytest.approx(g.hessian @ v0_inv @ g.hessian, rel=1e-8)

    def test_sandwich_singular_v0(self):
        # Two opposite gradient rows span only one direction in 2-d.
        psi = np.array([[1.0, 1.0], [-1.0, -1.0]])
        g = GradientSet(psi=psi, hessian=np.eye(2), theta0=np.zeros(2))
        with pytest.raises(SingularMatrix):
            dispersion_matrix(DispersionKind.SANDWICH, g)

    def test_own_sigma_distance_is_l_criterion(self):
        # The distance for a dispersion matrix Sigma is tr(Gamma Sigma^-1)/p,
        # the L criterion with L L^T = Sigma^-1.
        g = make_grads(seed=18)
        b = np.random.default_rng(18).standard_normal((3, 3))
        sigma = b @ b.T + np.diag([4.0, 1.0, 2.0])
        l_mat = np.linalg.cholesky(np.linalg.inv(sigma))
        cs = coefficients(l_opt(l_mat), g)
        t = np.linalg.solve(g.hessian, g.psi.T).T @ l_mat
        expected = np.sum(t * t, axis=1) / 3
        assert np.allclose(cs, expected, rtol=1e-12, atol=0.0)

    def test_kinds_are_the_parsed_distance_labels(self):
        assert {k.value for k in DispersionKind} == {"d-er", "d-kl", "d-s"}
        for kind in DispersionKind:
            assert parse_criterion(kind.value).label == kind.value
        with pytest.raises(InvalidInput):
            parse_criterion("d-explicit")

    def test_er_equals_kl_for_canonical_models(self):
        rng = np.random.default_rng(20)
        n = 30
        x = np.column_stack([np.ones(n), rng.standard_normal(n)])
        p = 1.0 / (1.0 + np.exp(-(x @ np.array([0.2, 0.5]))))
        y = np.clip(p + rng.normal(0, 0.05, n), 0, 1)
        prob = qblogit_problem(x, y)
        fit = fit_full(prob)
        g = gradients_at(prob, fit.theta0)
        er = dispersion_matrix(DispersionKind.ER, g)
        kl = dispersion_matrix(DispersionKind.KL, g)
        assert er == pytest.approx(kl, rel=1e-12)

