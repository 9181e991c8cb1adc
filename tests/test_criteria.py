import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdesign.config import DEFAULT
from subdesign.covariance import DispersionKind, GradientSet, gamma, gradients_at
from subdesign.criteria import (
    CoefficientSet,
    a_opt,
    anticipated_coefficients,
    c_opt,
    coefficients,
    d_opt,
    default_gram,
    distance_opt,
    e_opt,
    l_opt,
    leverage,
    objective_for_derivative,
    parse_criterion,
    phi_matrix_derivative,
    phi_q,
    phi_value,
    v_opt,
)
from subdesign.errors import (
    InvalidInput,
    NotDifferentiable,
    NotPSD,
    SingularMatrix,
)
from subdesign.linalg import as_symmetric, psd_factor, spd_inverse
from subdesign.models import fit_full, lognormal_problem, qblogit_problem
from subdesign.sampling import DesignFamily, validate_scheme


def make_grads(seed=0, n=20, p=3):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((n, p))
    psi -= psi.mean(axis=0)
    b = rng.standard_normal((p, p))
    h = b @ b.T + p * np.eye(p)
    return GradientSet(psi=psi, hessian=h, theta0=np.zeros(p))


def interior_scheme(rng, n_units, family=DesignFamily.PO_WR):
    mu = rng.uniform(0.2, 0.8, n_units)
    return validate_scheme(mu, family, mu.sum())


def random_spd(rng, p, floor=0.5):
    b = rng.standard_normal((p, p))
    return b @ b.T + floor * np.eye(p)


class TestPhiValue:
    def test_a_on_identity(self):
        assert phi_value(a_opt(), np.eye(3)) == pytest.approx(1.0)

    def test_d_and_e_on_diag(self):
        assert phi_value(d_opt(), np.diag([4.0, 1.0])) == pytest.approx(2.0)
        assert phi_value(e_opt(), np.diag([4.0, 1.0])) == pytest.approx(4.0)

    def test_c_quadratic_form(self):
        g = np.diag([2.0, 3.0])
        spec = c_opt([1.0, 2.0])
        assert phi_value(spec, g) == pytest.approx(2.0 + 4 * 3.0)

    def test_l_trace_normalized(self):
        g = np.diag([2.0, 4.0])
        spec = l_opt(np.eye(2))
        assert phi_value(spec, g) == pytest.approx(3.0)

    def test_phi_q_one_equals_a(self):
        rng = np.random.default_rng(31)
        spec1 = phi_q(1.0)
        spec_a = a_opt()
        for _ in range(50):
            p = rng.integers(2, 6)
            g = random_spd(rng, p)
            assert abs(phi_value(spec1, g) - phi_value(spec_a, g)) <= 1e-12 * max(
                1.0, phi_value(spec_a, g)
            )

    def test_phi_q_large_approaches_e(self):
        g = np.diag([5.0, 1.0, 0.5])
        assert phi_value(phi_q(50.0), g) == pytest.approx(5.0, rel=0.05)

    def test_d_rank_deficient(self):
        with pytest.raises(SingularMatrix):
            phi_value(d_opt(), np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrix):
            phi_value(phi_q(0.5), np.diag([1.0, 0.0]))

    def test_distance_needs_grads(self):
        with pytest.raises(InvalidInput):
            phi_value(distance_opt(DispersionKind.ER), np.eye(3))

    def test_distance_value(self):
        grads = make_grads(seed=1)
        g = random_spd(np.random.default_rng(2), 3)
        val = phi_value(distance_opt(DispersionKind.ER), g, grads)
        assert val == pytest.approx(np.trace(g @ grads.hessian) / 3.0, rel=1e-12)

    def test_monotone_under_psd_bump(self):
        rng = np.random.default_rng(3)
        grads = make_grads(seed=3)
        specs = [
            a_opt(),
            c_opt([1.0, -2.0, 0.5]),
            l_opt(rng.standard_normal((3, 2))),
            d_opt(),
            e_opt(),
            phi_q(0.5),
            phi_q(5.0),
            distance_opt(DispersionKind.ER),
        ]
        for _ in range(20):
            g = random_spd(rng, 3)
            v = rng.standard_normal(3)
            bumped = g + np.outer(v, v)
            for spec in specs:
                assert phi_value(spec, bumped, grads) >= phi_value(spec, g, grads) - 1e-12


class TestPhiMatrixDerivative:
    def test_a_is_scaled_identity(self):
        assert phi_matrix_derivative(a_opt(), random_spd(np.random.default_rng(4), 3)) == pytest.approx(np.eye(3) / 3)

    def test_d_log_form(self):
        out = phi_matrix_derivative(d_opt(), np.diag([4.0, 1.0]))
        assert out == pytest.approx(np.diag([0.25, 1.0]))

    def test_e_top_eigvector(self):
        out = phi_matrix_derivative(e_opt(), np.diag([4.0, 1.0]))
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        assert out == pytest.approx(expected)

    def test_e_gate_error(self):
        with pytest.raises(NotDifferentiable):
            phi_matrix_derivative(e_opt(), np.diag([1.0, 1.0 - 1e-10, 0.5]))

    def test_e_gate_warning_band(self):
        with pytest.warns(UserWarning):
            out = phi_matrix_derivative(e_opt(), np.diag([1.0, 1.0 - 5e-4, 0.5]))
        assert out[0, 0] == pytest.approx(1.0)

    def test_phi_q_reduces_to_a(self):
        g = random_spd(np.random.default_rng(5), 4)
        assert phi_matrix_derivative(phi_q(1.0), g) == pytest.approx(np.eye(4) / 4, abs=1e-12)

    def test_all_derivatives_psd(self):
        rng = np.random.default_rng(6)
        grads = make_grads(seed=6)
        specs = [
            a_opt(),
            c_opt([1.0, 0.0, -1.0]),
            l_opt(rng.standard_normal((3, 2))),
            v_opt(np.eye(3)),
            d_opt(),
            e_opt(),
            phi_q(0.5),
            phi_q(5.0),
            distance_opt(DispersionKind.ER),
            distance_opt(DispersionKind.SANDWICH),
        ]
        for _ in range(20):
            g = random_spd(rng, 3)
            for spec in specs:
                phi = phi_matrix_derivative(spec, g, grads)
                min_eig = np.linalg.eigvalsh(phi).min()
                assert min_eig >= -1e-9 * max(np.linalg.norm(phi, "fro"), 1e-12)


class TestCoefficients:
    def test_lognormal_c_opt_closed_form(self):
        rng = np.random.default_rng(7)
        y = np.exp(rng.normal(0.5, 1.0, 30))
        w = rng.uniform(0.5, 2.0, 30)
        prob = lognormal_problem(y, w)
        fit = fit_full(prob)
        grads = gradients_at(prob, fit.theta0)
        spec = c_opt([1.0, 0.0])
        cs = coefficients(spec, grads)
        eta0 = fit.theta0[0]
        expected = prob.weights**2 * (np.log(y) - eta0) ** 2
        assert cs.c == pytest.approx(expected, rel=1e-9, abs=1e-15)

    def test_zero_coefficient_flagged(self):
        # A unit whose log response sits exactly at eta0 has zero coefficient.
        y = np.array([1.0, np.e, np.e**2])
        prob = lognormal_problem(y, np.ones(3))
        fit = fit_full(prob)
        grads = gradients_at(prob, fit.theta0)
        cs = coefficients(c_opt([1.0, 0.0]), grads)
        assert cs.has_zeros
        assert cs.zero_ids == (1,)

    def test_identical_gradients_equal_coefficients(self):
        psi = np.vstack([np.tile([1.0, -0.5], (4, 1)), np.tile([-1.0, 0.5], (4, 1))])
        grads = GradientSet(psi=psi, hessian=np.eye(2), theta0=np.zeros(2))
        cs = coefficients(a_opt(), grads)
        assert np.ptp(cs.c[:4]) == 0.0
        assert np.ptp(cs.c) == pytest.approx(0.0, abs=1e-15)

    def test_der_equals_a_when_hessian_identity(self):
        rng = np.random.default_rng(8)
        psi = rng.standard_normal((25, 3))
        psi -= psi.mean(axis=0)
        grads = GradientSet(psi=psi, hessian=np.eye(3), theta0=np.zeros(3))
        c_a = coefficients(a_opt(), grads).c
        c_der = coefficients(distance_opt(DispersionKind.ER), grads).c
        assert np.max(np.abs(c_a - c_der)) <= 1e-12 * max(c_a.max(), 1.0)

    def test_finpop_sandwich_quadratic_form(self):
        rng = np.random.default_rng(9)
        from subdesign.models import finpop_problem

        y = rng.standard_normal((20, 3))
        w = rng.uniform(0.5, 2.0, 20)
        prob = finpop_problem(y, w)
        fit = fit_full(prob)
        grads = gradients_at(prob, fit.theta0)
        cs = coefficients(distance_opt(DispersionKind.SANDWICH), grads)
        v0 = grads.v_theta0
        v0_inv = np.linalg.inv(v0)
        resid = y - fit.theta0
        quad = np.sum((resid @ v0_inv) * resid, axis=1)
        expected = prob.weights**2 * quad
        ratio = cs.c / expected
        # Equal up to the fixed 1/p normalization of the distance criterion.
        assert np.ptp(ratio) <= 1e-9 * ratio.mean()
        assert ratio.mean() == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_nonlinear_requires_at(self):
        grads = make_grads(seed=10)
        with pytest.raises(InvalidInput):
            coefficients(d_opt(), grads)

    def test_nonlinear_at_scheme(self):
        grads = make_grads(seed=11)
        rng = np.random.default_rng(11)
        scheme = interior_scheme(rng, grads.n_units)
        cs = coefficients(d_opt(), grads, at=scheme)
        assert cs.at_scheme is scheme
        assert np.all(cs.c >= 0)


class TestDerivativeLaw:
    """Central finite differences of the objective against -c_i/mu_i^2."""

    def specs(self, rng, grads):
        return [
            a_opt(),
            c_opt(rng.standard_normal(3)),
            l_opt(rng.standard_normal((3, 2))),
            d_opt(),
            phi_q(0.5),
            phi_q(5.0),
            distance_opt(DispersionKind.ER),
            distance_opt(DispersionKind.SANDWICH),
        ]

    def objective(self, spec, grads, mu, family):
        scheme = validate_scheme(mu, family, float(mu.sum()))
        g = gamma(grads, scheme).gamma
        return objective_for_derivative(spec, g, grads)

    @pytest.mark.parametrize("family", [DesignFamily.PO_WR, DesignFamily.PO_WOR])
    def test_fd_matches_coefficients(self, family):
        rng = np.random.default_rng(12)
        for trial in range(5):
            grads = make_grads(seed=300 + trial, n=20, p=3)
            mu = rng.uniform(0.2, 0.8, 20)
            scheme = validate_scheme(mu, family, float(mu.sum()))
            for spec in self.specs(rng, grads):
                cs = coefficients(spec, grads, at=scheme)
                for i in [0, 7, 19]:
                    h = 1e-5 * mu[i]
                    up = mu.copy()
                    up[i] += h
                    down = mu.copy()
                    down[i] -= h
                    fd = (
                        self.objective(spec, grads, up, family)
                        - self.objective(spec, grads, down, family)
                    ) / (2 * h)
                    expected = -cs.c[i] / mu[i] ** 2
                    assert fd == pytest.approx(expected, rel=1e-4, abs=1e-12)

    def test_fd_matches_e_when_gap_is_wide(self):
        rng = np.random.default_rng(13)
        tested = 0
        for trial in range(10):
            grads = make_grads(seed=400 + trial, n=20, p=3)
            mu = rng.uniform(0.2, 0.8, 20)
            scheme = validate_scheme(mu, DesignFamily.PO_WR, float(mu.sum()))
            g = gamma(grads, scheme).gamma
            eigs = np.linalg.eigvalsh(g)[::-1]
            if (eigs[0] - eigs[1]) / eigs[0] <= 1e-3:
                continue
            cs = coefficients(e_opt(), grads, at=scheme)
            for i in [3, 11]:
                h = 1e-5 * mu[i]
                up = mu.copy()
                up[i] += h
                down = mu.copy()
                down[i] -= h
                fd = (
                    self.objective(e_opt(), grads, up, DesignFamily.PO_WR)
                    - self.objective(e_opt(), grads, down, DesignFamily.PO_WR)
                ) / (2 * h)
                assert fd == pytest.approx(-cs.c[i] / mu[i] ** 2, rel=1e-4, abs=1e-12)
            tested += 1
        assert tested >= 5


class TestAnticipated:
    def test_lognormal_uniform_case(self):
        w = np.array([0.5, 1.5, 2.0])
        cs = anticipated_coefficients(
            "lognormal",
            weights=w,
            predictions=np.full(3, 1.2),
            dispersions=np.full(3, 0.7),
            center=1.2,
        )
        assert np.sqrt(cs.c) == pytest.approx(w * 0.7, rel=1e-12)
        assert not cs.has_zeros

    def test_lognormal_positive_even_at_center(self):
        cs = anticipated_coefficients(
            "lognormal",
            weights=np.ones(4),
            predictions=np.array([0.0, 1.0, 2.0, 3.0]),
            dispersions=np.full(4, 0.3),
            center=1.0,
        )
        assert np.all(cs.c > 0)

    def test_lognormal_rejects_zero_dispersion(self):
        with pytest.raises(InvalidInput):
            anticipated_coefficients(
                "lognormal",
                weights=np.ones(2),
                predictions=np.zeros(2),
                dispersions=np.array([0.5, 0.0]),
                center=0.0,
            )

    def test_logit_leverage_sums_to_p(self):
        rng = np.random.default_rng(14)
        x = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
        h = leverage(x, np.zeros(3))
        assert h.sum() == pytest.approx(3.0, rel=1e-10)

    def test_logit_orthonormal_columns(self):
        rng = np.random.default_rng(15)
        q, _ = np.linalg.qr(rng.standard_normal((30, 3)))
        h = leverage(q, np.zeros(3))
        assert h == pytest.approx(np.sum(q * q, axis=1), rel=1e-10)
        assert h.sum() == pytest.approx(3.0, rel=1e-10)

    def test_logit_deflated(self):
        rng = np.random.default_rng(16)
        x = np.column_stack([np.ones(25), rng.standard_normal(25)])
        theta = np.array([0.2, -0.4])
        plain = anticipated_coefficients("qblogit", X=x, theta=theta)
        deflated = anticipated_coefficients("qblogit", X=x, theta=theta, deflate=True)
        h = leverage(x, theta)
        assert plain.c == pytest.approx(h)
        assert deflated.c == pytest.approx(h * (1 - h))

    def test_logit_mc_oracle(self):
        # Simulated Bernoulli responses: E[(Y - p)^2 x^T (X^T W X)^-1 x] = h_ii.
        rng = np.random.default_rng(17)
        n = 20
        x = np.column_stack([np.ones(n), rng.standard_normal(n)])
        theta = np.array([0.3, 0.8])
        t = x @ theta
        p = 1.0 / (1.0 + np.exp(-t))
        w = p * (1 - p)
        a_inv = np.linalg.inv((x * w[:, None]).T @ x)
        quad = np.sum((x @ a_inv) * x, axis=1)
        h = leverage(x, theta)
        reps = 10_000
        draws = rng.binomial(1, p, size=(reps, n)).astype(float)
        samples = (draws - p) ** 2 * quad
        mc_mean = samples.mean(axis=0)
        mc_se = samples.std(axis=0) / np.sqrt(reps)
        assert np.all(np.abs(mc_mean - h) <= 3 * mc_se)

    def test_finpop_quadratic_expectation(self):
        rng = np.random.default_rng(18)
        n, m = 10, 2
        w = rng.uniform(0.5, 1.5, n)
        pred = rng.standard_normal((n, m))
        center = np.zeros(m)
        v = np.diag([2.0, 0.5])
        blocks = np.broadcast_to(np.diag([0.1, 0.4]), (n, m, m))
        cs = anticipated_coefficients(
            "finpop",
            weights=w,
            predictions=pred,
            center=center,
            v=v,
            dispersion_matrices=np.diag([0.1, 0.4]),
        )
        v_inv = np.linalg.inv(v)
        expected = w**2 * (
            np.sum((pred @ v_inv) * pred, axis=1) + np.trace(v_inv @ blocks[0])
        )
        assert cs.c == pytest.approx(expected, rel=1e-12)

    def test_finpop_mc_oracle(self):
        # E[(y - theta)^T V^-1 (y - theta)] for y ~ N(pred, Disp).
        rng = np.random.default_rng(19)
        m = 2
        pred = np.array([0.5, -1.0])
        disp = np.array([[0.3, 0.1], [0.1, 0.5]])
        v = np.array([[1.5, 0.2], [0.2, 0.8]])
        v_inv = np.linalg.inv(v)
        cs = anticipated_coefficients(
            "finpop",
            weights=np.ones(1),
            predictions=pred[None, :],
            center=np.zeros(m),
            v=v,
            dispersion_matrices=disp[None, :, :],
        )
        reps = 20_000
        chol = np.linalg.cholesky(disp)
        ys = pred + rng.standard_normal((reps, m)) @ chol.T
        quad = np.sum((ys @ v_inv) * ys, axis=1)
        se = quad.std() / np.sqrt(reps)
        assert abs(cs.c[0] - quad.mean()) <= 4 * se

    def test_finpop_rejects_non_psd_block(self):
        with pytest.raises(NotPSD):
            anticipated_coefficients(
                "finpop",
                weights=np.ones(1),
                predictions=np.zeros((1, 2)),
                center=np.zeros(2),
                v=np.eye(2),
                dispersion_matrices=np.diag([1.0, -1.0])[None, :, :],
            )

    @staticmethod
    def finpop_aux(rng, n, m, blocks):
        return dict(
            weights=rng.uniform(0.5, 1.5, n),
            predictions=rng.standard_normal((n, m)),
            center=rng.standard_normal(m),
            v=random_spd(rng, m),
            dispersion_matrices=blocks,
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finpop_rejects_non_finite_block(self, bad):
        aux = self.finpop_aux(np.random.default_rng(20), 4, 2, np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInput):
            anticipated_coefficients("finpop", **aux)
        stacked = np.tile(np.eye(2), (4, 1, 1))
        stacked[2, 1, 0] = bad
        aux["dispersion_matrices"] = stacked
        with pytest.raises(InvalidInput):
            anticipated_coefficients("finpop", **aux)

    def test_finpop_rejects_non_finite_predictions(self):
        aux = self.finpop_aux(np.random.default_rng(21), 4, 2, np.eye(2))
        aux["predictions"][1, 0] = np.nan
        with pytest.raises(InvalidInput):
            anticipated_coefficients("finpop", **aux)

    @staticmethod
    def finpop_reference(weights, predictions, center, v, dispersion_matrices):
        # The per-unit check loop the batched check replaced, with the same arithmetic.
        n, m = predictions.shape
        blocks = np.broadcast_to(np.asarray(dispersion_matrices, dtype=float), (n, m, m))
        for i in range(n):
            block = 0.5 * (blocks[i] + blocks[i].T)
            min_eig = float(np.linalg.eigvalsh(block)[0])
            if min_eig < -DEFAULT.psd_tol * max(np.linalg.norm(block, "fro"), 1.0):
                raise NotPSD(f"dispersion block {i} has min eigenvalue {min_eig:.3e}")
        v_inv = spd_inverse(as_symmetric(v))
        resid = predictions - center
        quad = np.sum((resid @ v_inv) * resid, axis=1)
        traces = np.einsum("ij,nji->n", v_inv, blocks)
        return weights**2 * (quad + traces)

    def test_finpop_stacked_blocks_match_per_unit_reference(self):
        rng = np.random.default_rng(22)
        for n, m in [(30, 3), (200, 2), (7, 5)]:
            blocks = np.stack([random_spd(rng, m, floor=0.0) for _ in range(n)])
            blocks[0] = 0.0
            aux = self.finpop_aux(rng, n, m, blocks)
            cs = anticipated_coefficients("finpop", **aux)
            assert np.array_equal(cs.c, self.finpop_reference(**aux))

    def test_finpop_shared_block_equals_stacked_copies(self):
        rng = np.random.default_rng(23)
        n, m = 12, 2
        block = random_spd(rng, m)
        aux = self.finpop_aux(rng, n, m, block)
        shared = anticipated_coefficients("finpop", **aux)
        aux["dispersion_matrices"] = np.tile(block, (n, 1, 1))
        stacked = anticipated_coefficients("finpop", **aux)
        assert np.array_equal(shared.c, stacked.c)

    def test_finpop_names_first_bad_stacked_block(self):
        rng = np.random.default_rng(24)
        blocks = np.tile(np.eye(2), (5, 1, 1))
        blocks[3] = np.diag([1.0, -1.0])
        blocks[4] = np.diag([-2.0, 1.0])
        aux = self.finpop_aux(rng, 5, 2, blocks)
        with pytest.raises(NotPSD, match=r"dispersion block 3 has min eigenvalue -1\.000e\+00"):
            anticipated_coefficients("finpop", **aux)

    def test_finpop_rejects_bad_shared_block(self):
        aux = self.finpop_aux(np.random.default_rng(25), 5, 2, np.diag([1.0, -1.0]))
        with pytest.raises(NotPSD, match=r"dispersion block 0 has min eigenvalue"):
            anticipated_coefficients("finpop", **aux)

    def test_finpop_tolerance_scales_with_block_norm(self):
        # -1e-7 is inside psd_tol * ||B||_F for a block of norm ~1e3, outside for norm 1.
        aux = self.finpop_aux(np.random.default_rng(26), 3, 2, np.diag([1e3, -1e-7]))
        anticipated_coefficients("finpop", **aux)
        aux["dispersion_matrices"] = np.diag([1.0, -1e-7])
        with pytest.raises(NotPSD):
            anticipated_coefficients("finpop", **aux)

    def test_finpop_shared_block_is_decomposed_once(self, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        aux = self.finpop_aux(np.random.default_rng(27), 2_000, 2, np.diag([0.3, 0.6]))
        anticipated_coefficients("finpop", **aux)
        assert len(calls) <= 1

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            anticipated_coefficients("mystery")


class TestParseCriterion:
    def test_simple_tokens(self):
        assert parse_criterion("A").kind == "A"
        assert parse_criterion("D").kind == "D"
        assert parse_criterion("E").kind == "E"

    def test_c_vector(self):
        spec = parse_criterion("c:1,0,-2")
        assert spec.kind == "C"
        assert spec.c == pytest.approx([1.0, 0.0, -2.0])

    def test_bare_c_uses_first_coordinate(self):
        prob = lognormal_problem([1.0, 2.0, 3.0], np.ones(3))
        spec = parse_criterion("c", problem=prob)
        assert spec.c == pytest.approx([1.0, 0.0])

    def test_phi_token(self):
        spec = parse_criterion("phi:0.5")
        assert spec.kind == "PhiQ"
        assert spec.q == 0.5

    def test_distance_tokens(self):
        assert parse_criterion("d-er").dispersion is DispersionKind.ER
        assert parse_criterion("d-kl").dispersion is DispersionKind.KL
        assert parse_criterion("d-s").dispersion is DispersionKind.SANDWICH

    def test_l_matrix_from_file(self, tmp_path):
        path = tmp_path / "target.csv"
        np.savetxt(path, np.array([[1.0, 0.0], [0.0, 2.0]]), delimiter=",")
        spec = parse_criterion(f"L:@{path}")
        assert spec.kind == "L"
        assert spec.l_matrix == pytest.approx(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_l_matrix_missing_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(InvalidInput):
            parse_criterion("L:@nope.csv")

    def test_l_matrix_non_numeric_cell_names_file(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("1,0\n0,two\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match="cannot parse L matrix") as info:
            parse_criterion(f"L:@{path}")
        assert str(path) in str(info.value)

    @pytest.mark.filterwarnings("error")
    def test_l_matrix_empty_file_names_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InvalidInput, match="is empty") as info:
            parse_criterion(f"L:@{path}")
        assert str(path) in str(info.value)

    def test_v_needs_problem(self):
        with pytest.raises(InvalidInput):
            parse_criterion("V")

    def test_v_gram_from_logit(self):
        rng = np.random.default_rng(20)
        x = np.column_stack([np.ones(12), rng.standard_normal(12)])
        y = np.clip(rng.uniform(0.2, 0.8, 12), 0, 1)
        prob = qblogit_problem(x, y)
        spec = parse_criterion("V", problem=prob)
        assert spec.gram == pytest.approx(x.T @ x / 12)

    def test_bad_tokens(self):
        for token in ["G", "phi:0", "phi:-1", "c:one,two", "phi:abc", ""]:
            with pytest.raises(InvalidInput):
                parse_criterion(token)

    def test_labels(self):
        assert parse_criterion("A").label == "A"
        assert parse_criterion("phi:5").label == "phi:5"
        assert parse_criterion("d-s").label == "d-s"
        assert parse_criterion("c:1,0").label == "c:1,0"


def test_default_gram_kinds():
    prob = lognormal_problem([1.0, 2.0], np.ones(2))
    assert default_gram(prob) == pytest.approx(np.diag([1.0, 0.0]))


def test_coefficient_set_zero_ids_empty():
    cs = CoefficientSet(c=np.array([1.0, 2.0]), criterion=a_opt())
    assert cs.zero_ids == ()
    assert not cs.has_zeros


class TestCoefficientReduction:
    """c_i = ||L^T H^-1 psi_i||^2 is the sequential sum of the k squares.

    Below 8 terms that is also what np.sum over a row does. From 8 terms
    np.sum adds pairwise, which differs in the last bits only.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.integers(1, 9),
        n_units=st.integers(12, 400),
        seed=st.integers(0, 2**32 - 1),
        token=st.sampled_from(["A", "D", "phi:3", "E"]),
        family=st.sampled_from(list(DesignFamily)),
    )
    def test_matches_row_sum(self, p, n_units, seed, token, family):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((n_units, p)) * rng.lognormal(0.0, 2.0, (n_units, 1))
        psi -= psi.mean(axis=0)
        b = rng.standard_normal((p, p))
        grads = GradientSet(psi=psi, hessian=b @ b.T + p * np.eye(p), theta0=np.zeros(p))
        spec = parse_criterion(token)
        w = rng.uniform(0.2, 1.0, n_units)
        n = n_units // 10
        at = None if spec.is_linear else validate_scheme(n * w / w.sum(), family, n)
        gam = np.eye(p) if at is None else gamma(grads, at).gamma
        try:
            phi = phi_matrix_derivative(spec, gam, grads)
        except NotDifferentiable:
            return
        t = grads.psi @ (grads.hessian_inv @ psd_factor(phi))
        row_sum = np.sum(t * t, axis=1)
        c = coefficients(spec, grads, at=at).c
        if t.shape[1] < 8:
            assert np.array_equal(c, row_sum)
        else:
            sequential = t[:, 0] * t[:, 0]
            for j in range(1, t.shape[1]):
                sequential += t[:, j] * t[:, j]
            assert np.array_equal(c, sequential)
            assert np.allclose(c, row_sum, rtol=1e-13, atol=0.0)
