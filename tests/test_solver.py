import itertools

import numpy as np
import pytest

from subdesign import covariance
from subdesign.config import DEFAULT
from subdesign.covariance import GradientSet, gamma, gradients_at
from subdesign.criteria import (
    CoefficientSet,
    a_opt,
    c_opt,
    coefficients,
    d_opt,
    e_opt,
    l_opt,
    parse_criterion,
    phi_matrix_derivative,
    phi_q,
    phi_value,
)
from subdesign.errors import Infeasible, InvalidBudget, InvalidInput
from subdesign.linalg import psd_factor
from subdesign.models import fit_full
from subdesign.sampling import DesignFamily, uniform_scheme, validate_scheme
from subdesign.solver import (
    CAP_TOL,
    SolveStatus,
    SolveTrace,
    fixed_point_solve,
    l_optimal_scheme,
    stationarity_residual,
)
from subdesign.synth import make_pool, pool_problem


def make_grads(seed=0, n=20, p=2):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((n, p))
    psi -= psi.mean(axis=0)
    b = rng.standard_normal((p, p))
    h = b @ b.T + p * np.eye(p)
    return GradientSet(psi=psi, hessian=h, theta0=np.zeros(p))


def paired_two_group_grads(seed=0, half=8, a_scale=1.4, b_scale=1.0, delta=0.05):
    """Gradients in two nearly orthogonal sign-symmetric groups.

    The minimax covariance balances the two eigenvalues, so single-direction
    linearizations overshoot and the fixed-point loop flips between groups.
    """
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
    psi = np.array(rows)
    return GradientSet(psi=psi, hessian=np.eye(2), theta0=np.zeros(2))


def grid_best_objective(c, n, family, steps=200):
    """Brute-force L-objective minimum over a simplex grid of schemes."""
    n_units = len(c)
    best = np.inf
    for combo in itertools.combinations(range(1, steps), n_units - 1):
        parts = np.diff((0,) + combo + (steps,))
        mu = n * parts / steps
        if family is DesignFamily.PO_WOR and np.any(mu > 1.0):
            continue
        if family is DesignFamily.PO_WOR:
            val = np.sum(c * (1.0 / mu - 1.0))
        else:
            val = np.sum(c / mu)
        best = min(best, val)
    return best


def scheme_objective(c, scheme):
    if scheme.family is DesignFamily.PO_WOR:
        return float(np.sum(c * (1.0 / scheme.mu - 1.0)))
    return float(np.sum(c / scheme.mu))


class TestLOptimalScheme:
    def test_uniform_coefficients(self):
        scheme = l_optimal_scheme(np.ones(4), 2, DesignFamily.PO_WR)
        assert scheme.mu == pytest.approx([0.5, 0.5, 0.5, 0.5])

    def test_two_to_one_split(self):
        scheme = l_optimal_scheme(np.array([4.0, 1.0]), 1, DesignFamily.PO_WR)
        assert scheme.mu == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-14)

    def test_po_wor_capping_hand_case(self):
        scheme = l_optimal_scheme(np.array([100.0, 1.0, 1.0, 1.0]), 2, DesignFamily.PO_WOR)
        assert scheme.mu == pytest.approx([1.0, 1 / 3, 1 / 3, 1 / 3], rel=1e-14)
        # Threshold condition for the capped unit: sqrt(100) >= sqrt(1)/(1/3).
        assert np.sqrt(100.0) >= np.sqrt(1.0) / scheme.mu[1]

    def test_zero_coefficient_infeasible(self):
        with pytest.raises(Infeasible) as exc:
            l_optimal_scheme(np.array([1.0, 0.0, 2.0]), 1, DesignFamily.PO_WR)
        assert exc.value.zero_ids == (1,)

    def test_po_wor_budget_exceeds_population(self):
        with pytest.raises(InvalidBudget):
            l_optimal_scheme(np.ones(3), 4, DesignFamily.PO_WOR)

    def test_multi_family(self):
        scheme = l_optimal_scheme(np.array([9.0, 1.0, 1.0]), 5, DesignFamily.MULTI)
        assert scheme.family is DesignFamily.MULTI
        assert scheme.mu == pytest.approx([3.0, 1.0, 1.0], rel=1e-14)

    def test_accepts_coefficient_set(self):
        cs = CoefficientSet(c=np.array([4.0, 1.0]), criterion=a_opt())
        scheme = l_optimal_scheme(cs, 1, DesignFamily.PO_WR)
        assert scheme.mu == pytest.approx([2 / 3, 1 / 3])

    def test_census_budget(self):
        scheme = l_optimal_scheme(np.array([5.0, 1.0, 0.2]), 3, DesignFamily.PO_WOR)
        assert scheme.mu == pytest.approx(np.ones(3))

    def test_capping_multiple_passes(self):
        # One unit caps on the first pass, a second on the redistribution pass.
        c = np.array([400.0, 90.0, 1.0, 1.0, 1.0])
        scheme = l_optimal_scheme(c, 3, DesignFamily.PO_WOR)
        s = np.sqrt(c)
        assert scheme.mu[0] == 1.0
        assert scheme.mu[1] == 1.0
        assert scheme.mu[2:] == pytest.approx(np.ones(3) / 3)
        # Uncapped entries still proportional to sqrt(c).
        assert np.ptp(scheme.mu[2:] / s[2:]) <= 1e-15

    def test_grid_oracle_po_wr(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            c = rng.uniform(0.1, 10.0, 3)
            scheme = l_optimal_scheme(c, 1, DesignFamily.PO_WR)
            best = grid_best_objective(c, 1, DesignFamily.PO_WR, steps=150)
            assert scheme_objective(c, scheme) <= best + 1e-6

    def test_grid_oracle_po_wor_with_capping(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            c = rng.uniform(0.1, 1.0, 3)
            c[0] *= 200.0
            scheme = l_optimal_scheme(c, 2, DesignFamily.PO_WOR)
            best = grid_best_objective(c, 2, DesignFamily.PO_WOR, steps=150)
            assert scheme_objective(c, scheme) <= best + 1e-6


class TestStationarityResidual:
    def test_optimal_scheme_residual_tiny(self):
        rng = np.random.default_rng(23)
        for family in (DesignFamily.PO_WR, DesignFamily.MULTI):
            c = rng.uniform(0.5, 5.0, 6)
            scheme = l_optimal_scheme(c, 3, family)
            assert stationarity_residual(scheme, c) <= 1e-12

    def test_uniform_scheme_off_optimum(self):
        scheme = uniform_scheme(4, 2, DesignFamily.PO_WR)
        assert stationarity_residual(scheme, np.array([4.0, 1.0, 1.0, 1.0])) > 0.1

    def test_capped_scheme_kkt(self):
        c = np.array([100.0, 1.0, 1.0, 1.0])
        scheme = l_optimal_scheme(c, 2, DesignFamily.PO_WOR)
        assert stationarity_residual(scheme, c) <= 1e-12

    def test_cap_violation_detected(self):
        scheme = validate_scheme([0.9, 0.55, 0.55], DesignFamily.PO_WR, 2.0)
        # Treat as a without-replacement candidate via the family argument.
        bad = validate_scheme([1.0, 0.5, 0.5], DesignFamily.PO_WOR, 2.0)
        c = np.array([1.0, 100.0, 100.0])
        # Unit 0 is capped but strictly dominated: threshold condition fails.
        assert stationarity_residual(bad, c) > 0.1
        assert stationarity_residual(scheme, np.ones(3)) > 0.0

    def test_length_mismatch(self):
        scheme = uniform_scheme(3, 1, DesignFamily.PO_WR)
        with pytest.raises(InvalidInput):
            stationarity_residual(scheme, np.ones(4))


class TestFixedPointLinear:
    def test_a_converges_in_one_iteration(self):
        grads = make_grads(seed=24)
        trace = fixed_point_solve(a_opt(), grads, DesignFamily.PO_WR, 5.0)
        assert trace.status is SolveStatus.CONVERGED
        assert trace.iterations == 1
        assert len(trace.objective_per_iter) == 2
        assert trace.objective_per_iter[1] <= trace.objective_per_iter[0]
        assert trace.stationarity <= 1e-6

    def test_matches_direct_closed_form(self):
        grads = make_grads(seed=25)
        cs = coefficients(a_opt(), grads)
        direct = l_optimal_scheme(cs, 4.0, DesignFamily.PO_WR)
        trace = fixed_point_solve(a_opt(), grads, DesignFamily.PO_WR, 4.0)
        assert trace.final_scheme.mu == pytest.approx(direct.mu)

    def test_c_opt_zero_coefficient_infeasible(self):
        # A unit whose gradient is orthogonal to c gets coefficient zero.
        psi = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        grads = GradientSet(psi=psi, hessian=np.eye(2), theta0=np.zeros(2))
        trace = fixed_point_solve(c_opt([1.0, 0.0]), grads, DesignFamily.PO_WR, 2.0)
        assert trace.status is SolveStatus.INFEASIBLE
        assert trace.zero_ids == (2, 3)
        assert trace.final_scheme.mu == pytest.approx(np.full(4, 0.5))

    def test_po_wor_capped_count_recorded(self):
        psi = np.array([[10.0, 0.1], [-10.0, -0.1], [0.1, 1.0], [-0.1, -1.0]])
        grads = GradientSet(psi=psi, hessian=np.eye(2), theta0=np.zeros(2))
        trace = fixed_point_solve(a_opt(), grads, DesignFamily.PO_WOR, 3.0)
        assert trace.status is SolveStatus.CONVERGED
        assert trace.capped_set_size == 2
        assert np.sum(trace.final_scheme.mu >= 1.0 - 1e-12) == 2


class TestFixedPointNonlinear:
    def test_d_converges_with_monotone_objective(self):
        grads = make_grads(seed=26, n=40, p=3)
        trace = fixed_point_solve(d_opt(), grads, DesignFamily.PO_WR, 10.0)
        assert trace.status is SolveStatus.CONVERGED
        diffs = np.diff(trace.objective_per_iter)
        assert np.all(diffs <= 1e-12)
        assert trace.stationarity <= 1e-6

    def test_d_beats_uniform(self):
        grads = make_grads(seed=27, n=30, p=3)
        trace = fixed_point_solve(d_opt(), grads, DesignFamily.PO_WR, 6.0)
        assert trace.objective_per_iter[-1] < trace.objective_per_iter[0]

    def test_phi_q_one_matches_a(self):
        grads = make_grads(seed=28, n=25)
        t_a = fixed_point_solve(a_opt(), grads, DesignFamily.PO_WR, 5.0)
        t_q = fixed_point_solve(phi_q(1.0), grads, DesignFamily.PO_WR, 5.0)
        assert t_q.status is SolveStatus.CONVERGED
        assert t_q.final_scheme.mu == pytest.approx(t_a.final_scheme.mu, rel=1e-9)

    def test_e_diverges_on_two_group_problem(self):
        grads = paired_two_group_grads(seed=1)
        trace = fixed_point_solve(e_opt(), grads, DesignFamily.PO_WR, 8.0)
        assert trace.status is SolveStatus.DIVERGED
        objs = trace.objective_per_iter
        assert objs[trace.iterations] > objs[trace.iterations - 1]
        # Best-so-far scheme is kept, not the diverging iterate.
        best = min(objs[: trace.iterations])
        final_obj = phi_value(
            e_opt(), gamma(grads, trace.final_scheme).gamma
        )
        assert final_obj == pytest.approx(best, rel=1e-12)

    def test_phi_10_diverges_on_two_group_problem(self):
        grads = paired_two_group_grads(seed=2)
        trace = fixed_point_solve(phi_q(10.0), grads, DesignFamily.PO_WR, 8.0)
        assert trace.status is SolveStatus.DIVERGED

    def test_po_wor_nonlinear_respects_cap(self):
        grads = make_grads(seed=29, n=15)
        trace = fixed_point_solve(d_opt(), grads, DesignFamily.PO_WOR, 6.0)
        assert trace.status is SolveStatus.CONVERGED
        assert np.all(trace.final_scheme.mu <= 1.0 + 1e-12)

    def test_custom_mu0(self):
        grads = make_grads(seed=30, n=12)
        rng = np.random.default_rng(30)
        mu = rng.uniform(0.3, 0.7, 12)
        mu0 = validate_scheme(mu, DesignFamily.PO_WR, float(mu.sum()))
        trace = fixed_point_solve(d_opt(), grads, DesignFamily.PO_WR, float(mu.sum()), mu0=mu0)
        assert trace.status is SolveStatus.CONVERGED

    def test_mu0_mismatch(self):
        grads = make_grads(seed=31, n=10)
        mu0 = uniform_scheme(9, 3, DesignFamily.PO_WR)
        with pytest.raises(InvalidInput):
            fixed_point_solve(d_opt(), grads, DesignFamily.PO_WR, 3.0, mu0=mu0)

    def test_max_iter_status(self):
        grads = make_grads(seed=32, n=20, p=3)
        trace = fixed_point_solve(d_opt(), grads, DesignFamily.PO_WR, 5.0, max_iter=1, eps=1e-12)
        assert trace.status in (SolveStatus.MAX_ITER, SolveStatus.CONVERGED)
        if trace.status is SolveStatus.MAX_ITER:
            assert trace.iterations == 1


class TestConvexity:
    def test_l_objective_numeric_hessian_psd(self):
        # The linear-criterion objective is convex in the expected counts.
        rng = np.random.default_rng(33)
        grads = make_grads(seed=33, n=4, p=2)
        spec = l_opt(rng.standard_normal((2, 2)))
        cs = coefficients(spec, grads)

        def objective(mu):
            scheme = validate_scheme(mu, DesignFamily.PO_WR, float(mu.sum()))
            return phi_value(spec, gamma(grads, scheme).gamma, grads)

        h = 1e-4
        for _ in range(20):
            mu = rng.uniform(0.3, 0.9, 4)
            hess = np.empty((4, 4))
            for i in range(4):
                for j in range(4):
                    pp = mu.copy(); pp[i] += h; pp[j] += h
                    pm = mu.copy(); pm[i] += h; pm[j] -= h
                    mp = mu.copy(); mp[i] -= h; mp[j] += h
                    mm = mu.copy(); mm[i] -= h; mm[j] -= h
                    hess[i, j] = (
                        objective(pp) - objective(pm) - objective(mp) + objective(mm)
                    ) / (4 * h * h)
            hess = 0.5 * (hess + hess.T)
            assert np.linalg.eigvalsh(hess).min() >= -1e-8
        assert cs.c.shape == (4,)


def test_solve_trace_fields():
    scheme = uniform_scheme(3, 1, DesignFamily.PO_WR)
    trace = SolveTrace(
        status=SolveStatus.CONVERGED,
        iterations=1,
        objective_per_iter=(2.0, 1.0),
        final_scheme=scheme,
        capped_set_size=0,
    )
    assert trace.zero_ids == ()
    assert trace.stationarity is None


class TestCoefficientChecks:
    """Messages of the coefficient checks in front of the closed form."""

    def test_zero_coefficients_name_their_units(self):
        with pytest.raises(Infeasible) as exc:
            l_optimal_scheme(np.array([2.0, 0.0, 1.0, -0.0]), 1, DesignFamily.PO_WOR)
        assert exc.value.zero_ids == (1, 3)
        assert str(exc.value) == (
            "feasible solution does not exist: 2 units have zero coefficient "
            "and would receive zero selection mass; consider anticipated "
            "coefficients"
        )

    @pytest.mark.parametrize(
        "bad", [-1.0, np.nan, np.inf, -np.inf], ids=["negative", "nan", "inf", "-inf"]
    )
    def test_negative_or_nonfinite_coefficient(self, bad):
        # A zero elsewhere does not turn the fault into an Infeasible stop.
        c = np.array([1.0, bad, 0.0, 3.0])
        with pytest.raises(InvalidInput, match="^coefficients must be finite and non-negative$"):
            l_optimal_scheme(c, 1, DesignFamily.PO_WR)

    @pytest.mark.parametrize("c", [np.zeros(4), np.array([-1.0, 0.0, -2.0, 0.0])])
    def test_residual_without_positive_coefficients_is_infinite(self, c):
        for family in DesignFamily:
            scheme = uniform_scheme(4, 2, family)
            assert stationarity_residual(scheme, c) == float("inf")


def pool_grads(kind, n_units, seed):
    problem = pool_problem(kind, make_pool(kind, n_units, seed))
    return gradients_at(problem, fit_full(problem).theta0), problem


def reference_solve(spec, grads, family, n, max_iter=100, eps=1e-3):
    """The fixed-point loop written plainly: Gamma is rebuilt for every use,
    coefficients are row sums, and capping runs the masked loop from the start.
    """

    def objective(scheme):
        return phi_value(spec, gamma(grads, scheme).gamma, grads)

    def coefs(scheme):
        phi = phi_matrix_derivative(spec, gamma(grads, scheme).gamma, grads)
        t = grads.psi @ (grads.hessian_inv @ psd_factor(phi))
        return np.sum(t * t, axis=1)

    def closed_form(c):
        s = np.sqrt(c / c.max())
        if family is not DesignFamily.PO_WOR:
            return validate_scheme(n * s / s.sum(), family, n)
        capped = np.zeros(s.shape[0], dtype=bool)
        mu = np.empty(s.shape[0])
        for _ in range(s.shape[0]):
            free = ~capped
            mu[capped] = 1.0
            mu[free] = (n - capped.sum()) * s[free] / s[free].sum()
            newly = free & (mu >= 1.0)
            if not newly.any():
                break
            capped |= newly
        return validate_scheme(mu, family, n)

    def residual(scheme, c):
        s = np.sqrt(np.maximum(c, 0.0))
        s_max = float(s.max())
        mu = scheme.mu
        if family is not DesignFamily.PO_WOR:
            return float(np.max(np.abs(mu * s.sum() / n - s)) / s_max)
        capped = mu >= 1.0 - CAP_TOL
        free = ~capped
        cap_violation = max(0.0, float(mu.max()) - 1.0)
        prop_violation = threshold_violation = 0.0
        if free.any():
            n_free = n - float(capped.sum())
            prop_violation = float(
                np.max(np.abs(mu[free] * s[free].sum() / n_free - s[free])) / s_max
            )
            if capped.any():
                bar = float(np.max(s[free] / mu[free]))
                threshold_violation = max(0.0, (bar - float(s[capped].min())) / s_max)
        return max(cap_violation, prop_violation, threshold_violation)

    current = uniform_scheme(grads.n_units, n, family)
    objs = [objective(current)]
    best_scheme, best_obj = current, objs[0]
    for t in range(1, max_iter + 1):
        scheme = closed_form(coefs(current))
        obj = objective(scheme)
        objs.append(obj)
        if obj > objs[-2] + DEFAULT.divergence_slack:
            return "Diverged", t, objs, best_scheme, None
        if obj < best_obj:
            best_scheme, best_obj = scheme, obj
        if (objs[-2] - obj) / max(abs(objs[-2]), 1e-300) < eps:
            resid = residual(scheme, coefs(scheme))
            if resid <= DEFAULT.stationarity_tol:
                return "Converged", t, objs, scheme, resid
        current = scheme
    return "MaxIter", max_iter, objs, current, None


SPECTRAL = ("D", "phi:2", "phi:5", "phi:10", "E")
FAMILY_BUDGETS = (
    (DesignFamily.PO_WR, 60),
    (DesignFamily.PO_WOR, 60),
    (DesignFamily.MULTI, 60),
    # Large enough that the heaviest units reach the cap.
    (DesignFamily.PO_WOR, 700),
)


class TestFixedPointMatchesReference:
    """The solver's shared-Gamma loop against the plain loop, bit for bit."""

    @pytest.mark.parametrize("kind", ["lognormal", "qblogit"])
    def test_bit_identical(self, kind):
        grads, problem = pool_grads(kind, 1500, seed=11)
        capped_seen = False
        for family, n in FAMILY_BUDGETS:
            for token in SPECTRAL:
                spec = parse_criterion(token, problem)
                trace = fixed_point_solve(spec, grads, family, n)
                status, iters, objs, final, resid = reference_solve(
                    spec, grads, family, n
                )
                where = f"{kind} {token} {family.value} n={n}"
                assert trace.status.value == status, where
                assert trace.iterations == iters, where
                assert np.array_equal(trace.objective_per_iter, objs), where
                assert np.array_equal(trace.final_scheme.mu, final.mu), where
                assert trace.stationarity == resid, where
                capped_seen |= trace.capped_set_size > 0
        assert capped_seen

    @pytest.mark.parametrize("token", SPECTRAL)
    def test_one_v_matrix_per_objective(self, token, monkeypatch):
        calls = []
        real = covariance.v_matrix

        def counting(grads, scheme):
            calls.append(scheme.n_units)
            return real(grads, scheme)

        monkeypatch.setattr(covariance, "v_matrix", counting)
        grads, problem = pool_grads("qblogit", 800, seed=5)
        for family, n in ((DesignFamily.PO_WR, 40), (DesignFamily.PO_WOR, 400)):
            calls.clear()
            trace = fixed_point_solve(parse_criterion(token, problem), grads, family, n)
            assert len(calls) == len(trace.objective_per_iter), (token, family)
