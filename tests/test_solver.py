import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subdesign import covariance, criteria, solver
from subdesign.config import DEFAULT
from subdesign.covariance import GradientSet, gamma, gradients_at
from subdesign.criteria import (
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

    @settings(max_examples=150, deadline=None)
    @given(
        n_units=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(list(DesignFamily)),
        load=st.floats(0.0, 1.0),
    )
    def test_uncapped_scheme_is_the_plain_arithmetic(self, n_units, seed, family, load):
        rng = np.random.default_rng(seed)
        c = rng.lognormal(0.0, 2.0, n_units)
        n = max(1, round(load * n_units))
        s = np.sqrt(c / c.max())
        plain = n * s / s.sum()
        mu = l_optimal_scheme(c, n, family).mu
        if family is not DesignFamily.PO_WOR or plain.max() < 1.0:
            assert np.array_equal(mu, plain)
        else:
            assert mu.max() == 1.0

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
        assert trace.iterations == 0
        assert len(trace.objective_per_iter) == 1
        assert trace.stationarity is None
        assert trace.capped_set_size == 0

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

    def test_starts_from_uniform(self):
        grads = make_grads(seed=30, n=12)
        trace = fixed_point_solve(d_opt(), grads, DesignFamily.PO_WR, 4.0)
        uniform = uniform_scheme(12, 4.0, DesignFamily.PO_WR)
        expected = phi_value(d_opt(), gamma(grads, uniform).gamma, grads)
        assert trace.objective_per_iter[0] == pytest.approx(expected, rel=1e-12)

    def test_po_wor_budget_exceeds_population(self):
        grads = make_grads(seed=31, n=10)
        with pytest.raises(InvalidBudget):
            fixed_point_solve(d_opt(), grads, DesignFamily.PO_WOR, 11.0)

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
        assert cs.shape == (4,)


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
    coefficients are row sums, capping runs the masked loop from the start,
    and every refinement solves the closed form afresh.
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
        # The solver's check: the gap to the closed form of c when neither
        # scheme reaches the cap, the public residual otherwise.
        nxt = l_optimal_scheme(c, n, family)
        top = float(nxt.mu.max())
        if family is DesignFamily.PO_WOR and (top >= 1.0 or scheme.mu.max() >= 1.0 - CAP_TOL):
            return stationarity_residual(scheme, c, family)
        return float(np.max(np.abs(scheme.mu - nxt.mu))) / top

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


def rel_gap(a, b) -> float:
    """Largest entry of |a - b| over the largest entry of |b|."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestFixedPointMatchesReference:
    """The solver's fused loop against the plain loop.

    Statuses, iteration counts and capped sets match exactly. Where a unit
    is capped the fused pass falls back to the plain arithmetic, so those
    solves match bit for bit; elsewhere the next scheme and its V come from
    the sums of the coefficient pass, which round differently. The residual
    is a scaled difference of two schemes near 1e-7, so its drift is bounded
    on its own scale, that of the largest entry of the scheme.
    """

    @pytest.mark.parametrize("kind", ["lognormal", "qblogit"])
    def test_matches_reference(self, kind):
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
                capped = 0
                if family is DesignFamily.PO_WOR:
                    capped = int(np.sum(final.mu >= 1.0 - CAP_TOL))
                assert trace.capped_set_size == capped, where
                if n == 700:
                    assert np.array_equal(trace.objective_per_iter, objs), where
                    assert np.array_equal(trace.final_scheme.mu, final.mu), where
                    assert trace.stationarity == resid, where
                else:
                    assert rel_gap(trace.objective_per_iter, objs) <= 1e-12, where
                    assert rel_gap(trace.final_scheme.mu, final.mu) <= 1e-12, where
                    assert (trace.stationarity is None) == (resid is None), where
                    if resid is not None:
                        assert abs(trace.stationarity - resid) <= 1e-12, where
                capped_seen |= trace.capped_set_size > 0
        assert capped_seen

    @pytest.mark.parametrize("token", SPECTRAL)
    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_one_psi_pass_per_objective(self, token, family, monkeypatch):
        """Uncapped, each objective reads the gradients once: the uniform
        start through v_matrix, every later scheme through the coefficient
        pass that built it. A converged solve also read them once for the
        check that stopped it."""
        passes = {"v_matrix": 0, "coefficients": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                passes[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            covariance, "v_matrix", counting("v_matrix", covariance.v_matrix)
        )
        monkeypatch.setattr(
            solver,
            "_coefficients_from_phi",
            counting("coefficients", solver._coefficients_from_phi),
        )
        grads, problem = pool_grads("qblogit", 800, seed=5)
        trace = fixed_point_solve(parse_criterion(token, problem), grads, family, 40)
        assert trace.capped_set_size == 0
        assert passes["v_matrix"] == 1
        checked = trace.status is SolveStatus.CONVERGED
        assert sum(passes.values()) == len(trace.objective_per_iter) + checked


class TestFusedClosedForm:
    """The coefficient pass's closed form and V against the plain ones."""

    @settings(max_examples=200, deadline=None)
    @given(
        n_units=st.integers(2, 400),
        p=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(list(DesignFamily)),
        log_share=st.floats(-3.0, -0.05),
        log_spread=st.floats(0.0, 3.0),
    )
    def test_fused_v_is_v_matrix(self, n_units, p, seed, family, log_share, log_spread):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((n_units, p))
        psi *= rng.lognormal(0.0, log_spread, (n_units, 1))
        psi -= psi.mean(axis=0)
        b = rng.standard_normal((p, p))
        grads = GradientSet(psi=psi, hessian=b @ b.T + p * np.eye(p), theta0=np.zeros(p))
        a = rng.standard_normal((p, p))
        phi = a @ a.T + 0.1 * np.eye(p)
        n = 10.0**log_share * n_units
        if family is DesignFamily.MULTI:
            n = float(max(1, round(n)))
        c, _ = criteria._coefficients_from_phi(grads, phi)
        assume(c.min() > 0.0)
        ref = l_optimal_scheme(c, n, family)
        top = float(ref.mu.max())
        assume(abs(top - 0.5) > 1e-9)
        cs, scheme, v = solver._closed_form_step(grads, phi, n, family)
        assert np.array_equal(cs, c)
        if family is DesignFamily.PO_WOR and top > 0.5:
            # Capped, or so close to a census that the subtraction of
            # sum psi psi^T would lose more than one bit.
            assert scheme is None and v is None
            return
        assert scheme.family is family and scheme.budget_n == n
        assert rel_gap(scheme.mu, ref.mu) <= 1e-13
        assert rel_gap(v, covariance.v_matrix(grads, scheme)) <= 1e-13

    @pytest.mark.parametrize("family", list(DesignFamily))
    @pytest.mark.parametrize("token", ["c:1,0", "D"])
    def test_zero_coefficients_stop_without_warnings(self, token, family):
        # Units with zero gradient get coefficient zero under every criterion.
        psi = np.array([[1.0, 0.2], [-1.0, 0.0], [0.0, 0.0], [0.3, 1.0], [-0.3, -1.2]])
        if token == "D":
            psi[2] = 0.0
        else:
            psi[2] = [0.0, 0.5]
            psi[4, 1] = -1.7
        grads = GradientSet(psi=psi, hessian=np.eye(2), theta0=np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = fixed_point_solve(parse_criterion(token), grads, family, 2.0)
        assert trace.status is SolveStatus.INFEASIBLE
        assert trace.zero_ids == (2,)
        assert trace.iterations == 0
        assert np.array_equal(trace.final_scheme.mu, np.full(5, 0.4))

    @pytest.mark.parametrize("kind", ["lognormal", "qblogit"])
    def test_final_gamma_is_the_final_schemes(self, kind):
        grads, problem = pool_grads(kind, 1500, seed=11)
        statuses = set()
        for family, n in FAMILY_BUDGETS:
            for token in ("A", "d-er") + SPECTRAL:
                trace = fixed_point_solve(
                    parse_criterion(token, problem), grads, family, n, max_iter=4
                )
                statuses.add(trace.status)
                want = gamma(grads, trace.final_scheme).gamma
                assert rel_gap(trace.final_gamma, want) <= 1e-13, (token, family, n)
        assert statuses == {SolveStatus.CONVERGED, SolveStatus.DIVERGED, SolveStatus.MAX_ITER}


class TestResidualFromNextScheme:
    """The stationarity check reads its residual off the next closed form."""

    @settings(max_examples=120, deadline=None)
    @given(
        n_units=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(list(DesignFamily)),
        log_spread=st.floats(0.0, 3.0),
        log_noise=st.floats(-12.0, -1.0),
    )
    def test_matches_public_residual_when_uncapped(
        self, n_units, seed, family, log_spread, log_noise
    ):
        rng = np.random.default_rng(seed)
        c = rng.lognormal(0.0, log_spread, n_units) * rng.lognormal(0.0, 4.0)
        n = max(1, n_units // 8)
        nxt = l_optimal_scheme(c, n, family)
        # Schemes from 10 % off the optimum down to well below the
        # stationarity tolerance.
        w = nxt.mu * np.exp(10.0**log_noise * rng.standard_normal(n_units))
        mu = w * (n / w.sum())
        capped = max(mu.max(), nxt.mu.max()) >= 1.0 - CAP_TOL
        assume(family is not DesignFamily.PO_WOR or not capped)
        scheme = validate_scheme(mu, family, n)
        resid, got = solver._residual_and_next(scheme, c, n, family)
        assert np.array_equal(got.mu, nxt.mu)
        assert abs(resid - stationarity_residual(scheme, c)) <= 1e-14

    def test_closed_form_error_leaves_the_public_residual(self):
        scheme = uniform_scheme(4, 2, DesignFamily.PO_WR)
        c = np.array([1.0, 0.0, 4.0, 1.0])
        resid, got = solver._residual_and_next(scheme, c, 2, DesignFamily.PO_WR)
        assert got is None
        assert resid == stationarity_residual(scheme, c)

    @staticmethod
    def spy(monkeypatch):
        calls = {"step": 0, "closed_form": 0, "residual": 0}

        def counting(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        monkeypatch.setattr(
            solver, "_closed_form_step", counting("step", solver._closed_form_step)
        )
        monkeypatch.setattr(
            solver, "l_optimal_scheme", counting("closed_form", solver.l_optimal_scheme)
        )
        monkeypatch.setattr(
            solver,
            "stationarity_residual",
            counting("residual", solver.stationarity_residual),
        )
        return calls

    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_uncapped_solve_solves_once_per_refinement(self, family, monkeypatch):
        calls = self.spy(monkeypatch)
        grads, problem = pool_grads("lognormal", 1500, seed=11)
        trace = fixed_point_solve(parse_criterion("D", problem), grads, family, 60)
        assert trace.status is SolveStatus.CONVERGED and trace.capped_set_size == 0
        # One step per refinement taken, plus the one the converging check
        # compared against; the coefficient pass gave every closed form.
        assert calls == {"step": trace.iterations + 1, "closed_form": 0, "residual": 0}

    def test_capped_solve_falls_back_to_public_residual(self, monkeypatch):
        calls = self.spy(monkeypatch)
        grads, problem = pool_grads("lognormal", 1500, seed=11)
        trace = fixed_point_solve(
            parse_criterion("D", problem), grads, DesignFamily.PO_WOR, 900
        )
        assert trace.status is SolveStatus.CONVERGED and trace.capped_set_size > 0
        assert 1 <= calls["residual"] <= trace.iterations
        assert calls["step"] == calls["closed_form"] == trace.iterations + 1


    @pytest.mark.parametrize("n, first", [(700, [True]), (900, [False])])
    def test_no_fused_sums_after_a_scheme_above_one_half(self, n, first, monkeypatch):
        # The uniform start fuses only below 1/2 (700 / 1500, not 900 / 1500);
        # every later scheme here is capped, so no later pass fuses.
        fused = []
        real = solver._coefficients_from_phi

        def recording(grads, phi, fuse=False):
            fused.append(fuse)
            return real(grads, phi, fuse)

        monkeypatch.setattr(solver, "_coefficients_from_phi", recording)
        grads, problem = pool_grads("lognormal", 1500, seed=11)
        trace = fixed_point_solve(
            parse_criterion("D", problem), grads, DesignFamily.PO_WOR, n
        )
        assert trace.status is SolveStatus.CONVERGED and trace.capped_set_size > 0
        assert fused == first + [False] * trace.iterations


class TestBadCoefficientsAfterFailedCheck:
    """Coefficients that turn zero or negative at a scheme whose stationarity
    check fails are reported as they were before the check built the next
    scheme: by the next refinement, or not at all when none follows."""

    @staticmethod
    def solve(monkeypatch, bad, max_iter):
        real = solver._coefficients_from_phi
        linearized = []

        def spoiled(grads, phi, fuse=False):
            cs, sums = real(grads, phi, fuse)
            linearized.append(phi)
            if len(linearized) == 1:
                return cs, sums
            c = cs.copy()
            c[[3, 7]] = bad
            # The pass stops its sums at a block with a bad coefficient.
            return c, None

        monkeypatch.setattr(solver, "_coefficients_from_phi", spoiled)
        grads, problem = pool_grads("lognormal", 300, seed=4)
        # eps = inf checks stationarity after every refinement.
        trace = fixed_point_solve(
            parse_criterion("D", problem), grads, DesignFamily.PO_WR, 30,
            max_iter=max_iter, eps=np.inf,
        )
        monkeypatch.undo()
        # The scheme the first, unspoiled, linearization stepped to.
        first = solver._closed_form_step(grads, linearized[0], 30, DesignFamily.PO_WR)[1]
        return trace, first

    def test_zero_coefficients_stop_as_infeasible(self, monkeypatch):
        trace, first = self.solve(monkeypatch, 0.0, 100)
        assert trace.status is SolveStatus.INFEASIBLE
        assert trace.iterations == 1
        assert len(trace.objective_per_iter) == 2
        assert np.array_equal(trace.final_scheme.mu, first.mu)
        assert trace.zero_ids == (3, 7)
        assert trace.stationarity is None

    def test_negative_coefficients_raise(self, monkeypatch):
        with pytest.raises(
            InvalidInput, match="^coefficients must be finite and non-negative$"
        ):
            self.solve(monkeypatch, -1.0, 100)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_no_refinement_left_stops_at_max_iter(self, bad, monkeypatch):
        trace, first = self.solve(monkeypatch, bad, 1)
        assert trace.status is SolveStatus.MAX_ITER
        assert trace.iterations == 1
        assert np.array_equal(trace.final_scheme.mu, first.mu)
        assert trace.zero_ids == ()
