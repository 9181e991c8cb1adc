import dataclasses
import functools
import itertools
import tracemalloc
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


@functools.cache
def compositions(n_units, steps):
    """The splits of ``steps`` into ``n_units`` positive integer parts, the
    grid of acceptance check 01: 1 / parts for each split, and its largest part."""
    cuts = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(1, steps), n_units - 1)),
        dtype=np.int64,
    ).reshape(-1, n_units - 1)
    parts = np.diff(cuts, axis=1, prepend=0, append=steps)
    return 1.0 / parts, parts.max(axis=1)


def grid_best_objective(c, n, family, steps=200):
    """Brute-force L-objective minimum over a simplex grid of schemes
    mu = n parts / steps."""
    recip, largest = compositions(len(c), steps)
    sums = (recip @ c) * (steps / n)  # sum c / mu for every split
    if family is DesignFamily.PO_WOR:
        return float(sums[n * largest <= steps].min() - np.sum(c))
    return float(sums.min())


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

    @pytest.mark.parametrize("kind", ["finpop", "lognormal", "qblogit"])
    def test_reports_the_closed_form_and_its_residual(self, kind):
        """The exit checks the step as its own next refinement: the residual
        is 0.0 unless units are capped, and then the public one of c."""
        grads, problem = small_pool(kind)
        capped_seen = False
        for family, n in FAMILY_BUDGETS:
            for token in ("A", "c", "d-er", "d-s"):
                spec = parse_criterion(token, problem)
                trace = fixed_point_solve(spec, grads, family, n)
                c = coefficients(spec, grads)
                want = l_optimal_scheme(c, n, family)
                where = f"{kind} {token} {family.value} n={n}"
                assert (trace.status, trace.iterations) == (SolveStatus.CONVERGED, 1), where
                if trace.capped_set_size:
                    assert np.array_equal(trace.final_scheme.mu, want.mu), where
                    want_resid = stationarity_residual(trace.final_scheme, c)
                    assert trace.stationarity == want_resid, where
                else:
                    assert rel_gap(trace.final_scheme.mu, want.mu) <= 1e-12, where
                    assert trace.stationarity == 0.0, where
                capped_seen |= trace.capped_set_size > 0
        assert capped_seen


@settings(max_examples=30, deadline=None)
@given(
    n_units=st.sampled_from([3, 4]),
    n=st.sampled_from([1, 2]),
    p=st.sampled_from([2, 3]),
    dominant=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_solve_reaches_the_grid_optimum(n_units, n, p, dominant, seed):
    """Every linear solve on a few balanced units is at least as good as the
    best scheme of check 01's grid, capped or not: with sum psi = 0 each
    family's objective is sum c / mu, or sum c (1/mu - 1) without
    replacement."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((n_units, p))
    if dominant:
        # Unit 0 outweighs the rest, which balance it, so its share of the
        # budget approaches n / 2: a budget of 3 among 4 units caps it.
        n_units, n = 4, 3
        psi = np.vstack([rng.standard_normal(p), rng.standard_normal((3, p)) / 100])
        psi[1:] -= psi[0] / 3
    psi -= psi.mean(axis=0)
    b = rng.standard_normal((p, p))
    grads = GradientSet(psi=psi, hessian=b @ b.T + p * np.eye(p), theta0=np.zeros(p))
    specs = (a_opt(), c_opt(rng.standard_normal(p)), l_opt(rng.standard_normal((p, 2))))
    for spec in specs:
        c = coefficients(spec, grads)
        for family in DesignFamily:
            trace = fixed_point_solve(spec, grads, family, n)
            assert trace.status is SolveStatus.CONVERGED
            if dominant and family is DesignFamily.PO_WOR and spec.kind == "A":
                assert trace.capped_set_size == 1
            best = grid_best_objective(c, n, family)
            assert scheme_objective(c, trace.final_scheme) <= best * (1.0 + 1e-9)


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
        capped = scheme.mu.max() >= 1.0 - DEFAULT.cap_tol
        if family is DesignFamily.PO_WOR and (top >= 1.0 or capped):
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
                    capped = int(np.sum(final.mu >= 1.0 - DEFAULT.cap_tol))
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

    @staticmethod
    def count_psi_passes(monkeypatch):
        """Counts v_matrix calls and coefficient passes, by the solver or by
        ``criteria.coefficients``."""
        passes = {"v_matrix": 0, "coefficients": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                passes[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            covariance, "v_matrix", counting("v_matrix", covariance.v_matrix)
        )
        coefficient_pass = counting("coefficients", criteria._coefficients_from_phi)
        monkeypatch.setattr(solver, "_coefficients_from_phi", coefficient_pass)
        monkeypatch.setattr(criteria, "_coefficients_from_phi", coefficient_pass)
        return passes

    @pytest.mark.parametrize("token", SPECTRAL)
    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_one_psi_pass_per_objective(self, token, family, monkeypatch):
        """Uncapped, each objective reads the gradients once: the uniform
        start through v_matrix, every later scheme through the coefficient
        pass that built it. A converged solve also read them once for the
        check that stopped it."""
        passes = self.count_psi_passes(monkeypatch)
        grads, problem = pool_grads("qblogit", 800, seed=5)
        trace = fixed_point_solve(parse_criterion(token, problem), grads, family, 40)
        assert trace.capped_set_size == 0
        assert passes["v_matrix"] == 1
        checked = trace.status is SolveStatus.CONVERGED
        assert sum(passes.values()) == len(trace.objective_per_iter) + checked

    @pytest.mark.parametrize("token", ["A", "d-er"])
    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_linear_solve_reads_psi_twice(self, token, family, monkeypatch):
        """The uniform start's v_matrix and the fused step read the gradients;
        the step is its own next refinement, so the check reads them no more."""
        passes = self.count_psi_passes(monkeypatch)
        grads, problem = pool_grads("qblogit", 800, seed=5)
        trace = fixed_point_solve(parse_criterion(token, problem), grads, family, 40)
        assert trace.status is SolveStatus.CONVERGED and trace.capped_set_size == 0
        assert passes == {"v_matrix": 1, "coefficients": 1}


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
        cs, scheme, v, mu_max = solver._closed_form_step(grads, phi, n, family)
        if family is DesignFamily.PO_WOR and top > 0.5:
            # Capped, or so close to a census that the subtraction of
            # sum psi psi^T would lose more than one bit.
            assert scheme is None and v is None and mu_max is None
            assert np.array_equal(cs, c)
            return
        # The pass that gave the closed form kept no coefficients.
        assert cs is None
        assert scheme.family is family and scheme.budget_n == n
        assert mu_max == scheme.mu.max()
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


class PassCounter(np.ndarray):
    """Counts the ufunc calls and reductions made over it, and over the
    arrays computed from it."""

    passes = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        PassCounter.passes += 1
        inputs = [x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in kwargs["out"])
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if isinstance(result, np.ndarray) and result.ndim:
            return result.view(PassCounter)
        return result


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
        capped = max(mu.max(), nxt.mu.max()) >= 1.0 - DEFAULT.cap_tol
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
    def test_fused_check_makes_three_passes(self, family, monkeypatch):
        """Between two fused schemes the check reads the schemes three times
        (difference, absolute value, maximum): max mu' comes with the step,
        and a fused scheme is known to stay below the cap. The residual is
        the one the check computes without those hints, bit for bit."""
        real = solver._residual_and_next
        passes = []

        def counting(scheme, cs, n, fam, nxt=None, top=None, fused=False):
            assert nxt is not None and top is not None and fused
            want = real(scheme, cs, n, fam, nxt)
            wrapped = [dataclasses.replace(s, mu=s.mu.view(PassCounter)) for s in (scheme, nxt)]
            PassCounter.passes = 0
            got = real(wrapped[0], cs, n, fam, wrapped[1], top, fused)
            passes.append(PassCounter.passes)
            assert got[0] == want[0]
            return want

        monkeypatch.setattr(solver, "_residual_and_next", counting)
        grads, problem = pool_grads("qblogit", 800, seed=5)
        trace = fixed_point_solve(parse_criterion("D", problem), grads, family, 40)
        assert trace.status is SolveStatus.CONVERGED and trace.capped_set_size == 0
        assert passes and set(passes) == {3}

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


    @pytest.mark.parametrize("n, first", [(700, [True, False]), (900, [False])])
    def test_no_fused_sums_after_a_scheme_above_one_half(self, n, first, monkeypatch):
        # The uniform start fuses only below 1/2 (700 / 1500, not 900 / 1500),
        # and a fused pass whose closed form is capped takes c from a pass of
        # its own; every later scheme here is capped, so no later pass fuses.
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
            linearized.append(phi)
            if len(linearized) == 1:
                return real(grads, phi, fuse)
            c = real(grads, phi)[0]
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


class TestSolveMemory:
    """The fused pass keeps only the roots that become the next scheme, and
    the stationarity check compares two schemes a block of units at a time,
    so a spectral solve holds about three N-long float arrays: the current
    scheme, the best one and the next. A linear solve checks its one step
    against itself and holds no more."""

    @pytest.fixture(scope="class")
    def grads(self):
        problem = pool_problem("qblogit", make_pool("qblogit", 100_000, 5))
        grads = gradients_at(problem, fit_full(problem).theta0)
        grads.v_theta0, grads.hessian_inv  # cached before the measurement
        return grads

    @staticmethod
    def peak_columns(grads, token, family):
        """The solve, and its peak traced allocation in N-long float columns."""
        spec = parse_criterion(token)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace = fixed_point_solve(spec, grads, family, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return trace, (peak - base) / (8 * grads.n_units)

    @pytest.mark.parametrize("token", ["D", "phi:2"])
    @pytest.mark.parametrize("family", [DesignFamily.PO_WR, DesignFamily.PO_WOR])
    def test_spectral_solve_peak_below_three_and_a_half_columns(self, grads, token, family):
        trace, columns = self.peak_columns(grads, token, family)
        assert trace.status is SolveStatus.CONVERGED and trace.iterations > 1
        assert columns < 3.5, columns

    @pytest.mark.parametrize("token", ["A", "d-er"])
    @pytest.mark.parametrize("family", [DesignFamily.PO_WR, DesignFamily.PO_WOR])
    def test_linear_solve_peak_below_three_and_a_half_columns(self, grads, token, family):
        # The exit keeps no c and builds no N-long residual temporaries.
        trace, columns = self.peak_columns(grads, token, family)
        assert trace.status is SolveStatus.CONVERGED and trace.iterations == 1
        assert columns < 3.5, columns


@functools.cache
def small_pool(kind):
    return pool_grads(kind, 2000, seed=9)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["finpop", "lognormal", "qblogit"]),
    token=st.sampled_from(["A", "D", "phi:2"]),
    family=st.sampled_from(list(DesignFamily)),
    seed=st.integers(0, 2**32 - 1),
)
def test_permuting_the_units_permutes_the_scheme(kind, token, family, seed):
    grads = small_pool(kind)[0]
    perm = np.random.default_rng(seed).permutation(grads.n_units)
    shuffled = GradientSet(
        psi=grads.psi[perm], hessian=grads.hessian, theta0=grads.theta0,
        expected_hessian=grads.expected_hessian,
    )
    spec = parse_criterion(token)
    want = fixed_point_solve(spec, grads, family, 100)
    got = fixed_point_solve(spec, shuffled, family, 100)
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert rel_gap(got.final_scheme.mu, want.final_scheme.mu[perm]) <= 1e-9
