"""Acceptance battery: thirteen gate checks, one test per check.

Each test asserts its stated tolerance and, where a budget applies, its
runtime bound, then prints a single PASS line (visible with ``pytest -s`` or
in the failure report). The battery exercises the shipped code paths only;
expected values come from closed forms, brute-force grids, or seeded
Monte-Carlo with explicit error bars.
"""

import itertools
import time

import numpy as np
import pytest

from subdesign.covariance import DispersionKind, GradientSet, gamma, gradients_at
from subdesign.criteria import (
    a_opt,
    c_opt,
    coefficients,
    d_opt,
    distance_opt,
    e_opt,
    l_opt,
    objective_for_derivative,
    parse_criterion,
    phi_q,
    phi_value,
)
from subdesign.evaluate import (
    Reparameterization,
    monte_carlo_covariance,
    rel_efficiency,
    reparam_invariance,
)
from subdesign.models import fit_full, leverage
from subdesign.sampling import DesignFamily, derive_seed, draw, validate_scheme
from subdesign.sequential import run_k_stages
from subdesign.solver import SolveStatus, fixed_point_solve, l_optimal_scheme
from subdesign.synth import finpop_pool, lognormal_pool, make_pool, pool_problem

BATTERY = ("A", "c", "D", "E", "d-er", "d-s", "phi:0.5", "phi:5", "phi:10")


def report(number, message):
    print(f"acceptance {number:02d}: PASS - {message}")


def balanced_gradients(rng, n_units, p):
    psi = rng.normal(size=(n_units, p))
    psi -= psi.mean(axis=0)
    a = rng.normal(size=(p, p))
    hess = a @ a.T + p * np.eye(p)
    return GradientSet(psi=psi, hessian=hess, theta0=np.zeros(p))


def interior_scheme(rng, n_units, lo=0.4, hi=1.6):
    mu = rng.uniform(lo, hi, n_units)
    return validate_scheme(mu, DesignFamily.PO_WR, float(mu.sum()))


@pytest.fixture(scope="module")
def lognormal_big():
    """One large draw-and-fit study shared by the covariance checks."""
    pool = lognormal_pool(10_000, seed=2)
    problem = pool_problem("lognormal", pool)
    fit = fit_full(problem)
    grads = gradients_at(problem, fit.theta0)
    trace = fixed_point_solve(a_opt(), grads, DesignFamily.PO_WR, 500)
    assert trace.status is SolveStatus.CONVERGED
    start = time.perf_counter()
    mc = monte_carlo_covariance(problem, trace.final_scheme, R=5000, seed=11)
    elapsed = time.perf_counter() - start
    return problem, fit, grads, trace.final_scheme, mc, elapsed


def test_01_allocation_matches_grid_oracle():
    """Closed-form allocations beat a 200-step grid search to 1e-6."""
    start = time.perf_counter()
    steps = 200
    rng = np.random.default_rng(101)
    checked = 0
    for n_units in (3, 4):
        cuts = np.array(
            list(itertools.combinations(range(1, steps), n_units - 1)),
            dtype=np.int64,
        )
        full = np.column_stack(
            [np.zeros(len(cuts), dtype=np.int64), cuts, np.full(len(cuts), steps)]
        )
        parts = np.diff(full, axis=1)
        for n in (1, 2):
            mu_grid = n * parts / steps
            inv = 1.0 / mu_grid
            inv_wor = inv[np.all(mu_grid <= 1.0, axis=1)]
            for s in range(50):
                c = rng.uniform(0.1, 10.0, n_units)
                if s % 2 == 1:
                    # A dominant coefficient forces the cap without replacement.
                    c[0] *= 100.0
                for family in (DesignFamily.PO_WR, DesignFamily.PO_WOR):
                    scheme = l_optimal_scheme(c, n, family)
                    if family is DesignFamily.PO_WOR:
                        best = float((inv_wor @ c).min() - c.sum())
                        mine = float(np.sum(c * (1.0 / scheme.mu - 1.0)))
                    else:
                        best = float((inv @ c).min())
                        mine = float(np.sum(c / scheme.mu))
                    assert mine <= best + 1e-6
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(1, f"{checked} allocations at or below the grid optimum, {elapsed:.1f}s")


def test_02_coefficients_match_finite_differences():
    """The per-unit coefficients are the exact negative scaled gradient."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    for trial in range(5):
        n_units, p = 25, 3
        grads = balanced_gradients(rng, n_units, p)
        scheme = interior_scheme(rng, n_units)
        specs = [
            a_opt(),
            c_opt(np.eye(p)[0]),
            l_opt(rng.normal(size=(p, 2))),
            d_opt(),
            phi_q(0.5),
            phi_q(5.0),
            distance_opt(DispersionKind.ER),
            distance_opt(DispersionKind.SANDWICH),
        ]
        eigvals = np.linalg.eigvalsh(gamma(grads, scheme).gamma)
        gap = (eigvals[-1] - eigvals[-2]) / eigvals[-1]
        if gap > 1e-3:
            specs.append(e_opt())

        def objective(spec, mu):
            s = validate_scheme(mu, DesignFamily.PO_WR, float(mu.sum()))
            return objective_for_derivative(spec, gamma(grads, s).gamma, grads)

        for spec in specs:
            cs = coefficients(spec, grads, at=scheme)
            for i in range(0, n_units, 5):
                h = 1e-6 * scheme.mu[i]
                up = scheme.mu.copy()
                up[i] += h
                down = scheme.mu.copy()
                down[i] -= h
                fd = (objective(spec, up) - objective(spec, down)) / (2 * h)
                exact = -cs[i] / scheme.mu[i] ** 2
                assert fd == pytest.approx(exact, rel=1e-4)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    report(2, f"{checked} derivative comparisons within 1e-4 relative, {elapsed:.1f}s")


def test_03_self_efficiency_and_dominance():
    """Each converged optimum scores 1 on itself and beats random schemes."""
    pool = lognormal_pool(200, seed=6)
    problem = pool_problem("lognormal", pool)
    grads = gradients_at(problem, fit_full(problem).theta0)
    rng = np.random.default_rng(303)
    n = 20.0
    converged = 0
    for token in BATTERY:
        spec = parse_criterion(token, problem)
        trace = fixed_point_solve(spec, grads, DesignFamily.PO_WR, n)
        if trace.status is not SolveStatus.CONVERGED:
            continue
        converged += 1
        gam_opt = gamma(grads, trace.final_scheme).gamma
        self_eff = rel_efficiency(spec, gam_opt, gam_opt, grads)
        assert self_eff == pytest.approx(1.0, abs=1e-9)
        for _ in range(100):
            mu = rng.uniform(0.2, 2.0, problem.n_units)
            mu *= n / mu.sum()
            scheme = validate_scheme(mu, DesignFamily.PO_WR, n)
            eff = rel_efficiency(spec, gamma(grads, scheme).gamma, gam_opt, grads)
            assert eff <= 1.0 + 1e-9
    assert converged >= 5
    report(3, f"{converged} converged criteria, 100 dominated schemes each")


def test_04_expected_risk_distance_equals_average_variance():
    """On population means the d-er and A coefficient sets and schemes agree."""
    pool = finpop_pool(1000, seed=3)
    problem = pool_problem("finpop", pool)
    grads = gradients_at(problem, fit_full(problem).theta0)
    c_a = coefficients(a_opt(), grads)
    c_d = coefficients(distance_opt(DispersionKind.ER), grads)
    scale = float(np.max(np.abs(c_a)))
    assert np.max(np.abs(c_a - c_d)) <= 1e-12 * scale
    for family in (DesignFamily.PO_WR, DesignFamily.PO_WOR):
        mu_a = l_optimal_scheme(c_a, 50, family).mu
        mu_d = l_optimal_scheme(c_d, 50, family).mu
        assert np.max(np.abs(mu_a - mu_d)) <= 1e-12 * float(np.max(mu_a))
    report(4, "coefficient sets and schemes agree within 1e-12")


def test_05_iteration_counts():
    """The fixed point lands within 10 refinements; linear cases take one."""
    for kind in ("lognormal", "qblogit", "finpop"):
        pool = make_pool(kind, 5000, seed=1)
        problem = pool_problem(kind, pool)
        grads = gradients_at(problem, fit_full(problem).theta0)
        trace = fixed_point_solve(d_opt(), grads, DesignFamily.PO_WOR, 50)
        assert trace.status is SolveStatus.CONVERGED
        assert trace.iterations <= 10
        for spec in (
            a_opt(),
            parse_criterion("c", problem),
            distance_opt(DispersionKind.ER),
            distance_opt(DispersionKind.SANDWICH),
        ):
            linear = fixed_point_solve(spec, grads, DesignFamily.PO_WOR, 50)
            assert linear.status is SolveStatus.CONVERGED
            assert linear.iterations == 1
    report(5, "D converged within 10 iterations on all three models, linear in 1")


def test_06_divergence_is_reported_honestly():
    """Runs whose objective rises finish as Diverged, never Converged."""
    diverged = 0
    for kind in ("lognormal", "qblogit"):
        pool = make_pool(kind, 5000, seed=1)
        problem = pool_problem(kind, pool)
        grads = gradients_at(problem, fit_full(problem).theta0)
        for spec in (e_opt(), phi_q(10.0)):
            trace = fixed_point_solve(spec, grads, DesignFamily.PO_WOR, 50)
            objs = np.array(trace.objective_per_iter)
            increased = bool(np.any(np.diff(objs) > 1e-12 * np.abs(objs[:-1])))
            if increased:
                assert trace.status is not SolveStatus.CONVERGED
                assert trace.status is SolveStatus.DIVERGED
                diverged += 1
    assert diverged >= 2
    report(6, f"{diverged} objective-increasing runs all reported Diverged")


def test_07_weighted_total_is_unbiased():
    """The inverse-probability total matches the full sum within 4 SE."""
    start = time.perf_counter()
    pool = lognormal_pool(400, seed=8)
    problem = pool_problem("lognormal", pool)
    theta0 = fit_full(problem).theta0
    theta = theta0 + np.array([0.15, 0.1])
    losses = problem.unit_losses(theta)
    total = float(losses.sum())
    grads = gradients_at(problem, theta0)
    deviations = {}
    for family in (DesignFamily.PO_WR, DesignFamily.PO_WOR, DesignFamily.MULTI):
        trace = fixed_point_solve(a_opt(), grads, family, 40)
        scheme = trace.final_scheme
        weights = losses / scheme.mu
        R = 20_000
        estimates = np.empty(R)
        for r in range(R):
            result = draw(scheme, derive_seed(77, r))
            estimates[r] = result.counts @ weights
        se = float(estimates.std(ddof=1) / np.sqrt(R))
        dev = abs(float(estimates.mean()) - total) / se
        assert dev <= 4.0
        deviations[family.value] = dev
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    summary = ", ".join(f"{k} {v:.2f}" for k, v in deviations.items())
    report(7, f"deviations in SE units: {summary}; {elapsed:.1f}s")


def test_08_analytic_covariance_matches_simulation(lognormal_big):
    """Simulated estimator covariance tracks the analytic trace within 15%."""
    problem, fit, grads, scheme, mc, elapsed = lognormal_big
    gam = gamma(grads, scheme).gamma
    ratio = float(np.trace(mc.cov) / np.trace(gam))
    assert 0.85 <= ratio <= 1.15
    assert elapsed < 600
    report(8, f"trace ratio {ratio:.3f} over {mc.n_total} replicates, {elapsed:.1f}s")


def test_09_risk_gap_matches_half_trace(lognormal_big):
    """Mean excess risk of refits equals half the covariance-Hessian trace."""
    problem, fit, grads, scheme, mc, _ = lognormal_big
    base = float(problem.unit_losses(fit.theta0).sum())
    gaps = np.array(
        [problem.unit_losses(th).sum() - base for th in mc.thetas]
    )
    denom = 0.5 * float(np.trace(gamma(grads, scheme).gamma @ grads.hessian))
    ratio = float(gaps.mean() / denom)
    assert 0.8 <= ratio <= 1.2
    report(9, f"risk-gap ratio {ratio:.3f} at subsample size 500")


def test_10_leverage_identity():
    """Simulated squared residual times hat factor reproduces the leverage."""
    pool = make_pool("qblogit", 500, seed=4)
    problem = pool_problem("qblogit", pool)
    theta = fit_full(problem).theta0
    x = problem.data["X"]
    h = leverage(x, theta)
    t = x @ theta
    probs = 1.0 / (1.0 + np.exp(-t))
    w = probs * (1.0 - probs)
    rng = np.random.default_rng(505)
    units = rng.choice(problem.n_units, size=20, replace=False)
    R = 200_000
    for i in units:
        y_sim = rng.random(R) < probs[i]
        vals = (y_sim.astype(float) - probs[i]) ** 2 * (h[i] / w[i])
        se = float(vals.std(ddof=1) / np.sqrt(R))
        assert abs(float(vals.mean()) - h[i]) <= 3.0 * se
    report(10, "20 leverages matched by simulation within 3 SE")


def test_11_reparameterization_invariance():
    """Distance criteria ignore linear reparameterization; A does not."""
    pool = make_pool("qblogit", 500, seed=4)
    problem = pool_problem("qblogit", pool)
    rng = np.random.default_rng(606)
    a = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    reparam = Reparameterization(a)
    for spec in (
        distance_opt(DispersionKind.ER),
        distance_opt(DispersionKind.SANDWICH),
    ):
        _, _, sup = reparam_invariance(
            problem, reparam, spec, DesignFamily.PO_WOR, 50
        )
        assert sup <= 1e-8
    stretch = Reparameterization(np.diag([100.0, 1.0, 1.0]))
    _, _, sup_a = reparam_invariance(
        problem, stretch, a_opt(), DesignFamily.PO_WOR, 50
    )
    assert sup_a >= 1e-3
    report(11, f"distance criteria invariant, average variance moved {sup_a:.2e}")


def test_12_objective_is_convex_in_the_scheme():
    """Numeric Hessians of the linear objective are positive semidefinite."""
    rng = np.random.default_rng(707)
    n_units = 4
    grads = balanced_gradients(rng, n_units, 2)
    spec = a_opt()
    worst = np.inf
    for _ in range(20):
        scheme = interior_scheme(rng, n_units, lo=0.5, hi=1.5)
        mu = scheme.mu

        def objective(vec):
            s = validate_scheme(vec, DesignFamily.PO_WR, float(vec.sum()))
            return phi_value(spec, gamma(grads, s).gamma, grads)

        h_step = 1e-4
        hess = np.empty((n_units, n_units))
        for i in range(n_units):
            for j in range(n_units):
                pp = mu.copy(); pp[i] += h_step; pp[j] += h_step
                pm = mu.copy(); pm[i] += h_step; pm[j] -= h_step
                mp = mu.copy(); mp[i] -= h_step; mp[j] += h_step
                mm = mu.copy(); mm[i] -= h_step; mm[j] -= h_step
                hess[i, j] = (
                    objective(pp) - objective(pm) - objective(mp) + objective(mm)
                ) / (4 * h_step**2)
        hess = (hess + hess.T) / 2
        min_eig = float(np.linalg.eigvalsh(hess)[0])
        worst = min(worst, min_eig)
        assert min_eig >= -1e-8
    report(12, f"20 numeric Hessians PSD, smallest eigenvalue {worst:.2e}")


def test_13_staged_reallocation_learns():
    """Five adaptive stages cut mean error to under 0.6 of stage one."""
    start = time.perf_counter()
    pool = finpop_pool(10_000, seed=5)
    problem = pool_problem("finpop", pool)
    theta_full = fit_full(problem).theta0
    firsts, finals = [], []
    for rep in range(200):
        records = run_k_stages(
            problem, [100] * 5, DesignFamily.PO_WR, seed=derive_seed(13, rep)
        )
        firsts.append(float(np.linalg.norm(records[0].theta_hat - theta_full)))
        finals.append(float(np.linalg.norm(records[-1].theta_hat - theta_full)))
    ratio = float(np.mean(finals) / np.mean(firsts))
    elapsed = time.perf_counter() - start
    assert ratio <= 0.6
    assert elapsed < 60
    report(13, f"mean error ratio {ratio:.3f} over 200 replications, {elapsed:.0f}s")
