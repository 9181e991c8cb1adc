import numpy as np
import pytest

import subdesign.models as models
import subdesign.sequential as sequential
from subdesign.errors import InvalidBudget, InvalidInput, SingularHessian, StageFailure
from subdesign.models import (
    finpop_problem,
    fit_full,
    leverage,
    lognormal_problem,
    multiplier_fit,
    qblogit_problem,
    weighted_fit,
)
from subdesign.sampling import (
    DesignFamily,
    DrawResult,
    derive_seed,
    draw,
    uniform_scheme,
    validate_scheme,
)
from subdesign.sequential import (
    AuxConfig,
    StageRecord,
    _pooled_support,
    anticipate_scheme,
    pooled_estimate,
    run_k_stages,
    update_aux,
)
from subdesign.solver import l_optimal_scheme
from subdesign.synth import make_pool, pool_problem


def finpop_population(seed=0, n=300, m=2, n_groups=3):
    rng = np.random.default_rng(seed)
    g = rng.integers(0, n_groups, n)
    centers = rng.normal(0.0, 4.0, (n_groups, m))
    y = centers[g] + rng.normal(0.0, 1.0, (n, m))
    w = rng.lognormal(0.0, 0.8, n)
    return y, w, g


def lognormal_population(seed=0, n=250):
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 1.0, n)
    y = np.exp(1.0 + 0.8 * z + rng.normal(0.0, 0.4, n))
    w = rng.uniform(0.5, 2.0, n)
    return y, w, z[:, None]


def dense_multipliers(recs):
    """Pooled multipliers summed over the full population, stage by stage."""
    sizes = np.array([float(r.scheme.budget_n) for r in recs])
    u = np.zeros(recs[0].scheme.n_units)
    for rec, n_j in zip(recs, sizes):
        u += (n_j / sizes.sum()) * rec.draw.counts / rec.scheme.mu
    return u


class TestStageSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1) == derive_seed(7, 1)

    def test_varies_with_stage(self):
        seeds = {derive_seed(7, k) for k in range(1, 6)}
        assert len(seeds) == 5

    def test_is_derive_seed_of_master_and_stage(self):
        y, w, _ = finpop_population(seed=15)
        problem = finpop_problem(y, w)
        for master in (0, 7, 12345):
            records = run_k_stages(problem, [20, 30, 40], DesignFamily.PO_WR, seed=master)
            assert [rec.k for rec in records] == [1, 2, 3]
            for rec in records:
                expected = draw(rec.scheme, derive_seed(master, rec.k))
                assert rec.draw.seed == derive_seed(master, rec.k)
                assert np.array_equal(rec.draw.counts, expected.counts)


class TestPooledEstimate:
    def test_single_stage_matches_weighted_fit(self):
        y, w, _ = finpop_population(seed=1)
        problem = finpop_problem(y, w)
        scheme = uniform_scheme(problem.n_units, 50, DesignFamily.PO_WR)
        result = draw(scheme, 11)
        rec = StageRecord(k=1, scheme=scheme, draw=result, theta_hat=np.zeros(2), m_k=50)
        pooled = pooled_estimate([rec], problem)
        direct = weighted_fit(problem, result.counts, scheme)
        assert pooled.theta0 == pytest.approx(direct.theta0, abs=1e-12)

    def test_census_stages_recover_full_fit(self):
        y, w, _ = finpop_population(seed=2, n=40)
        problem = finpop_problem(y, w)
        census = uniform_scheme(40, 40, DesignFamily.PO_WOR)
        recs = []
        for k in (1, 2):
            result = draw(census, derive_seed(5, k))
            recs.append(StageRecord(k=k, scheme=census, draw=result, theta_hat=np.zeros(2), m_k=40 * k))
        pooled = pooled_estimate(recs, problem)
        full = fit_full(problem)
        assert pooled.theta0 == pytest.approx(full.theta0, abs=1e-10)

    def test_two_stage_closed_form(self):
        y, w, _ = finpop_population(seed=3, n=60)
        problem = finpop_problem(y, w)
        recs = []
        for k, n_k in ((1, 10), (2, 20)):
            scheme = uniform_scheme(60, n_k, DesignFamily.PO_WR)
            result = draw(scheme, derive_seed(9, k))
            recs.append(StageRecord(k=k, scheme=scheme, draw=result, theta_hat=np.zeros(2), m_k=10 * k))
        u = dense_multipliers(recs)
        uw = u * problem.weights
        expected = (uw[:, None] * np.asarray(problem.data["y"])).sum(axis=0) / uw.sum()
        pooled = pooled_estimate(recs, problem)
        assert pooled.theta0 == pytest.approx(expected, abs=1e-10)

    def test_stage_share_weighting(self):
        # A stage holding 3/4 of the cumulative budget carries 3x the weight.
        y, w, _ = finpop_population(seed=4, n=30)
        problem = finpop_problem(y, w)
        s1 = uniform_scheme(30, 5, DesignFamily.PO_WR)
        s2 = uniform_scheme(30, 15, DesignFamily.PO_WR)
        r1 = draw(s1, 1)
        r2 = draw(s2, 2)
        recs = [
            StageRecord(k=1, scheme=s1, draw=r1, theta_hat=np.zeros(2), m_k=5),
            StageRecord(k=2, scheme=s2, draw=r2, theta_hat=np.zeros(2), m_k=20),
        ]
        support, u_support = _pooled_support(recs)
        u = np.zeros(30)
        u[support] = u_support
        manual = 0.25 * r1.counts / s1.mu + 0.75 * r2.counts / s2.mu
        assert u == pytest.approx(manual)

    def test_empty_records_rejected(self):
        y, w, _ = finpop_population(seed=5, n=20)
        with pytest.raises(InvalidInput):
            pooled_estimate([], finpop_problem(y, w))


def unequal_stages(family, n_units=400, seed=21):
    """Three stages of unequal schemes; the last record is built by hand from dense counts."""
    rng = np.random.default_rng(seed)
    recs = []
    for k, n_k in enumerate((20, 30, 50), start=1):
        mu = rng.uniform(0.2, 1.0, n_units)
        scheme = validate_scheme(mu / mu.sum() * n_k, family, n_k)
        result = draw(scheme, derive_seed(seed, k))
        if k == 3:
            counts = np.array(result.counts)
            support = np.flatnonzero(counts)
            result = DrawResult(
                support=support,
                support_counts=counts[support],
                n_units=n_units,
                realized_size=int(counts.sum()),
                seed=result.seed,
            )
        recs.append(StageRecord(k=k, scheme=scheme, draw=result, theta_hat=np.zeros(2), m_k=0))
    return recs


class TestPooledSupport:
    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_multipliers_equal_the_full_population_loop_bitwise(self, family):
        recs = unequal_stages(family)
        dense = dense_multipliers(recs)
        support, u = _pooled_support(recs)
        assert np.array_equal(support, np.flatnonzero(dense))
        assert np.array_equal(u, dense[support])

    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_newton_runs_on_the_union_of_the_stage_supports(self, family, monkeypatch):
        y, w, _ = finpop_population(seed=22, n=400)
        problem = finpop_problem(y, w)
        recs = unequal_stages(family)
        u = dense_multipliers(recs)
        reference = multiplier_fit(problem, u)
        seen = []
        real = models._newton

        def recording(prob, *args, **kwargs):
            seen.append(prob.n_units)
            return real(prob, *args, **kwargs)

        monkeypatch.setattr(models, "_newton", recording)
        fit = pooled_estimate(recs, problem)
        assert seen == [np.count_nonzero(u)]
        assert np.array_equal(fit.theta0, reference.theta0)

    def test_risk_matches_the_full_population_sum(self):
        y, w, _ = lognormal_population(seed=23, n=400)
        problem = lognormal_problem(y, w)
        recs = unequal_stages(DesignFamily.PO_WR)
        fit = pooled_estimate(recs, problem)
        full = float(dense_multipliers(recs) @ problem.unit_losses(fit.theta0))
        assert fit.risk == pytest.approx(full, rel=1e-13)


class TestUpdateAux:
    def run_one_stage(self, problem, n, seed=13, family=DesignFamily.PO_WR):
        scheme = uniform_scheme(problem.n_units, n, family)
        result = draw(scheme, seed)
        fit = weighted_fit(problem, result.counts, scheme)
        return [
            StageRecord(
                k=1, scheme=scheme, draw=result, theta_hat=fit.theta0, m_k=n
            )
        ]

    def test_lognormal_no_columns_gives_flat_predictions(self):
        y, w, _ = lognormal_population(seed=6)
        problem = lognormal_problem(y, w)
        recs = self.run_one_stage(problem, 60)
        aux = update_aux(recs, problem)
        assert np.ptp(aux["predictions"]) == 0.0
        sel = recs[0].draw.counts > 0
        assert aux["predictions"][0] == pytest.approx(np.log(y[sel]).mean())

    def test_lognormal_columns_track_signal(self):
        y, w, z = lognormal_population(seed=7)
        problem = lognormal_problem(y, w)
        recs = self.run_one_stage(problem, 120)
        aux = update_aux(recs, problem, AuxConfig(columns=z))
        # Predictions should correlate strongly with the generating predictor.
        corr = np.corrcoef(aux["predictions"], np.log(y))[0, 1]
        assert corr > 0.8

    def test_sigma_floor_on_constant_outcomes(self):
        y = np.full(50, 3.0)
        w = np.ones(50)
        problem = lognormal_problem(y, w)
        scheme = uniform_scheme(50, 20, DesignFamily.PO_WR)
        result = draw(scheme, 3)
        recs = [
            StageRecord(
                k=1, scheme=scheme, draw=result, theta_hat=np.array([np.log(3.0), 1e-6]), m_k=20
            )
        ]
        aux = update_aux(recs, problem)
        assert np.all(aux["dispersions"] == pytest.approx(1e-6))
        _, cs = anticipate_scheme(recs, problem, 10, DesignFamily.PO_WR)
        assert np.all(cs > 0.0)

    def test_degenerate_regression_falls_back(self):
        y, w, _ = lognormal_population(seed=8, n=60)
        problem = lognormal_problem(y, w)
        recs = self.run_one_stage(problem, 25)
        # A constant auxiliary column collides with the intercept.
        cols = np.ones((60, 1))
        with pytest.warns(RuntimeWarning, match="global mean"):
            aux = update_aux(recs, problem, AuxConfig(columns=cols))
        assert np.ptp(aux["predictions"]) == 0.0

    def test_finpop_group_means(self):
        y, w, g = finpop_population(seed=9)
        problem = finpop_problem(y, w)
        recs = self.run_one_stage(problem, 100)
        aux = update_aux(recs, problem, AuxConfig(groups=g))
        sel = recs[0].draw.counts > 0
        label = g[np.argmax(sel)]
        seen = (g == label) & sel
        assert aux["predictions"][g == label][0] == pytest.approx(y[seen].mean(axis=0))

    def test_finpop_cov_floor_on_rank_one_residuals(self):
        # Within-group variation lies along a single direction, so the raw
        # pooled covariance is rank one and needs the eigenvalue floor.
        rng = np.random.default_rng(10)
        base = rng.normal(0.0, 2.0, (2, 2))
        g = np.repeat([0, 1], 40)
        direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        y = base[g] + rng.normal(0.0, 1.0, 80)[:, None] * direction
        problem = finpop_problem(y, np.ones(80))
        recs = self.run_one_stage(problem, 40)
        aux = update_aux(recs, problem, AuxConfig(groups=g))
        evals = np.linalg.eigvalsh(aux["dispersion_matrices"])
        assert evals[0] >= 1e-8 * 0.999

    def test_finpop_unseen_group_warns(self):
        y, w, _ = finpop_population(seed=11, n=50)
        problem = finpop_problem(y, w)
        # The stage must draw some unit: under Poisson splitting, seed 4 draws
        # K = 0 (probability e^-10), so the stage uses seed 5.
        recs = self.run_one_stage(problem, 10, seed=5)
        g = np.zeros(50, dtype=int)
        g[-1] = 7  # singleton group
        sel = recs[0].draw.counts > 0
        if sel[-1]:  # make sure the singleton was not drawn
            g[-1] = 0
            g[0] = 7 if not sel[0] else g[0]
        if np.all(g == 0):
            pytest.skip("draw covered every unit")
        with pytest.warns(RuntimeWarning, match="no sampled units"):
            update_aux(recs, problem, AuxConfig(groups=g))

    def test_qblogit_aux_passthrough(self):
        rng = np.random.default_rng(12)
        X = np.column_stack([np.ones(80), rng.normal(0.0, 1.0, 80)])
        yb = rng.uniform(0.2, 0.8, 80)
        problem = qblogit_problem(X, yb)
        recs = self.run_one_stage(problem, 40)
        aux = update_aux(recs, problem, AuxConfig(deflate=True))
        assert aux["deflate"] is True
        assert aux["theta"] == pytest.approx(recs[0].theta_hat)
        h = leverage(X, aux["theta"])
        assert np.all(h > 0.0)


class TestRunKStages:
    def test_single_stage_is_uniform_pipeline(self):
        y, w, _ = finpop_population(seed=14)
        problem = finpop_problem(y, w)
        records = run_k_stages(problem, [40], DesignFamily.PO_WR, seed=20)
        assert len(records) == 1
        rec = records[0]
        assert np.ptp(rec.scheme.mu) == 0.0
        expected = draw(rec.scheme, derive_seed(20, 1))
        assert np.array_equal(rec.draw.counts, expected.counts)
        direct = weighted_fit(problem, rec.draw.counts, rec.scheme)
        assert rec.theta_hat == pytest.approx(direct.theta0, abs=1e-12)
        assert rec.m_k == 40

    def test_two_stage_scheme_matches_external_recompute(self):
        y, w, g = finpop_population(seed=15)
        problem = finpop_problem(y, w)
        cfg = AuxConfig(groups=g)
        records = run_k_stages(problem, [60, 60], DesignFamily.PO_WR, seed=21, aux_config=cfg)

        # Rebuild the stage-2 allocation by hand from the stage-1 record.
        rec1 = records[0]
        sel = rec1.draw.counts > 0
        theta1 = rec1.theta_hat
        n_units = problem.n_units
        pred = np.tile(y[sel].mean(axis=0), (n_units, 1))
        rows = []
        for label in np.unique(g):
            seen = (g == label) & sel
            if np.any(seen):
                mean = y[seen].mean(axis=0)
                pred[g == label] = mean
                rows.append(y[seen] - mean)
        resid = np.vstack(rows)
        cov = resid.T @ resid / len(resid)
        evals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        if evals[0] < 1e-8:
            cov = cov + (1e-8 - evals[0]) * np.eye(2)
        wn = problem.weights
        centered = pred - theta1
        v_hat = (wn[:, None] ** 2 * centered).T @ centered + np.sum(wn**2) * cov
        v_inv = np.linalg.inv(0.5 * (v_hat + v_hat.T))
        quad = np.sum((centered @ v_inv) * centered, axis=1)
        traces = np.trace(v_inv @ cov) * np.ones(n_units)
        c = wn**2 * (quad + traces)
        expected = l_optimal_scheme(c, 60, DesignFamily.PO_WR)
        assert records[1].scheme.mu == pytest.approx(expected.mu, rel=1e-9)

    def test_all_stage_probabilities_positive(self):
        y, w, z = lognormal_population(seed=16)
        problem = lognormal_problem(y, w)
        records = run_k_stages(
            problem, [30, 30, 30], DesignFamily.PO_WR, seed=22,
            aux_config=AuxConfig(columns=z),
        )
        for rec in records:
            assert np.all(rec.scheme.mu > 0.0)
        assert [r.m_k for r in records] == [30, 60, 90]

    def test_one_dimensional_columns_are_one_column(self):
        pool = make_pool("lognormal", 500, seed=3)
        problem = pool_problem("lognormal", pool)

        def stages(columns):
            return run_k_stages(
                problem, [40, 40], DesignFamily.PO_WR, seed=5,
                aux_config=AuxConfig(columns=columns),
            )

        flat, column = stages(pool["z"][:, 0]), stages(pool["z"][:, :1])
        assert len(flat) == 2
        for a, b in zip(flat, column):
            assert np.array_equal(a.scheme.mu, b.scheme.mu)
            assert np.array_equal(a.draw.counts, b.draw.counts)
            assert np.array_equal(a.theta_hat, b.theta_hat)

    def test_pooled_risk_improves_over_previous_theta(self):
        y, w, g = finpop_population(seed=17)
        problem = finpop_problem(y, w)
        records = run_k_stages(
            problem, [40, 40, 40], DesignFamily.PO_WR, seed=23,
            aux_config=AuxConfig(groups=g),
        )
        for k in range(1, len(records)):
            u = dense_multipliers(records[: k + 1])
            now = float(u @ problem.unit_losses(records[k].theta_hat))
            before = float(u @ problem.unit_losses(records[k - 1].theta_hat))
            assert records[k].risk == pytest.approx(now, rel=1e-13)
            assert now <= before + 1e-12

    def test_replay_is_bitwise(self):
        y, w, g = finpop_population(seed=18)
        problem = finpop_problem(y, w)
        cfg = AuxConfig(groups=g)
        a = run_k_stages(problem, [30, 30], DesignFamily.PO_WOR, seed=24, aux_config=cfg)
        b = run_k_stages(problem, [30, 30], DesignFamily.PO_WOR, seed=24, aux_config=cfg)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.scheme.mu, rb.scheme.mu)
            assert np.array_equal(ra.draw.counts, rb.draw.counts)
            assert np.array_equal(ra.theta_hat, rb.theta_hat)

    def test_seed_changes_draws(self):
        y, w, _ = finpop_population(seed=19)
        problem = finpop_problem(y, w)
        a = run_k_stages(problem, [30], DesignFamily.PO_WR, seed=1)
        b = run_k_stages(problem, [30], DesignFamily.PO_WR, seed=2)
        assert not np.array_equal(a[0].draw.counts, b[0].draw.counts)

    def test_qblogit_stages_run(self):
        rng = np.random.default_rng(25)
        X = np.column_stack([np.ones(200), rng.normal(0.0, 1.0, 200)])
        p = 1.0 / (1.0 + np.exp(-(0.3 + 0.9 * X[:, 1])))
        yb = np.clip(p + rng.normal(0.0, 0.05, 200), 0.0, 1.0)
        problem = qblogit_problem(X, yb)
        records = run_k_stages(problem, [60, 60], DesignFamily.PO_WOR, seed=26)
        assert len(records) == 2
        assert np.all(records[1].scheme.mu > 0)
        assert np.all(records[1].scheme.mu <= 1.0)

    def test_stage_failure_carries_partial_records(self, monkeypatch):
        y, w, _ = finpop_population(seed=27, n=50)
        problem = finpop_problem(y, w)
        real = sequential.pooled_estimate
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise SingularHessian("forced failure of the second pooled fit")
            return real(*args, **kwargs)

        monkeypatch.setattr(sequential, "pooled_estimate", fail_second)
        with pytest.raises(StageFailure) as exc:
            run_k_stages(problem, [20, 20], DesignFamily.PO_WOR, seed=27)
        assert exc.value.stage == 2
        assert len(exc.value.records) == 1
        assert exc.value.records[0].k == 1

    @pytest.mark.parametrize("sizes", [[80, 20], [20, 80], [20, 20, 51]])
    def test_po_wor_size_above_n_refused_before_stage_one(self, sizes, monkeypatch):
        y, w, _ = finpop_population(seed=27, n=50)
        problem = finpop_problem(y, w)
        draws = []
        monkeypatch.setattr(sequential, "draw", lambda *args: draws.append(args))
        with pytest.raises(InvalidBudget, match="^cannot place expected size"):
            run_k_stages(problem, sizes, DesignFamily.PO_WOR, seed=27)
        assert draws == []
        # With replacement the same sizes are feasible.
        monkeypatch.undo()
        assert len(run_k_stages(problem, sizes, DesignFamily.PO_WR, seed=27)) == len(sizes)

    def test_stage_one_failure_has_no_records(self):
        x = np.column_stack([np.ones(30), np.linspace(-2, 2, 30)])
        yb = (x[:, 1] > 0).astype(float)  # perfectly separated
        problem = qblogit_problem(x, yb)
        with pytest.raises(StageFailure) as exc:
            run_k_stages(problem, [15, 15], DesignFamily.PO_WR, seed=28)
        assert exc.value.stage == 1
        assert exc.value.records == ()

    def test_bad_batch_sizes(self):
        y, w, _ = finpop_population(seed=33, n=20)
        problem = finpop_problem(y, w)
        with pytest.raises(InvalidInput):
            run_k_stages(problem, [], DesignFamily.PO_WR, seed=1)
        with pytest.raises(InvalidInput):
            run_k_stages(problem, [10, -5], DesignFamily.PO_WR, seed=1)


class TestLearningCurve:
    def test_multi_stage_beats_single_stage(self):
        y, w, g = finpop_population(seed=34, n=1500, m=2, n_groups=4)
        problem = finpop_problem(y, w)
        theta0 = fit_full(problem).theta0
        cfg = AuxConfig(groups=g)
        first, final = [], []
        for rep in range(40):
            records = run_k_stages(
                problem, [60, 60, 60], DesignFamily.PO_WR, seed=1000 + rep,
                aux_config=cfg,
            )
            first.append(np.linalg.norm(records[0].theta_hat - theta0))
            final.append(np.linalg.norm(records[-1].theta_hat - theta0))
        assert np.mean(final) <= 0.85 * np.mean(first)
