import tracemalloc

import numpy as np
import pytest

from subdesign.covariance import gradients_at
from subdesign.criteria import d_opt, e_opt
from subdesign.errors import InvalidInput
from subdesign.linalg import BLOCK_UNITS
from subdesign.models import fit_full
from subdesign.sampling import DesignFamily
from subdesign.solver import SolveStatus, fixed_point_solve
from subdesign.synth import (
    FINPOP_SCALE_GAP,
    _rng,
    finpop_pool,
    lognormal_pool,
    make_pool,
    pool_problem,
    qblogit_pool,
)


# The generators as plain expressions, before they were made to fill their
# arrays in place; make_pool must give these values bit for bit.
def reference_lognormal(n, seed):
    rng = _rng(seed)
    n_cases = max(2, n // 4)
    case = rng.integers(0, n_cases, n)
    case_weight = rng.lognormal(0.0, 0.5, n_cases)
    w = case_weight[case]
    z1 = rng.normal(0.0, 1.0, n)
    z2 = rng.normal(0.0, 1.0, n)
    resid = rng.normal(0.0, 0.5, n)
    log_y = 0.6 + 0.8 * z1 + resid
    return {"w": w, "y": np.exp(log_y), "z": np.column_stack([z1, z2])}


def reference_qblogit(n, seed):
    rng = _rng(seed)
    n_groups = 5
    g = rng.integers(0, n_groups, n)
    icept = rng.normal(0.0, 0.6, n_groups)
    slope1 = 1.0 + rng.normal(0.0, 0.7, n_groups)
    slope2 = -0.6 + rng.normal(0.0, 0.5, n_groups)
    x1 = rng.normal(0.0, 1.0, n)
    x2 = rng.normal(0.0, 1.0, n)
    lin = icept[g] + slope1[g] * x1 + slope2[g] * x2
    p = 1.0 / (1.0 + np.exp(-lin))
    y = np.clip(p + rng.normal(0.0, 0.07, n), 0.0, 1.0)
    return {"X": np.column_stack([np.ones(n), x1, x2]), "y": y}


def reference_finpop(n, seed):
    rng = _rng(seed)
    n_groups = 3
    g = rng.integers(0, n_groups, n)
    shift = rng.normal(0.0, 1.0, n_groups)
    factor = rng.normal(0.0, 1.0, n)
    y1 = FINPOP_SCALE_GAP * (5.0 + 0.7 * shift[g] + 0.55 * factor + rng.normal(0.0, 0.4, n))
    y2 = 4.0 + 0.8 * shift[g] + 0.7 * factor + rng.normal(0.0, 0.5, n)
    y3 = 2.5 + 0.3 * shift[g] + 0.5 * factor + rng.normal(0.0, 0.5, n)
    w = rng.lognormal(0.0, 0.8, n)
    return {"w": w, "y": np.column_stack([y1, y2, y3]), "g": g}


REFERENCES = {
    "finpop": reference_finpop,
    "lognormal": reference_lognormal,
    "qblogit": reference_qblogit,
}


class TestMatchesPlainExpressions:
    @pytest.mark.parametrize("kind", sorted(REFERENCES))
    @pytest.mark.parametrize("n", [10, 3000, 2 * BLOCK_UNITS + 123])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bitwise(self, kind, n, seed):
        pool = make_pool(kind, n, seed)
        expected = REFERENCES[kind](n, seed)
        assert pool.keys() == expected.keys()
        for key, want in expected.items():
            got = pool[key]
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), key

    def test_qblogit_peak_is_six_columns(self):
        # The outputs X and y take 4 N-long float columns. Beside them the
        # generator holds at most the group index g, the linear predictor
        # and one term of it: 6 columns of 8 bytes per unit. The plain
        # expressions hold about ten.
        n_units = 100_000
        make_pool("qblogit", 10)  # imports and first-call caches, outside the count
        tracemalloc.start()
        try:
            make_pool("qblogit", n_units, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * n_units + 65_536


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["lognormal", "qblogit", "finpop"])
    def test_same_seed_same_pool(self, kind):
        a = make_pool(kind, 200, seed=5)
        b = make_pool(kind, 200, seed=5)
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_different_seed_differs(self):
        a = lognormal_pool(200, seed=1)
        b = lognormal_pool(200, seed=2)
        assert not np.array_equal(a["y"], b["y"])


class TestLognormalPool:
    def test_outcomes_positive(self):
        pool = lognormal_pool(1000, seed=0)
        assert np.all(pool["y"] > 0)

    def test_case_structured_weights(self):
        pool = lognormal_pool(1000, seed=1)
        assert np.all(pool["w"] > 0)
        # Weights repeat within cases, so far fewer distinct values than units.
        assert len(np.unique(pool["w"])) <= 1000 // 4 + 1

    def test_first_auxiliary_predictive_second_noise(self):
        pool = lognormal_pool(3000, seed=2)
        logy = np.log(pool["y"])
        corr1 = np.corrcoef(logy, pool["z"][:, 0])[0, 1]
        corr2 = np.corrcoef(logy, pool["z"][:, 1])[0, 1]
        assert corr1 > 0.5
        assert abs(corr2) < 0.15

    def test_fits(self):
        pool = lognormal_pool(400, seed=3)
        problem = pool_problem("lognormal", pool)
        fit = fit_full(problem)
        assert problem.in_domain(fit.theta0)


class TestQblogitPool:
    def test_outcomes_fractional(self):
        pool = qblogit_pool(1000, seed=0)
        assert np.all(pool["y"] >= 0.0)
        assert np.all(pool["y"] <= 1.0)
        interior = (pool["y"] > 0.0) & (pool["y"] < 1.0)
        assert interior.mean() > 0.5

    def test_intercept_column(self):
        pool = qblogit_pool(300, seed=1)
        assert np.all(pool["X"][:, 0] == 1.0)
        assert pool["X"].shape == (300, 3)

    def test_fits(self):
        pool = qblogit_pool(500, seed=2)
        fit = fit_full(pool_problem("qblogit", pool))
        assert np.all(np.isfinite(fit.theta0))


class TestFinpopPool:
    def test_scale_gap(self):
        pool = finpop_pool(3000, seed=0)
        sds = pool["y"].std(axis=0)
        ratio = sds[0] / sds[1:].mean()
        assert 50.0 < ratio < 200.0
        assert FINPOP_SCALE_GAP == 100.0

    def test_columns_correlated(self):
        pool = finpop_pool(3000, seed=1)
        corr = np.corrcoef(pool["y"], rowvar=False)
        assert corr[0, 1] > 0.3
        assert corr[0, 2] > 0.3

    def test_groups_and_weights(self):
        pool = finpop_pool(500, seed=2)
        assert set(np.unique(pool["g"])) <= {0, 1, 2}
        assert np.all(pool["w"] > 0)
        # Skewed: mean well above median.
        assert pool["w"].mean() > 1.05 * np.median(pool["w"])


class TestSolverPattern:
    def test_d_converges_e_diverges_on_lognormal(self):
        pool = lognormal_pool(1200, seed=0)
        problem = pool_problem("lognormal", pool)
        grads = gradients_at(problem, fit_full(problem).theta0)
        tr_d = fixed_point_solve(d_opt(), grads, DesignFamily.PO_WR, 30.0)
        tr_e = fixed_point_solve(e_opt(), grads, DesignFamily.PO_WR, 30.0)
        assert tr_d.status is SolveStatus.CONVERGED
        assert tr_e.status is SolveStatus.DIVERGED

    def test_d_converges_on_finpop(self):
        pool = finpop_pool(1200, seed=0)
        problem = pool_problem("finpop", pool)
        grads = gradients_at(problem, fit_full(problem).theta0)
        tr = fixed_point_solve(d_opt(), grads, DesignFamily.PO_WR, 30.0)
        assert tr.status is SolveStatus.CONVERGED


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            make_pool("poisson", 100, seed=0)
        with pytest.raises(InvalidInput):
            pool_problem("poisson", {})

    def test_too_small(self):
        with pytest.raises(InvalidInput):
            lognormal_pool(5, seed=0)

    @pytest.mark.parametrize(
        "n_units, seed, message",
        [
            (20, 1.5, r"^seed must be an integer, got 1\.5$"),
            (20, True, "^seed must be an integer, got True$"),
            (20, -1, "^seed must be non-negative, got -1$"),
            (20.7, 1, r"^n_units must be an integer, got 20\.7$"),
            ("20", 1, "^n_units must be an integer, got '20'$"),
        ],
    )
    def test_size_and_seed_are_not_coerced(self, n_units, seed, message):
        for kind in ("finpop", "lognormal", "qblogit"):
            with pytest.raises(InvalidInput, match=message):
                make_pool(kind, n_units, seed)

    def test_numpy_integers_give_the_same_pool(self):
        a = make_pool("finpop", 20, 1)
        b = make_pool("finpop", np.int64(20), np.uint64(1))
        for key in a:
            assert np.array_equal(a[key], b[key])
