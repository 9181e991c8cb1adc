import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdesign import sequential
from subdesign.errors import InvalidBudget, InvalidInput, OutOfDomain
from subdesign.sampling import (
    DesignFamily,
    SamplingScheme,
    check_budget,
    derive_seed,
    draw,
    uniform_scheme,
    validate_scheme,
)
from subdesign.sequential import run_k_stages
from subdesign.solver import l_optimal_scheme
from subdesign.synth import make_pool, pool_problem


class TestValidateScheme:
    def test_uniform_powor_valid(self):
        scheme = validate_scheme([0.5, 0.5, 0.5, 0.5], DesignFamily.PO_WOR, 2)
        assert isinstance(scheme, SamplingScheme)
        assert scheme.n_units == 4
        assert scheme.budget_n == 2.0

    def test_powor_cap_violation(self):
        with pytest.raises(OutOfDomain):
            validate_scheme([1.2, 0.4, 0.4], DesignFamily.PO_WOR, 2)

    def test_powr_allows_mu_above_one(self):
        # With-replacement designs place no upper bound on expected counts.
        scheme = validate_scheme([2.5, 0.3, 0.2], DesignFamily.PO_WR, 3)
        assert scheme.mu[0] == 2.5

    def test_nonpositive_mu(self):
        with pytest.raises(OutOfDomain):
            validate_scheme([0.0, 1.0], DesignFamily.PO_WR, 1)
        with pytest.raises(OutOfDomain):
            validate_scheme([-0.1, 1.1], DesignFamily.PO_WR, 1)

    def test_budget_mismatch(self):
        with pytest.raises(InvalidBudget, match="does not match budget"):
            validate_scheme([0.5, 0.5], DesignFamily.PO_WR, 2)

    def test_budget_tolerance_accepts_roundoff(self):
        mu = np.full(3, 2.0 / 3.0)
        scheme = validate_scheme(mu, DesignFamily.MULTI, 2)
        assert scheme.budget_n == 2.0

    def test_multi_requires_integer_n(self):
        with pytest.raises(InvalidBudget):
            validate_scheme([0.75, 0.75], DesignFamily.MULTI, 1.5)

    def test_never_renormalizes(self):
        mu = [0.3, 0.3]
        with pytest.raises(InvalidBudget, match="does not match budget"):
            validate_scheme(mu, DesignFamily.PO_WOR, 1)

    def test_scheme_mu_is_readonly(self):
        scheme = validate_scheme([0.5, 0.5], DesignFamily.PO_WR, 1)
        with pytest.raises(ValueError):
            scheme.mu[0] = 9.0

    def test_writeable_caller_array_is_copied(self):
        mu = np.array([0.25, 0.75])
        scheme = validate_scheme(mu, DesignFamily.PO_WR, 1)
        mu[0] = 9.0
        assert scheme.mu.tolist() == [0.25, 0.75]

    def test_readonly_view_is_copied(self):
        base = np.array([0.25, 0.75, 0.5])
        view = base[:2]
        view.flags.writeable = False
        scheme = validate_scheme(view, DesignFamily.PO_WR, 1)
        base[0] = 9.0
        assert scheme.mu.tolist() == [0.25, 0.75]

    def test_readonly_owned_array_is_kept(self):
        mu = np.array([0.25, 0.75])
        mu.flags.writeable = False
        assert validate_scheme(mu, DesignFamily.PO_WR, 1).mu is mu

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            validate_scheme([np.nan, 1.0], DesignFamily.PO_WR, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_message_comes_before_budget_checks(self, bad):
        for family in DesignFamily:
            with pytest.raises(InvalidInput, match="^mu has non-finite entries$"):
                validate_scheme([0.5, bad, 0.0], family, -1.0)

    def test_domain_messages_name_the_extreme_unit(self):
        with pytest.raises(OutOfDomain, match=r"^mu\[2\] = -0\.3 is not strictly positive$"):
            validate_scheme([0.5, 0.0, -0.3, 1.8], DesignFamily.PO_WR, 2.0)
        with pytest.raises(OutOfDomain, match=r"^mu\[1\] = 0\.0 is not strictly positive$"):
            validate_scheme([0.5, 0.0, 1.5], DesignFamily.MULTI, 2)
        with pytest.raises(
            OutOfDomain,
            match=r"^mu\[1\] = 1\.25 exceeds 1; without-replacement schemes are "
            r"capped at 1$",
        ):
            validate_scheme([0.5, 1.25, 1.0 + 1e-15, 0.25], DesignFamily.PO_WOR, 3.0)

    @pytest.mark.parametrize(
        "mu, family, n, exc, message",
        [
            ([0.5, np.nan, 0.5], DesignFamily.MULTI, 1.5, InvalidInput,
             r"^mu has non-finite entries$"),
            ([np.nan, 0.0, 2.0], DesignFamily.PO_WOR, -1.0, InvalidInput,
             r"^mu has non-finite entries$"),
            ([0.5, 0.0, 0.5], DesignFamily.PO_WOR, 1.0, OutOfDomain,
             r"^mu\[1\] = 0\.0 is not strictly positive$"),
            ([1.5, 0.0, 0.5], DesignFamily.PO_WOR, 2.0, OutOfDomain,
             r"^mu\[1\] = 0\.0 is not strictly positive$"),
            ([0.5, np.inf], DesignFamily.PO_WR, 1.0, InvalidInput,
             r"^mu has non-finite entries$"),
            ([0.25, 1.5, 0.25], DesignFamily.PO_WOR, 2.0, OutOfDomain,
             r"^mu\[1\] = 1\.5 exceeds 1; without-replacement schemes are capped at 1$"),
            ([0.25, 1.5, 0.25], DesignFamily.PO_WR, 3.0, InvalidBudget,
             r"^sum\(mu\) = 2\.0 does not match budget n = 3\.0$"),
        ],
        ids=["nan-bad-budget", "nan-zero-bad-budget", "zero", "zero-before-cap",
             "inf-po-wr", "above-cap-po-wor", "above-one-po-wr"],
    )
    def test_message_and_order_pins(self, mu, family, n, exc, message):
        with pytest.raises(exc, match=message):
            validate_scheme(mu, family, n)

    def test_domain_checks_follow_budget_checks(self):
        with pytest.raises(InvalidBudget):
            validate_scheme([0.0, 1.0], DesignFamily.PO_WR, np.inf)
        with pytest.raises(InvalidBudget):
            validate_scheme([1.5, 0.5], DesignFamily.PO_WOR, 0.0)


class TestUniformScheme:
    def test_powr_quarter(self):
        scheme = uniform_scheme(4, 2, DesignFamily.PO_WR)
        assert scheme.mu == pytest.approx([0.5, 0.5, 0.5, 0.5])

    def test_census(self):
        scheme = uniform_scheme(10, 10, DesignFamily.PO_WOR)
        assert scheme.mu == pytest.approx(np.ones(10))

    def test_multi_thirds(self):
        scheme = uniform_scheme(3, 2, DesignFamily.MULTI)
        assert scheme.mu == pytest.approx(np.full(3, 2.0 / 3.0))
        assert scheme.mu.sum() == pytest.approx(2.0)

    def test_powor_overfull_budget(self):
        with pytest.raises(InvalidBudget):
            uniform_scheme(5, 6, DesignFamily.PO_WOR)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_never_exceeds_one(self, data):
        # n/N rounds to at most 1 whenever n <= N, so no cap is needed.
        n_units = data.draw(st.integers(1, 5000))
        n = data.draw(
            st.integers(1, n_units)
            | st.floats(1e-300, n_units, allow_nan=False, allow_infinity=False)
        )
        mu = uniform_scheme(n_units, n, DesignFamily.PO_WOR).mu
        assert mu.max() <= 1.0


# Every budget fault, with the one message each scheme builder raises for it.
# The budgets are floats because run_k_stages reads stage sizes as floats; a
# bool is no number, though numbers.Real counts it as one.
BUDGET_N_UNITS = 20
BUDGET_FAULTS = [
    *(
        (flag, family, f"^budget n must be a real number, got {flag}$")
        for flag in (True, False)
        for family in DesignFamily
    ),
    *(
        (bad, family, f"^budget n must be positive and finite, got {bad}$")
        for bad in (0.0, -1.0, np.nan, np.inf)
        for family in DesignFamily
    ),
    (2.5, DesignFamily.MULTI, r"^multinomial designs need an integer budget, got 2\.5$"),
    (21.0, DesignFamily.PO_WOR,
     r"^cannot place expected size 21\.0 without replacement in 20 units$"),
]


@pytest.mark.parametrize(
    "n, family, message", BUDGET_FAULTS,
    ids=[f"{n}-{family.value}" for n, family, _ in BUDGET_FAULTS],
)
class TestCheckBudget:
    """One rule, ``check_budget``, refuses a budget wherever a scheme is built."""

    def test_check_budget(self, n, family, message):
        with pytest.raises(InvalidBudget, match=message):
            check_budget(BUDGET_N_UNITS, n, family)

    def test_uniform_scheme(self, n, family, message):
        with pytest.raises(InvalidBudget, match=message):
            uniform_scheme(BUDGET_N_UNITS, n, family)

    def test_validate_scheme(self, n, family, message):
        # mu is in every family's domain, so only the budget can be at fault.
        with pytest.raises(InvalidBudget, match=message):
            validate_scheme(np.full(BUDGET_N_UNITS, 0.5), family, n)

    def test_l_optimal_scheme(self, n, family, message):
        c = np.linspace(1.0, 2.0, BUDGET_N_UNITS)
        with pytest.raises(InvalidBudget, match=message):
            l_optimal_scheme(c, n, family)

    @pytest.mark.parametrize("head", [[], [20.0]], ids=["alone", "after-a-valid-stage"])
    def test_run_k_stages_refuses_before_any_draw(self, monkeypatch, n, family, message, head):
        problem = pool_problem("finpop", make_pool("finpop", BUDGET_N_UNITS, seed=3))
        draws = []
        monkeypatch.setattr(sequential, "draw", lambda *args: draws.append(args))
        if n <= 0:  # a non-positive size list stays InvalidInput
            exc, message = InvalidInput, "^batch sizes must be positive$"
        else:
            exc = InvalidBudget
        with pytest.raises(exc, match=message) as err:
            run_k_stages(problem, [*head, n], family, seed=1)
        assert err.value.exit_code == 2
        assert draws == []


@pytest.mark.parametrize("bad", ["2", None, 2 + 0j], ids=["str", "None", "complex"])
def test_budget_that_is_not_a_real_number_is_refused(bad):
    # Each escaped as a builtin TypeError from np.isfinite or the comparison;
    # run_k_stages read "2" as 2.0 and None as NaN.
    message = rf"^budget n must be a real number, got {re.escape(repr(bad))}$"
    problem = pool_problem("finpop", make_pool("finpop", BUDGET_N_UNITS, seed=3))
    for family in DesignFamily:
        with pytest.raises(InvalidBudget, match=message):
            check_budget(BUDGET_N_UNITS, bad, family)
        with pytest.raises(InvalidBudget, match=message):
            uniform_scheme(BUDGET_N_UNITS, bad, family)
        with pytest.raises(InvalidBudget, match=message):
            run_k_stages(problem, [20.0, bad], family, seed=1)


@pytest.mark.parametrize("real", [np.int64(4), np.float64(4.0), 4, 4.0])
def test_numpy_and_builtin_real_budgets_pass(real):
    for family in DesignFamily:
        check_budget(BUDGET_N_UNITS, real, family)
        assert uniform_scheme(BUDGET_N_UNITS, real, family).budget_n == 4.0
    with pytest.raises(InvalidBudget, match="^budget n must be positive and finite, got 0$"):
        check_budget(BUDGET_N_UNITS, np.int64(0), DesignFamily.PO_WR)


class TestDraw:
    def test_census_draw_is_all_ones(self):
        scheme = uniform_scheme(8, 8, DesignFamily.PO_WOR)
        result = draw(scheme, seed=123)
        assert np.array_equal(result.counts, np.ones(8, dtype=np.int64))
        assert result.realized_size == 8

    def test_multi_fixed_size(self):
        scheme = uniform_scheme(3, 10, DesignFamily.MULTI)
        for seed in range(20):
            result = draw(scheme, seed)
            assert result.realized_size == 10
            assert result.counts.sum() == 10

    def test_powor_counts_binary(self):
        scheme = uniform_scheme(50, 10, DesignFamily.PO_WOR)
        for seed in range(20):
            counts = draw(scheme, seed).counts
            assert set(np.unique(counts)) <= {0, 1}

    def test_same_seed_bitwise_identical(self):
        scheme = uniform_scheme(100, 20, DesignFamily.PO_WR)
        a = draw(scheme, 987654321)
        b = draw(scheme, 987654321)
        assert np.array_equal(a.counts, b.counts)
        assert a.seed == b.seed == 987654321

    def test_different_seeds_differ(self):
        scheme = uniform_scheme(200, 50, DesignFamily.PO_WR)
        a = draw(scheme, 1)
        b = draw(scheme, 2)
        assert not np.array_equal(a.counts, b.counts)

    def test_powr_mean_total_within_4se(self):
        # N=200 units at mu=0.5: total has mean 100, SE sqrt(100/R) over R draws.
        scheme = uniform_scheme(200, 100, DesignFamily.PO_WR)
        reps = 10_000
        totals = np.array([draw(scheme, seed).realized_size for seed in range(reps)])
        se = np.sqrt(100.0 / reps)
        assert abs(totals.mean() - 100.0) <= 4 * se

    def test_powor_inclusion_frequencies(self):
        rng = np.random.default_rng(42)
        mu = rng.uniform(0.05, 0.95, size=30)
        mu = mu / mu.sum() * 6.0
        mu = np.clip(mu, None, 1.0)
        # Rescale the uncapped entries so the budget is exact after clipping.
        free = mu < 1.0
        mu[free] *= (6.0 - np.sum(mu[~free])) / np.sum(mu[free])
        scheme = validate_scheme(mu, DesignFamily.PO_WOR, 6.0)
        reps = 10_000
        hits = np.zeros(30)
        for seed in range(reps):
            hits += draw(scheme, seed).counts
        freq = hits / reps
        band = 4 * np.sqrt(mu * (1 - mu) / reps)
        assert np.all(np.abs(freq - mu) <= band + 1e-12)

    def test_poisson_draw_matches_family(self):
        # Variance of a Poisson count equals its mean; check on a big draw.
        scheme = validate_scheme([3.0], DesignFamily.PO_WR, 3.0)
        reps = 20_000
        vals = np.array([draw(scheme, s).counts[0] for s in range(reps)])
        assert abs(vals.mean() - 3.0) <= 4 * np.sqrt(3.0 / reps)
        assert abs(vals.var() - 3.0) <= 0.15

    def test_seed_out_of_range(self):
        scheme = uniform_scheme(3, 1, DesignFamily.PO_WR)
        with pytest.raises(InvalidInput):
            draw(scheme, -1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", True, False])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 and True used to draw, and record, seed 1.
        scheme = uniform_scheme(3, 1, DesignFamily.PO_WR)
        with pytest.raises(InvalidInput, match=f"^seed must be an integer, got {seed!r}$"):
            draw(scheme, seed)

    def test_counts_readonly(self):
        scheme = uniform_scheme(4, 2, DesignFamily.PO_WR)
        result = draw(scheme, 5)
        with pytest.raises(ValueError):
            result.counts[0] = 7


def chi2_upper(df, z=3.719):
    """Upper 1e-4 quantile of chi-square(df), Wilson-Hilferty approximation."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * np.sqrt(a)) ** 3


def unequal_scheme(family, n=6.0):
    mu = np.array([0.05, 0.3, 0.5, 0.8, 1.1, 1.7, 0.25, 1.3])
    return validate_scheme(mu / mu.sum() * n, family, n)


def reference_counts(scheme, seed):
    """The counts of one draw, built densely by the same Philox steps."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    mu = scheme.mu
    if scheme.family is DesignFamily.PO_WOR:
        return (rng.random(mu.shape[0]) < mu).astype(np.int64)
    cdf = np.cumsum(mu)
    if scheme.family is DesignFamily.PO_WR:
        k = int(rng.poisson(cdf[-1]))
    else:
        k = int(round(scheme.budget_n))
    uniforms = np.sort(rng.random(k))
    units = np.minimum(np.searchsorted(cdf, uniforms * cdf[-1], side="right"), len(mu) - 1)
    return np.bincount(units, minlength=len(mu)).astype(np.int64)


def draw_matrix(scheme, reps=10_000):
    return np.array([draw(scheme, derive_seed(11, r)).counts for r in range(reps)])


class TestSplittingDistribution:
    """10^4 seeded draws follow the law of independent Poisson or multinomial counts."""

    @pytest.mark.parametrize("family", [DesignFamily.PO_WR, DesignFamily.MULTI])
    def test_unit_means_within_4se(self, family):
        scheme = unequal_scheme(family)
        counts = draw_matrix(scheme)
        mu = scheme.mu
        var = mu if family is DesignFamily.PO_WR else mu * (1.0 - mu / scheme.budget_n)
        se = np.sqrt(var / counts.shape[0])
        assert np.all(np.abs(counts.mean(axis=0) - mu) <= 4 * se)

    @pytest.mark.parametrize("family", [DesignFamily.PO_WR, DesignFamily.MULTI])
    def test_pooled_counts_chi_square_against_mu_share(self, family):
        scheme = unequal_scheme(family)
        pooled = draw_matrix(scheme).sum(axis=0)
        expected = pooled.sum() * scheme.mu / scheme.mu.sum()
        stat = float(np.sum((pooled - expected) ** 2 / expected))
        assert stat <= chi2_upper(scheme.n_units - 1)

    def test_po_wr_unit_variance_equals_mean(self):
        scheme = unequal_scheme(DesignFamily.PO_WR)
        counts = draw_matrix(scheme)
        mu = scheme.mu
        # The sample variance of Poisson(mu) counts has variance about (mu + 2 mu^2) / R.
        band = 4 * np.sqrt((mu + 2 * mu**2) / counts.shape[0])
        assert np.all(np.abs(counts.var(axis=0, ddof=1) - mu) <= band)

    def test_po_wr_total_is_poisson(self):
        scheme = unequal_scheme(DesignFamily.PO_WR)
        reps = 10_000
        totals = np.array(
            [draw(scheme, derive_seed(12, r)).realized_size for r in range(reps)]
        )
        lam = float(scheme.mu.sum())
        assert abs(totals.mean() - lam) <= 4 * np.sqrt(lam / reps)
        assert abs(totals.var(ddof=1) - lam) <= 4 * np.sqrt((lam + 2 * lam**2) / reps)
        # Goodness of fit over k = 0..11 with the upper tail pooled into the last bin.
        ks = np.arange(12)
        log_fact = np.cumsum(np.log(np.maximum(ks, 1)))
        pmf = np.exp(ks * np.log(lam) - lam - log_fact)
        probs = np.append(pmf[:-1], 1.0 - pmf[:-1].sum())
        observed = np.bincount(np.minimum(totals, 11), minlength=12)
        expected = reps * probs
        assert expected.min() >= 5
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert stat <= chi2_upper(len(ks) - 1)

    def test_multi_realized_size_is_exactly_n(self):
        scheme = unequal_scheme(DesignFamily.MULTI)
        for r in range(10_000):
            result = draw(scheme, derive_seed(13, r))
            assert result.realized_size == 6
            assert result.counts.sum() == 6

    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_support_lists_the_drawn_units(self, family):
        scheme = unequal_scheme(family, n=3.0)
        for r in range(200):
            result = draw(scheme, derive_seed(14, r))
            support = result.support
            assert np.all(np.diff(support) > 0)
            assert np.array_equal(support, np.flatnonzero(result.counts))
            assert np.array_equal(result.support_counts, result.counts[support])
            assert result.support_counts.sum() == result.realized_size
            assert not support.flags.writeable
            assert not result.support_counts.flags.writeable

    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_draw_matches_the_dense_reference(self, family):
        mu = np.random.default_rng(15).uniform(0.05, 0.9, 500)
        scheme = validate_scheme(mu / mu.sum() * 200, family, 200)
        for r in range(100):
            seed = derive_seed(15, r)
            expected = reference_counts(scheme, seed)
            result = draw(scheme, seed)
            assert result.support.dtype == np.intp
            assert np.array_equal(result.support, np.flatnonzero(expected))
            assert result.support_counts.dtype == np.int64
            assert np.array_equal(result.support_counts, expected[expected > 0])
            assert result.n_units == 500
            assert result.realized_size == expected.sum()
            assert result.counts.dtype == np.int64
            assert np.array_equal(result.counts, expected)

    @pytest.mark.parametrize("family", list(DesignFamily))
    def test_counts_are_built_on_first_read_and_kept(self, family):
        scheme = unequal_scheme(family, n=3.0)
        result = draw(scheme, 16)
        assert "counts" not in vars(result)
        counts = result.counts
        assert np.array_equal(counts, reference_counts(scheme, 16))
        assert counts.dtype == np.int64
        assert not counts.flags.writeable
        assert result.counts is counts

    @pytest.mark.parametrize("family", [DesignFamily.PO_WR, DesignFamily.MULTI])
    def test_draw_allocates_in_the_sample_not_the_population(self, family):
        # One N-length int64 array at N = 2e5 is 1.6 MB; the draw's own
        # arrays hold its 100 targets and units.
        scheme = uniform_scheme(200_000, 100.0, family)
        draw(scheme, 0)  # builds the scheme's cdf, once, before the measured draws
        tracemalloc.start()
        try:
            for r in range(5):
                draw(scheme, derive_seed(17, r))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50_000

    @pytest.mark.parametrize("family", [DesignFamily.PO_WR, DesignFamily.MULTI])
    def test_target_at_the_total_maps_to_the_last_unit(self, family, monkeypatch):
        # A uniform u < 1 times cdf[-1] stays below cdf[-1] under round-to-nearest,
        # so the generator here returns the edge itself, u * cdf[-1] == cdf[-1],
        # which searchsorted alone would map to index N.
        class EdgeGenerator(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                return np.ones(size)

            def poisson(self, lam=1.0, size=None):
                return 2

        monkeypatch.setattr(np.random, "Generator", EdgeGenerator)
        scheme = unequal_scheme(family, n=2.0)
        result = draw(scheme, 3)
        assert result.support.tolist() == [scheme.n_units - 1]
        assert result.support_counts.tolist() == [2]
        assert result.counts[-1] == 2 and result.realized_size == 2

    def test_cdf_is_cached_and_only_built_by_draws(self):
        scheme = unequal_scheme(DesignFamily.PO_WR)
        assert "cdf" not in vars(scheme)
        draw(scheme, 1)
        cdf = vars(scheme)["cdf"]
        assert np.array_equal(cdf, np.cumsum(scheme.mu))
        assert not cdf.flags.writeable
        draw(scheme, 2)
        assert scheme.cdf is cdf


class TestDesignFamily:
    def test_tokens_roundtrip(self):
        assert DesignFamily.from_token("po-wr") is DesignFamily.PO_WR
        assert DesignFamily.from_token("PO-WOR") is DesignFamily.PO_WOR
        assert DesignFamily.from_token(" multi ") is DesignFamily.MULTI

    def test_unknown_token(self):
        with pytest.raises(InvalidInput):
            DesignFamily.from_token("systematic")


class TestDeriveSeed:
    @pytest.mark.parametrize("keys", [(0, 0), (7, 1), (2**40, 999), (1, 7, 0), (42, 7, 9)])
    def test_equals_the_seed_sequence_derivations_it_replaced(self, keys):
        # Stage and replicate seeds were keyed (master, index), CLI replication
        # seeds (master, 7, index), each by this SeedSequence recipe.
        ss = np.random.SeedSequence(entropy=[int(k) for k in keys])
        assert derive_seed(*keys) == int(ss.generate_state(1, dtype=np.uint64)[0])

    def test_fits_a_draw_seed(self):
        seed = derive_seed(3, 7, 1)
        assert 0 <= seed <= np.iinfo(np.uint64).max
        draw(uniform_scheme(5, 2, DesignFamily.PO_WR), seed)

    @pytest.mark.parametrize(
        "keys", [(1.5, 0), (3, 0.5), (-1, 0), (3, -2), ("7", 1), (True, 0), (3, False)]
    )
    def test_refuses_non_integral_or_negative_keys(self, keys):
        # int() used to truncate 1.5 to 1, so two different seeds drew alike;
        # True was taken as key 1.
        with pytest.raises(InvalidInput):
            derive_seed(*keys)

    def test_numpy_integer_keys_equal_python_ints(self):
        assert derive_seed(np.int64(7), np.uint32(1)) == derive_seed(7, 1)
