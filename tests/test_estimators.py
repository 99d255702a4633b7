import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from blockboot.empirical import block_averaged_cdf, block_averaged_quantile, order_stat_index, sample_quantile
from blockboot import estimators, resample
from blockboot.estimators import cdf_deviation_probs, lower_bounds_cover, lower_confidence_bounds, quantile_deviation_probs, window_deviation_probs
from blockboot.harness import GridSpec
from blockboot.resample import (
    BlockPlan,
    EmpiricalDistribution,
    bootstrap_quantile_distribution,
    cdf_statistic,
    exact_quantile_distribution,
    quantile_statistic,
)
from blockboot.seeding import substream


def random_distribution(rng):
    size = int(rng.integers(1, 12))
    values = np.sort(rng.standard_normal(size))
    counts = rng.integers(1, 6, size=size)
    return EmpiricalDistribution(values=values, counts=counts, total=int(counts.sum()))


class TestDistributionQueries:
    def test_galois_pair_random_distributions(self):
        rng = substream(31)
        for _ in range(100):
            dist = random_distribution(rng)
            alpha = float(rng.uniform(0.01, 0.99))
            q = dist.quantile(alpha)
            assert dist.cdf(q) >= alpha
            for v in dist.values[dist.values < q]:
                assert dist.cdf(v) < alpha

    def test_quantile_is_order_statistic(self):
        rng = substream(32)
        values = rng.standard_normal(40)
        plan = BlockPlan(3, 5)
        dist = bootstrap_quantile_distribution(values, plan, 0.5, 257, substream(11))
        rng_seq = substream(11)
        raw = np.sort([quantile_statistic(values, plan, 0.5, rng_seq) for _ in range(257)])
        for alpha in (0.05, 0.33, 0.5, 0.9, 0.975):
            k = order_stat_index(257, alpha)
            assert dist.quantile(alpha) == raw[k - 1]

    def test_cdf_monotone_unit_range(self):
        rng = substream(33)
        dist = random_distribution(rng)
        xs = np.sort(rng.standard_normal(50))
        cdf = dist.cdf(xs)
        assert np.all(np.diff(cdf) >= 0)
        assert np.all((cdf >= 0) & (cdf <= 1))
        alphas = np.linspace(0.05, 0.95, 10)
        qs = [dist.quantile(a) for a in alphas]
        assert np.all(np.diff(qs) >= 0)


class TestFastPaths:
    """A Monte Carlo point estimate is one binomial draw around the exact law; in law it is the pasting definition's estimate."""

    SEEDS = 400

    @staticmethod
    def assert_same_law(new, old):
        from scipy.stats import ks_2samp

        new, old = np.asarray(new), np.asarray(old)
        assert ks_2samp(new, old).pvalue > 0.001
        assert abs(new.mean() - old.mean()) <= 4 * math.sqrt((new.var(ddof=1) + old.var(ddof=1)) / new.size)

    def test_quantile_deviation_prob_matches_distribution_cdf_in_law(self):
        values = substream(34).standard_normal(30)
        for b, ell, x in [(1, 4, 0.3), (3, 5, -0.2), (6, 2, 0.5)]:
            plan = BlockPlan(b, ell)
            new = [quantile_deviation_probs(values, [plan], 0.5, x, 40, substream(seed))[0] for seed in range(self.SEEDS)]
            old = [bootstrap_quantile_distribution(values, plan, 0.5, 40, substream(10**6 + seed)).cdf(x) for seed in range(self.SEEDS)]
            self.assert_same_law(new, old)

    def test_cdf_deviation_prob_matches_sequential_loop_in_law(self):
        values = substream(35).standard_normal(30)
        for b, ell, x, y in [(4, 3, 0.2, 0.4), (1, 6, -0.3, 0.0), (8, 2, 0.0, -0.5)]:
            plan = BlockPlan(b, ell)
            new = [cdf_deviation_probs(values, [plan], x, y, 40, substream(seed))[0] for seed in range(self.SEEDS)]
            old = []
            for seed in range(self.SEEDS):
                rng = substream(10**6 + seed)
                old.append(np.mean([cdf_statistic(values, plan, x, rng) <= y for _ in range(40)]))
            self.assert_same_law(new, old)

    def test_cdf_deviation_prob_saturates(self):
        values = substream(36).standard_normal(40)
        plan = BlockPlan(5, 4)
        assert cdf_deviation_probs(values, [plan], 0.0, 1e6, 100, substream(3))[0] == 1.0
        assert cdf_deviation_probs(values, [plan], 0.0, -1e6, 100, substream(3))[0] == 0.0

    def test_cdf_deviation_prob_single_block_enumeration(self):
        values = substream(37).standard_normal(12)
        plan = BlockPlan(1, 4)
        x, y = 0.1, 0.3
        center = block_averaged_cdf(values, 4, x)
        atoms = np.array([2.0 * ((values[s : s + 4] <= x).mean() - center) for s in range(9)])
        exact = (atoms <= y).mean()
        (got,) = cdf_deviation_probs(values, [plan], x, y, 50_000, substream(13))
        assert abs(got - exact) <= 3 * math.sqrt(exact * (1 - exact) / 50_000) + 1e-12


class TestGridCalls:
    """A grid call returns, entry for entry, what per-plan calls return for its plans, drawing in plan order from one generator."""

    N = 24
    # Repeated block lengths, b = 1, the moving-block row (4, 6), ell = n and (1, 1).
    PLANS = [(3, 2), (1, 24), (4, 6), (1, 2), (7, 3), (1, 1), (2, 6), (12, 2), (1, 6), (5, 3)]

    def grid(self):
        return [BlockPlan(*self.PLANS[i]) for i in substream(61).permutation(len(self.PLANS))]

    @pytest.mark.parametrize("n_boot", [250, None])
    @pytest.mark.parametrize("ties", [False, True])
    def test_grid_equals_per_plan_calls(self, n_boot, ties):
        values = substream(62).standard_normal(self.N)
        values = np.round(values * 2) if ties else values
        plans = self.grid()
        got, shared = quantile_deviation_probs(values, plans, 0.5, 0.3, n_boot, substream(100)), substream(100)
        assert got.shape == (len(plans),) and list(got) == [quantile_deviation_probs(values, [plan], 0.5, 0.3, n_boot, shared)[0] for plan in plans]
        got, shared = cdf_deviation_probs(values, plans, 0.1, -0.2, n_boot, substream(100)), substream(100)
        assert list(got) == [cdf_deviation_probs(values, [plan], 0.1, -0.2, n_boot, shared)[0] for plan in plans]
        got, shared = lower_confidence_bounds(values, plans, 0.4, 0.9, n_boot, substream(100)), substream(100)
        assert list(got) == [lower_confidence_bounds(values, [plan], 0.4, 0.9, n_boot, shared)[0] for plan in plans]
        got, shared = lower_bounds_cover(values, plans, 0.4, 0.9, 0.0, n_boot, substream(100)), substream(100)
        assert list(got) == [lower_bounds_cover(values, [plan], 0.4, 0.9, 0.0, n_boot, shared)[0] for plan in plans]

    @pytest.mark.parametrize("name", ["quantile_deviation_probs", "cdf_deviation_probs", "lower_bounds_cover"])
    def test_default_grid_cells_equal_alone(self, name):
        # The 286 cells of the default grid at n = 200 span many FFT sizes; each cell's exact value is the same alone.
        values = substream(65).standard_normal(200)
        call = {
            "quantile_deviation_probs": lambda plans: quantile_deviation_probs(values, plans, 0.5, 0.3),
            "cdf_deviation_probs": lambda plans: cdf_deviation_probs(values, plans, 0.1, -0.2),
            "lower_bounds_cover": lambda plans: lower_bounds_cover(values, plans, 0.5, 0.9, -0.25),  # about the median bound
        }[name]
        plans = GridSpec().plans(200)
        got = call(plans)
        assert len(set(got.tolist())) > 1 and list(got) == [call([plan])[0] for plan in plans]

    @pytest.mark.parametrize("n_boot", [10, 2000])
    def test_vectorised_binomial_equals_sequential_draws(self, n_boot):
        # What lets a grid call equal per-plan calls on a shared generator; 2000 trials reach numpy's BTPE sampler.
        probs = np.concatenate(([0.0, 1.0, 1e-12, 1 - 1e-12], substream(66).uniform(size=296)))
        rng = substream(67)
        assert list(substream(67).binomial(n_boot, probs)) == [rng.binomial(n_boot, p) for p in probs]

    def test_empty_grid_and_checks(self):
        values = substream(63).standard_normal(self.N)
        assert quantile_deviation_probs(values, [], 0.5, 0.0, 10, substream(0)).shape == (0,)
        with pytest.raises(ValueError):
            cdf_deviation_probs(values, self.grid() + [BlockPlan(1, self.N + 1)], 0.0, 0.0)
        with pytest.raises(ValueError):
            lower_confidence_bounds(values, self.grid(), 0.5, 1.0, 10, substream(0))

    def test_draw_arguments_are_checked(self):
        values = substream(69).standard_normal(self.N)
        calls = {
            "quantile_deviation_probs": lambda n_boot, rng: quantile_deviation_probs(values, self.grid(), 0.5, 0.3, n_boot, rng),
            "cdf_deviation_probs": lambda n_boot, rng: cdf_deviation_probs(values, self.grid(), 0.1, -0.2, n_boot, rng),
            "lower_confidence_bounds": lambda n_boot, rng: lower_confidence_bounds(values, self.grid(), 0.4, 0.9, n_boot, rng),
            "lower_bounds_cover": lambda n_boot, rng: lower_bounds_cover(values, self.grid(), 0.4, 0.9, 0.0, n_boot, rng),
        }
        for name, call in calls.items():
            for n_boot in (0, -5):
                with pytest.raises(ValueError, match="n_boot"):
                    call(n_boot, substream(1))
            with pytest.raises(ValueError, match="rng"):
                call(10, None)
            assert call(1, substream(1)).shape == call(None, None).shape == (len(self.PLANS),), name

    @pytest.mark.parametrize("n_boot", [10, None])
    def test_cdf_point_extremes(self, n_boot):
        values = substream(64).standard_normal(self.N)
        plans, rng = self.grid(), substream(68)
        np.testing.assert_allclose(cdf_deviation_probs(values, plans, 0.0, math.inf, n_boot, rng), 1.0, atol=1e-15)
        assert list(cdf_deviation_probs(values, plans, 0.0, -math.inf, n_boot, rng)) == [0.0] * len(plans)
        with pytest.raises(ValueError):
            cdf_deviation_probs(values, plans, 0.0, math.nan, n_boot, rng)


def brute_force_prob(values, b, ell, event):
    """Share of all start tuples whose pasted series (a plain list) satisfies ``event``."""
    tuples = list(itertools.product(range(len(values) - ell + 1), repeat=b))
    hits = sum(1 for combo in tuples if event([v for s in combo for v in values[s : s + ell]]))
    return float(Fraction(hits, len(tuples)))


def tiny_instance(rng):
    n = int(rng.integers(3, 10))
    ell = int(rng.integers(1, min(3, n) + 1))
    b = int(rng.integers(1, 5))
    values = rng.standard_normal(n)
    return values, b, ell, float(rng.standard_normal())


class TestExactLaw:
    def test_quantile_deviation_prob_matches_brute_force(self):
        rng = substream(41)
        for trial in range(40):
            values, b, ell, x = tiny_instance(rng)
            p = int(rng.integers(1, 10)) / 10
            k = order_stat_index(b * ell, p)
            center = block_averaged_quantile(values, ell, p)
            expected = brute_force_prob(values.tolist(), b, ell, lambda pasted: math.sqrt(b * ell) * (sorted(pasted)[k - 1] - center) <= x)
            (got,) = quantile_deviation_probs(values, [BlockPlan(b, ell)], p, x)
            assert abs(got - expected) <= 1e-12

    def test_cdf_deviation_prob_matches_brute_force(self):
        rng = substream(42)
        for trial in range(40):
            values, b, ell, y = tiny_instance(rng)
            x = float(rng.standard_normal())
            center = block_averaged_cdf(values, ell, x)
            expected = brute_force_prob(values.tolist(), b, ell, lambda pasted: math.sqrt(b * ell) * (sum(v <= x for v in pasted) / (b * ell) - center) <= y)
            (got,) = cdf_deviation_probs(values, [BlockPlan(b, ell)], x, y)
            assert abs(got - expected) <= 1e-12

    def test_lower_bound_matches_exact_distribution(self):
        rng = substream(43)
        for _ in range(40):
            values, b, ell, _ = tiny_instance(rng)
            p, alpha = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))
            plan = BlockPlan(b, ell)
            expected = sample_quantile(values, p) - exact_quantile_distribution(values, plan, p).quantile(alpha) / np.sqrt(values.size)
            assert lower_confidence_bounds(values, [plan], p, alpha)[0] == expected


class TestLowerConfidenceBound:
    @pytest.mark.parametrize("n_boot", [40, 2000])
    @pytest.mark.parametrize("ties", [False, True])
    def test_grid_bounds_match_pasted_laws_in_law(self, n_boot, ties):
        # Each plan's Monte Carlo bound from a grid call on a shared generator,
        # over seeds, against the pasting definition's: b = 1, ell = n, a
        # repeated block length, and alpha in both tails and the middle.
        n = 30
        values = substream(44).standard_normal(n)
        values = np.round(values * 2) if ties else values
        plans = [BlockPlan(1, 6), BlockPlan(3, 6), BlockPlan(2, n), BlockPlan(5, 3)]
        q_hat, seeds = sample_quantile(values, 0.4), range(TestFastPaths.SEEDS)
        pasted = [[bootstrap_quantile_distribution(values, plan, 0.4, n_boot, substream(10**6 + seed)) for seed in seeds] for plan in plans]
        for alpha in (0.05, 0.5, 0.95):
            new = np.array([lower_confidence_bounds(values, plans, 0.4, alpha, n_boot, substream(seed)) for seed in seeds])
            for j, dists in enumerate(pasted):
                TestFastPaths.assert_same_law(new[:, j], [q_hat - dist.quantile(alpha) / np.sqrt(n) for dist in dists])

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_grid_calls_equal_full_laws(self, order, ties):
        # Exact bounds, several b per block length and in any plan order, equal
        # the enumerated law's quantiles.  The tuple counts stay under the exact cap.
        n = 30
        values = substream(46).standard_normal(n)
        values = np.round(values * 2) if ties else values
        plans = [BlockPlan(b, ell) for ell in (2, 5, 9) for b in (1, 2, 3, 4)]
        if order == "descending":
            plans = plans[::-1]
        elif order == "shuffled":
            plans = [plans[i] for i in substream(47).permutation(len(plans))]
        q_hat = sample_quantile(values, 0.4)
        for alpha in (0.05, 0.1, 0.5, 0.9, 0.95):
            expected = [q_hat - exact_quantile_distribution(values, plan, 0.4).quantile(alpha) / np.sqrt(n) for plan in plans]
            assert list(lower_confidence_bounds(values, plans, 0.4, alpha)) == expected

    def test_bound_pastes_nothing(self, monkeypatch):
        def paste(*args, **kwargs):
            raise AssertionError("lower_confidence_bounds pasted the bootstrap law")

        monkeypatch.setattr(resample, "bootstrap_quantile_distribution", paste)
        monkeypatch.setattr(estimators, "bootstrap_quantile_distribution", paste, raising=False)
        values = substream(45).standard_normal(60)
        assert math.isfinite(lower_confidence_bounds(values, [BlockPlan(5, 6)], 0.5, 0.9, 500, substream(1))[0])

    def test_constant_series(self):
        assert lower_confidence_bounds(np.full(20, 4.2), [BlockPlan(4, 3)], 0.5, 0.9, 200, substream(5))[0] == 4.2

    def test_monotone_in_alpha(self):
        values = substream(38).standard_normal(50)
        lowers = [lower_confidence_bounds(values, [BlockPlan(4, 4)], 0.5, a, 400, substream(21))[0] for a in (0.5, 0.8, 0.9, 0.99)]
        assert np.all(np.diff(lowers) <= 0)

    def test_shift_equivariance(self):
        values = substream(39).standard_normal(40)
        base = lower_confidence_bounds(values, [BlockPlan(3, 5)], 0.5, 0.9, 300, substream(22))[0]
        for shift in (-3.0, 0.5, 11.0):
            shifted = lower_confidence_bounds(values + shift, [BlockPlan(3, 5)], 0.5, 0.9, 300, substream(22))[0]
            assert shifted == pytest.approx(base + shift, abs=1e-9)

    def test_alpha_validation(self):
        values = substream(40).standard_normal(20)
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError):
                lower_confidence_bounds(values, [BlockPlan(2, 3)], 0.5, alpha, 50, substream(1))

    def test_n_boot_past_float64_counts_raises(self):
        # Past 2**53 betaincinv returns NaN levels, which would put every bound at the largest observation.
        values = substream(40).standard_normal(20)
        assert np.isfinite(lower_confidence_bounds(values, [BlockPlan(2, 3)], 0.5, 0.5, 2**53, substream(1))).all()
        with pytest.raises(ValueError, match=r"2\*\*53"):
            lower_confidence_bounds(values, [BlockPlan(2, 3)], 0.5, 0.5, 2**53 + 1, substream(1))


class TestLowerBoundsCover:
    """Coverage read from one tail per plan is the search's coverage, entry for entry, on the same draws."""

    N = 40
    PLANS = [BlockPlan(b, ell) for ell in (1, 2, 5, 8, 40) for b in (1, 2, 3, 5, 8) if b * ell <= 40] + [BlockPlan(20, 2)]

    @pytest.mark.parametrize("n_boot", [None, 40, 2000])
    def test_equals_coverage_of_the_bound(self, n_boot):
        raw = substream(70).standard_normal(self.N)
        # Raw, tied (rounded to 0.5) and constant series; q off and on an observation.
        for form in (raw, np.round(raw * 2) / 2, np.full(self.N, 0.25)):
            for q in (0.0, float(form[3]), float(np.sort(form)[self.N // 2])):
                for alpha in (0.1, 0.9, 0.95):
                    for seed in range(3):
                        got = lower_bounds_cover(form, self.PLANS, 0.5, alpha, q, n_boot, substream(71, seed))
                        bounds = lower_confidence_bounds(form, self.PLANS, 0.5, alpha, n_boot, substream(71, seed))
                        assert got.dtype == bool and list(got) == list(q >= bounds)

    def test_extremes_and_checks(self):
        values = substream(72).standard_normal(self.N)
        assert lower_bounds_cover(values, self.PLANS, 0.5, 0.9, math.inf, 50, substream(1)).all()
        assert not lower_bounds_cover(values, self.PLANS, 0.5, 0.9, -math.inf, 50, substream(1)).any()
        assert lower_bounds_cover(values, [], 0.5, 0.9, 0.0).shape == (0,)
        with pytest.raises(ValueError, match="NaN"):
            lower_bounds_cover(values, self.PLANS, 0.5, 0.9, math.nan)
        with pytest.raises(ValueError, match="alpha"):
            lower_bounds_cover(values, self.PLANS, 0.5, 1.0, 0.0, 50, substream(1))
        with pytest.raises(ValueError, match=r"2\*\*53"):
            lower_bounds_cover(values, self.PLANS, 0.5, 0.5, 0.0, 2**53 + 1, substream(1))

    @pytest.mark.parametrize("n_boot", [None, 50])
    def test_nan_points_raise_and_infinities_saturate(self, n_boot):
        # Every grid call names the NaN evaluation point it was given, as lower_bounds_cover names q.
        values, none, every = substream(74).standard_normal(self.N), [0.0] * len(self.PLANS), [1.0] * len(self.PLANS)
        with pytest.raises(ValueError, match="x must not be NaN"):
            quantile_deviation_probs(values, self.PLANS, 0.5, math.nan, n_boot, substream(1))
        for x, y, name in [(math.nan, 0.0, "x"), (0.0, math.nan, "y"), (math.nan, math.nan, "x")]:
            with pytest.raises(ValueError, match=f"{name} must not be NaN"):
                cdf_deviation_probs(values, self.PLANS, x, y, n_boot, substream(1))
        assert list(quantile_deviation_probs(values, self.PLANS, 0.5, math.inf, n_boot, substream(1))) == every
        assert list(quantile_deviation_probs(values, self.PLANS, 0.5, -math.inf, n_boot, substream(1))) == none
        # At x = +-inf every value lies on one side, so the resampled CDF equals the center and y = 0 is reached.
        assert list(cdf_deviation_probs(values, self.PLANS, math.inf, 0.0, n_boot, substream(1))) == every
        assert list(cdf_deviation_probs(values, self.PLANS, -math.inf, 0.0, n_boot, substream(1))) == every
        assert list(cdf_deviation_probs(values, self.PLANS, math.inf, -0.5, n_boot, substream(1))) == none

    def test_reads_one_tail_per_plan(self, monkeypatch):
        # Each grid call makes one kernel call, with one pmf row, block plan and tail index per plan.
        calls = []
        monkeypatch.setattr(estimators, "count_sum_tails", lambda *args: calls.append(args) or resample.count_sum_tails(*args))
        values = substream(73).standard_normal(self.N)
        lower_bounds_cover(values, self.PLANS, 0.5, 0.9, float(np.median(values)), 2000, substream(2))
        quantile_deviation_probs(values, self.PLANS, 0.5, 0.3, 2000, substream(2))
        cdf_deviation_probs(values, self.PLANS, 0.1, -0.2)
        assert len(calls) == 3
        for pmfs, plans, k in calls:
            assert pmfs.shape == (len(self.PLANS), 41) and list(plans) == self.PLANS and len(k) == len(self.PLANS)

    def test_bound_searches_make_one_kernel_call_per_round(self, monkeypatch):
        # The searches bisect range(n - 1) in lockstep: at most ceil(log2(n - 1)) rounds, the first with every plan.
        rows = []
        monkeypatch.setattr(estimators, "count_sum_tails", lambda *args: rows.append(len(args[1])) or resample.count_sum_tails(*args))
        lower_confidence_bounds(substream(74).standard_normal(self.N), self.PLANS, 0.5, 0.9, 2000, substream(3))
        assert 0 < len(rows) <= math.ceil(math.log2(self.N - 1)) and rows[0] == len(self.PLANS) and rows == sorted(rows, reverse=True)


class TestStackedPointEstimates:
    """Each row of a 2-d :func:`quantile_deviation_probs` call is the one-row call on that series with its own generator."""

    @pytest.mark.parametrize("budget", [None, 7000])
    @pytest.mark.parametrize("n_boot", [None, 2000])
    def test_rows_equal_one_row_calls(self, monkeypatch, n_boot, budget):
        # The default grid at n = 60 holds 3,264 values a series (its kernel stack): a budget of 7,000 takes two a batch.
        stack, plans, calls = substream(90).standard_normal((7, 60)), GridSpec().plans(60), []
        if budget is not None:
            monkeypatch.setattr(estimators, "_STACK_BUDGET", budget)
        tails = estimators.count_sum_tails
        monkeypatch.setattr(estimators, "count_sum_tails", lambda pmfs, *args: calls.append(len(pmfs)) or tails(pmfs, *args))
        rngs = None if n_boot is None else [substream(91, i) for i in range(7)]
        got = quantile_deviation_probs(stack, plans, 0.5, 0.3, n_boot, rngs)
        assert calls == ([2 * len(plans)] * 3 + [len(plans)] if budget else [7 * len(plans)])
        assert got.shape == (7, len(plans))
        for i, series in enumerate(stack):
            assert got[i].tolist() == quantile_deviation_probs(series, plans, 0.5, 0.3, n_boot, None if n_boot is None else substream(91, i)).tolist()


class TestWindowDeviationProbs:
    """Each window's values are a :func:`quantile_deviation_probs` call on its slice, whatever the windows around it."""

    PLANS = {20: [BlockPlan(2, 3), BlockPlan(1, 3), BlockPlan(4, 5)], 50: [BlockPlan(5, 4), BlockPlan(1, 50)], 40: []}

    @pytest.mark.parametrize("budget", [None, 200, 1])
    @pytest.mark.parametrize("n_boot", [None, 60])
    def test_interleaved_lengths_equal_per_window_calls(self, monkeypatch, n_boot, budget):
        # Lengths out of order, one with no plans; 200 values split the windows of each length into several batches.
        if budget is not None:
            monkeypatch.setattr(estimators, "_STACK_BUDGET", budget)
        values = np.round(substream(70).standard_normal(50) * 2)
        windows = [(5, 20), (0, 50), (30, 20), (10, 40), (0, 20), (7, 20)]
        rngs = None if n_boot is None else [substream(71, i) for i in range(len(windows))]
        got = window_deviation_probs(values, windows, self.PLANS, 0.5, 0.3, n_boot, rngs)
        expected = [quantile_deviation_probs(values[start : start + size], self.PLANS[size], 0.5, 0.3, n_boot, None if n_boot is None else substream(71, i)) for i, (start, size) in enumerate(windows)]
        assert [g.tolist() for g in got] == [g.tolist() for g in expected]

    @pytest.mark.parametrize(
        "windows, message",
        [
            ([(45, 20)], r"window \(45, 20\) does not lie within the 50 values"),
            ([(0, 20), (-1, 20)], r"window \(-1, 20\) does not lie within the 50 values"),
            ([(0, 20), (0, 30)], r"window \(0, 30\) has no plans"),
            ([0, 20, 5, 20], r"windows must be a sequence of \(start, length\) pairs"),
            ([(0, 20, 5), (1, 2, 3)], r"windows must be a sequence of \(start, length\) pairs"),
            ([(0, 20), (5,)], r"windows must be a sequence of \(start, length\) pairs"),
        ],
        ids=["past the end", "negative start", "length without plans", "flat", "triples", "ragged"],
    )
    def test_bad_window_raises_naming_it(self, windows, message):
        with pytest.raises(ValueError, match=message):
            window_deviation_probs(substream(72).standard_normal(50), windows, self.PLANS, 0.5, 0.3)

    def test_windows_without_plans_split_into_bounded_batches(self, monkeypatch):
        # A length with no plans still stacks its windows' values: 100 values hold 5 windows of 20, so 31 take 7 batches.
        monkeypatch.setattr(estimators, "_STACK_BUDGET", 100)
        stack, sizes = estimators._quantile_stack, []
        monkeypatch.setattr(estimators, "_quantile_stack", lambda values, *args: sizes.append(values.size) or stack(values, *args))
        got = window_deviation_probs(substream(73).standard_normal(50), [(start, 20) for start in range(31)], {20: []}, 0.5, 0.3)
        assert [g.size for g in got] == [0] * 31 and len(sizes) == 7 and max(sizes) <= 100

    def test_too_few_generators_raise_naming_the_count(self):
        values, windows = substream(72).standard_normal(50), [(0, 20), (5, 20), (0, 50)]
        with pytest.raises(ValueError, match=r"rngs holds fewer generators \(2\) than windows \(3\)"):
            window_deviation_probs(values, windows, self.PLANS, 0.5, 0.3, 10, iter([substream(1), substream(2)]))
