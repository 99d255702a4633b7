import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from blockboot.empirical import block_averaged_cdf, block_averaged_quantile, order_stat_index, sample_quantile
from blockboot import estimators, resample
from blockboot.estimators import (
    _starts,
    cdf_deviation_prob,
    cdf_deviation_probs,
    lower_confidence_bounds,
    quantile_deviation_prob,
    quantile_deviation_probs,
)
from blockboot.resample import (
    BlockPlan,
    EmpiricalDistribution,
    ResamplePlan,
    bootstrap_quantile_distribution,
    cdf_statistic,
    draw_block_starts,
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
        rp = ResamplePlan(BlockPlan(3, 5), 257, 11)
        dist = bootstrap_quantile_distribution(values, rp, 0.5)
        rng_seq = substream(11)
        raw = np.sort([quantile_statistic(values, rp.plan, 0.5, rng_seq) for _ in range(257)])
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
    def test_quantile_deviation_prob_equals_distribution_cdf(self):
        rng = substream(34)
        for trial in range(10):
            n = int(rng.integers(15, 60))
            values = rng.standard_normal(n)
            b = int(rng.integers(1, 6))
            ell = int(rng.integers(1, 8))
            if ell > n:
                ell = n
            rp = ResamplePlan(BlockPlan(b, ell), 400, 1000 + trial)
            dist = bootstrap_quantile_distribution(values, rp, 0.5)
            for x in rng.standard_normal(5):
                assert quantile_deviation_prob(values, rp, 0.5, float(x)) == dist.cdf(float(x))

    def test_cdf_deviation_prob_equals_sequential_loop(self):
        rng = substream(35)
        values = rng.standard_normal(30)
        rp = ResamplePlan(BlockPlan(4, 3), 300, 77)
        x, y = 0.2, 0.4
        fast = cdf_deviation_prob(values, rp, x, y)
        rng_seq = substream(77)
        stats = [cdf_statistic(values, rp.plan, x, rng_seq) for _ in range(300)]
        assert fast == np.mean(np.asarray(stats) <= y)

    def test_cdf_deviation_prob_saturates(self):
        values = substream(36).standard_normal(40)
        rp = ResamplePlan(BlockPlan(5, 4), 100, 3)
        assert cdf_deviation_prob(values, rp, 0.0, 1e6) == 1.0
        assert cdf_deviation_prob(values, rp, 0.0, -1e6) == 0.0

    def test_cdf_deviation_prob_single_block_enumeration(self):
        values = substream(37).standard_normal(12)
        plan = BlockPlan(1, 4)
        x, y = 0.1, 0.3
        center = block_averaged_cdf(values, 4, x)
        atoms = np.array([2.0 * ((values[s : s + 4] <= x).mean() - center) for s in range(9)])
        exact = (atoms <= y).mean()
        rp = ResamplePlan(plan, 50_000, 13)
        got = cdf_deviation_prob(values, rp, x, y)
        assert abs(got - exact) <= 3 * math.sqrt(exact * (1 - exact) / 50_000) + 1e-12


class TestGridCalls:
    """A grid call returns, entry for entry, what the per-plan call returns for that plan."""

    N = 24
    # Repeated block lengths, b = 1, the moving-block row (4, 6), ell = n and (1, 1).
    PLANS = [(3, 2), (1, 24), (4, 6), (1, 2), (7, 3), (1, 1), (2, 6), (12, 2), (1, 6), (5, 3)]

    def grid(self, n_boot):
        order = substream(61).permutation(len(self.PLANS))
        return [ResamplePlan(BlockPlan(*self.PLANS[i]), n_boot, 100 + int(i)) for i in order]

    @pytest.mark.parametrize("n_boot", [250, None])
    @pytest.mark.parametrize("ties", [False, True])
    def test_grid_equals_per_plan_calls(self, n_boot, ties):
        values = substream(62).standard_normal(self.N)
        values = np.round(values * 2) if ties else values
        rps = self.grid(n_boot)
        got = quantile_deviation_probs(values, rps, 0.5, 0.3)
        assert got.shape == (len(rps),) and list(got) == [quantile_deviation_prob(values, rp, 0.5, 0.3) for rp in rps]
        got = cdf_deviation_probs(values, rps, 0.1, -0.2)
        assert list(got) == [cdf_deviation_prob(values, rp, 0.1, -0.2) for rp in rps]
        got = lower_confidence_bounds(values, rps, 0.4, 0.9)
        assert list(got) == [lower_confidence_bounds(values, [rp], 0.4, 0.9)[0] for rp in rps]

    def test_empty_grid_and_checks(self):
        values = substream(63).standard_normal(self.N)
        assert quantile_deviation_probs(values, [], 0.5, 0.0).shape == (0,)
        with pytest.raises(ValueError):
            cdf_deviation_probs(values, self.grid(10) + [ResamplePlan(BlockPlan(1, self.N + 1), 10, 0)], 0.0, 0.0)
        with pytest.raises(ValueError):
            lower_confidence_bounds(values, self.grid(10), 0.5, 1.0)


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
            got = quantile_deviation_prob(values, ResamplePlan(BlockPlan(b, ell), None, trial), p, x)
            assert abs(got - expected) <= 1e-12

    def test_cdf_deviation_prob_matches_brute_force(self):
        rng = substream(42)
        for trial in range(40):
            values, b, ell, y = tiny_instance(rng)
            x = float(rng.standard_normal())
            center = block_averaged_cdf(values, ell, x)
            expected = brute_force_prob(values.tolist(), b, ell, lambda pasted: math.sqrt(b * ell) * (sum(v <= x for v in pasted) / (b * ell) - center) <= y)
            got = cdf_deviation_prob(values, ResamplePlan(BlockPlan(b, ell), None, trial), x, y)
            assert abs(got - expected) <= 1e-12

    def test_lower_bound_matches_exact_distribution(self):
        rng = substream(43)
        for _ in range(40):
            values, b, ell, _ = tiny_instance(rng)
            p, alpha = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))
            plan = BlockPlan(b, ell)
            expected = sample_quantile(values, p) - exact_quantile_distribution(values, plan, p).quantile(alpha) / np.sqrt(values.size)
            assert lower_confidence_bounds(values, [ResamplePlan(plan, None, 0)], p, alpha)[0] == expected


class TestLowerConfidenceBound:
    def test_bisection_equals_pasted_distribution(self):
        # The Monte Carlo bound (a bisection over count tallies) bit for bit
        # against the full pasted law, with tied values in half the instances,
        # n_boot * alpha an integer in a third, b = 1 in a quarter and ell = n
        # in a fifth.
        rng = substream(44)
        for trial in range(300):
            n = int(rng.integers(2, 41))
            values = rng.integers(0, 6, size=n).astype(float) if trial % 2 else rng.standard_normal(n)
            ell = n if trial % 5 == 0 else int(rng.integers(1, n + 1))
            b = 1 if trial % 4 == 0 else int(rng.integers(1, 7))
            if trial % 3:
                n_boot, alpha = int(rng.integers(1, 300)), float(rng.uniform(0.01, 0.99))
            else:
                n_boot, alpha = 20 * int(rng.integers(1, 15)), float(rng.choice([0.05, 0.1, 0.25, 0.5, 0.9, 0.95]))
            rp = ResamplePlan(BlockPlan(b, ell), n_boot, trial)
            p = float(rng.uniform(0.01, 0.99))
            expected = sample_quantile(values, p) - bootstrap_quantile_distribution(values, rp, p).quantile(alpha) / np.sqrt(n)
            assert lower_confidence_bounds(values, [rp], p, alpha)[0] == expected

    def test_bound_pastes_nothing(self, monkeypatch):
        def paste(*args, **kwargs):
            raise AssertionError("lower_confidence_bounds pasted the bootstrap law")

        monkeypatch.setattr(resample, "bootstrap_quantile_distribution", paste)
        monkeypatch.setattr(estimators, "bootstrap_quantile_distribution", paste, raising=False)
        values = substream(45).standard_normal(60)
        assert math.isfinite(lower_confidence_bounds(values, [ResamplePlan(BlockPlan(5, 6), 500, 1)], 0.5, 0.9)[0])

    def test_start_matrix_is_block_major(self):
        n, rp = 30, ResamplePlan(BlockPlan(4, 7), 50, 12)
        starts = _starts(n, rp)
        assert starts.shape == (4, 50) and starts.flags.c_contiguous
        rng = substream(rp.seed)
        for j in range(rp.n_boot):
            assert np.array_equal(starts[:, j], draw_block_starts(rng, n, rp.plan))
        assert _starts(n, ResamplePlan(rp.plan, None, 12)) is None

    def test_constant_series(self):
        assert lower_confidence_bounds(np.full(20, 4.2), [ResamplePlan(BlockPlan(4, 3), 200, 5)], 0.5, 0.9)[0] == 4.2

    def test_monotone_in_alpha(self):
        values = substream(38).standard_normal(50)
        rp = ResamplePlan(BlockPlan(4, 4), 400, 21)
        lowers = [lower_confidence_bounds(values, [rp], 0.5, a)[0] for a in (0.5, 0.8, 0.9, 0.99)]
        assert np.all(np.diff(lowers) <= 0)

    def test_shift_equivariance(self):
        values = substream(39).standard_normal(40)
        rp = ResamplePlan(BlockPlan(3, 5), 300, 22)
        base = lower_confidence_bounds(values, [rp], 0.5, 0.9)[0]
        for shift in (-3.0, 0.5, 11.0):
            shifted = lower_confidence_bounds(values + shift, [rp], 0.5, 0.9)[0]
            assert shifted == pytest.approx(base + shift, abs=1e-9)

    def test_alpha_validation(self):
        values = substream(40).standard_normal(20)
        rp = ResamplePlan(BlockPlan(2, 3), 50, 1)
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError):
                lower_confidence_bounds(values, [rp], 0.5, alpha)
