import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockboot.empirical import block_averaged_quantile, order_stat_index
from blockboot.resample import (
    BlockPlan,
    EmpiricalDistribution,
    ResourceLimitError,
    bootstrap_quantile_distribution,
    cdf_statistic,
    count_pmfs,
    count_sum_tails,
    draw_block_starts,
    exact_quantile_distribution,
    paste_blocks,
    quantile_statistic,
    window_counts,
)
from blockboot.seeding import substream


def nested_loop_enumerator(values, b, ell, p):
    """Independent exact enumeration in plain Python (loops, sorted, ceil)."""
    values = list(values)
    n = len(values)
    starts_range = range(n - ell + 1)
    center = None
    # centering quantile via exact rationals on the block-averaged CDF
    denom = ell * (n - ell + 1)
    for u in sorted(set(values)):
        mass = Fraction(0)
        for i in starts_range:
            mass += sum(1 for t in range(i, i + ell) if values[t] <= u)
        if Fraction(mass, denom) >= Fraction(p):
            center = u
            break
    k = math.ceil(b * ell * float(p))
    out = Counter()
    for combo in itertools.product(starts_range, repeat=b):
        pasted = []
        for start in combo:
            pasted.extend(values[start : start + ell])
        stat = math.sqrt(b * ell) * (sorted(pasted)[k - 1] - center)
        out[stat] += 1
    return out


class TestBlockPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockPlan(0, 2)
        with pytest.raises(ValueError):
            BlockPlan(2, 0)

    def test_named_constructors(self):
        assert BlockPlan.mbb(200, 6) == BlockPlan(33, 6)
        assert BlockPlan(3, 4).total_length == 12


class TestDrawBlockStarts:
    def test_degenerate_single_block(self):
        starts = draw_block_starts(substream(1), 5, BlockPlan(4, 5))
        assert np.array_equal(starts, [0, 0, 0, 0])

    def test_uniformity(self):
        rng = substream(2)
        starts = np.concatenate([draw_block_starts(rng, 10, BlockPlan(1000, 3)) for _ in range(1000)])
        freqs = np.bincount(starts, minlength=8) / starts.size
        assert np.all(np.abs(freqs - 1 / 8) < 0.002)

    def test_determinism(self):
        a = draw_block_starts(substream(3), 50, BlockPlan(20, 4))
        b = draw_block_starts(substream(3), 50, BlockPlan(20, 4))
        assert np.array_equal(a, b)

    def test_block_too_long(self):
        with pytest.raises(ValueError):
            draw_block_starts(substream(4), 3, BlockPlan(1, 4))


class TestPasteBlocks:
    def test_identity_paste(self):
        values = np.arange(6.0)
        assert np.array_equal(paste_blocks(values, [0], 6), values)

    def test_direct_indexing(self):
        assert np.array_equal(paste_blocks([10, 20, 30, 40], [2, 0], 2), [30, 40, 10, 20])

    def test_matches_naive_copy_oracle(self):
        rng = substream(5)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            ell = int(rng.integers(1, n + 1))
            values = rng.standard_normal(n)
            starts = rng.integers(0, n - ell + 1, size=int(rng.integers(1, 6)))
            expected = []
            for s in starts:
                expected.extend(values[s : s + ell])
            assert np.array_equal(paste_blocks(values, starts, ell), expected)

    def test_out_of_range_start(self):
        with pytest.raises(ValueError):
            paste_blocks([1.0, 2.0, 3.0], [2], 2)
        with pytest.raises(ValueError):
            paste_blocks([1.0, 2.0, 3.0], [-1], 2)


class TestQuantileStatistic:
    def test_constant_series(self):
        rng = substream(6)
        for _ in range(20):
            assert quantile_statistic(np.full(9, 3.3), BlockPlan(3, 2), 0.5, rng) == 0.0

    def test_hand_computed_value(self):
        # starts (1, 4): pasted series (1, 3, 2, 6); 2nd order statistic 2;
        # block-averaged median 3; statistic sqrt(4) * (2 - 3) = -2.
        series = np.array([4.0, 1.0, 3.0, 5.0, 2.0, 6.0])
        pasted = paste_blocks(series, [1, 4], 2)
        k = order_stat_index(4, 0.5)
        stat = math.sqrt(4) * (np.sort(pasted)[k - 1] - block_averaged_quantile(series, 2, 0.5))
        assert stat == -2.0

    def test_matches_composed_pipeline(self):
        rng_series = substream(7)
        values = rng_series.standard_normal(20)
        plan = BlockPlan(4, 3)
        stat = quantile_statistic(values, plan, 0.3, substream(8))
        starts = draw_block_starts(substream(8), 20, plan)
        k = order_stat_index(12, 0.3)
        expected = math.sqrt(12) * (np.sort(paste_blocks(values, starts, 3))[k - 1] - block_averaged_quantile(values, 3, 0.3))
        assert stat == expected

    def test_subsampling_support(self):
        values = substream(9).standard_normal(12)
        plan = BlockPlan(1, 4)
        support = set()
        k = order_stat_index(4, 0.5)
        center = block_averaged_quantile(values, 4, 0.5)
        for s in range(9):
            support.add(2.0 * (np.sort(values[s : s + 4])[k - 1] - center))
        rng = substream(10)
        for _ in range(200):
            assert quantile_statistic(values, plan, 0.5, rng) in support


class TestEmpiricalDistribution:
    def test_cdf_boundaries(self):
        dist = EmpiricalDistribution(values=np.array([-1.0, 0.0, 2.0]), counts=np.array([1, 1, 1]), total=3)
        assert dist.cdf(-1.5) == 0.0
        assert dist.cdf(2.0) == 1.0
        assert dist.cdf(5.0) == 1.0
        assert dist.cdf(0.0) == pytest.approx(2 / 3)
        assert dist.quantile(0.5) == 0.0

    def test_single_atom_nonstrict(self):
        dist = EmpiricalDistribution(values=np.array([0.0]), counts=np.array([4]), total=4)
        assert dist.cdf(0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(values=np.array([1.0, 0.0]), counts=np.array([1, 1]), total=2)
        with pytest.raises(ValueError):
            EmpiricalDistribution(values=np.array([0.0, 1.0]), counts=np.array([1, 2]), total=2)
        with pytest.raises(ValueError):
            EmpiricalDistribution(values=np.array([]), counts=np.array([]), total=0)


def convolution_tail(pmf, b, k):
    """Tail from ``k`` of the ``b``-fold convolution of ``pmf``, by binary powering with ``np.convolve``."""
    law, power = np.ones(1), np.asarray(pmf, dtype=float)
    while b:
        law = np.convolve(law, power) if b & 1 else law
        b >>= 1
        power = np.convolve(power, power) if b else power
    return law[k:].sum()


# A pmf over counts 0..ell from 2 to 12 integer weights, one of them positive, with its number of blocks and tail index.
ROWS = st.tuples(st.lists(st.integers(0, 9), min_size=2, max_size=12).filter(any), st.integers(1, 20), st.integers(0, 250))


class TestCountSumTail:
    def test_exact_tail_matches_enumeration(self):
        counts = window_counts(np.array([1, 0, 0, 1, 1, 1, 0]), 3)  # [1, 1, 2, 3, 2]
        plan = BlockPlan(2, 3)
        pmfs = count_pmfs(counts[None], plan.block_length + 1)
        assert list(pmfs[0]) == [0.0, 0.4, 0.4, 0.2]
        for k in range(plan.total_length + 2):
            expected = sum(counts[i] + counts[j] >= k for i, j in itertools.product(range(counts.size), repeat=2))  # every start pair once
            assert count_sum_tails(pmfs, [plan], [k])[0] == pytest.approx(expected / 25, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(ROWS, min_size=1, max_size=6))
    def test_matches_binary_powering_and_does_not_depend_on_the_batch(self, rows):
        pmfs = np.zeros((len(rows), 12))
        for i, (weights, _, _) in enumerate(rows):
            pmfs[i, : len(weights)] = np.array(weights) / sum(weights)
        plans = [BlockPlan(b, len(weights) - 1) for weights, b, _ in rows]
        k = [min(k, b * len(weights)) for weights, b, k in rows]
        tails = count_sum_tails(pmfs, plans, k)
        for i, plan in enumerate(plans):
            assert abs(tails[i] - convolution_tail(pmfs[i, : plan.block_length + 1], plan.n_blocks, k[i])) <= 1e-14
            assert tails[i] == count_sum_tails(pmfs[i : i + 1, : plan.block_length + 1], [plan], k[i : i + 1])[0]

    @pytest.mark.parametrize("b", [2, 7, 40])
    def test_exact_outside_the_support(self, b):
        # Thirds on counts 1..3 (low 1, top 3), and a point mass on 2: the FFT's rounding must not reach the ends.
        pmfs, plans = np.array([[0.0, 1 / 3, 1 / 3, 1 / 3, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0]]), [BlockPlan(b, 4)] * 2
        for k, expected in [(0, 1.0), (b - 1, 1.0), (b, 1.0), (3 * b + 1, 0.0), (4 * b + 1, 0.0)]:
            assert count_sum_tails(pmfs[:1], plans[:1], [k])[0] == expected
        assert list(count_sum_tails(pmfs[[0, 0]], plans, [b + 1, 3 * b])) == pytest.approx([1 - 3.0**-b, 3.0**-b], abs=1e-14)
        assert list(count_sum_tails(pmfs[[1, 1]], plans, [2 * b, 2 * b + 1])) == [1.0, 0.0]

    @pytest.mark.parametrize("b", [1, 2, 7, 40])
    def test_every_tail_lies_in_the_unit_interval(self, b):
        # Every k from 0 past b*top.  Before the clip, thirds on counts 1..3 at b = 40 read 1 + 3.6e-15 at k = b + 1,
        # and the shares 9/28, 18/28 and 1/28 at b = 1 summed to 1 + 2.2e-16 from k = 0.
        pmfs = np.array([[0.0, 1 / 3, 1 / 3, 1 / 3, 0.0], [0.1, 0.0, 0.2, 0.3, 0.4], [0.0, 0.9, 0.0, 0.0, 0.1], [9 / 28, 18 / 28, 1 / 28, 0.0, 0.0]])
        k = np.arange(4 * b + 2)
        for row in pmfs:
            tails = count_sum_tails(np.repeat(row[None], k.size, axis=0), [BlockPlan(b, 4)] * k.size, k)
            assert ((0.0 <= tails) & (tails <= 1.0)).all()

    def test_single_block_is_the_pmf_sum(self):
        counts = window_counts(substream(13).standard_normal(30) <= 0.2, 7)
        pmf = np.bincount(counts, minlength=8) / counts.size
        for k in range(9):
            assert count_sum_tails(count_pmfs(counts[None], 12), [BlockPlan(1, 7)], [k])[0] == pmf[k:].sum()
        assert count_sum_tails(np.empty((0, 1)), [], []).shape == (0,)


class TestExactDistribution:
    def test_single_block_atom_count(self):
        dist = exact_quantile_distribution([1.0, 2.0, 3.0, 4.0], BlockPlan(1, 2), 0.5)
        assert dist.total == 3
        assert np.array_equal(dist.counts, [1, 1, 1])
        assert np.allclose(dist.values, [-math.sqrt(2), 0.0, math.sqrt(2)])

    def test_probabilities_sum_exactly_to_one(self):
        dist = exact_quantile_distribution(substream(11).standard_normal(6), BlockPlan(2, 2), 0.5)
        assert sum(Fraction(int(c), dist.total) for c in dist.counts) == 1

    def test_matches_independent_enumerator(self):
        values = np.round(substream(12).standard_normal(5), 2)
        dist = exact_quantile_distribution(values, BlockPlan(2, 2), 0.5)
        oracle = nested_loop_enumerator(values.tolist(), 2, 2, 0.5)
        got = {float(v): int(c) for v, c in zip(dist.values, dist.counts)}
        assert got == dict(oracle)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            exact_quantile_distribution(np.arange(100.0), BlockPlan(4, 2), 0.5)


class TestMonteCarloDistribution:
    def test_single_replicate(self):
        dist = bootstrap_quantile_distribution(substream(13).standard_normal(10), BlockPlan(2, 3), 0.5, 1, substream(99))
        assert dist.total == 1
        assert dist.counts.sum() == 1

    def test_draw_arguments_are_checked(self):
        # The grid estimators raise the same errors: every random function takes its draws from a passed generator.
        values = substream(12).standard_normal(10)
        for n_boot in (0, -3):
            with pytest.raises(ValueError, match="n_boot"):
                bootstrap_quantile_distribution(values, BlockPlan(2, 3), 0.5, n_boot, substream(1))
        with pytest.raises(ValueError, match="rng"):
            bootstrap_quantile_distribution(values, BlockPlan(2, 3), 0.5, 10, None)

    def test_equals_sequential_statistics(self):
        values = substream(14).standard_normal(25)
        plan = BlockPlan(3, 4)
        dist = bootstrap_quantile_distribution(values, plan, 0.25, 64, substream(4321))
        rng = substream(4321)
        stats = [quantile_statistic(values, plan, 0.25, rng) for _ in range(64)]
        vals, counts = np.unique(np.asarray(stats), return_counts=True)
        assert np.array_equal(dist.values, vals)
        assert np.array_equal(dist.counts, counts)

    def test_determinism(self):
        values = substream(15).standard_normal(30)
        plan = BlockPlan(4, 5)
        a = bootstrap_quantile_distribution(values, plan, 0.5, 500, substream(7))
        b = bootstrap_quantile_distribution(values, plan, 0.5, 500, substream(7))
        assert np.array_equal(a.values, b.values) and np.array_equal(a.counts, b.counts)

    def test_matches_exact_within_binomial_tolerance(self):
        values = substream(16).standard_normal(8)
        plan = BlockPlan(2, 3)
        exact = exact_quantile_distribution(values, plan, 0.5)
        mc = bootstrap_quantile_distribution(values, plan, 0.5, 200_000, substream(5))
        for atom, q in zip(exact.values, np.cumsum(exact.counts) / exact.total):
            tol = 3 * math.sqrt(q * (1 - q) / 200_000)
            assert abs(mc.cdf(atom) - q) <= tol + 1e-12

    def test_subsampling_matches_exact_uniform_law(self):
        values = substream(17).standard_normal(9)
        plan = BlockPlan(1, 3)
        exact = exact_quantile_distribution(values, plan, 0.5)
        assert exact.total == 7
        mc = bootstrap_quantile_distribution(values, plan, 0.5, 2000, substream(6))
        assert set(mc.values).issubset(set(exact.values))

    def test_scaling_equivariance_power_of_two(self):
        values = substream(18).standard_normal(20)
        plan = BlockPlan(3, 4)
        base = bootstrap_quantile_distribution(values, plan, 0.5, 300, substream(8))
        scaled = bootstrap_quantile_distribution(4.0 * values, plan, 0.5, 300, substream(8))
        assert np.array_equal(scaled.values, 4.0 * base.values)
        assert np.array_equal(scaled.counts, base.counts)

    def test_scaling_equivariance_generic(self):
        values = substream(19).standard_normal(20)
        plan = BlockPlan(2, 5)
        base = bootstrap_quantile_distribution(values, plan, 0.5, 300, substream(9))
        scaled = bootstrap_quantile_distribution(1.7 * values, plan, 0.5, 300, substream(9))
        assert scaled.values == pytest.approx(1.7 * base.values, rel=1e-12)


class TestCdfStatistic:
    def test_constant_series(self):
        rng = substream(20)
        for _ in range(10):
            assert cdf_statistic(np.full(8, 1.0), BlockPlan(2, 2), 1.0, rng) == 0.0

    def test_subsampling_support(self):
        values = substream(21).standard_normal(12)
        plan = BlockPlan(1, 4)
        x = 0.3
        from blockboot.empirical import block_averaged_cdf

        center = block_averaged_cdf(values, 4, x)
        support = {math.sqrt(4) * ((values[s : s + 4] <= x).mean() - center) for s in range(9)}
        rng = substream(22)
        for _ in range(100):
            stat = cdf_statistic(values, plan, x, rng)
            assert any(abs(stat - s) < 1e-12 for s in support)

    def test_enumeration_consistency(self):
        values = substream(23).standard_normal(10)
        plan = BlockPlan(1, 3)
        x, n_boot = 0.1, 100_000
        from blockboot.empirical import block_averaged_cdf

        center = block_averaged_cdf(values, 3, x)
        atoms = np.sort([math.sqrt(3) * ((values[s : s + 3] <= x).mean() - center) for s in range(8)])
        rng = substream(24)
        stats = np.array([cdf_statistic(values, plan, x, rng) for _ in range(n_boot)])
        for y in atoms:
            exact = (atoms <= y + 1e-12).mean()
            got = (stats <= y + 1e-12).mean()
            assert abs(got - exact) <= 3 * math.sqrt(exact * (1 - exact) / n_boot) + 1e-12
