from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockboot.empirical import (
    block_averaged_cdf,
    block_averaged_quantile,
    block_averaged_quantiles,
    block_weight_counts,
    block_weights,
    empirical_cdf,
    order_stat_index,
    sample_quantile,
)
from blockboot.seeding import substream


def naive_cdf(values, x):
    return sum(1 for v in values if v <= x) / len(values)


def naive_block_cdf(values, ell, x):
    """Direct double loop over all overlapping blocks, in exact rationals."""
    n = len(values)
    total = Fraction(0)
    for i in range(n - ell + 1):
        hits = sum(1 for t in range(i, i + ell) if values[t] <= x)
        total += Fraction(hits, ell)
    return total / (n - ell + 1)


def naive_block_quantile(values, ell, p_exact):
    """Brute-force scan of sorted unique values using the direct block average."""
    for u in sorted(set(values)):
        if naive_block_cdf(values, ell, u) >= p_exact:
            return u
    raise AssertionError("scan must terminate at the maximum")


def naive_inf_quantile(values, p_exact):
    n = len(values)
    for u in sorted(values):
        if Fraction(sum(1 for v in values if v <= u), n) >= p_exact:
            return u
    raise AssertionError("scan must terminate at the maximum")


class TestEmpiricalCdf:
    def test_direct_count(self):
        assert empirical_cdf([1, 2, 3, 4], 2.5) == 0.5

    def test_boundaries(self):
        values = [3.0, 1.0, 2.0]
        assert empirical_cdf(values, 0.9) == 0.0
        assert empirical_cdf(values, 3.0) == 1.0
        assert empirical_cdf(values, 99.0) == 1.0

    def test_matches_naive_counting_oracle(self):
        rng = substream(101)
        values = rng.standard_normal(50)
        xs = np.concatenate([rng.standard_normal(150), values[:50]])
        expected = [naive_cdf(values, x) for x in xs]
        assert np.array_equal(empirical_cdf(values, xs), expected)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([], 0.0)


class TestSampleQuantile:
    def test_inf_definition_examples(self):
        assert sample_quantile([1, 2, 3, 4], 0.5) == 2.0
        for p in (0.05, 0.3, 0.77, 0.95):
            assert sample_quantile([5, 5, 5], p) == 5.0

    def test_matches_inf_scan_oracle(self):
        rng = substream(102)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            values = np.round(rng.standard_normal(n), 2)  # ties likely
            tenths = int(rng.integers(1, 10))
            assert sample_quantile(values, tenths / 10) == naive_inf_quantile(values.tolist(), Fraction(tenths, 10))

    def test_order_stat_index_float_guard(self):
        assert order_stat_index(10, 0.1) == 1
        assert order_stat_index(10, 0.7) == 7
        assert order_stat_index(1000, 0.1) == 100
        assert order_stat_index(200000, 0.9) == 180000
        with pytest.raises(ValueError):
            order_stat_index(10, 0.0)
        with pytest.raises(ValueError):
            order_stat_index(10, 1.0)


class TestBlockWeights:
    def test_unit_blocks_are_uniform(self):
        assert np.array_equal(block_weights(7, 1), np.full(7, 1 / 7))

    def test_hand_enumeration_n3_l2(self):
        assert np.array_equal(block_weights(3, 2), [0.25, 0.5, 0.25])

    def test_matches_block_enumeration_oracle(self):
        rng = substream(103)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            ell = int(rng.integers(1, n + 1))
            counts, denom = block_weight_counts(n, ell)
            membership = np.zeros(n, dtype=int)
            for start in range(n - ell + 1):
                membership[start : start + ell] += 1
            assert np.array_equal(counts, membership)
            assert denom == ell * (n - ell + 1)
            weights = block_weights(n, ell)
            assert abs(weights.sum() - 1.0) <= 1e-12
            assert np.array_equal(weights, weights[::-1])

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            block_weights(5, 6)
        with pytest.raises(ValueError):
            block_weights(5, 0)


class TestBlockAveragedCdf:
    def test_reduces_to_empirical_cdf(self):
        rng = substream(104)
        values = rng.standard_normal(30)
        xs = np.concatenate([values, rng.standard_normal(30)])
        assert np.array_equal(block_averaged_cdf(values, 1, xs), empirical_cdf(values, xs))

    def test_hand_enumeration(self):
        # blocks (3,1), (1,2): each holds one value <= 1.5
        assert block_averaged_cdf([3, 1, 2], 2, 1.5) == 0.5

    def test_matches_double_loop_oracle(self):
        rng = substream(105)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            ell = int(rng.integers(1, n + 1))
            values = np.round(rng.standard_normal(n), 1)
            for x in rng.choice(values, size=4).tolist() + rng.standard_normal(4).tolist():
                got = block_averaged_cdf(values, ell, x)
                assert got == pytest.approx(float(naive_block_cdf(values.tolist(), ell, x)), abs=1e-12)

    def test_shape_properties(self):
        rng = substream(106)
        values = rng.standard_normal(40)
        xs = np.sort(rng.standard_normal(100))
        cdf = block_averaged_cdf(values, 5, xs)
        assert np.all(np.diff(cdf) >= 0)
        assert block_averaged_cdf(values, 5, values.min() - 1e-9) == 0.0
        assert block_averaged_cdf(values, 5, values.max()) == 1.0
        # right continuity: value at an observation equals the limit from above
        v = np.sort(values)[7]
        assert block_averaged_cdf(values, 5, v) == pytest.approx(block_averaged_cdf(values, 5, v + 1e-12), abs=1e-9)


class TestBlockAveragedQuantile:
    def test_reduces_to_sample_quantile_exactly(self):
        rng = substream(107)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            values = rng.standard_normal(n)
            tenths = int(rng.integers(1, 10))
            assert block_averaged_quantile(values, 1, tenths / 10) == sample_quantile(values, tenths / 10)

    def test_hand_enumeration(self):
        # positions (1,2,3) weigh (1/4, 2/4, 1/4); sorted values 1,2,3 carry
        # weights 2/4, 1/4, 1/4, so the cumulative weight reaches 0.5 at 1.
        assert block_averaged_quantile([3, 1, 2], 2, 0.5) == 1.0

    def test_matches_brute_force_scan(self):
        rng = substream(108)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            ell = int(rng.integers(1, n + 1))
            values = np.round(rng.standard_normal(n), 1)
            tenths = int(rng.integers(1, 10))
            got = block_averaged_quantile(values, ell, tenths / 10)
            assert got == naive_block_quantile(values.tolist(), ell, Fraction(tenths, 10))


def sorted_scan(values, ell, p):
    """The block-averaged quantile by a sort per block length: cumulative counts over the sorted values, searched for k."""
    counts, denom = block_weight_counts(values.size, ell)
    order = np.argsort(values, kind="stable")
    return values[order][np.searchsorted(np.cumsum(counts[order]), order_stat_index(denom, p), side="left")]


@st.composite
def center_stacks(draw):
    """A stack of rounded series (ties), block lengths 1 and n among others, and a level p, near 0 and 1 among others."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 30))
    stack = np.round(np.array(draw(st.lists(st.lists(st.floats(-2, 2), min_size=n, max_size=n), min_size=rows, max_size=rows))) * 2) / 2
    lengths = [1, n, *draw(st.lists(st.integers(1, n), max_size=4))]
    p = draw(st.one_of(st.sampled_from([1e-9, 1e-3, 0.3, 1 - 1e-3, 1 - 1e-9]), st.floats(0, 1, exclude_min=True, exclude_max=True)))
    return stack, lengths, p


class TestBlockAveragedQuantiles:
    @settings(max_examples=200, deadline=None)
    @given(case=center_stacks())
    def test_equals_per_row_per_length_calls(self, case):
        stack, lengths, p = case
        got = block_averaged_quantiles(stack, lengths, p)
        assert got.shape == (len(stack), len(lengths))
        assert got.tolist() == [[block_averaged_quantile(row, ell, p) for ell in lengths] for row in stack]
        assert got.tolist() == [[sorted_scan(row, ell, p) for ell in lengths] for row in stack]

    def test_shapes_and_checks(self):
        assert block_averaged_quantiles(np.ones((3, 5)), [], 0.5).shape == (3, 0)
        assert block_averaged_quantiles(np.ones((0, 5)), [2], 0.5).shape == (0, 1)
        for bad in (np.ones(5), np.ones((2, 0)), np.ones((1, 2, 3))):
            with pytest.raises(ValueError):
                block_averaged_quantiles(bad, [1], 0.5)
        with pytest.raises(ValueError):
            block_averaged_quantiles(np.ones((2, 5)), [6], 0.5)


class TestGaloisLaws:
    def test_empirical_pair(self):
        rng = substream(109)
        for _ in range(50):
            values = rng.standard_normal(int(rng.integers(1, 40)))
            p = float(rng.uniform(0.01, 0.99))
            q = sample_quantile(values, p)
            assert empirical_cdf(values, q) >= p
            for v in values[values < q]:
                assert empirical_cdf(values, v) < p

    def test_block_averaged_pair(self):
        rng = substream(110)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            ell = int(rng.integers(1, n + 1))
            values = rng.standard_normal(n)
            p = float(rng.uniform(0.01, 0.99))
            q = block_averaged_quantile(values, ell, p)
            assert block_averaged_cdf(values, ell, q) >= p
            for v in values[values < q]:
                assert block_averaged_cdf(values, ell, v) < p
