"""Bootstrap distribution estimates and percentile confidence bounds over a grid of plans.

A resampled quantile falls below a threshold exactly when the pasted series
holds at least ``ceil(b*ell*p)`` observations below it, so the point estimates
and the percentile bound read that tail (``_quantile_below``) of the law of a
sum of block counts from :func:`~blockboot.resample.count_sum_law`: Monte Carlo
on the start matrix seeded by ``rp.seed``, agreeing bit for bit with the
pasting definitions in :mod:`~blockboot.resample`, or exact when ``rp.n_boot``
is ``None``.  The bound finds ``G^{-1}(alpha)`` by bisection; nothing is pasted.

Each estimate takes a sequence of plans and returns one value per plan, in
order: the center and the window counts are computed once per block length,
each plan draws from its own seed, and the singular functions are one-plan calls.
"""

from __future__ import annotations

import bisect

import numpy as np

from .empirical import _INDEX_GUARD, as_values, block_averaged_cdf, block_averaged_quantile, order_stat_index, sample_quantile
from .resample import ResamplePlan, _check_plan, count_sum_law, window_counts
from .seeding import substream

__all__ = [
    "lower_confidence_bounds",
    "quantile_deviation_prob",
    "quantile_deviation_probs",
    "cdf_deviation_prob",
    "cdf_deviation_probs",
]


def _starts(n: int, rp: ResamplePlan):
    """Start matrix of ``rp``, ``(b, n_boot)`` C-contiguous so the kernel sums gathers over rows; ``None`` when exact.

    Drawn as ``(n_boot, b)``: column ``j`` holds the draws of the ``j``-th of ``n_boot`` ``draw_block_starts`` calls.
    """
    if rp.n_boot is not None:
        return np.ascontiguousarray(substream(rp.seed).integers(0, n - rp.plan.block_length + 1, size=(rp.n_boot, rp.plan.n_blocks)).T)


def _by_block_length(n: int, rps) -> dict:
    """``{ell: [(index, rp), ...]}`` over ``rps`` in order, every plan checked against ``n``."""
    groups: dict = {}
    for i, rp in enumerate(rps):
        groups.setdefault(_check_plan(n, rp.plan)[1], []).append((i, rp))
    return groups


def _quantile_below(counts, rp: ResamplePlan, starts, p: float):
    """Tail weight from ``ceil(b*ell*p)`` of the count-sum law of ``counts``, and its total; for counts of ``values <= t``, P*(quantile <= t) = weight / total."""
    weights, total = count_sum_law(counts, rp.plan, starts)
    return weights[order_stat_index(rp.plan.total_length, p) :].sum(), total


def quantile_deviation_probs(series, rps, p: float, x: float) -> np.ndarray:
    """Bootstrap probabilities that the scaled quantile deviation is ``<= x``, one per plan of ``rps``.

    Entry ``i`` agrees with ``bootstrap_quantile_distribution(series, rps[i], p).cdf(x)`` for the same seed.
    """
    values = as_values(series)
    out = np.empty(len(rps))
    for ell, cells in _by_block_length(values.size, rps).items():
        center = block_averaged_quantile(values, ell, p)
        scales = np.sqrt([rp.plan.n_blocks * ell for _, rp in cells])
        rows = window_counts(values <= (center + x / scales)[:, None], ell)
        for (i, rp), row in zip(cells, rows):
            hits, total = _quantile_below(row, rp, _starts(values.size, rp), p)
            out[i] = hits / total
    return out


def cdf_deviation_probs(series, rps, x: float, y: float) -> np.ndarray:
    """Bootstrap probabilities that the scaled resampled-CDF deviation at ``x`` is ``<= y``, one per plan of ``rps``.

    That is ``sqrt(b*ell) * (F*(x) - Ftilde(x)) <= y``; with an integer ``n_boot``, entry ``i`` agrees with
    sequential :func:`~blockboot.resample.cdf_statistic` calls on a generator seeded by ``rps[i].seed``.
    """
    values = as_values(series)
    below = values <= x
    out = np.empty(len(rps))
    for ell, cells in _by_block_length(values.size, rps).items():
        center = block_averaged_cdf(values, ell, x)
        row = window_counts(below, ell)
        for i, rp in cells:
            m = rp.plan.total_length
            weights, total = count_sum_law(row, rp.plan, _starts(values.size, rp))
            out[i] = weights[np.arange(weights.size) <= center * m + y * np.sqrt(m)].sum() / total
    return out


def lower_confidence_bounds(series, rps, p: float, alpha: float) -> np.ndarray:
    """Lower percentile confidence bounds for the p-quantile, one per plan of ``rps``.

    Each is ``q_hat - G^{-1}(alpha) / sqrt(n)``, ``q_hat`` the sample quantile and ``G`` the bootstrap law of the scaled
    quantile statistic: Monte Carlo (bit for bit ``bootstrap_quantile_distribution(series, rp, p).quantile(alpha)``) or exact.
    ``G^{-1}(alpha) = sqrt(b*ell) * (v - center)`` at the smallest observation ``v`` with
    ``P*(quantile <= v) >= alpha``, found by bisection; the largest observation always qualifies and is not searched.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    values = as_values(series)
    ordered = np.sort(values)
    q_hat = sample_quantile(values, p)
    out = np.empty(len(rps))
    for ell, cells in _by_block_length(values.size, rps).items():
        center = block_averaged_quantile(values, ell, p)
        for i, rp in cells:
            starts = _starts(values.size, rp)

            def reaches_alpha(j):
                # Equals `hits >= order_stat_index(total, alpha)` on tallies; the guard absorbs exact-law rounding.
                # Multiplied, not `hits / total >= alpha * (1 - guard)`, which rounds differently for some alpha.
                hits, total = _quantile_below(window_counts(values <= ordered[j], ell), rp, starts, p)
                return hits >= total * alpha * (1.0 - _INDEX_GUARD)

            v = ordered[bisect.bisect_left(range(values.size - 1), True, key=reaches_alpha)]
            out[i] = q_hat - np.sqrt(rp.plan.total_length) * (v - center) / np.sqrt(values.size)
    return out


def quantile_deviation_prob(series, rp: ResamplePlan, p: float, x: float) -> float:
    """Bootstrap probability that the scaled quantile deviation is ``<= x``: :func:`quantile_deviation_probs` for one plan."""
    return float(quantile_deviation_probs(series, (rp,), p, x)[0])


def cdf_deviation_prob(series, rp: ResamplePlan, x: float, y: float) -> float:
    """Bootstrap probability that the scaled resampled-CDF deviation at ``x`` is ``<= y``: :func:`cdf_deviation_probs` for one plan."""
    return float(cdf_deviation_probs(series, (rp,), x, y)[0])
