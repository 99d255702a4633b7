"""Bootstrap distribution estimates and percentile confidence bounds.

A resampled quantile falls below a threshold exactly when the pasted series
holds at least ``ceil(b*ell*p)`` observations below it, so the point estimates
and the percentile bound read the law of a sum of block counts from
:func:`~blockboot.resample.count_sum_law`: Monte Carlo on the start matrix
seeded by ``rp.seed``, agreeing bit for bit with the pasting definitions in
:mod:`~blockboot.resample`, or exact when ``rp.n_boot`` is ``None``.  The
bound finds ``G^{-1}(alpha)`` by bisection over that law; nothing is pasted.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .empirical import _INDEX_GUARD, as_values, block_averaged_cdf, block_averaged_quantile, order_stat_index, sample_quantile
from .resample import BlockPlan, ResamplePlan, _check_plan, count_sum_law
from .seeding import substream

__all__ = [
    "CiResult",
    "lower_confidence_bound",
    "quantile_deviation_prob",
    "cdf_deviation_prob",
]


@dataclass(frozen=True)
class CiResult:
    """A one-sided lower confidence bound and the settings that produced it."""

    lower: float
    alpha: float
    plan: BlockPlan
    n_boot: int | None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


def _starts(n: int, rp: ResamplePlan):
    """Start matrix of ``rp``, ``(b, n_boot)`` C-contiguous so the kernel sums gathers over rows; ``None`` when exact.

    Drawn as ``(n_boot, b)``: column ``j`` holds the draws of the ``j``-th of ``n_boot`` ``draw_block_starts`` calls.
    """
    if rp.n_boot is not None:
        return np.ascontiguousarray(substream(rp.seed).integers(0, n - rp.plan.block_length + 1, size=(rp.n_boot, rp.plan.n_blocks)).T)


def _bootstrap_quantile_by_bisection(values, plan: BlockPlan, p: float, alpha: float, starts) -> float:
    """``G^{-1}(alpha)`` of the law :func:`~blockboot.resample.count_sum_law` gives on ``starts`` (exact when ``None``).

    ``G^{-1}(alpha) = sqrt(b*ell) * (v - center)`` at the smallest observation
    ``v`` with ``P*(quantile <= v) >= alpha``, found by bisection; the largest
    observation always qualifies and is not searched.
    """
    b, ell = _check_plan(values.size, plan)
    center = block_averaged_quantile(values, ell, p)
    k = order_stat_index(b * ell, p)
    ordered = np.sort(values)

    def reaches_alpha(i):
        # Equals `hits >= order_stat_index(total, alpha)` on tallies; the guard absorbs exact-law rounding.
        weights, total = count_sum_law(values <= ordered[i], plan, starts)
        return weights[k:].sum() >= total * alpha * (1.0 - _INDEX_GUARD)

    v = ordered[bisect.bisect_left(range(values.size - 1), True, key=reaches_alpha)]
    return np.sqrt(b * ell) * (v - center)


def lower_confidence_bound(series, rp: ResamplePlan, p: float, alpha: float) -> CiResult:
    """Lower percentile confidence bound for the p-quantile.

    The interval is ``[q_hat - G^{-1}(alpha) / sqrt(n), infinity)`` where
    ``q_hat`` is the sample quantile and ``G`` the bootstrap distribution of
    the scaled quantile statistic, searched by bisection: the Monte Carlo law (bit for bit
    ``bootstrap_quantile_distribution(series, rp, p).quantile(alpha)``) or, when
    ``rp.n_boot`` is ``None``, the exact law.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    values = as_values(series)
    g_inv = _bootstrap_quantile_by_bisection(values, rp.plan, p, alpha, _starts(values.size, rp))
    lower = sample_quantile(values, p) - g_inv / np.sqrt(values.size)
    return CiResult(lower=float(lower), alpha=alpha, plan=rp.plan, n_boot=rp.n_boot)


def quantile_deviation_prob(series, rp: ResamplePlan, p: float, x: float) -> float:
    """Bootstrap probability that the scaled quantile deviation is ``<= x``.

    Agrees with ``bootstrap_quantile_distribution(series, rp, p).cdf(x)`` for
    the same seed, but runs in O(n + n_boot * n_blocks) per call.
    """
    values = as_values(series)
    b, ell = _check_plan(values.size, rp.plan)
    center = block_averaged_quantile(values, ell, p)
    k = order_stat_index(b * ell, p)
    threshold = center + x / np.sqrt(b * ell)
    weights, total = count_sum_law(values <= threshold, rp.plan, _starts(values.size, rp))
    return float(weights[k:].sum() / total)


def cdf_deviation_prob(series, rp: ResamplePlan, x: float, y: float) -> float:
    """Bootstrap probability that the scaled resampled-CDF deviation at ``x`` is ``<= y``.

    Estimates the conditional probability of
    ``sqrt(b*ell) * (F*(x) - Ftilde(x)) <= y``; with an integer ``rp.n_boot``
    it agrees with sequential :func:`~blockboot.resample.cdf_statistic`
    calls on a generator seeded by ``rp.seed``.
    """
    values = as_values(series)
    b, ell = _check_plan(values.size, rp.plan)
    center = block_averaged_cdf(values, ell, x)
    bound = center * (b * ell) + y * np.sqrt(b * ell)
    weights, total = count_sum_law(values <= x, rp.plan, _starts(values.size, rp))
    return float(weights[np.arange(weights.size) <= bound].sum() / total)
