"""Empirical distribution functions, sample quantiles, and block-averaged variants.

The block-averaged distribution function assigns each observation a weight
proportional to the number of length-``ell`` blocks containing it, which
equals the average of the within-block empirical CDFs over all overlapping
blocks.  Weights are handled as exact integer counts over a common
denominator, so CDF and quantile queries involve no accumulated rounding:
with ``ell = 1`` the block-averaged quantities reduce *exactly* to their
plain empirical counterparts.

:func:`block_averaged_quantiles` centers a stack of series at several block
lengths from one sort per series; :func:`block_averaged_quantile` is its
one-series, one-length case.

Quantiles follow the left-continuous inverse ``inf{u : F(u) >= p}``
throughout, i.e. the ``ceil(n*p)``-th order statistic; no interpolation is
applied anywhere in this package.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "order_stat_index",
    "empirical_cdf",
    "sample_quantile",
    "block_weights",
    "block_weight_counts",
    "block_averaged_cdf",
    "block_averaged_quantile",
    "block_averaged_quantiles",
]

# Relative nudge guarding ceil/floor of float products (e.g. 10 * 0.1 or an
# inexact cube root) against half-ulp errors.
_INDEX_GUARD = 1e-13


def as_values(series) -> np.ndarray:
    """Coerce a series-like (array or sequence) to a 1-d float array."""
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ValueError("expected a one-dimensional series")
    if values.size == 0:
        raise ValueError("series must hold at least one observation")
    return values


def order_stat_index(m: int, p: float) -> int:
    """1-based order-statistic index ``ceil(m*p)`` of the p-quantile of m values."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if m < 1:
        raise ValueError("m must be positive")
    k = math.ceil(m * p * (1.0 - _INDEX_GUARD))
    return min(max(k, 1), m)


def guarded_floor(value: float) -> int:
    """``floor(value)`` robust to value sitting a half-ulp below an integer."""
    return math.floor(value * (1.0 + _INDEX_GUARD))


def empirical_cdf(series, x):
    """Empirical distribution function of ``series`` evaluated at ``x``.

    Accepts scalar or array ``x``; returns the proportion of observations
    ``<= x`` (right-continuous, nondecreasing in ``x``).
    """
    values = np.sort(as_values(series))
    idx = np.searchsorted(values, x, side="right")
    out = idx / values.size
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def sample_quantile(series, p: float) -> float:
    """The ``ceil(n*p)``-th order statistic, i.e. ``inf{u : F_n(u) >= p}``."""
    values = as_values(series)
    k = order_stat_index(values.size, p)
    return float(np.partition(values, k - 1)[k - 1])


def block_weight_counts(n: int, block_length: int) -> tuple[np.ndarray, int]:
    """Integer block-membership counts and their common denominator.

    Position ``t`` (1-based) lies in ``min(t, ell, n-ell+1, n-t+1)`` of the
    ``n - ell + 1`` overlapping blocks of length ``ell``; the denominator is
    ``ell * (n - ell + 1)``.
    """
    ell = int(block_length)
    if ell < 1 or ell > n:
        raise ValueError(f"block length must satisfy 1 <= ell <= n, got ell={ell}, n={n}")
    t = np.arange(1, n + 1, dtype=np.int64)
    return np.minimum(np.minimum(t, t[::-1]), min(ell, n - ell + 1)), ell * (n - ell + 1)


def block_weights(n: int, block_length: int) -> np.ndarray:
    """Per-observation weights of the block-averaged empirical CDF (sum to 1)."""
    counts, denom = block_weight_counts(n, block_length)
    return counts / denom


def block_averaged_cdf(series, block_length: int, x):
    """Average of the within-block empirical CDFs over all overlapping blocks.

    Equals ``sum_t w_t 1{X_t <= x}`` with the :func:`block_weights` vector;
    with ``block_length = 1`` this is the plain empirical CDF.
    """
    values = as_values(series)
    counts, denom = block_weight_counts(values.size, block_length)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(counts[order])
    idx = np.searchsorted(values[order], x, side="right")
    out = np.where(idx > 0, cum[np.maximum(idx, 1) - 1], 0) / denom
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def block_averaged_quantile(series, block_length: int, p: float) -> float:
    """Smallest observed value where the block-averaged CDF reaches ``p``.

    Computed by accumulating integer block-membership counts over the sorted
    observations, so ties merge exactly and ``block_length = 1`` recovers
    :func:`sample_quantile` without rounding error: the one-series,
    one-length case of :func:`block_averaged_quantiles`.
    """
    return float(block_averaged_quantiles(as_values(series)[None], [block_length], p)[0, 0])


def block_averaged_quantiles(stack, block_lengths, p: float) -> np.ndarray:
    """:func:`block_averaged_quantile` of each row of the 2-d ``stack`` at each of ``block_lengths``: ``(rows, lengths)``.

    Each row is sorted once for every length; a length accumulates its integer counts over the sorted rows.
    """
    values = np.asarray(stack, dtype=float)
    if values.ndim != 2 or values.shape[1] == 0:
        raise ValueError("expected a two-dimensional stack of nonempty series")
    order = np.argsort(values, axis=1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=1)
    rows = np.arange(values.shape[0])
    out = np.empty((rows.size, len(block_lengths)))
    for j, ell in enumerate(block_lengths):
        counts, denom = block_weight_counts(values.shape[1], ell)
        # The counts are positive, so the first cumulative count reaching k follows those below it.
        out[:, j] = ordered[rows, (np.cumsum(counts[order], axis=1) < order_stat_index(denom, p)).sum(axis=1)]
    return out
