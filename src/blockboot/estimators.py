"""Bootstrap distribution estimates and percentile confidence bounds over a grid of plans.

Every estimate reads one answer, :func:`~blockboot.resample.count_sum_tail`:
the exact probability ``G`` that ``b`` block counts sum to ``k`` or more.  The
quantile lies at or below a threshold when at least ``ceil(b*ell*p)`` values
do; at most ``c`` of ``m`` values lie at or below ``x`` when at least
``m - floor(c)`` lie above it.  Given the series, ``B`` Monte Carlo replicates
count ``Binomial(B, G)`` hits, so a point estimate draws that count, in plan
order, from the generator its caller passes.  The bound bisects the sorted
observations for the first whose exact ``G`` reaches a level
(``bisect.bisect_left``) and pastes nothing: the level is ``alpha`` for the exact
law; for ``B`` replicates it is the ``k``-th of ``B`` uniform order
statistics, one ``Beta(k, B - k + 1)`` draw per plan, so the bound is the
pasting definition's ``k``-th order statistic in law.  Whether a bound covers
a value needs no search: the observations whose bound misses it are the
smallest ones, so one tail per plan, at the last of them, decides.

A grid call returns one value per plan, in order, with the center and window
counts computed once per block length, and draws only from the ``rng`` passed.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

from .empirical import _INDEX_GUARD, as_values, block_averaged_cdf, block_averaged_quantile, order_stat_index
from .resample import _check_draws, _check_plan, count_sum_tail, window_counts

__all__ = [
    "lower_bounds_cover",
    "lower_confidence_bounds",
    "quantile_deviation_probs",
    "cdf_deviation_probs",
]


def _by_block_length(n: int, plans) -> dict:
    """``{ell: [(index, plan), ...]}`` over ``plans`` in order, every plan checked against ``n``."""
    groups: dict = {}
    for i, plan in enumerate(plans):
        groups.setdefault(_check_plan(n, plan)[1], []).append((i, plan))
    return groups


def _check_points(**points) -> None:
    """Raise ``ValueError`` naming the first evaluation point that is NaN; infinities pass."""
    for name, value in points.items():
        if np.isnan(value):
            raise ValueError(f"{name} must not be NaN")


def _monte_carlo(weights, n_boot, rng) -> np.ndarray:
    """``weights`` when exact (``n_boot=None``); else ``Binomial(n_boot, G) / n_boot`` per weight, in order, from ``rng``."""
    if n_boot is None:
        return weights
    _check_draws(n_boot, rng)
    # Clip only the binomial's argument: a tail sum may exceed 1 in the last bit, and exact values must not move.
    return rng.binomial(n_boot, np.clip(weights, 0.0, 1.0)) / n_boot


def _levels(count: int, alpha: float, n_boot, rng) -> np.ndarray:
    """The bound's level for each of ``count`` plans: ``alpha`` less the rounding guard, or beta draws in plan order."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n_boot is None:
        # The guard absorbs the rounding of the exact tail weights.
        return np.full(count, alpha * (1.0 - _INDEX_GUARD))
    _check_draws(n_boot, rng)
    if n_boot > 2**53:  # past it betaincinv returns NaN levels, which no observation reaches
        raise ValueError("n_boot must be at most 2**53, the largest count a float64 holds exactly")
    from scipy.special import betaincinv  # imported here, as in models: scipy.special is slow to import

    k = order_stat_index(n_boot, alpha)
    return betaincinv(k, n_boot - k + 1, rng.random(count))


def _bound(q_hat, m, v, center, n):
    """The bound at observation ``v`` for ``m = b*ell``: one float expression for the bound and for its coverage."""
    return q_hat - np.sqrt(m) * (v - center) / np.sqrt(n)


def quantile_deviation_probs(series, plans, p: float, x: float, n_boot: int | None = None, rng=None) -> np.ndarray:
    """Bootstrap probabilities that the scaled quantile deviation is ``<= x``, one per plan of ``plans``.

    Exact with ``n_boot=None``; else ``Binomial(n_boot, G) / n_boot`` around each plan's exact ``G``, drawn in plan order
    from ``rng``: in law ``bootstrap_quantile_distribution(...).cdf(x)``.  A NaN ``x`` raises ``ValueError``.
    """
    _check_points(x=x)
    values = as_values(series)
    out = np.empty(len(plans))
    for ell, cells in _by_block_length(values.size, plans).items():
        center = block_averaged_quantile(values, ell, p)
        scales = np.sqrt([plan.n_blocks * ell for _, plan in cells])
        rows = window_counts(values <= (center + x / scales)[:, None], ell)
        for (i, plan), row in zip(cells, rows):
            out[i] = count_sum_tail(row, plan, order_stat_index(plan.total_length, p))
    return _monte_carlo(out, n_boot, rng)


def cdf_deviation_probs(series, plans, x: float, y: float, n_boot: int | None = None, rng=None) -> np.ndarray:
    """Bootstrap probabilities that the scaled resampled-CDF deviation at ``x`` is ``<= y``, one per plan of ``plans``.

    That is ``sqrt(b*ell) * (F*(x) - Ftilde(x)) <= y``, exact or drawn as in :func:`quantile_deviation_probs`: the law
    of the share of ``n_boot`` sequential :func:`~blockboot.resample.cdf_statistic` calls at or below ``y``.
    It counts the complement, at least ``m - floor(center*m + y*sqrt(m))`` of the ``m = b*ell`` values above ``x``;
    a NaN ``x`` or ``y`` raises ``ValueError``.
    """
    _check_points(x=x, y=y)
    values = as_values(series)
    out = np.empty(len(plans))
    for ell, cells in _by_block_length(values.size, plans).items():
        center = block_averaged_cdf(values, ell, x)
        row = window_counts(values > x, ell)
        for i, plan in cells:
            m = plan.total_length
            out[i] = count_sum_tail(row, plan, int(np.clip(m - np.floor(center * m + y * np.sqrt(m)), 0, m + 1)))
    return _monte_carlo(out, n_boot, rng)


def lower_confidence_bounds(series, plans, p: float, alpha: float, n_boot: int | None = None, rng=None) -> np.ndarray:
    """Lower percentile confidence bounds for the p-quantile, one per plan of ``plans``.

    Each is ``q_hat - G^{-1}(level) / sqrt(n)``, ``q_hat`` the sample quantile and ``G`` the exact bootstrap law of the
    scaled quantile statistic: ``G^{-1}(level) = sqrt(b*ell) * (v - center)`` at the smallest observation ``v`` with
    ``P*(quantile <= v) >= level``; the largest observation always qualifies and is not searched.  Exact with
    ``n_boot=None`` (``level = alpha``, less the rounding guard); else ``level`` is ``U_(k) ~ Beta(k, n_boot - k + 1)``,
    ``k = order_stat_index(n_boot, alpha)``, drawn per plan in plan order from ``rng`` by inverting one uniform, so a
    bound is the ``k``-th of ``n_boot`` draws from ``G``: in law ``bootstrap_quantile_distribution(...).quantile(alpha)``,
    and monotone in ``alpha`` for a fixed generator.  An ``n_boot`` over ``2**53`` raises ``ValueError``.

    The searches of a block length share their probes, and keep each probed window-count row until that block length
    is done: up to ``min(n - 1, cells * ceil(log2(n)))`` rows of ``n`` int64, ``cells`` the plans at that length.
    :func:`lower_bounds_cover` answers coverage from one row per plan.
    """
    levels = _levels(len(plans), alpha, n_boot, rng)
    values = as_values(series)
    ordered = np.sort(values)
    q_hat = ordered[order_stat_index(values.size, p) - 1]
    out = np.empty(len(plans))
    for ell, cells in _by_block_length(values.size, plans).items():
        center = block_averaged_quantile(values, ell, p)
        counts_at = functools.cache(lambda j: window_counts(values <= ordered[j], ell))  # probes shared by the cells
        for i, plan in cells:
            k = order_stat_index(plan.total_length, p)
            # Midpoint probes tolerate tails not monotone in j to the last bit; a float key beats a numpy-bool one.
            g = bisect.bisect_left(range(values.size - 1), levels[i], key=lambda j: count_sum_tail(counts_at(j), plan, k))
            out[i] = _bound(q_hat, plan.total_length, ordered[g], center, values.size)
    return out


def lower_bounds_cover(series, plans, p: float, alpha: float, q: float, n_boot: int | None = None, rng=None) -> np.ndarray:
    """Whether ``q >= lower_confidence_bounds(series, plans, p, alpha, n_boot, rng)``, per plan, from the same draws.

    No search: the bound falls as the observation rises, rounding included, so the observations whose bound misses
    ``q`` are those at or below the last of them, and the search ends past it exactly when the tail ``G`` there is
    below the plan's level.  One window count per block length and one tail per plan; a NaN ``q`` raises ``ValueError``.
    """
    _check_points(q=q)
    levels = _levels(len(plans), alpha, n_boot, rng)
    values = as_values(series)
    q_hat = np.sort(values)[order_stat_index(values.size, p) - 1]
    out = np.empty(len(plans), dtype=bool)
    for ell, cells in _by_block_length(values.size, plans).items():
        center = block_averaged_quantile(values, ell, p)
        m = np.array([[plan.total_length] for _, plan in cells])
        rows = window_counts(q < _bound(q_hat, m, values, center, values.size), ell)  # the observations each bound misses
        for (i, plan), row in zip(cells, rows):
            # With no observation missing, the bound covers at any level, a zero one included.
            out[i] = not row.any() or count_sum_tail(row, plan, order_stat_index(plan.total_length, p)) < levels[i]
    return out
