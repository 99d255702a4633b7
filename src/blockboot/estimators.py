"""Bootstrap distribution estimates and percentile confidence bounds over a grid of plans.

Every estimate reads one answer, :func:`~blockboot.resample.count_sum_tails`:
the exact probability ``G`` that ``b`` block counts sum to ``k`` or more.  The
quantile lies at or below a threshold when at least ``ceil(b*ell*p)`` values
do; at most ``c`` of ``m`` values lie at or below ``x`` when at least
``m - floor(c)`` lie above it.  Given the series, ``B`` Monte Carlo replicates
count ``Binomial(B, G)`` hits, so a point estimate draws that count, in plan
order, from the generator its caller passes.  The bound bisects the sorted
observations for the first whose exact ``G`` reaches a level (the searches of
a grid call in lockstep) and pastes nothing: the level is ``alpha`` for the exact
law; for ``B`` replicates it is the ``k``-th of ``B`` uniform order
statistics, one ``Beta(k, B - k + 1)`` draw per plan, so the bound is the
pasting definition's ``k``-th order statistic in law.  Whether a bound covers
a value needs no search: the observations whose bound misses it are the
smallest ones, so the tail at the last of them decides.

A grid call returns one value per plan, in order, with the center and window
counts computed once per block length, and draws only from the ``rng`` passed;
the point and coverage calls stack one window-count pmf per plan and read every
plan's ``G`` from one :func:`~blockboot.resample.count_sum_tails` call.
"""

from __future__ import annotations

import functools

import numpy as np

from .empirical import _INDEX_GUARD, as_values, block_averaged_cdf, block_averaged_quantile, order_stat_index
from .resample import _check_draws, _check_plan, count_pmfs, count_sum_tails, tails_stack_size, window_counts

__all__ = [
    "lower_bounds_cover",
    "lower_confidence_bounds",
    "quantile_deviation_probs",
    "cdf_deviation_probs",
    "window_deviation_probs",
]

# Values in the largest array of one window_deviation_probs kernel call (2 MB of float64).  On tune's 25 default cells,
# budgets of 2**16 to 2**22 ran within 13% of each other, at n = 200 and 1,000 with every subsample and at n = 10,000
# with 20 (2**14 was up to 27% slower); past 2**18 only the peak memory grew.
_STACK_BUDGET = 2**18


def _by_block_length(n: int, plans) -> dict:
    """``{ell: [(index, plan), ...]}`` over ``plans`` in order, every plan checked against ``n``."""
    groups: dict = {}
    for i, plan in enumerate(plans):
        groups.setdefault(_check_plan(n, plan)[1], []).append((i, plan))
    return groups


def _pmfs(plans, width=None) -> np.ndarray:
    """An unfilled stack of one pmf row per plan, ``width`` wide or as wide as the longest block's counts."""
    return np.empty((len(plans), width or max((plan.block_length for plan in plans), default=0) + 1))


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
    return rng.binomial(n_boot, weights) / n_boot


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


def _quantile_stack(values, plans, p: float, x: float, width=None) -> tuple:
    """The pmf stack and tail index ``k`` of every plan's quantile deviation at ``x``: with ``plans``, a :func:`count_sum_tails` call."""
    _check_points(x=x)
    pmfs = _pmfs(plans, width)
    for ell, cells in _by_block_length(values.size, plans).items():
        center = block_averaged_quantile(values, ell, p)
        scales = np.sqrt([plan.n_blocks * ell for _, plan in cells])
        pmfs[[i for i, _ in cells]] = count_pmfs(window_counts(values <= (center + x / scales)[:, None], ell), pmfs.shape[1])
    return pmfs, [order_stat_index(plan.total_length, p) for plan in plans]


def window_deviation_probs(series, windows, plans: dict, p: float, x: float, n_boot: int | None = None, rngs=None) -> list:
    """:func:`quantile_deviation_probs` on each window ``(start, length)`` of ``series`` with the plans ``plans[length]``.

    One array per window, in order; with ``n_boot``, window ``i`` draws from the ``i``-th generator of the iterable
    ``rngs``.  The windows' exact tails come from :func:`count_sum_tails` calls of as many windows as keep the largest
    array under ``_STACK_BUDGET`` values, or of one window; a window's values do not depend on the others.
    """
    values, rngs = as_values(series), None if rngs is None else iter(rngs)
    width = max((plan.block_length for group in plans.values() for plan in group), default=0) + 1
    batch = max(1, _STACK_BUDGET // max([1, *map(tails_stack_size, plans.values())]))
    out = []
    for first in range(0, len(windows), batch):
        stacks = [(_quantile_stack(values[start : start + length], plans[length], p, x, width), plans[length]) for start, length in windows[first : first + batch]]
        tails = count_sum_tails(np.concatenate([pmfs for (pmfs, _), _ in stacks]), [plan for _, group in stacks for plan in group], np.concatenate([k for (_, k), _ in stacks]))
        for g in np.split(tails, np.cumsum([len(group) for _, group in stacks])[:-1]):
            out.append(_monte_carlo(g, n_boot, None if rngs is None else next(rngs)))
    return out


def quantile_deviation_probs(series, plans, p: float, x: float, n_boot: int | None = None, rng=None) -> np.ndarray:
    """Bootstrap probabilities that the scaled quantile deviation is ``<= x``, one per plan of ``plans``.

    Exact with ``n_boot=None``; else ``Binomial(n_boot, G) / n_boot`` around each plan's exact ``G``, drawn in plan order
    from ``rng``: in law ``bootstrap_quantile_distribution(...).cdf(x)``.  A NaN ``x`` raises ``ValueError``.
    """
    pmfs, k = _quantile_stack(as_values(series), plans, p, x)
    return _monte_carlo(count_sum_tails(pmfs, plans, k), n_boot, rng)


def cdf_deviation_probs(series, plans, x: float, y: float, n_boot: int | None = None, rng=None) -> np.ndarray:
    """Bootstrap probabilities that the scaled resampled-CDF deviation at ``x`` is ``<= y``, one per plan of ``plans``.

    That is ``sqrt(b*ell) * (F*(x) - Ftilde(x)) <= y``, exact or drawn as in :func:`quantile_deviation_probs`: the law
    of the share of ``n_boot`` sequential :func:`~blockboot.resample.cdf_statistic` calls at or below ``y``.
    It counts the complement, at least ``m - floor(center*m + y*sqrt(m))`` of the ``m = b*ell`` values above ``x``;
    a NaN ``x`` or ``y`` raises ``ValueError``.
    """
    _check_points(x=x, y=y)
    values = as_values(series)
    pmfs, k = _pmfs(plans), np.empty(len(plans), dtype=np.int64)
    for ell, cells in _by_block_length(values.size, plans).items():
        center = block_averaged_cdf(values, ell, x)
        rows, m = [i for i, _ in cells], np.array([plan.total_length for _, plan in cells])
        pmfs[rows] = count_pmfs(window_counts(values > x, ell)[None], pmfs.shape[1])
        k[rows] = np.clip(m - np.floor(center * m + y * np.sqrt(m)), 0, m + 1)
    return _monte_carlo(count_sum_tails(pmfs, plans, k), n_boot, rng)


def lower_confidence_bounds(series, plans, p: float, alpha: float, n_boot: int | None = None, rng=None) -> np.ndarray:
    """Lower percentile confidence bounds for the p-quantile, one per plan of ``plans``.

    Each is ``q_hat - G^{-1}(level) / sqrt(n)``, ``q_hat`` the sample quantile and ``G`` the exact bootstrap law of the
    scaled quantile statistic: ``G^{-1}(level) = sqrt(b*ell) * (v - center)`` at the smallest observation ``v`` with
    ``P*(quantile <= v) >= level``; the largest observation always qualifies and is not searched.  Exact with
    ``n_boot=None`` (``level = alpha``, less the rounding guard); else ``level`` is ``U_(k) ~ Beta(k, n_boot - k + 1)``,
    ``k = order_stat_index(n_boot, alpha)``, drawn per plan in plan order from ``rng`` by inverting one uniform, so a
    bound is the ``k``-th of ``n_boot`` draws from ``G``: in law ``bootstrap_quantile_distribution(...).quantile(alpha)``,
    and monotone in ``alpha`` for a fixed generator.  An ``n_boot`` over ``2**53`` raises ``ValueError``.

    The searches run in lockstep, one :func:`count_sum_tails` call per bisection round, and those of a block length share
    their probes: each probed window-count pmf is kept until the call ends, up to ``min(n - 1, cells * ceil(log2(n)))``
    rows of ``ell + 1`` floats per block length, ``cells`` the plans at that length.  :func:`lower_bounds_cover` answers
    coverage from one row per plan.
    """
    levels = _levels(len(plans), alpha, n_boot, rng)
    values = as_values(series)
    ordered = np.sort(values)
    q_hat = ordered[order_stat_index(values.size, p) - 1]
    centers = {ell: block_averaged_quantile(values, ell, p) for ell in _by_block_length(values.size, plans)}
    width = max(centers, default=0) + 1
    pmf_at = functools.cache(lambda ell, j: count_pmfs(window_counts(values <= ordered[j], ell)[None], width))
    k = np.array([order_stat_index(plan.total_length, p) for plan in plans], dtype=np.int64)
    # bisect_left over range(n - 1) per plan: its midpoint probes tolerate tails not monotone in j to the last bit.
    lo, hi = np.zeros(len(plans), dtype=np.int64), np.full(len(plans), values.size - 1)
    while (active := np.flatnonzero(lo < hi)).size:
        mid = (lo[active] + hi[active]) // 2
        pmfs = np.concatenate([pmf_at(plans[i].block_length, j) for i, j in zip(active.tolist(), mid.tolist())])
        below = count_sum_tails(pmfs, [plans[i] for i in active], k[active]) < levels[active]
        lo[active], hi[active] = np.where(below, mid + 1, lo[active]), np.where(below, hi[active], mid)
    return np.array([_bound(q_hat, plan.total_length, ordered[g], centers[plan.block_length], values.size) for plan, g in zip(plans, lo.tolist())])


def lower_bounds_cover(series, plans, p: float, alpha: float, q: float, n_boot: int | None = None, rng=None) -> np.ndarray:
    """Whether ``q >= lower_confidence_bounds(series, plans, p, alpha, n_boot, rng)``, per plan, from the same draws.

    No search: the bound falls as the observation rises, rounding included, so the observations whose bound misses
    ``q`` are those at or below the last of them, and the search ends past it exactly when the tail ``G`` there is
    below the plan's level.  One window count per block length and one :func:`count_sum_tails` call for every plan's
    tail; a NaN ``q`` raises ``ValueError``.
    """
    _check_points(q=q)
    levels = _levels(len(plans), alpha, n_boot, rng)
    values = as_values(series)
    q_hat = np.sort(values)[order_stat_index(values.size, p) - 1]
    pmfs = _pmfs(plans)
    for ell, cells in _by_block_length(values.size, plans).items():
        center = block_averaged_quantile(values, ell, p)
        m = np.array([[plan.total_length] for _, plan in cells])
        missed = window_counts(q < _bound(q_hat, m, values, center, values.size), ell)  # the observations each bound misses
        pmfs[[i for i, _ in cells]] = count_pmfs(missed, pmfs.shape[1])
    # With no observation missing (every window counts 0), the bound covers at any level, a zero one included.
    return (pmfs[:, 0] == 1.0) | (count_sum_tails(pmfs, plans, [order_stat_index(plan.total_length, p) for plan in plans]) < levels)
