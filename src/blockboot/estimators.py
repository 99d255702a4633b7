"""Bootstrap distribution estimates and percentile confidence bounds over a grid of plans.

Every estimate reads one answer, :func:`~blockboot.resample.count_sum_tail`:
the exact probability ``G`` that ``b`` block counts sum to ``k`` or more.  The
quantile lies at or below a threshold when at least ``ceil(b*ell*p)`` values
do; at most ``c`` of ``m`` values lie at or below ``x`` when at least
``m - floor(c)`` lie above it.  Given the series, ``B`` Monte Carlo replicates
count ``Binomial(B, G)`` hits, so a point estimate draws that count, in plan
order, from the generator its caller passes.  The bound bisects the sorted
observations for the first whose exact ``G`` reaches a level
(``_first_reaching``) and pastes nothing: the level is ``alpha`` for the exact
law; for ``B`` replicates it is the ``k``-th of ``B`` uniform order
statistics, one ``Beta(k, B - k + 1)`` draw per plan, so the bound is the
pasting definition's ``k``-th order statistic in law.

A grid call returns one value per plan, in order, with the center and window
counts computed once per block length; the singular functions are one-plan calls.
"""

from __future__ import annotations

import numpy as np

from .empirical import _INDEX_GUARD, as_values, block_averaged_cdf, block_averaged_quantile, order_stat_index, sample_quantile
from .resample import ResamplePlan, _check_plan, count_sum_tail, window_counts
from .seeding import substream

__all__ = [
    "lower_confidence_bounds",
    "quantile_deviation_prob",
    "quantile_deviation_probs",
    "cdf_deviation_prob",
    "cdf_deviation_probs",
]


def _by_block_length(n: int, plans) -> dict:
    """``{ell: [(index, plan), ...]}`` over ``plans`` in order, every plan checked against ``n``."""
    groups: dict = {}
    for i, plan in enumerate(plans):
        groups.setdefault(_check_plan(n, plan)[1], []).append((i, plan))
    return groups


def _monte_carlo(weights, n_boot, rng) -> np.ndarray:
    """``weights`` when exact (``n_boot=None``); else ``Binomial(n_boot, G) / n_boot`` per weight, in order, from ``rng``."""
    # Clip only the binomial's argument: a tail sum may exceed 1 in the last bit, and exact values must not move.
    return weights if n_boot is None else rng.binomial(n_boot, np.clip(weights, 0.0, 1.0)) / n_boot


def _rng(rp: ResamplePlan):
    """Generator seeded by ``rp.seed``; none for the exact law."""
    return None if rp.n_boot is None else substream(rp.seed)


def _first_reaching(rank, ell: int, cells, p: float, levels):
    """For each ``(i, plan)`` of ``cells`` in order, ``i`` and the leftmost ``j < n - 1`` with ``P*(quantile <= ordered[j]) >= levels[i]``, else ``n - 1``.

    ``ordered`` is the sorted series; ``rank`` holds each observation's index in it (the first of its ties), so
    ``rank <= j`` marks the observations at or below ``ordered[j]``.  The window counts of each probed ``j`` are
    computed once for all cells.  It probes midpoints, as ``bisect_left`` does: the float tail weights need not be
    monotone in ``j`` to the last bit.
    """
    rows = {}
    for i, plan in cells:
        k, lo, hi = order_stat_index(plan.total_length, p), 0, rank.size - 1
        while lo < hi:
            j = (lo + hi) // 2
            if j not in rows:
                rows[j] = window_counts(rank <= j, ell)
            lo, hi = (lo, j) if count_sum_tail(rows[j], plan, k) >= levels[i] else (j + 1, hi)
        yield i, lo


def quantile_deviation_probs(series, plans, p: float, x: float, n_boot: int | None = None, rng=None) -> np.ndarray:
    """Bootstrap probabilities that the scaled quantile deviation is ``<= x``, one per plan of ``plans``.

    Exact with ``n_boot=None``; else ``Binomial(n_boot, G) / n_boot`` around the exact ``G`` of each plan, drawn in
    plan order from ``rng``: the law of ``bootstrap_quantile_distribution(...).cdf(x)`` at ``n_boot`` replicates.
    """
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
    a NaN ``y`` raises ``ValueError``.
    """
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
    and monotone in ``alpha`` for a fixed generator.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n_boot is None:
        # The guard absorbs the rounding of the exact tail weights.
        levels = np.full(len(plans), alpha * (1.0 - _INDEX_GUARD))
    else:
        from scipy.special import betaincinv  # imported here, as in models: scipy.special is slow to import

        k = order_stat_index(n_boot, alpha)
        levels = betaincinv(k, n_boot - k + 1, rng.random(len(plans)))
    values = as_values(series)
    ordered = np.sort(values)
    rank = np.searchsorted(ordered, values)  # values <= ordered[j] exactly when rank <= j
    q_hat = sample_quantile(values, p)
    out = np.empty(len(plans))
    for ell, cells in _by_block_length(values.size, plans).items():
        center = block_averaged_quantile(values, ell, p)
        for i, g in _first_reaching(rank, ell, cells, p, levels):
            out[i] = q_hat - np.sqrt(plans[i].total_length) * (ordered[g] - center) / np.sqrt(values.size)
    return out


def quantile_deviation_prob(series, rp: ResamplePlan, p: float, x: float) -> float:
    """Bootstrap probability that the scaled quantile deviation is ``<= x``: :func:`quantile_deviation_probs` for one plan."""
    return float(quantile_deviation_probs(series, (rp.plan,), p, x, rp.n_boot, _rng(rp))[0])


def cdf_deviation_prob(series, rp: ResamplePlan, x: float, y: float) -> float:
    """Bootstrap probability that the scaled resampled-CDF deviation at ``x`` is ``<= y``: :func:`cdf_deviation_probs` for one plan."""
    return float(cdf_deviation_probs(series, (rp.plan,), x, y, rp.n_boot, _rng(rp))[0])
