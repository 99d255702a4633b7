"""Bootstrap distribution estimates and percentile confidence bounds over a grid of plans.

Every estimate reads one answer, :func:`~blockboot.resample.count_sum_tail`:
the exact probability ``G`` that ``b`` block counts sum to ``k`` or more.  The
quantile lies at or below a threshold when at least ``ceil(b*ell*p)`` values
do; at most ``c`` of ``m`` values lie at or below ``x`` when at least
``m - floor(c)`` lie above it.  Given the series, ``B`` Monte Carlo replicates
count ``Binomial(B, G)`` hits, so a point estimate draws that count, in plan
order, from the generator its caller passes.  The bound searches the sorted
observations for ``G^{-1}(alpha)`` (``_first_reaching``) and pastes nothing:
it bisects the exact law; on the tallies of the start matrix seeded by
``rp.seed`` (bit for bit the pasting definition) it starts next to the
previous plan's answer and sums block counts only over undecided replicates.

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


def _starts(n: int, rp: ResamplePlan):
    """Start matrix of ``rp``, ``(b, n_boot)`` C-contiguous so the bound's tallies sum gathers over rows; ``None`` when exact.

    Drawn as ``(n_boot, b)``: column ``j`` holds the draws of the ``j``-th of ``n_boot`` ``draw_block_starts`` calls.
    """
    if rp.n_boot is not None:
        return np.ascontiguousarray(substream(rp.seed).integers(0, n - rp.plan.block_length + 1, size=(rp.n_boot, rp.plan.n_blocks)).T)


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


def _first_reaching(rank, ell: int, cells, p: float, alpha: float):
    """For each ``(i, rp)`` of ``cells`` in order, ``i`` and the leftmost ``j < n - 1`` with ``P*(quantile <= ordered[j]) >= alpha``, else ``n - 1``.

    ``ordered`` is the sorted series; ``rank`` holds each observation's index in it (the first of its ties), so
    ``rank <= j`` marks the observations at or below ``ordered[j]``.  The window counts of each probed ``j`` are
    computed once for all cells.  One loop serves both laws.  The exact law (``n_boot=None``) probes midpoints, as
    ``bisect_left`` does: its float tail weights need not be monotone in ``j`` to the last bit.  Tallies are, so a Monte Carlo search returns the
    same ``j`` whatever it probes, and it starts from the previous plan's answer ``g``: ``g - 2`` and ``g + 1``,
    then ``g - 6`` and ``g + 5``, ``g - 14`` and ``g + 13``, ..., skipping a probe outside the open range, so the
    bracket widens on the side where the answer lies; then it bisects.  In each pair the lower probe goes first
    when ``alpha >= 1/2``: it likely fails and settles most replicates.  Each probe gathers only the undecided
    replicates: one whose quantile is at or below ``ordered[j]`` stays so at every larger ``j``, one above it stays
    above at every smaller ``j``, so the decided ones leave the start matrix and their hits are counted in ``known``.
    """
    rows, warm = {}, ()
    for i, rp in cells:
        k, starts = order_stat_index(rp.plan.total_length, p), _starts(rank.size, rp)
        lo, hi, known, probes = 0, rank.size - 1, 0, iter(() if starts is None else warm)
        while lo < hi:
            j = next(probes, (lo + hi) // 2)
            if not lo <= j < hi:
                continue
            if j not in rows:
                rows[j] = window_counts(rank <= j, ell)
            if starts is None:
                hits, total = count_sum_tail(rows[j], rp.plan, k), 1
            else:
                below = rows[j][starts].sum(axis=0) >= k
                hits, total = known + np.count_nonzero(below), rp.n_boot
            # Equals `hits >= order_stat_index(total, alpha)` on tallies; the guard absorbs exact-law rounding.
            # Multiplied, not `hits / total >= alpha * (1 - guard)`, which rounds differently for some alpha.
            reached = hits >= total * alpha * (1.0 - _INDEX_GUARD)
            if starts is not None:
                known, starts = (known, starts[:, below]) if reached else (hits, starts[:, ~below])
            lo, hi = (lo, j) if reached else (j + 1, hi)
        pairs = ((lo + 2 - 2**s, lo - 3 + 2**s) for s in range(2, rank.size.bit_length() + 1))
        warm = [j for pair in pairs for j in (pair if alpha >= 0.5 else pair[::-1])]
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


def lower_confidence_bounds(series, rps, p: float, alpha: float) -> np.ndarray:
    """Lower percentile confidence bounds for the p-quantile, one per plan of ``rps``.

    Each is ``q_hat - G^{-1}(alpha) / sqrt(n)``, ``q_hat`` the sample quantile and ``G`` the bootstrap law of the scaled
    quantile statistic: Monte Carlo (bit for bit ``bootstrap_quantile_distribution(series, rp, p).quantile(alpha)``) or exact.
    ``G^{-1}(alpha) = sqrt(b*ell) * (v - center)`` at the smallest observation ``v`` with
    ``P*(quantile <= v) >= alpha``; the largest observation always qualifies and is not searched.  The exact law is
    searched by bisection; on tallies the search starts next to the previous plan's answer at the same block length
    and gathers only the replicates that earlier probes left undecided (:func:`_first_reaching`).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    values = as_values(series)
    ordered = np.sort(values)
    rank = np.searchsorted(ordered, values)  # values <= ordered[j] exactly when rank <= j
    q_hat = sample_quantile(values, p)
    out = np.empty(len(rps))
    for ell, cells in _by_block_length(values.size, [rp.plan for rp in rps]).items():
        center = block_averaged_quantile(values, ell, p)
        for i, g in _first_reaching(rank, ell, [(i, rps[i]) for i, _ in cells], p, alpha):
            out[i] = q_hat - np.sqrt(rps[i].plan.total_length) * (ordered[g] - center) / np.sqrt(values.size)
    return out


def quantile_deviation_prob(series, rp: ResamplePlan, p: float, x: float) -> float:
    """Bootstrap probability that the scaled quantile deviation is ``<= x``: :func:`quantile_deviation_probs` for one plan."""
    return float(quantile_deviation_probs(series, (rp.plan,), p, x, rp.n_boot, _rng(rp))[0])


def cdf_deviation_prob(series, rp: ResamplePlan, x: float, y: float) -> float:
    """Bootstrap probability that the scaled resampled-CDF deviation at ``x`` is ``<= y``: :func:`cdf_deviation_probs` for one plan."""
    return float(cdf_deviation_probs(series, (rp.plan,), x, y, rp.n_boot, _rng(rp))[0])
