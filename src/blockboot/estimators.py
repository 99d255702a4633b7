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

A grid call returns one value per plan, in order, with the window counts
computed once per block length and the centers of every length from one sort
(:func:`~blockboot.empirical.block_averaged_quantiles`), and draws only from the
``rng`` passed; the point and coverage calls stack one window-count pmf per plan
and read every plan's ``G`` from one :func:`~blockboot.resample.count_sum_tails`
call.  :func:`window_deviation_probs` stacks the windows of a length as rows, so a
batch of windows makes one pass per (window length, block length).
"""

from __future__ import annotations

import functools

import numpy as np

from .empirical import _INDEX_GUARD, as_values, block_averaged_cdf, block_averaged_quantiles, order_stat_index
from .resample import _check_draws, _check_plan, count_pmfs, count_sum_tails, tails_stack_size, window_counts

__all__ = [
    "lower_bounds_cover",
    "lower_confidence_bounds",
    "quantile_deviation_probs",
    "cdf_deviation_probs",
    "window_deviation_probs",
    "window_stack_size",
]

# Values in the largest array of one window_deviation_probs batch (2 MB of float64).  On tune's 25 default cells,
# budgets of 2**18 to 2**22 ran within 10% of each other, at n = 200 and 1,000 with every subsample and at n = 10,000
# with 20; 2**16 was up to 60% slower (n = 10,000) and 2**14 up to 2.5 times; past 2**18 only the peak memory grew.
_STACK_BUDGET = 2**18


def _by_block_length(n: int, plans) -> dict:
    """``{ell: [(index, plan), ...]}`` over ``plans`` in order, every plan checked against ``n``."""
    groups: dict = {}
    for i, plan in enumerate(plans):
        groups.setdefault(_check_plan(n, plan)[1], []).append((i, plan))
    return groups


def _width(plans) -> int:
    """The width of a pmf stack of ``plans``: one more than the longest block, the most a window counts."""
    return max((plan.block_length for plan in plans), default=0) + 1


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


def _quantile_stack(stack, plans, p: float, x: float, width: int) -> tuple:
    """The ``width``-wide pmf rows and tail indices ``k`` of the quantile deviation at ``x`` per (row of ``stack``, plan), series-major.

    With ``plans`` once per row of the 2-d ``stack``, they make a :func:`count_sum_tails` call.  Each row is sorted once
    for its centers, and the rows' window counts at a block length are one stacked pass.
    """
    _check_points(x=x)
    rows, n = stack.shape
    groups = _by_block_length(n, plans)
    pmfs = np.empty((rows, len(plans), width))
    for (ell, cells), centers in zip(groups.items(), block_averaged_quantiles(stack, list(groups), p).T):
        scales = np.sqrt([plan.n_blocks * ell for _, plan in cells])
        counts = window_counts(stack[:, None] <= (centers[:, None] + x / scales)[..., None], ell)
        pmfs[:, [i for i, _ in cells]] = count_pmfs(counts.reshape(-1, counts.shape[-1]), width).reshape(rows, len(cells), width)
    return pmfs.reshape(-1, width), np.tile(np.array([order_stat_index(plan.total_length, p) for plan in plans], dtype=np.int64), rows)


def _spans(n: int, windows, plans: dict) -> np.ndarray:
    """``windows`` as a ``(count, 2)`` array of ``(start, length)``; ``ValueError`` if they are not pairs, or naming one outside ``n`` values or without plans."""
    try:
        spans = np.asarray(windows, dtype=np.int64).reshape(len(windows), 2)
    except ValueError:
        raise ValueError("windows must be a sequence of (start, length) pairs") from None
    for start, length in spans.tolist():
        if not (0 <= start and 1 <= length <= n - start):
            raise ValueError(f"window {(start, length)} does not lie within the {n} values of the series")
        if length not in plans:
            raise ValueError(f"window {(start, length)} has no plans: plans has no entry for its length")
    return spans


def window_stack_size(n: int, plans) -> int:
    """The most values a grid call with ``plans`` on ``n`` values holds in one array.

    That is ``n`` values for each of the most plans sharing a block length (their window counts; at least the ``n``
    values themselves), or the :func:`~blockboot.resample.tails_stack_size` kernel stack.  It sets
    :func:`window_deviation_probs`' batch and the command line's size charges.
    """
    return max(n * max(map(len, _by_block_length(n, plans).values()), default=1), tails_stack_size(plans))


def window_deviation_probs(series, windows, plans: dict, p: float, x: float, n_boot: int | None = None, rngs=None) -> list:
    """:func:`quantile_deviation_probs` on each window ``(start, length)`` of ``series`` with the plans ``plans[length]``.

    One array per window, in order; with ``n_boot``, window ``i`` draws from the ``i``-th generator of the iterable
    ``rngs``.  A batch of as many windows as keep every array under ``_STACK_BUDGET`` values (see :func:`window_stack_size`),
    or of one window, makes one :func:`_quantile_stack` pass per window length, on the stack of those windows, and one
    :func:`count_sum_tails` call; a window's values do not depend on the others.  A window outside the series or
    without plans, or too few generators, raises ``ValueError``.
    """
    values = as_values(series)
    spans = _spans(values.size, windows, plans)
    lengths = set(spans[:, 1].tolist())
    width = _width([plan for length in lengths for plan in plans[length]])
    batch = max(1, _STACK_BUDGET // max([1, *(window_stack_size(length, plans[length]) for length in lengths)]))
    rngs, out = None if rngs is None else iter(rngs), []
    for first in range(0, len(spans), batch):
        chunk = spans[first : first + batch]
        groups = [(length, np.flatnonzero(chunk[:, 1] == length)) for length in sorted(set(chunk[:, 1].tolist()))]
        stacks = [_quantile_stack(values[chunk[rows, :1] + np.arange(length)], plans[length], p, x, width) for length, rows in groups]
        cells = [plans[length] * rows.size for length, rows in groups]
        tails = count_sum_tails(np.concatenate([pmfs for pmfs, _ in stacks]), [plan for group in cells for plan in group], np.concatenate([k for _, k in stacks]))
        by_window = {}
        for (length, rows), g in zip(groups, np.split(tails, np.cumsum([len(group) for group in cells])[:-1])):
            by_window.update(zip(rows.tolist(), g.reshape(rows.size, len(plans[length]))))
        for i in range(len(chunk)):
            try:
                rng = None if rngs is None else next(rngs)
            except StopIteration:
                raise ValueError(f"rngs holds fewer generators ({first + i}) than windows ({len(spans)})") from None
            out.append(_monte_carlo(by_window[i], n_boot, rng))
    return out


def quantile_deviation_probs(series, plans, p: float, x: float, n_boot: int | None = None, rng=None) -> np.ndarray:
    """Bootstrap probabilities that the scaled quantile deviation is ``<= x``, one per plan of ``plans``.

    Exact with ``n_boot=None``; else ``Binomial(n_boot, G) / n_boot`` around each plan's exact ``G``, drawn in plan order
    from ``rng``: in law ``bootstrap_quantile_distribution(...).cdf(x)``.  A NaN ``x`` raises ``ValueError``.

    A 2-d ``series`` is a stack of series, one row of probabilities each, and ``rng`` then holds one generator per row:
    the rows are :func:`window_deviation_probs`' windows, batched up to ``_STACK_BUDGET`` values, and each row equals
    its one-row call.  A 1-d ``series`` is the one-row case.
    """
    stack = np.asarray(series, dtype=float)
    if stack.ndim != 2:
        return quantile_deviation_probs(as_values(stack)[None], plans, p, x, n_boot, [rng])[0]
    rows, n = stack.shape
    return np.array(window_deviation_probs(stack.ravel(), [(i * n, n) for i in range(rows)], {n: plans}, p, x, n_boot, rng))


def cdf_deviation_probs(series, plans, x: float, y: float, n_boot: int | None = None, rng=None) -> np.ndarray:
    """Bootstrap probabilities that the scaled resampled-CDF deviation at ``x`` is ``<= y``, one per plan of ``plans``.

    That is ``sqrt(b*ell) * (F*(x) - Ftilde(x)) <= y``, exact or drawn as in :func:`quantile_deviation_probs`: the law
    of the share of ``n_boot`` sequential :func:`~blockboot.resample.cdf_statistic` calls at or below ``y``.
    It counts the complement, at least ``m - floor(center*m + y*sqrt(m))`` of the ``m = b*ell`` values above ``x``;
    a NaN ``x`` or ``y`` raises ``ValueError``.
    """
    _check_points(x=x, y=y)
    values = as_values(series)
    pmfs, k = np.empty((len(plans), _width(plans))), np.empty(len(plans), dtype=np.int64)
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
    groups = _by_block_length(values.size, plans)
    centers = dict(zip(groups, block_averaged_quantiles(values[None], list(groups), p)[0].tolist()))
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
    groups = _by_block_length(values.size, plans)
    pmfs = np.empty((len(plans), _width(plans)))
    for (ell, cells), center in zip(groups.items(), block_averaged_quantiles(values[None], list(groups), p)[0].tolist()):
        m = np.array([[plan.total_length] for _, plan in cells])
        missed = window_counts(q < _bound(q_hat, m, values, center, values.size), ell)  # the observations each bound misses
        pmfs[[i for i, _ in cells]] = count_pmfs(missed, pmfs.shape[1])
    # With no observation missing (every window counts 0), the bound covers at any level, a zero one included.
    return (pmfs[:, 0] == 1.0) | (count_sum_tails(pmfs, plans, [order_stat_index(plan.total_length, p) for plan in plans]) < levels)
