"""Block bootstrap resampling for sample quantiles.

A resample pastes ``b`` blocks of ``ell`` consecutive observations, each
block starting at an index drawn uniformly (with replacement) from the
``n - ell + 1`` admissible positions.  The number of blocks interpolates
between subsampling (``b = 1``) and the moving block bootstrap
(``b = floor(n/ell)``); a single generic code path covers the whole family.

The centered, scaled statistic for one resample is

    ``sqrt(b*ell) * (quantile(pasted series) - block_averaged_quantile)``;

the resampled quantile is at most a threshold exactly when the ``b`` block
counts of values at or below it (:func:`window_counts`) sum to ``ceil(b*ell*p)``
or more.  Every estimate reads that one answer, :func:`count_sum_tail`, the
exact probability of that event given the series; a Monte Carlo point
estimate draws its count of hits from it as a binomial, and a Monte Carlo
bound its level as a beta order statistic.  The functions that paste blocks
are the definitions it is tested against, in law for the point estimates and
for the percentile bound.  Every random function draws from a passed generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirical import as_values, block_averaged_cdf, block_averaged_quantile, order_stat_index

__all__ = [
    "BlockPlan",
    "EmpiricalDistribution",
    "ResourceLimitError",
    "draw_block_starts",
    "paste_blocks",
    "quantile_statistic",
    "cdf_statistic",
    "window_counts",
    "count_sum_tail",
    "bootstrap_quantile_distribution",
    "exact_quantile_distribution",
]

# Up to this many start tuples, exact_quantile_distribution's rounded multiplicities are exact.
_MAX_TUPLES = 10**6


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a size limit."""


@dataclass(frozen=True)
class BlockPlan:
    """Resampling configuration: number of blocks and block length."""

    n_blocks: int
    block_length: int

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be at least 1")
        if self.block_length < 1:
            raise ValueError("block_length must be at least 1")

    @property
    def total_length(self) -> int:
        return self.n_blocks * self.block_length

    @classmethod
    def mbb(cls, n: int, block_length: int) -> "BlockPlan":
        """Moving-block-bootstrap plan, ``n_blocks = floor(n / block_length)``."""
        return cls(n // block_length, block_length)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted atoms with integer multiplicities out of ``total`` draws.

    Probabilities are exact ratios ``counts / total``; CDF and quantile
    queries run on the integer cumulative counts, so they are free of
    floating-point accumulation error.
    """

    values: np.ndarray
    counts: np.ndarray
    total: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if values.ndim != 1 or values.shape != counts.shape or values.size == 0:
            raise ValueError("values and counts must be matching nonempty 1-d arrays")
        if np.any(np.diff(values) < 0):
            raise ValueError("atom values must be nondecreasing")
        if np.any(counts <= 0) or int(counts.sum()) != int(self.total):
            raise ValueError("atom counts must be positive and sum to total")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(self.total))

    def cdf(self, x):
        """Total probability of atoms with value ``<= x`` (non-strict)."""
        cum = np.cumsum(self.counts)
        idx = np.searchsorted(self.values, x, side="right")
        out = np.where(idx > 0, cum[np.maximum(idx, 1) - 1], 0) / self.total
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def quantile(self, alpha: float) -> float:
        """Smallest atom value with cumulative probability ``>= alpha``.

        Equals the ``ceil(total*alpha)``-th order statistic of the underlying
        draws.
        """
        k = order_stat_index(self.total, alpha)
        idx = np.searchsorted(np.cumsum(self.counts), k, side="left")
        return float(self.values[idx])


def _check_plan(n: int, plan: BlockPlan) -> tuple[int, int]:
    if plan.block_length > n:
        raise ValueError(f"block length {plan.block_length} exceeds series length {n}")
    return plan.n_blocks, plan.block_length


def _check_draws(n_boot, rng) -> None:
    """Raise ``ValueError`` unless ``n_boot`` replicates are at least one and ``rng`` is there to draw them."""
    if n_boot < 1:
        raise ValueError("n_boot must be a positive number of bootstrap replicates")
    if rng is None:
        raise ValueError("rng is required when n_boot is given")


def draw_block_starts(rng: np.random.Generator, n: int, plan: BlockPlan) -> np.ndarray:
    """Draw ``n_blocks`` i.i.d. uniform block starts from ``{0, ..., n-ell}``."""
    b, ell = _check_plan(n, plan)
    return rng.integers(0, n - ell + 1, size=b)


def paste_blocks(series, starts, block_length: int) -> np.ndarray:
    """Concatenate the blocks beginning at ``starts`` (0-based offsets)."""
    values = as_values(series)
    starts = np.asarray(starts, dtype=np.int64)
    ell = int(block_length)
    if ell < 1 or ell > values.size:
        raise ValueError("block length must satisfy 1 <= ell <= n")
    if starts.size == 0 or np.any(starts < 0) or np.any(starts > values.size - ell):
        raise ValueError("block starts must lie in {0, ..., n - ell}")
    return values[starts[:, None] + np.arange(ell)].ravel()


def quantile_statistic(series, plan: BlockPlan, p: float, rng: np.random.Generator) -> float:
    """One bootstrap replicate of the centered, scaled p-quantile statistic, its block starts drawn from ``rng``.

    Computes ``sqrt(b*ell) * (quantile(pasted series) - block_averaged_quantile)``.
    """
    values = as_values(series)
    b, ell = _check_plan(values.size, plan)
    center = block_averaged_quantile(values, ell, p)
    starts = draw_block_starts(rng, values.size, plan)
    k = order_stat_index(b * ell, p)
    pasted = paste_blocks(values, starts, ell)
    return float(np.sqrt(b * ell) * (np.partition(pasted, k - 1)[k - 1] - center))


def cdf_statistic(series, plan: BlockPlan, x: float, rng: np.random.Generator) -> float:
    """One replicate of the scaled deviation of the resampled CDF at ``x``.

    Computes ``sqrt(b*ell) * (F*(x) - Ftilde(x))`` where ``F*`` averages the
    within-block empirical CDFs of the drawn blocks and ``Ftilde`` is the
    block-averaged CDF of the observed series.
    """
    values = as_values(series)
    b, ell = _check_plan(values.size, plan)
    center = block_averaged_cdf(values, ell, x)
    starts = draw_block_starts(rng, values.size, plan)
    fstar = np.count_nonzero(paste_blocks(values, starts, ell) <= x) / (b * ell)
    return float(np.sqrt(b * ell) * (fstar - center))


def window_counts(indicator, ell: int) -> np.ndarray:
    """Number of ones of ``indicator`` in each length-``ell`` window along its last axis (int64)."""
    cum = np.cumsum(indicator, axis=-1, dtype=np.int64)
    cum = np.concatenate((np.zeros(cum.shape[:-1] + (1,), dtype=np.int64), cum), axis=-1)
    return cum[..., ell:] - cum[..., :-ell]


def count_sum_tail(counts, plan: BlockPlan, k: int) -> float:
    """Probability that the :func:`window_counts` row ``counts`` summed at ``plan``'s ``b`` uniform block starts is ``>= k``.

    The tail from ``k`` of the ``b``-fold convolution of the window-count pmf, by binary powering.
    """
    b, ell = plan.n_blocks, plan.block_length
    law, power = np.ones(1), np.bincount(counts, minlength=ell + 1) / counts.size
    while b:
        law = np.convolve(law, power) if b & 1 else law
        b >>= 1
        power = np.convolve(power, power) if b else power
    return law[k:].sum()


def bootstrap_quantile_distribution(series, plan: BlockPlan, p: float, n_boot: int, rng: np.random.Generator) -> EmpiricalDistribution:
    """Monte Carlo distribution of the quantile statistic over ``n_boot`` replicates drawn from ``rng``.

    The block-averaged centering quantile is computed once and shared by all
    replicates.  Replicate ``j`` consumes draws ``j*b, ..., (j+1)*b - 1`` of
    ``rng``, so the result is identical to ``n_boot`` sequential
    :func:`quantile_statistic` calls on it.
    """
    _check_draws(n_boot, rng)
    values = as_values(series)
    b, ell = _check_plan(values.size, plan)
    center = block_averaged_quantile(values, ell, p)
    k = order_stat_index(b * ell, p)
    # Row j holds replicate j's starts: row-major, as n_boot successive draw_block_starts calls draw them.
    starts = rng.integers(0, values.size - ell + 1, size=(n_boot, b))
    pasted = values[starts[:, :, None] + np.arange(ell)].reshape(n_boot, b * ell)
    stats = np.partition(pasted, k - 1, axis=1)[:, k - 1]
    atoms, counts = np.unique(np.sqrt(b * ell) * (stats - center), return_counts=True)
    return EmpiricalDistribution(values=atoms, counts=counts, total=n_boot)


def exact_quantile_distribution(series, plan: BlockPlan, p: float) -> EmpiricalDistribution:
    """Exact conditional distribution of the quantile statistic.

    The resampled quantile is always an observation.  The multiplicities are
    the probabilities :func:`count_sum_tail` gives of it being ``<= v`` at each
    distinct observation ``v``, times the ``(n - ell + 1) ** b`` start tuples, rounded.

    Raises
    ------
    ResourceLimitError
        If the number of tuples exceeds ``_MAX_TUPLES``.
    """
    values = as_values(series)
    b, ell = _check_plan(values.size, plan)
    total = (values.size - ell + 1) ** b
    if total > _MAX_TUPLES:
        raise ResourceLimitError(f"{total} start tuples exceed the cap of {_MAX_TUPLES}")
    center = block_averaged_quantile(values, ell, p)
    k = order_stat_index(b * ell, p)
    atoms = np.unique(values)
    below = np.array([count_sum_tail(row, plan, k) for row in window_counts(values <= atoms[:, None], ell)])
    counts = np.diff(np.rint(below * total).astype(np.int64), prepend=0)
    keep = counts > 0
    return EmpiricalDistribution(values=np.sqrt(b * ell) * (atoms[keep] - center), counts=counts[keep], total=total)
