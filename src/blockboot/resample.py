"""Block bootstrap resampling for sample quantiles.

A resample pastes ``b`` blocks of ``ell`` consecutive observations, each
block starting at an index drawn uniformly (with replacement) from the
``n - ell + 1`` admissible positions.  The number of blocks interpolates
between subsampling (``b = 1``) and the moving block bootstrap
(``b = floor(n/ell)``); a single generic code path covers the whole family.

The centered, scaled statistic for one resample is

    ``sqrt(b*ell) * (quantile(pasted series) - block_averaged_quantile)``,

whose conditional distribution given the data is what the Monte Carlo and
exact-enumeration constructors below estimate and enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirical import as_values, block_averaged_cdf, block_averaged_quantile, order_stat_index
from .seeding import substream

__all__ = [
    "BlockPlan",
    "ResamplePlan",
    "EmpiricalDistribution",
    "ResourceLimitError",
    "draw_block_starts",
    "paste_blocks",
    "quantile_statistic",
    "cdf_statistic",
    "bootstrap_quantile_distribution",
    "exact_quantile_distribution",
]

_CHUNK_ROWS = 8192


class ResourceLimitError(RuntimeError):
    """Raised when an exact enumeration would exceed its configured cap."""


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

    @classmethod
    def subsampling(cls, block_length: int) -> "BlockPlan":
        """Single-block (subsampling) plan."""
        return cls(1, block_length)


@dataclass(frozen=True)
class ResamplePlan:
    """A block plan together with a replicate budget and seed."""

    plan: BlockPlan
    n_boot: int
    seed: int

    def __post_init__(self):
        if self.n_boot < 1:
            raise ValueError("n_boot must be at least 1")


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

    @property
    def probs(self) -> np.ndarray:
        return self.counts / self.total

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


def draw_block_starts(rng: np.random.Generator, n: int, plan: BlockPlan) -> np.ndarray:
    """Draw ``n_blocks`` i.i.d. uniform block starts from ``{0, ..., n-ell}``."""
    return _start_matrix(rng, n, plan, 1)[0]


def _start_matrix(rng: np.random.Generator, n: int, plan: BlockPlan, count: int) -> np.ndarray:
    # Row j holds the starts of replicate j; row-major generation makes this
    # identical to `count` successive draw_block_starts calls on one stream.
    b, ell = _check_plan(n, plan)
    return rng.integers(0, n - ell + 1, size=(count, b))


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


def _stats_from_starts(values: np.ndarray, starts: np.ndarray, ell: int, k: int, center: float) -> np.ndarray:
    """Scaled quantile statistics for each row of a start matrix."""
    count, b = starts.shape
    scale = np.sqrt(b * ell)
    offsets = np.arange(ell)
    out = np.empty(count)
    for lo in range(0, count, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, count)
        windows = values[starts[lo:hi, :, None] + offsets].reshape(hi - lo, b * ell)
        out[lo:hi] = np.partition(windows, k - 1, axis=1)[:, k - 1]
    return scale * (out - center)


def quantile_statistic(series, plan: BlockPlan, p: float, rng: np.random.Generator, center: float | None = None) -> float:
    """One bootstrap replicate of the centered, scaled quantile statistic.

    Parameters
    ----------
    series : array-like
        Observed series.
    plan : BlockPlan
        Number of blocks and block length.
    p : float
        Quantile level in (0, 1).
    rng : numpy.random.Generator
        Source of the block starts.
    center : float, optional
        Precomputed block-averaged quantile; computed from ``series`` when
        omitted.
    """
    values = as_values(series)
    b, ell = _check_plan(values.size, plan)
    if center is None:
        center = block_averaged_quantile(values, ell, p)
    starts = draw_block_starts(rng, values.size, plan)
    k = order_stat_index(b * ell, p)
    pasted = paste_blocks(values, starts, ell)
    return float(np.sqrt(b * ell) * (np.partition(pasted, k - 1)[k - 1] - center))


def sliding_counts(indicator: np.ndarray, ell: int) -> np.ndarray:
    """Number of ones of ``indicator`` in each window of ``ell`` consecutive entries."""
    cum = np.concatenate(([0], np.cumsum(indicator, dtype=np.int64)))
    return cum[ell:] - cum[:-ell]


def cdf_statistic(series, plan: BlockPlan, x: float, rng: np.random.Generator, center: float | None = None) -> float:
    """One replicate of the scaled deviation of the resampled CDF at ``x``.

    Computes ``sqrt(b*ell) * (F*(x) - Ftilde(x))`` where ``F*`` averages the
    within-block empirical CDFs of the drawn blocks and ``Ftilde`` is the
    block-averaged CDF of the observed series.
    """
    values = as_values(series)
    b, ell = _check_plan(values.size, plan)
    if center is None:
        center = block_averaged_cdf(values, ell, x)
    starts = draw_block_starts(rng, values.size, plan)
    counts = sliding_counts(values <= x, ell)
    fstar = counts[starts].sum() / (b * ell)
    return float(np.sqrt(b * ell) * (fstar - center))


def bootstrap_quantile_distribution(series, rp: ResamplePlan, p: float) -> EmpiricalDistribution:
    """Monte Carlo distribution of the quantile statistic over ``rp.n_boot`` replicates.

    The block-averaged centering quantile is computed once and shared by all
    replicates.  Replicate ``j`` consumes draws ``j*b, ..., (j+1)*b - 1`` of
    the stream seeded by ``rp.seed``, so the result is reproducible bit for
    bit and identical to sequential :func:`quantile_statistic` calls on a
    shared generator.
    """
    values = as_values(series)
    b, ell = _check_plan(values.size, rp.plan)
    center = block_averaged_quantile(values, ell, p)
    k = order_stat_index(b * ell, p)
    starts = _start_matrix(substream(rp.seed), values.size, rp.plan, rp.n_boot)
    stats = _stats_from_starts(values, starts, ell, k, center)
    atoms, counts = np.unique(stats, return_counts=True)
    return EmpiricalDistribution(values=atoms, counts=counts, total=rp.n_boot)


def exact_quantile_distribution(series, plan: BlockPlan, p: float, max_tuples: int = 10**6) -> EmpiricalDistribution:
    """Exact conditional distribution of the quantile statistic.

    Enumerates all ``(n - ell + 1) ** b`` equally likely start tuples and
    aggregates the statistic values with integer multiplicities, realizing
    the conditional law the Monte Carlo estimator targets.

    Raises
    ------
    ResourceLimitError
        If the number of tuples exceeds ``max_tuples``.
    """
    values = as_values(series)
    b, ell = _check_plan(values.size, plan)
    m = values.size - ell + 1
    total = m**b
    if total > max_tuples:
        raise ResourceLimitError(f"{total} start tuples exceed the cap of {max_tuples}")
    center = block_averaged_quantile(values, ell, p)
    k = order_stat_index(b * ell, p)
    stats = np.empty(total)
    shape = (m,) * b
    for lo in range(0, total, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, total)
        starts = np.stack(np.unravel_index(np.arange(lo, hi), shape), axis=1)
        stats[lo:hi] = _stats_from_starts(values, starts, ell, k, center)
    atoms, counts = np.unique(stats, return_counts=True)
    return EmpiricalDistribution(values=atoms, counts=counts, total=total)
