"""Data-driven selection of the number of blocks and block length.

Candidate plans are parametrized as ``n_blocks = floor(c1 * n**(1/3))`` and
``block_length = floor(c2 * n**(1/3))``.  For each candidate, the full-sample
bootstrap CDF estimate at a point ``x`` is compared against the analogous
estimates computed on shorter subsamples of ``M`` consecutive observations;
the average ``rho``-th absolute power of the discrepancies estimates the
plan's distribution-estimation error, and the grid minimizer is selected.

Evaluating all ``n - M + 1`` subsamples is supported but expensive; by
default 20 subsamples equally spaced along the series are used.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .empirical import as_values, guarded_floor
from .estimators import window_deviation_probs
from .resample import BlockPlan
from .seeding import substream

__all__ = [
    "TuneConfig",
    "CellDiagnostics",
    "SelectionResult",
    "NoFeasiblePlanError",
    "plan_from_constants",
    "default_subsample_len",
    "subsample_starts",
    "grid_diagnostics",
    "select_plan",
]

_TUNE_TAG = 0x74756E65  # ascii "tune"


class NoFeasiblePlanError(ValueError):
    """Raised when no grid cell yields a valid plan at both sample sizes."""


@dataclass(frozen=True)
class TuneConfig:
    """Settings for the subsample-based plan selection.

    Attributes
    ----------
    c1_grid, c2_grid : tuple of float
        Candidate constants for the number of blocks and the block length.
    x : float
        Evaluation point of the bootstrap CDF estimates.
    n_boot : int or None
        Bootstrap replicates per CDF evaluation (full sample and subsamples), or ``None`` for the exact law.
    seed : int
        Master seed.  Each window's estimates draw in cell order from one generator keyed by it and the
        window's start and length, so the full series and a subsample covering it draw alike; exact derives none.
    subsample_len : int or None
        Subsample length ``M``; defaults to ``max(32, n // 8)``.
    subsample_count : int
        Number of equally spaced subsamples; 0 means all ``n - M + 1``.
    rho : float
        Exponent of the absolute discrepancy (default squared error).
    p : float
        Quantile level under study.
    """

    c1_grid: tuple
    c2_grid: tuple
    x: float
    n_boot: int | None
    seed: int
    subsample_len: int | None = None
    subsample_count: int = 20
    rho: float = 2.0
    p: float = 0.5

    def __post_init__(self):
        if len(self.c1_grid) == 0 or len(self.c2_grid) == 0:
            raise ValueError("candidate grids must be nonempty")
        if self.rho <= 0:
            raise ValueError("rho must be positive")


@dataclass(frozen=True)
class CellDiagnostics:
    """Per-cell tuning output: error estimate plus the full-sample CDF value."""

    c1: float
    c2: float
    plan: BlockPlan | None
    err: float
    full_sample_prob: float


@dataclass(frozen=True)
class SelectionResult:
    c1: float
    c2: float
    plan: BlockPlan
    table: tuple


def plan_from_constants(n: int, c1: float, c2: float) -> BlockPlan:
    """Block plan ``(floor(c1 * n**(1/3)), floor(c2 * n**(1/3)))``.

    The cube root is guarded against half-ulp rounding so exact cubes like
    ``512`` or ``1728`` floor to their integer roots.
    """
    root = float(np.cbrt(float(n)))
    b = guarded_floor(c1 * root)
    ell = guarded_floor(c2 * root)
    if b < 1 or ell < 1 or ell > n:
        raise ValueError(f"degenerate plan for n={n}, c1={c1}, c2={c2}: b={b}, ell={ell}")
    return BlockPlan(n_blocks=b, block_length=ell)


def default_subsample_len(n: int) -> int:
    """Heuristic subsample length ``max(32, n // 8)`` (clipped to ``n``)."""
    return min(n, max(32, n // 8))


def subsample_starts(n: int, subsample_len: int, count: int) -> np.ndarray:
    """Start offsets (0-based) of ``count`` equally spaced length-``M`` subsamples.

    ``count = 0`` yields all ``n - M + 1`` starts.  Otherwise starts are
    ``round((j - 1) * (n - M) / (count - 1))`` for ``j = 1..count`` with
    half-up rounding, deduplicated preserving order.
    """
    m = int(subsample_len)
    if m < 1 or m > n:
        raise ValueError(f"subsample length must satisfy 1 <= M <= n, got M={m}, n={n}")
    if count == 0:
        return np.arange(n - m + 1, dtype=np.int64)
    if count < 2:
        raise ValueError("subsample count must be 0 (all) or at least 2")
    j = np.arange(count, dtype=float)
    starts = np.floor(j * (n - m) / (count - 1) + 0.5).astype(np.int64)
    _, first = np.unique(starts, return_index=True)
    return starts[np.sort(first)]


def grid_diagnostics(series, cfg: TuneConfig) -> list[CellDiagnostics]:
    """Tuning diagnostics for every cell of the candidate grid.

    One :func:`~blockboot.estimators.window_deviation_probs` call covers the feasible cells on the full series and on
    each subsample window, each window drawing from its own generator (``TuneConfig.seed``).  Cells whose plan is
    degenerate at either sample size carry ``nan`` error and a ``None`` plan; the row order is ``c1`` outer, ``c2`` inner.
    """
    values = as_values(series)
    n = values.size
    m = default_subsample_len(n) if cfg.subsample_len is None else int(cfg.subsample_len)
    cells = [(c1, c2) for c1 in cfg.c1_grid for c2 in cfg.c2_grid]
    feasible = {}
    for i, (c1, c2) in enumerate(cells):
        with contextlib.suppress(ValueError):
            feasible[i] = {n: plan_from_constants(n, c1, c2), m: plan_from_constants(m, c1, c2)}

    grid = {size: [plans[size] for plans in feasible.values()] for size in (n, m)}
    windows = [(0, n), *((int(start), m) for start in subsample_starts(n, m, cfg.subsample_count))]
    rngs = None if cfg.n_boot is None else (substream(cfg.seed, _TUNE_TAG, start, size) for start, size in windows)
    estimates = [g.tolist() for g in window_deviation_probs(values, windows, grid, cfg.p, cfg.x, cfg.n_boot, rngs)]
    g_full = estimates[0]
    deviations = [[abs(g_sub - g) ** cfg.rho for g_sub in cell] for cell, g in zip(zip(*estimates[1:]), g_full)]
    rows = {i: CellDiagnostics(*cells[i], plans[n], float(np.mean(dev)), g) for (i, plans), dev, g in zip(feasible.items(), deviations, g_full)}
    return [rows[i] if i in rows else CellDiagnostics(c1, c2, None, math.nan, math.nan) for i, (c1, c2) in enumerate(cells)]


def argmin_cell(diagnostics) -> int:
    """Index of the minimal-error cell, ties broken by smaller c2 then smaller c1."""
    feasible = [(d.err, d.c2, d.c1, i) for i, d in enumerate(diagnostics) if d.plan is not None and not math.isnan(d.err)]
    if not feasible:
        raise NoFeasiblePlanError("every candidate cell yields a degenerate plan")
    return min(feasible)[-1]


def select_plan(series, cfg: TuneConfig) -> SelectionResult:
    """Select the candidate constants minimizing the subsample error estimate.

    Returns the winning constants, the induced full-sample plan, and the
    complete diagnostics table.
    """
    table = grid_diagnostics(series, cfg)
    best = table[argmin_cell(table)]
    return SelectionResult(c1=best.c1, c2=best.c2, plan=best.plan, table=tuple(table))
