"""Monte Carlo experiment engine: reference values, error grids, rate and tuning studies.

Every experiment follows the same protocol: simulate ``n_reps`` independent
series, evaluate a bootstrap estimator on each over a grid of block plans,
and aggregate per-cell metrics against a reference value obtained from a
separate massive simulation.  Replications run in chunks of ``_REP_CHUNK``:
a chunk simulates its series as the rows of one stack, one recursion for
up to ``_STACK_BUDGET`` values, each row from its replication's own
generator.  The point estimates of a stack are one
:mod:`~blockboot.estimators` call, batched by the same budget; the other
estimators take one call per series.  The three surfaces (MSE, CDF MSE,
coverage) share one loop, ``_surface``, and differ only in the per-replication
quantity; the coverage surface reads whether each bound covers from one
exact tail per cell, never the bound itself.  Seeding is hierarchical:
each replication's series and the one generator its estimates (point
estimates or bound levels) draw from in plan order derive from the master
seed and the replication alone: bit-identical for any worker count.

Grids default to ``n_blocks`` 1..40 by even ``block_length`` 2..40
intersected with ``n_blocks * block_length <= n``, extended with the
moving-block rows ``n_blocks = floor(n / block_length)`` that fall outside
that rectangle.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import tempfile
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__, empirical, estimators, models, seeding
from .empirical import order_stat_index
from .estimators import cdf_deviation_probs, lower_bounds_cover, quantile_deviation_probs
from .models import ModelSpec, simulate_batch
from .resample import BlockPlan
from .seeding import subseed, substream
from .tuning import TuneConfig, argmin_cell, grid_diagnostics, plan_from_constants

__all__ = [
    "GridSpec",
    "ExperimentConfig",
    "GridRow",
    "GridResult",
    "RefResult",
    "RateResult",
    "AdaptiveResult",
    "ReferenceCache",
    "reference_value",
    "mse_grid",
    "coverage_grid",
    "cdf_mse_grid",
    "rate_study",
    "adaptive_study",
    "log_log_slope",
    "replication_seed",
    "reference_seed",
    "tuning_replication_seed",
    "write_csv",
    "write_grid_csv",
    "write_rate_csvs",
    "write_manifest",
]

_TAG_REFERENCE = 0
_TAG_SERIES = 1
_TAG_TUNE = 3
_TAG_POINT = 4

_REP_CHUNK = 32
_REF_CHUNK = 10_000
_MAX_CELLS = 10**6


def replication_seed(master_seed: int, rep: int) -> int:
    """Sub-seed generating the series of outer replication ``rep``."""
    return subseed(master_seed, _TAG_SERIES, rep)


def reference_seed(master_seed: int, chunk_index: int) -> int:
    """Sub-seed of one fixed-size chunk of the reference simulation."""
    return subseed(master_seed, _TAG_REFERENCE, chunk_index)


def tuning_replication_seed(master_seed: int, rep: int) -> int:
    """Master seed handed to the plan-selection procedure in replication ``rep``."""
    return subseed(master_seed, _TAG_TUNE, rep)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (n_blocks, block_length) grid, optionally with explicit cells.

    The block length advances in steps of ``ell_step`` (default 2, i.e. even
    lengths only).  At ``p = 1/2`` an odd pasted-series length makes the
    resampled quantile the exact middle order statistic while an even length
    gives the lower middle; tiny odd products ``n_blocks * block_length``
    exploit that parity to track median-deviation probabilities far better
    than the surrounding surface, which distorts row minima.  The even-length
    default keeps the surface comparable across cells; set ``ell_step=1`` to
    scan every length.
    """

    b_min: int = 1
    b_max: int = 40
    ell_min: int = 2
    ell_max: int = 40
    ell_step: int = 2
    include_mbb: bool = True
    cells: tuple | None = None

    def __post_init__(self):
        for name in ("b_min", "ell_min", "ell_step"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.b_min > self.b_max or self.ell_min > self.ell_max:
            raise ValueError("b and ell ranges must run from low to high")

    def plans(self, n: int) -> list[BlockPlan]:
        """The grid's plans at sample size ``n``; every block length is at most ``n``."""
        if self.cells is not None:
            plans = [BlockPlan(int(b), int(ell)) for b, ell in self.cells]
            if not plans:
                raise ValueError("explicit cell list is empty")
            if len(set(plans)) < len(plans):
                raise ValueError("explicit cell list repeats a cell")
            if max(p.block_length for p in plans) > n:
                raise ValueError(f"a cell's block length exceeds n={n}")
            return plans
        plans = []
        lengths = range(self.ell_min, min(self.ell_max, n) + 1, self.ell_step)
        b_span = min(self.b_max, n // self.ell_min) - self.b_min + 1
        if len(lengths) * b_span > _MAX_CELLS:
            raise ValueError(f"grid holds more than {_MAX_CELLS} cells")
        for ell in lengths:
            for b in range(self.b_min, min(self.b_max, n // ell) + 1):
                plans.append(BlockPlan(b, ell))
        if self.include_mbb:
            seen = {(p.n_blocks, p.block_length) for p in plans}
            plans += [BlockPlan.mbb(n, ell) for ell in lengths if (n // ell, ell) not in seen]
        if not plans:
            raise ValueError(f"grid is empty for n={n}")
        return plans


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by all experiments.

    ``n_reps`` and ``n_boot`` default to a desk-scale 2000/2000;
    ``ref_sims`` to one million.  ``ref_value`` (or ``ref_values`` keyed by
    sample size) bypasses the reference simulation.
    """

    model: ModelSpec
    n: int = 200
    n_list: tuple = ()
    p: float = 0.5
    x: float = 0.0
    y: float | None = None
    alpha: float | None = None
    grid: GridSpec = field(default_factory=GridSpec)
    n_reps: int = 2000
    n_boot: int = 2000
    ref_sims: int = 1_000_000
    ref_value: float | None = None
    ref_values: tuple = ()
    exact: bool = False
    c1_grid: tuple = (0.5, 0.75, 1.0, 1.5, 2.0)
    c2_grid: tuple = (0.5, 0.75, 1.0, 1.5, 2.0)
    subsample_len: int | None = None
    subsample_count: int = 20
    rho: float = 2.0
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.n_reps < 1 or self.n_boot < 1 or self.ref_sims < 1 or self.n_boot > 2**53:  # the bound's beta levels take float64 counts
            raise ValueError("n_reps and ref_sims must be at least 1, and n_boot must lie in [1, 2**53]")


@dataclass(frozen=True)
class RefResult:
    value: float
    stderr: float
    n_sims: int


@dataclass(frozen=True)
class GridRow:
    n_blocks: int
    block_length: int
    metric: str
    value: float
    stderr: float


@dataclass(frozen=True)
class GridResult:
    rows: tuple
    n: int

    def min_row(self, where=None) -> GridRow:
        candidates = [r for r in self.rows if where is None or where(r)]
        if not candidates:
            raise ValueError("no grid rows match the predicate")
        return min(candidates, key=lambda r: (r.value, r.block_length, r.n_blocks))

    def subsampling_min(self) -> GridRow:
        return self.min_row(lambda r: r.n_blocks == 1)

    def mbb_min(self) -> GridRow:
        return self.min_row(lambda r: r.n_blocks == self.n // r.block_length)


@dataclass(frozen=True)
class RateResult:
    slope: float
    minima: tuple
    grids: dict


@dataclass(frozen=True)
class AdaptiveCellRow:
    c1: float
    c2: float
    n_blocks: int
    block_length: int
    err_mean: float
    err_stderr: float
    mse: float
    mse_stderr: float
    selected_count: int


@dataclass(frozen=True)
class AdaptiveResult:
    cell_rows: tuple
    adaptive_mse: float
    adaptive_stderr: float
    n_reps: int

    def best_cell_mse(self) -> float:
        return min(r.mse for r in self.cell_rows)

    def worst_cell_mse(self) -> float:
        return max(r.mse for r in self.cell_rows)


def _run_chunked(worker, payload, n_items: int, workers: int, chunk: int):
    """Map ``worker(payload, lo, hi)`` over fixed chunks, in chunk order, on up to ``workers`` spawned processes.

    Chunk boundaries depend only on ``n_items``, so float accumulations
    combined in order are bit-identical for every worker count.  ``spawn``
    exists on every platform; ``worker`` and ``payload`` must pickle.
    """
    tasks = [(payload, lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]
    if workers <= 1 or len(tasks) == 1:
        return [worker(*task) for task in tasks]
    with multiprocessing.get_context("spawn").Pool(processes=min(workers, len(tasks))) as pool:
        return pool.starmap(worker, tasks)


def _reference_chunk(payload, lo, hi):
    model, n, kind, x, y, p, seed = payload
    rng = substream(reference_seed(seed, lo // _REF_CHUNK))
    batch = simulate_batch(model, n, hi - lo, rng)
    if kind == "quantile":
        k = order_stat_index(n, p)
        threshold = model.marginal_quantile(p) + x / math.sqrt(n)
        hits = (batch <= threshold).sum(axis=1) >= k
    else:
        bound = n * model.marginal_cdf(x) + y * math.sqrt(n)
        hits = (batch <= x).sum(axis=1) <= bound
    return int(np.count_nonzero(hits))


def reference_value(model: ModelSpec, n: int, kind: str, x: float, y: float | None = None, p: float = 0.5, n_sims: int = 1_000_000, seed: int = 0, workers: int = 1) -> RefResult:
    """Approximate a reference probability by massive independent simulation.

    ``kind="quantile"`` estimates the probability that the centered, scaled
    sample p-quantile ``sqrt(n) * (q_hat - q_true)`` is at most ``x``;
    ``kind="cdf"`` estimates the probability that
    ``sqrt(n) * (F_n(x) - F(x))`` is at most ``y``.  The model must provide
    the closed-form target (``marginal_quantile`` or ``marginal_cdf``).

    Returns the estimate with its binomial standard error.
    """
    if kind not in ("quantile", "cdf"):
        raise ValueError(f"unknown reference kind {kind!r}")
    if kind == "cdf" and y is None:
        raise ValueError("kind='cdf' requires an evaluation point y")
    # Raises ValueError up front for models without a closed-form target.
    if kind == "quantile":
        model.marginal_quantile(p)
    else:
        model.marginal_cdf(x)
    payload = (model, n, kind, x, y, p, seed)
    counts = _run_chunked(_reference_chunk, payload, n_sims, workers, _REF_CHUNK)
    value = sum(counts) / n_sims
    stderr = math.sqrt(max(value * (1.0 - value), 0.0) / n_sims)
    return RefResult(value=float(value), stderr=float(stderr), n_sims=n_sims)


def _resolve_reference(cfg: ExperimentConfig, kind: str) -> RefResult:
    given = cfg.ref_value if cfg.ref_value is not None else {int(k): v for k, v in cfg.ref_values}.get(cfg.n)
    if given is not None:
        return RefResult(value=float(given), stderr=0.0, n_sims=0)
    return reference_value(cfg.model, cfg.n, kind, cfg.x, y=cfg.y, p=cfg.p, n_sims=cfg.ref_sims, seed=cfg.master_seed, workers=cfg.workers)


def _add(total, sums):
    return sums if total is None else tuple(t + s for t, s in zip(total, sums))


def _stack_rows(n: int) -> int:
    """The most series of length ``n`` a replication chunk simulates at once: those that fit ``_STACK_BUDGET`` values, one at least."""
    return min(_REP_CHUNK, max(1, estimators._STACK_BUDGET // n))


def _replicate_chunk(task, lo, hi):
    cfg, per_rep, args = task
    total = None
    rows = _stack_rows(cfg.n)
    for first in range(lo, hi, rows):
        reps = range(first, min(first + rows, hi))
        stack = simulate_batch(cfg.model, cfg.n, len(reps), [substream(replication_seed(cfg.master_seed, rep)) for rep in reps])
        for sums in per_rep(cfg, stack, reps, *args):
            total = _add(total, sums)
    return total


def _replicate(cfg: ExperimentConfig, per_rep, *args) -> tuple:
    """Sum, over the ``cfg.n_reps`` replications, the tuples ``per_rep(cfg, stack, reps, *args)`` yields.

    ``per_rep`` is a module-level function (the pool pickles it) given the
    series of the replications ``reps`` as the rows of ``stack``; it yields
    one tuple of per-cell arrays or scalars per row, in order.  Each fixed
    ``_REP_CHUNK`` chunk simulates its series in stacks of at most
    ``_STACK_BUDGET`` values (one row at least) and sums the tuples in
    replication order, and the chunk sums are added in chunk order, so the
    totals are bit-identical for every worker count.
    """
    chunks = _run_chunked(_replicate_chunk, (cfg, per_rep, args), cfg.n_reps, cfg.workers, _REP_CHUNK)
    return functools.reduce(_add, chunks, None)


def _mean_stderr(total, total_sq, n_reps: int):
    """Mean over replications and its standard error, from the sums of a quantity and of its square."""
    mean = total / n_reps
    return mean, np.sqrt(np.maximum(total_sq / n_reps - mean**2, 0.0) / n_reps)


def _squared_errors(estimates, g_ref):
    d2 = (np.asarray(estimates) - g_ref) ** 2
    return d2, d2 * d2


def _point_draws(cfg, reps) -> tuple:
    """``(n_boot, rngs)`` of the estimates of replications ``reps``, one generator per replication for all its cells; no generators when ``cfg.exact``."""
    return (None, [None] * len(reps)) if cfg.exact else (cfg.n_boot, [substream(cfg.master_seed, _TAG_POINT, rep) for rep in reps])


def _mse_rep(cfg, stack, reps, plans, g_ref):
    for g in quantile_deviation_probs(stack, plans, cfg.p, cfg.x, *_point_draws(cfg, reps)):
        yield _squared_errors(g, g_ref)


def _cdf_mse_rep(cfg, stack, reps, plans, g_ref):
    n_boot, rngs = _point_draws(cfg, reps)
    for series, rng in zip(stack, rngs):
        yield _squared_errors(cdf_deviation_probs(series, plans, cfg.x, cfg.y, n_boot, rng), g_ref)


def _coverage_rep(cfg, stack, reps, plans, q_true):
    n_boot, rngs = _point_draws(cfg, reps)
    for series, rng in zip(stack, rngs):
        # int64 counts: adding bool arrays would be a logical or.  A 0/1 hit is its own square.
        hits = lower_bounds_cover(series, plans, cfg.p, cfg.alpha, q_true, n_boot, rng).astype(np.int64)
        yield hits, hits


def _tune_rep(cfg, stack, reps, tune_cfg, g_ref):
    for series, rep in zip(stack, reps):
        diags = grid_diagnostics(series, replace(tune_cfg, seed=tuning_replication_seed(cfg.master_seed, rep)))
        best = argmin_cell(diags)
        d2, d4 = _squared_errors([d.full_sample_prob for d in diags], g_ref)
        selected = (np.arange(len(diags)) == best).astype(np.int64)
        err = np.array([d.err for d in diags])
        yield err, err**2, d2, d4, selected, d2[best], d4[best]


def _surface(cfg: ExperimentConfig, per_rep, target, metric: str) -> GridResult:
    """Per-plan ``metric`` rows: mean and standard error of the per-cell ``(quantity, its square)`` that ``per_rep`` returns."""
    plans = cfg.grid.plans(cfg.n)
    values, stderrs = _mean_stderr(*_replicate(cfg, per_rep, plans, target), cfg.n_reps)
    rows = tuple(GridRow(pl.n_blocks, pl.block_length, metric, float(v), float(s)) for pl, v, s in zip(plans, values, stderrs))
    return GridResult(rows=rows, n=cfg.n)


def mse_grid(cfg: ExperimentConfig) -> GridResult:
    """Squared-error surface of the bootstrap quantile-CDF estimator at ``cfg.x``.

    For each plan, averages ``(G_hat(x) - G_ref)**2`` over ``cfg.n_reps``
    independent series, where each ``G_hat`` uses ``cfg.n_boot`` bootstrap
    replicates (or the exact conditional law when ``cfg.exact``).
    """
    return _surface(cfg, _mse_rep, _resolve_reference(cfg, "quantile").value, "mse")


def cdf_mse_grid(cfg: ExperimentConfig) -> GridResult:
    """Squared-error surface of the bootstrap CDF-deviation estimator at ``(x, y)``."""
    if cfg.y is None:
        raise ValueError("cdf_mse_grid requires the evaluation point y")
    return _surface(cfg, _cdf_mse_rep, _resolve_reference(cfg, "cdf").value, "mse")


def coverage_grid(cfg: ExperimentConfig) -> GridResult:
    """Coverage of the nominal-``alpha`` lower percentile confidence bound per plan."""
    if cfg.alpha is None:
        raise ValueError("coverage_grid requires alpha")
    return _surface(cfg, _coverage_rep, cfg.model.marginal_quantile(cfg.p), "coverage")


def adaptive_study(cfg: ExperimentConfig) -> AdaptiveResult:
    """Replicated study of the subsample-based plan selection.

    Per replication, evaluates the bootstrap CDF estimate at ``cfg.x`` for
    every candidate constant pair, selects the pair minimizing the subsample
    error criterion, and records the selected cell's estimate.  Reports
    per-cell mean error criterion, per-cell fixed-plan MSE, selection counts,
    and the MSE of the adaptively selected estimator.
    """
    ref = _resolve_reference(cfg, "quantile")
    tune_cfg = TuneConfig(
        c1_grid=cfg.c1_grid,
        c2_grid=cfg.c2_grid,
        x=cfg.x,
        n_boot=None if cfg.exact else cfg.n_boot,
        seed=cfg.master_seed,
        subsample_len=cfg.subsample_len,
        subsample_count=cfg.subsample_count,
        rho=cfg.rho,
        p=cfg.p,
    )
    err_sum, err_sq, s2, s4, selected, a2, a4 = _replicate(cfg, _tune_rep, tune_cfg, ref.value)
    err_mean, err_stderr = _mean_stderr(err_sum, err_sq, cfg.n_reps)
    mse, stderr = _mean_stderr(s2, s4, cfg.n_reps)
    adaptive_mse, adaptive_stderr = _mean_stderr(a2, a4, cfg.n_reps)
    cells = [(c1, c2) for c1 in cfg.c1_grid for c2 in cfg.c2_grid]
    rows = []
    for ci, (c1, c2) in enumerate(cells):
        plan = plan_from_constants(cfg.n, c1, c2)
        rows.append(
            AdaptiveCellRow(
                c1=c1,
                c2=c2,
                n_blocks=plan.n_blocks,
                block_length=plan.block_length,
                err_mean=float(err_mean[ci]),
                err_stderr=float(err_stderr[ci]),
                mse=float(mse[ci]),
                mse_stderr=float(stderr[ci]),
                selected_count=int(selected[ci]),
            )
        )
    return AdaptiveResult(
        cell_rows=tuple(rows),
        adaptive_mse=float(adaptive_mse),
        adaptive_stderr=float(adaptive_stderr),
        n_reps=cfg.n_reps,
    )


def log_log_slope(xs, ys) -> float:
    """Ordinary least squares slope of ``log(ys)`` on ``log(xs)``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need at least two (x, y) pairs")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def rate_study(cfg: ExperimentConfig) -> RateResult:
    """Grid-minimum MSE per sample size and the log-log regression slope.

    Runs :func:`mse_grid` for every ``n`` in ``cfg.n_list`` (at least three
    distinct sizes), takes each grid's minimum, and regresses ``log(min MSE)``
    on ``log(n)``.
    """
    if len(set(cfg.n_list)) < 3:
        raise ValueError("rate_study requires at least three distinct sample sizes")
    minima = []
    grids = {}
    for n in cfg.n_list:
        grid = mse_grid(replace(cfg, n=int(n)))
        grids[int(n)] = grid
        row = grid.min_row()
        minima.append((int(n), row.value, row.n_blocks, row.block_length))
    slope = log_log_slope([m[0] for m in minima], [m[1] for m in minima])
    return RateResult(slope=slope, minima=tuple(minima), grids=grids)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_field(value) -> str:
    if value is None:
        return ""
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def write_csv(path: str, header, rows) -> None:
    """Write ``rows`` under ``header``: floats with 6 significant digits, ``None`` as an empty field."""
    lines = [",".join(header)] + [",".join(_csv_field(v) for v in row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def write_grid_csv(path: str, result: GridResult) -> None:
    """Emit grid rows as ``b,ell,metric,value,stderr``."""
    write_csv(path, ("b", "ell", "metric", "value", "stderr"), [(r.n_blocks, r.block_length, r.metric, r.value, r.stderr) for r in result.rows])


def write_rate_csvs(out_dir: str, result: RateResult) -> list[str]:
    written = [os.path.join(out_dir, "rate_minima.csv"), os.path.join(out_dir, "rate_summary.csv")]
    write_csv(written[0], ("n", "min_mse", "b", "ell"), result.minima)
    write_csv(written[1], ("metric", "value"), [("slope", result.slope)])
    for n, grid in result.grids.items():
        written.append(os.path.join(out_dir, f"mse_grid_n{n}.csv"))
        write_grid_csv(written[-1], grid)
    return written


def write_manifest(path: str, command: str, cfg: ExperimentConfig, outputs: list[str]) -> None:
    """Echo the run configuration (every ``ExperimentConfig`` field) next to its outputs."""
    payload = {
        "command": command,
        "package": f"blockboot {__version__}",
        "master_seed": cfg.master_seed,
        "workers": cfg.workers,
        "config": asdict(cfg),
        "outputs": [os.path.basename(p) for p in outputs],
    }
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@functools.cache
def _code_fingerprint() -> str:
    """The numpy and scipy versions and a short hash of the code a reference value runs.

    That is the ``models``, ``seeding`` and ``empirical`` sources, the
    reference functions of this module and their chunk size and seed tag,
    hashed once per process.  scipy is imported only here, when a cache is built.
    """
    import scipy

    parts = [inspect.getsource(obj) for obj in (models, seeding, empirical, reference_seed, _run_chunked, _reference_chunk, reference_value)]
    parts += [repr((_REF_CHUNK, _TAG_REFERENCE))]
    digest = hashlib.sha256("".join(parts).encode("utf-8")).hexdigest()[:12]
    return f"numpy={np.__version__}|scipy={scipy.__version__}|code={digest}"


class ReferenceCache:
    """JSON-file cache of reference values keyed by the settings the simulation reads and the code fingerprint.

    A change to the simulation code, to numpy or to scipy changes the fingerprint, so a
    value cached by other code misses and is simulated again.  Each write
    first merges in the entries on disk, so caches sharing a file keep each
    other's values unless two of them write at the same moment.  A file that
    holds no JSON object raises ``ValueError`` naming it.
    """

    def __init__(self, path: str):
        self.path = path
        self._fingerprint = _code_fingerprint()
        self._store: dict = self._on_disk()

    def _on_disk(self) -> dict:
        if not os.path.exists(self.path):
            return {}
        with open(self.path, encoding="utf-8") as handle:
            try:
                store = json.load(handle)
            except ValueError:  # includes invalid JSON and invalid UTF-8
                store = None
        if not isinstance(store, dict):
            raise ValueError(f"reference cache {self.path} does not hold a JSON object")
        return store

    def _key(self, model: ModelSpec, n: int, kind: str, x: float, y: float | None, p: float, n_sims: int, seed: int) -> str:
        # Only the point the kind reads: y for "cdf", the level p for "quantile".
        point = f"y={y!r}" if kind == "cdf" else f"p={p!r}"
        params = ",".join(f"{k}={model.params[k]!r}" for k in sorted(model.params))
        return f"{model.kind}[{params}]|n={n}|{kind}|x={x!r}|{point}|sims={n_sims}|seed={seed}|{self._fingerprint}"

    def get_or_compute(self, model: ModelSpec, n: int, kind: str, x: float, y: float | None = None, p: float = 0.5, n_sims: int = 1_000_000, seed: int = 0, workers: int = 1) -> RefResult:
        key = self._key(model, n, kind, x, y, p, n_sims, seed)
        if key not in self._store:
            ref = reference_value(model, n, kind, x, y=y, p=p, n_sims=n_sims, seed=seed, workers=workers)
            self._store[key] = {"value": ref.value, "stderr": ref.stderr, "n_sims": ref.n_sims}
            self._store = {**self._on_disk(), **self._store}
            _write_atomic(self.path, json.dumps(self._store, indent=2, sort_keys=True) + "\n")
        entry = self._store[key]
        return RefResult(value=entry["value"], stderr=entry["stderr"], n_sims=entry["n_sims"])
