"""Benchmark workloads: the config each round feeds the CLI, its work items, and its output checks.

Every workload runs one ``blockboot`` subcommand at n=200 with 2000 bootstrap
samples and the default 286-cell grid.  A round is one ``cli.main`` call on a
fixed number of replications, so its cost does not depend on how long the
benchmark runs; only the master seed changes from round to round.

Why these four:

``mse_grid``
    The point-estimator path (``quantile_deviation_prob``): block-start draws,
    count gather-and-sum, seed derivation and per-cell centering.  The
    reference value is given, so no reference simulation runs.
``coverage_grid``
    The full-law path (``bootstrap_quantile_distribution``), which pastes,
    partitions and deduplicates the resampled series.  A change to the point
    path should not move it, and the reverse also holds.
``tune``
    The only workload that runs ``tuning``: 525 estimator calls per
    replication on short windows, so fixed per-call costs (seeding,
    centering) dominate.
``reference``
    Massive simulation of the squared ARMA(2,3) model; nearly all time is in
    ``models.simulate_batch`` and the bootstrap layers are idle.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Callable
from dataclasses import dataclass

N = 200
BOOTSTRAP_SAMPLES = 2000
GRID_CELLS = 286  # default GridSpec at n=200: 20 even block lengths
TUNE_CANDIDATES = 25  # default 5x5 (c1, c2) constants
REF_ARMA11_G200_X1 = 0.67824  # frozen acceptance target, arma11, n=200, x=1
REF_ARMA23SQ_TARGET = 0.09276  # frozen acceptance target, arma23sq, n=200, x=-1.5
REF_TOLERANCE = 0.005  # acceptance criterion 3


def round_seed(seed: int, index: int) -> int:
    """Master seed of round ``index`` of a run started with ``--seed seed``."""
    return seed * 100_000 + index


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _number(row: dict, key: str, lo: float, hi: float, problems: list, where: str) -> float:
    try:
        value = float(row[key])
    except (TypeError, ValueError):
        problems.append(f"{where}: {key}={row.get(key)!r} is not a number")
        return math.nan
    if not (math.isfinite(value) and lo <= value <= hi):
        problems.append(f"{where}: {key}={value!r} outside [{lo}, {hi}]")
    return value


def _check_grid(out: str, filename: str, metric: str) -> list[str]:
    problems: list[str] = []
    rows = _read_csv(os.path.join(out, filename))
    if len(rows) != GRID_CELLS:
        problems.append(f"{filename}: {len(rows)} rows, expected {GRID_CELLS}")
    cells = set()
    for i, row in enumerate(rows):
        where = f"{filename} row {i + 1}"
        b = _number(row, "b", 1, N, problems, where)
        ell = _number(row, "ell", 2, 40, problems, where)
        if math.isfinite(b) and math.isfinite(ell) and b * ell > N and b != N // ell:
            problems.append(f"{where}: cell (b={b:g}, ell={ell:g}) is outside the grid")
        cells.add((b, ell))
        if row.get("metric") != metric:
            problems.append(f"{where}: metric {row.get('metric')!r}, expected {metric!r}")
        _number(row, "value", 0.0, 1.0, problems, where)
        _number(row, "stderr", 0.0, 1.0, problems, where)
    if len(cells) != len(rows):
        problems.append(f"{filename}: duplicate (b, ell) cells")
    return problems


def check_mse_grid(out: str, cfg: dict) -> list[str]:
    return _check_grid(out, "mse_grid.csv", "mse")


def check_coverage_grid(out: str, cfg: dict) -> list[str]:
    return _check_grid(out, "coverage_grid.csv", "coverage")


def check_tune(out: str, cfg: dict) -> list[str]:
    problems: list[str] = []
    err_rows = _read_csv(os.path.join(out, "tune_err_grid.csv"))
    if len(err_rows) != TUNE_CANDIDATES:
        problems.append(f"tune_err_grid.csv: {len(err_rows)} rows, expected {TUNE_CANDIDATES}")
    for i, row in enumerate(err_rows):
        where = f"tune_err_grid.csv row {i + 1}"
        _number(row, "b_n", 1, N, problems, where)
        _number(row, "ell_n", 1, N, problems, where)
        _number(row, "err", 0.0, 1.0, problems, where)
    study = _read_csv(os.path.join(out, "tune_study.csv"))
    per_metric: dict[str, list[float]] = {}
    for i, row in enumerate(study):
        per_metric.setdefault(row.get("metric"), []).append(_number(row, "value", 0.0, 1.0, problems, f"tune_study.csv row {i + 1}"))
    for metric in ("mse", "err_mean", "selected_frac"):
        if len(per_metric.get(metric, ())) != TUNE_CANDIDATES:
            problems.append(f"tune_study.csv: {len(per_metric.get(metric, ()))} {metric} rows, expected {TUNE_CANDIDATES}")
    if len(per_metric.get("adaptive_mse", ())) != 1:
        problems.append("tune_study.csv: expected exactly one adaptive_mse row")
    if len(study) != 3 * TUNE_CANDIDATES + 1:
        problems.append(f"tune_study.csv: {len(study)} rows, expected {3 * TUNE_CANDIDATES + 1}")
    selected = math.fsum(per_metric.get("selected_frac", ()))
    if abs(selected - 1.0) > 1e-4:
        problems.append(f"tune_study.csv: selected fractions sum to {selected!r}, expected 1")
    return problems


def check_reference(out: str, cfg: dict) -> list[str]:
    problems: list[str] = []
    rows = _read_csv(os.path.join(out, "reference.csv"))
    if len(rows) != 1:
        return [f"reference.csv: {len(rows)} rows, expected 1"]
    row = rows[0]
    value = _number(row, "value", 0.0, 1.0, problems, "reference.csv")
    _number(row, "stderr", 0.0, 1.0, problems, "reference.csv")
    if row.get("n_sims") != str(cfg["ref_replications"]):
        problems.append(f"reference.csv: n_sims={row.get('n_sims')!r}, expected {cfg['ref_replications']}")
    if not abs(value - REF_ARMA23SQ_TARGET) <= REF_TOLERANCE:
        problems.append(f"reference.csv: value {value!r} is not within {REF_TOLERANCE} of {REF_ARMA23SQ_TARGET}")
    return problems


@dataclass(frozen=True)
class Workload:
    """One subcommand with a fixed per-round amount of work.

    ``size_key`` names the config key that sets the round's replications and
    ``items_per_unit`` the work items per replication: (replication, cell)
    estimates for the grids, (replication, candidate) estimates for ``tune``,
    simulated series for ``reference``.  ``calibration`` names the section of
    ``calibration.py`` that does the same kind of work.
    """

    name: str
    command: str
    outputs: tuple
    base: dict
    size_key: str
    round_size: int
    items_per_unit: int
    check: Callable[[str, dict], list]
    calibration: str

    def config(self, seed: int) -> dict:
        return {"n": N, "bootstrap_samples": BOOTSTRAP_SAMPLES, **self.base, self.size_key: self.round_size, "seed": seed, "workers": 1}

    def items(self, cfg: dict) -> int:
        return cfg[self.size_key] * self.items_per_unit


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mse_grid",
            command="mse-grid",
            outputs=("mse_grid.csv", "manifest.json"),
            base={"model": "arma11", "x": 1.0, "p": 0.5, "ref_value": REF_ARMA11_G200_X1},
            size_key="replications",
            round_size=2,
            items_per_unit=GRID_CELLS,
            check=check_mse_grid,
            calibration="cells",
        ),
        Workload(
            name="coverage_grid",
            command="coverage-grid",
            outputs=("coverage_grid.csv", "manifest.json"),
            base={"model": "arma11", "alpha": 0.9, "p": 0.5},
            size_key="replications",
            round_size=1,
            items_per_unit=GRID_CELLS,
            check=check_coverage_grid,
            calibration="windows",
        ),
        Workload(
            name="tune",
            command="tune",
            outputs=("tune_err_grid.csv", "tune_study.csv", "manifest.json"),
            base={"model": "arma11", "x": 1.0, "p": 0.5, "ref_value": REF_ARMA11_G200_X1, "subsample_count": 20},
            size_key="replications",
            round_size=2,
            items_per_unit=TUNE_CANDIDATES,
            check=check_tune,
            calibration="cells",
        ),
        Workload(
            name="reference",
            command="reference",
            outputs=("reference.csv", "reference_cache.json", "manifest.json"),
            base={"model": "arma23sq", "kind": "quantile", "x": -1.5, "p": 0.5},
            size_key="ref_replications",
            round_size=100_000,
            items_per_unit=1,
            check=check_reference,
            calibration="recursion",
        ),
    )
}
