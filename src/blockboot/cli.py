"""Command-line harness around the experiment engine.

Each subcommand reads a YAML (or JSON) config file describing an
:class:`~blockboot.harness.ExperimentConfig`, runs the experiment, and writes
plot-ready CSV files plus a ``manifest.json`` echoing the configuration.
``_COMMANDS`` declares every subcommand once: its runner, the keys it
requires and reads, and its extra check.  The whole config is checked before
the output directory is created.  Exit codes: 0 success, 2 config error (the
message names the key), 3 a run larger than the size limit (the message
names the key).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter

import yaml

from . import harness
from .models import model_from_name
from .resample import ResourceLimitError, tails_stack_size
from .tuning import default_subsample_len, plan_from_constants


class ConfigError(Exception):
    """A config file is missing, malformed, or holds an unknown/invalid key."""


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError("must be a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("must be finite")
    return number


def _integer(value) -> int:
    number = _number(value)
    if not number.is_integer():
        raise ValueError("must be an integer")
    return value if isinstance(value, int) else int(number)


def _checked(coerce, ok, message):
    """Coercion ``coerce`` followed by the check ``ok`` on its result."""

    def checked(value):
        result = coerce(value)
        if not ok(result):
            raise ValueError(message)
        return result

    return checked


def _instance(kind, message):
    return _checked(lambda v: v, lambda v: isinstance(v, kind), message)


def _items(item, ok=bool, message="must be a nonempty list"):
    """Coercion of a list through ``item`` into a tuple, then the check ``ok``."""
    return _checked(lambda value: tuple(item(v) for v in _list(value)), ok, message)


_flag = _instance(bool, "must be true or false")
_text = _instance(str, "must be a string")
_list = _instance((list, tuple), "must be a list")
_dict = _instance(dict, "must be a mapping")
_count = _checked(_integer, lambda v: v >= 1, "must be an integer >= 1")
_subsample_count = _checked(_integer, lambda v: v == 0 or v >= 2, "must be 0 (all subsamples) or an integer >= 2")
_positive = _checked(_number, lambda v: v > 0.0, "must be positive")
_open_unit = _checked(_number, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")
_probability = _checked(_number, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_kind = _checked(_text, lambda v: v in ("quantile", "cdf"), "must be 'quantile' or 'cdf'")
_pair = _items(_count, lambda v: len(v) == 2, "must be a pair of integers >= 1")


def _ref_values(value) -> tuple:
    return tuple(sorted((_count(k), _probability(v)) for k, v in _dict(value).items()))


def _model(value):
    fields = _fields({"name": value} if isinstance(value, str) else _dict(value), _MODEL_KEYS, "model.")
    if "name" not in fields:
        raise ConfigError("missing required config key: model.'name'")
    return model_from_name(**fields)


def _grid(value) -> harness.GridSpec:
    fields = _fields(_dict(value), _GRID_KEYS, "grid.")
    for key in ("b", "ell"):
        if key in fields:
            fields[f"{key}_min"], fields[f"{key}_max"] = fields.pop(key)
    return harness.GridSpec(**fields)


_MODEL_KEYS = {"name": ("name", _text), "nu": ("nu", _number), "n_terms": ("n_terms", _count)}

_GRID_KEYS = {
    "b": ("b", _pair),
    "ell": ("ell", _pair),
    "ell_step": ("ell_step", _count),
    "include_mbb": ("include_mbb", _flag),
    "cells": ("cells", _items(_pair)),
}

# Config key -> (ExperimentConfig field, coercion).  Keys with field None are
# read by the CLI itself.  Absent keys take the dataclass defaults.
_KEYS = {
    "experiment": (None, _text),
    "kind": (None, _kind),
    "out": (None, _text),
    "model": ("model", _model),
    "n": ("n", _count),
    "n_list": ("n_list", _items(_count)),
    "p": ("p", _open_unit),
    "x": ("x", _number),
    "y": ("y", _number),
    "alpha": ("alpha", _open_unit),
    "grid": ("grid", _grid),
    "replications": ("n_reps", _count),
    "bootstrap_samples": ("n_boot", _count),
    "ref_replications": ("ref_sims", _count),
    "ref_value": ("ref_value", _probability),
    "ref_values": ("ref_values", _ref_values),
    "exact": ("exact", _flag),
    "c1_grid": ("c1_grid", _items(_positive)),
    "c2_grid": ("c2_grid", _items(_positive)),
    "subsample_len": ("subsample_len", _count),
    "subsample_count": ("subsample_count", _subsample_count),
    "rho": ("rho", _positive),
    "seed": ("master_seed", _integer),
    "workers": ("workers", _count),
}

# Keys every subcommand reads, and groups of keys several subcommands read.
_SHARED = ("experiment", "out", "model", "seed", "workers")
_REPLICATED = ("replications", "bootstrap_samples", "exact")
_REFERENCE = ("ref_replications", "ref_value", "ref_values")

# Largest number of values (array elements or chunk tasks) a run may hold in
# one allocation; 10**8 float64 values take 800 MB.
_MAX_ALLOCATION = 10**8


def _fields(raw: dict, table: dict, prefix: str = "") -> dict:
    """Coerce every set key of ``raw`` through ``table`` into ``{field: value}``."""
    fields = {}
    for key, value in raw.items():
        if key not in table:
            raise ConfigError(f"unknown config key: {prefix}{key!r}")
        field, coerce = table[key]
        if value is None:
            continue
        try:
            coerced = coerce(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key {prefix}{key!r} {exc}, got {value!r}") from exc
        if field is not None:
            fields[field] = coerced
    return fields


def _load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as handle:
        try:
            raw = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a mapping of keys to values")
    return raw


def _degenerate(n: int, key: str, c: float) -> bool:
    # A pair (c1, c2) gives a valid plan iff each constant does with the other
    # set to 1, since floor(n**(1/3)) is a valid block count and length.
    try:
        plan_from_constants(n, *((c, 1.0) if key == "c1_grid" else (1.0, c)))
    except ValueError:
        return True
    return False


def _check_tune(cfg: harness.ExperimentConfig) -> None:
    m = default_subsample_len(cfg.n) if cfg.subsample_len is None else cfg.subsample_len
    if m > cfg.n:
        raise ConfigError(f"config key 'subsample_len' must not exceed n={cfg.n}, got {m}")
    for key, values in (("c1_grid", cfg.c1_grid), ("c2_grid", cfg.c2_grid)):
        bad = [c for c in values if _degenerate(cfg.n, key, c)]
        if bad:
            raise ConfigError(f"config key {key!r} holds {bad}, which give no valid plan at n={cfg.n}")
        if all(_degenerate(m, key, c) for c in values):
            raise ConfigError(f"config key {key!r} gives no valid plan at the subsample length {m}")


def _check_size(cfg: harness.ExperimentConfig, read: set, sizes) -> None:
    """Raise ResourceLimitError, naming the key (the first of equals), when the largest allocation of a run reading ``read`` at ``sizes`` exceeds ``_MAX_ALLOCATION``."""
    series = min(cfg.ref_sims, harness._REF_CHUNK) if "ref_replications" in read else 1  # simulated at once: a reference chunk, or a replication's
    # A grid call holds the window counts of the plans sharing a block length, and count_sum_tails one row per plan.
    grids = [(n, cfg.grid.plans(n)) for n in sizes if "grid" in read]
    allocations = {
        "n_list" if "n_list" in read else "n": series * max(sizes),
        "replications": -(-cfg.n_reps // harness._REP_CHUNK),  # the chunk-task lists
        "ref_replications": -(-cfg.ref_sims // harness._REF_CHUNK),
        "grid": max((max(n * max(Counter(q.block_length for q in plans).values()), tails_stack_size(plans)) for n, plans in grids), default=0),
    }
    if "c1_grid" in read:  # tune's kernel calls stack windows up to a fixed budget, or hold the full series' cells alone
        allocations["c1_grid"] = tails_stack_size([plan_from_constants(cfg.n, c1, c2) for c1 in cfg.c1_grid for c2 in cfg.c2_grid])
    key, size = max(allocations.items(), key=lambda item: item[1])
    if size > _MAX_ALLOCATION:
        raise ResourceLimitError(f"config key {key!r} asks for {size} values in one allocation, over the limit of {_MAX_ALLOCATION}")


def _experiment(raw: dict, args) -> str:
    """The experiment to run: the subcommand, or the ``experiment`` key under ``run``."""
    declared = raw.get("experiment")
    experiment = declared if args.command == "run" else args.command
    if experiment is None:
        raise ConfigError("missing required config key: 'experiment' (needed by run)")
    if declared is not None and declared != experiment:
        raise ConfigError(f"config declares experiment {declared!r} but {experiment!r} was invoked")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    return experiment


def build_config(raw: dict, args) -> harness.ExperimentConfig:
    """Assemble and validate an ExperimentConfig from a parsed config mapping and CLI overrides."""
    experiment = _experiment(raw, args)
    overrides = {key: getattr(args, key) for key in ("seed", "workers", "out") if getattr(args, key) is not None}
    fields = _fields({**raw, **overrides}, _KEYS)
    _, required, optional, check = _COMMANDS[experiment]
    if experiment == "reference":  # kind 'cdf' needs the point y; kind 'quantile' reads the level p
        required, optional = (required + ("y",), optional) if raw.get("kind") == "cdf" else (required, optional + ("p",))
    for key in required:
        if raw.get(key) is None:
            raise ConfigError(f"missing required config key: {key!r} (needed by {experiment})")
    if "ref_value" in fields and "ref_values" in fields:
        raise ConfigError("config key 'ref_values' cannot be set together with 'ref_value'")
    # Exact runs draw no bootstrap sample, and a given reference is not simulated.
    unread = {"bootstrap_samples": fields.get("exact"), "ref_replications": {"ref_value", "ref_values"} & fields.keys()}
    read = {*_SHARED, *required, *optional} - {key for key, skipped in unread.items() if skipped}
    for key in raw:
        if key not in read:
            print(f"warning: config key {key!r} is not used by {experiment}; its value is still checked", file=sys.stderr)
    if fields.get("n_boot", 0) > 2**53:  # the bound's beta levels take float64 counts
        raise ConfigError(f"config key 'bootstrap_samples' must be at most 2**53, the largest count a float64 holds exactly, got {fields['n_boot']}")
    cfg = harness.ExperimentConfig(**fields)
    sizes = cfg.n_list if "n_list" in read else (cfg.n,)
    if "ref_values" in fields and "ref_values" in read:
        missing = sorted(set(sizes) - {n for n, _ in cfg.ref_values})
        if missing:
            raise ConfigError(f"config key 'ref_values' has no entry for the sample size(s) {missing}")
    for n in (cfg.n, *cfg.n_list):
        try:
            cfg.grid.plans(n)
        except ValueError as exc:
            raise ConfigError(f"config key 'grid' is invalid at n={n}: {exc}") from exc
    if check is not None:
        check(cfg)
    _check_size(cfg, read, sizes)
    return cfg


def _check_reference(cfg: harness.ExperimentConfig) -> None:
    if cfg.exact:
        raise ConfigError("config key 'exact' does not apply to reference, which runs no bootstrap")


def _check_rate(cfg: harness.ExperimentConfig) -> None:
    if len(set(cfg.n_list)) < 3:
        raise ConfigError("config key 'n_list' must hold at least three distinct sample sizes")


# Runners take (experiment, cfg, raw, out), write the subcommand's CSVs into
# ``out`` and return their paths.  They look the harness entry points up when
# they run, so that a wrapper put on a ``harness`` attribute sees the call.
def _run_reference(experiment, cfg, raw, out):
    kind = raw.get("kind") or "quantile"
    y = cfg.y if kind == "cdf" else None  # kind 'quantile' does not read y
    try:
        cache = harness.ReferenceCache(os.path.join(out, "reference_cache.json"))
    except ValueError as exc:
        raise ConfigError(f"config key 'out': {exc}") from exc
    ref = cache.get_or_compute(cfg.model, cfg.n, kind, cfg.x, y=y, p=cfg.p, n_sims=cfg.ref_sims, seed=cfg.master_seed, workers=cfg.workers)
    path = os.path.join(out, "reference.csv")
    header = ("model", "n", "kind", "x", "y", "value", "stderr", "n_sims")
    harness.write_csv(path, header, [(cfg.model.kind, cfg.n, kind, cfg.x, y, ref.value, ref.stderr, ref.n_sims)])
    print(f"{experiment} {ref.value:.6g} (stderr {ref.stderr:.3g}, {ref.n_sims} sims) -> {path}")
    return [path]


def _run_grid(experiment, cfg, raw, out):
    # A grid subcommand 'a-b' runs harness.a_b and writes a_b.csv.
    name = experiment.replace("-", "_")
    result = getattr(harness, name)(cfg)
    path = os.path.join(out, f"{name}.csv")
    harness.write_grid_csv(path, result)
    best = result.min_row()
    print(f"{experiment}: {len(result.rows)} cells, min {best.value:.6g} at (b={best.n_blocks}, ell={best.block_length}) -> {path}")
    return [path]


def _run_tune(experiment, cfg, raw, out):
    result = harness.adaptive_study(cfg)
    err_rows, study_rows = [], []
    for r in result.cell_rows:
        cell = (r.c1, r.c2, r.n_blocks, r.block_length)
        err_rows.append((*cell, r.err_mean))
        frac = r.selected_count / result.n_reps
        study_rows += [
            (*cell, "mse", r.mse, r.mse_stderr),
            (*cell, "err_mean", r.err_mean, r.err_stderr),
            # Selections are 0 or 1 per replication: the binomial standard error.
            (*cell, "selected_frac", frac, math.sqrt(frac * (1.0 - frac) / result.n_reps)),
        ]
    study_rows.append((None, None, None, None, "adaptive_mse", result.adaptive_mse, result.adaptive_stderr))
    paths = [os.path.join(out, "tune_err_grid.csv"), os.path.join(out, "tune_study.csv")]
    harness.write_csv(paths[0], ("c1", "c2", "b_n", "ell_n", "err"), err_rows)
    harness.write_csv(paths[1], ("c1", "c2", "b", "ell", "metric", "value", "stderr"), study_rows)
    print(
        f"{experiment}: adaptive mse {result.adaptive_mse:.6g} vs fixed-cell range "
        f"[{result.best_cell_mse():.6g}, {result.worst_cell_mse():.6g}] -> {paths[1]}"
    )
    return paths


def _run_rate(experiment, cfg, raw, out):
    result = harness.rate_study(cfg)
    written = harness.write_rate_csvs(out, result)
    print(f"{experiment}: slope {result.slope:.4f} over n={list(cfg.n_list)} -> {written[0]}")
    return written


# Subcommand -> (runner, required keys, other keys read besides _SHARED, extra
# check).  build_config warns about every other key, which the run does not use
# but still validates; the reference kind adds y or p, exact drops
# bootstrap_samples, and a given reference drops ref_replications.
_COMMANDS = {
    "reference": (_run_reference, ("model", "x"), ("kind", "n", "ref_replications"), _check_reference),
    "mse-grid": (_run_grid, ("model", "x"), ("n", "p", "grid", *_REPLICATED, *_REFERENCE), None),
    "coverage-grid": (_run_grid, ("model", "alpha"), ("n", "p", "grid", *_REPLICATED), None),
    "cdf-mse-grid": (_run_grid, ("model", "x", "y"), ("n", "grid", *_REPLICATED, *_REFERENCE), None),
    "tune": (_run_tune, ("model", "x"), ("n", "p", *_REPLICATED, *_REFERENCE, "c1_grid", "c2_grid", "subsample_len", "subsample_count", "rho"), _check_tune),
    "rate-study": (_run_rate, ("model", "x", "n_list"), ("p", "grid", *_REPLICATED, *_REFERENCE), _check_rate),
}

EXPERIMENTS = tuple(_COMMANDS)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blockboot", description="Block bootstrap Monte Carlo experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS + ("run",):
        cmd = sub.add_parser(name, help=f"{name} experiment" if name != "run" else "dispatch on the 'experiment' config key")
        cmd.add_argument("--config", required=True, help="path to a YAML config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the master seed")
        cmd.add_argument("--workers", type=int, default=None, help="override the worker count")
        cmd.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        raw = _load_config(args.config)
        experiment = _experiment(raw, args)
        cfg = build_config(raw, args)
        out = (raw.get("out") if args.out is None else args.out) or "."
        os.makedirs(out, exist_ok=True)
        outputs = _COMMANDS[experiment][0](experiment, cfg, raw, out)
        harness.write_manifest(os.path.join(out, "manifest.json"), experiment, cfg, outputs)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
