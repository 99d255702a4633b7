"""In-memory span tracer for the per-layer split of a benchmark run.

The layers are the modules of ``blockboot``.  Tracing rebinds names where the
importing module looks them up: every public function that one layer module
imports from another (``harness.simulate_batch``, ``estimators.block_averaged_quantile``,
``tuning.quantile_deviation_prob``, ...) plus the experiment entry points that
``cli`` calls as ``harness.<name>``.  Nothing inside ``src/`` changes, private
functions are never wrapped, and :meth:`Tracer.installed` restores every
rebound name on exit.

Self time is a span's duration minus the time of its child spans, including
the wrapper bookkeeping of those children, so the tracer's own cost is not
charged to any layer.  Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import math
import time

LAYERS = ("cli", "harness", "tuning", "estimators", "resample", "empirical", "models", "seeding")

# Experiment functions that ``cli`` calls through the ``harness`` module object.
HARNESS_ENTRY_POINTS = ("reference_value", "mse_grid", "cdf_mse_grid", "coverage_grid", "adaptive_study", "rate_study")

# Estimator functions whose block-start draws run inside their own self time.
_DRAWING_ESTIMATORS = ("quantile_deviation_prob", "cdf_deviation_prob")
_CENTERING = ("block_averaged_quantile", "block_averaged_cdf")

# Spans are kept for this many rounds; totals cover every round.  This bounds
# memory on long runs of many small calls.
SPAN_ROUNDS = 5

_clock = time.perf_counter_ns


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class RoundStats:
    """Per-layer totals for one traced round (one ``cli.main`` call)."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.series = 0
        self.draws = 0
        self.pasted_values = 0
        self.bytes_computed = 0
        self.center_calls = 0
        self.center_keys: set = set()
        self.estimator_call_ns: list[int] = []

    def metrics(self) -> dict:
        """Per-layer metrics of this round, keyed as in ``BENCHMARK.json``."""
        est_us = sorted(ns / 1e3 for ns in self.estimator_call_ns)
        out = {}
        for layer in LAYERS:
            if layer not in ("cli", "harness"):  # one entry-point call per round
                out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        out.update(
            {
                "models.series": self.series,
                "empirical.center_reuse": len(self.center_keys) / self.center_calls if self.center_calls else 0.0,
                "resample.pasted_values": self.pasted_values,
                "resample.bytes_computed": self.bytes_computed,
                "estimators.call_us_p50": _percentile(est_us, 0.50),
                "estimators.call_us_p99": _percentile(est_us, 0.99),
                "estimators.draws": self.draws,
                "estimators.ns_per_draw": self.self_ns["estimators"] / self.draws if self.draws else 0.0,
            }
        )
        return out


def _percentile(sorted_values, q):
    """Nearest-rank percentile (0 for an empty list)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Tracer:
    """Collects spans (first ``SPAN_ROUNDS`` rounds) and per-layer totals while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span_id, parent_id, round, layer, name, start_ns, end_ns)
        self.round = 0
        self.stats = RoundStats()
        self._rounds = 0
        self._stack: list[list] = []  # frames: [span_id, child_ns]
        self._next_id = 1

    def start_round(self, index: int) -> RoundStats:
        self.round = index
        self.stats = RoundStats()
        self._rounds += 1
        return self.stats

    def call(self, layer: str, name: str, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` as a span of ``layer``."""
        kwargs = kwargs or {}
        enter = _clock()
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1][0] if self._stack else 0
        frame = [span_id, 0]
        self._stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            duration = end - start
            stats = self.stats
            stats.calls[layer] += 1
            stats.self_ns[layer] += duration - frame[1]
            if self._rounds <= SPAN_ROUNDS:
                self.spans.append((span_id, parent_id, self.round, layer, name, start, end))
            self._count(stats, layer, name, args, kwargs, duration)
            if self._stack:
                self._stack[-1][1] += _clock() - enter

    @staticmethod
    def _count(stats, layer, name, args, kwargs, duration):
        if name == "simulate_batch":
            stats.series += int(_arg(args, kwargs, 2, "count"))
        elif name in _CENTERING:
            values = _arg(args, kwargs, 0, "series")
            stats.center_calls += 1
            stats.center_keys.add((memoryview(values).tobytes(), int(_arg(args, kwargs, 1, "block_length"))))
        elif name == "bootstrap_quantile_distribution":
            rp = _arg(args, kwargs, 1, "rp")
            b, ell = rp.plan.n_blocks, rp.plan.block_length
            pasted = rp.n_boot * b * ell
            stats.pasted_values += pasted
            # Computed from array sizes, not measured: int64 start matrix,
            # float64 pasted windows and float64 statistics.
            stats.bytes_computed += 8 * (rp.n_boot * b + pasted + rp.n_boot)
        if layer == "estimators":
            stats.estimator_call_ns.append(duration)
            if name in _DRAWING_ESTIMATORS:
                rp = _arg(args, kwargs, 1, "rp")
                stats.draws += rp.n_boot * rp.plan.n_blocks

    def _wrap(self, layer: str, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(layer, name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Rebind traced names in ``modules`` (layer name -> module); restore on exit."""
        saved = []
        by_module = {module.__name__: layer for layer, module in modules.items()}
        try:
            for layer, module in modules.items():
                for name, obj in list(vars(module).items()):
                    if name.startswith("_") or not inspect.isfunction(obj):
                        continue
                    owner = by_module.get(obj.__module__)
                    if owner is not None and owner != layer:
                        saved.append((module, name, obj))
                        setattr(module, name, self._wrap(owner, name, obj))
            harness = modules["harness"]
            for name in HARNESS_ENTRY_POINTS:
                obj = getattr(harness, name, None)
                if obj is None:
                    continue
                saved.append((harness, name, obj))
                setattr(harness, name, self._wrap("harness", name, obj))
            yield self
        finally:
            for module, name, obj in reversed(saved):
                setattr(module, name, obj)

    def write_spans(self, path: str) -> None:
        """Write every recorded span as CSV (times in ns of ``perf_counter``)."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("span_id", "parent_id", "round", "layer", "name", "start_ns", "end_ns"))
            writer.writerows(self.spans)
