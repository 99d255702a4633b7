"""CLI-level Monte Carlo benchmark for ``blockboot``.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload mse_grid --seed 1 --seconds 10 --trace 0

One run drives a ``blockboot`` subcommand in-process through ``cli.main``,
single-process (``--workers 1``) with BLAS threads pinned to 1.  Each round is
one ``cli.main`` call on a fixed amount of work (see ``workloads.py``) with its
master seed derived from ``--seed``, into a fresh output directory whose CSVs
are checked; a round that fails its checks counts as failed.  One warm-up
round runs first, then rounds repeat until ``--seconds`` have passed.

Each round's wall time (``cli.main`` entry to return) is divided by the wall
time of the workload's section of the fixed calibration kernel in
``calibration.py``, run just before it: on a shared host that ratio stays
steady while raw seconds drift with other tenants' load.  ``--trace 0`` reports the end-to-end metrics: the median over
rounds of ``wall_cal`` (round wall time in kernel units) and ``items_per_cal``
(work items per kernel unit), ``setup_s`` (median of fresh interpreters
importing ``blockboot.cli`` and parsing the config) and ``peak_rss_mb`` of this
process.  ``--trace 1`` alternates untraced and traced rounds on the same
seeds, requires their output files to be byte-identical, and reports
per-layer medians over the traced rounds plus ``trace.overhead_s`` (median
traced minus untraced wall seconds of a pair).

The last stdout line is the JSON result; the lines before it give the raw
wall seconds and the environment.  Round outputs, spans and a full result
file go under ``.bench_runs/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Round:
    index: int
    seed: int
    out_dir: str
    traced: bool
    wall_s: float = 0.0
    cal_s: float = 0.0
    items: int = 0
    problems: list = field(default_factory=list)
    layers: dict | None = None


def load_layers() -> dict:
    """Import ``blockboot`` from the source tree; return layer name -> module."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from blockboot import cli, empirical, estimators, harness, models, resample, seeding, tuning

    return {
        "cli": cli,
        "harness": harness,
        "tuning": tuning,
        "estimators": estimators,
        "resample": resample,
        "empirical": empirical,
        "models": models,
        "seeding": seeding,
    }


def write_config(path: str, cfg: dict) -> None:
    # JSON is valid YAML, and keeps the file free of formatting choices.
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(cfg, handle, indent=2, sort_keys=True)


def run_round(cli, workload: workloads.Workload, index: int, seed: int, out_dir: str, trace: tracer.Tracer | None = None) -> Round:
    """One ``cli.main`` call into ``out_dir``, timed and checked."""
    rnd = Round(index=index, seed=seed, out_dir=out_dir, traced=trace is not None)
    cfg = workload.config(seed)
    rnd.items = workload.items(cfg)
    if os.path.exists(os.path.join(out_dir, "reference_cache.json")):
        rnd.problems.append("reference_cache.json existed before the run")
    os.makedirs(out_dir, exist_ok=True)
    cfg_path = os.path.join(out_dir, "config.yaml")
    write_config(cfg_path, cfg)
    argv = [workload.command, "--config", cfg_path, "--out", out_dir, "--workers", "1"]
    stats = trace.start_round(index) if trace is not None else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv) if trace is None else trace.call("cli", "main", cli.main, (argv,))
    except Exception:
        rnd.problems.append("cli.main raised:\n" + traceback.format_exc())
        return rnd
    finally:
        rnd.wall_s = time.perf_counter() - start
    if stats is not None:
        rnd.layers = stats.metrics()
    if code != 0:
        rnd.problems.append(f"cli.main returned {code}")
        return rnd
    missing = [name for name in workload.outputs if not os.path.exists(os.path.join(out_dir, name))]
    if missing:
        rnd.problems.append(f"missing outputs: {missing}")
        return rnd
    try:
        rnd.problems.extend(workload.check(out_dir, cfg))
    except (OSError, KeyError, ValueError) as exc:
        rnd.problems.append(f"output check raised {exc!r}")
    return rnd


def differing_outputs(dir_a: str, dir_b: str) -> list[str]:
    """Files that differ (or exist on one side only) between two round directories."""
    names = sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b)))
    _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    return mismatch + errors


def measure_setup(workload: workloads.Workload, config_path: str) -> list[float]:
    """Seconds from process start to ``blockboot.cli`` imported and the config parsed."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC), workload.command, config_path],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {done.returncode}):\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def end_to_end_metrics(measured: list[Round], setup: list[float]) -> dict:
    timed = [r for r in measured if not r.problems] or measured
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_cal": {"value": statistics.median(r.wall_s / r.cal_s for r in timed), "unit": "cal"},
        "items_per_cal": {"value": statistics.median(r.items * r.cal_s / r.wall_s for r in timed), "unit": "1/cal"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def raw_seconds(measured: list[Round]) -> dict:
    walls = [r.wall_s for r in measured]
    return {"wall_s_median": statistics.median(walls), "wall_s_min": min(walls), "cal_s_median": statistics.median(r.cal_s for r in measured)}


_UNITS = {"calls": "count", "self_s": "s", "series": "count", "center_reuse": "ratio", "pasted_values": "count", "bytes_computed": "bytes", "call_us_p50": "us", "call_us_p99": "us", "draws": "count", "ns_per_draw": "ns"}


def per_layer_metrics(pairs: list[tuple[Round, Round]]) -> dict:
    traced = [t for _, t in pairs if t.layers is not None]
    out = {}
    for key in traced[0].layers:
        out[key] = {"value": statistics.median(r.layers[key] for r in traced), "unit": _UNITS[key.split(".", 1)[1]]}
    out["trace.overhead_s"] = {"value": statistics.median(t.wall_s - p.wall_s for p, t in pairs), "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blockboot" / "cli.py").is_file():
        print(f"error: blockboot sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"

    workload = workloads.WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-seed{args.seed}-trace{args.trace}-", dir=RUNS)
    setup = []
    if not args.trace:
        probe_config = os.path.join(run_dir, "probe_config.yaml")
        write_config(probe_config, workload.config(workloads.round_seed(args.seed, 0)))
        setup = measure_setup(workload, probe_config)

    layers = load_layers()
    cli = layers["cli"]
    env = environment()
    trace = tracer.Tracer() if args.trace else None

    def attempt(index: int, traced: bool) -> Round:
        seed = workloads.round_seed(args.seed, index)
        out_dir = os.path.join(run_dir, f"round{index:03d}{'-traced' if traced else ''}")
        cal_s = calibration.section_s(workload.calibration)
        if not traced:
            rnd = run_round(cli, workload, index, seed, out_dir)
        else:
            with trace.installed(layers):
                rnd = run_round(cli, workload, index, seed, out_dir, trace=trace)
        rnd.cal_s = cal_s
        return rnd

    rounds = [attempt(0, False)]  # warm-up: lazy set-up and caches, not timed
    pairs = []
    deadline = time.perf_counter() + args.seconds
    index = 1
    while True:
        plain = attempt(index, False)
        rounds.append(plain)
        if trace is not None:
            traced = attempt(index, True)
            if not plain.problems and not traced.problems:
                differ = differing_outputs(plain.out_dir, traced.out_dir)
                if differ:
                    traced.problems.append(f"traced outputs differ from untraced: {differ}")
            rounds.append(traced)
            pairs.append((plain, traced))
        index += 1
        if time.perf_counter() >= deadline:
            break

    for rnd in rounds:
        if rnd.problems:
            print(f"round {rnd.index}{' (traced)' if rnd.traced else ''} seed {rnd.seed} failed:", *rnd.problems, sep="\n  ", file=sys.stderr)
        else:
            shutil.rmtree(rnd.out_dir)

    measured = [r for r in rounds[1:] if not r.traced]
    if trace is None:
        metrics = end_to_end_metrics(measured, setup)
    else:
        metrics = per_layer_metrics(pairs)
        trace.write_spans(os.path.join(run_dir, "spans.csv"))
    raw = raw_seconds(measured)
    failed = sum(1 for r in rounds if r.problems)
    result = {"correct": failed == 0, "attempted": len(rounds), "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_samples_s": setup,
        "raw": raw,
        "rounds": [{"index": r.index, "seed": r.seed, "traced": r.traced, "wall_s": r.wall_s, "cal_s": r.cal_s, "items": r.items, "failed": bool(r.problems)} for r in rounds],
        **result,
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=2)
    print("raw: " + json.dumps(raw))
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
