"""Alternating parent/change runs of the benchmark, summarised into ``BENCH_<pr>.json``.

Usage (from the repository root)::

    python3 scripts/bench_pairs.py --pr N --parent REV --seed 100 \\
        coverage_grid=10 mse_grid=3 tune=3 reference=3

The parent commit's files are extracted with ``git archive`` into a temporary
directory; the change is this checkout's working tree.  For each
``workload=pairs`` argument, pair ``i`` runs ``benchmarks/run.py --workload
<workload> --seed <seed + i> --seconds <run_seconds> --trace 0`` once on each
side, with the ``run_seconds`` that ``BENCHMARK.json`` declares, the parent
first in even pairs and the change first in odd ones.  For every
end-to-end metric that ``BENCHMARK.json`` declares, the output holds each
side's runs, median and quartiles, the change's median relative to the
parent's, and the share of pairs the change wins (ties count for neither),
plus the failed and attempted rounds and the environment ``run.py`` prints.
Each workload's ``worse`` lists the metrics whose change median is worse than
the parent's by more than the metric's ``bound``.  Its ``unresolved`` lists the
metrics too noisy to judge: the parent's interquartile range exceeds ``bound``
times the parent's median, and not every change run beats every parent run.
Both lists are also printed to stderr.
``src_lines`` holds each side's physical lines of ``src/**/*.py``, counted as
``wc -l`` counts them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    """Write the files of commit ``rev`` under ``into``."""
    archive = into / "tree.tar"
    with open(archive, "wb") as handle:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=handle, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` run in ``checkout``: its result line plus the environment line."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment"] = next(json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("environment: "))
    return result


def src_lines(checkout: Path) -> int:
    """Newline characters in the ``src/**/*.py`` files of ``checkout``: their total under ``wc -l``."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarise(metric: dict, parent: list[dict], change: list[dict]) -> dict:
    name, lower_is_better = metric["name"], metric["better"] == "lower"
    before = [run["metrics"][name]["value"] for run in parent]
    after = [run["metrics"][name]["value"] for run in change]
    wins = sum((a < b) if lower_is_better else (a > b) for a, b in zip(after, before))
    summary = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"], "parent": spread(before), "change": spread(after)}
    summary["change_vs_parent"] = summary["change"]["median"] / summary["parent"]["median"] - 1.0
    summary["win_fraction"] = wins / len(before)
    summary["parent_iqr"] = summary["parent"]["q3"] - summary["parent"]["q1"]
    return summary


def worse(metrics: dict) -> list[str]:
    """Names of the ``summarise`` outputs whose change median is worse than the parent's by more than their ``bound``."""
    return [name for name, summary in metrics.items() if summary["change_vs_parent"] * (1 if summary["better"] == "lower" else -1) > summary["bound"]]


def unresolved(metrics: dict) -> list[str]:
    """Names of the ``summarise`` outputs whose parent IQR exceeds ``bound`` times the parent median, unless every
    change run beats every parent run."""
    names = []
    for name, summary in metrics.items():
        before, after = summary["parent"]["runs"], summary["change"]["runs"]
        separated = max(after) < min(before) if summary["better"] == "lower" else min(after) > max(before)
        if summary["parent_iqr"] > summary["bound"] * summary["parent"]["median"] and not separated:
            names.append(name)
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--parent", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("pairs", nargs="+", help="workload=pairs, e.g. coverage_grid=10")
    args = parser.parse_args(argv)
    plan = {name: int(count) for name, count in (item.split("=", 1) for item in args.pairs)}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]

    out = {"pr": args.pr, "parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD"), "change_tree_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    out.update(seconds=seconds, trace=0, first_seed=args.seed, workloads={})
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        extract(args.parent, Path(tmp))
        sides = {"parent": Path(tmp) / "tree", "change": ROOT}
        out["src_lines"] = {side: src_lines(checkout) for side, checkout in sides.items()}
        for workload, count in plan.items():
            runs = {"parent": [], "change": []}
            for i in range(count):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(sides[side], workload, args.seed + i, seconds))
                    print(f"{workload} pair {i} {side}: " + json.dumps(runs[side][-1]["metrics"]), file=sys.stderr, flush=True)
            out.setdefault("environment", runs["change"][0]["environment"])
            out["workloads"][workload] = {
                "pairs": count,
                "seeds": [args.seed + i for i in range(count)],
                "failed_rounds": {side: sum(run["failed"] for run in runs[side]) for side in runs},
                "attempted_rounds": {side: sum(run["attempted"] for run in runs[side]) for side in runs},
                "metrics": {metric["name"]: summarise(metric, runs["parent"], runs["change"]) for metric in declared["end_to_end"]},
            }
            summary = out["workloads"][workload]
            summary["worse"], summary["unresolved"] = worse(summary["metrics"]), unresolved(summary["metrics"])
            print(f"{workload} worse than the parent past the bound: {summary['worse'] or 'none'}; unresolved: {summary['unresolved'] or 'none'}", file=sys.stderr, flush=True)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
