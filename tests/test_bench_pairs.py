"""The benchmark pair summary flags a metric only when its change median is worse than the parent's past its bound."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

WALL = {"name": "wall_cal", "unit": "cal", "better": "lower", "bound": 0.2}
ITEMS = {"name": "items_per_cal", "unit": "1/cal", "better": "higher", "bound": 0.2}


def runs(wall, items):
    return [{"metrics": {"wall_cal": {"value": w}, "items_per_cal": {"value": i}}} for w, i in zip(wall, items)]


def test_summarise_medians_wins_and_quartiles():
    parent, change = runs([4.0, 5.0, 6.0, 4.5], [10, 12, 11, 9]), runs([3.0, 5.5, 2.0, 4.5], [13, 11, 15, 9])
    wall = bench_pairs.summarise(WALL, parent, change)
    assert wall["parent"]["median"] == 4.75 and wall["change"]["median"] == 3.75
    assert wall["change_vs_parent"] == pytest.approx(3.75 / 4.75 - 1)
    assert wall["win_fraction"] == 0.5  # 3.0 < 4.0 and 2.0 < 6.0; the tie 4.5 counts for neither side
    assert wall["parent_iqr"] == pytest.approx(wall["parent"]["q3"] - wall["parent"]["q1"]) and wall["parent_iqr"] > 0
    items = bench_pairs.summarise(ITEMS, parent, change)
    assert items["win_fraction"] == 0.5 and items["bound"] == 0.2 and items["better"] == "higher"


@pytest.mark.parametrize(
    ("wall", "items", "flagged"),
    [
        ([1.0] * 3, [100] * 3, []),
        ([1.19] * 3, [81] * 3, []),  # worse, within both bounds
        ([1.3] * 3, [100] * 3, ["wall_cal"]),  # lower is better, and the median rose 30%
        ([0.5] * 3, [70] * 3, ["items_per_cal"]),  # higher is better, and the median fell 30%
        ([1.5] * 3, [60] * 3, ["wall_cal", "items_per_cal"]),
        ([0.1] * 3, [500] * 3, []),  # better by far on both
    ],
)
def test_worse_flags_metrics_past_their_bound(wall, items, flagged):
    parent, change = runs([1.0] * 3, [100] * 3), runs(wall, items)
    metrics = {metric["name"]: bench_pairs.summarise(metric, parent, change) for metric in (WALL, ITEMS)}
    assert bench_pairs.worse(metrics) == flagged


@pytest.mark.parametrize(
    ("parent_wall", "change_wall", "flagged"),
    [
        ([1.0, 1.0, 1.0, 1.0], [1.5, 0.5, 1.0, 1.2], []),  # a steady parent resolves any change
        ([1.0, 1.1, 0.9, 1.05], [1.3, 1.3, 1.3, 1.3], []),  # IQR/median 0.09 is within the 0.2 bound
        ([0.6, 1.0, 1.4, 1.8], [1.0, 1.1, 0.9, 1.2], ["wall_cal"]),  # IQR/median 0.5 and the runs overlap
        ([0.6, 1.0, 1.4, 1.8], [0.3, 0.4, 0.5, 0.55], []),  # as noisy, but every change run beats every parent run
        ([0.6, 1.0, 1.4, 1.8], [0.3, 0.4, 0.5, 0.6], ["wall_cal"]),  # a tie with the best parent run is not a win
    ],
)
def test_unresolved_flags_noisy_parents_unless_the_runs_separate(parent_wall, change_wall, flagged):
    parent, change = runs(parent_wall, [100] * 4), runs(change_wall, [100] * 4)
    metrics = {metric["name"]: bench_pairs.summarise(metric, parent, change) for metric in (WALL, ITEMS)}
    assert bench_pairs.unresolved(metrics) == flagged


def test_unresolved_reads_the_direction_of_better():
    # items_per_cal is better higher: a noisy parent is resolved only when every change run is above every parent run.
    parent = runs([1.0] * 4, [60, 100, 140, 180])
    metrics = {"items_per_cal": bench_pairs.summarise(ITEMS, parent, runs([1.0] * 4, [190, 200, 210, 220]))}
    assert bench_pairs.unresolved(metrics) == []
    metrics = {"items_per_cal": bench_pairs.summarise(ITEMS, parent, runs([1.0] * 4, [10, 20, 30, 40]))}
    assert bench_pairs.unresolved(metrics) == ["items_per_cal"]
