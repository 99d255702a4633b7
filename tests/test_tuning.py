import math
from dataclasses import replace

import numpy as np
import pytest

from blockboot import estimators
from blockboot.estimators import quantile_deviation_probs
from blockboot.resample import BlockPlan, exact_quantile_distribution
from blockboot.seeding import substream
from blockboot.tuning import (
    _TUNE_TAG,
    NoFeasiblePlanError,
    TuneConfig,
    default_subsample_len,
    grid_diagnostics,
    plan_from_constants,
    select_plan,
    subsample_starts,
)


class TestPlanFromConstants:
    def test_exact_cubes(self):
        assert plan_from_constants(512, 1.0, 1.0) == BlockPlan(8, 8)
        assert plan_from_constants(1728, 1.5, 1.5) == BlockPlan(18, 18)
        assert plan_from_constants(1000, 1.0, 1.0) == BlockPlan(10, 10)

    def test_candidate_sets_at_study_sizes(self):
        for_512 = sorted({plan_from_constants(512, c, c).n_blocks for c in (0.5, 0.75, 1.0, 1.5, 2.0)})
        assert for_512 == [4, 6, 8, 12, 16]
        for_1728 = sorted({plan_from_constants(1728, c, c).n_blocks for c in (0.5, 0.75, 1.0, 1.5, 2.0)})
        assert for_1728 == [6, 9, 12, 18, 24]

    def test_degenerate_plan_rejected(self):
        with pytest.raises(ValueError):
            plan_from_constants(8, 0.1, 1.0)
        with pytest.raises(ValueError):
            plan_from_constants(8, 1.0, 0.1)
        with pytest.raises(ValueError):
            plan_from_constants(8, 1.0, 10.0)


class TestSubsampleStarts:
    def test_whole_series_single_start(self):
        assert np.array_equal(subsample_starts(10, 10, 5), [0])

    def test_arithmetic_example(self):
        assert np.array_equal(subsample_starts(10, 4, 3), [0, 3, 6])

    def test_twenty_equally_spaced(self):
        starts = subsample_starts(512, 64, 20)
        assert starts.size == 20
        assert starts[0] == 0 and starts[-1] == 448
        gaps = np.diff(starts)
        assert gaps.max() - gaps.min() <= 1

    def test_all_subsamples(self):
        assert np.array_equal(subsample_starts(10, 4, 0), np.arange(7))

    def test_validation(self):
        with pytest.raises(ValueError):
            subsample_starts(5, 6, 3)
        with pytest.raises(ValueError):
            subsample_starts(10, 4, 1)

    def test_deduplication(self):
        starts = subsample_starts(10, 9, 5)
        assert np.array_equal(starts, [0, 1])

    def test_default_length_heuristic(self):
        assert default_subsample_len(512) == 64
        assert default_subsample_len(100) == 32
        assert default_subsample_len(16) == 16


def make_cfg(**overrides):
    base = dict(c1_grid=(0.5, 1.0), c2_grid=(0.5, 1.0), x=1.0, n_boot=60, seed=5, subsample_len=27, subsample_count=4)
    base.update(overrides)
    return TuneConfig(**base)


def cell_diagnostics(values, cfg, c1, c2):
    """Diagnostics of the one candidate ``(c1, c2)``, from a single-cell grid."""
    (cell,) = grid_diagnostics(values, replace(cfg, c1_grid=(c1,), c2_grid=(c2,)))
    return cell


class TestTuningError:
    def test_constant_series_zero(self):
        values = np.full(64, 2.0)
        assert cell_diagnostics(values, make_cfg(), 1.0, 1.0).err == 0.0

    def test_full_series_subsample_shares_seed(self):
        values = substream(51).standard_normal(64)
        cfg = make_cfg(subsample_len=64, subsample_count=0)
        assert cell_diagnostics(values, cfg, 1.0, 1.0).err == 0.0

    def test_bounded_for_rho_at_least_one(self):
        rng = substream(52)
        for _ in range(10):
            values = rng.standard_normal(72)
            rho = float(rng.uniform(1.0, 3.0))
            err = cell_diagnostics(values, make_cfg(rho=rho), 1.0, 1.0).err
            assert 0.0 <= err <= 1.0

    def test_matches_flat_loop_reimplementation(self):
        # Flat reimplementation via the enumerated exact distribution, an
        # independent evaluation route sharing only the draw: one binomial per
        # cell from the generator of the window (start, length).
        values = substream(53).standard_normal(40)
        cfg = make_cfg(subsample_len=16, subsample_count=3, n_boot=30, rho=2.0)
        c1, c2 = 1.0, 0.5
        got = cell_diagnostics(values, cfg, c1, c2).err

        def estimate(start, length):
            g = exact_quantile_distribution(values[start : start + length], plan_from_constants(length, c1, c2), 0.5).cdf(1.0)
            return substream(cfg.seed, _TUNE_TAG, start, length).binomial(30, g) / 30

        g_full = estimate(0, 40)
        assert got == np.mean([abs(estimate(start, 16) - g_full) ** 2 for start in [0, 12, 24]])

    @pytest.mark.parametrize("budget", [None, 5000, 1])
    @pytest.mark.parametrize("n_boot", [None, 60])
    def test_stacked_windows_equal_per_window_calls(self, monkeypatch, n_boot, budget):
        # The full series and all 264 subsamples of n = 300 (M = 37): a full-series window charges 900 values (3 cells
        # to a block length), so that is one kernel call holding both lengths, 5 windows a call (the first holding both
        # lengths, the subsamples split over 53 calls), or one window a call.
        if budget is not None:
            monkeypatch.setattr(estimators, "_STACK_BUDGET", budget)
        kernel = estimators.count_sum_tails
        made = []
        monkeypatch.setattr(estimators, "count_sum_tails", lambda *args: made.append(1) or kernel(*args))
        values, n, m = substream(55).standard_normal(300), 300, 37
        cfg = make_cfg(c1_grid=(0.5, 1.0, 2.0), c2_grid=(0.5, 1.0, 2.0), n_boot=n_boot, subsample_len=None, subsample_count=0)
        diags = [d for d in grid_diagnostics(values, cfg) if d.plan is not None]

        def probs(start, size):
            rng = None if n_boot is None else substream(cfg.seed, _TUNE_TAG, start, size)
            plans = [plan_from_constants(size, d.c1, d.c2) for d in diags]
            return quantile_deviation_probs(values[start : start + size], plans, cfg.p, cfg.x, n_boot, rng).tolist()

        g_full = probs(0, n)
        deviations = [[abs(g_sub - g) ** cfg.rho for g_sub, g in zip(probs(start, m), g_full)] for start in range(n - m + 1)]
        assert len(diags) == 9 and [d.full_sample_prob for d in diags] == g_full
        assert [d.err for d in diags] == [float(np.mean(cell)) for cell in zip(*deviations)]
        assert len(made) == {None: 1, 5000: 53, 1: 265}[budget] + 1 + (n - m + 1)  # and one per per-window call

    def test_single_block_grid_splits_into_bounded_batches(self, monkeypatch):
        # b = 1 laws put no rows in a kernel stack, so the window counts alone set the batch: 2,000 values hold 6 of
        # the 151 windows of M = 150 (300 values each, the full series' charge), never all of them.
        values, budget = substream(56).standard_normal(300), 2000
        cfg = make_cfg(c1_grid=(0.25,), c2_grid=(1.0, 2.0), n_boot=None, subsample_len=150, subsample_count=0)
        expected = grid_diagnostics(values, cfg)
        assert all(d.plan.n_blocks == 1 for d in expected)
        monkeypatch.setattr(estimators, "_STACK_BUDGET", budget)
        counted, sizes = estimators.window_counts, []

        def recorded(*args):
            counts = counted(*args)
            sizes.append(counts.size)
            return counts

        monkeypatch.setattr(estimators, "window_counts", recorded)
        assert grid_diagnostics(values, cfg) == expected
        # 26 batches, a pass per block length and window length; the first batch also holds the full series.
        assert len(sizes) == 2 * 26 + 2 and max(sizes) <= budget

    def test_degenerate_constants_raise(self):
        values = substream(54).standard_normal(64)
        cell = cell_diagnostics(values, make_cfg(), 0.05, 1.0)
        assert cell.plan is None and math.isnan(cell.err)
        with pytest.raises(ValueError):
            select_plan(values, make_cfg(c1_grid=(0.05,), c2_grid=(1.0,)))


class TestSelectPlan:
    def test_single_cell_grid(self):
        values = substream(55).standard_normal(64)
        cfg = make_cfg(c1_grid=(1.0,), c2_grid=(1.0,))
        result = select_plan(values, cfg)
        assert (result.c1, result.c2) == (1.0, 1.0)
        assert result.plan == plan_from_constants(64, 1.0, 1.0)
        assert len(result.table) == 1

    def test_only_feasible_cell_selected(self):
        values = substream(56).standard_normal(64)
        cfg = make_cfg(c1_grid=(0.05, 1.0), c2_grid=(1.0,))
        result = select_plan(values, cfg)
        assert result.c1 == 1.0
        assert math.isnan(result.table[0].err)

    def test_all_zero_ties_break_to_smaller_c2_then_c1(self):
        values = np.full(64, 1.5)
        cfg = make_cfg(c1_grid=(1.0, 0.5), c2_grid=(1.0, 0.5))
        result = select_plan(values, cfg)
        assert (result.c1, result.c2) == (0.5, 0.5)

    def test_no_feasible_plan(self):
        values = substream(57).standard_normal(64)
        cfg = make_cfg(c1_grid=(0.01,), c2_grid=(0.01,))
        with pytest.raises(NoFeasiblePlanError):
            select_plan(values, cfg)

    def test_selection_is_tabulated_minimum(self):
        values = substream(58).standard_normal(80)
        cfg = make_cfg(subsample_len=32)
        result = select_plan(values, cfg)
        feasible = [cell.err for cell in result.table if cell.plan is not None]
        chosen = [cell.err for cell in result.table if (cell.c1, cell.c2) == (result.c1, result.c2)]
        assert chosen[0] == min(feasible)

    def test_determinism(self):
        values = substream(59).standard_normal(64)
        a = select_plan(values, make_cfg())
        b = select_plan(values, make_cfg())
        assert (a.c1, a.c2, a.plan) == (b.c1, b.c2, b.plan)
        assert all(x.err == y.err for x, y in zip(a.table, b.table))

    def test_subsample_order_invariance(self):
        # A cell's error under the exact law does not depend on the other
        # candidates.  Under Monte Carlo each window's generator draws in cell
        # order, so only the first cell draws as it would alone.
        values = substream(60).standard_normal(64)
        for cfg in (make_cfg(n_boot=None), make_cfg()):
            diags = grid_diagnostics(values, cfg)
            for cell in diags if cfg.n_boot is None else diags[:1]:
                again = cell_diagnostics(values, cfg, cell.c1, cell.c2)
                assert again.err == cell.err


def test_grid_diagnostics_row_order():
    values = substream(61).standard_normal(64)
    cfg = make_cfg(c1_grid=(0.5, 1.0), c2_grid=(0.5, 1.0))
    cells = [(d.c1, d.c2) for d in grid_diagnostics(values, cfg)]
    assert cells == [(0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0)]
