"""End-to-end acceptance gate.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (visible with
``pytest -s``) and asserts the criterion at its stated tolerance.  The heavy
criteria run the Monte Carlo experiments at desk scale on a single machine;
the whole module takes roughly 15-25 minutes on one CPU.  Reference
simulations are cached in ``tests/_ref_cache.json`` across runs.
"""

import math
import time

import numpy as np
import pytest
import yaml

from blockboot.cli import main as cli_main
from blockboot.empirical import block_averaged_cdf, block_averaged_quantile, empirical_cdf, sample_quantile
from blockboot.harness import ExperimentConfig, GridSpec, adaptive_study, mse_grid, cdf_mse_grid, rate_study
from blockboot.models import arma11_model, poly_mixing_model, squared_arma23_model
from blockboot.resample import (
    BlockPlan,
    bootstrap_quantile_distribution,
    exact_quantile_distribution,
)
from blockboot.seeding import substream

# Frozen desk-scale targets for the n=200 quantile experiment at x=1 and the
# n=100 CDF experiment at (x, y) = (0, 0.9).
TARGET_G200_ARMA11 = 0.67978
TARGET_G200_ARMA23SQ = 0.09276
TARGET_G200_POLYMIX = 0.95229
TARGET_CDF100 = 0.89501

MIN_MSE_HYBRID = 0.00472
MIN_MSE_MBB = 0.00637
MIN_MSE_SUBSAMPLING = 0.00754


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


class TestCriterion1OracleEquivalence:
    def test_monte_carlo_matches_exact_enumeration(self):
        start = time.monotonic()
        rng = substream(2024)
        n_boot = 200_000
        checked = 0
        for instance in range(20):
            n = int(rng.integers(4, 11))
            ell = int(rng.integers(1, min(3, n) + 1))
            b = int(rng.integers(1, 4))
            p = int(rng.integers(1, 10)) / 10
            values = rng.standard_normal(n)
            assert (n - ell + 1) ** b <= 10**4
            exact = exact_quantile_distribution(values, BlockPlan(b, ell), p)
            mc = bootstrap_quantile_distribution(values, BlockPlan(b, ell), p, n_boot, substream(9000 + instance))
            exact_cdf = np.cumsum(exact.counts) / exact.total
            for atom, q in zip(exact.values, exact_cdf):
                tol = 3 * math.sqrt(q * (1 - q) / n_boot)
                assert abs(mc.cdf(atom) - q) <= tol + 1e-12
                checked += 1
        elapsed = time.monotonic() - start
        report(1, elapsed < 60, f"{checked} atom CDF values across 20 instances within 3-sigma, {elapsed:.1f}s")
        assert elapsed < 60


class TestCriterion2ReductionIdentities:
    def test_unit_block_length_reductions_are_exact(self):
        rng = substream(2025)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            values = rng.standard_normal(n)
            p = int(rng.integers(1, 10)) / 10
            assert block_averaged_quantile(values, 1, p) == sample_quantile(values, p)
            xs = np.concatenate([values, rng.standard_normal(5)])
            assert np.array_equal(block_averaged_cdf(values, 1, xs), empirical_cdf(values, xs))
        report(2, True, "block length 1 reduces to the plain empirical CDF/quantile on 100 series")

    def test_single_block_support(self):
        rng = substream(2026)
        for trial in range(10):
            n = int(rng.integers(6, 25))
            ell = int(rng.integers(2, min(6, n) + 1))
            values = rng.standard_normal(n)
            p = int(rng.integers(1, 10)) / 10
            plan = BlockPlan(1, ell)
            exact = exact_quantile_distribution(values, plan, p)
            mc = bootstrap_quantile_distribution(values, plan, p, 500, substream(400 + trial))
            assert set(mc.values).issubset(set(exact.values))
            assert exact.total == n - ell + 1
        report(2, True, "single-block Monte Carlo support lies in the n-ell+1 block statistics")


class TestCriterion3ReferenceReproduction:
    N_SIMS = 1_000_000
    TOL = 0.005

    @pytest.mark.parametrize(
        "label,model,n,kind,x,y,target",
        [
            ("arma11 G200(1)", arma11_model(), 200, "quantile", 1.0, None, TARGET_G200_ARMA11),
            ("arma23sq G200(-1.5)", squared_arma23_model(), 200, "quantile", -1.5, None, TARGET_G200_ARMA23SQ),
            ("polymix G200(2)", poly_mixing_model(), 200, "quantile", 2.0, None, TARGET_G200_POLYMIX),
            ("arma11 CDF100(0, 0.9)", arma11_model(), 100, "cdf", 0.0, 0.9, TARGET_CDF100),
            ("arma11 CDF200(0, 0.9)", arma11_model(), 200, "cdf", 0.0, 0.9, 0.87781),
            ("arma23sq G512(1)", squared_arma23_model(), 512, "quantile", 1.0, None, 0.80952),
        ],
    )
    def test_reference_targets(self, ref_cache, label, model, n, kind, x, y, target):
        ref = ref_cache.get_or_compute(model, n, kind, x, y=y, n_sims=self.N_SIMS, seed=0)
        ok = abs(ref.value - target) <= self.TOL
        report(3, ok, f"{label} = {ref.value:.5f} vs {target:.5f} (tol {self.TOL})")
        assert ok


class TestCriterion4HeatmapStructure:
    def test_full_desk_scale_surface(self, ref_cache):
        start = time.monotonic()
        ref = ref_cache.get_or_compute(arma11_model(), 200, "quantile", 1.0, n_sims=1_000_000, seed=0)
        cfg = ExperimentConfig(
            model=arma11_model(),
            n=200,
            x=1.0,
            grid=GridSpec(),
            n_reps=2000,
            n_boot=2000,
            ref_value=ref.value,
            master_seed=20,
        )
        result = mse_grid(cfg)
        best = result.min_row()
        mbb = result.mbb_min()
        sub = result.subsampling_min()
        elapsed = time.monotonic() - start
        location_ok = 3 <= best.n_blocks <= 12 and 6 <= best.block_length <= 12
        ordering_ok = best.value < mbb.value < sub.value
        bands_ok = (
            abs(best.value / MIN_MSE_HYBRID - 1) <= 0.30
            and abs(mbb.value / MIN_MSE_MBB - 1) <= 0.30
            and abs(sub.value / MIN_MSE_SUBSAMPLING - 1) <= 0.30
        )
        report(
            4,
            location_ok and ordering_ok and bands_ok and elapsed < 3600,
            f"min {best.value:.5f}@({best.n_blocks},{best.block_length}), "
            f"mbb {mbb.value:.5f}@({mbb.n_blocks},{mbb.block_length}), "
            f"subsampling {sub.value:.5f}@ell={sub.block_length}, {elapsed:.0f}s",
        )
        assert location_ok, (best.n_blocks, best.block_length)
        assert ordering_ok, (best.value, mbb.value, sub.value)
        assert bands_ok, (best.value, mbb.value, sub.value)
        assert elapsed < 3600

    def test_reduced_smoke_ordering(self):
        start = time.monotonic()
        cells = []
        for ell in (4, 6, 8, 10, 14, 20):
            for b in (1, 2, 3, 4, 6, 8, 12, 16, 20):
                if b * ell <= 200:
                    cells.append((b, ell))
            cells.append((200 // ell, ell))
        cfg = ExperimentConfig(
            model=arma11_model(),
            n=200,
            x=1.0,
            grid=GridSpec(cells=tuple(dict.fromkeys(cells))),
            n_reps=500,
            n_boot=500,
            ref_value=TARGET_G200_ARMA11,
            master_seed=21,
        )
        result = mse_grid(cfg)
        best, mbb, sub = result.min_row(), result.mbb_min(), result.subsampling_min()
        elapsed = time.monotonic() - start
        ok = best.value < mbb.value < sub.value and elapsed < 300
        report(4, ok, f"smoke ordering {best.value:.5f} < {mbb.value:.5f} < {sub.value:.5f}, {elapsed:.0f}s")
        assert best.value < mbb.value < sub.value
        assert elapsed < 300


class TestCriterion5CdfLevelContrast:
    def test_hybrid_matches_mbb_and_beats_subsampling(self, ref_cache):
        ref = ref_cache.get_or_compute(arma11_model(), 100, "cdf", 0.0, y=0.9, n_sims=1_000_000, seed=0)
        cfg = ExperimentConfig(
            model=arma11_model(),
            n=100,
            x=0.0,
            y=0.9,
            grid=GridSpec(),
            n_reps=2000,
            n_boot=2000,
            ref_value=ref.value,
            master_seed=22,
        )
        result = cdf_mse_grid(cfg)
        hybrid = result.min_row().value
        mbb = result.mbb_min().value
        sub = result.subsampling_min().value
        ratio_ok = max(hybrid, mbb) / min(hybrid, mbb) <= 1.15
        sub_ok = sub >= 2 * hybrid
        report(5, ratio_ok and sub_ok, f"hybrid {hybrid:.5f}, mbb {mbb:.5f} (ratio {max(hybrid, mbb) / min(hybrid, mbb):.3f}), subsampling {sub:.5f}")
        assert ratio_ok, (hybrid, mbb)
        assert sub_ok, (sub, hybrid)


class TestCriterion6RateCheck:
    def test_log_log_slope_in_band(self, ref_cache):
        sizes = (200, 500, 1000)
        refs = []
        for n in sizes:
            ref = ref_cache.get_or_compute(arma11_model(), n, "quantile", 1.0, n_sims=400_000, seed=0)
            refs.append((n, ref.value))
        cfg = ExperimentConfig(
            model=arma11_model(),
            n_list=sizes,
            x=1.0,
            grid=GridSpec(b_min=2, b_max=20, ell_min=4, ell_max=20, include_mbb=False),
            n_reps=1000,
            n_boot=1000,
            ref_values=tuple(refs),
            master_seed=23,
        )
        result = rate_study(cfg)
        ok = -0.87 <= result.slope <= -0.47
        detail = ", ".join(f"n={n}: {v:.5f}@({b},{ell})" for n, v, b, ell in result.minima)
        report(6, ok, f"slope {result.slope:.4f} in [-0.87, -0.47]; {detail}")
        assert ok, result.slope


class TestCriterion7AdaptiveSelection:
    def test_adaptive_mse_between_best_and_worst(self, ref_cache):
        ref = ref_cache.get_or_compute(squared_arma23_model(), 512, "quantile", 1.0, n_sims=1_000_000, seed=0)
        cfg = ExperimentConfig(
            model=squared_arma23_model(),
            n=512,
            x=1.0,
            c1_grid=(0.5, 0.75, 1.0, 1.5, 2.0),
            c2_grid=(0.5, 0.75, 1.0, 1.5, 2.0),
            subsample_len=64,
            subsample_count=20,
            n_reps=500,
            n_boot=2000,
            ref_value=ref.value,
            master_seed=24,
        )
        result = adaptive_study(cfg)
        best = result.best_cell_mse()
        worst = result.worst_cell_mse()
        largest_cell = [r for r in result.cell_rows if (r.c1, r.c2) == (2.0, 2.0)][0]
        between_ok = best <= result.adaptive_mse <= worst
        beats_largest = result.adaptive_mse < largest_cell.mse
        report(
            7,
            between_ok and beats_largest,
            f"adaptive {result.adaptive_mse:.5f} in [{best:.5f}, {worst:.5f}], largest cell {largest_cell.mse:.5f}",
        )
        assert between_ok, (best, result.adaptive_mse, worst)
        assert beats_largest, (result.adaptive_mse, largest_cell.mse)


class TestCriterion8DeterminismAcrossWorkers:
    def run_twice(self, tmp_path, command, entries, outputs):
        cfg_path = tmp_path / f"{command}.yaml"
        cfg_path.write_text(yaml.safe_dump(entries))
        pair = []
        for workers in (1, 8):
            out = tmp_path / f"{command}-w{workers}"
            code = cli_main([command, "--config", str(cfg_path), "--out", str(out), "--workers", str(workers)])
            assert code == 0
            pair.append(tuple((out / name).read_bytes() for name in outputs))
        return pair

    def test_every_subcommand_is_worker_independent(self, tmp_path):
        grid = {"cells": [[1, 3], [2, 4], [5, 5]]}
        cases = [
            ("reference", dict(model="arma11", n=40, x=1.0, kind="quantile", ref_replications=30000, seed=5), ["reference.csv"]),
            ("mse-grid", dict(model="arma11", n=40, x=1.0, grid=grid, replications=50, bootstrap_samples=40, ref_value=0.7, seed=5), ["mse_grid.csv"]),
            ("coverage-grid", dict(model="arma11", n=40, alpha=0.9, grid=grid, replications=50, bootstrap_samples=40, seed=5), ["coverage_grid.csv"]),
            ("cdf-mse-grid", dict(model="arma11", n=40, x=0.0, y=0.9, grid=grid, replications=50, bootstrap_samples=40, ref_value=0.85, seed=5), ["cdf_mse_grid.csv"]),
            (
                "tune",
                dict(model="arma23sq", n=64, x=1.0, c1_grid=[0.5, 1.0], c2_grid=[0.5, 1.0], subsample_len=27, subsample_count=3, replications=40, bootstrap_samples=40, ref_value=0.8, seed=5),
                ["tune_err_grid.csv", "tune_study.csv"],
            ),
            (
                "rate-study",
                dict(model="arma11", n_list=[30, 60, 90], x=1.0, grid={"cells": [[2, 3], [3, 4]]}, replications=40, bootstrap_samples=40, ref_values={30: 0.7, 60: 0.7, 90: 0.7}, seed=5),
                ["rate_minima.csv", "rate_summary.csv", "mse_grid_n60.csv"],
            ),
        ]
        for command, entries, outputs in cases:
            one, eight = self.run_twice(tmp_path, command, entries, outputs)
            assert one == eight, f"{command} output differs between 1 and 8 workers"
        report(8, True, f"{len(cases)} subcommands byte-identical for worker counts 1 and 8")


class TestCriterion9InvariantSuite:
    def test_thousand_randomized_cases(self):
        rng = substream(2027)
        cases = 0

        for _ in range(250):  # empirical Galois pair
            values = rng.standard_normal(int(rng.integers(1, 40)))
            p = float(rng.uniform(0.01, 0.99))
            q = sample_quantile(values, p)
            assert empirical_cdf(values, q) >= p
            below = values[values < q]
            if below.size:
                assert empirical_cdf(values, float(below.max())) < p
            cases += 1

        for _ in range(250):  # block-averaged Galois pair
            n = int(rng.integers(2, 40))
            ell = int(rng.integers(1, n + 1))
            values = rng.standard_normal(n)
            p = float(rng.uniform(0.01, 0.99))
            q = block_averaged_quantile(values, ell, p)
            assert block_averaged_cdf(values, ell, q) >= p
            below = values[values < q]
            if below.size:
                assert block_averaged_cdf(values, ell, float(below.max())) < p
            cases += 1

        from blockboot.empirical import block_weights

        for _ in range(300):  # weight normalization and symmetry
            n = int(rng.integers(1, 60))
            ell = int(rng.integers(1, n + 1))
            w = block_weights(n, ell)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.array_equal(w, w[::-1])
            assert np.all(w >= 0)
            cases += 1

        for trial in range(100):  # scaling equivariance of the statistic distribution
            n = int(rng.integers(8, 30))
            ell = int(rng.integers(1, 5))
            b = int(rng.integers(1, 5))
            values = rng.standard_normal(n)
            scale = float(rng.uniform(0.1, 5.0))
            plan = BlockPlan(b, min(ell, n))
            base = bootstrap_quantile_distribution(values, plan, 0.5, 40, substream(7000 + trial))
            scaled = bootstrap_quantile_distribution(scale * values, plan, 0.5, 40, substream(7000 + trial))
            assert np.array_equal(scaled.counts, base.counts)
            assert scaled.values == pytest.approx(scale * base.values, rel=1e-12, abs=1e-12)
            cases += 1

        from blockboot.estimators import cdf_deviation_probs, quantile_deviation_probs

        for trial in range(100):  # estimated probabilities stay in [0, 1]
            n = int(rng.integers(10, 40))
            values = rng.standard_normal(n)
            plan = BlockPlan(int(rng.integers(1, 5)), int(rng.integers(1, 6)))
            (g,) = quantile_deviation_probs(values, [plan], 0.5, float(rng.standard_normal()), 50, substream(8000 + trial))
            (c,) = cdf_deviation_probs(values, [plan], float(rng.standard_normal()), float(rng.standard_normal()), 50, substream(8000 + trial))
            assert 0.0 <= g <= 1.0
            assert 0.0 <= c <= 1.0
            cases += 1

        report(9, cases == 1000, f"{cases} randomized invariant cases passed")
        assert cases == 1000
