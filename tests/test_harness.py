import json
import inspect
import math
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy

from blockboot import estimators, harness, tuning
from blockboot.harness import (
    ExperimentConfig,
    GridSpec,
    ReferenceCache,
    adaptive_study,
    cdf_mse_grid,
    coverage_grid,
    log_log_slope,
    mse_grid,
    rate_study,
    reference_value,
    replication_seed,
)
from blockboot.models import ModelSpec, arma11_model, constant_model, poly_mixing_model, simulate_batch, squared_arma23_model
from blockboot.estimators import lower_confidence_bounds, quantile_deviation_probs
from blockboot.resample import BlockPlan
from blockboot.seeding import substream

TABLE_MBB_PAIRS = {
    200: [(14, 14), (33, 6), (50, 4), (66, 3)],
    500: [(22, 22), (62, 8), (100, 5), (125, 4)],
    1000: [(31, 32), (100, 10), (166, 6), (250, 4)],
    2000: [(44, 45), (153, 13), (285, 7), (400, 5)],
}


def tiny_config(**overrides):
    base = dict(
        model=arma11_model(),
        n=40,
        x=1.0,
        grid=GridSpec(cells=((1, 3), (2, 4), (5, 5))),
        n_reps=20,
        n_boot=30,
        ref_value=0.7,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestMbbPresets:
    def test_table_of_standard_choices(self):
        for n, pairs in TABLE_MBB_PAIRS.items():
            for b, ell in pairs:
                assert BlockPlan.mbb(n, ell) == BlockPlan(b, ell)


class TestGridSpec:
    def test_default_grid_capped_by_n(self):
        plans = GridSpec(include_mbb=False).plans(200)
        assert all(p.total_length <= 200 for p in plans)
        assert all(1 <= p.n_blocks <= 40 and 2 <= p.block_length <= 40 for p in plans)
        assert all(p.block_length % 2 == 0 for p in plans)
        assert len({(p.n_blocks, p.block_length) for p in plans}) == len(plans)

    def test_mbb_rows_added_beyond_cap(self):
        plans = GridSpec().plans(200)
        pairs = {(p.n_blocks, p.block_length) for p in plans}
        for ell in (2, 4):
            assert (200 // ell, ell) in pairs
        assert len(pairs) == len(plans)

    def test_unit_step_scans_every_length(self):
        plans = GridSpec(ell_step=1, include_mbb=False).plans(100)
        lengths = {p.block_length for p in plans}
        assert lengths == set(range(2, 41))

    def test_explicit_cells(self):
        plans = GridSpec(cells=((2, 7),)).plans(50)
        assert plans == [BlockPlan(2, 7)]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(cells=()).plans(50)

    @pytest.mark.parametrize(
        ("fields", "name"),
        [({"b_min": 0}, "b_min"), ({"ell_min": 0}, "ell_min"), ({"ell_min": -2, "ell_max": 4}, "ell_min"), ({"ell_step": 0}, "ell_step"), ({"ell_step": -1}, "ell_step")],
    )
    def test_counts_and_step_below_one_rejected(self, fields, name):
        # plans() would otherwise divide by a block length below 1 or hand range() a zero step.
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            GridSpec(**fields)
        assert GridSpec(**{**fields, name: 1}).plans(20)


class TestExperimentConfig:
    def test_n_boot_past_float64_counts_raises(self):
        assert ExperimentConfig(model=arma11_model(), n_boot=2**53).n_boot == 2**53
        with pytest.raises(ValueError, match=r"2\*\*53"):
            ExperimentConfig(model=arma11_model(), n_boot=2**53 + 1)


class TestReferenceValue:
    def test_constant_model_exact(self):
        ref = reference_value(constant_model(1.0), 10, "quantile", x=0.5, n_sims=500, seed=1)
        assert ref.value == 1.0 and ref.stderr == 0.0
        ref = reference_value(constant_model(1.0), 10, "quantile", x=-0.5, n_sims=500, seed=1)
        assert ref.value == 0.0

    def test_binomial_stderr(self):
        ref = reference_value(arma11_model(), 30, "quantile", x=1.0, n_sims=4000, seed=2)
        assert 0.0 < ref.value < 1.0
        assert ref.stderr == pytest.approx(math.sqrt(ref.value * (1 - ref.value) / 4000))
        assert ref.n_sims == 4000

    def test_cdf_kind(self):
        ref = reference_value(arma11_model(), 30, "cdf", x=0.0, y=0.9, n_sims=4000, seed=3)
        assert 0.0 < ref.value < 1.0

    def test_worker_independence(self):
        kwargs = dict(n_sims=25_000, seed=4)
        a = reference_value(arma11_model(), 25, "quantile", x=1.0, workers=1, **kwargs)
        b = reference_value(arma11_model(), 25, "quantile", x=1.0, workers=3, **kwargs)
        assert a == b

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            reference_value(arma11_model(), 10, "variance", x=0.0)
        with pytest.raises(ValueError):
            reference_value(arma11_model(), 10, "cdf", x=0.0, y=None)
        with pytest.raises(ValueError):
            reference_value(ModelSpec(kind="custom"), 10, "quantile", x=0.0)


class TestMseGrid:
    def test_values_are_probabilistic(self):
        result = mse_grid(tiny_config())
        assert len(result.rows) == 3
        for row in result.rows:
            assert 0.0 <= row.value <= 1.0
            assert row.stderr >= 0.0
        # The squared error is quadratic in the reference r with unit leading
        # coefficient, so mse(r) = (1 - r) mse(0) + r mse(1) - r (1 - r).
        at_zero, at_one = (mse_grid(tiny_config(ref_value=r)) for r in (0.0, 1.0))
        for row, zero, one in zip(result.rows, at_zero.rows, at_one.rows):
            assert row.value == pytest.approx(0.3 * zero.value + 0.7 * one.value - 0.21, rel=1e-12, abs=1e-15)

    def test_worker_independence(self):
        a = mse_grid(tiny_config(workers=1))
        b = mse_grid(tiny_config(workers=3))
        assert a.rows == b.rows

    def test_determinism(self):
        assert mse_grid(tiny_config()).rows == mse_grid(tiny_config()).rows

    def test_degenerate_iid_model_bounded(self):
        from blockboot.models import poly_mixing_model

        cfg = tiny_config(model=poly_mixing_model(nu=10.0, n_terms=1), ref_value=0.8)
        result = mse_grid(cfg)
        assert all(0.0 <= row.value <= 1.0 for row in result.rows)

    def test_exact_mode_matches_flat_loop(self):
        cells = ((2, 2), (1, 3))
        cfg = tiny_config(n=12, grid=GridSpec(cells=cells), n_reps=15, exact=True, ref_value=0.6)
        result = mse_grid(cfg)
        for ci, (b, ell) in enumerate(cells):
            acc = 0.0
            for rep in range(15):
                series = simulate_batch(cfg.model, 12, 1, substream(replication_seed(11, rep)))[0]
                (estimate,) = quantile_deviation_probs(series, [BlockPlan(b, ell)], 0.5, 1.0)
                acc += (estimate - 0.6) ** 2
            assert result.rows[ci].value == acc / 15

    def test_monte_carlo_mode_matches_flat_loop(self):
        # 33 replications: a full chunk of 32 and a partial one, each summing its stacked estimates in replication order.
        cells = ((2, 2), (1, 3), (3, 4))
        cfg = tiny_config(n=12, grid=GridSpec(cells=cells), n_reps=33, n_boot=50, ref_value=0.6)
        plans = [BlockPlan(b, ell) for b, ell in cells]
        acc = np.zeros(len(cells))
        for rep in range(33):
            series = simulate_batch(cfg.model, 12, 1, substream(replication_seed(11, rep)))[0]
            acc += (quantile_deviation_probs(series, plans, 0.5, 1.0, 50, substream(11, harness._TAG_POINT, rep)) - 0.6) ** 2
        assert [row.value for row in mse_grid(cfg).rows] == list(acc / 33)

    def test_min_row_helpers(self):
        cfg = tiny_config(n=40, grid=GridSpec(b_max=10, ell_min=2, ell_max=8))
        result = mse_grid(cfg)
        best = result.min_row()
        assert best.value == min(r.value for r in result.rows)
        sub = result.subsampling_min()
        assert sub.n_blocks == 1
        mbb = result.mbb_min()
        assert mbb.n_blocks == 40 // mbb.block_length


def _record_series(cfg, stack, reps, seen):
    seen.append((list(reps), stack.copy()))
    return [(len(reps),)] * len(reps)


class TestReplicationChunks:
    @pytest.mark.parametrize("budget", [None, 600])
    @pytest.mark.parametrize("n", [1, 200])
    @pytest.mark.parametrize("model", [arma11_model(), squared_arma23_model(), poly_mixing_model(), constant_model(1.5)], ids=lambda m: m.kind)
    def test_chunk_rows_equal_one_replication_calls(self, monkeypatch, model, n, budget):
        # 33 replications: a chunk of 32 series and a partial one; a budget of 600 values stacks 3 series of 200 at a time.
        if budget is not None:
            monkeypatch.setattr(estimators, "_STACK_BUDGET", budget)
        seen = []
        cfg = ExperimentConfig(model=model, n=n, n_reps=33, master_seed=4)
        assert harness._replicate(cfg, _record_series, seen) == (sum(len(reps) ** 2 for reps, _ in seen),)
        assert [len(reps) for reps, _ in seen] == ([3] * 10 + [2, 1] if budget is not None and n == 200 else [32, 1])
        assert [rep for reps, _ in seen for rep in reps] == list(range(33))
        for reps, stack in seen:
            for rep, series in zip(reps, stack):
                assert (series == simulate_batch(model, n, 1, substream(replication_seed(4, rep)))[0]).all()


class TestExactGrids:
    @pytest.mark.parametrize("grid_fn,extra", [(mse_grid, {}), (cdf_mse_grid, {"x": 0.0, "y": 0.9, "ref_value": 0.85})])
    def test_exact_and_monte_carlo_grids_agree(self, grid_fn, extra):
        # Both grids see the same series; the Monte Carlo one adds bootstrap noise.
        cfg = tiny_config(n_reps=30, n_boot=2000, **extra)
        mc, exact = grid_fn(cfg).rows, grid_fn(replace(cfg, exact=True)).rows
        for m, e in zip(mc, exact):
            assert (m.n_blocks, m.block_length) == (e.n_blocks, e.block_length)
            assert m.value != e.value
            assert abs(m.value - e.value) <= 4 * m.stderr


    def test_exact_grids_derive_no_seed(self, monkeypatch):
        def no_seed(*args):
            raise AssertionError("an exact-law run derived a bootstrap seed")

        def series_only(seed, *keys):
            # The harness derives a series or reference generator from one sub-seed; a bootstrap generator takes keys.
            return no_seed() if keys else substream(seed)

        monkeypatch.setattr(harness, "substream", series_only)
        monkeypatch.setattr(tuning, "substream", no_seed)
        assert not hasattr(estimators, "substream")
        cfg = tiny_config(n=64, n_reps=3, exact=True, y=0.5, alpha=0.9, c1_grid=(0.5, 1.0), c2_grid=(0.5, 1.0), subsample_len=27, subsample_count=3)
        for grid_fn in (mse_grid, cdf_mse_grid, coverage_grid):
            assert len(grid_fn(cfg).rows) == 3
        assert len(adaptive_study(cfg).cell_rows) == 4


class TestMonteCarloStep:
    def test_mse_is_exact_error_plus_binomial_variance(self):
        # Given the series, B replicates estimate G as Binomial(B, G) / B, so
        # E[(G_B - g)^2 | X] = (G - g)^2 + G(1 - G) / B, G from an exact call.
        n_boot, g_ref = 10, 0.7
        cfg = tiny_config(n_reps=400, n_boot=n_boot, ref_value=g_ref)
        plans = cfg.grid.plans(cfg.n)
        expected = np.zeros(len(plans))
        for rep in range(cfg.n_reps):
            series = simulate_batch(cfg.model, cfg.n, 1, substream(replication_seed(cfg.master_seed, rep)))[0]
            g = quantile_deviation_probs(series, plans, cfg.p, cfg.x)
            expected += (g - g_ref) ** 2 + g * (1 - g) / n_boot
        for row, e in zip(mse_grid(cfg).rows, expected / cfg.n_reps):
            assert abs(row.value - e) <= 4 * row.stderr


class TestCdfMseGrid:
    def test_saturated_threshold_gives_exact_mse(self):
        ref = 0.75  # binary-exact, so the accumulated MSE is exact too
        cfg = tiny_config(y=1e9, ref_value=ref)
        result = cdf_mse_grid(cfg)
        for row in result.rows:
            assert row.value == (1.0 - ref) ** 2
            assert row.stderr == 0.0

    def test_requires_y(self):
        with pytest.raises(ValueError):
            cdf_mse_grid(tiny_config())

    def test_worker_independence(self):
        a = cdf_mse_grid(tiny_config(y=0.5, workers=1))
        b = cdf_mse_grid(tiny_config(y=0.5, workers=3))
        assert a.rows == b.rows


class TestCoverageGrid:
    def test_constant_model_covers_exactly(self):
        cfg = tiny_config(model=constant_model(2.0), alpha=0.9, ref_value=None)
        result = coverage_grid(cfg)
        assert all(row.value == 1.0 for row in result.rows)

    def test_alpha_near_one_covers_everywhere(self):
        cfg = tiny_config(
            n=200,
            grid=GridSpec(cells=((6, 8), (33, 6), (14, 14))),
            alpha=0.9995,
            n_reps=60,
            n_boot=2000,
            ref_value=None,
            master_seed=3,
        )
        result = coverage_grid(cfg)
        assert all(row.value >= 0.95 for row in result.rows)

    def test_requires_alpha(self):
        with pytest.raises(ValueError):
            coverage_grid(tiny_config())

    def test_monte_carlo_mode_matches_flat_loop(self):
        # Each replication's bounds draw in plan order from the generator its point estimates would use.
        cfg = tiny_config(alpha=0.8, n_reps=15)
        plans = cfg.grid.plans(cfg.n)
        q_true, covered = cfg.model.marginal_quantile(cfg.p), np.zeros(len(plans))
        for rep in range(cfg.n_reps):
            series = simulate_batch(cfg.model, cfg.n, 1, substream(replication_seed(cfg.master_seed, rep)))[0]
            covered += q_true >= lower_confidence_bounds(series, plans, cfg.p, cfg.alpha, cfg.n_boot, substream(cfg.master_seed, harness._TAG_POINT, rep))
        assert [row.value for row in coverage_grid(cfg).rows] == list(covered / cfg.n_reps)

    def test_mostly_undercovers_at_nominal_90(self):
        # wide spread of plans; nominal-level intervals undercover at most of
        # them, substantially at the extremes, while a few sit near 0.90
        cells = ((1, 2), (1, 20), (1, 40), (5, 2), (5, 20), (5, 40), (20, 2), (20, 10), (40, 5), (100, 2), (66, 3), (33, 6), (10, 20), (4, 40), (12, 6), (5, 10))
        cfg = ExperimentConfig(
            model=squared_arma23_model(),
            n=200,
            alpha=0.90,
            grid=GridSpec(cells=cells),
            n_reps=400,
            n_boot=1000,
            master_seed=7,
        )
        result = coverage_grid(cfg)
        values = [row.value for row in result.rows]
        below = sum(v < 0.90 for v in values)
        assert below > len(values) / 2
        assert min(values) < 0.87
        assert any(abs(v - 0.90) <= 0.02 for v in values)


class TestAdaptiveStudy:
    def test_structure_and_bounds(self):
        cfg = tiny_config(
            n=64,
            n_reps=12,
            n_boot=40,
            c1_grid=(0.5, 1.0),
            c2_grid=(0.5, 1.0),
            subsample_len=27,
            subsample_count=3,
            ref_value=0.75,
        )
        result = adaptive_study(cfg)
        assert len(result.cell_rows) == 4
        assert sum(r.selected_count for r in result.cell_rows) == 12
        assert 0.0 <= result.adaptive_mse <= 1.0
        assert result.best_cell_mse() <= result.worst_cell_mse()
        for row in result.cell_rows:
            assert 0.0 <= row.err_mean <= 1.0
            assert 0.0 <= row.mse <= 1.0

    def test_worker_independence(self):
        kwargs = dict(n=64, n_reps=10, n_boot=30, c1_grid=(0.5, 1.0), c2_grid=(1.0,), subsample_len=27, subsample_count=3, ref_value=0.75)
        a = adaptive_study(tiny_config(workers=1, **kwargs))
        b = adaptive_study(tiny_config(workers=3, **kwargs))
        assert a.cell_rows == b.cell_rows
        assert a.adaptive_mse == b.adaptive_mse


class TestRateStudy:
    def test_published_minima_regression(self):
        slope = log_log_slope([200, 500, 1000, 2000], [0.00472, 0.00250, 0.00154, 0.00097])
        assert slope == pytest.approx(-0.6885, abs=5e-4)

    def test_equal_mse_zero_slope(self):
        assert log_log_slope([200, 500], [0.004, 0.004]) == pytest.approx(0.0, abs=1e-12)

    def test_requires_three_sizes(self):
        with pytest.raises(ValueError):
            rate_study(tiny_config(n_list=(100, 200)))

    def test_requires_three_distinct_sizes(self):
        with pytest.raises(ValueError, match="distinct"):
            rate_study(tiny_config(n_list=(20, 20, 20)))

    def test_tiny_end_to_end(self):
        cfg = tiny_config(
            n_list=(30, 60, 90),
            grid=GridSpec(cells=((2, 3), (3, 4))),
            n_reps=10,
            n_boot=25,
            ref_value=None,
            ref_values=((30, 0.7), (60, 0.7), (90, 0.7)),
        )
        result = rate_study(cfg)
        assert math.isfinite(result.slope)
        assert [m[0] for m in result.minima] == [30, 60, 90]
        assert set(result.grids) == {30, 60, 90}


class TestCsvAndManifest:
    def test_grid_csv_schema(self, tmp_path):
        result = mse_grid(tiny_config())
        path = tmp_path / "grid.csv"
        harness.write_grid_csv(str(path), result)
        lines = path.read_text().splitlines()
        assert lines[0] == "b,ell,metric,value,stderr"
        assert len(lines) == 1 + len(result.rows)
        b, ell, metric, value, stderr = lines[1].split(",")
        assert metric == "mse"
        assert float(value) >= 0 and float(stderr) >= 0
        assert int(b) == result.rows[0].n_blocks and int(ell) == result.rows[0].block_length

    def test_atomic_overwrite(self, tmp_path):
        path = tmp_path / "file.csv"
        harness._write_atomic(str(path), "a,b\n1,2\n")
        harness._write_atomic(str(path), "a,b\n3,4\n")
        assert path.read_text() == "a,b\n3,4\n"
        assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp")] == []

    def test_err_table_rows_from_diagnostics(self, tmp_path):
        from blockboot.seeding import substream as sub
        from blockboot.tuning import TuneConfig, grid_diagnostics

        values = sub(71).standard_normal(64)
        cfg = TuneConfig(c1_grid=(0.05, 1.0), c2_grid=(1.0,), x=1.0, n_boot=20, seed=5, subsample_len=27, subsample_count=3)
        rows = [(d.c1, d.c2, d.plan and d.plan.n_blocks, d.plan and d.plan.block_length, d.err) for d in grid_diagnostics(values, cfg)]
        path = tmp_path / "err.csv"
        harness.write_csv(str(path), ("c1", "c2", "b_n", "ell_n", "err"), rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "c1,c2,b_n,ell_n,err"
        assert lines[1] == "0.05,1,,,nan"
        assert lines[2] == f"1,1,4,4,{rows[1][4]:.6g}"
        assert len(lines) == 3

    def test_manifest_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "manifest.json"
        harness.write_manifest(str(path), "mse-grid", cfg, ["a.csv"])
        payload = json.loads(path.read_text())
        assert payload["command"] == "mse-grid"
        assert payload["master_seed"] == 11
        assert payload["config"]["model"]["kind"] == "arma11"
        assert payload["outputs"] == ["a.csv"]
        assert payload["package"].startswith("blockboot ")

    def test_rate_csvs(self, tmp_path):
        cfg = tiny_config(
            n_list=(30, 60, 90),
            grid=GridSpec(cells=((2, 3),)),
            n_reps=5,
            n_boot=20,
            ref_value=None,
            ref_values=((30, 0.7), (60, 0.7), (90, 0.7)),
        )
        result = rate_study(cfg)
        written = harness.write_rate_csvs(str(tmp_path), result)
        assert (tmp_path / "rate_minima.csv").exists()
        text = (tmp_path / "rate_summary.csv").read_text()
        assert text.startswith("metric,value\nslope,")
        assert len(written) == 2 + 3


class TestReferenceCache:
    def test_cache_computes_once(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = harness.reference_value

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "reference_value", counting)
        cache = ReferenceCache(str(tmp_path / "cache.json"))
        a = cache.get_or_compute(arma11_model(), 20, "quantile", 1.0, n_sims=2000, seed=9)
        b = cache.get_or_compute(arma11_model(), 20, "quantile", 1.0, n_sims=2000, seed=9)
        assert a == b and calls["n"] == 1
        reloaded = ReferenceCache(str(tmp_path / "cache.json"))
        c = reloaded.get_or_compute(arma11_model(), 20, "quantile", 1.0, n_sims=2000, seed=9)
        assert c == a and calls["n"] == 1

    def test_changed_code_fingerprint_misses_and_recomputes(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = harness.reference_value

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "reference_value", counting)
        path = tmp_path / "cache.json"
        current = harness._code_fingerprint()
        assert current.startswith(f"numpy={np.__version__}|scipy={scipy.__version__}|code=")
        ReferenceCache(str(path)).get_or_compute(arma11_model(), 20, "quantile", 1.0, n_sims=2000, seed=9)
        monkeypatch.setattr(harness, "_code_fingerprint", lambda: "numpy=0.0|code=000000000000")
        ReferenceCache(str(path)).get_or_compute(arma11_model(), 20, "quantile", 1.0, n_sims=2000, seed=9)
        assert calls["n"] == 2
        assert sorted(key.split("|seed=9|")[1] for key in json.loads(path.read_text())) == sorted([current, "numpy=0.0|code=000000000000"])

    @pytest.mark.parametrize("name", ["models", "seeding", "empirical", "reference_seed", "_run_chunked", "_reference_chunk", "reference_value"])
    def test_fingerprint_covers_the_reference_code(self, monkeypatch, name):
        compute = harness._code_fingerprint.__wrapped__
        current = compute()
        target = getattr(harness, name)
        real = inspect.getsource
        monkeypatch.setattr(harness.inspect, "getsource", lambda obj: real(obj) + ("# edited" if obj is target else ""))
        assert compute() != current

    def test_caches_sharing_a_file_keep_each_others_entries(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first, second = ReferenceCache(path), ReferenceCache(path)
        first.get_or_compute(arma11_model(), 20, "quantile", 1.0, n_sims=1000, seed=9)
        second.get_or_compute(arma11_model(), 20, "quantile", 0.5, n_sims=1000, seed=9)
        keys = json.loads((tmp_path / "cache.json").read_text())
        assert len(keys) == 2 and any("|x=1.0|" in key for key in keys) and any("|x=0.5|" in key for key in keys)

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = ReferenceCache(str(tmp_path / "cache.json"))
        a = cache.get_or_compute(arma11_model(), 20, "quantile", 1.0, n_sims=1000, seed=9)
        b = cache.get_or_compute(arma11_model(), 20, "quantile", 0.5, n_sims=1000, seed=9)
        assert a != b


def test_seed_helpers_are_stable():
    assert replication_seed(5, 3) == replication_seed(5, 3)
