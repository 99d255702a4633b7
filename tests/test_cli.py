import json
import math
import time

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from blockboot import cli, harness
from blockboot.cli import main
from blockboot.resample import ResourceLimitError

TINY_GRID = {"cells": [[1, 3], [2, 4], [5, 5]]}


def write_config(path, **entries):
    path.write_text(yaml.safe_dump(entries))
    return str(path)


def tiny_entries(**overrides):
    entries = dict(
        model="arma11",
        n=40,
        x=1.0,
        grid=TINY_GRID,
        replications=15,
        bootstrap_samples=25,
        ref_value=0.7,
        seed=3,
    )
    entries.update(overrides)
    return entries


class TestConfigErrors:
    def test_missing_model_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", n=50, x=1.0)
        assert main(["mse-grid", "--config", cfg]) == 2
        assert "'model'" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", model="arma11", x=1.0, frobnicate=1)
        assert main(["mse-grid", "--config", cfg]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_unknown_grid_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", model="arma11", x=1.0, grid={"b": [1, 4], "shape": "wide"})
        assert main(["mse-grid", "--config", cfg]) == 2
        assert "grid.'shape'" in capsys.readouterr().err

    def test_unknown_model_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", model="garch", x=1.0)
        assert main(["mse-grid", "--config", cfg]) == 2
        assert "garch" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["mse-grid", "--config", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("text, message", [("model: [arma11\n", "not valid YAML"), ("- model\n- x\n", "must hold a mapping")])
    def test_config_file_not_yaml_mapping(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        assert main(["mse-grid", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_y_for_cdf(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries())
        assert main(["cdf-mse-grid", "--config", cfg]) == 2
        assert "'y'" in capsys.readouterr().err

    def test_run_requires_experiment_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries())
        assert main(["run", "--config", cfg]) == 2
        assert "'experiment'" in capsys.readouterr().err

    def test_declared_experiment_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", experiment="coverage-grid", **tiny_entries())
        assert main(["mse-grid", "--config", cfg]) == 2

    def test_alpha_required_for_coverage(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries())
        assert main(["coverage-grid", "--config", cfg]) == 2
        assert "'alpha'" in capsys.readouterr().err


TUNE = dict(n=64, replications=4, bootstrap_samples=20, c2_grid=[1.0], subsample_len=27, subsample_count=3)

# (subcommand, config entries over tiny_entries(), text the error must hold)
MALFORMED = {
    "grid b not a pair": ("mse-grid", dict(grid={"b": 5}), "grid.'b'"),
    "grid ell_step zero": ("mse-grid", dict(grid={"ell_step": 0}), "grid.'ell_step'"),
    "grid b range reversed": ("mse-grid", dict(grid={"b": [5, 2]}), "'grid' b and ell ranges must run from low to high"),
    "grid ell range reversed": ("coverage-grid", dict(grid={"ell": [6, 4]}, alpha=0.9), "'grid' b and ell ranges must run from low to high"),
    "cell longer than n": ("mse-grid", dict(grid={"cells": [[1, 50]]}), "'grid'"),
    "repeated cell": ("mse-grid", dict(grid={"cells": [[2, 2], [2, 2]]}), "'grid'"),
    "p outside (0, 1)": ("mse-grid", dict(p=1.5), "'p'"),
    "x not finite": ("mse-grid", dict(x=math.nan), "'x'"),
    "y infinite": ("cdf-mse-grid", dict(y=math.inf), "'y'"),
    "alpha at one": ("coverage-grid", dict(alpha=1.0), "'alpha'"),
    "workers zero": ("mse-grid", dict(workers=0), "'workers'"),
    "replications zero": ("mse-grid", dict(replications=0), "'replications'"),
    "replications not an integer": ("mse-grid", dict(replications=2.5), "'replications'"),
    "grid empty at n": ("mse-grid", dict(grid={"ell": [50, 60]}), "'grid' is invalid at n=40: grid is empty"),
    "grid over the cell limit": ("mse-grid", dict(n=2_000_000, grid={"b": [1, 2_000_000], "ell": [1, 1]}), "'grid' is invalid at n=2000000: grid holds more than"),
    "ref_value together with ref_values": ("mse-grid", dict(ref_values={40: 0.7}), "'ref_values'"),
    "ref_values key not a size": ("mse-grid", dict(ref_values={"abc": 1}), "'ref_values'"),
    "ref_values without the run's n": ("mse-grid", dict(ref_value=None, ref_values={50: 0.7}), "'ref_values' has no entry for the sample size(s) [40]"),
    "ref_values missing an n_list size": ("rate-study", dict(n_list=[30, 60, 90], ref_value=None, ref_values={30: 0.7, 90: 0.7}), "'ref_values' has no entry for the sample size(s) [60]"),
    "exact given as a string": ("mse-grid", dict(exact="false"), "'exact'"),
    "rho zero": ("tune", dict(TUNE, c1_grid=[1.0], rho=0), "'rho'"),
    "c1_grid not a list": ("tune", dict(TUNE, c1_grid=5), "'c1_grid'"),
    "degenerate candidate among others": ("tune", dict(TUNE, c1_grid=[0.1, 1.0]), "'c1_grid'"),
    "only a degenerate candidate": ("tune", dict(TUNE, c1_grid=[0.1]), "'c1_grid'"),
    "degenerate block length": ("tune", dict(TUNE, c1_grid=[1.0], c2_grid=[0.1]), "'c2_grid'"),
    "no candidate at the subsample length": ("tune", dict(TUNE, c1_grid=[0.3], subsample_len=8), "'c1_grid'"),
    "subsample longer than n": ("tune", dict(TUNE, c1_grid=[1.0], subsample_len=65), "'subsample_len'"),
    "exact in reference": ("reference", dict(exact=True), "'exact'"),
    "rate-study cell longer than a size": ("rate-study", dict(n_list=[30, 60, 90], grid={"cells": [[1, 40]]}), "'grid'"),
    "rate-study with two sizes": ("rate-study", dict(n_list=[30, 60]), "'n_list'"),
    "rate-study with one size repeated": ("rate-study", dict(n_list=[20, 20, 20]), "'n_list'"),
    "reference kind unknown": ("reference", dict(kind="median"), "'kind'"),
    "reference kind cdf without y": ("reference", dict(kind="cdf"), "'y'"),
    "polymix nu not finite": ("mse-grid", dict(model={"name": "polymix", "nu": math.inf}), "model.'nu'"),
}


# Config entries over tiny_entries() under which each bootstrap subcommand runs.
EXACT_RUNS = {
    "mse-grid": dict(),
    "rate-study": dict(n_list=[30, 60, 90]),
    "cdf-mse-grid": dict(y=0.9),
    "coverage-grid": dict(alpha=0.9),
    "tune": dict(TUNE, c1_grid=[1.0]),
}


class TestExactMode:
    @pytest.mark.parametrize("command", sorted(EXACT_RUNS))
    def test_exact_runs(self, tmp_path, command):
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries(exact=True, **EXACT_RUNS[command]))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["exact"] is True
        for path in out.glob("*.csv"):
            lines = path.read_text().splitlines()
            assert len(lines) > 1 and all(line.split(",")[-1] != "nan" for line in lines)


class TestMalformedValues:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_2_names_key(self, tmp_path, capsys, case):
        command, overrides, key = MALFORMED[case]
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries(**overrides))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_workers_override_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries())
        assert main(["mse-grid", "--config", cfg, "--out", str(tmp_path / "out"), "--workers", "0"]) == 2
        assert "'workers'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", "\xff"])
    def test_malformed_reference_cache_names_out(self, tmp_path, capsys, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "reference_cache.json").write_bytes(text.encode("latin-1"))
        cfg = write_config(tmp_path / "c.yaml", model="arma11", n=30, x=1.0, ref_replications=500)
        assert main(["reference", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'out'" in err and "reference_cache.json" in err


# Entries over tiny_entries() that leave only keys reference reads.
REFERENCE = dict(replications=None, ref_value=None, bootstrap_samples=None, grid=None, ref_replications=500)

# (subcommand, config entries over tiny_entries(), keys the run does not read)
UNREAD = {
    "mse-grid": ("mse-grid", dict(c1_grid=[1.0], alpha=0.9, n_list=[30, 60, 90], y=0.5), ["c1_grid", "alpha", "n_list", "y"]),
    "mse-grid exact": ("mse-grid", dict(exact=True), ["bootstrap_samples"]),
    "ref_replications beside ref_value": ("mse-grid", dict(ref_replications=500), ["ref_replications"]),
    "ref_replications beside complete ref_values": (
        "rate-study", dict(n_list=[30, 60, 90], replications=2, ref_value=None, ref_values={30: 0.7, 60: 0.7, 90: 0.7}, ref_replications=500), ["n", "ref_replications"],
    ),
    "reference": ("reference", dict(REFERENCE, grid=TINY_GRID), ["grid"]),
    "reference y under kind quantile": ("reference", dict(REFERENCE, kind="quantile", y=0.5), ["y"]),
    "reference p under kind cdf": ("reference", dict(REFERENCE, kind="cdf", y=0.5, p=0.3), ["p"]),
    "coverage-grid": ("coverage-grid", dict(alpha=0.9, replications=2), ["x", "ref_value"]),
    "tune": ("tune", dict(TUNE, c1_grid=[1.0]), ["grid"]),
    "rate-study": ("rate-study", dict(n_list=[30, 60, 90], replications=2), ["n"]),
}


class TestUnreadKeys:
    @pytest.mark.parametrize("case", sorted(UNREAD))
    def test_one_warning_per_unread_key(self, tmp_path, capsys, case):
        command, overrides, unread = UNREAD[case]
        entries = {key: value for key, value in tiny_entries(**overrides).items() if value is not None}
        cfg = write_config(tmp_path / "c.yaml", **entries)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert sorted(warnings) == sorted(f"warning: config key {key!r} is not used by {command}; its value is still checked" for key in unread)

    @pytest.mark.parametrize(
        "command, overrides, key",
        [
            ("tune", dict(TUNE, c1_grid=[1.0], grid={"cells": [[1, 65]]}), "grid"),
            ("reference", dict(replications=None, ref_value=None, ref_replications=500, bootstrap_samples=10**30), "bootstrap_samples"),
            ("mse-grid", dict(ref_replications=10**13), "ref_replications"),
        ],
        ids=["grid under tune", "bootstrap_samples under reference", "ref_replications beside ref_value"],
    )
    def test_unused_key_is_still_checked(self, tmp_path, capsys, command, overrides, key):
        entries = {k: v for k, v in tiny_entries(**overrides).items() if v is not None}
        cfg = write_config(tmp_path / "c.yaml", **entries)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) in (2, 3)
        err = capsys.readouterr().err
        assert f"warning: config key {key!r} is not used by {command}; its value is still checked" in err
        assert f"error: config key {key!r}" in err or f"limit: config key {key!r}" in err


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(["7", "0.5", "nan", "quantile", "cdf", "arma11", "polymix"]),
)
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(SCALARS.filter(lambda v: v is not None), inner, max_size=2)), max_leaves=6)
GRIDS = st.dictionaries(st.sampled_from(sorted(cli._GRID_KEYS)), st.one_of(VALUES, st.lists(st.integers(0, 70), min_size=2, max_size=2), st.lists(st.lists(st.integers(0, 70), min_size=2, max_size=2), max_size=3)), max_size=3)
MODELS = st.one_of(st.sampled_from(["arma11", "arma23sq", "polymix", "garch"]), st.dictionaries(st.sampled_from(["name", "nu", "n_terms", "kind"]), VALUES, max_size=3), VALUES)
# A config every subcommand accepts; the fuzzer changes up to three keys of it
# and sometimes replaces the grid or the model mapping.
VALID = dict(model="arma11", n=64, x=1.0, y=0.5, alpha=0.9, n_list=[30, 60, 90], grid={"cells": [[1, 3]]}, c1_grid=[1.0], c2_grid=[1.0], subsample_len=27)
RAW = st.builds(
    lambda changes, extra: {**VALID, **changes, **extra},
    st.dictionaries(st.sampled_from(sorted(cli._KEYS) + ["frobnicate"]), VALUES, max_size=3),
    st.one_of(st.just({}), GRIDS.map(lambda grid: {"grid": grid}), MODELS.map(lambda model: {"model": model})),
)


@settings(max_examples=300, deadline=None)
@given(raw=RAW, command=st.sampled_from(cli.EXPERIMENTS + ("run",)))
def test_build_config_raises_config_error_or_gives_a_usable_config(raw, command):
    args = cli.make_parser().parse_args([command, "--config", "unused.yaml"])
    try:
        cfg = cli.build_config(raw, args)
    except (cli.ConfigError, ResourceLimitError):
        return
    assert cfg.grid.plans(cfg.n)


# (subcommand, config entries over tiny_entries(), key the exit-3 message names)
OVERSIZED = {
    "n": ("mse-grid", dict(n=10**30), "'n'"),
    "n with a simulated reference": ("mse-grid", dict(n=12000, grid={"cells": [[2, 3]]}, replications=1, ref_value=None), "'n'"),
    "n_list": ("rate-study", dict(n_list=[30, 60, 10**9]), "'n_list'"),
    "grid law": ("mse-grid", dict(grid={"cells": [[100000000, 2]]}), "'grid'"),
    "grid window counts": ("coverage-grid", dict(n=20000, grid={"b": [1, 20000], "ell": [1, 1]}, alpha=0.9, x=None, ref_value=None), "'grid'"),
    # 96 laws of FFT size 2**20 in one count_sum_tails stack: 100,663,296 values; 95 fit (KERNEL_STACKS).
    "grid kernel stack": ("mse-grid", dict(grid={"cells": [[b, 2] for b in range(300_000, 300_096)]}), "'grid'"),
    # 6 full-series cells whose laws have FFT size 2**24: 100,663,296 values, however few windows share a call; 5 fit.
    "tune kernel stack": ("tune", dict(TUNE, c1_grid=[524289.25 + c for c in range(6)]), "'c1_grid'"),
}

# Configs one step under the two kernel-stack cases of OVERSIZED, and the default grid at n = 100,000 (820 plans,
# whose largest group is the 20 MBB laws of FFT size 2**17; the window counts charge 4,100,000 values).
KERNEL_STACKS = {
    "grid": ("mse-grid", dict(grid={"cells": [[b, 2] for b in range(300_000, 300_095)]})),
    "tune": ("tune", dict(TUNE, c1_grid=[524289.25 + c for c in range(5)])),
    "default grid mse-grid": ("mse-grid", dict(n=100_000, grid=None)),
    "default grid coverage-grid": ("coverage-grid", dict(n=100_000, grid=None, alpha=0.9, x=None, ref_value=None)),
}


class TestResourceLimit:
    @pytest.mark.parametrize("case", sorted(OVERSIZED))
    def test_exit_3_names_key(self, tmp_path, capsys, case):
        command, overrides, key = OVERSIZED[case]
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries(**overrides))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, overrides", [("mse-grid", dict()), ("coverage-grid", dict(alpha=0.9, x=None, ref_value=None))], ids=["mse-grid", "coverage-grid"])
    def test_bootstrap_samples_allocate_nothing(self, tmp_path, command, overrides):
        # Each cell draws one binomial count or one beta level, whatever the replicate count.
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries(bootstrap_samples=10**12, replications=2, **overrides))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command, overrides", [("mse-grid", dict()), ("coverage-grid", dict(alpha=0.9, x=None, ref_value=None))], ids=["mse-grid", "coverage-grid"])
    def test_reference_chunk_charged_only_when_simulated(self, tmp_path, command, overrides):
        # Neither run simulates a reference, so n = 12000 asks for no 10**4 x n chunk of series.
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries(n=12000, grid={"cells": [[2, 3]]}, replications=1, **overrides))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_bootstrap_samples_past_float64_counts_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries(bootstrap_samples=10**30))
        assert main(["mse-grid", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "'bootstrap_samples'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(KERNEL_STACKS))
    def test_largest_allowed_kernel_stack_builds(self, case):
        command, overrides = KERNEL_STACKS[case]
        args = cli.make_parser().parse_args([command, "--config", "unused.yaml"])
        cli.build_config({key: value for key, value in tiny_entries(**overrides).items() if value is not None}, args)

    def test_largest_allowed_reference_chunk_builds(self):
        args = cli.make_parser().parse_args(["reference", "--config", "unused.yaml"])
        cfg = cli.build_config(dict(model="arma11", x=1.0, n=cli._MAX_ALLOCATION // 10_000), args)
        assert cfg.n == 10_000


# The harness function each subcommand runs, under the name the benchmark tracer rebinds.
ENTRY_POINTS = {
    "reference": ("reference_value", REFERENCE),
    "mse-grid": ("mse_grid", dict()),
    "coverage-grid": ("coverage_grid", dict(alpha=0.9)),
    "cdf-mse-grid": ("cdf_mse_grid", dict(y=0.9)),
    "tune": ("adaptive_study", dict(TUNE, c1_grid=[1.0])),
    "rate-study": ("rate_study", dict(n_list=[30, 60, 90], replications=2)),
}


class TestDispatch:
    def test_every_subcommand_has_an_entry_point(self):
        assert sorted(ENTRY_POINTS) == sorted(cli.EXPERIMENTS)

    @pytest.mark.parametrize("command", sorted(ENTRY_POINTS))
    def test_runs_the_harness_attribute_at_call_time(self, tmp_path, monkeypatch, command):
        name, overrides = ENTRY_POINTS[command]
        calls = []
        real = getattr(harness, name)

        def recording(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, name, recording)
        entries = {key: value for key, value in tiny_entries(**overrides).items() if value is not None}
        cfg = write_config(tmp_path / "c.yaml", **entries)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert calls == [name]


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["mse-grid", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["mse-grid", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "mse_grid.csv").read_bytes() == (out2 / "mse_grid.csv").read_bytes()

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries())
        out1, out8 = tmp_path / "w1", tmp_path / "w8"
        assert main(["mse-grid", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
        assert main(["mse-grid", "--config", cfg, "--out", str(out8), "--workers", "8"]) == 0
        assert (out1 / "mse_grid.csv").read_bytes() == (out8 / "mse_grid.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries())
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["mse-grid", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["mse-grid", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
        assert (out1 / "mse_grid.csv").read_bytes() != (out2 / "mse_grid.csv").read_bytes()


class TestSubcommands:
    def test_mse_grid_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries())
        out = tmp_path / "out"
        assert main(["mse-grid", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "mse_grid.csv").read_text().splitlines()
        assert lines[0] == "b,ell,metric,value,stderr"
        assert len(lines) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "mse-grid"
        assert manifest["master_seed"] == 3

    def test_run_dispatches_on_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", experiment="mse-grid", **tiny_entries())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "mse_grid.csv").exists()

    def test_reference_subcommand(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", model="arma11", n=30, x=1.0, kind="quantile", ref_replications=2000, seed=5)
        out = tmp_path / "out"
        assert main(["reference", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "reference.csv").read_text().splitlines()
        assert lines[0] == "model,n,kind,x,y,value,stderr,n_sims"
        fields = lines[1].split(",")
        assert fields[0] == "arma11" and fields[7] == "2000"
        assert 0.0 <= float(fields[5]) <= 1.0

    @pytest.mark.parametrize("kind, entries, unread", [("quantile", {}, {"y": 0.5}), ("cdf", {"y": 0.9}, {"p": 0.3})])
    def test_reference_unread_key_shares_the_cache_entry(self, tmp_path, kind, entries, unread):
        out = tmp_path / "out"
        csvs = []
        for i, extra in enumerate(({}, unread)):
            cfg = write_config(tmp_path / f"c{i}.yaml", model="arma11", n=30, x=1.0, kind=kind, ref_replications=2000, seed=5, **entries, **extra)
            assert main(["reference", "--config", cfg, "--out", str(out)]) == 0
            csvs.append((out / "reference.csv").read_text())
        assert len(json.loads((out / "reference_cache.json").read_text())) == 1
        assert csvs[0] == csvs[1]

    def test_coverage_subcommand(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries(alpha=0.9, replications=10, bootstrap_samples=60))
        out = tmp_path / "out"
        assert main(["coverage-grid", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "coverage_grid.csv").read_text().splitlines()
        assert len(lines) == 4 and "coverage" in lines[1]

    def test_cdf_subcommand(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", **tiny_entries(y=0.9))
        out = tmp_path / "out"
        assert main(["cdf-mse-grid", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "cdf_mse_grid.csv").exists()

    def test_tune_subcommand(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml",
            **tiny_entries(
                n=64,
                replications=6,
                bootstrap_samples=30,
                c1_grid=[0.5, 1.0],
                c2_grid=[0.5, 1.0],
                subsample_len=27,
                subsample_count=3,
                ref_value=0.75,
            ),
        )
        out = tmp_path / "out"
        assert main(["tune", "--config", cfg, "--out", str(out)]) == 0
        err_lines = (out / "tune_err_grid.csv").read_text().splitlines()
        assert err_lines[0] == "c1,c2,b_n,ell_n,err"
        assert len(err_lines) == 5
        study = (out / "tune_study.csv").read_text().splitlines()
        assert study[0] == "c1,c2,b,ell,metric,value,stderr"
        assert study[-1].split(",")[4] == "adaptive_mse"

    def test_rate_subcommand(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml",
            **tiny_entries(
                n_list=[30, 60, 90],
                replications=6,
                bootstrap_samples=20,
                ref_values={30: 0.7, 60: 0.7, 90: 0.7},
            ),
        )
        del_cfg = yaml.safe_load(open(cfg))
        del_cfg.pop("ref_value")
        open(cfg, "w").write(yaml.safe_dump(del_cfg))
        out = tmp_path / "out"
        assert main(["rate-study", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "rate_minima.csv").exists()
        assert (out / "rate_summary.csv").exists()
        assert (out / "mse_grid_n60.csv").exists()

    def test_smoke_config_is_fast(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml",
            model="arma11",
            n=50,
            x=1.0,
            grid={"b": [1, 8], "ell": [2, 8]},
            replications=50,
            bootstrap_samples=50,
            ref_value=0.7,
            seed=1,
        )
        start = time.monotonic()
        assert main(["mse-grid", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert time.monotonic() - start < 5.0
