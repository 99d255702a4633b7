"""Golden outputs: every subcommand's CSVs, byte for byte, at 1 and 2 workers.

The expected texts were captured before the experiment loops were folded into
one replication loop; only the standard errors of the ``err_mean`` and
``selected_frac`` rows of ``tune_study.csv``, written as 0 then, were filled in
later.  Any change to which random draws an experiment consumes, to the order
in which it sums, or to the CSV format shows up here.
The cases are tiny (a few seconds in total) and cover Monte Carlo and exact
``mse-grid``, ``cdf-mse-grid``, ``coverage-grid``, a ``tune`` run spanning
three replication chunks, both reference kinds and ``rate-study``.  Each
config holds only keys its subcommand reads, so no run warns.
"""

import pytest
import yaml

from blockboot.cli import EXPERIMENTS, main

GRID = {"cells": [[1, 3], [2, 4], [5, 5]]}
BASE = dict(model="arma11", n=40, x=1.0, grid=GRID, replications=15, bootstrap_samples=25, ref_value=0.7, seed=3)

CASES = {
    "mse-grid": ("mse-grid", BASE),
    "mse-grid-exact": ("mse-grid", dict(BASE, n=12, grid={"cells": [[2, 2], [1, 3]]}, replications=6, exact=True, ref_value=0.6)),
    "cdf-mse-grid": ("cdf-mse-grid", dict(BASE, x=0.0, y=0.9, ref_value=0.85)),
    "coverage-grid": (
        "coverage-grid",
        dict(model={"name": "polymix", "nu": 6.0, "n_terms": 20}, n=40, grid=GRID, alpha=0.9, replications=10, bootstrap_samples=60, seed=3),
    ),
    "tune": (
        "tune",
        dict(
            model="arma11", n=64, x=1.0, replications=70, bootstrap_samples=20, c1_grid=[0.5, 1.0], c2_grid=[0.5, 1.0], subsample_len=27,
            subsample_count=3, ref_value=0.75, seed=3,
        ),
    ),
    "reference-quantile": ("reference", dict(model="arma11", n=30, x=1.0, kind="quantile", ref_replications=3000, seed=5)),
    "reference-cdf": ("reference", dict(model="arma23sq", n=30, x=0.5, y=0.4, kind="cdf", ref_replications=3000, seed=5)),
    "rate-study": (
        "rate-study",
        dict(
            model="arma11", n_list=[30, 60, 90], x=1.0, grid={"cells": [[2, 3], [3, 4]]}, replications=6, bootstrap_samples=20,
            ref_values={30: 0.7, 60: 0.7, 90: 0.7}, seed=3,
        ),
    ),
}

GOLDEN = {
    "cdf-mse-grid": {
        "cdf_mse_grid.csv": (
            "b,ell,metric,value,stderr\n"
            "1,3,mse,0.0204733,0.0026846\n"
            "2,4,mse,0.00895333,0.00184053\n"
            "5,5,mse,0.01018,0.00221933\n"
        ),
    },
    "coverage-grid": {
        "coverage_grid.csv": (
            "b,ell,metric,value,stderr\n"
            "1,3,coverage,0.9,0.0948683\n"
            "2,4,coverage,0.7,0.144914\n"
            "5,5,coverage,0.9,0.0948683\n"
        ),
    },
    "mse-grid": {
        "mse_grid.csv": (
            "b,ell,metric,value,stderr\n"
            "1,3,mse,0.02216,0.00699915\n"
            "2,4,mse,0.0225867,0.00517716\n"
            "5,5,mse,0.0228,0.00607157\n"
        ),
    },
    "mse-grid-exact": {
        "mse_grid.csv": (
            "b,ell,metric,value,stderr\n"
            "2,2,mse,0.0559338,0.00743793\n"
            "1,3,mse,0.0183333,0.00641901\n"
        ),
    },
    "rate-study": {
        "mse_grid_n30.csv": (
            "b,ell,metric,value,stderr\n"
            "2,3,mse,0.0408333,0.0167567\n"
            "3,4,mse,0.0433333,0.0096225\n"
        ),
        "mse_grid_n60.csv": (
            "b,ell,metric,value,stderr\n"
            "2,3,mse,0.0179167,0.0049797\n"
            "3,4,mse,0.0141667,0.00554861\n"
        ),
        "mse_grid_n90.csv": (
            "b,ell,metric,value,stderr\n"
            "2,3,mse,0.0166667,0.00542201\n"
            "3,4,mse,0.00625,0.00153093\n"
        ),
        "rate_minima.csv": (
            "n,min_mse,b,ell\n"
            "30,0.0408333,2,3\n"
            "60,0.0141667,3,4\n"
            "90,0.00625,3,4\n"
        ),
        "rate_summary.csv": (
            "metric,value\n"
            "slope,-1.68893\n"
        ),
    },
    "reference-cdf": {
        "reference.csv": (
            "model,n,kind,x,y,value,stderr,n_sims\n"
            "arma23sq,30,cdf,0.5,0.4,0.803333,0.00725693,3000\n"
        ),
    },
    "reference-quantile": {
        "reference.csv": (
            "model,n,kind,x,y,value,stderr,n_sims\n"
            "arma11,30,quantile,1,,0.706667,0.00831242,3000\n"
        ),
    },
    "tune": {
        "tune_err_grid.csv": (
            "c1,c2,b_n,ell_n,err\n"
            "0.5,0.5,2,2,0.0225238\n"
            "0.5,1,2,4,0.0330238\n"
            "1,0.5,4,2,0.0220952\n"
            "1,1,4,4,0.028369\n"
        ),
        "tune_study.csv": (
            "c1,c2,b,ell,metric,value,stderr\n"
            "0.5,0.5,2,2,mse,0.0161071,0.00197344\n"
            "0.5,0.5,2,2,err_mean,0.0225238,0.00256723\n"
            "0.5,0.5,2,2,selected_frac,0.385714,0.0581794\n"
            "0.5,1,2,4,mse,0.01325,0.00167389\n"
            "0.5,1,2,4,err_mean,0.0330238,0.00307411\n"
            "0.5,1,2,4,selected_frac,0.142857,0.0418243\n"
            "1,0.5,4,2,mse,0.0112143,0.00166349\n"
            "1,0.5,4,2,err_mean,0.0220952,0.00242721\n"
            "1,0.5,4,2,selected_frac,0.3,0.0547723\n"
            "1,1,4,4,mse,0.0121429,0.00184632\n"
            "1,1,4,4,err_mean,0.028369,0.00295154\n"
            "1,1,4,4,selected_frac,0.171429,0.0450461\n"
            ",,,,adaptive_mse,0.0101786,0.00146413\n"
        ),
    },
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_csvs_match_golden(tmp_path, capsys, case, workers):
    command, entries = CASES[case]
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(entries))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--workers", str(workers)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(GOLDEN[case])
    for name, text in GOLDEN[case].items():
        assert (out / name).read_text() == text, name


def test_cases_cover_every_subcommand():
    assert {command for command, _ in CASES.values()} == set(EXPERIMENTS)
