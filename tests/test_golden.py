"""Golden outputs: every subcommand's CSVs, byte for byte, at 1 and 2 workers.

The expected texts were captured before the experiment loops were folded into
one replication loop; only the standard errors of the ``err_mean`` and
``selected_frac`` rows of ``tune_study.csv``, written as 0 then, were filled in
later.  Any change to which random draws an experiment consumes, to the order
in which it sums, or to the CSV format shows up here.
The cases are tiny (a few seconds in total) and cover Monte Carlo and exact
``mse-grid``, ``cdf-mse-grid``, ``coverage-grid`` (also with several plans
per block length, Monte Carlo and exact), a Monte Carlo ``tune`` run spanning
three replication chunks and an exact one spanning two, both reference kinds
and ``rate-study``.  The
Monte Carlo ``mse-grid``, ``cdf-mse-grid``, ``rate-study`` and ``tune`` texts
were captured again when each point estimate became one binomial draw around
the exact law, and the two Monte Carlo ``coverage-grid`` texts when each
bound became one beta-distributed level searched in the exact law; the exact
cases were pinned before those changes.  Each config holds only keys its
subcommand reads, so no run warns.
"""

import pytest
import yaml

from blockboot.cli import EXPERIMENTS, main

GRID = {"cells": [[1, 3], [2, 4], [5, 5]]}
# Several plans per block length, in mixed b order, so the bound's searches share window counts.
PLANS = {"cells": [[1, 4], [4, 4], [2, 4], [9, 4], [3, 6], [1, 6], [6, 6], [2, 2], [10, 2], [5, 2]]}
EXACT_PLANS = {"cells": [[1, 3], [4, 3], [2, 3], [8, 3], [3, 4], [1, 4], [6, 4]]}
BASE = dict(model="arma11", n=40, x=1.0, grid=GRID, replications=15, bootstrap_samples=25, ref_value=0.7, seed=3)

CASES = {
    "mse-grid": ("mse-grid", BASE),
    "mse-grid-exact": ("mse-grid", dict(model="arma11", n=12, x=1.0, grid={"cells": [[2, 2], [1, 3]]}, replications=6, exact=True, ref_value=0.6, seed=3)),
    "cdf-mse-grid": ("cdf-mse-grid", dict(BASE, x=0.0, y=0.9, ref_value=0.85)),
    "cdf-mse-grid-exact": (
        "cdf-mse-grid",
        dict(model="arma11", n=12, x=0.0, y=0.4, grid={"cells": [[2, 2], [1, 3], [3, 4]]}, replications=6, exact=True, ref_value=0.65, seed=3),
    ),
    "coverage-grid": (
        "coverage-grid",
        dict(model={"name": "polymix", "nu": 6.0, "n_terms": 20}, n=40, grid=GRID, alpha=0.9, replications=10, bootstrap_samples=60, seed=3),
    ),
    "coverage-grid-plans": ("coverage-grid", dict(model="arma11", n=40, grid=PLANS, alpha=0.9, replications=20, bootstrap_samples=60, seed=5)),
    "coverage-grid-plans-exact": (
        "coverage-grid",
        dict(model="arma11", n=24, grid=EXACT_PLANS, alpha=0.9, replications=8, exact=True, seed=5),
    ),
    "tune": (
        "tune",
        dict(
            model="arma11", n=64, x=1.0, replications=70, bootstrap_samples=20, c1_grid=[0.5, 1.0], c2_grid=[0.5, 1.0], subsample_len=27,
            subsample_count=3, ref_value=0.75, seed=3,
        ),
    ),
    "tune-exact": (
        "tune",
        dict(
            model="arma11", n=64, x=1.0, replications=40, exact=True, c1_grid=[0.5, 1.0], c2_grid=[0.5, 1.0], subsample_len=27,
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
            "1,3,mse,0.0164733,0.00228509\n"
            "2,4,mse,0.01018,0.00221933\n"
            "5,5,mse,0.00751333,0.0021565\n"
        ),
    },
    "cdf-mse-grid-exact": {
        "cdf_mse_grid.csv": (
            "b,ell,metric,value,stderr\n"
            "2,2,mse,0.0362866,0.0167428\n"
            "1,3,mse,0.0325,0.0168325\n"
            "3,4,mse,0.0568714,0.0177159\n"
        ),
    },
    "coverage-grid": {
        "coverage_grid.csv": (
            "b,ell,metric,value,stderr\n"
            "1,3,coverage,0.9,0.0948683\n"
            "2,4,coverage,0.7,0.144914\n"
            "5,5,coverage,0.8,0.126491\n"
        ),
    },
    "coverage-grid-plans": {
        "coverage_grid.csv": (
            "b,ell,metric,value,stderr\n"
            "1,4,coverage,0.7,0.10247\n"
            "4,4,coverage,0.7,0.10247\n"
            "2,4,coverage,0.7,0.10247\n"
            "9,4,coverage,0.6,0.109545\n"
            "3,6,coverage,0.7,0.10247\n"
            "1,6,coverage,0.75,0.0968246\n"
            "6,6,coverage,0.65,0.106654\n"
            "2,2,coverage,0.6,0.109545\n"
            "10,2,coverage,0.6,0.109545\n"
            "5,2,coverage,0.7,0.10247\n"
        ),
    },
    "coverage-grid-plans-exact": {
        "coverage_grid.csv": (
            "b,ell,metric,value,stderr\n"
            "1,3,coverage,0.75,0.153093\n"
            "4,3,coverage,0.75,0.153093\n"
            "2,3,coverage,0.625,0.171163\n"
            "8,3,coverage,0.75,0.153093\n"
            "3,4,coverage,0.75,0.153093\n"
            "1,4,coverage,0.625,0.171163\n"
            "6,4,coverage,0.75,0.153093\n"
        ),
    },
    "mse-grid": {
        "mse_grid.csv": (
            "b,ell,metric,value,stderr\n"
            "1,3,mse,0.01192,0.00298362\n"
            "2,4,mse,0.0193867,0.00744204\n"
            "5,5,mse,0.0181067,0.00546289\n"
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
            "2,3,mse,0.0366667,0.0129725\n"
            "3,4,mse,0.0316667,0.0123416\n"
        ),
        "mse_grid_n60.csv": (
            "b,ell,metric,value,stderr\n"
            "2,3,mse,0.0191667,0.00668401\n"
            "3,4,mse,0.01375,0.00492125\n"
        ),
        "mse_grid_n90.csv": (
            "b,ell,metric,value,stderr\n"
            "2,3,mse,0.02125,0.0081809\n"
            "3,4,mse,0.0145833,0.00538183\n"
        ),
        "rate_minima.csv": (
            "n,min_mse,b,ell\n"
            "30,0.0316667,3,4\n"
            "60,0.01375,3,4\n"
            "90,0.0145833,3,4\n"
        ),
        "rate_summary.csv": (
            "metric,value\n"
            "slope,-0.759385\n"
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
            "0.5,0.5,2,2,0.0235952\n"
            "0.5,1,2,4,0.0265119\n"
            "1,0.5,4,2,0.0215357\n"
            "1,1,4,4,0.0302857\n"
        ),
        "tune_study.csv": (
            "c1,c2,b,ell,metric,value,stderr\n"
            "0.5,0.5,2,2,mse,0.0178571,0.0019048\n"
            "0.5,0.5,2,2,err_mean,0.0235952,0.00247175\n"
            "0.5,0.5,2,2,selected_frac,0.3,0.0547723\n"
            "0.5,1,2,4,mse,0.0134643,0.00214363\n"
            "0.5,1,2,4,err_mean,0.0265119,0.00265336\n"
            "0.5,1,2,4,selected_frac,0.242857,0.0512525\n"
            "1,0.5,4,2,mse,0.0129286,0.00198397\n"
            "1,0.5,4,2,err_mean,0.0215357,0.00250643\n"
            "1,0.5,4,2,selected_frac,0.3,0.0547723\n"
            "1,1,4,4,mse,0.0128214,0.00168041\n"
            "1,1,4,4,err_mean,0.0302857,0.00303092\n"
            "1,1,4,4,selected_frac,0.157143,0.0434986\n"
            ",,,,adaptive_mse,0.00982143,0.00145276\n"
        ),
    },
    "tune-exact": {
        "tune_err_grid.csv": (
            "c1,c2,b_n,ell_n,err\n"
            "0.5,0.5,2,2,0.00991521\n"
            "0.5,1,2,4,0.0145795\n"
            "1,0.5,4,2,0.00924295\n"
            "1,1,4,4,0.014317\n"
        ),
        "tune_study.csv": (
            "c1,c2,b,ell,metric,value,stderr\n"
            "0.5,0.5,2,2,mse,0.0134171,0.00131403\n"
            "0.5,0.5,2,2,err_mean,0.00991521,0.000964691\n"
            "0.5,0.5,2,2,selected_frac,0.275,0.0706001\n"
            "0.5,1,2,4,mse,0.0065618,0.00118822\n"
            "0.5,1,2,4,err_mean,0.0145795,0.00155699\n"
            "0.5,1,2,4,selected_frac,0.125,0.0522913\n"
            "1,0.5,4,2,mse,0.00890992,0.00143662\n"
            "1,0.5,4,2,err_mean,0.00924295,0.00120843\n"
            "1,0.5,4,2,selected_frac,0.375,0.0765466\n"
            "1,1,4,4,mse,0.00628699,0.00132508\n"
            "1,1,4,4,err_mean,0.014317,0.00223768\n"
            "1,1,4,4,selected_frac,0.225,0.0660256\n"
            ",,,,adaptive_mse,0.0071701,0.00125911\n"
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
