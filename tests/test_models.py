import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from blockboot import models
from blockboot.models import (
    ModelSpec,
    arma11_model,
    constant_model,
    model_from_name,
    poly_mixing_model,
    simulate,
    simulate_batch,
    squared_arma23_model,
)
from blockboot.seeding import substream

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ARMA11_VAR = 1.5833
ARMA23_VAR = 1.0776


def pooled_lag1_corr(batch):
    x0 = batch[:, :-1].ravel()
    x1 = batch[:, 1:].ravel()
    return float(np.corrcoef(x0, x1)[0, 1])


class TestPresets:
    def test_arma11_parameters(self):
        m = arma11_model()
        assert m.params == {"ar": (0.4,), "ma": (0.3,)}
        assert m.marginal_sd**2 == pytest.approx(ARMA11_VAR, abs=1e-3)
        assert m.marginal_quantile(0.5) == 0.0

    def test_arma23_latent_variance(self):
        m = squared_arma23_model()
        assert m.marginal_sd**2 == pytest.approx(ARMA23_VAR, abs=1e-3)
        assert m.params == {"ar": (0.1, -0.3), "ma": (0.1, 0.2, -0.1)}
        assert m.marginal_quantile(0.5) == pytest.approx((0.675 * math.sqrt(ARMA23_VAR)) ** 2, abs=1e-3)

    def test_polymix_coefficients(self):
        m = poly_mixing_model()
        assert m.params == {"nu": 10.0, "n_terms": 100}
        expected_var = sum((1.0 / (j + 1)) ** 20 for j in range(100))
        assert m.marginal_sd**2 == pytest.approx(expected_var, rel=1e-12)

    def test_polymix_rejects_degenerate_nu(self):
        with pytest.raises(ValueError):
            poly_mixing_model(nu=2.0)
        with pytest.raises(ValueError):
            poly_mixing_model(n_terms=0)

    def test_model_from_name(self):
        assert model_from_name("arma11").kind == "arma11"
        assert model_from_name("arma23sq").kind == "arma23sq"
        custom = model_from_name("polymix", nu=4.0, n_terms=10)
        assert custom.params == {"nu": 4.0, "n_terms": 10}
        with pytest.raises(ValueError):
            model_from_name("garch")
        with pytest.raises(ValueError):
            model_from_name("arma11", nu=3.0)

    def test_marginal_cdf_and_quantile_are_inverse(self):
        for m in (arma11_model(), squared_arma23_model(), poly_mixing_model()):
            for p in (0.1, 0.5, 0.9):
                assert m.marginal_cdf(m.marginal_quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_cdf_without_closed_form_raises(self):
        weird = models.ModelSpec(kind="custom")
        with pytest.raises(ValueError):
            weird.marginal_cdf(0.0)
        with pytest.raises(ValueError):
            weird.marginal_quantile(0.5)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["arma11", "arma23sq", "polymix"])
    def test_same_seed_same_series(self, name):
        m = model_from_name(name)
        a = simulate(m, 100, seed=7)
        b = simulate(m, 100, seed=7)
        assert np.array_equal(a, b)
        assert np.any(simulate(m, 100, seed=8) != a)

    def test_simulate_is_one_batch_row(self):
        series = simulate(arma11_model(), 50, seed=3)
        assert series.shape == (50,)
        assert np.array_equal(series, simulate_batch(arma11_model(), 50, 1, substream(3))[0])

    def test_invalid_length(self):
        for name in ("arma11", "arma23sq", "polymix"):
            with pytest.raises(ValueError):
                simulate(model_from_name(name), 0, seed=1)


def reference_arma(ar, ma, n, count, seed):
    """The ARMA recursion per series in Python floats, fed the draws ``simulate_batch`` makes from ``substream(seed)``.

    Per step: ``acc = e_t``, then ``acc += theta_j * e_{t-j}`` for j = 1..q,
    then ``acc += phi_i * x_{t-i}`` for i = 1..p.
    """
    p, q = len(ar), len(ma)
    rng = substream(seed)
    state = rng.standard_normal((count, p + q)) @ models._stationary_start_chol(tuple(ar), tuple(ma)).T
    innovations = rng.standard_normal((count, n))
    rows = []
    for k in range(count):
        # x[i] is X_{i+1-p}, e[j] is e_{j+1-q}; the state lists X_0, X_{-1}, ... and e_0, e_{-1}, ...
        x = [float(v) for v in state[k, :p][::-1]]
        e = [float(v) for v in state[k, p:][::-1]] + [float(v) for v in innovations[k]]
        for t in range(n):
            acc = e[q + t]
            for j in range(1, q + 1):
                acc += ma[j - 1] * e[q + t - j]
            for i in range(1, p + 1):
                acc += ar[i - 1] * x[p + t - i]
            x.append(acc)
        rows.append(x[p:])
    return rows


class TestBitExactOracle:
    @pytest.mark.parametrize("count", [1, 7])
    @pytest.mark.parametrize(
        "model",
        [arma11_model(), squared_arma23_model(), ModelSpec("arma11", {"ar": (0.5, -0.2), "ma": (0.3,)})],
        ids=["arma11", "arma23sq", "custom-ar2"],
    )
    def test_batch_equals_scalar_recursion(self, model, count):
        n, seed = 40, 61
        rows = reference_arma(model.params["ar"], model.params["ma"], n, count, seed)
        if model.kind == "arma23sq":
            rows = [[v * v for v in row] for row in rows]
        batch = simulate_batch(model, n, count, substream(seed))
        assert batch.shape == (count, n)
        assert batch.tolist() == rows


class TestPerRowGenerators:
    # tests/test_harness.py::TestReplicationChunks checks each row against its one-row batch, for every model kind.
    def test_generator_count_must_match_rows(self):
        with pytest.raises(ValueError, match="3 generators, one per row, got 2"):
            simulate_batch(arma11_model(), 10, 3, [substream(1), substream(2)])


class TestArma11:
    def test_first_value_has_marginal_variance(self):
        batch = simulate_batch(arma11_model(), 1, 10**5, substream(11))
        assert batch[:, 0].var() == pytest.approx(ARMA11_VAR, abs=0.03)

    def test_lag1_autocorrelation_matches_pair_oracle(self):
        phi, theta = 0.4, 0.3
        closed_form = (1 + phi * theta) * (phi + theta) / (1 + 2 * phi * theta + theta**2)
        estimate = pooled_lag1_corr(simulate_batch(arma11_model(), 10_000, 100, substream(13)))
        # Oracle: ten lag-1 pairs from each of 10^6 independent short series.
        oracle = pooled_lag1_corr(simulate_batch(arma11_model(), 11, 10**6, substream(14)))
        assert estimate == pytest.approx(oracle, abs=0.01)
        assert estimate == pytest.approx(closed_form, abs=0.01)
        assert oracle == pytest.approx(closed_form, abs=0.01)


class TestSpecIsTheProcess:
    def test_arma_coefficients_are_the_simulated_ones(self):
        m = ModelSpec("arma11", {"ar": (0.9,), "ma": (0.0,)})
        assert m.marginal_sd**2 == pytest.approx(1.0 / (1.0 - 0.81), rel=1e-12)
        batch = simulate_batch(m, 2000, 50, substream(15))
        assert pooled_lag1_corr(batch) == pytest.approx(0.9, abs=0.01)
        assert batch.var() == pytest.approx(1.0 / (1.0 - 0.81), rel=0.05)


class TestSquaredArma23:
    def test_latent_first_value_variance(self):
        m = squared_arma23_model()
        latent = models._arma_batch(m.params["ar"], m.params["ma"], 1, 10**5, substream(21))
        assert latent[:, 0].var() == pytest.approx(ARMA23_VAR, abs=0.03)

    def test_population_median(self):
        batch = simulate_batch(squared_arma23_model(), 500, 2000, substream(22))
        target = (0.675 * math.sqrt(ARMA23_VAR)) ** 2
        assert np.median(batch) == pytest.approx(target, abs=0.01)

    def test_values_nonnegative(self):
        assert np.all(simulate(squared_arma23_model(), 500, seed=23) >= 0.0)


class TestPolyMixing:
    def test_marginal_variance_matches_coefficient_sum(self):
        target = sum((1.0 / (j + 1)) ** 20 for j in range(100))
        batch = simulate_batch(poly_mixing_model(), 1000, 1000, substream(31))
        assert batch.var() == pytest.approx(target, abs=0.01)

    def test_single_term_is_iid(self):
        m = poly_mixing_model(nu=10.0, n_terms=1)
        batch = simulate_batch(m, 10_000, 100, substream(32))
        assert abs(pooled_lag1_corr(batch)) < 0.005

    def test_population_median_zero(self):
        batch = simulate_batch(poly_mixing_model(), 1, 10**5, substream(33))
        assert (batch[:, 0] <= 0.0).mean() == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(10**5))

    def test_scipy_signal_loads_only_for_polymix(self):
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        script = (
            "import sys, blockboot.cli\n"
            "from blockboot.models import poly_mixing_model, simulate\n"
            "before = 'scipy.signal' in sys.modules\n"
            "simulate(poly_mixing_model(), 10, seed=1)\n"
            "print(before, 'scipy.signal' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True"]

    def test_scipy_special_loads_only_for_a_marginal(self):
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        script = (
            "import sys, blockboot.cli\n"
            "from blockboot.models import arma11_model\n"
            "before = 'scipy.special' in sys.modules\n"
            "arma11_model().marginal_quantile(0.5)\n"
            "print(before, 'scipy.special' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True"]


class TestStationarity:
    N_REPS = 10**5
    N = 40

    @pytest.mark.parametrize("name", ["arma11", "arma23sq", "polymix"])
    def test_first_and_last_moments_agree(self, name):
        batch = simulate_batch(model_from_name(name), self.N, self.N_REPS, substream(41))
        first, last = batch[:, 0], batch[:, -1]
        se_mean = math.sqrt(first.var() / self.N_REPS + last.var() / self.N_REPS)
        assert abs(first.mean() - last.mean()) < 3 * se_mean
        se_var = math.sqrt(2.0 / self.N_REPS) * max(first.var(), last.var())
        assert abs(first.var() - last.var()) < 3 * math.sqrt(2) * se_var

    @pytest.mark.parametrize("name", ["arma11", "polymix"])
    def test_symmetric_presets_centered(self, name):
        batch = simulate_batch(model_from_name(name), 1, self.N_REPS, substream(42))
        below = (batch[:, 0] <= 0.0).mean()
        assert abs(below - 0.5) < 3 * 0.5 / math.sqrt(self.N_REPS)


class TestConstantModel:
    def test_constant_series(self):
        m = constant_model(2.5)
        batch = simulate_batch(m, 10, 3, substream(51))
        assert np.all(batch == 2.5)
        assert m.marginal_quantile(0.5) == 2.5
        assert m.marginal_cdf(2.5) == 1.0
        assert m.marginal_cdf(2.49) == 0.0
