"""Seedable generators for stationary test processes.

Three process families are provided, each strongly mixing:

``arma11``
    Gaussian ARMA(1,1), ``X_t = 0.4 X_{t-1} + e_t + 0.3 e_{t-1}``, with
    exponentially decaying mixing coefficients.
``arma23sq``
    The square ``Y_t = X_t**2`` of a Gaussian ARMA(2,3)
    ``X_t = 0.1 X_{t-1} - 0.3 X_{t-2} + e_t + 0.1 e_{t-1} + 0.2 e_{t-2}
    - 0.1 e_{t-3}``; squaring preserves the exponential mixing rate.
``polymix``
    A truncated one-sided moving average ``X_t = sum_j c_j Z_{t-j}`` with
    ``c_j = (1/(j+1))**nu``, whose mixing coefficients decay polynomially
    with exponent bounded by ``nu - 2``.

A :class:`ModelSpec` is the process kind plus the parameters its simulation
reads, so any causal ARMA coefficients can replace the presets'.  ARMA
recursions are started from the exact stationary joint law of the initial
states and innovations (computed from the moving-average weights), so every
output value has the stationary marginal distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .seeding import substream

__all__ = [
    "ModelSpec",
    "MODEL_NAMES",
    "arma11_model",
    "squared_arma23_model",
    "poly_mixing_model",
    "constant_model",
    "model_from_name",
    "simulate",
    "simulate_batch",
]

MODEL_NAMES = ("arma11", "arma23sq", "polymix")


@dataclass(frozen=True)
class ModelSpec:
    """A stationary test process: its kind and the parameters its simulation reads.

    Attributes
    ----------
    kind : str
        One of ``"arma11"``, ``"arma23sq"``, ``"polymix"``, ``"constant"``.
    params : dict
        ``ar`` and ``ma`` coefficient tuples for the ARMA kinds, ``nu`` and
        ``n_terms`` for ``polymix``, ``value`` for ``constant``.
    """

    kind: str
    params: dict = field(default_factory=dict)

    @property
    def marginal_sd(self) -> float:
        """Standard deviation of the stationary marginal; for ``arma23sq``, of the latent Gaussian series."""
        if self.kind in ("arma11", "arma23sq"):
            return math.sqrt(_arma_autocov(tuple(self.params["ar"]), tuple(self.params["ma"]), 0)[0])
        if self.kind == "polymix":
            return math.sqrt(float(np.sum(_poly_coeffs(self.params["nu"], self.params["n_terms"]) ** 2)))
        return 0.0

    def marginal_cdf(self, x):
        """Stationary marginal distribution function, evaluated at ``x``."""
        from scipy.special import ndtr  # imported here: scipy.special is slow to import, and only the marginal CDF and quantile use it

        x = np.asarray(x, dtype=float)
        if self.kind in ("arma11", "polymix"):
            out = ndtr(x / self.marginal_sd)
        elif self.kind == "arma23sq":
            out = np.where(x > 0.0, 2.0 * ndtr(np.sqrt(np.maximum(x, 0.0)) / self.marginal_sd) - 1.0, 0.0)
        elif self.kind == "constant":
            out = (x >= self.params["value"]).astype(float)
        else:
            raise ValueError(f"no closed-form marginal CDF for model kind {self.kind!r}")
        return float(out) if out.ndim == 0 else out

    def marginal_quantile(self, p: float) -> float:
        """Stationary marginal quantile function at probability ``p``."""
        from scipy.special import ndtri  # imported here, as in marginal_cdf

        if not 0.0 < p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if self.kind in ("arma11", "polymix"):
            return float(self.marginal_sd * ndtri(p))
        if self.kind == "arma23sq":
            return float((self.marginal_sd * ndtri((1.0 + p) / 2.0)) ** 2)
        if self.kind == "constant":
            return float(self.params["value"])
        raise ValueError(f"no closed-form marginal quantile for model kind {self.kind!r}")


def _psi_weights(ar: tuple, ma: tuple, count: int) -> np.ndarray:
    """Moving-average weights of the causal ARMA transfer function."""
    p, q = len(ar), len(ma)
    psi = np.zeros(count)
    psi[0] = 1.0
    for k in range(1, count):
        acc = ma[k - 1] if k <= q else 0.0
        for i in range(1, min(k, p) + 1):
            acc += ar[i - 1] * psi[k - i]
        psi[k] = acc
    return psi


@lru_cache(maxsize=None)
def _arma_autocov(ar: tuple, ma: tuple, n_lags: int, n_terms: int = 512) -> tuple:
    psi = _psi_weights(ar, ma, n_terms)
    return tuple(float(psi[: n_terms - k] @ psi[k:]) for k in range(n_lags + 1))


@lru_cache(maxsize=None)
def _stationary_start_chol(ar: tuple, ma: tuple) -> np.ndarray:
    """Cholesky factor of the joint stationary covariance of the start state.

    The state vector is ``(X_0, ..., X_{1-p}, e_0, ..., e_{1-q})``; under
    stationarity ``Cov(X_{-a}, e_{-b})`` equals the moving-average weight
    ``psi_{b-a}`` for ``b >= a``.
    """
    p, q = len(ar), len(ma)
    gamma = _arma_autocov(ar, ma, p + 1)
    psi = _psi_weights(ar, ma, q + 1)
    dim = p + q
    cov = np.zeros((dim, dim))
    for a in range(p):
        for b in range(p):
            cov[a, b] = gamma[abs(a - b)]
    for a in range(p):
        for b in range(q):
            cov[a, p + b] = cov[p + b, a] = psi[b - a] if b >= a else 0.0
    cov[p:, p:] = np.eye(q)
    return np.linalg.cholesky(cov)


def _by_row(rng, count: int, draw) -> np.ndarray:
    """``draw(rng, count)`` from one generator; from a sequence of generators, row ``i`` is ``draw(rng[i], 1)``."""
    if isinstance(rng, np.random.Generator):
        return draw(rng, count)
    return np.concatenate([draw(r, 1) for r in rng])


def _arma_batch(ar, ma, n, count, rng):
    p, q = len(ar), len(ma)
    chol = _stationary_start_chol(tuple(ar), tuple(ma))
    state = _by_row(rng, count, lambda r, rows: r.standard_normal((rows, p + q)) @ chol.T)

    # Time-major buffers, one column per series: the rows of x hold
    # X_{1-p}, ..., X_0, X_1, ..., X_n and the rows of e hold
    # e_{1-q}, ..., e_0, e_1, ..., e_n, so each step reads and writes
    # contiguous rows.  The result is a transposed view, not a copy.
    x = np.empty((p + n, count))
    e = np.empty((q + n, count))
    x[:p] = state[:, :p][:, ::-1].T
    e[:q] = state[:, p:][:, ::-1].T
    e[q:] = _by_row(rng, count, lambda r, rows: r.standard_normal((rows, n))).T
    for t in range(n):
        acc = e[q + t].copy()
        for j, theta in enumerate(ma, start=1):
            acc += theta * e[q + t - j]
        for i, phi in enumerate(ar, start=1):
            acc += phi * x[p + t - i]
        x[p + t] = acc
    return x[p:].T


def _poly_coeffs(nu: float, n_terms: int) -> np.ndarray:
    return (1.0 / (np.arange(n_terms) + 1.0)) ** nu


def _poly_mixing_batch(nu, n_terms, n, count, rng):
    # Imported here: scipy.signal is slow to import and only this model uses it.
    from scipy.signal import fftconvolve

    coeffs = _poly_coeffs(nu, n_terms)
    z = _by_row(rng, count, lambda r, rows: r.standard_normal((rows, n + n_terms - 1)))
    return fftconvolve(z, coeffs[None, :], mode="valid", axes=1)


def arma11_model() -> ModelSpec:
    """Preset Gaussian ARMA(1,1) with ``phi=0.4``, ``theta=0.3``."""
    return ModelSpec(kind="arma11", params={"ar": (0.4,), "ma": (0.3,)})


def squared_arma23_model() -> ModelSpec:
    """Preset squared Gaussian ARMA(2,3); ``marginal_sd`` refers to the latent series."""
    return ModelSpec(kind="arma23sq", params={"ar": (0.1, -0.3), "ma": (0.1, 0.2, -0.1)})


def poly_mixing_model(nu: float = 10.0, n_terms: int = 100) -> ModelSpec:
    """Preset truncated moving average with polynomial mixing rate.

    Parameters
    ----------
    nu : float
        Coefficient decay exponent; must exceed 2 for a nondegenerate mixing
        bound.
    n_terms : int
        Truncation point of the moving-average series (default 100).
    """
    if nu <= 2.0:
        raise ValueError("nu must exceed 2 (mixing bound degenerate)")
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    return ModelSpec(kind="polymix", params={"nu": float(nu), "n_terms": int(n_terms)})


def constant_model(value: float = 0.0) -> ModelSpec:
    """Degenerate model emitting a constant series; useful in tests."""
    return ModelSpec(kind="constant", params={"value": float(value)})


def model_from_name(name: str, nu: float | None = None, n_terms: int | None = None) -> ModelSpec:
    """Look up a model preset by name (``arma11``, ``arma23sq``, ``polymix``).

    ``nu`` and ``n_terms`` override the ``polymix`` defaults and are rejected
    for the other presets.
    """
    if name == "arma11" or name == "arma23sq":
        if nu is not None or n_terms is not None:
            raise ValueError(f"model {name!r} takes no nu/n_terms overrides")
        return arma11_model() if name == "arma11" else squared_arma23_model()
    if name == "polymix":
        return poly_mixing_model(nu=10.0 if nu is None else nu, n_terms=100 if n_terms is None else n_terms)
    raise ValueError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")


def simulate_batch(model: ModelSpec, n: int, count: int, rng) -> np.ndarray:
    """Simulate ``count`` independent length-``n`` sample paths.

    Returns an array of shape ``(count, n)``, one recursion over all rows.
    ``rng`` is one generator, or a sequence of ``count`` generators, one per
    row.  Rows are mutually independent and the draw layout is fixed, so the
    generators' states determine the output bit for bit: one generator draws
    every row's start state, then every row's innovations; with one generator
    per row, row ``i`` equals ``simulate_batch(model, n, 1, rng[i])[0]``.
    """
    if n < 1:
        raise ValueError("series length n must be at least 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    if not isinstance(rng, np.random.Generator) and len(rng) != count:
        raise ValueError(f"expected one generator or {count} generators, one per row, got {len(rng)}")
    if model.kind in ("arma11", "arma23sq"):
        x = _arma_batch(model.params["ar"], model.params["ma"], n, count, rng)
        return x**2 if model.kind == "arma23sq" else x
    if model.kind == "polymix":
        return _poly_mixing_batch(model.params["nu"], model.params["n_terms"], n, count, rng)
    if model.kind == "constant":
        return np.full((count, n), model.params["value"])
    raise ValueError(f"cannot simulate model kind {model.kind!r}")


def simulate(model: ModelSpec, n: int, seed: int) -> np.ndarray:
    """Simulate a single length-``n`` sample path from ``model`` under the given seed."""
    return simulate_batch(model, n, 1, substream(seed))[0]
