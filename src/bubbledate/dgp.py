"""Simulation of four-regime bubble paths and their error processes."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .rng import stream
from .types import ConfigError, DgpConfig, LinearProcessCoeffs, Series, SingleShiftVolatility

__all__ = [
    "IidGaussian",
    "VolatilityScaled",
    "LinearProcess",
    "ErrorSpec",
    "generate_errors",
    "simulate",
]


@dataclass(frozen=True)
class IidGaussian:
    """e_t = sigma * z_t with z_t i.i.d. standard normal."""

    sigma: float = 1.0

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ConfigError([f"sigma must be positive and finite, got {self.sigma}"])


@dataclass(frozen=True)
class VolatilityScaled:
    """e_t = omega(t / T) * z_t: independent normals under a volatility schedule."""

    profile: SingleShiftVolatility

    def __post_init__(self):
        if not isinstance(self.profile, SingleShiftVolatility):
            raise ConfigError([f"unsupported volatility profile: {type(self.profile).__name__}"])


@dataclass(frozen=True)
class LinearProcess:
    """e_t = sum_j psi_j v_{t-j} with i.i.d. normal innovations v."""

    coeffs: LinearProcessCoeffs
    innovation_sigma: float = 1.0

    def __post_init__(self):
        if not (self.innovation_sigma > 0.0 and math.isfinite(self.innovation_sigma)):
            raise ConfigError([f"innovation_sigma must be positive and finite, got {self.innovation_sigma}"])


ErrorSpec = Union[IidGaussian, VolatilityScaled, LinearProcess]


def _filter_innovations(psi: np.ndarray, v: np.ndarray, T: int) -> np.ndarray:
    # v holds v_{1-L} .. v_T for psi_0..psi_L, e_1 reading back to v_{1-L};
    # "valid" output t - 1 is sum_j psi_j v_{t-j}.
    return np.convolve(v, psi, mode="valid")[:T]


def generate_errors(spec: ErrorSpec, T: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the error sequence e_1 .. e_T for one replication from rng."""
    if T < 1:
        raise ConfigError([f"T must be positive, got {T}"])
    if isinstance(spec, IidGaussian):
        return spec.sigma * rng.standard_normal(T)
    if isinstance(spec, VolatilityScaled):
        z = rng.standard_normal(T)
        t = np.arange(1, T + 1, dtype=np.float64)
        return spec.profile.omega(t / T) * z
    if isinstance(spec, LinearProcess):
        v = spec.innovation_sigma * rng.standard_normal(spec.coeffs.order + T)
        return _filter_innovations(spec.coeffs.as_array(), v, T)
    raise ConfigError([f"unsupported error spec: {type(spec).__name__}"])


def _regime_recursion(config: DgpConfig, phi_a: np.ndarray, phi_b: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Run the regime recursion for several coefficient pairs on one (rows, T) error matrix.

    ``config`` supplies the break dates for T, the drifts and y_0; ``phi_a``
    and ``phi_b`` hold one coefficient per cell, shape (cells, 1).  Returns
    a time-major (T+1, cells, rows) array whose slice [0] is y_0.  Each
    step is one elementwise operation on a contiguous (cells, rows) slice
    followed by adding that step's errors, so every (cell, row) path is,
    bit for bit, the one-row, one-cell path of its coefficients and errors.
    """
    rows, T = errors.shape
    k_e, k_c, k_r = config.break_indices
    d0 = config.drift_pre_value
    d1 = config.drift_post_value
    e = np.ascontiguousarray(errors.T)
    y = np.empty((T + 1, phi_a.shape[0], rows), dtype=np.float64)
    y[0] = config.y0
    for t in range(1, T + 1):
        if t <= k_e:
            np.add(y[t - 1], d0, out=y[t])
        elif t <= k_c:
            np.multiply(y[t - 1], phi_a, out=y[t])
        elif t <= k_r:
            np.multiply(y[t - 1], phi_b, out=y[t])
        else:
            np.add(y[t - 1], d1, out=y[t])
        y[t] += e[t - 1]
    return y


def simulate(config: DgpConfig, errors: ErrorSpec, seed: int) -> Series:
    """Simulate one path from the root stream of seed and wrap it as a Series carrying its y_0."""
    eps = generate_errors(errors, config.T, stream(seed))
    y = _regime_recursion(config, np.array([[config.phi_a]]), np.array([[config.phi_b]]), eps[np.newaxis])[:, 0, 0]
    return Series(y[1:], y0=float(y[0]))

