"""Simulation of four-regime bubble paths and their error processes."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .rng import as_generator
from .types import (
    ConfigError,
    ConstantVolatility,
    DgpConfig,
    LinearProcessCoeffs,
    Series,
    SingleShiftVolatility,
    VolatilityProfile,
)

__all__ = [
    "IidGaussian",
    "VolatilityScaled",
    "LinearProcess",
    "ErrorSpec",
    "generate_errors",
    "simulate",
    "batch_paths",
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

    profile: VolatilityProfile

    def __post_init__(self):
        if not isinstance(self.profile, (ConstantVolatility, SingleShiftVolatility)):
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


def generate_errors(spec: ErrorSpec, T: int, seed_or_rng) -> np.ndarray:
    """Draw the error sequence e_1 .. e_T for one replication.

    A Generator may be passed instead of an integer seed, which is how the
    Monte Carlo driver hands each replication its own stream.
    """
    if T < 1:
        raise ConfigError([f"T must be positive, got {T}"])
    rng = as_generator(seed_or_rng)
    if isinstance(spec, IidGaussian):
        return spec.sigma * rng.standard_normal(T)
    if isinstance(spec, VolatilityScaled):
        z = rng.standard_normal(T)
        t = np.arange(1, T + 1, dtype=np.float64)
        return spec.profile.omega_array(t / T) * z
    if isinstance(spec, LinearProcess):
        v = spec.innovation_sigma * rng.standard_normal(spec.coeffs.order + T)
        return _filter_innovations(spec.coeffs.as_array(), v, T)
    raise ConfigError([f"unsupported error spec: {type(spec).__name__}"])


def batch_paths(config: DgpConfig, errors: np.ndarray) -> np.ndarray:
    """Run the regime recursion on a (reps, T) error matrix.

    Returns a (reps, T+1) array whose column 0 is y_0.  The recursion is
    applied one time step at a time with the same elementwise operations
    on every row, so row r of a batch equals, bit for bit, the one-row
    batch of row r's errors.
    """
    errors = np.atleast_2d(np.asarray(errors, dtype=np.float64))
    reps, T = errors.shape
    if T != config.T:
        raise ConfigError([f"error matrix has T={T}, config expects {config.T}"])
    k_e, k_c, k_r = config.break_indices
    d0 = config.drift_pre_value
    d1 = config.drift_post_value
    y = np.empty((reps, T + 1), dtype=np.float64)
    y[:, 0] = config.y0
    for t in range(1, T + 1):
        prev = y[:, t - 1]
        e = errors[:, t - 1]
        if t <= k_e:
            y[:, t] = d0 + prev + e
        elif t <= k_c:
            y[:, t] = config.phi_a * prev + e
        elif t <= k_r:
            y[:, t] = config.phi_b * prev + e
        else:
            y[:, t] = d1 + prev + e
    return y


def simulate(config: DgpConfig, errors: ErrorSpec, seed_or_rng) -> Series:
    """Simulate one path and wrap it as a Series carrying its y_0."""
    eps = generate_errors(errors, config.T, seed_or_rng)
    y = batch_paths(config, eps[np.newaxis, :])[0]
    return Series(y[1:], y0=float(y[0]))

