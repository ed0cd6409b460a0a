"""Samplers for the limit distributions of the break-date estimators.

Two laws are covered, both expressed as the argmax of a two-sided random
objective over a discretized grid:

* the emergence-date limit, a two-sided Brownian motion scaled by an
  independent normal level and penalized by |v|/2;
* the recovery-date limit, driven on the negative side by stochastic
  integrals of the tail process B~(s) = int_s^inf exp(-c_b (t-s)) dB_1(t)
  and on the positive side by an independent Brownian motion, with an
  optional penalty correction for serially correlated errors.  By Brownian
  scaling it is the c_b = 1 law divided by c_b, so it is sampled at c_b = 1
  on a grid in those standard units, whose natural window is v_max / c_b.

Ito integrals against adapted integrands use left-endpoint sums; the
integral of B~ against dB_1 pairs each increment with the tail value at
the next grid point instead, because B~ looks forward and already
contains the current increment.  B~ itself is built by the exponentially
discounted backward recursion x_i = dB_1[i] + rho x_{i+1}, rho =
exp(-step), over the increments on [0, v_max), solved by recursive
doubling (Kogge & Stone 1973).  It starts from B~(v_max), independent of
those increments and drawn from the recursion's stationary law
N(0, step / (1 - rho^2)), the exact Ornstein-Uhlenbeck update (Gillespie
1996).  Nothing beyond v_max is simulated and nothing is truncated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .rng import stream
from .types import ConfigError, LinearProcessCoeffs, _require_c_b

__all__ = [
    "Discretization",
    "BnDecomposition",
    "OuPath",
    "LimitSample",
    "bn_decompose",
    "sample_ou_path",
    "recovery_limit_draws",
    "emergence_limit_draws",
]

# Draws whose level, B~(0) for recovery or the standard normal g of the
# emergence level sqrt(tau_e) * g, is this close to zero are redrawn: the
# objectives divide by the level, and W / level stays finite for any tau_e.
REJECTION_THRESHOLD = 1e-8


@dataclass(frozen=True)
class Discretization:
    """Grid controls shared by the limit-law samplers.

    ``step`` is the grid spacing and ``v_max`` the half-width of the argmax
    search window, in standard (c_b = 1) units for the recovery law.  The tail
    process needs nothing beyond v_max: it starts there from its exact stationary law.
    """

    step: float = 0.01
    v_max: float = 50.0

    def __post_init__(self):
        problems = []
        if not (self.step > 0.0 and math.isfinite(self.step)):
            problems.append(f"step must be positive, got {self.step}")
        if not (self.v_max > 0.0 and math.isfinite(self.v_max)):
            problems.append(f"v_max must be positive, got {self.v_max}")
        elif self.step > 0.01 * self.v_max * (1.0 + 1e-12):
            problems.append(f"step must not exceed v_max/100, got step={self.step}, v_max={self.v_max}")
        if problems:
            raise ConfigError(problems)

    def n_grid(self) -> int:
        return int(round(self.v_max / self.step))


@dataclass(frozen=True)
class BnDecomposition:
    """Long-run decomposition of a moving-average filter.

    For coefficients psi_0..psi_L, ``psi_sum`` is the long-run coefficient
    sum(psi_j), ``psi_tilde[l]`` the tail sums sum_{k>l} psi_k (so that
    psi_j = psi_tilde[j-1] - psi_tilde[j]), ``psi_sq_sum`` is
    sum(psi_j^2), and ``psi_check`` the penalty adjustment
    (4/psi_sum^2) * (psi_sum*psi_tilde[0] - sum(psi_tilde^2)
    + sum(psi_tilde[j]*psi_tilde[j+1])).
    """

    psi_sum: float
    psi_tilde: np.ndarray = field(repr=False)
    psi_check: float
    psi_sq_sum: float


def bn_decompose(coeffs: LinearProcessCoeffs) -> BnDecomposition:
    """Long-run decomposition of a finite filter."""
    psi = coeffs.as_array()
    psi_sum = float(psi.sum())
    if psi_sum == 0.0:
        raise ConfigError(["filter coefficients sum to zero, so no long-run scale exists"])
    tails = np.cumsum(psi[::-1])[::-1]  # tails[l] = sum_{k >= l} psi_k
    psi_tilde = np.concatenate([tails[1:], [0.0]])
    cross = float(np.dot(psi_tilde[:-1], psi_tilde[1:])) if psi_tilde.size > 1 else 0.0
    psi_check = (4.0 / psi_sum**2) * (
        psi_sum * float(psi_tilde[0]) - float(np.dot(psi_tilde, psi_tilde)) + cross
    )
    return BnDecomposition(
        psi_sum=psi_sum,
        psi_tilde=psi_tilde,
        psi_check=psi_check,
        psi_sq_sum=float(np.dot(psi, psi)),
    )


@dataclass(frozen=True)
class OuPath:
    """Discretized tail process with the Brownian increments that drove it.

    ``b_tilde[i]`` is the discrete tail process at grid[i] in natural units,
    b_tilde[i] = db1[i] + rho * b_tilde[i+1] with rho = exp(-c_b * step); it
    is exactly stationary, with variance step / (1 - rho^2) at every grid point.
    ``db1[i]`` is the increment of B_1 over [grid[i], grid[i+1]), shared
    with the stochastic integrals on the negative branch of the recovery
    objective.
    """

    grid: np.ndarray = field(repr=False)
    b_tilde: np.ndarray = field(repr=False)
    db1: np.ndarray = field(repr=False)
    c_b: float
    step: float


# named lfilter because perfbench's tracer looks it up as asymptotics.lfilter
def lfilter(rho: float, d: np.ndarray) -> np.ndarray:
    """Solve x[-1] = d[-1], x[i] = d[i] + rho * x[i+1] by recursive doubling.

    For s = 1, 2, 4, ... < len(d), a pass adds rho^s * x[i+s] to x[i], which
    turns x[i] = sum_{k<s} rho^k d[i+k] into the same sum over k < 2s.
    """
    x = np.array(d, dtype=np.float64)
    r, s = rho, 1
    while s < x.size:
        x[:-s] += r * x[s:]
        r, s = r * r, 2 * s
    return x


def _tail_process(step: float, n: int, rng) -> tuple:
    """Unit-intensity B~ on n + 1 points and dB_1 on the n cells, B~ at the end from its stationary law; no checks."""
    db1 = rng.standard_normal(n) * math.sqrt(step)
    x_end = rng.standard_normal() * math.sqrt(step / -math.expm1(-2.0 * step))
    return lfilter(math.exp(-step), np.append(db1, x_end)), db1


def sample_ou_path(c_b: float, disc: Discretization, rng: np.random.Generator) -> OuPath:
    """One natural-unit tail-process path on [0, v_max]: the standard path at step c_b * step over sqrt(c_b)."""
    scale = math.sqrt(_require_c_b(c_b, disc.v_max))
    b_tilde, db1 = _tail_process(c_b * disc.step, disc.n_grid(), rng)
    grid = np.arange(disc.n_grid() + 1) * disc.step
    return OuPath(grid=grid, b_tilde=b_tilde / scale, db1=db1 / scale, c_b=c_b, step=disc.step)


def _two_sided(t: np.ndarray, obj_neg: np.ndarray, obj_pos: np.ndarray) -> tuple:
    """(v_grid, values) on -t[::-1], 0, t, with the objective zero at v = 0."""
    return np.concatenate([-t[::-1], [0.0], t]), np.concatenate([obj_neg[::-1], [0.0], obj_pos])


def _recovery_objective(
    b_tilde: np.ndarray,
    db1: np.ndarray,
    db2: np.ndarray,
    step: float,
    psi_star_neg: float,
    psi_star_pos: float,
) -> tuple:
    """Evaluate the standard (unit-intensity) recovery objective on the symmetric grid.

    Returns (v_grid, values) with v ascending from -v_max to v_max; the
    value at v = 0 is exactly zero.

    On the negative branch the tail process anticipates B_1: B~(s)
    contains the increment dB_1 over [s, s + step) with weight one, so a
    plain left-endpoint product would add E[dB_1^2] = step per cell and
    tilt the objective upward linearly.  The sums therefore pair each
    increment with B~ at the next grid point, the discrete analogue of the
    lagged state multiplying the innovation, which excludes the cell's own
    increment and keeps the integral mean zero.
    """
    n = db1.shape[0]
    t = np.arange(1, n + 1) * step
    b0 = float(b_tilde[0])

    bt_next = b_tilde[1 : n + 1]
    i1 = np.cumsum(bt_next * db1)
    i2 = np.cumsum(bt_next * bt_next - 0.5) * step
    c_neg = 2.0 * i1 - i2
    obj_neg = c_neg - 0.5 * t * psi_star_neg

    b2 = np.concatenate([[0.0], np.cumsum(db2)])
    j1 = np.cumsum(b2[:n] * db2)
    j2 = np.cumsum((b2[:n] / (2.0 * b0) + 1.0) * b2[:n]) * step
    c_pos = -(b2[1:] + j1 / b0 + j2) / b0
    obj_pos = c_pos - 0.5 * t * psi_star_pos
    return _two_sided(t, obj_neg, obj_pos)


def _one_recovery_draw(disc, bn: Optional[BnDecomposition], rng) -> Optional[tuple]:
    """One attempt: the standard recovery objective, or None if B~(0) is too small."""
    b_tilde, db1 = _tail_process(disc.step, disc.n_grid(), rng)
    db2 = rng.standard_normal(disc.n_grid()) * math.sqrt(disc.step)
    b0 = float(b_tilde[0])
    if abs(b0) < REJECTION_THRESHOLD:
        return None
    psi_neg = psi_pos = 1.0
    if bn is not None:
        psi_neg = 1.0 - bn.psi_check
        ratio = bn.psi_sq_sum / bn.psi_sum**2
        psi_pos = 1.0 + (1.0 - ratio) / (b0 * b0)
    return _recovery_objective(b_tilde, db1, db2, disc.step, psi_neg, psi_pos)


@dataclass(frozen=True)
class LimitSample:
    """A batch of limit-law draws plus the number of rejected paths."""

    values: np.ndarray
    rejections: int


def _draw_batch(one_draw, draws: int, seed: int) -> LimitSample:
    """Argmax of one_draw(rng) -> (v_grid, values), retried on draw i's own stream while None."""
    if draws < 1:
        raise ConfigError([f"draws must be positive, got {draws}"])
    values = np.empty(draws, dtype=np.float64)
    rejections = 0
    for i in range(draws):
        rng = stream(seed, i)
        while (objective := one_draw(rng)) is None:
            rejections += 1
        v_grid, obj = objective
        values[i] = v_grid[int(np.argmax(obj))]
    return LimitSample(values=values, rejections=rejections)


def recovery_limit_draws(
    c_b: float,
    draws: int = 10_000,
    disc: Discretization = Discretization(),
    seed: int = 0,
    correction: Optional[LinearProcessCoeffs] = None,
) -> LimitSample:
    """Batch of independent recovery-limit draws: the c_b = 1 draws on ``disc`` divided by c_b.

    Draw i comes from the (seed, i) stream, so any subset or reordering of
    the batch reproduces the same values.
    """
    _require_c_b(c_b, disc.v_max)
    bn = bn_decompose(correction) if correction is not None else None
    sample = _draw_batch(partial(_one_recovery_draw, disc, bn), draws, seed)
    return LimitSample(values=sample.values / c_b, rejections=sample.rejections)


def _emergence_objective(w_left: np.ndarray, w_right: np.ndarray, level: float, step: float) -> tuple:
    """Two-sided scaled-Brownian objective W*(v)/level - |v|/2."""
    t = np.arange(1, w_left.shape[0] + 1) * step
    return _two_sided(t, w_left / level - 0.5 * t, w_right / level - 0.5 * t)


def _one_emergence_draw(tau_e: float, disc: Discretization, rng) -> Optional[tuple]:
    """One attempt: the emergence objective, or None if the level's normal factor is too small."""
    n = disc.n_grid()
    sqrt_step = math.sqrt(disc.step)
    w_left = np.cumsum(rng.standard_normal(n) * sqrt_step)
    w_right = np.cumsum(rng.standard_normal(n) * sqrt_step)
    # the normalizing level W_1(tau_e) is asymptotically independent of
    # the local window around the break, so it is drawn independently
    g = rng.standard_normal()
    if abs(g) < REJECTION_THRESHOLD:
        return None
    return _emergence_objective(w_left, w_right, math.sqrt(tau_e) * g, disc.step)


def emergence_limit_draws(
    tau_e: float,
    draws: int = 10_000,
    disc: Discretization = Discretization(),
    seed: int = 0,
) -> LimitSample:
    """Batch of independent emergence-limit draws, keyed like recovery draws."""
    if not (0.0 < tau_e < 1.0):
        raise ConfigError([f"tau_e must lie in (0, 1), got {tau_e}"])
    return _draw_batch(partial(_one_emergence_draw, tau_e, disc), draws, seed)
