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

A batch of draws works in one workspace: every attempt, retries included,
overwrites the same normals, tail process and objective branches, and a
draw's value is the grid point of its branches' argmax.  Each branch of
the recovery objective is one running sum, so its last bits differ from
summing each integral apart; no draw changes, which a test checks against
that separate-sum sampler.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .rng import stream
from .types import ConfigError, LinearProcess, _require_numbers

__all__ = [
    "Discretization",
    "BnDecomposition",
    "LimitSample",
    "bn_decompose",
    "recovery_limit_draws",
    "emergence_limit_draws",
]

# Draws whose level, B~(0) for recovery or the standard normal g of the
# emergence level sqrt(tau_e) * g, is this close to zero are redrawn: the
# objectives divide by the level, and W / level stays finite for any tau_e.
REJECTION_THRESHOLD = 1e-8


def _require_c_b(c_b: float, v_max: float) -> None:
    """The collapse intensity c_b: positive and finite, with the natural window v_max / c_b finite."""
    c_b, v_max = float(c_b), float(v_max)  # Python floats overflow to inf without a warning
    if not (0.0 < c_b < math.inf and math.isfinite(v_max / c_b)):
        raise ConfigError([f"c_b must be positive and finite with v_max / c_b finite, got {c_b} (v_max {v_max})"])


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
        _require_numbers(vars(self))
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


def bn_decompose(process: LinearProcess) -> BnDecomposition:
    """Long-run decomposition of a process's finite filter; ConfigError where float64 cannot hold a sum it needs."""
    psi = np.asarray(process.psi)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that is not finite is a ConfigError, not a warning
        psi_sum = float(psi.sum())
        try:
            square = psi_sum**2
        except OverflowError:  # a float power raises where a product gives inf
            square = math.inf
        if not 0.0 < square < math.inf:  # checked before any division
            raise ConfigError([f"filter coefficients sum to {psi_sum or 'zero'}, so no long-run scale exists in float64"])
        tails = np.cumsum(psi[::-1])[::-1]  # tails[l] = sum_{k >= l} psi_k
        psi_tilde = np.concatenate([tails[1:], [0.0]])
        cross = float(np.dot(psi_tilde[:-1], psi_tilde[1:])) if psi_tilde.size > 1 else 0.0
        psi_check = (4.0 / square) * (psi_sum * float(psi_tilde[0]) - float(np.dot(psi_tilde, psi_tilde)) + cross)
        psi_sq_sum = float(np.dot(psi, psi))
    if not (math.isfinite(psi_check) and math.isfinite(psi_sq_sum)):
        raise ConfigError([f"filter coefficients give psi_check {psi_check} and sum of squares {psi_sq_sum}, not both finite"])
    return BnDecomposition(psi_sum=psi_sum, psi_tilde=psi_tilde, psi_check=psi_check, psi_sq_sum=psi_sq_sum)


# named lfilter because perfbench's tracer looks it up as asymptotics.lfilter
def lfilter(rho: float, x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Overwrite the float64 array x, holding d, with x[-1] = d[-1], x[i] = d[i] + rho * x[i+1], by recursive doubling.

    For s = 1, 2, 4, ... < len(x), a pass adds rho^s * x[i+s] to x[i], which
    turns x[i] = sum_{k<s} rho^k d[i+k] into the same sum over k < 2s.
    ``scratch`` holds at least len(x) - 1 floats.  Returns x.
    """
    n = x.size
    r, s = rho, 1
    while s < n:
        shifted = np.multiply(x[s:], r, out=scratch[: n - s])
        x[:-s] += shifted
        r, s = r * r, 2 * s
    return x


def _tail_process(step: float, rng, b_tilde: np.ndarray, db1: np.ndarray, scratch: np.ndarray) -> None:
    """Fill db1 (n cells) with dB_1 and b_tilde (n + 1 points) with unit-intensity B~, its end from the stationary law; no checks."""
    n = db1.shape[0]
    rng.standard_normal(out=db1)
    db1 *= math.sqrt(step)
    b_tilde[:n] = db1
    b_tilde[n] = rng.standard_normal() * math.sqrt(step / -math.expm1(-2.0 * step))
    lfilter(math.exp(-step), b_tilde, scratch)


class _Workspace:
    """The arrays one batch of draws reuses: the grid, and each attempt's normals and objective.

    ``t`` is the grid t[k] = (k + 1) * step and ``half_t`` is 0.5 * t.  An
    attempt overwrites every other array.  The objective is zero at v = 0,
    ``pos[k]`` at v = t[k] and ``neg[k]`` at v = -t[k]; ``neg_rev`` is the
    same memory as ``neg`` in ascending v, so that ``np.argmax`` breaks its
    ties as over the whole grid.  Only the emergence law reads ``half_t``,
    and it leaves ``db1``, ``db2``, ``b_tilde`` and ``b2`` alone.
    """

    def __init__(self, disc: Discretization):
        n = disc.n_grid()
        self.step = disc.step
        self.t = np.arange(1, n + 1) * disc.step
        self.half_t = 0.5 * self.t
        self.db1, self.db2, self.tmp, self.pos, self.neg_rev = np.empty((5, n))
        self.neg = self.neg_rev[::-1]
        self.b_tilde = np.empty(n + 1)
        self.b2 = np.zeros(n + 1)  # b2[0] = B_2(0) = 0 is never overwritten


def _argmax_v(t: np.ndarray, neg_rev: np.ndarray, pos: np.ndarray) -> float:
    """v at the leftmost maximum of the objective on -t[::-1], 0, t, zero at v = 0.

    Each branch's argmax is leftmost within it, and a branch wins a tie only
    against what lies to its right, so ties break as ``np.argmax`` breaks
    them over the concatenated grid.
    """
    i = int(np.argmax(neg_rev))
    k = int(np.argmax(pos))
    if neg_rev[i] >= 0.0 and neg_rev[i] >= pos[k]:
        return float(-t[-1 - i])
    if pos[k] > 0.0:
        return float(t[k])
    return 0.0


def _recovery_objective(
    ws: _Workspace,
    b_tilde: np.ndarray,
    db1: np.ndarray,
    db2: np.ndarray,
    psi_star_neg: float,
    psi_star_pos: float,
) -> tuple:
    """Evaluate the standard (unit-intensity) recovery objective into ``ws``; returns its branches (neg_rev, pos).

    On the negative branch the tail process anticipates B_1: B~(s)
    contains the increment dB_1 over [s, s + step) with weight one, so a
    plain left-endpoint product would add E[dB_1^2] = step per cell and
    tilt the objective upward linearly.  The sums therefore pair each
    increment with B~ at the next grid point, the discrete analogue of the
    lagged state multiplying the innovation, which excludes the cell's own
    increment and keeps the integral mean zero.

    Each branch is one running sum of per-cell increments, its drift
    -psi* step / 2 included: the negative branch 2 B~ dB_1 - (B~^2 - 1/2) step,
    the positive one -(dB_2 + B_2 (dB_2 + B~(0) step + B_2 step / 2) / B~(0)) / B~(0),
    with B_2 the running sum of dB_2 up to the cell.
    """
    n = db1.shape[0]
    step, neg, pos = ws.step, ws.neg, ws.pos
    b0 = float(b_tilde[0])

    bt_next = b_tilde[1 : n + 1]  # the sum runs over half the increments and is doubled, exactly
    np.multiply(bt_next, -0.5 * step, out=neg)
    neg += db1
    neg *= bt_next
    neg += 0.25 * step * (1.0 - psi_star_neg)
    np.cumsum(neg, out=neg)
    neg *= 2.0

    b2 = ws.b2
    np.cumsum(db2, out=b2[1:])
    b2_prev = b2[:n]
    np.multiply(b2_prev, 0.5 * step, out=pos)
    pos += db2
    pos += b0 * step
    pos *= b2_prev
    pos /= b0
    pos += db2
    pos /= -b0
    pos -= 0.5 * step * psi_star_pos
    np.cumsum(pos, out=pos)
    return ws.neg_rev, pos


def _one_recovery_draw(bn: BnDecomposition, ws: _Workspace, rng) -> Optional[tuple]:
    """One attempt in ``ws``: the standard recovery objective's branches, or None if B~(0) is too small."""
    _tail_process(ws.step, rng, ws.b_tilde, ws.db1, ws.tmp)
    rng.standard_normal(out=ws.db2)
    ws.db2 *= math.sqrt(ws.step)
    b0 = float(ws.b_tilde[0])
    if abs(b0) < REJECTION_THRESHOLD:
        return None
    psi_pos = 1.0 + (1.0 - bn.psi_sq_sum / bn.psi_sum**2) / (b0 * b0)
    return _recovery_objective(ws, ws.b_tilde, ws.db1, ws.db2, 1.0 - bn.psi_check, psi_pos)


@dataclass(frozen=True)
class LimitSample:
    """A batch of limit-law draws plus the number of rejected paths."""

    values: np.ndarray
    rejections: int


def _draw_batch(one_draw, disc: Discretization, draws: int, seed: int) -> LimitSample:
    """v at the argmax of one_draw(ws, rng) -> (neg_rev, pos), retried on draw i's own stream while None.

    Every attempt of the batch works in one workspace ``ws``.
    """
    if draws < 1:
        raise ConfigError([f"draws must be positive, got {draws}"])
    ws = _Workspace(disc)
    values = np.empty(draws, dtype=np.float64)
    rejections = 0
    for i in range(draws):
        rng = stream(seed, i)
        while (branches := one_draw(ws, rng)) is None:
            rejections += 1
        values[i] = _argmax_v(ws.t, *branches)
    return LimitSample(values=values, rejections=rejections)


def recovery_limit_draws(
    c_b: float,
    draws: int = 10_000,
    disc: Discretization = Discretization(),
    seed: int = 0,
    correction: LinearProcess = LinearProcess((1.0,)),
) -> LimitSample:
    """Batch of independent recovery-limit draws: the c_b = 1 draws on ``disc`` divided by c_b.

    ``correction`` is the error filter, white noise by default, whose
    ``bn_decompose`` sets the penalties.  Draw i comes from the (seed, i)
    stream, so any subset or reordering of the batch reproduces the same values.
    """
    _require_c_b(c_b, disc.v_max)
    bn = bn_decompose(correction)
    sample = _draw_batch(partial(_one_recovery_draw, bn), disc, draws, seed)
    return LimitSample(values=sample.values / c_b, rejections=sample.rejections)


def _emergence_objective(ws: _Workspace, w_left: np.ndarray, w_right: np.ndarray, level: float) -> tuple:
    """Two-sided scaled-Brownian objective W*(v)/level - |v|/2 into ``ws``; returns its branches (neg_rev, pos)."""
    np.divide(w_left, level, out=ws.neg)
    ws.neg -= ws.half_t
    np.divide(w_right, level, out=ws.pos)
    ws.pos -= ws.half_t
    return ws.neg_rev, ws.pos


def _one_emergence_draw(tau_e: float, ws: _Workspace, rng) -> Optional[tuple]:
    """One attempt in ``ws``: the emergence objective's branches, or None if the level's normal factor is too small."""
    sqrt_step = math.sqrt(ws.step)
    rng.standard_normal(out=ws.tmp)
    ws.tmp *= sqrt_step
    w_left = np.cumsum(ws.tmp, out=ws.neg)
    rng.standard_normal(out=ws.pos)
    ws.pos *= sqrt_step
    w_right = np.cumsum(ws.pos, out=ws.pos)
    # the normalizing level W_1(tau_e) is asymptotically independent of
    # the local window around the break, so it is drawn independently
    g = rng.standard_normal()
    if abs(g) < REJECTION_THRESHOLD:
        return None
    return _emergence_objective(ws, w_left, w_right, math.sqrt(tau_e) * g)


def emergence_limit_draws(
    tau_e: float,
    draws: int = 10_000,
    disc: Discretization = Discretization(),
    seed: int = 0,
) -> LimitSample:
    """Batch of independent emergence-limit draws, keyed like recovery draws."""
    if not (0.0 < tau_e < 1.0):
        raise ConfigError([f"tau_e must lie in (0, 1), got {tau_e}"])
    return _draw_batch(partial(_one_emergence_draw, tau_e), disc, draws, seed)
