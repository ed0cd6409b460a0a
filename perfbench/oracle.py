"""Inputs and reference answers computed without the package under test.

The four-regime recursion here rebuilds Monte Carlo paths from the
package's documented stream keys to check the histograms it writes.  The
date oracle recomputes every candidate split by explicit residual sums over
the segment (never by differencing prefix sums), with the package's skip
rule, trimming and smallest-date tie rule.
"""
from __future__ import annotations

import math

import numpy as np

TIE_REL = 1e-9
GRID_EPS = 1e-9
# break fractions (tau_e, tau_c, tau_r) and start value of every generated path
TAUS = (0.4, 0.6, 0.7)
Y0 = 0.0
# cap on (candidates x window) elements per block of the vectorized scan
BLOCK_ELEMENTS = 1 << 20


def break_indices(T: int) -> tuple:
    return tuple(int(math.floor(tau * T + GRID_EPS)) for tau in TAUS)


def regime_paths(errors: np.ndarray, phi_a: float, phi_b: float, drift_pre: float,
                 drift_post: float) -> np.ndarray:
    """Four-regime recursion on a (rows, T) error matrix; returns (rows, T+1)
    with column 0 holding y_0."""
    rows, T = errors.shape
    k_e, k_c, k_r = break_indices(T)
    y = np.empty((rows, T + 1))
    y[:, 0] = Y0
    for t in range(1, T + 1):
        prev = y[:, t - 1]
        e = errors[:, t - 1]
        if t <= k_e:
            y[:, t] = drift_pre + prev + e
        elif t <= k_c:
            y[:, t] = phi_a * prev + e
        elif t <= k_r:
            y[:, t] = phi_b * prev + e
        else:
            y[:, t] = drift_post + prev + e
    return y


def rep_normals(seed: int, reps: int, T: int) -> np.ndarray:
    """Standard normals of replications 0..reps-1 from their (seed, r, 0) streams."""
    out = np.empty((reps, T))
    for r in range(reps):
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(r, 0))
        out[r] = np.random.Generator(np.random.PCG64(ss)).standard_normal(T)
    return out


def _window_scan(lag, obs, seg_start, seg_end, k_lo, k_hi):
    """Smallest-date argmin of the two-segment SSR over k in [k_lo, k_hi]."""
    times = np.arange(seg_start, seg_end + 1)
    lag_w = lag[seg_start - 1:seg_end]
    obs_w = obs[seg_start - 1:seg_end]
    cross = lag_w * obs_w
    lag2 = lag_w * lag_w
    ks_all = np.arange(k_lo, k_hi + 1)
    block = max(1, BLOCK_ELEMENTS // times.size)
    ks_kept, ssr_kept = [], []
    for lo in range(0, ks_all.size, block):
        ks = ks_all[lo:lo + block]
        left = times[None, :] <= ks[:, None]
        right = ~left
        total = np.zeros(ks.size)
        ok = np.ones(ks.size, dtype=bool)
        for mask in (left, right):
            num = np.where(mask, cross, 0.0).sum(axis=1)
            den = np.where(mask, lag2, 0.0).sum(axis=1)
            ok &= den != 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                phi = num / den
            resid = np.where(mask, obs_w[None, :] - phi[:, None] * lag_w[None, :], 0.0)
            total += np.einsum("ij,ij->i", resid, resid)
        ks_kept.append(ks[ok])
        ssr_kept.append(total[ok])
    ks_ok = np.concatenate(ks_kept)
    ssr_ok = np.concatenate(ssr_kept)
    if ks_ok.size == 0:
        return None
    best = float(ssr_ok.min())
    return int(ks_ok[np.nonzero(ssr_ok <= best + TIE_REL * abs(best))[0][0]])


def oracle_dates(values: np.ndarray, y0: float, rho: float) -> tuple:
    """(k_e, k_c, k_r) of the three-step estimator by explicit residual sums.

    ``values`` holds y_1..y_T and ``y0`` the start value.  ``rho`` is the
    trimming share; unavailable dates are None.
    """
    values = np.asarray(values, dtype=np.float64)
    T = values.size
    lag = np.empty(T)
    lag[1:] = values[:-1]
    lag[0] = y0
    margin = int(math.ceil(rho * T - GRID_EPS))
    k_hi = int(math.floor((1.0 - rho) * T + GRID_EPS))
    k_c = _window_scan(lag, values, 1, T, margin, k_hi)
    k_e = None
    if margin <= k_c - margin:
        k_e = _window_scan(lag, values, 1, k_c, margin, k_c - margin)
    k_r = None
    if k_c + margin + 1 <= k_hi:
        k_r = _window_scan(lag, values, k_c + 1, T, k_c + margin + 1, k_hi)
    return k_e, k_c, k_r
