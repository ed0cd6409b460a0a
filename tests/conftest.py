"""Shared naive oracles and shared library calls for the test suite.

Every oracle here recomputes its target quantity by the most direct route
available (explicit residual sums, plain-python recursions, exhaustive
scans) so the library's recursive-residual passes and vectorized scans are
checked against independent arithmetic.  A few helpers
(``segment_split_ssr``, ``regime_path``, ``natural_tail_process``) instead
make one library call that several tests share.
"""
from __future__ import annotations

import math

import numpy as np

from bubbledate import asymptotics, bn_decompose, fit_segment
from bubbledate.dgp import _regime_recursion
from bubbledate.rng import stream

# mirror of the library's guards, applied to independently computed sums
TIE_REL = 1e-9
GRID_EPS = 1e-9
# cap on (candidates x window) elements per block of the vectorized scan
BLOCK_ELEMENTS = 1 << 20


def naive_segment_fit(values, y0, start, end):
    """No-intercept AR(1) fit on observation times start..end by looping.

    ``values`` holds y_1..y_T; when ``y0`` is None the regression sample
    starts at t = 2.  Returns (phi_hat, ssr) with the SSR accumulated from
    explicit residuals, or None when the lagged sum of squares is zero.
    """
    t_start = 1 if y0 is not None else 2
    lo = max(start, t_start)
    num = 0.0
    den = 0.0
    for t in range(lo, end + 1):
        lag = y0 if t == 1 else values[t - 2]
        num += lag * values[t - 1]
        den += lag * lag
    if den == 0.0:
        return None
    phi = num / den
    ssr = 0.0
    for t in range(lo, end + 1):
        lag = y0 if t == 1 else values[t - 2]
        resid = values[t - 1] - phi * lag
        ssr += resid * resid
    return phi, ssr


def segment_split_ssr(series, k):
    """SSR of the two ``fit_segment`` fits that split the full sample at k."""
    return fit_segment(series, 1, k).ssr + fit_segment(series, k + 1, series.T).ssr


def naive_split_ssr(values, y0, k):
    """Two-segment SSR of splitting [1..T] at k, or None if degenerate."""
    T = len(values)
    left = naive_segment_fit(values, y0, 1, k)
    right = naive_segment_fit(values, y0, k + 1, T)
    if left is None or right is None:
        return None
    return left[1] + right[1]


def naive_window_scan(values, y0, seg_start, seg_end, k_lo, k_hi):
    """Exhaustive SSR scan over splits of [seg_start..seg_end].

    Applies the same smallest-date tie rule as the library, on sums
    computed by the naive loops.  Returns the winning k or None when every
    candidate has a degenerate segment.
    """
    candidates = []
    for k in range(k_lo, k_hi + 1):
        left = naive_segment_fit(values, y0, seg_start, k)
        right = naive_segment_fit(values, y0, k + 1, seg_end)
        if left is None or right is None:
            continue
        candidates.append((k, left[1] + right[1]))
    if not candidates:
        return None
    best = min(ssr for _, ssr in candidates)
    band = best + TIE_REL * abs(best)
    return next(k for k, ssr in candidates if ssr <= band)


def explicit_window_scan(values, y0, seg_start, seg_end, k_lo, k_hi):
    """``naive_window_scan`` vectorized over blocks of candidates.

    Each candidate's segment slopes and SSRs are masked sums of explicit
    residuals over the window, never differences of prefix sums.  Without
    ``y0``, t = 1 enters as a zero (lag, value) pair, which adds exact
    zeros to every sum, like the t >= 2 sample of the naive loops.
    """
    values = np.asarray(values, dtype=np.float64)
    lag = np.concatenate([[0.0 if y0 is None else y0], values[:-1]])[seg_start - 1 : seg_end]
    obs = values[seg_start - 1 : seg_end].copy()
    if y0 is None and seg_start == 1:
        obs[0] = 0.0
    cross, lag2 = lag * obs, lag * lag
    times = np.arange(seg_start, seg_end + 1)
    ks_all = np.arange(k_lo, k_hi + 1)
    block = max(1, BLOCK_ELEMENTS // times.size)
    ks_kept, ssr_kept = [], []
    for lo in range(0, ks_all.size, block):
        ks = ks_all[lo : lo + block]
        left = times[None, :] <= ks[:, None]
        total = np.zeros(ks.size)
        ok = np.ones(ks.size, dtype=bool)
        for mask in (left, ~left):
            num = np.where(mask, cross, 0.0).sum(axis=1)
            den = np.where(mask, lag2, 0.0).sum(axis=1)
            ok &= den != 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                phi = num / den
            resid = np.where(mask, obs - phi[:, None] * lag, 0.0)
            total += np.einsum("ij,ij->i", resid, resid)
        ks_kept.append(ks[ok])
        ssr_kept.append(total[ok])
    ks_ok = np.concatenate(ks_kept)
    ssr_ok = np.concatenate(ssr_kept)
    if ks_ok.size == 0:
        return None
    best = float(ssr_ok.min())
    return int(ks_ok[np.nonzero(ssr_ok <= best + TIE_REL * abs(best))[0][0]])


def naive_sequential_dates(values, y0, rho=0.05, scan=naive_window_scan):
    """Three-step estimation mirrored with naive scans.

    ``scan`` is ``naive_window_scan`` or ``explicit_window_scan``.
    Returns (k_e, k_c, k_r) with None entries where a step's candidate
    range is empty or fully degenerate.
    """
    T = len(values)
    margin = int(math.ceil(rho * T - GRID_EPS))
    k_hi = int(math.floor((1.0 - rho) * T + GRID_EPS))
    k_c = scan(values, y0, 1, T, margin, k_hi)
    k_e = None
    if margin <= k_c - margin:
        k_e = scan(values, y0, 1, k_c, margin, k_c - margin)
    k_r = None
    if k_c + margin + 1 <= k_hi:
        k_r = scan(values, y0, k_c + 1, T, k_c + margin + 1, k_hi)
    return k_e, k_c, k_r


def naive_backward_recursion(rho, d):
    """x[-1] = d[-1] and x[i] = d[i] + rho * x[i+1], one step at a time."""
    x = [0.0] * len(d)
    acc = 0.0
    for i in range(len(d) - 1, -1, -1):
        acc = float(d[i]) + rho * acc
        x[i] = acc
    return x


def plain_recursion_path(config, errors):
    """Four-regime recursion in pure python; returns [y_0, ..., y_T]."""
    k_e, k_c, k_r = config.break_indices
    d0, d1 = config.drift_pre, config.drift_post
    y = [float(config.y0)]
    for t in range(1, config.T + 1):
        prev = y[-1]
        e = float(errors[t - 1])
        if t <= k_e:
            y.append(d0 + prev + e)
        elif t <= k_c:
            y.append(config.phi_a * prev + e)
        elif t <= k_r:
            y.append(config.phi_b * prev + e)
        else:
            y.append(d1 + prev + e)
    return y


def regime_path(config, errors):
    """The library's path [y_0, ..., y_T] of config on one error sequence: one cell and one row of the recursion."""
    return _regime_recursion(config, np.array([[config.phi_a]]), np.array([[config.phi_b]]), errors[np.newaxis])[:, 0, 0]


def growth_decay_tent(T, k_c, up, down, base=1.0):
    """Pure two-phase series: growth by ``up`` through k_c, then decay."""
    values = []
    level = base
    for t in range(1, T + 1):
        level = level * (up if t <= k_c else down)
        values.append(level)
    return np.asarray(values)


def three_phase_tent(T=40, k_e=16, k_c=24, k_r=32, up=1.2, down=0.8):
    """Flat, growth, decay, flat: the deterministic four-regime shape."""
    values = np.empty(T)
    values[:k_e] = 1.0
    for t in range(k_e + 1, k_c + 1):
        values[t - 1] = values[t - 2] * up
    for t in range(k_c + 1, k_r + 1):
        values[t - 1] = values[t - 2] * down
    values[k_r:] = values[k_r - 1]
    return values


def two_sided(t, neg_rev, pos):
    """(v_grid, values) on -t[::-1], 0, t from the branches in ascending v, zero at v = 0."""
    return np.concatenate([-t[::-1], [0.0], t]), np.concatenate([neg_rev, [0.0], pos])


def natural_tail_process(c_b, disc, rng):
    """(b_tilde, db1) of the tail process at intensity c_b on [0, v_max]: the standard one at step c_b * step over sqrt(c_b)."""
    n = disc.n_grid()
    b_tilde, db1 = np.empty(n + 1), np.empty(n)
    asymptotics._tail_process(c_b * disc.step, rng, b_tilde, db1, np.empty(n))
    scale = math.sqrt(c_b)
    return b_tilde / scale, db1 / scale


def _doubling_filter(rho, d):
    """The library's recursive doubling on a fresh copy: draws must match it bit for bit, which a sequential loop does not."""
    x = np.array(d, dtype=np.float64)
    r, s = rho, 1
    while s < x.size:
        x[:-s] += r * x[s:]
        r, s = r * r, 2 * s
    return x


def _naive_draws(one_draw, draws, seed):
    """v_grid[np.argmax(values)] of one_draw(rng) on stream (seed, i), redrawn on that stream while None."""
    values = np.empty(draws)
    rejections = 0
    for i in range(draws):
        rng = stream(seed, i)
        while (objective := one_draw(rng)) is None:
            rejections += 1
        v_grid, obj = objective
        values[i] = v_grid[int(np.argmax(obj))]
    return values, rejections


def naive_recovery_draws(c_b, draws, disc, seed, correction=None):
    """Recovery draws by five separate running sums on fresh arrays, the whole grid built and one np.argmax per draw.

    Returns (values, rejections), to be equal bit for bit to ``recovery_limit_draws``.
    """
    n, step = disc.n_grid(), disc.step
    bn = bn_decompose(correction) if correction is not None else None
    t = np.arange(1, n + 1) * step

    def one_draw(rng):
        db1 = rng.standard_normal(n) * math.sqrt(step)
        x_end = rng.standard_normal() * math.sqrt(step / -math.expm1(-2.0 * step))
        b_tilde = _doubling_filter(math.exp(-step), np.append(db1, x_end))
        db2 = rng.standard_normal(n) * math.sqrt(step)
        b0 = float(b_tilde[0])
        if abs(b0) < asymptotics.REJECTION_THRESHOLD:
            return None
        psi_neg = psi_pos = 1.0
        if bn is not None:
            psi_neg = 1.0 - bn.psi_check
            psi_pos = 1.0 + (1.0 - bn.psi_sq_sum / bn.psi_sum**2) / (b0 * b0)
        bt_next = b_tilde[1:]
        i1 = np.cumsum(bt_next * db1)
        i2 = np.cumsum(bt_next * bt_next - 0.5) * step
        obj_neg = 2.0 * i1 - i2 - 0.5 * t * psi_neg
        b2 = np.concatenate([[0.0], np.cumsum(db2)])
        j1 = np.cumsum(b2[:n] * db2)
        j2 = np.cumsum((b2[:n] / (2.0 * b0) + 1.0) * b2[:n]) * step
        obj_pos = -(b2[1:] + j1 / b0 + j2) / b0 - 0.5 * t * psi_pos
        return two_sided(t, obj_neg[::-1], obj_pos)

    values, rejections = _naive_draws(one_draw, draws, seed)
    return values / c_b, rejections


def naive_emergence_draws(tau_e, draws, disc, seed):
    """Emergence draws on fresh arrays, the whole grid built and one np.argmax per draw; returns (values, rejections)."""
    n, step = disc.n_grid(), disc.step
    t = np.arange(1, n + 1) * step

    def one_draw(rng):
        w_left = np.cumsum(rng.standard_normal(n) * math.sqrt(step))
        w_right = np.cumsum(rng.standard_normal(n) * math.sqrt(step))
        g = rng.standard_normal()
        if abs(g) < asymptotics.REJECTION_THRESHOLD:
            return None
        level = math.sqrt(tau_e) * g
        return two_sided(t, (w_left / level - 0.5 * t)[::-1], w_right / level - 0.5 * t)

    return _naive_draws(one_draw, draws, seed)
