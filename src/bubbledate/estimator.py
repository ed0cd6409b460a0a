"""Least-squares break-date estimation for bubble episodes.

The collapse date is estimated first by fitting a no-intercept AR(1) on
each side of every candidate split of the full sample and minimizing the
total sum of squared residuals.  The sample is then split at the estimated
collapse date: the same one-break scan on the first subsample dates the
emergence of the explosive regime, and on the second subsample the
recovery to a unit root.  The scans run on four recursive-residual passes
per series, each an O(T) read of a window that gives every prefix's SSR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .types import (
    MIN_ESTIMATION_LENGTH,
    BreakEstimates,
    BubbleDateError,
    Series,
    SeriesValidationError,
    TooShort,
    TrimmingPolicy,
    UnavailableReason,
)

__all__ = [
    "PrefixMoments",
    "SegmentFit",
    "ModelChoice",
    "BicReport",
    "DegenerateSegmentError",
    "EmptyRangeError",
    "build_prefix_moments",
    "fit_segment",
    "ssr_split",
    "estimate_dates",
    "bic_select",
]

# Relative slack under which two SSR values count as an exact tie; ties
# resolve to the smallest candidate date.
SSR_TIE_REL = 1e-9

# A squared residual at or below this multiple of y_t^2 is within the
# rounding error of the subtraction y_t - phi * y_{t-1} and counts as an
# exact fit: (4 eps)^2 for float64 machine epsilon eps.
RESID_FLOOR_REL = (4.0 * np.finfo(np.float64).eps) ** 2


class DegenerateSegmentError(BubbleDateError):
    """A segment whose lagged sum of squares is exactly zero cannot be fit."""


class EmptyRangeError(BubbleDateError):
    """A break scan was asked to search an empty candidate range."""


@dataclass(frozen=True)
class PrefixMoments:
    """Regression pairs of a series, the input of every recursive pass.

    Column t-1 of ``pairs`` holds, for regression time t, the lag y_{t-1},
    the value y_t, y_{t-1}^2, y_{t-1} y_t and the rounding floor
    RESID_FLOOR_REL * y_t^2 (rows 0 to 4).  Regression times start at
    ``t_start`` (1 when a presample value y_0 is available, 2 otherwise);
    earlier columns are zero, so they add exact zeros to every pass.
    """

    pairs: np.ndarray = field(repr=False)
    T: int
    t_start: int


@dataclass(frozen=True)
class SegmentFit:
    """No-intercept AR(1) fit on one segment: phi_hat, its SSR, and n obs."""

    phi_hat: float
    ssr: float
    n_obs: int


@dataclass(frozen=True)
class BreakScan:
    """Result of one SSR scan: the minimizer, the curve, skipped candidates."""

    k_hat: int
    curve: np.ndarray = field(repr=False)  # rows (k, SSR) for every evaluated candidate
    skipped: np.ndarray = field(repr=False)  # candidates dropped as degenerate
    segment_ssr: tuple  # SSRs of [seg_start, k_hat] and [k_hat + 1, seg_end]


class ModelChoice(Enum):
    TWO_REGIME = "two_regime"
    THREE_REGIME = "three_regime"
    FOUR_REGIME = "four_regime"


@dataclass(frozen=True)
class BicReport:
    """Information-criterion comparison of the nested regime models.

    ``bic`` maps each candidate model to N*ln(SSR/N) + p*ln(N) where p
    counts AR coefficients plus break dates (3, 5 and 7 for the two-,
    three- and four-regime models).  Models whose break dates were
    unavailable carry +inf.  Ties resolve toward fewer regimes.
    """

    bic: dict
    chosen: ModelChoice
    dates: dict
    n_obs: int
    estimates: BreakEstimates = field(repr=False)


def build_prefix_moments(series: Series) -> PrefixMoments:
    """O(T) pass producing the regression pairs behind every scan."""
    v = series.values
    pairs = np.empty((5, series.T))
    lag, value, lag2, cross, floor = pairs
    lag[0], lag[1:] = (0.0 if series.y0 is None else series.y0), v[:-1]
    value[:] = v
    if series.y0 is None:
        value[0] = 0.0  # t = 1 is not a regression observation without a presample value
    np.multiply(lag, lag, out=lag2)
    np.multiply(lag, value, out=cross)
    np.multiply(value, value, out=floor)
    floor *= RESID_FLOOR_REL
    return PrefixMoments(pairs=pairs, T=series.T, t_start=1 if series.y0 is not None else 2)


def _pass(pairs: np.ndarray) -> tuple:
    """Lag sums of squares S_i and SSR_i of the fits on the first i pairs.

    ``pairs`` is a window of ``PrefixMoments.pairs``, reversed for a backward
    read.  With phi_i = C_i / S_i, the recursive-residual identity of Brown,
    Durbin & Evans (1975), SSR_i = SSR_{i-1} + (y_i - phi_{i-1} x_i)^2 S_{i-1} / S_i,
    adds terms >= 0 and differences no sum.  This gain form is required: the
    equal (y_i - phi_{i-1} x_i)(y_i - phi_i x_i) cancels where S_{i-1} / S_i
    is tiny, as at a bubble's peak read backward.  A squared residual within
    its pair's rounding floor is an exact fit and adds 0.  While S = 0 the
    slope is 0; the first nonzero lag has gain 0.  Accumulation is
    sequential, so a pass's prefix is bit-identical to a pass over it.
    """
    x, y, lag2, cross, floor = pairs
    S, C = np.add.accumulate(lag2), np.add.accumulate(cross)
    z = int(np.searchsorted(S, 0.0, side="right")) if S[0] == 0.0 else 0  # zeros of S lead
    r = y.copy()
    r[z + 1:] -= C[z:-1] / S[z:-1] * x[z + 1:]
    r *= r
    r[r <= floor] = 0.0
    r[z:z + 1] = 0.0
    r[z + 1:] *= S[z:-1] / S[z + 1:]
    return S, np.add.accumulate(r)


def fit_segment(moments: PrefixMoments, start: int, end: int) -> SegmentFit:
    """Fit y_t = phi * y_{t-1} on regression times start..end (inclusive)."""
    if not (1 <= start <= end <= moments.T):
        raise EmptyRangeError(f"segment [{start}, {end}] outside 1..{moments.T}")
    window = moments.pairs[:, start - 1:end]
    S, ssr = _pass(window)
    if S[-1] == 0.0:
        raise DegenerateSegmentError(f"segment [{start}, {end}] has zero lagged sum of squares")
    n_obs = end - max(start, moments.t_start) + 1
    return SegmentFit(phi_hat=float(window[3].sum() / S[-1]), ssr=float(ssr[-1]), n_obs=n_obs)


def ssr_split(moments: PrefixMoments, k: int) -> float:
    """Total SSR of the two-segment fit splitting the full sample at k."""
    if not (1 <= k < moments.T):
        raise EmptyRangeError(f"split k={k} leaves an empty segment for T={moments.T}")
    return fit_segment(moments, 1, k).ssr + fit_segment(moments, k + 1, moments.T).ssr


def _scan(forward, backward, seg_start: int, seg_end: int, k_lo: int, k_hi: int) -> BreakScan:
    """SSR scan over splits of the window [seg_start, seg_end].

    For each candidate k the two segments are [seg_start, k] and
    [k+1, seg_end], read from a ``_pass`` starting at seg_start and one
    reading back from seg_end; either may run past the window.  Candidates
    with a zero lagged sum of squares on either side are skipped.  SSR
    values within a relative tolerance of the minimum count as ties and the
    smallest date wins.
    """
    if k_lo > k_hi:
        raise EmptyRangeError(f"empty candidate range [{k_lo}, {k_hi}]")
    if not (seg_start <= k_lo and k_hi < seg_end):
        raise EmptyRangeError(
            f"candidates [{k_lo}, {k_hi}] must split [{seg_start}, {seg_end}] into nonempty segments"
        )
    left = slice(k_lo - seg_start, k_hi - seg_start + 1)
    right = slice(seg_end - 1 - k_hi, seg_end - k_lo)
    s1, ssr1 = forward[0][left], forward[1][left]
    s2, ssr2 = backward[0][right][::-1], backward[1][right][::-1]
    ok = (s1 > 0.0) & (s2 > 0.0)
    if not ok.any():
        raise DegenerateSegmentError(f"every candidate in [{k_lo}, {k_hi}] has a degenerate segment")
    valid_ks = np.flatnonzero(ok) + k_lo
    valid_ssr = (ssr1 + ssr2)[ok]
    best = float(valid_ssr.min())
    tied = valid_ssr <= best * (1.0 + SSR_TIE_REL)
    k_hat = int(valid_ks[tied][0])
    curve = np.column_stack([valid_ks.astype(np.float64), valid_ssr])
    i = k_hat - k_lo
    return BreakScan(k_hat=k_hat, curve=curve, skipped=np.flatnonzero(~ok) + k_lo,
                     segment_ssr=(float(ssr1[i]), float(ssr2[i])))


def _subsample_scan(forward, backward, seg_start: int, seg_end: int, k_range: tuple) -> tuple:
    """Second-stage scan: (scan, scanned range, unavailable reason)."""
    if k_range[0] > k_range[1]:
        return None, None, UnavailableReason.BOUNDARY_VIOLATION
    try:
        return _scan(forward, backward, seg_start, seg_end, *k_range), k_range, None
    except DegenerateSegmentError:
        return None, k_range, UnavailableReason.DEGENERATE


def estimate_dates(series: Series, trimming: TrimmingPolicy = TrimmingPolicy()) -> BreakEstimates:
    """Three-step break-date estimation with trimmed scans.

    Step 1 scans the whole sample for the collapse date over
    [ceil(rho*T), floor((1-rho)*T)].  Step 2 rescans the first subsample
    (observations up to the collapse estimate) for the emergence date over
    [ceil(rho*T), k_c_hat - ceil(rho*T)]; step 3 rescans the second
    subsample for the recovery date over
    [k_c_hat + ceil(rho*T) + 1, floor((1-rho)*T)].  A subsample scan whose
    range is empty reports a boundary violation instead of an estimate; a
    failed step never blocks the others.
    """
    T = series.T
    if T < MIN_ESTIMATION_LENGTH:
        raise SeriesValidationError([TooShort(T)])
    pairs = build_prefix_moments(series).pairs
    forward, backward = _pass(pairs), _pass(pairs[:, ::-1])
    margin = trimming.margin(T)
    range_c = (margin, trimming.k_hi(T))
    scan_c = _scan(forward, backward, 1, T, *range_c)
    k_c = scan_c.k_hat
    scan_e, range_e, reason_e = _subsample_scan(
        forward, _pass(pairs[:, :k_c][:, ::-1]), 1, k_c, (margin, k_c - margin))
    scan_r, range_r, reason_r = _subsample_scan(
        _pass(pairs[:, k_c:]), backward, k_c + 1, T, (k_c + margin + 1, trimming.k_hi(T)))
    return BreakEstimates(
        k_c_hat=k_c,
        k_e_hat=scan_e and scan_e.k_hat,
        k_r_hat=scan_r and scan_r.k_hat,
        unavailable_reason_e=reason_e,
        unavailable_reason_r=reason_r,
        range_c=range_c,
        range_e=range_e,
        range_r=range_r,
        ssr_curve_c=scan_c.curve,
        ssr_curve_e=scan_e and scan_e.curve,
        ssr_curve_r=scan_r and scan_r.curve,
        segment_ssr_c=scan_c.segment_ssr,
        segment_ssr_e=scan_e and scan_e.segment_ssr,
        segment_ssr_r=scan_r and scan_r.segment_ssr,
    )


def _bic_value(ssr: float, n: int, n_params: int) -> float:
    if ssr <= 0.0:
        return -math.inf
    return n * math.log(ssr / n) + n_params * math.log(n)


def bic_select(series: Series, trimming: TrimmingPolicy = TrimmingPolicy()) -> BicReport:
    """Compare two-, three- and four-regime fits of one series by BIC.

    Each model keeps the break dates produced by its own scans: the
    two-regime model uses the full-sample split, the three-regime model
    adds the emergence date (tail observations stay in the collapse
    regime), and the four-regime model adds the recovery date.  Every
    model's segments are the two segments of one of the three estimation
    scans, so the model SSRs are sums of the scans' segment SSRs, added
    left to right in date order.
    """
    est = estimate_dates(series, trimming)
    n = series.T if series.y0 is not None else series.T - 1
    ssr_a, ssr_b = est.segment_ssr_c
    dates = {ModelChoice.TWO_REGIME: (est.k_c_hat,), ModelChoice.THREE_REGIME: None,
             ModelChoice.FOUR_REGIME: None}
    bic = {ModelChoice.TWO_REGIME: _bic_value(ssr_a + ssr_b, n, 3),
           ModelChoice.THREE_REGIME: math.inf, ModelChoice.FOUR_REGIME: math.inf}
    if est.k_e_hat is not None:
        ssr_ab = est.segment_ssr_e[0] + est.segment_ssr_e[1]
        dates[ModelChoice.THREE_REGIME] = (est.k_e_hat, est.k_c_hat)
        bic[ModelChoice.THREE_REGIME] = _bic_value(ssr_ab + ssr_b, n, 5)
        if est.k_r_hat is not None:
            dates[ModelChoice.FOUR_REGIME] = (est.k_e_hat, est.k_c_hat, est.k_r_hat)
            ssr_abcd = ssr_ab + est.segment_ssr_r[0] + est.segment_ssr_r[1]
            bic[ModelChoice.FOUR_REGIME] = _bic_value(ssr_abcd, n, 7)

    chosen = ModelChoice.TWO_REGIME
    for model in (ModelChoice.THREE_REGIME, ModelChoice.FOUR_REGIME):
        if bic[model] < bic[chosen]:  # strict: ties stay with fewer regimes
            chosen = model
    return BicReport(bic=bic, chosen=chosen, dates=dates, n_obs=n, estimates=est)
