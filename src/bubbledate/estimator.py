"""Least-squares break-date estimation for bubble episodes.

The collapse date is estimated first by fitting a no-intercept AR(1) on
each side of every candidate split of the full sample and minimizing the
total sum of squared residuals.  The sample is then split at the estimated
collapse date: the same one-break scan on the first subsample dates the
emergence of the explosive regime, and on the second subsample the
recovery to a unit root.

Series of one length are dated together as a tile, a (rows, T) matrix,
by ``estimate_tile``; ``estimate_dates`` and ``bic_select`` date one
series as a one-row tile.  Every scan reads recursive-residual passes,
each an O(T) read along the time axis that gives every prefix's SSR: a
forward and a backward read of the full sample for the collapse scan, and
one masked read for each subsample scan.  A row's subsample window
depends on its own collapse estimate, so a masked pass zeroes each row's
columns outside its window.  A zeroed pair adds exact zeros, so the
masked pass over the tile equals, bit for bit, a pass over each row's
window, and it skips the zero columns that lead every row.  Each row of
a pass starts with a zero pair, so the pass steps along the rows in
contiguous memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

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
    "TileEstimates",
    "DegenerateSegmentError",
    "EmptyRangeError",
    "build_prefix_moments",
    "fit_segment",
    "ssr_split",
    "estimate_tile",
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
    """Regression pairs of a series; ``_pass`` reads their lags and values.

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
    """One row of a scan: the minimizer, the curve, skipped candidates."""

    k_hat: int
    curve: np.ndarray = field(repr=False)  # rows (k, SSR) for every evaluated candidate
    skipped: np.ndarray = field(repr=False)  # candidates dropped as degenerate
    segment_ssr: tuple  # SSRs of the two segments split at k_hat


class TileScan(NamedTuple):
    """One break scan over the rows of a tile.

    Row i admits the candidates ``lo[i]`` to ``hi[i]``, of which those
    from ``valid_lo[i]`` to ``valid_hi[i]`` have a nonzero lagged sum of
    squares on both sides.  ``ks`` are the candidates evaluated for every
    row and ``ssr`` their two-segment SSRs, +inf outside a row's valid
    candidates.  ``found`` marks the rows with a valid candidate; their
    minimizer is ``k_hat``, which splits the row into segments with SSRs
    ``left_ssr`` and ``right_ssr``.
    """

    lo: np.ndarray
    hi: np.ndarray
    ks: np.ndarray
    ssr: np.ndarray
    valid_lo: np.ndarray
    valid_hi: np.ndarray
    found: np.ndarray
    k_hat: np.ndarray
    left_ssr: np.ndarray
    right_ssr: np.ndarray


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


@dataclass(frozen=True)
class TileEstimates:
    """Break dates of every row of a tile, as ``estimate_tile`` returns them.

    Each field but ``n_obs`` (the regression sample size) lists one entry
    per row, named and valued as in ``BreakEstimates``: a date and its
    segment SSRs are None where the date is unavailable, and the reasons
    say why.  A row fails, with every entry None, exactly where
    ``estimate_dates`` on that row raises.
    """

    n_obs: int
    k_c_hat: list
    k_e_hat: list
    k_r_hat: list
    unavailable_reason_e: list
    unavailable_reason_r: list
    segment_ssr_c: list
    segment_ssr_e: list
    segment_ssr_r: list

    def chosen_indices(self) -> list:
        """Each row's ``bic_select`` model choice as its position in ``ModelChoice``, None for a failed row."""
        return [None if c is None else _choose(_bic_values(self.n_obs, c, e, r))
                for c, e, r in zip(self.segment_ssr_c, self.segment_ssr_e, self.segment_ssr_r)]


def _tile_pairs(values: np.ndarray, y0) -> np.ndarray:
    """(2, 2 rows, T + 1) lags and values of a (rows, T) tile, laid out for ``_pass``.

    Row i reads series i forward and row rows + i reads it backward: a
    zero pair, then the lags and values of the series' T regression times
    (rows 0 and 1 of ``PrefixMoments.pairs``) in reading order.
    """
    rows, T = values.shape
    pairs = np.empty((2, 2 * rows, T + 1))
    pairs[:, :, 0] = 0.0
    lag, value = pairs[:, :rows]
    lag[:, 1], lag[:, 2:] = (0.0 if y0 is None else y0), values[:, :-1]
    value[:, 1:] = values
    if y0 is None:
        value[:, 1] = 0.0  # t = 1 is not a regression observation without a presample value
    pairs[:, rows:, 1:] = pairs[:, :rows, :0:-1]
    return pairs


def build_prefix_moments(series: Series) -> PrefixMoments:
    """O(T) pass producing the regression pairs behind every scan."""
    lag, value = _tile_pairs(series.values[np.newaxis], series.y0)[:, 0, 1:]
    pairs = np.stack([lag, value, lag * lag, lag * value, value * value * RESID_FLOOR_REL])
    return PrefixMoments(pairs=pairs, T=series.T, t_start=1 if series.y0 is not None else 2)


def _pass(pairs: np.ndarray) -> tuple:
    """Lag sums of squares S_i and SSR_i of the fits on the first i pairs,
    and each row's count of zero S_i.

    ``pairs`` starts with the lag and value rows of ``PrefixMoments.pairs``
    (further rows are not read), each a window of one series or a
    (rows, W) tile, reversed along the last axis for a backward read; the
    pass runs along that axis and forms x_i^2, x_i y_i and the rounding
    floor itself.  With phi_i = C_i / S_i, the recursive-residual identity
    of Brown, Durbin & Evans (1975),
    SSR_i = SSR_{i-1} + (y_i - phi_{i-1} x_i)^2 S_{i-1} / S_i, adds terms
    >= 0 and differences no sum.  This gain form is required: the equal
    (y_i - phi_{i-1} x_i)(y_i - phi_i x_i) cancels where S_{i-1} / S_i is
    tiny, as at a bubble's peak read backward.  A squared residual within
    its pair's rounding floor is an exact fit and adds 0.  While S = 0 the
    slope is 0 and the gain 1; the first nonzero S has gain 0 (S_{i-1} = 0),
    as has the first pair when S_1 > 0.  Leading pairs zeroed by a mask
    thus add exact zeros, and the pass over the rest is bit-identical to a
    pass over the rest alone.  Accumulation is sequential, so a pass's
    prefix is bit-identical to a pass over it.

    The steps that pair i - 1 with i run on the rows flattened end to end,
    so on a C-contiguous tile they read contiguous memory.  There a row's
    first pair follows the previous row's last, so each row of a tile must
    start with a zero pair: it adds an exact zero whatever precedes it,
    and its S = 0 gives the row's first data pair the first pair's rule.
    """
    shape = pairs.shape[1:]
    x, y = pairs[:2].reshape(2, -1)
    S, C = np.multiply(x, x), np.multiply(x, y)
    for total in (S, C):
        np.add.accumulate(total.reshape(shape), axis=-1, out=total.reshape(shape))
    zero = S == 0.0  # S never decreases, so its zeros lead each row
    S_or_1 = S.copy()
    np.copyto(S_or_1, 1.0, where=zero)
    phi = np.divide(C[:-1], S_or_1[:-1], out=C[:-1])  # phi_{i-1}, where S_{i-1} > 0
    np.copyto(phi, 0.0, where=zero[:-1])
    phi *= x[1:]
    r = np.empty_like(y)
    r[0] = y[0]
    np.subtract(y[1:], phi, out=r[1:])
    r *= r
    floor = np.multiply(y, y, out=C)
    floor *= RESID_FLOOR_REL
    np.copyto(r, 0.0, where=r <= floor)
    gain = np.divide(S[:-1], S_or_1[1:], out=S_or_1[1:])  # 0 at the first nonzero S_i
    np.copyto(gain, 1.0, where=zero[1:])
    r[1:] *= gain
    # a squared residual with slope 0 is finite after the floor, so 0 * r = 0
    r[0] *= zero[0]
    ssr, zero = r.reshape(shape), zero.reshape(shape)
    zeros = zero.argmin(axis=-1) + shape[-1] * zero[..., -1]  # argmin is 0 where every S is 0
    return S.reshape(shape), np.add.accumulate(ssr, axis=-1, out=ssr), zeros


def fit_segment(moments: PrefixMoments, start: int, end: int) -> SegmentFit:
    """Fit y_t = phi * y_{t-1} on regression times start..end (inclusive)."""
    if not (1 <= start <= end <= moments.T):
        raise EmptyRangeError(f"segment [{start}, {end}] outside 1..{moments.T}")
    window = moments.pairs[:, start - 1:end]
    S, ssr, _ = _pass(window)
    if S[-1] == 0.0:
        raise DegenerateSegmentError(f"segment [{start}, {end}] has zero lagged sum of squares")
    n_obs = end - max(start, moments.t_start) + 1
    return SegmentFit(phi_hat=float(window[3].sum() / S[-1]), ssr=float(ssr[-1]), n_obs=n_obs)


def ssr_split(moments: PrefixMoments, k: int) -> float:
    """Total SSR of the two-segment fit splitting the full sample at k."""
    if not (1 <= k < moments.T):
        raise EmptyRangeError(f"split k={k} leaves an empty segment for T={moments.T}")
    return fit_segment(moments, 1, k).ssr + fit_segment(moments, k + 1, moments.T).ssr


def _scan(forward, backward, a: int, b: int, lo: np.ndarray, hi: np.ndarray) -> TileScan:
    """SSR scan of each tile row's splits k in [lo, hi], among the candidates a..b.

    ``forward`` and ``backward`` are (offset, zero S counts, SSRs) of
    ``_pass`` reads of the rows of a (rows, T) tile, each row led by a zero
    pair.  A read that skips its first ``offset`` pairs, all of them zero,
    holds in column j the SSR of the first offset + j pairs, and its counts
    include the skipped pairs.  Candidate k pairs the forward prefix
    through time k with the backward prefix from time k+1.  Candidates
    with a zero lagged sum of squares on either side are skipped; as S
    never decreases, the others form one interval per row.  A row whose
    range has no other candidate finds no minimizer.  SSR values within a
    relative tolerance of a row's minimum count as ties and the smallest
    date wins.
    """
    (o1, z1, ssr1), (o2, z2, ssr2) = forward, backward
    rows, T = ssr1.shape[0], o1 + ssr1.shape[1] - 1
    if a > b:
        raise EmptyRangeError("empty candidate range")
    if not (1 <= a and b < T):
        raise EmptyRangeError(f"candidates [{a}, {b}] must split 1..{T} into nonempty segments")
    ks = np.arange(a, b + 1)
    left, right = ssr1[:, a - o1:b + 1 - o1], ssr2[:, T - b - o2:T + 1 - a - o2][:, ::-1]
    ssr = left + right
    valid_lo, valid_hi = np.maximum(lo, z1), np.minimum(hi, T - z2)
    np.copyto(ssr, np.inf, where=(ks < valid_lo[:, np.newaxis]) | (ks > valid_hi[:, np.newaxis]))
    best = ssr.min(axis=1, keepdims=True)
    # where every valid SSR is +inf the first valid candidate wins; a row
    # without one keeps an index inside the scan
    i = np.minimum(np.maximum((ssr <= best * (1.0 + SSR_TIE_REL)).argmax(axis=1), valid_lo - a), b - a)
    at = np.arange(rows), i
    return TileScan(lo, hi, ks, ssr, valid_lo, valid_hi, valid_lo <= valid_hi, a + i, left[at], right[at])


def _tile_scans(values: np.ndarray, y0, trimming: TrimmingPolicy) -> tuple:
    """The collapse, emergence and recovery scans of a (rows, T) tile.

    Two ``_pass`` calls serve the three scans, each on the rows read
    forward stacked over the rows read backward (``_tile_pairs``).  The
    first reads the full sample.  The second reads it masked: forward from
    each row's k_c + 1 for the recovery scan and backward from its k_c for
    the emergence scan.  Every row of the masked read then leads with at
    least min(k_c, T - k_c) zero pairs, smallest over the rows, and the
    read starts at the last of them, its rows' leading zero pair.  A
    subsample scan's candidates span only its rows' ranges, which keeps
    its reads inside the masked read.
    """
    rows, T = values.shape
    margin, k_hi = trimming.margin(T), trimming.k_hi(T)
    pairs = _tile_pairs(values, y0)
    ssr, z = _pass(pairs)[1:]  # S is dropped here rather than outliving the pass
    ahead, back = (0, z[:rows], ssr[:rows]), (0, z[rows:], ssr[rows:])
    collapse = _scan(ahead, back, margin, k_hi, np.full(rows, margin), np.full(rows, k_hi))
    k_c = collapse.k_hat
    # zero the times up to k_c in the forward read of row i, those after
    # k_c in its backward read
    lead = np.concatenate([k_c, T - k_c])
    skip = int(lead.min())
    masked = pairs[..., skip:].copy()
    del pairs  # freed before the pass allocates, which keeps a tile's peak memory down
    np.copyto(masked, 0.0, where=np.arange(skip, T + 1) <= lead[:, np.newaxis])
    ssr, z = _pass(masked)[1:]
    del masked
    z += skip
    emergence = _scan(ahead, (skip, z[rows:], ssr[rows:]), margin, max(margin, int(k_c.max()) - margin),
                      collapse.lo, k_c - margin)
    recovery = _scan((skip, z[:rows], ssr[:rows]), back, min(k_hi, int(k_c.min()) + margin + 1), k_hi,
                     k_c + margin + 1, collapse.hi)
    return collapse, emergence, recovery


def estimate_tile(values, y0=None, trimming: TrimmingPolicy = TrimmingPolicy()) -> TileEstimates:
    """Date every row of a (rows, T) tile of series, as ``estimate_dates`` dates each.

    ``y0`` is None (no presample value) or each row's presample value, a
    scalar or one per row.  Rows are dated independently: each row's
    dates, reasons and segment SSRs are bit-identical to those of its
    one-row ``estimate_dates`` call, and a row on which that call raises
    (a non-finite value or y0, T below MIN_ESTIMATION_LENGTH, no
    admissible collapse candidate) fails without affecting the others.
    """
    values = np.asarray(values, dtype=np.float64)
    rows, T = values.shape
    failed = ~np.isfinite(values).all(axis=1)
    if y0 is not None:
        y0 = np.broadcast_to(np.asarray(y0, dtype=np.float64), (rows,))
        failed |= ~np.isfinite(y0)
    n_obs = T if y0 is not None else T - 1
    if T < MIN_ESTIMATION_LENGTH:
        return TileEstimates(n_obs, *([None] * rows for _ in range(8)))
    if failed.any():
        values = np.where(failed[:, np.newaxis], 0.0, values)
        y0 = None if y0 is None else np.where(failed, 0.0, y0)
    collapse, emergence, recovery = _tile_scans(values, y0, trimming)
    failed |= ~collapse.found
    gone = failed.tolist()

    def dates(scan):
        """A scan's date and segment SSRs for each row, None where unavailable."""
        found = (scan.found & ~failed).tolist()
        segments = zip(scan.left_ssr.tolist(), scan.right_ssr.tolist())
        return ([k if f else None for k, f in zip(scan.k_hat.tolist(), found)],
                [s if f else None for s, f in zip(segments, found)])

    def reasons(scan):
        found, empty = scan.found.tolist(), (scan.lo > scan.hi).tolist()
        return [None if f or g else UnavailableReason.BOUNDARY_VIOLATION if x else UnavailableReason.DEGENERATE
                for f, g, x in zip(found, gone, empty)]

    (k_c, seg_c), (k_e, seg_e), (k_r, seg_r) = dates(collapse), dates(emergence), dates(recovery)
    return TileEstimates(
        n_obs=n_obs,
        k_c_hat=k_c,
        k_e_hat=k_e,
        k_r_hat=k_r,
        unavailable_reason_e=reasons(emergence),
        unavailable_reason_r=reasons(recovery),
        segment_ssr_c=seg_c,
        segment_ssr_e=seg_e,
        segment_ssr_r=seg_r,
    )


def _row_scan(scan: TileScan, i: int) -> BreakScan:
    """Row i of a tile scan, with its SSR curve and skipped candidates."""
    lo, hi = int(scan.lo[i]), int(scan.hi[i])
    if lo > hi:
        raise EmptyRangeError(f"empty candidate range [{lo}, {hi}]")
    if not scan.found[i]:
        raise DegenerateSegmentError(f"every candidate in [{lo}, {hi}] has a degenerate segment")
    a = int(scan.ks[0])
    valid = slice(int(scan.valid_lo[i]) - a, int(scan.valid_hi[i]) - a + 1)
    return BreakScan(
        k_hat=int(scan.k_hat[i]),
        curve=np.column_stack([scan.ks[valid], scan.ssr[i, valid]]),
        skipped=np.concatenate([scan.ks[lo - a:valid.start], scan.ks[valid.stop:hi - a + 1]]),
        segment_ssr=(float(scan.left_ssr[i]), float(scan.right_ssr[i])),
    )


def _subsample_scan(scan: TileScan, i: int) -> tuple:
    """Row i of a subsample scan: (scan, scanned range, unavailable reason)."""
    k_range = (int(scan.lo[i]), int(scan.hi[i]))
    if k_range[0] > k_range[1]:
        return None, None, UnavailableReason.BOUNDARY_VIOLATION
    try:
        return _row_scan(scan, i), k_range, None
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
    failed step never blocks the others.  The series is dated as a
    one-row tile (see ``estimate_tile``).
    """
    T = series.T
    if T < MIN_ESTIMATION_LENGTH:
        raise SeriesValidationError([TooShort(T)])
    collapse, emergence, recovery = _tile_scans(series.values[np.newaxis], series.y0, trimming)
    scan_c = _row_scan(collapse, 0)
    scan_e, range_e, reason_e = _subsample_scan(emergence, 0)
    scan_r, range_r, reason_r = _subsample_scan(recovery, 0)
    return BreakEstimates(
        k_c_hat=scan_c.k_hat,
        k_e_hat=scan_e and scan_e.k_hat,
        k_r_hat=scan_r and scan_r.k_hat,
        unavailable_reason_e=reason_e,
        unavailable_reason_r=reason_r,
        range_c=(int(collapse.lo[0]), int(collapse.hi[0])),
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


def _bic_values(n: int, seg_c, seg_e, seg_r) -> list:
    """BIC of each model in ``ModelChoice`` order, from the scans' segment
    SSRs (None where a date is unavailable).

    Model SSRs are sums of segment SSRs, added left to right in date order.
    """
    ssr_a, ssr_b = seg_c
    bic = [_bic_value(ssr_a + ssr_b, n, 3), math.inf, math.inf]
    if seg_e is not None:
        ssr_ab = seg_e[0] + seg_e[1]
        bic[1] = _bic_value(ssr_ab + ssr_b, n, 5)
        if seg_r is not None:
            bic[2] = _bic_value(ssr_ab + seg_r[0] + seg_r[1], n, 7)
    return bic


def _choose(bic: list) -> int:
    """Position of the chosen model in ``ModelChoice``."""
    chosen = 0
    for model in (1, 2):
        if bic[model] < bic[chosen]:  # strict: ties stay with fewer regimes
            chosen = model
    return chosen


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
    k_e, k_c, k_r = est.k_e_hat, est.k_c_hat, est.k_r_hat
    dates = {ModelChoice.TWO_REGIME: (k_c,),
             ModelChoice.THREE_REGIME: None if k_e is None else (k_e, k_c),
             ModelChoice.FOUR_REGIME: None if k_e is None or k_r is None else (k_e, k_c, k_r)}
    bic = _bic_values(n, est.segment_ssr_c, est.segment_ssr_e, est.segment_ssr_r)
    return BicReport(bic=dict(zip(ModelChoice, bic)), chosen=list(ModelChoice)[_choose(bic)], dates=dates,
                     n_obs=n, estimates=est)
