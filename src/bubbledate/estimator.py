"""Least-squares break-date estimation for bubble episodes.

The collapse date is estimated first by fitting a no-intercept AR(1) on
each side of every candidate split of the full sample and minimizing the
total sum of squared residuals.  The sample is then split at the estimated
collapse date: the same one-break scan on the first subsample dates the
emergence of the explosive regime, and on the second subsample the
recovery to a unit root.

Series of one length are dated together as a tile, a (rows, T) matrix,
by ``estimate_tile``; ``estimate_dates`` and ``bic_select`` date one
series as a one-row tile.  Both paths read their dates, unavailable
reasons and segment SSRs off the scans as arrays through one reader,
``_read_scans``; the one-row path adds the ranges and SSR curves.  Both
choose among the regime models by one BIC rule, ``_bic``.

Every scan reads recursive-residual passes, each an O(T) read along the
time axis that gives every prefix's SSR: a forward and a backward read of
the full sample for the collapse scan, and one masked read for each
subsample scan.  A row's subsample window depends on its own collapse
estimate, so a masked pass zeroes each row's columns outside its window.
A zeroed pair adds exact zeros, so the masked pass over the tile equals,
bit for bit, a pass over each row's window, and it skips the zero columns
that lead every row.  Each row of a pass starts with a zero pair, so the
pass steps along the rows in contiguous memory.
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
    _float_values,
)

__all__ = [
    "SegmentFit",
    "ModelChoice",
    "BicReport",
    "TileEstimates",
    "DegenerateSegmentError",
    "EmptyRangeError",
    "fit_segment",
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

# Rows that ``estimate_tile`` dates together.  A chunk's passes read its
# rows forward and backward at once, so a 16-row chunk of T = 800 works on
# (32, 801) arrays; its tracemalloc peak is 1.28 MB (0.64 MB at 8 rows,
# 2.57 MB at 32).  On a 2-vCPU Xeon with 2 MB of L2 cache per core, the
# volshift-up preset at 64 replications with BIC took 0.85-0.94 (serial)
# and 0.89-0.98 (two workers) of its 8-row time at 16 rows.  24 and 32
# rows ran as fast as 16 within the host's spread, with 2.5 and 7 times
# the page faults: the allocator returns their larger arrays to the
# system and faults them back in.  Peak memory grows with the chunk.
TILE_ROWS = 16


class DegenerateSegmentError(BubbleDateError):
    """A segment whose lagged sum of squares is exactly zero cannot be fit."""


class EmptyRangeError(BubbleDateError):
    """A break scan was asked to search an empty candidate range."""


@dataclass(frozen=True)
class SegmentFit:
    """No-intercept AR(1) fit on one segment: phi_hat, its SSR, and n obs."""

    phi_hat: float
    ssr: float
    n_obs: int


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


# The unavailable reasons of ``TileEstimates.reasons``, by code; 0 is an
# available date.
REASONS = (None, UnavailableReason.BOUNDARY_VIOLATION, UnavailableReason.DEGENERATE)


@dataclass(frozen=True)
class TileEstimates:
    """Break dates of every row of a tile, as ``estimate_tile`` returns them.

    ``n_obs`` is the regression sample size.  ``dates`` is (rows, 3): each
    row's collapse, emergence and recovery date (``k_c_hat``, ``k_e_hat``,
    ``k_r_hat`` of ``BreakEstimates``), 0 where the date is unavailable.
    ``reasons`` is (rows, 2): why the emergence and recovery dates are
    unavailable, as positions in ``REASONS``.  ``segment_ssr`` is
    (rows, 3, 2): each date's two segment SSRs, NaN where it is
    unavailable.  ``failed`` marks the rows on which ``estimate_dates``
    raises; they have no date and no reason.
    """

    n_obs: int
    dates: np.ndarray
    reasons: np.ndarray
    segment_ssr: np.ndarray
    failed: np.ndarray

    def chosen_indices(self) -> np.ndarray:
        """Each row's ``bic_select`` model choice as its position in ``ModelChoice``, -1 for a failed row."""
        return np.where(self.failed, -1, _bic(self.n_obs, self.segment_ssr).argmin(axis=1))


def _tile_pairs(values: np.ndarray, y0) -> np.ndarray:
    """(2, 2 rows, T + 1) lags and values of a (rows, T) tile, laid out for ``_pass``.

    Row i reads series i forward and row rows + i reads it backward: a
    zero pair, then the lag y_{t-1} and value y_t of each regression time
    t = 1..T in reading order.
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


def _pass(pairs: np.ndarray) -> tuple:
    """Lag sums of squares S_i and SSR_i of the fits on the first i pairs,
    and each row's count of zero S_i.

    ``pairs`` holds the lag and value rows of ``_tile_pairs``, each a
    window of one series or a (rows, W) tile, reversed along the last axis
    for a backward read; the pass runs along that axis and forms x_i^2,
    x_i y_i and the rounding floor itself.  With phi_i = C_i / S_i, the
    recursive-residual identity of Brown, Durbin & Evans (1975),
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
    x, y = pairs.reshape(2, -1)
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


def fit_segment(series: Series, start: int, end: int) -> SegmentFit:
    """Fit y_t = phi * y_{t-1} on regression times start..end (inclusive)."""
    if not (1 <= start <= end <= series.T):
        raise EmptyRangeError(f"segment [{start}, {end}] outside 1..{series.T}")
    window = _tile_pairs(series.values[np.newaxis], series.y0)[:, 0, start:end + 1]
    S, ssr, _ = _pass(window)
    if S[-1] == 0.0:
        raise DegenerateSegmentError(f"segment [{start}, {end}] has zero lagged sum of squares")
    n_obs = end - start + 1 - (start == 1 and series.y0 is None)
    lag, value = window
    return SegmentFit(phi_hat=float((lag * value).sum() / S[-1]), ssr=float(ssr[-1]), n_obs=n_obs)


def _scan(forward, backward, a: int, b: int, lo: np.ndarray, hi: np.ndarray) -> TileScan:
    """SSR scan of each tile row's splits k in [lo, hi], among the candidates 1 <= a..b < T.

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
    ks = np.arange(a, b + 1)
    left, right = ssr1[:, a - o1:b + 1 - o1], ssr2[:, T - b - o2:T + 1 - a - o2][:, ::-1]
    ssr = left + right
    valid_lo, valid_hi = np.maximum(lo, z1), np.minimum(hi, T - z2)
    # every row is valid from the largest valid_lo to the smallest valid_hi
    head, tail = max(int(valid_lo.max()) - a, 0), max(int(valid_hi.min()) - a + 1, 0)
    np.copyto(ssr[:, :head], np.inf, where=ks[:head] < valid_lo[:, np.newaxis])
    np.copyto(ssr[:, tail:], np.inf, where=ks[tail:] > valid_hi[:, np.newaxis])
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
    least min(k_c, T - k_c) zero pairs, smallest over the rows with a
    collapse date, and the read starts at the last of them, its rows'
    leading zero pair.  A subsample scan's candidates span only those
    rows' ranges, which keeps its reads inside the masked read.  Rows
    without a collapse date fail, so what their scans read is discarded.
    """
    rows, T = values.shape
    margin, k_hi = trimming.margin(T), trimming.k_hi(T)
    pairs = _tile_pairs(values, y0)
    ssr, z = _pass(pairs)[1:]  # S is dropped here rather than outliving the pass
    ahead, back = (0, z[:rows], ssr[:rows]), (0, z[rows:], ssr[rows:])
    collapse = _scan(ahead, back, margin, k_hi, np.full(rows, margin), np.full(rows, k_hi))
    k_c = collapse.k_hat
    # a row without a collapse date keeps a clamped k_c, which must not
    # narrow the skip or widen the subsample scans.  Its lags are zero past
    # the trimming margin, so its masked read still starts with a zero
    # lag, and no value of the row before it carries into its pass.
    dated = k_c[collapse.found] if collapse.found.any() else k_c
    first, last = int(dated.min()), int(dated.max())
    skip = min(first, T - last)
    # zero the times up to k_c in the forward read of row i, those after
    # k_c in its backward read
    lead = np.concatenate([k_c, T - k_c])
    masked = pairs[..., skip:].copy()
    del pairs  # freed before the pass allocates, which keeps a tile's peak memory down
    np.copyto(masked, 0.0, where=np.arange(skip, T + 1) <= lead[:, np.newaxis])
    ssr, z = _pass(masked)[1:]
    del masked
    z += skip
    emergence = _scan(ahead, (skip, z[rows:], ssr[rows:]), margin, max(margin, last - margin),
                      collapse.lo, k_c - margin)
    recovery = _scan((skip, z[:rows], ssr[:rows]), back, min(k_hi, first + margin + 1), k_hi,
                     k_c + margin + 1, collapse.hi)
    return collapse, emergence, recovery


def _read_scans(scans: tuple, failed: np.ndarray) -> tuple:
    """The ``TileEstimates`` fields after ``n_obs`` of a tile, from its three scans.

    A row fails where ``failed`` is set or its collapse scan found no
    minimizer.  A subsample date is unavailable as a boundary violation
    where its range is empty, and as degenerate where every candidate in
    it has a degenerate segment.
    """
    failed = failed | ~scans[0].found
    found = np.array([s.found for s in scans]).T & ~failed[:, np.newaxis]
    dates = np.where(found, np.array([s.k_hat for s in scans]).T, 0)
    empty = np.array([s.lo > s.hi for s in scans[1:]]).T
    reasons = np.where(found[:, 1:] | failed[:, np.newaxis], 0, np.where(empty, 1, 2))
    segments = np.array([(s.left_ssr, s.right_ssr) for s in scans]).transpose(2, 0, 1)
    return dates, reasons, np.where(found[..., np.newaxis], segments, np.nan), failed


def estimate_tile(values, y0=None, trimming: TrimmingPolicy = TrimmingPolicy()) -> TileEstimates:
    """Date every row of a (rows, T) tile of series, as ``estimate_dates`` dates each.

    ``y0`` is None (no presample value) or each row's presample value, a
    number or one number per row.  Rows are dated independently: each
    row's dates, reasons and segment SSRs are bit-identical to those of
    its one-row ``estimate_dates`` call, and a row on which that call
    raises (a non-finite value or y0, T below MIN_ESTIMATION_LENGTH, no
    admissible collapse candidate) fails without affecting the others.
    Rows are dated ``TILE_ROWS`` at a time: memory is bounded by the chunk.
    Input that is not a 2-d tile of real numbers, or a ``y0`` of another
    form, raises ``SeriesValidationError``; a tile without rows gives empty
    arrays.
    """
    values = _float_values(values)
    if values.ndim != 2:
        raise SeriesValidationError([f"expected a 2-d (rows, T) tile, got shape {values.shape}"])
    rows, T = values.shape
    failed = np.zeros(rows, bool)
    if y0 is not None:
        y0 = np.asarray(y0)
        if y0.dtype.kind not in "iuf" or y0.shape not in ((), (rows,)):
            raise SeriesValidationError([f"y0 must be None, a number or one number per row, got a {y0.dtype} "
                                         f"array of shape {y0.shape} for {rows} rows"])
        y0 = np.broadcast_to(y0.astype(np.float64), (rows,))
        failed = ~np.isfinite(y0)
    n_obs = T if y0 is not None else T - 1
    if T < MIN_ESTIMATION_LENGTH or rows == 0:
        return TileEstimates(n_obs, np.zeros((rows, 3), int), np.zeros((rows, 2), int),
                             np.full((rows, 3, 2), np.nan), np.ones(rows, bool))
    chunks = []
    for at in (slice(lo, lo + TILE_ROWS) for lo in range(0, rows, TILE_ROWS)):
        chunk = values[at]
        chunk_failed = failed[at] | ~np.isfinite(chunk).all(axis=1)
        if chunk_failed.any():
            chunk = np.where(chunk_failed[:, np.newaxis], 0.0, chunk)
        chunk_y0 = None if y0 is None else np.where(chunk_failed, 0.0, y0[at])
        chunks.append(_read_scans(_tile_scans(chunk, chunk_y0, trimming), chunk_failed))
    return TileEstimates(n_obs, *map(np.concatenate, zip(*chunks)))


def _curve(scan: TileScan, i: int) -> np.ndarray:
    """Row i's (k, SSR) pairs, one per valid candidate."""
    a = int(scan.ks[0])
    valid = slice(int(scan.valid_lo[i]) - a, int(scan.valid_hi[i]) - a + 1)
    return np.column_stack([scan.ks[valid], scan.ssr[i, valid]])


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
    scans = _tile_scans(series.values[np.newaxis], series.y0, trimming)
    dates, reasons, segment_ssr, failed = (x[0].tolist() for x in _read_scans(scans, np.zeros(1, bool)))
    range_c, range_e, range_r = (None if s.lo[0] > s.hi[0] else (int(s.lo[0]), int(s.hi[0])) for s in scans)
    if failed:
        raise DegenerateSegmentError(f"every candidate in [{range_c[0]}, {range_c[1]}] has a degenerate segment")
    k_c, k_e, k_r = (k or None for k in dates)
    reason_e, reason_r = (REASONS[r] for r in reasons)
    seg_c, seg_e, seg_r = (tuple(seg) if k else None for k, seg in zip(dates, segment_ssr))
    curve_c, curve_e, curve_r = (None if k is None else _curve(s, 0) for s, k in zip(scans, (k_c, k_e, k_r)))
    return BreakEstimates(
        k_c_hat=k_c,
        k_e_hat=k_e,
        k_r_hat=k_r,
        unavailable_reason_e=reason_e,
        unavailable_reason_r=reason_r,
        range_c=range_c,
        range_e=range_e,
        range_r=range_r,
        ssr_curve_c=curve_c,
        ssr_curve_e=curve_e,
        ssr_curve_r=curve_r,
        segment_ssr_c=seg_c,
        segment_ssr_e=seg_e,
        segment_ssr_r=seg_r,
    )


def _bic(n: int, segment_ssr: np.ndarray) -> np.ndarray:
    """(rows, 3) BIC of each row's models in ``ModelChoice`` order, from
    its (rows, 3, 2) segment SSRs, NaN where a date is unavailable.

    Model SSRs are sums of segment SSRs, added left to right in date order.
    A model's BIC is +inf where a date is unavailable and -inf where its
    SSR is 0.  The logs are ``math.log``'s, which ``np.log`` can miss in
    the last bit; where SSR / N underflows to 0, ln(SSR / N) is
    ln(SSR) - ln(N).
    """
    (c_a, c_b), (e_a, e_b), (r_a, r_b) = segment_ssr.transpose(1, 2, 0)
    e_ab = e_a + e_b
    ssr = np.stack([c_a + c_b, e_ab + c_b, e_ab + r_a + r_b], axis=1)

    def log_ratio(s: float) -> float:
        if math.isnan(s):
            return math.inf
        if s == 0.0:
            return -math.inf
        q = s / n
        return math.log(q) if q > 0.0 else math.log(s) - math.log(n)

    logs = np.array([log_ratio(s) for s in ssr.ravel().tolist()]).reshape(ssr.shape)
    return n * logs + math.log(n) * np.array([3, 5, 7])


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
    segment_ssr = [(math.nan,) * 2 if seg is None else seg
                   for seg in (est.segment_ssr_c, est.segment_ssr_e, est.segment_ssr_r)]
    bic = _bic(n, np.array([segment_ssr]))[0]
    return BicReport(bic=dict(zip(ModelChoice, bic.tolist())), chosen=list(ModelChoice)[bic.argmin()],
                     dates=dates, n_obs=n, estimates=est)
