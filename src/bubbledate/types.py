"""Core domain types for bubble break-date estimation.

The model behind everything in this package is a scalar series that moves
through up to four autoregressive regimes: a unit root with a small drift,
a mildly explosive phase (AR coefficient above one), a mildly stationary
collapse (AR coefficient below one), and a final unit-root phase.  The
three regime boundaries are the emergence, collapse and recovery dates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "MIN_ESTIMATION_LENGTH",
    "BubbleDateError",
    "SeriesValidationError",
    "ConfigError",
    "NonFinite",
    "TooShort",
    "LabelMismatch",
    "Series",
    "validate_series",
    "DgpConfig",
    "SingleShiftVolatility",
    "LinearProcessCoeffs",
    "TrimmingPolicy",
    "UnavailableReason",
    "BreakEstimates",
]

# Shortest series accepted by the estimation entry points.  With the widest
# allowed trimming fraction (0.25) this still leaves a two-candidate scan.
MIN_ESTIMATION_LENGTH = 40

# Guard for products like 0.7 * 360 that land one binary ulp below the
# intended integer before floor/ceil is applied.
_GRID_EPS = 1e-9


class BubbleDateError(Exception):
    """Base class for every error raised by this package."""


@dataclass(frozen=True)
class NonFinite:
    """A NaN or infinite observation at 1-based position ``index``."""

    index: int


@dataclass(frozen=True)
class TooShort:
    """Series of length ``length`` below :data:`MIN_ESTIMATION_LENGTH`."""

    length: int


@dataclass(frozen=True)
class LabelMismatch:
    """Label vector of length ``actual`` attached to ``expected`` values."""

    expected: int
    actual: int


class SeriesValidationError(BubbleDateError):
    """Raised when observed data violates the series invariants.

    ``issues`` lists every violation found, not just the first one.  It is
    the exception's only argument, so a copy pickled in a worker keeps it.
    """

    def __init__(self, issues: Sequence[object]):
        self.issues = list(issues)
        super().__init__(self.issues)

    def __str__(self) -> str:
        return "; ".join(repr(i) for i in self.issues)


class ConfigError(BubbleDateError):
    """Raised when a configuration object violates its invariants, listed in ``problems``."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__(self.problems)

    def __str__(self) -> str:
        return "; ".join(self.problems)


def _float_values(values) -> np.ndarray:
    """``values`` as a float64 array; values that are not real numbers raise SeriesValidationError."""
    try:
        array = np.asarray(values)
        if array.dtype.kind not in "biufO":  # not complex numbers, strings or dates
            raise TypeError(f"dtype {array.dtype}")
        return array.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise SeriesValidationError([f"values must be real numbers: {exc}"]) from None


@dataclass(frozen=True)
class Series:
    """An observed or simulated sample path.

    Parameters
    ----------
    values : ndarray
        Observations ``y_1 .. y_T`` (1-based time convention throughout).
    y0 : float, optional
        Pre-sample value.  A simulator knows its initial condition and
        stores it here, which lets regressions start at t = 1.  Raw data
        leaves it unset and regressions start at t = 2, with ``y_1``
        serving only as the first lag.
    labels : tuple of str, optional
        Per-observation labels (calendar dates, usually), same length as
        ``values``.

    Construction raises one :class:`SeriesValidationError` that lists
    every non-finite observation, a label-length mismatch and a
    non-finite ``y0`` together; values that are not real numbers raise it
    at once.
    """

    values: np.ndarray
    y0: Optional[float] = None
    labels: Optional[tuple] = None

    def __post_init__(self):
        values = _float_values(self.values)
        if values.ndim != 1:
            raise SeriesValidationError([f"expected 1-d values, got shape {values.shape}"])
        issues = [NonFinite(int(i) + 1) for i in np.nonzero(~np.isfinite(values))[0]]
        if self.labels is not None and len(self.labels) != values.shape[0]:
            issues.append(LabelMismatch(expected=int(values.shape[0]), actual=len(self.labels)))
        if self.y0 is not None and not math.isfinite(self.y0):
            issues.append("y0 is not finite")
        if issues:
            raise SeriesValidationError(issues)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @property
    def T(self) -> int:
        return int(self.values.shape[0])


def validate_series(values, labels=None, y0: Optional[float] = None) -> Series:
    """Validate raw observations for estimation and wrap them in a Series.

    Collects every violated invariant (non-finite entries by position,
    label-length mismatch, length below the estimation minimum) into a
    single :class:`SeriesValidationError` rather than stopping at the
    first problem.  :class:`Series` collects all but the length rule,
    which applies only to data meant for estimation.
    """
    values = _float_values(values)
    short = [TooShort(len(values))] if values.ndim == 1 and len(values) < MIN_ESTIMATION_LENGTH else []
    try:
        series = Series(values, y0=y0, labels=labels)
    except SeriesValidationError as exc:
        raise SeriesValidationError(exc.issues + short) from None
    if short:
        raise SeriesValidationError(short)
    return series


@dataclass(frozen=True)
class DgpConfig:
    """Parameters of the four-regime data-generating process.

    The path evolves as

    * ``t <= k_e``:          y_t = drift_pre + y_{t-1} + e_t
    * ``k_e < t <= k_c``:    y_t = phi_a * y_{t-1} + e_t        (phi_a > 1)
    * ``k_c < t <= k_r``:    y_t = phi_b * y_{t-1} + e_t        (0 < phi_b < 1)
    * ``k_r < t <= T``:      y_t = drift_post + y_{t-1} + e_t

    with break dates ``k = floor(tau * T)``.  ``tau_r = 1`` is allowed and
    leaves the fourth regime empty (a three-regime path).

    Drifts are parametrized as ``c * T**(-eta)`` with ``c >= 0`` and
    ``eta > 1/2``; ``drift_pre`` / ``drift_post`` override that
    parametrization directly when set (useful to pin the same drift across
    different sample sizes).
    """

    tau_e: float
    tau_c: float
    tau_r: float
    phi_a: float
    phi_b: float
    T: int
    y0: float = 0.0
    c0: float = 0.0
    eta0: float = 1.0
    c1: float = 0.0
    eta1: float = 1.0
    drift_pre: Optional[float] = None
    drift_post: Optional[float] = None

    def __post_init__(self):
        problems = []
        if not (0.0 < self.tau_e < self.tau_c < self.tau_r <= 1.0):
            problems.append(
                f"break fractions must satisfy 0 < tau_e < tau_c < tau_r <= 1, "
                f"got ({self.tau_e}, {self.tau_c}, {self.tau_r})"
            )
        if not self.phi_a > 1.0:
            problems.append(f"phi_a must exceed 1, got {self.phi_a}")
        if not (0.0 < self.phi_b < 1.0):
            problems.append(f"phi_b must lie in (0, 1), got {self.phi_b}")
        if self.T < 2:
            problems.append(f"T must be at least 2, got {self.T}")
        if self.c0 < 0.0 or self.c1 < 0.0:
            problems.append(f"drift scales must be nonnegative, got c0={self.c0}, c1={self.c1}")
        if self.eta0 <= 0.5 or self.eta1 <= 0.5:
            problems.append(f"drift exponents must exceed 1/2, got eta0={self.eta0}, eta1={self.eta1}")
        if not math.isfinite(self.y0):
            problems.append("y0 must be finite")
        for name in ("drift_pre", "drift_post"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                problems.append(f"{name} must be finite when set")
        if not problems:
            k_e, k_c, k_r = self.break_indices
            if not (1 <= k_e < k_c < k_r <= self.T):
                problems.append(
                    f"break fractions map to non-increasing dates "
                    f"(k_e={k_e}, k_c={k_c}, k_r={k_r}) at T={self.T}"
                )
        if problems:
            raise ConfigError(problems)

    @property
    def break_indices(self) -> tuple:
        """True break dates ``(k_e, k_c, k_r)`` implied by the fractions."""
        taus = (self.tau_e, self.tau_c, self.tau_r)
        return tuple(int(math.floor(tau * self.T + _GRID_EPS)) for tau in taus)

    @property
    def drift_pre_value(self) -> float:
        if self.drift_pre is not None:
            return self.drift_pre
        return self.c0 * self.T ** (-self.eta0)

    @property
    def drift_post_value(self) -> float:
        if self.drift_post is not None:
            return self.drift_post
        return self.c1 * self.T ** (-self.eta1)


@dataclass(frozen=True)
class SingleShiftVolatility:
    """One-time volatility shift: sigma0 before tau_sigma, sigma1 strictly after."""

    sigma0: float
    sigma1: float
    tau_sigma: float = 0.5

    def __post_init__(self):
        problems = []
        if not (self.sigma0 > 0.0 and math.isfinite(self.sigma0)):
            problems.append(f"sigma0 must be positive and finite, got {self.sigma0}")
        if not (self.sigma1 > 0.0 and math.isfinite(self.sigma1)):
            problems.append(f"sigma1 must be positive and finite, got {self.sigma1}")
        if not (0.0 < self.tau_sigma < 1.0):
            problems.append(f"tau_sigma must lie in (0, 1), got {self.tau_sigma}")
        if problems:
            raise ConfigError(problems)

    def omega(self, s) -> np.ndarray:
        """Volatility at the sample fractions s (array or scalar), elementwise."""
        return np.where(np.asarray(s, dtype=np.float64) > self.tau_sigma, self.sigma1, self.sigma0)


@dataclass(frozen=True)
class LinearProcessCoeffs:
    """Finite moving-average filter psi_0 .. psi_L applied to innovations."""

    psi: tuple

    def __post_init__(self):
        psi = tuple(float(p) for p in np.atleast_1d(np.asarray(self.psi, dtype=np.float64)))
        if len(psi) == 0:
            raise ConfigError(["psi must contain at least one coefficient"])
        if not all(math.isfinite(p) for p in psi):
            raise ConfigError(["psi coefficients must be finite"])
        object.__setattr__(self, "psi", psi)

    @property
    def order(self) -> int:
        return len(self.psi) - 1

    def as_array(self) -> np.ndarray:
        return np.asarray(self.psi, dtype=np.float64)


@dataclass(frozen=True)
class TrimmingPolicy:
    """Fraction of the sample excluded at each end of every break scan."""

    rho: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.rho <= 0.25):
            raise ConfigError([f"trimming fraction must lie in (0, 0.25], got {self.rho}"])

    def margin(self, T: int) -> int:
        """ceil(rho * T), at least 1: number of dates excluded at each boundary."""
        return max(1, int(math.ceil(self.rho * T - _GRID_EPS)))

    def k_hi(self, T: int) -> int:
        """floor((1 - rho) * T), at most T - 1: the last admissible collapse date."""
        return min(T - 1, int(math.floor((1.0 - self.rho) * T + _GRID_EPS)))


class UnavailableReason(Enum):
    """Why a second-stage break estimate could not be produced."""

    # collapse estimate too close to a sample edge: the trimmed subsample
    # scan has no admissible candidate
    BOUNDARY_VIOLATION = "boundary_violation"
    # every candidate split in the admissible range had a zero lag moment
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class BreakEstimates:
    """Estimated break dates with their scan diagnostics.

    ``k_c_hat`` is always present; the emergence and recovery estimates may
    be absent, in which case the matching ``unavailable_reason_*`` explains
    why.  ``range_*`` holds the admissible candidate range actually scanned,
    ``ssr_curve_*`` the evaluated (k, SSR) pairs, one row per candidate, and
    ``segment_ssr_*`` the SSRs of the two segments that the scan's
    estimate splits its window into.
    """

    k_c_hat: int
    k_e_hat: Optional[int] = None
    k_r_hat: Optional[int] = None
    unavailable_reason_e: Optional[UnavailableReason] = None
    unavailable_reason_r: Optional[UnavailableReason] = None
    range_c: Optional[tuple] = None
    range_e: Optional[tuple] = None
    range_r: Optional[tuple] = None
    ssr_curve_c: Optional[np.ndarray] = field(default=None, repr=False)
    ssr_curve_e: Optional[np.ndarray] = field(default=None, repr=False)
    ssr_curve_r: Optional[np.ndarray] = field(default=None, repr=False)
    segment_ssr_c: Optional[tuple] = None
    segment_ssr_e: Optional[tuple] = None
    segment_ssr_r: Optional[tuple] = None

    def __post_init__(self):
        if (self.k_e_hat is None) == (self.unavailable_reason_e is None):
            raise ConfigError(["emergence estimate and its unavailable reason are mutually exclusive"])
        if (self.k_r_hat is None) == (self.unavailable_reason_r is None):
            raise ConfigError(["recovery estimate and its unavailable reason are mutually exclusive"])
        if self.k_e_hat is not None and not self.k_e_hat < self.k_c_hat:
            raise ConfigError([f"ordering violated: k_e_hat={self.k_e_hat} >= k_c_hat={self.k_c_hat}"])
        if self.k_r_hat is not None and not self.k_c_hat < self.k_r_hat:
            raise ConfigError([f"ordering violated: k_r_hat={self.k_r_hat} <= k_c_hat={self.k_c_hat}"])
        for name, k in (("c", self.k_c_hat), ("e", self.k_e_hat), ("r", self.k_r_hat)):
            rng = getattr(self, f"range_{name}")
            if k is not None and rng is not None and not (rng[0] <= k <= rng[1]):
                raise ConfigError([f"k_{name}_hat={k} outside admissible range {rng}"])
