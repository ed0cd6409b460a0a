"""Domain types: series validation, DGP configs, trimming, volatility profiles, filters."""
from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from bubbledate import (
    ConfigError,
    DgpConfig,
    LinearProcessCoeffs,
    Series,
    SeriesValidationError,
    SingleShiftVolatility,
    TrimmingPolicy,
    validate_series,
)
from bubbledate.types import LabelMismatch, NonFinite, TooShort
from bubbledate.rng import stream


class TestValidateSeries:
    def test_accepts_finite_values(self):
        s = validate_series(np.linspace(0.0, 1.0, 100))
        assert s.T == 100
        assert s.y0 is None

    def test_reports_nonfinite_position(self):
        values = np.ones(100)
        values[6] = np.nan
        with pytest.raises(SeriesValidationError) as err:
            validate_series(values)
        assert NonFinite(7) in err.value.issues

    def test_reports_short_series(self):
        with pytest.raises(SeriesValidationError) as err:
            validate_series(np.ones(10))
        assert TooShort(10) in err.value.issues

    def test_collects_every_issue_at_once(self):
        values = np.ones(10)
        values[2] = np.inf
        values[5] = np.nan
        with pytest.raises(SeriesValidationError) as err:
            validate_series(values, labels=["a"] * 9)
        issues = err.value.issues
        assert NonFinite(3) in issues
        assert NonFinite(6) in issues
        assert TooShort(10) in issues
        assert LabelMismatch(expected=10, actual=9) in issues

    def test_labels_kept_when_lengths_match(self):
        labels = [f"m{i}" for i in range(40)]
        s = validate_series(np.ones(40), labels=labels)
        assert s.labels == tuple(labels)


class TestSeries:
    def test_values_are_read_only(self):
        s = Series(np.ones(50))
        with pytest.raises(ValueError):
            s.values[0] = 2.0

    def test_copies_input(self):
        raw = np.ones(50)
        s = Series(raw)
        raw[0] = 99.0
        assert s.values[0] == 1.0

    def test_rejects_matrix_input(self):
        with pytest.raises(SeriesValidationError):
            Series(np.ones((10, 5)))

    def test_rejects_nonfinite_y0(self):
        with pytest.raises(SeriesValidationError):
            Series(np.ones(50), y0=math.inf)

    def test_rejects_values_that_are_not_real_numbers(self):
        for bad in (["a"] * 40, ["1.5"] * 40, [[1.0] * 3, [1.0] * 2], [1 + 2j] * 40, np.ones(40, dtype=complex),
                    np.arange("2020-01-01", "2020-02-20", dtype="M8[D]"), [1.0] * 39 + [None, 2j]):
            with pytest.raises(SeriesValidationError):
                Series(bad)
            with pytest.raises(SeriesValidationError):
                validate_series(bad)


class TestDgpConfig:
    def test_break_indices_baseline(self):
        cfg = DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=800)
        assert cfg.break_indices == (320, 480, 560)

    def test_floor_guard_against_binary_rounding(self):
        # 0.7 * 360 sits one ulp below 252 in binary floating point
        cfg = DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=360)
        assert cfg.break_indices == (144, 216, 252)

    def test_tau_r_one_keeps_fourth_regime_empty(self):
        cfg = DgpConfig(0.4, 0.6, 1.0, phi_a=1.05, phi_b=0.96, T=400)
        assert cfg.break_indices == (160, 240, 400)

    def test_rejects_unordered_fractions(self):
        with pytest.raises(ConfigError):
            DgpConfig(0.6, 0.4, 0.7, phi_a=1.05, phi_b=0.96, T=400)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ConfigError):
            DgpConfig(0.4, 0.6, 0.7, phi_a=0.99, phi_b=0.96, T=400)
        with pytest.raises(ConfigError):
            DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=1.01, T=400)

    def test_rejects_small_drift_exponent(self):
        with pytest.raises(ConfigError):
            DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=400, eta0=0.5)

    def test_rejects_coinciding_break_indices(self):
        # fractions are ordered but land on the same date at this T
        with pytest.raises(ConfigError):
            DgpConfig(0.40, 0.41, 0.7, phi_a=1.05, phi_b=0.96, T=40)

    def test_drift_accessors(self):
        cfg = DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=800, c0=2.0, eta0=1.0)
        assert cfg.drift_pre_value == 2.0 / 800
        assert cfg.drift_post_value == 0.0
        pinned = DgpConfig(
            0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=800,
            c0=2.0, drift_pre=1.0 / 800, drift_post=1.0 / 800,
        )
        assert pinned.drift_pre_value == 1.0 / 800
        assert pinned.drift_post_value == 1.0 / 800

    def test_validation_matches_independent_predicate(self):
        # the constructor must reject exactly the tuples this plain
        # restatement of the invariants rejects
        def acceptable(te, tc, tr, pa, pb, T):
            if not (0.0 < te < tc < tr <= 1.0):
                return False
            if not (pa > 1.0 and 0.0 < pb < 1.0 and T >= 2):
                return False
            ke = math.floor(te * T + 1e-9)
            kc = math.floor(tc * T + 1e-9)
            kr = math.floor(tr * T + 1e-9)
            return 1 <= ke < kc < kr <= T

        rng = stream(981)
        rejected = 0
        for _ in range(300):
            te, tc, tr = sorted(rng.uniform(0.0, 1.05, size=3))
            if rng.uniform() < 0.3:
                te, tc = tc, te  # scramble ordering sometimes
            pa = rng.uniform(0.9, 1.3)
            pb = rng.uniform(0.5, 1.1)
            T = int(rng.integers(2, 120))
            want = acceptable(te, tc, tr, pa, pb, T)
            try:
                DgpConfig(te, tc, tr, phi_a=pa, phi_b=pb, T=T)
                got = True
            except ConfigError:
                got = False
                rejected += 1
            assert got == want, (te, tc, tr, pa, pb, T)
        assert 0 < rejected < 300  # both branches exercised


class TestTrimmingPolicy:
    def test_bounds(self):
        TrimmingPolicy(0.25)
        with pytest.raises(ConfigError):
            TrimmingPolicy(0.0)
        with pytest.raises(ConfigError):
            TrimmingPolicy(0.26)

    def test_margins_baseline(self):
        p = TrimmingPolicy(0.05)
        assert p.margin(800) == 40
        assert p.k_hi(800) == 760

    def test_ceiling_guard_against_binary_rounding(self):
        # 0.05 * 340 lands one ulp above 17; the ceiling must not jump to 18
        p = TrimmingPolicy(0.05)
        assert p.margin(340) == 17
        assert p.k_hi(340) == 323

    def test_one_percent_variant(self):
        p = TrimmingPolicy(0.01)
        assert p.margin(800) == 8
        assert p.k_hi(800) == 792


class TestVolatilityProfiles:
    def test_single_shift_is_strict_after_tau(self):
        prof = SingleShiftVolatility(sigma0=1.0, sigma1=3.0, tau_sigma=0.5)
        assert prof.omega(0.5) == 1.0  # shift applies strictly after tau_sigma
        assert prof.omega(0.5 + 1e-9) == 3.0
        assert prof.omega(1.0) == 3.0

    def test_omega_array_matches_scalar(self):
        prof = SingleShiftVolatility(sigma0=0.5, sigma1=2.0, tau_sigma=0.3)
        taus = np.linspace(0.0, 1.0, 21)
        arr = prof.omega(taus)
        assert arr.tolist() == [2.0 if t > 0.3 else 0.5 for t in taus]

    def test_single_shift_validation(self):
        with pytest.raises(ConfigError):
            SingleShiftVolatility(sigma0=1.0, sigma1=-1.0, tau_sigma=0.5)
        with pytest.raises(ConfigError):
            SingleShiftVolatility(sigma0=1.0, sigma1=2.0, tau_sigma=1.0)


class TestLinearProcessCoeffs:
    def test_order_and_array(self):
        c = LinearProcessCoeffs((1.0, 0.5, 0.25))
        assert c.order == 2
        assert c.as_array().tolist() == [1.0, 0.5, 0.25]

    def test_rejects_empty_or_nonfinite(self):
        with pytest.raises(ConfigError):
            LinearProcessCoeffs(())
        with pytest.raises(ConfigError):
            LinearProcessCoeffs((1.0, math.nan))


def test_errors_survive_pickling():
    # a worker process hands its exception back pickled; the copy must keep
    # the problem list and print the same message
    config = pickle.loads(pickle.dumps(ConfigError(["T must be at least 2", "phi_a must exceed 1"])))
    assert config.problems == ["T must be at least 2", "phi_a must exceed 1"]
    assert str(config) == "T must be at least 2; phi_a must exceed 1"
    issues = [NonFinite(3), LabelMismatch(expected=5, actual=4), TooShort(5)]
    series = pickle.loads(pickle.dumps(SeriesValidationError(issues)))
    assert series.issues == issues
    assert str(series) == str(SeriesValidationError(issues))
    assert str(series).startswith("NonFinite(index=3); LabelMismatch(")
