"""Break-date estimation: prefix moments, scans, sequential steps, BIC."""
from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from conftest import (
    explicit_window_scan,
    growth_decay_tent,
    naive_segment_fit,
    naive_sequential_dates,
    naive_split_ssr,
    naive_window_scan,
    three_phase_tent,
)

from bubbledate import (
    BubbleDateError,
    DegenerateSegmentError,
    DgpConfig,
    EmptyRangeError,
    IidGaussian,
    ModelChoice,
    Series,
    SeriesValidationError,
    SingleShiftVolatility,
    TrimmingPolicy,
    UnavailableReason,
    VolatilityScaled,
    bic_select,
    build_prefix_moments,
    estimate_dates,
    estimate_tile,
    fit_segment,
    simulate,
    ssr_split,
)
from bubbledate.estimator import RESID_FLOOR_REL, _pass, _row_scan, _scan
from bubbledate.rng import stream
from bubbledate.types import MIN_ESTIMATION_LENGTH


def explosive_config(T, phi_a):
    """Four-regime design with breaks at 0.4T, 0.6T and 0.7T and phi_b = 0.96."""
    return DgpConfig(0.4, 0.6, 0.7, phi_a=phi_a, phi_b=0.96, T=T,
                     drift_pre=1.0 / 800.0, drift_post=1.0 / 800.0)


def boundary_kink_series():
    """Doubles for three steps, decays at 0.96 to t = 30, flat after.

    The sharp early kink pins the first-step split at k = 3, too close to
    the sample edge for an emergence scan under 5% trimming.
    """
    values = np.empty(40)
    level = 1.0
    for t in range(1, 41):
        level *= 2.0 if t <= 3 else 0.96
        values[t - 1] = level
    values[30:] = values[29]
    return values


def growth_then_zeros():
    """Grows at 1.2 to t = 20, exactly zero afterwards."""
    values = np.zeros(40)
    values[:20] = 1.2 ** np.arange(1, 21)
    return values


def window_scan(moments, seg_start, seg_end, k_lo, k_hi):
    """``_scan`` over [seg_start, seg_end] of a one-row tile, as its row's ``BreakScan``.

    Masks confine the reads to the window: the forward read zeroes the
    times before seg_start, the backward read those after seg_end.  Each
    read leads with a zero pair, as ``_scan`` takes it.
    """
    times = np.arange(1, moments.T + 1)
    lag_value = moments.pairs[:2]
    pairs = np.zeros((2, 2, moments.T + 1))
    pairs[:, 0, 1:] = lag_value * (times >= seg_start)
    pairs[:, 1, 1:] = (lag_value * (times <= seg_end))[:, ::-1]
    _, ssr, zeros = _pass(pairs)
    reads = (0, zeros[:1], ssr[:1]), (0, zeros[1:], ssr[1:])
    return _row_scan(_scan(*reads, k_lo, k_hi, np.array([k_lo]), np.array([k_hi])), 0)


class TestPrefixMoments:
    def test_hand_values_without_presample(self):
        m = build_prefix_moments(Series(np.array([1.0, 2.0, 4.0, 8.0])))
        assert m.t_start == 2
        assert m.pairs[:, 0].tolist() == [0.0] * 5
        assert m.pairs[0].tolist() == [0.0, 1.0, 2.0, 4.0]
        assert m.pairs[1].tolist() == [0.0, 2.0, 4.0, 8.0]
        assert np.add.accumulate(m.pairs[3]).tolist() == [0.0, 2.0, 10.0, 42.0]
        assert np.add.accumulate(m.pairs[2]).tolist() == [0.0, 1.0, 5.0, 21.0]
        assert m.pairs[4].tolist() == [RESID_FLOOR_REL * v for v in (0.0, 4.0, 16.0, 64.0)]

    def test_hand_values_with_presample(self):
        m = build_prefix_moments(Series(np.array([2.0, 4.0, 8.0]), y0=1.0))
        assert m.t_start == 1
        assert m.pairs[0].tolist() == [1.0, 2.0, 4.0]
        assert m.pairs[1].tolist() == [2.0, 4.0, 8.0]
        assert np.add.accumulate(m.pairs[3]).tolist() == [2.0, 10.0, 42.0]
        assert np.add.accumulate(m.pairs[2]).tolist() == [1.0, 5.0, 21.0]
        assert m.pairs[4].tolist() == [RESID_FLOOR_REL * v for v in (4.0, 16.0, 64.0)]

    def test_array_lengths(self):
        m = build_prefix_moments(Series(stream(1).normal(size=17)))
        assert m.pairs.shape == (5, 17)


class TestFitSegment:
    def test_pure_doubling(self):
        m = build_prefix_moments(Series(np.array([1.0, 2.0, 4.0, 8.0, 16.0])))
        fit = fit_segment(m, 1, 5)
        assert fit.phi_hat == 2.0
        assert fit.ssr == 0.0
        assert fit.n_obs == 4

    def test_constant_with_presample(self):
        m = build_prefix_moments(Series(np.ones(4), y0=1.0))
        fit = fit_segment(m, 1, 4)
        assert fit.phi_hat == 1.0
        assert fit.ssr == 0.0
        assert fit.n_obs == 4

    def test_alternating_hand_value(self):
        m = build_prefix_moments(Series(np.array([1.0, 2.0, 1.0, 2.0])))
        fit = fit_segment(m, 1, 4)
        assert fit.phi_hat == 1.0
        assert fit.ssr == 3.0
        assert fit.n_obs == 3

    def test_matches_naive_fit_on_random_windows(self):
        rng = stream(42)

        def inputs():
            for y0 in (None, float(rng.normal())):
                yield rng.normal(size=60).cumsum(), y0
            s = simulate(explosive_config(800, 1.09), IidGaussian(1.0), 0)
            yield s.values, s.y0

        for values, y0 in inputs():
            m = build_prefix_moments(Series(values, y0=y0))
            T = len(values)
            for _ in range(25):
                start = int(rng.integers(1, T - 5))
                end = int(rng.integers(start + 2, T + 1))
                fit = fit_segment(m, start, end)
                phi, ssr = naive_segment_fit(values, y0, start, end)
                assert fit.phi_hat == pytest.approx(phi, rel=1e-10)
                assert fit.ssr == pytest.approx(ssr, rel=1e-8, abs=1e-10)

    def test_degenerate_segment_raises(self):
        m = build_prefix_moments(Series(np.array([0.0, 0.0, 0.0, 5.0, 3.0])))
        with pytest.raises(DegenerateSegmentError):
            fit_segment(m, 2, 3)

    def test_out_of_range_raises(self):
        m = build_prefix_moments(Series(np.ones(5), y0=1.0))
        with pytest.raises(EmptyRangeError):
            fit_segment(m, 0, 3)
        with pytest.raises(EmptyRangeError):
            fit_segment(m, 3, 6)
        with pytest.raises(EmptyRangeError):
            fit_segment(m, 4, 3)


class TestSplitScan:
    def test_tent_split_is_exact_at_kink(self):
        values = growth_decay_tent(20, 10, 1.2, 0.8)
        m = build_prefix_moments(Series(values, y0=1.0))
        assert abs(ssr_split(m, 10)) < 1e-10
        assert ssr_split(m, 9) > 1.0
        assert ssr_split(m, 11) > 1.0

    def test_split_matches_naive_everywhere(self):
        rng = stream(7)
        values = rng.normal(size=40).cumsum()
        m = build_prefix_moments(Series(values, y0=0.5))
        for k in range(1, 40):
            assert ssr_split(m, k) == pytest.approx(
                naive_split_ssr(values, 0.5, k), rel=1e-9
            )

    def test_argmin_finds_kink(self):
        values = growth_decay_tent(20, 10, 1.2, 0.8)
        m = build_prefix_moments(Series(values, y0=1.0))
        scan = window_scan(m, 1, m.T, 2, 18)
        assert scan.k_hat == 10
        assert scan.curve.shape == (17, 2)
        assert scan.skipped.size == 0
        assert scan.curve[:, 0].tolist() == list(range(2, 19))

    def test_exact_ties_resolve_to_smallest_date(self):
        m = build_prefix_moments(Series(np.full(30, 2.0), y0=2.0))
        assert window_scan(m, 1, m.T, 4, 26).k_hat == 4

    def test_degenerate_candidates_are_skipped(self):
        # left lags stay zero through t = 4 (the lag at t is values[t - 2]),
        # so splits before k = 5 cannot fit the first segment
        values = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0])
        assert naive_segment_fit(values, None, 1, 4) is None
        m = build_prefix_moments(Series(values))
        scan = window_scan(m, 1, m.T, 2, 6)
        assert scan.skipped.tolist() == [2, 3, 4]
        assert scan.curve[:, 0].tolist() == [5.0, 6.0]

    def test_all_candidates_degenerate_raises(self):
        m = build_prefix_moments(Series(np.zeros(10)))
        with pytest.raises(DegenerateSegmentError):
            window_scan(m, 1, m.T, 2, 8)

    def test_empty_range_raises(self):
        m = build_prefix_moments(Series(np.ones(10), y0=1.0))
        with pytest.raises(EmptyRangeError):
            window_scan(m, 1, m.T, 6, 5)
        with pytest.raises(EmptyRangeError):
            window_scan(m, 1, m.T, 2, 10)

    def test_matches_naive_scan_on_noisy_series(self):
        rng = stream(11)
        for y0 in (None, 0.3):
            values = 1.0 + 0.1 * rng.normal(size=50) + np.linspace(0, 2, 50)
            m = build_prefix_moments(Series(values, y0=y0))
            scan = window_scan(m, 1, m.T, 3, 47)
            assert scan.k_hat == naive_window_scan(values, y0, 1, 50, 3, 47)


class TestEstimateDates:
    def test_three_phase_tent_recovers_all_dates(self):
        est = estimate_dates(Series(three_phase_tent(), y0=1.0))
        assert (est.k_e_hat, est.k_c_hat, est.k_r_hat) == (16, 24, 32)
        assert est.unavailable_reason_e is None
        assert est.unavailable_reason_r is None
        assert est.range_c == (2, 38)
        assert est.range_e == (2, 22)
        assert est.range_r == (27, 38)

    def test_matches_naive_sequential_steps_on_noise(self):
        rng = stream(23)
        for y0 in (None, 0.0):
            for _ in range(5):
                values = rng.normal(size=80).cumsum() + 5.0
                est = estimate_dates(Series(values, y0=y0))
                k_e, k_c, k_r = naive_sequential_dates(values, y0)
                assert (est.k_e_hat, est.k_c_hat, est.k_r_hat) == (k_e, k_c, k_r)

    def test_explicit_oracle_matches_naive_loops(self):
        rng = stream(29)
        for y0 in (None, 0.0):
            for _ in range(3):
                values = rng.normal(size=80).cumsum() + 5.0
                assert naive_sequential_dates(values, y0, scan=explicit_window_scan) == (
                    naive_sequential_dates(values, y0)
                )

    def test_matches_explicit_oracle_on_long_explosive_paths(self):
        for T, phi_a in ((1600, 1.05), (1600, 1.09), (3200, 1.05)):
            for seed in (0, 1):
                s = simulate(explosive_config(T, phi_a), IidGaussian(1.0), seed)
                est = estimate_dates(s)
                assert (est.k_e_hat, est.k_c_hat, est.k_r_hat) == naive_sequential_dates(
                    s.values, s.y0, scan=explicit_window_scan
                ), (T, phi_a, seed)

    @pytest.mark.xfail(strict=True, reason="the bubble peak (about 5e25) rounds away the "
                       "unit innovations, so the emergence SSRs of every candidate agree "
                       "to 5e-13 and the date is decided by rounding noise")
    def test_matches_explicit_oracle_beyond_float64_resolution(self):
        for seed in (0, 1):
            s = simulate(explosive_config(3200, 1.09), IidGaussian(1.0), seed)
            est = estimate_dates(s)
            assert (est.k_e_hat, est.k_c_hat, est.k_r_hat) == naive_sequential_dates(
                s.values, s.y0, scan=explicit_window_scan
            ), seed

    def test_dates_invariant_to_scale_and_sign(self):
        values = three_phase_tent() + 0.01 * stream(5).normal(size=40)
        base = estimate_dates(Series(values, y0=1.0))
        for factor in (3.0, -1.0):
            other = estimate_dates(Series(factor * values, y0=factor * 1.0))
            assert other.k_c_hat == base.k_c_hat
            assert other.k_e_hat == base.k_e_hat
            assert other.k_r_hat == base.k_r_hat

    def test_estimates_respect_trimming(self):
        rng = stream(31)
        trim = TrimmingPolicy(0.10)
        for _ in range(10):
            values = rng.normal(size=60).cumsum()
            est = estimate_dates(Series(values), trim)
            assert 6 <= est.k_c_hat <= 54
            if est.k_e_hat is not None:
                assert 6 <= est.k_e_hat <= est.k_c_hat - 6
            if est.k_r_hat is not None:
                assert est.k_c_hat + 7 <= est.k_r_hat <= 54

    def test_boundary_violation_when_collapse_sits_at_edge(self):
        est = estimate_dates(Series(boundary_kink_series(), y0=1.0))
        assert est.k_c_hat == 3
        assert est.k_e_hat is None
        assert est.unavailable_reason_e is UnavailableReason.BOUNDARY_VIOLATION
        assert est.range_e is None
        assert est.k_r_hat == 30

    def test_degenerate_recovery_window(self):
        est = estimate_dates(Series(growth_then_zeros(), y0=1.0))
        assert (est.k_e_hat, est.k_c_hat) == (2, 20)
        assert est.k_r_hat is None
        assert est.unavailable_reason_r is UnavailableReason.DEGENERATE
        assert est.range_r == (23, 38)

    def test_short_series_rejected(self):
        with pytest.raises(SeriesValidationError):
            estimate_dates(Series(np.ones(39), y0=1.0))

    def test_ssr_curves_cover_scanned_ranges(self):
        values = stream(3).normal(size=100).cumsum()
        est = estimate_dates(Series(values, y0=0.0))
        lo, hi = est.range_c
        assert est.ssr_curve_c[:, 0].tolist() == list(range(lo, hi + 1))
        if est.range_e is not None:
            lo, hi = est.range_e
            covered = set(est.ssr_curve_e[:, 0].astype(int))
            assert covered <= set(range(lo, hi + 1))


class TestBicSelect:
    def test_four_regime_wins_on_exact_tent(self):
        report = bic_select(Series(three_phase_tent(), y0=1.0))
        assert report.chosen is ModelChoice.FOUR_REGIME
        assert report.bic[ModelChoice.FOUR_REGIME] == -math.inf
        assert report.dates[ModelChoice.FOUR_REGIME] == (16, 24, 32)
        assert report.n_obs == 40

    def test_values_match_direct_formula(self):
        values = three_phase_tent() + 0.05 * stream(77).normal(size=40)
        report = bic_select(Series(values, y0=1.0))
        n = 40
        k_e, k_c, k_r = report.dates[ModelChoice.FOUR_REGIME]
        ssr2 = naive_split_ssr(values, 1.0, k_c)
        want2 = n * math.log(ssr2 / n) + 3 * math.log(n)
        assert report.bic[ModelChoice.TWO_REGIME] == pytest.approx(want2, rel=1e-10)
        ssr3 = (
            naive_segment_fit(values, 1.0, 1, k_e)[1]
            + naive_segment_fit(values, 1.0, k_e + 1, k_c)[1]
            + naive_segment_fit(values, 1.0, k_c + 1, 40)[1]
        )
        want3 = n * math.log(ssr3 / n) + 5 * math.log(n)
        assert report.bic[ModelChoice.THREE_REGIME] == pytest.approx(want3, rel=1e-10)
        ssr4 = (
            naive_segment_fit(values, 1.0, 1, k_e)[1]
            + naive_segment_fit(values, 1.0, k_e + 1, k_c)[1]
            + naive_segment_fit(values, 1.0, k_c + 1, k_r)[1]
            + naive_segment_fit(values, 1.0, k_r + 1, 40)[1]
        )
        want4 = n * math.log(ssr4 / n) + 7 * math.log(n)
        assert report.bic[ModelChoice.FOUR_REGIME] == pytest.approx(want4, rel=1e-10)

    def test_unavailable_models_carry_infinite_bic(self):
        report = bic_select(Series(np.full(40, 3.0), y0=3.0))
        assert report.chosen is ModelChoice.TWO_REGIME
        assert report.bic[ModelChoice.TWO_REGIME] == -math.inf
        assert report.bic[ModelChoice.THREE_REGIME] == math.inf
        assert report.bic[ModelChoice.FOUR_REGIME] == math.inf
        assert report.dates[ModelChoice.THREE_REGIME] is None
        assert report.dates[ModelChoice.FOUR_REGIME] is None

    def test_n_obs_convention_without_presample(self):
        values = stream(9).normal(size=50).cumsum()
        assert bic_select(Series(values)).n_obs == 49
        assert bic_select(Series(values, y0=0.0)).n_obs == 50


def refit_bic(series, est):
    """BIC of each model by refitting every segment with a fresh ``_pass``.

    Each segment is read in the direction its scan produced it: the left
    segment of a scan forward from its start, the right one backward from
    its end.  Segment SSRs are summed one segment at a time in date order,
    starting from 0.0.  Returns (bic, chosen, dates, n_obs) like
    ``BicReport``.
    """
    moments = build_prefix_moments(series)
    n = moments.T - (moments.t_start - 1)
    T = moments.T
    k_e, k_c, k_r = est.k_e_hat, est.k_c_hat, est.k_r_hat
    dates = {
        ModelChoice.TWO_REGIME: (k_c,),
        ModelChoice.THREE_REGIME: (k_e, k_c) if k_e is not None else None,
        ModelChoice.FOUR_REGIME: (k_e, k_c, k_r) if k_e is not None and k_r is not None else None,
    }
    # whether each of a model's segments, in date order, is read forward
    forward = {
        ModelChoice.TWO_REGIME: (True, False),
        ModelChoice.THREE_REGIME: (True, False, False),
        ModelChoice.FOUR_REGIME: (True, False, True, False),
    }
    bic = {}
    for model, n_params in zip(ModelChoice, (3, 5, 7)):
        if dates[model] is None:
            bic[model] = math.inf
            continue
        bounds = [0, *dates[model], T]
        total = 0.0
        for lo, hi, ahead in zip(bounds[:-1], bounds[1:], forward[model]):
            window = moments.pairs[:, lo:hi]
            total += float(_pass(window if ahead else window[:, ::-1])[1][-1])
        bic[model] = -math.inf if total <= 0.0 else n * math.log(total / n) + n_params * math.log(n)
    chosen = ModelChoice.TWO_REGIME
    for model in (ModelChoice.THREE_REGIME, ModelChoice.FOUR_REGIME):
        if bic[model] < bic[chosen]:
            chosen = model
    return bic, chosen, dates, n


def bic_reference_series():
    rng = stream(2024)
    for i in range(20):
        walk = rng.normal(size=100 + 20 * i).cumsum()
        yield Series(walk)
        yield Series(walk, y0=0.0)
    volshift = VolatilityScaled(SingleShiftVolatility(1.0, 3.0, 0.5))
    for T in (400, 800, 1600):
        for phi_a in (1.05, 1.09):
            for errors in (IidGaussian(1.0), volshift):
                for seed in range(5):
                    yield simulate(explosive_config(T, phi_a), errors, seed)
    yield Series(three_phase_tent(), y0=1.0)
    yield Series(three_phase_tent())
    yield Series(three_phase_tent(T=80, k_e=30, k_c=50, k_r=60), y0=1.0)
    yield Series(np.full(40, 3.0), y0=3.0)
    yield Series(np.full(60, -2.0))


def test_bic_matches_segment_refit_bitwise():
    checked = 0
    for series in bic_reference_series():
        for rho in (0.05, 0.2):
            trimming = TrimmingPolicy(rho)
            report = bic_select(series, trimming)
            est = estimate_dates(series, trimming)
            for f in dataclasses.fields(est):
                got, want = getattr(report.estimates, f.name), getattr(est, f.name)
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want), f.name
                else:
                    assert got == want, f.name
            bic, chosen, dates, n_obs = refit_bic(series, est)
            assert {m: float(v).hex() for m, v in report.bic.items()} == {
                m: float(v).hex() for m, v in bic.items()
            }
            assert (report.chosen, report.dates, report.n_obs) == (chosen, dates, n_obs)
            checked += 1
    assert checked >= 200


def test_golden_estimates():
    """Dates, BIC and SSR curves on long and strongly explosive paths are pinned.

    None of these series is an exact fit, so none may carry a -inf BIC.
    """
    h = hashlib.sha256()
    for T in (800, 1600, 3200):
        for phi_a in (1.05, 1.09):
            for seed in range(5):
                s = simulate(explosive_config(T, phi_a), IidGaussian(1.0), seed)
                for series in (s, Series(s.values)):
                    r = bic_select(series)
                    assert -math.inf not in r.bic.values()
                    est = r.estimates
                    h.update(repr((est.k_e_hat, est.k_c_hat, est.k_r_hat, r.chosen.value,
                                   [v.hex() for v in r.bic.values()])).encode())
                    for curve in (est.ssr_curve_c, est.ssr_curve_e, est.ssr_curve_r):
                        if curve is not None:
                            h.update(curve.tobytes())
    assert h.hexdigest() == "c826167dcc1ea3f9346c10c192ba0d00b7c3a75155b9a3ebd2c856f058eeba91"


def contract_tile():
    """16 rows of T = 40 with their presample values.

    Rows 0-10 are random walks, explosive paths and an exact tent; row 11
    has a NaN, row 12 is all zeros (no collapse candidate), row 13 puts
    k_c at the lower trimming edge (no emergence range), row 14 leaves a
    degenerate recovery window and row 15 is an exact tent again.
    """
    rng = stream(404)
    rows, y0 = [], []
    for _ in range(6):
        rows.append(rng.normal(size=40).cumsum())
        y0.append(0.0)
    for seed in range(4):
        s = simulate(explosive_config(40, 1.3), IidGaussian(1.0), seed)
        rows.append(s.values)
        y0.append(s.y0)
    walk = rng.normal(size=40).cumsum()
    walk[17] = np.nan
    rows += [three_phase_tent(), walk, np.zeros(40), boundary_kink_series(), growth_then_zeros(), three_phase_tent()]
    y0 += [1.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    return np.array(rows), np.array(y0)


def tile_record(tile):
    """A tile's per-row results with every SSR as its float's hex form."""
    def bits(seg):
        return None if seg is None else tuple(float(v).hex() for v in seg)

    fields = ("k_c_hat", "k_e_hat", "k_r_hat", "unavailable_reason_e", "unavailable_reason_r")
    record = [getattr(tile, f) for f in fields]
    record += [[bits(seg) for seg in getattr(tile, f"segment_ssr_{x}")] for x in "cer"]
    return record + [tile.chosen_indices()]


def assert_rows_match_one_row_calls(values, y0):
    """Date ``values`` as one tile and check each row against its one-row
    ``bic_select``, bit for bit.  Returns the number of rows on which the
    one-row call raises; the tile fails exactly those rows.
    """
    tile = estimate_tile(values, y0)
    chosen = tile.chosen_indices()
    failed = 0
    for i, row in enumerate(values):
        try:
            report = bic_select(Series(row, y0=None if y0 is None else float(y0[i])))
        except BubbleDateError:
            failed += 1
            assert [r[i] for r in tile_record(tile)] == [None] * 9, i
            continue
        est = report.estimates
        assert (tile.k_e_hat[i], tile.k_c_hat[i], tile.k_r_hat[i]) == (est.k_e_hat, est.k_c_hat, est.k_r_hat), i
        assert (tile.unavailable_reason_e[i], tile.unavailable_reason_r[i]) == (
            est.unavailable_reason_e, est.unavailable_reason_r), i
        for x in "cer":
            got, want = getattr(tile, f"segment_ssr_{x}")[i], getattr(est, f"segment_ssr_{x}")
            assert (got is None and want is None) or [v.hex() for v in got] == [v.hex() for v in want], (i, x)
        assert list(ModelChoice)[chosen[i]] is report.chosen, i
    return failed


class TestEstimateTile:
    @pytest.mark.parametrize("presample", [True, False])
    def test_rows_match_their_one_row_bic_select(self, presample):
        values, y0 = contract_tile()
        tile = estimate_tile(values, y0 if presample else None)
        assert assert_rows_match_one_row_calls(values, y0 if presample else None) == 2  # the NaN and all-zero rows
        assert tile.unavailable_reason_e[13] is UnavailableReason.BOUNDARY_VIOLATION
        assert tile.unavailable_reason_r[14] is UnavailableReason.DEGENERATE
        assert tile.n_obs == (40 if presample else 39)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("presample", [True, False])
    def test_extreme_rows_do_not_reach_their_neighbours(self, presample):
        # a tile's passes run over its rows end to end, so a row's last
        # pair precedes the next row's first; rows at the edges of float64
        # range must neither raise a floating-point warning there nor
        # change a neighbour's dates or SSR bits
        rng = stream(808)

        def walk():
            return rng.normal(size=800).cumsum()

        explosive = simulate(explosive_config(800, 1.05), IidGaussian(1.0), 3).values
        constant = np.full(800, 2.5)
        broken = walk()
        broken[400] = np.nan
        values = np.array([walk(), 1e-160 * walk(), explosive, 1e150 * walk(), walk(), np.zeros(800),
                           explosive, constant, 1e150 * walk(), broken, 1e-160 * walk(), walk()])
        y0 = np.zeros(len(values)) if presample else None
        if presample:
            y0[7] = 2.5
        assert assert_rows_match_one_row_calls(values, y0) == 2  # the all-zero and NaN rows

    def test_rows_with_spread_collapse_dates_match(self):
        # collapse dates from the lower trimming edge to the upper one, so
        # the masked read skips only the zero columns that lead every row
        T, trimming = 200, TrimmingPolicy()
        margin, k_hi = trimming.margin(T), trimming.k_hi(T)
        rng = stream(909)
        peaks = (margin + 2, 30, 60, 100, 140, 170, k_hi - 2, margin + 5)
        values = np.array([growth_decay_tent(T, k, 1.03, 0.97) * np.exp(0.002 * rng.normal(size=T))
                           for k in peaks])
        k_c = estimate_tile(values, np.ones(len(peaks))).k_c_hat
        assert min(k_c) <= margin + 5 and max(k_c) >= k_hi - 5
        assert assert_rows_match_one_row_calls(values, np.ones(len(peaks))) == 0

    def test_masked_read_skips_the_leading_zero_columns(self, monkeypatch):
        import bubbledate.estimator as estimator

        widths = []
        kernel = estimator._pass

        def recording_pass(pairs):
            widths.append(pairs.shape[-1])
            return kernel(pairs)

        monkeypatch.setattr(estimator, "_pass", recording_pass)
        paths = [simulate(explosive_config(800, 1.09), IidGaussian(1.0), seed) for seed in range(16)]
        estimate_tile(np.array([p.values for p in paths]), np.array([p.y0 for p in paths]))
        assert len(widths) == 2
        assert widths[0] == 801  # the full read: a zero pair, then T pairs
        assert widths[1] < 800  # the masked read

    def test_split_tiles_agree(self):
        values, y0 = contract_tile()
        whole = tile_record(estimate_tile(values, y0))
        head, rest = tile_record(estimate_tile(values[:1], y0[:1])), tile_record(estimate_tile(values[1:], y0[1:]))
        assert [h + r for h, r in zip(head, rest)] == whole
        halves = tile_record(estimate_tile(values[:8], y0[:8])), tile_record(estimate_tile(values[8:], y0[8:]))
        assert [h + r for h, r in zip(*halves)] == whole

    def test_row_accumulation_matches_one_dimensional(self):
        a = stream(5).normal(size=(16, 800)) * np.exp(20.0 * stream(6).normal(size=(16, 800)))
        for tile in (a, a[:, ::-1]):
            acc = np.add.accumulate(tile, axis=1)
            for r in range(tile.shape[0]):
                assert acc[r].tobytes() == np.add.accumulate(tile[r]).tobytes()

    def test_short_tile_fails_every_row(self):
        values, y0 = contract_tile()
        assert MIN_ESTIMATION_LENGTH == 40  # contract_tile is a tile of the shortest accepted length
        short = estimate_tile(values[:, 1:], y0)
        assert tile_record(short) == [[None] * 16] * 9
        with pytest.raises(SeriesValidationError):
            estimate_dates(Series(values[0, 1:], y0=0.0))
