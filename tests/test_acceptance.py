"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  The first two fixtures run the full baseline and 1%-trim
experiments (2000 replications each), so this module dominates the suite's
runtime; everything in it is deterministic.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import naive_split_ssr, natural_tail_process, regime_path, segment_split_ssr

from bubbledate import (
    DgpConfig,
    Discretization,
    ExperimentConfig,
    IidGaussian,
    LinearProcess,
    ModelChoice,
    Series,
    Target,
    bn_decompose,
    emergence_limit_draws,
    estimate_dates,
    preset,
    recovery_limit_draws,
    run_experiment,
)
from bubbledate.montecarlo import _BASE_DGP
from bubbledate.rng import stream


@pytest.fixture(scope="module")
def baseline_result():
    return run_experiment(preset("baseline"))


@pytest.fixture(scope="module")
def trim_result():
    return run_experiment(preset("trim1pct"))


def hit_of(result, T, phi_a, phi_b, target):
    for hist in result.histograms:
        cell = hist.cell
        if (cell.T, cell.phi_a, cell.phi_b) == (T, phi_a, phi_b) and hist.target is target:
            return hist.hit_frequency
    raise AssertionError(f"no histogram for ({T}, {phi_a}, {phi_b}, {target})")


def test_criterion_01_collapse_consistency_strong_bubble(baseline_result):
    hit = hit_of(baseline_result, 800, 1.05, 0.96, Target.COLLAPSE)
    print(f"criterion 1: collapse hit frequency {hit:.4f} (need >= 0.95)")
    assert hit >= 0.95


def test_criterion_02_collapse_difficulty_weak_bubble(baseline_result):
    hit_400 = hit_of(baseline_result, 400, 1.01, 0.96, Target.COLLAPSE)
    hit_800 = hit_of(baseline_result, 800, 1.01, 0.96, Target.COLLAPSE)
    print(
        f"criterion 2: weak-bubble collapse hits {hit_400:.4f} (need [0.20, 0.40]) "
        f"and {hit_800:.4f} (need [0.55, 0.75])"
    )
    assert 0.20 <= hit_400 <= 0.40
    assert 0.55 <= hit_800 <= 0.75


def test_criterion_03_recovery_regime_contrast(baseline_result):
    easy = hit_of(baseline_result, 800, 1.05, 0.98, Target.RECOVERY)
    hard = hit_of(baseline_result, 800, 1.01, 0.96, Target.RECOVERY)
    print(f"criterion 3: recovery hits {easy:.4f} (need >= 0.90) > {hard:.4f}")
    assert easy >= 0.90
    assert easy > hard


def test_criterion_04_split_ssr_from_segment_fits_matches_naive_refit():
    rng = stream(2026)
    checked = 0
    worst = 0.0
    for i in range(100):
        T = int(rng.integers(10, 201))
        y0 = float(rng.normal()) if i % 2 == 0 else None
        values = rng.normal(size=T).cumsum() + rng.normal()
        series = Series(values, y0=y0)
        # without a presample the first regression time is t = 2, so the
        # left segment of a k = 1 split would be empty
        for k in range(1 if y0 is not None else 2, T):
            fast = segment_split_ssr(series, k)
            naive = naive_split_ssr(values, y0, k)
            rel = abs(fast - naive) / max(abs(naive), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-8
            checked += 1
    print(f"criterion 4: {checked} splits on 100 series, worst relative gap {worst:.2e}")


def test_criterion_05_exact_recovery_on_noiseless_paths():
    rng = stream(20260815)
    exact = 0
    for _ in range(20):
        while True:
            T = int(rng.integers(60, 201))
            tau_e = float(rng.uniform(0.25, 0.40))
            tau_c = tau_e + float(rng.uniform(0.10, 0.20))
            tau_r = tau_c + float(rng.uniform(0.10, 0.20))
            phi_a = float(rng.uniform(1.05, 1.20))
            phi_b = float(rng.uniform(0.75, 0.92))
            try:
                config = DgpConfig(
                    tau_e, tau_c, tau_r, phi_a=phi_a, phi_b=phi_b, T=T, y0=1.0
                )
            except Exception:
                continue  # resample fractions that collide on this T
            break
        y = regime_path(config, np.zeros(T))
        est = estimate_dates(Series(y[1:], y0=float(y[0])))
        got = (est.k_e_hat, est.k_c_hat, est.k_r_hat)
        assert got == config.break_indices, (config, got)
        exact += 1
    print(f"criterion 5: {exact}/20 noiseless configurations dated exactly")


def test_criterion_06_ou_second_moment():
    errs = {}
    for j, c_b in enumerate((0.5, 1.0, 2.0)):
        # keep c_b * step small; the discrete tail sum inflates the
        # variance by the factor 2*c_b*step / (1 - exp(-2*c_b*step))
        step = min(0.01, 0.01 / c_b)
        disc = Discretization(step=step, v_max=1.0)
        rng = stream(6, j)
        m2 = float(
            np.mean([natural_tail_process(c_b, disc, rng)[0][0] ** 2 for _ in range(10_000)])
        )
        want = 1.0 / (2.0 * c_b)
        errs[c_b] = abs(m2 - want) / want
        assert errs[c_b] <= 0.05
    printed = ", ".join(f"c_b={c}: {e:.2%}" for c, e in errs.items())
    print(f"criterion 6: second-moment errors {printed} (need <= 5%)")


def test_criterion_07_white_noise_correction_is_neutral():
    # a 10-unit window keeps the seven batches of 300 draws fast
    disc = Discretization(v_max=10.0)
    default = recovery_limit_draws(1.0, draws=300, disc=disc, seed=4)
    # white noise at any scale sigma leaves both penalties at one: the default draws, bit for bit
    for sigma in (0.3, 2.0, 7.5):
        white = LinearProcess((sigma,))
        bn = bn_decompose(white)
        assert bn.psi_check == 0.0
        assert bn.psi_sq_sum / bn.psi_sum**2 == 1.0
        scaled = recovery_limit_draws(1.0, draws=300, disc=disc, seed=4, correction=white)
        assert np.array_equal(scaled.values, default.values)
        assert scaled.rejections == default.rejections
    # psi = (1, eps) moves the penalties by O(eps), so its draws approach the default ones as eps falls
    shares = []
    for eps in (1e-1, 1e-2, 1e-4):
        near = recovery_limit_draws(1.0, draws=300, disc=disc, seed=4, correction=LinearProcess((1.0, eps)))
        shares.append(float(np.mean(near.values == default.values)))
    print(f"criterion 7: white noise neutral at 3 scales; shares equal to the default at eps 1e-1, 1e-2, 1e-4: {shares}")
    assert shares[0] < shares[1] < shares[2] == 1.0


def test_criterion_08_bic_prefers_four_regimes_on_strong_paths():
    config = ExperimentConfig(
        dgp=replace(_BASE_DGP, phi_a=1.09),
        errors=IidGaussian(1.0),
        T_grid=(800,),
        phi_a_grid=(1.09,),
        reps=2000,
        base_seed=0,
        targets=(Target.COLLAPSE,),
        bic=True,
    )
    tally = run_experiment(config).bic_tallies[0]
    share = tally.counts[ModelChoice.FOUR_REGIME] / tally.reps
    print(f"criterion 8: four-regime share {share:.4f} (need >= 0.90)")
    assert share >= 0.90


def test_criterion_09_bitwise_determinism():
    config = ExperimentConfig(
        dgp=_BASE_DGP,
        errors=IidGaussian(1.0),
        T_grid=(400,),
        phi_a_grid=(1.05,),
        reps=300,
        base_seed=0,
    )
    serial_a = run_experiment(config, workers=1)
    serial_b = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=2)
    for other in (serial_b, parallel):
        for ha, hb in zip(serial_a.histograms, other.histograms):
            assert ha.cell == hb.cell and ha.target == hb.target
            assert ha.bins == hb.bins
            assert ha.unavailable == hb.unavailable

    rec_a = recovery_limit_draws(1.0, draws=50, seed=11)
    rec_b = recovery_limit_draws(1.0, draws=50, seed=11)
    eme_a = emergence_limit_draws(0.4, draws=50, seed=11)
    eme_b = emergence_limit_draws(0.4, draws=50, seed=11)
    assert np.array_equal(rec_a.values, rec_b.values)
    assert np.array_equal(eme_a.values, eme_b.values)
    print("criterion 9: serial, parallel and repeated runs bitwise identical")


def test_criterion_10_bookkeeping_and_trimming_insensitivity(baseline_result, trim_result):
    for result in (baseline_result, trim_result):
        for hist in result.histograms:
            assert sum(hist.bins.values()) + hist.unavailable == hist.reps
    worst = 0.0
    for T in (400, 800):
        for target in Target:
            base = hit_of(baseline_result, T, 1.05, 0.96, target)
            trim = hit_of(trim_result, T, 1.05, 0.96, target)
            worst = max(worst, abs(base - trim))
            assert abs(base - trim) <= 0.05
    print(
        "criterion 10: counts conserved in all "
        f"{len(baseline_result.histograms) + len(trim_result.histograms)} histograms; "
        f"worst trimming delta {worst:.4f} (need <= 0.05)"
    )
