"""Simulation: regime recursion and error processes."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import plain_recursion_path, regime_path

from bubbledate import (
    ConfigError,
    DgpConfig,
    IidGaussian,
    LinearProcess,
    LinearProcessCoeffs,
    SingleShiftVolatility,
    VolatilityScaled,
    generate_errors,
    simulate,
)
from bubbledate.dgp import _filter_innovations, _regime_recursion
from bubbledate.rng import stream


class TestRegimeRecursion:
    def test_zero_noise_closed_form(self):
        # flat at 1, 20% growth, 20% decay, flat: every value has a closed form
        cfg = DgpConfig(0.4, 0.6, 0.7, phi_a=1.2, phi_b=0.8, T=40, y0=1.0)
        y = regime_path(cfg, np.zeros(40))
        assert cfg.break_indices == (16, 24, 28)
        for t in range(0, 17):
            assert y[t] == 1.0
        for t in range(17, 25):
            assert y[t] == pytest.approx(1.2 ** (t - 16), rel=1e-14)
        for t in range(25, 29):
            assert y[t] == pytest.approx(1.2 ** 8 * 0.8 ** (t - 24), rel=1e-14)
        for t in range(29, 41):
            assert y[t] == y[28]

    def test_matches_plain_recursion_on_random_configs(self):
        rng = stream(314)
        for _ in range(20):
            T = int(rng.integers(10, 120))
            te, tc, tr = np.sort(rng.uniform(0.05, 0.98, size=3))
            try:
                cfg = DgpConfig(
                    float(te), float(tc), float(tr),
                    phi_a=float(rng.uniform(1.01, 1.3)),
                    phi_b=float(rng.uniform(0.7, 0.99)),
                    T=T,
                    y0=float(rng.normal()),
                    c0=float(rng.uniform(0.0, 2.0)),
                    c1=float(rng.uniform(0.0, 2.0)),
                )
            except ConfigError:
                continue  # fractions may collide on a small T
            errors = rng.normal(size=T)
            got = regime_path(cfg, errors)
            want = plain_recursion_path(cfg, errors)
            assert got.tolist() == want

    def test_regime_boundaries_exact(self):
        # nonzero drifts make each branch's first application visible
        cfg = DgpConfig(
            0.4, 0.6, 0.7, phi_a=1.1, phi_b=0.9, T=100, y0=5.0,
            drift_pre=0.25, drift_post=0.125,
        )
        k_e, k_c, k_r = cfg.break_indices
        y = regime_path(cfg, np.zeros(100))
        assert y[k_e] == 5.0 + 0.25 * k_e          # drift applies through k_e
        assert y[k_e + 1] == 1.1 * y[k_e]           # explosive from k_e + 1
        assert y[k_c + 1] == 0.9 * y[k_c]           # collapse from k_c + 1
        assert y[k_r + 1] == y[k_r] + 0.125         # unit root from k_r + 1

    def test_tau_r_one_decays_to_the_end(self):
        cfg = DgpConfig(0.4, 0.6, 1.0, phi_a=1.2, phi_b=0.8, T=40, y0=1.0)
        y = regime_path(cfg, np.zeros(40))
        assert y[40] == pytest.approx(1.2 ** 8 * 0.8 ** 16, rel=1e-14)

    def test_batch_matches_single_paths_bitwise(self):
        cfg = DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=60, y0=0.0)
        errors = stream(55).normal(size=(5, 60))
        batched = _regime_recursion(cfg, np.array([[cfg.phi_a]]), np.array([[cfg.phi_b]]), errors)
        assert batched.shape == (61, 1, 5)
        for r in range(5):
            assert np.array_equal(batched[:, 0, r], regime_path(cfg, errors[r]))

    def test_stacked_recursion_matches_each_cell_bitwise(self):
        cfg = DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=90, y0=0.5,
                        drift_pre=0.01, drift_post=0.02)
        pairs = [(1.01, 0.96), (1.05, 0.98), (1.09, 0.94), (1.05, 0.96), (1.3, 0.5)]
        phi_a = np.array([[a] for a, _ in pairs])
        phi_b = np.array([[b] for _, b in pairs])
        for rows in (1, 3, 8, 13):
            errors = stream(77, rows).normal(size=(rows, 90))
            stacked = _regime_recursion(cfg, phi_a, phi_b, errors)
            assert stacked.shape == (91, len(pairs), rows)
            for c in range(len(pairs)):
                one = _regime_recursion(cfg, phi_a[c : c + 1], phi_b[c : c + 1], errors)
                assert np.array_equal(stacked[:, c, :], one[:, 0, :])

    def test_simulate_wraps_path_with_y0(self):
        cfg = DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=80, y0=3.0)
        spec = IidGaussian(1.0)
        s = simulate(cfg, spec, 123)
        y = regime_path(cfg, generate_errors(spec, 80, stream(123)))
        assert s.y0 == 3.0
        assert np.array_equal(s.values, y[1:])

    def test_simulate_deterministic(self):
        cfg = DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=80)
        a = simulate(cfg, IidGaussian(), 9)
        b = simulate(cfg, IidGaussian(), 9)
        assert np.array_equal(a.values, b.values)


class TestErrorSpecs:
    def test_iid_gaussian_scales_sigma(self):
        z = stream(2).standard_normal(50)
        e = generate_errors(IidGaussian(2.5), 50, stream(2))
        assert np.array_equal(e, 2.5 * z)

    def test_volatility_shift_variance_ratio(self):
        prof = SingleShiftVolatility(sigma0=1.0, sigma1=3.0, tau_sigma=0.5)
        e = generate_errors(VolatilityScaled(prof), 800, stream(17))
        ratio = e[400:].var() / e[:400].var()
        assert ratio == pytest.approx(9.0, rel=0.20)

    def test_linear_process_identity_filter(self):
        spec = LinearProcess(LinearProcessCoeffs((1.0,)))
        e = generate_errors(spec, 100, stream(3))
        assert np.array_equal(e, stream(3).standard_normal(100))

    def test_linear_process_constant_input(self):
        psi = np.array([1.0, 0.5])
        out = _filter_innovations(psi, np.ones(60), T=50)
        assert np.allclose(out, 1.5, rtol=0, atol=0)

    def test_linear_process_variance(self):
        spec = LinearProcess(LinearProcessCoeffs((1.0, 0.5)))
        e = generate_errors(spec, 100_000, stream(8))
        assert e.var() == pytest.approx(1.25, rel=0.02)

    def test_innovation_sigma_scales_filter_input(self):
        coeffs = LinearProcessCoeffs((1.0, 0.5))
        a = generate_errors(LinearProcess(coeffs, innovation_sigma=2.0), 50, stream(4))
        b = generate_errors(LinearProcess(coeffs, innovation_sigma=1.0), 50, stream(4))
        assert np.allclose(a, 2.0 * b, rtol=1e-15)

