"""Limit-law samplers: filter decomposition, tail process, argmax draws."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from conftest import naive_backward_recursion

from bubbledate import (
    ConfigError,
    Discretization,
    LinearProcessCoeffs,
    ZeroLongRunVarianceError,
    bn_decompose,
    emergence_limit_draws,
    recovery_limit_draws,
    sample_ou_path,
)
from bubbledate.asymptotics import _emergence_objective, _recovery_objective, lfilter
from bubbledate.rng import stream

N_DRAWS = 10_000


@pytest.fixture(scope="module")
def recovery_draws(default_recovery_sample):
    """Common-seed recovery draws at the default grid and at half the step."""
    half = recovery_limit_draws(1.0, draws=N_DRAWS, disc=Discretization(step=0.005), seed=0)
    return default_recovery_sample, half


@pytest.fixture(scope="module")
def emergence_draws():
    base = emergence_limit_draws(0.4, draws=N_DRAWS, seed=0)
    half = emergence_limit_draws(0.4, draws=N_DRAWS, disc=Discretization(step=0.005), seed=0)
    return base, half


def tv_distance(a, b, n_bins=20):
    """Total variation across equal-probability bins of the pooled sample."""
    pooled = np.concatenate([a, b])
    edges = np.quantile(pooled, np.linspace(0.0, 1.0, n_bins + 1))
    edges[0] -= 1.0
    edges[-1] += 1.0
    pa, _ = np.histogram(a, bins=edges)
    pb, _ = np.histogram(b, bins=edges)
    return 0.5 * np.abs(pa / len(a) - pb / len(b)).sum()


def assert_quantiles_stable(a, b):
    """10/50/90% quantiles agree within 5% of the local scale.

    The scale is max(|pooled quantile|, pooled IQR) so the check stays
    meaningful both at quantiles near zero and far out in the tails.
    """
    pooled = np.concatenate([a, b])
    iqr = np.quantile(pooled, 0.75) - np.quantile(pooled, 0.25)
    for q in (0.1, 0.5, 0.9):
        qa = np.quantile(a, q)
        qb = np.quantile(b, q)
        scale = max(abs(np.quantile(pooled, q)), iqr)
        assert abs(qa - qb) <= 0.05 * scale


# sha256 of the values bytes of fixed batches; any change to the draw
# order, the tail-process build or the argmax shows up here
GOLDEN_DRAWS = [
    pytest.param(
        lambda: recovery_limit_draws(1.0, draws=200, seed=0),
        "931056a4711cc263668b5e31d12e426f79b1c88f21210d078da227961d47d7c4",
        id="recovery",
    ),
    pytest.param(
        lambda: recovery_limit_draws(1.0, draws=200, seed=0, correction=LinearProcessCoeffs((1.0, 0.5))),
        "1fe21b2c337c4aad2f4e560579bc88e78d6b1f717c4320dd817d0d421e814ad9",
        id="recovery-corrected",
    ),
    pytest.param(
        lambda: recovery_limit_draws(
            3.0, draws=100, seed=5, disc=Discretization(step=0.005, v_max=5.0)
        ),
        "0bd338748acde90fdb21015fae652e15de922d990c923bb030c27da653c53080",
        id="recovery-fine-grid",
    ),
    pytest.param(
        lambda: emergence_limit_draws(0.4, draws=200, seed=0),
        "41bd28002aba2fb98b328e3bfc360d0bbad08eaaefb304bfeb8dce871f9ab00b",
        id="emergence",
    ),
    pytest.param(
        lambda: emergence_limit_draws(0.3, draws=100, seed=7, disc=Discretization(step=0.01, v_max=2.0)),
        "5389116e56e7b30fdf6b67e74c627b344d2f782843fb37bac17c1d213a18c76b",
        id="emergence-short-window",
    ),
]


@pytest.mark.parametrize("make, digest", GOLDEN_DRAWS)
def test_golden_draws(make, digest):
    sample = make()
    assert sample.rejections == 0
    assert hashlib.sha256(sample.values.tobytes()).hexdigest() == digest


class TestDiscretization:
    def test_defaults(self):
        disc = Discretization()
        assert disc.step == 0.01
        assert disc.v_max == 50.0
        assert disc.n_grid() == 5000

    def test_step_must_resolve_window(self):
        with pytest.raises(ConfigError):
            Discretization(step=0.2, v_max=10.0)
        Discretization(step=0.1, v_max=10.0)  # exactly v_max/100 is fine

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ConfigError):
            Discretization(step=0.0)
        with pytest.raises(ConfigError):
            Discretization(v_max=-1.0)


class TestBnDecompose:
    def test_white_noise(self):
        bn = bn_decompose(LinearProcessCoeffs((1.0,)))
        assert bn.psi_sum == 1.0
        assert bn.psi_tilde.tolist() == [0.0]
        assert bn.psi_check == 0.0
        assert bn.psi_sq_sum == 1.0

    def test_first_order_hand_value(self):
        bn = bn_decompose(LinearProcessCoeffs((1.0, 0.5)))
        assert bn.psi_sum == 1.5
        assert bn.psi_tilde.tolist() == [0.5, 0.0]
        assert bn.psi_check == pytest.approx(8.0 / 9.0, rel=1e-14)
        assert bn.psi_sq_sum == 1.25

    def test_geometric_closed_form(self):
        rho = 0.5
        coeffs = LinearProcessCoeffs(tuple(rho**j for j in range(51)))
        bn = bn_decompose(coeffs)
        assert bn.psi_sum == pytest.approx(2.0, rel=1e-12)
        for ell in range(20):
            want = rho ** (ell + 1) / (1.0 - rho)
            assert bn.psi_tilde[ell] == pytest.approx(want, rel=1e-12)
        assert bn.psi_tilde[-1] == 0.0
        # psi_check from the same geometric sums, evaluated independently
        tilde = np.array([rho ** (j + 1) / (1.0 - rho) for j in range(51)])
        tilde[-1] = 0.0
        want_check = (4.0 / bn.psi_sum**2) * (
            bn.psi_sum * tilde[0] - np.dot(tilde, tilde) + np.dot(tilde[:-1], tilde[1:])
        )
        assert bn.psi_check == pytest.approx(want_check, rel=1e-12)

    def test_reconstruction_identity_random_filters(self):
        rng = stream(55)
        for length in (1, 2, 7, 50, 200):
            psi = rng.normal(size=length)
            if abs(psi.sum()) < 1e-3:
                psi[0] += 1.0
            bn = bn_decompose(LinearProcessCoeffs(tuple(psi)))
            assert bn.psi_tilde[-1] == 0.0
            assert abs((bn.psi_sum - bn.psi_tilde[0]) - psi[0]) <= 1e-12
            for j in range(1, length):
                assert abs((bn.psi_tilde[j - 1] - bn.psi_tilde[j]) - psi[j]) <= 1e-12

    def test_zero_sum_rejected(self):
        with pytest.raises(ZeroLongRunVarianceError):
            bn_decompose(LinearProcessCoeffs((1.0, -1.0)))


@pytest.mark.parametrize("rho", [0.0, math.exp(-1e-8), math.exp(-0.01), math.exp(-1.0)])
@pytest.mark.parametrize("n", [1, 2, 3, 1000, 5001])
def test_lfilter_matches_backward_loop(n, rho):
    d = stream(n).standard_normal(n)
    ref = np.array(naive_backward_recursion(rho, d))
    got = lfilter(rho, d)
    assert got.shape == (n,)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestOuSampler:
    def test_path_shapes_and_grid(self):
        disc = Discretization(step=0.01, v_max=2.0)
        path = sample_ou_path(1.0, disc, 3)
        assert path.b_tilde.shape == (201,)
        assert path.db1.shape == (200,)
        assert path.grid[0] == 0.0
        assert path.grid[-1] == pytest.approx(2.0)

    def test_stationary_second_moment(self):
        disc = Discretization(step=0.01, v_max=5.0)
        rng = stream(100)
        paths = np.array([sample_ou_path(1.0, disc, rng).b_tilde for _ in range(N_DRAWS)])
        for s in (0.0, 1.0, 2.0):
            idx = int(round(s / disc.step))
            m2 = float((paths[:, idx] ** 2).mean())
            assert m2 == pytest.approx(0.5, rel=0.05)
        cov = float((paths[:, 0] * paths[:, 100]).mean())
        assert cov == pytest.approx(math.exp(-1.0) / 2.0, rel=0.10)

    def test_fast_mean_reversion_variance(self):
        # c_b * step must stay small or the discrete sum inflates the
        # variance by 2*c_b*step / (1 - exp(-2*c_b*step))
        disc = Discretization(step=1e-4, v_max=0.05)
        rng = stream(101)
        v0 = np.array([sample_ou_path(100.0, disc, rng).b_tilde[0] for _ in range(N_DRAWS)])
        assert float((v0**2).mean()) == pytest.approx(0.005, rel=0.10)

    def test_exact_start_at_weak_mean_reversion(self):
        # c_b * v_max = 0.25, so B~(0) depends strongly on the start B~(v_max);
        # both ends must carry the recursion's stationary variance
        disc = Discretization(step=0.01, v_max=1.0)
        rng = stream(102)
        paths = np.array([sample_ou_path(0.25, disc, rng).b_tilde for _ in range(N_DRAWS)])
        want = disc.step / -math.expm1(-2.0 * 0.25 * disc.step)
        assert float((paths[:, 0] ** 2).mean()) == pytest.approx(want, rel=0.05)
        assert float((paths[:, -1] ** 2).mean()) == pytest.approx(want, rel=0.05)

    def test_deterministic_given_seed(self):
        disc = Discretization(step=0.01, v_max=1.0)
        a = sample_ou_path(1.0, disc, 9)
        b = sample_ou_path(1.0, disc, 9)
        assert np.array_equal(a.b_tilde, b.b_tilde)
        assert np.array_equal(a.db1, b.db1)

    def test_nonpositive_mean_reversion_rejected(self):
        for bad in (0.0, 1e-310, math.nan, math.inf):
            with pytest.raises(ConfigError):
                sample_ou_path(bad, Discretization(), 0)


class TestRecoveryObjective:
    def test_zero_at_origin(self):
        disc = Discretization(step=0.01, v_max=1.0)
        path = sample_ou_path(1.0, disc, 21)
        db2 = stream(22).standard_normal(100) * math.sqrt(0.01)
        v_grid, values = _recovery_objective(
            1.0, path.b_tilde, path.db1, db2, 0.01, 1.0, 1.0
        )
        assert v_grid.shape == values.shape == (201,)
        assert v_grid[100] == 0.0
        assert values[100] == 0.0
        assert np.all(np.diff(v_grid) > 0)


class TestRecoveryLaw:
    def test_single_draw_deterministic(self):
        a = recovery_limit_draws(1.0, draws=1, seed=5).values
        b = recovery_limit_draws(1.0, draws=1, seed=5).values
        assert a.shape == (1,)
        assert np.array_equal(a, b)

    def test_batch_subset_property(self):
        small = recovery_limit_draws(1.0, draws=30, seed=3)
        large = recovery_limit_draws(1.0, draws=50, seed=3)
        assert np.array_equal(small.values, large.values[:30])

    def test_white_noise_correction_is_identity(self):
        plain = recovery_limit_draws(1.0, draws=300, seed=4)
        corrected = recovery_limit_draws(
            1.0, draws=300, seed=4, correction=LinearProcessCoeffs((1.0,))
        )
        assert np.array_equal(plain.values, corrected.values)

    def test_serial_correlation_changes_the_law(self):
        plain = recovery_limit_draws(1.0, draws=300, seed=4)
        corrected = recovery_limit_draws(
            1.0, draws=300, seed=4, correction=LinearProcessCoeffs((1.0, 0.5))
        )
        assert not np.array_equal(plain.values, corrected.values)
        again = recovery_limit_draws(
            1.0, draws=300, seed=4, correction=LinearProcessCoeffs((1.0, 0.5))
        )
        assert np.array_equal(corrected.values, again.values)

    def test_mode_near_zero(self, recovery_draws):
        values = recovery_draws[0].values
        hist, edges = np.histogram(values, bins=40, range=(-10.0, 10.0))
        mode_center = 0.5 * (edges[hist.argmax()] + edges[hist.argmax() + 1])
        assert abs(mode_center) <= 1.0
        central = float((np.abs(values) <= 2.0).mean())
        away = float(((np.abs(values) >= 8.0) & (np.abs(values) <= 12.0)).mean())
        assert central >= 0.40
        assert central > 3.0 * away

    def test_grid_refinement_total_variation(self, recovery_draws):
        base, half = recovery_draws
        assert tv_distance(base.values, half.values) <= 0.05

    def test_grid_refinement_quantiles(self, recovery_draws):
        base, half = recovery_draws
        assert_quantiles_stable(base.values, half.values)

    def test_rejections_reported(self, recovery_draws):
        base, _ = recovery_draws
        assert base.values.shape == (N_DRAWS,)
        assert base.rejections >= 0

    def test_rejects_nonpositive_mean_reversion(self):
        with pytest.raises(ConfigError):
            recovery_limit_draws(0.0, draws=1)
        with pytest.raises(ConfigError):
            recovery_limit_draws(-1.0, draws=10)
        for bad in (1e-310, math.nan, math.inf):
            with pytest.raises(ConfigError):
                recovery_limit_draws(bad, draws=1, disc=Discretization(v_max=5.0))

    @pytest.mark.parametrize("draws", [0, -1])
    def test_rejects_nonpositive_draws(self, draws):
        with pytest.raises(ConfigError):
            recovery_limit_draws(1.0, draws=draws)

    def test_zero_sum_correction_rejected(self):
        with pytest.raises(ZeroLongRunVarianceError):
            recovery_limit_draws(
                1.0, draws=2, correction=LinearProcessCoeffs((1.0, -1.0))
            )


class TestEmergenceObjective:
    def test_zero_at_origin_and_scale_invariance(self):
        rng = stream(31)
        n = 200
        w_left = np.cumsum(rng.standard_normal(n)) * 0.1
        w_right = np.cumsum(rng.standard_normal(n)) * 0.1
        level = 0.7
        v_grid, values = _emergence_objective(w_left, w_right, level, 0.01)
        assert v_grid[n] == 0.0
        assert values[n] == 0.0
        # a power-of-two factor cancels exactly in the ratio
        _, scaled = _emergence_objective(4.0 * w_left, 4.0 * w_right, 4.0 * level, 0.01)
        assert np.array_equal(values, scaled)


class TestEmergenceLaw:
    def test_single_draw_deterministic(self):
        a = emergence_limit_draws(0.4, draws=1, seed=5).values
        b = emergence_limit_draws(0.4, draws=1, seed=5).values
        assert a.shape == (1,)
        assert np.array_equal(a, b)

    def test_batch_subset_property(self):
        small = emergence_limit_draws(0.4, draws=30, seed=3)
        large = emergence_limit_draws(0.4, draws=50, seed=3)
        assert np.array_equal(small.values, large.values[:30])

    def test_symmetric_about_zero(self, emergence_draws):
        values = emergence_draws[0].values
        se = values.std() / math.sqrt(values.size)
        assert abs(values.mean()) <= 2.0 * se

    def test_grid_refinement_total_variation(self, emergence_draws):
        base, half = emergence_draws
        assert tv_distance(base.values, half.values) <= 0.05

    def test_grid_refinement_quantiles(self, emergence_draws):
        base, half = emergence_draws
        assert_quantiles_stable(base.values, half.values)

    def test_rejects_tau_outside_unit_interval(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ConfigError):
                emergence_limit_draws(bad, draws=5)

    @pytest.mark.parametrize("draws", [0, -1])
    def test_rejects_nonpositive_draws(self, draws):
        with pytest.raises(ConfigError):
            emergence_limit_draws(0.4, draws=draws)

    def test_rejections_reported(self, emergence_draws):
        base, _ = emergence_draws
        assert base.values.shape == (N_DRAWS,)
        assert base.rejections >= 0
