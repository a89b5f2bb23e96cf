"""The scipy oracles against brute-force sampling on a four-slot scenario.

Run from the repository root:  python3 -m pytest -q bench/test_oracles.py
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtr

import oracles

N_SAMPLES = 400_000
Z = 5.0  # sampling tolerance in standard errors


@pytest.fixture
def cfg():
    return SimpleNamespace(
        altitude_H=100.0, var_bob=25.0, var_willie=25.0,
        bob_est=np.array([20.0, 30.0]), willie_est=np.array([-20.0, 30.0]),
        beta0=1e-6, gamma0=1e8, noise_nominal=1e-15,
        noise_uncertainty_rho=10.0 ** 0.3, rho_b=0.05, rho_w=0.05,
    )


@pytest.fixture
def slots():
    w = np.array([[2.5, 0.0], [5.0, 10.0], [7.5, 25.0], [20.0, 30.0]])
    p = np.array([0.05, 0.1, 0.2, 0.3])
    return w, p


def test_exact_outage_matches_sampling(cfg, slots):
    w, p = slots
    rng = np.random.default_rng(1)
    dist2 = np.sum((w - cfg.bob_est) ** 2, axis=1)
    # rate thresholds around the mean squared distance, so that the outage
    # probabilities spread over (0.01, 0.99)
    d_th = (dist2 + 2.0 * cfg.var_bob) * np.array([1.5, 1.2, 1.0, 0.6])
    rates = np.log2(1.0 + p * cfg.gamma0 / (d_th + cfg.altitude_H**2))
    exact = oracles.exact_outage(w, p, rates, cfg)
    for i in range(len(w)):
        e = rng.normal(0.0, math.sqrt(cfg.var_bob), size=(N_SAMPLES, 2))
        d = w[i] - cfg.bob_est - e
        snr = p[i] * cfg.gamma0 / (np.sum(d * d, axis=1) + cfg.altitude_H**2)
        p_hat = np.mean(np.log2(1.0 + snr) < rates[i])
        se = math.sqrt(exact[i] * (1.0 - exact[i]) / N_SAMPLES)
        assert abs(p_hat - exact[i]) <= Z * se + 1e-6, (i, p_hat, exact[i])
    assert 0.01 < exact.min() and exact.max() < 0.99


def test_exact_outage_is_certain_when_the_rate_is_unreachable(cfg, slots):
    w, p = slots
    rates = np.log2(1.0 + p * cfg.gamma0 / cfg.altitude_H**2) + 1.0
    assert np.all(oracles.exact_outage(w, p, rates, cfg) == 1.0)


def _threshold_grid_minimum(e_w, cfg, points=20_001):
    """min over thresholds of false alarm + miss detection, by brute force."""
    rho, s2 = cfg.noise_uncertainty_rho, cfg.noise_nominal
    t = np.linspace(s2 / rho, e_w + rho * s2, points)
    # noise power is log-uniform on [s2/rho, rho s2]
    fa = np.clip(np.log(rho * s2 / t) / (2.0 * math.log(rho)), 0.0, 1.0)
    md = np.clip(np.log(np.maximum(t - e_w, 1e-300) * rho / s2)
                 / (2.0 * math.log(rho)), 0.0, 1.0)
    return float(np.min(fa + md))


@pytest.mark.parametrize("ratio", [1e-3, 0.1, 0.5, 1.2, 3.0])
def test_min_error_rate_matches_threshold_grid(cfg, ratio):
    e_w = ratio * cfg.noise_nominal
    got = float(oracles._min_error_rate(np.array(e_w), cfg))
    assert got == pytest.approx(_threshold_grid_minimum(e_w, cfg), abs=2e-4)


def test_mean_warden_error_matches_sampling(cfg, slots):
    w, p = slots
    rng = np.random.default_rng(2)
    for i in range(len(w)):
        e = rng.normal(0.0, math.sqrt(cfg.var_willie), size=(N_SAMPLES, 2))
        d = w[i] - cfg.willie_est - e
        e_w = cfg.beta0 * p[i] / (np.sum(d * d, axis=1) + cfg.altitude_H**2)
        xi = oracles._min_error_rate(e_w, cfg)
        want = oracles.mean_warden_error(w[i], float(p[i]), cfg)
        se = float(np.std(xi)) / math.sqrt(N_SAMPLES)
        assert abs(float(np.mean(xi)) - want) <= Z * se + 1e-9, (i, np.mean(xi), want)


def test_mean_warden_error_of_a_silent_slot_is_one(cfg, slots):
    assert oracles.mean_warden_error(slots[0][0], 0.0, cfg) == 1.0


def test_ks_distance_matches_sampled_cdf():
    lam = 4.0
    rng = np.random.default_rng(3)
    x = np.sum((rng.normal(size=(N_SAMPLES, 2)) + [math.sqrt(lam), 0.0]) ** 2, axis=1)
    mean, sd = lam + 2.0, math.sqrt(4.0 * lam + 4.0)
    grid = np.linspace(max(0.0, mean - 8.0 * sd), mean + 8.0 * sd, 10_000)
    emp = np.searchsorted(np.sort(x), grid, side="right") / N_SAMPLES
    ks_emp = float(np.max(np.abs(emp - ndtr((grid - mean) / sd))))
    # Dvoretzky-Kiefer-Wolfowitz: the empirical CDF is within eps of the
    # true one everywhere with probability 1 - 2 exp(-2 n eps^2)
    eps = math.sqrt(math.log(2.0 / 1e-9) / (2.0 * N_SAMPLES))
    assert abs(ks_emp - oracles.ks_normal_vs_ncx2(lam)) <= eps
    assert oracles.ks_normal_vs_ncx2(lam) > 5.0 * eps


def test_bonferroni_z():
    assert oracles.bonferroni_z(0.05, 1) == pytest.approx(1.959964, abs=1e-6)
    assert oracles.bonferroni_z(0.05, 100) > oracles.bonferroni_z(0.05, 10)
