"""Independent correctness oracles built on scipy, not on covertuav.validate.

The receiver's scaled squared distance |q - bob_est - e|^2 / var_bob and the
warden's |q - willie_est - e|^2 / var_willie are both noncentral chi-square
with 2 degrees of freedom, so every probability the audit estimates by
sampling has an exact counterpart here:

* per-slot outage is a tail of that distribution at the planned rate
  threshold (``scipy.stats.ncx2.sf``);
* the warden's mean minimum total error rate is a 1-D integral of the
  radiometer's minimum error rate against ``scipy.stats.ncx2.pdf``;
* the Kolmogorov-Smirnov distance of the moment-matched normal is taken
  against ``scipy.stats.ncx2.cdf``.

The error-rate formula is written out from the detection model (threshold at
the signal power plus the lowest noise level) rather than imported.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats
from scipy.special import ndtr


def _ncx2_sf(x, nc):
    x = np.asarray(x, dtype=float)
    nc = np.asarray(nc, dtype=float)
    # scipy's ncx2 is defined for nc > 0; nc == 0 is the central law
    return np.where(nc > 0.0, stats.ncx2.sf(x, 2, np.maximum(nc, 1e-300)),
                    stats.chi2.sf(x, 2))


def exact_outage(waypoints, powers, rates, cfg) -> np.ndarray:
    """Per-slot P(log2(1 + SNR) < planned rate) over the receiver's location error."""
    w = np.asarray(waypoints, dtype=float)
    p = np.asarray(powers, dtype=float)
    r = np.asarray(rates, dtype=float)
    nc = np.sum((w - cfg.bob_est) ** 2, axis=1) / cfg.var_bob
    # SNR = p gamma0 / (D + H^2) falls short iff D > p gamma0 / (2^r - 1) - H^2
    d_th = p * cfg.gamma0 / np.expm1(r * math.log(2.0)) - cfg.altitude_H**2
    out = _ncx2_sf(np.maximum(d_th, 0.0) / cfg.var_bob, nc)
    return np.where(d_th > 0.0, out, 1.0)


def _min_error_rate(e_w, cfg):
    """Warden's minimum total error rate at received signal power e_w."""
    rho, s2 = cfg.noise_uncertainty_rho, cfg.noise_nominal
    lo, hi = s2 / rho, s2 * rho
    xi = np.log(hi / (e_w + lo)) / (2.0 * math.log(rho))
    return np.where(e_w + lo >= hi, 0.0, xi)


def mean_warden_error(waypoint, power, cfg) -> float:
    """Mean minimum total error rate at one slot, by quad over ncx2.pdf."""
    if power == 0.0:
        return 1.0
    var_w, h2 = cfg.var_willie, cfg.altitude_H**2
    lam = float(np.sum((np.asarray(waypoint, dtype=float) - cfg.willie_est) ** 2)) / var_w

    def pdf(x):
        return stats.ncx2.pdf(x, 2, lam) if lam > 0.0 else stats.chi2.pdf(x, 2)

    def integrand(x):
        e_w = cfg.beta0 * power / (var_w * x + h2)
        return float(_min_error_rate(e_w, cfg)) * float(pdf(x))

    mean, sd = lam + 2.0, math.sqrt(4.0 * lam + 4.0)
    lo = max(0.0, mean - 15.0 * sd)
    hi = mean + 20.0 * sd + 60.0
    # the rate is exactly 0 where the warden can place the threshold above all
    # noise, i.e. for distances below x_det; split the range there
    rho, s2 = cfg.noise_uncertainty_rho, cfg.noise_nominal
    x_det = (cfg.beta0 * power / (s2 * (rho - 1.0 / rho)) - h2) / var_w
    points = [x_det] if lo < x_det < hi else None
    val, _ = integrate.quad(integrand, lo, hi, points=points, limit=400,
                            epsabs=1e-11, epsrel=1e-10)
    return float(val)


def mean_log_kernel(lam: float, power: float, cfg) -> float:
    """E[ln(1 + rho e_w / noise)] at noncentrality lam, by quad over ncx2.pdf.

    This is the unclamped kernel whose mean the covertness bound is built on;
    ``covertuav.validate.xi_bar_quadrature`` equals 1 - this / (2 ln rho).
    """
    var_w, h2 = cfg.var_willie, cfg.altitude_H**2
    rho, s2 = cfg.noise_uncertainty_rho, cfg.noise_nominal

    def integrand(x):
        e_w = cfg.beta0 * power / (var_w * x + h2)
        return math.log1p(rho * e_w / s2) * float(stats.ncx2.pdf(x, 2, lam))

    mean, sd = lam + 2.0, math.sqrt(4.0 * lam + 4.0)
    val, _ = integrate.quad(integrand, max(0.0, mean - 15.0 * sd),
                            mean + 20.0 * sd + 60.0, limit=400,
                            epsabs=1e-12, epsrel=1e-11)
    return float(val)


def ks_normal_vs_ncx2(lam: float, grid_points: int = 10_000) -> float:
    """KS distance of the moment-matched normal against ncx2.cdf on the grid
    mean +- 8 sd (clipped at 0) that the audit's own KS statistic uses."""
    mean, sd = lam + 2.0, math.sqrt(4.0 * lam + 4.0)
    grid = np.linspace(max(0.0, mean - 8.0 * sd), mean + 8.0 * sd, grid_points)
    exact = stats.ncx2.cdf(grid, 2, lam) if lam > 0.0 else stats.chi2.cdf(grid, 2)
    return float(np.max(np.abs(exact - ndtr((grid - mean) / sd))))


def bonferroni_z(alpha: float, comparisons: int) -> float:
    """Two-sided normal quantile keeping the family-wise error below alpha."""
    return float(stats.norm.isf(0.5 * alpha / max(comparisons, 1)))
