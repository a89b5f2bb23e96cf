"""Independent verification of every closed form by sampling and quadrature.

Nothing in here reuses the optimizer's algebra: outage probabilities are
estimated by sampling the receiver location error, the warden's average error
rate by sampling the warden location error through the threshold analysis
(cross-checked on a sample subset against the minimum over a threshold grid,
which the shape of the error-rate sum lets three grid points per sample find
exactly), the distance-statistic distribution through scipy's noncentral
chi-square CDF (``scipy.special.chndtr``), and the covertness bound through
adaptive quadrature of the statistic's exact density in its closed Bessel
form.

Sampling uses the counter-based Philox generator keyed by (seed, stream), so
reports are reproducible across platforms and shards are independent;
reductions are plain numpy pairwise sums over fixed shard boundaries, hence
order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import chndtr, i0e, ndtr

from .detection import DetectionModel, g_of, min_total_error, g_upper
from .scenario import ScenarioConfig
from .sca import Plan

_SHARD = 1 << 18  # samples per shard
# A threshold-grid sample with e h / noise_high^2 < _FLAT_RISE (1 + rho^2) is
# minimized over the whole grid: its rise per grid step h past the optimal
# threshold (that quantity over 2 ln rho) is then within a few hundred rounding
# errors of the error-rate sum, about eps (1 + rho^2) / (2 ln rho). Mismatches
# against the full grid start below 1e-15.
_FLAT_RISE = 1e-13


@dataclass(frozen=True)
class McSettings:
    num_samples: int = 1_000_000
    rng_seed: int = 20240
    confidence: float = 0.99

    def __post_init__(self):
        if self.num_samples < 1_000:
            raise ValueError("num_samples must be at least 1000")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")

    @property
    def z_value(self) -> float:
        # two-sided normal quantile via bisection on ndtr (avoids scipy.stats)
        target = 0.5 * (1.0 + self.confidence)
        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if ndtr(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def wilson_interval(successes: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        return 0.0, 1.0
    p_hat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt((p_hat * (1.0 - p_hat) + z2 / (4.0 * n)) / n) / denom
    return max(0.0, center - half), min(1.0, center + half)


def ks_gaussian_approx(lam: float, grid_points: int = 10_000) -> float:
    """KS distance between the exact distance-statistic CDF and its
    moment-matched normal approximation, on a dense grid."""
    mean = lam + 2.0
    sd = math.sqrt(4.0 * lam + 4.0)
    lo = max(0.0, mean - 8.0 * sd)
    hi = mean + 8.0 * sd
    grid = np.linspace(lo, hi, grid_points)  # x >= 0, where chndtr is defined
    exact = chndtr(grid, 2.0, lam)
    gauss = ndtr((grid - mean) / sd)
    return float(np.max(np.abs(exact - gauss)))


# ---------------------------------------------------------------------------
# quadrature oracle for the average warden-error kernel
# ---------------------------------------------------------------------------

def mean_g_quadrature(lam: float, p: float, model: DetectionModel) -> float:
    """E[g(X)] by adaptive quadrature of the exact density.

    The integrand is g_of times the closed form of ``nc_chi2_pdf``, written
    out on scalars with its constants hoisted. quad calls it once per node,
    about 100 000 times over the criterion-6 grid, and through the two
    broadcasting functions that grid took 1.1 s instead of 0.14 s.
    """
    if p == 0.0:
        return 0.0
    bp, h2, s = model.beta1 * p, model.h2_over_var, math.sqrt(lam)

    def integrand(x):  # quad's nodes are interior, so x > 0
        r = math.sqrt(x)
        d = (x - lam) / (r + s)
        return math.log1p(bp / (x + h2)) * 0.5 * math.exp(-0.5 * d * d) * i0e(r * s)

    hi = lam + 2.0 + 60.0 * math.sqrt(lam + 1.0)
    val, _ = integrate.quad(integrand, 0.0, hi, limit=400, epsabs=1e-10, epsrel=1e-10)
    return float(val)


def xi_bar_quadrature(lam: float, p: float, model: DetectionModel) -> float:
    """Average minimum total error rate by quadrature (the exact counterpart
    of the closed-form lower bound)."""
    return 1.0 - mean_g_quadrature(lam, p, model) / model.two_ln_rho


# ---------------------------------------------------------------------------
# Monte Carlo estimates
# ---------------------------------------------------------------------------

def empirical_outage(plan: Plan, cfg: ScenarioConfig, mc: McSettings):
    """Per-slot outage probability estimate with Wilson intervals.

    Samples the receiver location error and counts realized-rate shortfalls
    against the planned rate. Returns (p_hat, ci) with ci of shape (N, 2).
    """
    n = len(plan.trajectory)
    z = mc.z_value
    eps = math.sqrt(cfg.var_bob)
    h2 = cfg.altitude_H**2
    p_hat = np.empty(n)
    ci = np.empty((n, 2))
    for i in range(n):
        q = plan.trajectory.waypoints[i]
        p_i = plan.power.powers[i]
        r_i = plan.rates.rates[i]
        gen = _rng(mc.rng_seed, 2 * i)
        count = 0
        left = mc.num_samples
        while left > 0:
            take = min(_SHARD, left)
            e_b = gen.normal(0.0, eps, size=(take, 2))
            d = q - cfg.bob_est - e_b
            snr = p_i * cfg.gamma0 / (np.sum(d * d, axis=1) + h2)
            count += int(np.count_nonzero(np.log2(1.0 + snr) < r_i))
            left -= take
        p_hat[i] = count / mc.num_samples
        ci[i] = wilson_interval(count, mc.num_samples, z)
    return p_hat, ci


def empirical_willie_error(plan: Plan, cfg: ScenarioConfig, mc: McSettings,
                           grid_check_fraction: float = 0.01,
                           grid_points: int = 1000):
    """Per-slot mean minimum total error rate at the warden, sampled over the
    warden's location error.

    A threshold grid re-derives the per-sample minimum on a fraction of the
    samples; the worst closed-form excess over the grid minimum is returned
    as a cross-check statistic (the closed form can only be below the grid by
    resolution, never above).
    """
    model = DetectionModel.from_config(cfg)
    n = len(plan.trajectory)
    z = mc.z_value
    eps = math.sqrt(cfg.var_willie)
    h2 = cfg.altitude_H**2
    mean_xi = np.empty(n)
    ci = np.empty((n, 2))
    worst_excess = 0.0
    for i in range(n):
        q = plan.trajectory.waypoints[i]
        p_i = plan.power.powers[i]
        gen = _rng(mc.rng_seed, 2 * i + 1)
        total = 0.0
        total_sq = 0.0
        checked = False
        left = mc.num_samples
        while left > 0:
            take = min(_SHARD, left)
            e_w = gen.normal(0.0, eps, size=(take, 2))
            d = q - cfg.willie_est - e_w
            ew_pow = cfg.beta0 * p_i / (np.sum(d * d, axis=1) + h2)
            _, xi = min_total_error(ew_pow, model)
            total += float(np.sum(xi))
            total_sq += float(np.sum(xi * xi))
            if not checked and grid_check_fraction > 0.0:
                k = min(take, max(1, int(mc.num_samples * grid_check_fraction)))
                worst_excess = max(
                    worst_excess,
                    _threshold_grid_excess(ew_pow[:k], xi[:k], model, grid_points),
                )
                checked = True
            left -= take
        m = total / mc.num_samples
        var = max(total_sq / mc.num_samples - m * m, 0.0)
        half = z * math.sqrt(var / mc.num_samples)
        mean_xi[i] = m
        ci[i] = (m - half, m + half)
    return mean_xi, ci, worst_excess


def _threshold_grid_excess(ew_pow: np.ndarray, xi_closed: np.ndarray,
                           model: DetectionModel, grid_points: int) -> float:
    """max over samples of (closed-form xi) - (grid-minimized xi).

    The closed form is the true minimum, so the grid can never genuinely beat
    it: positive values flag an error in the closed form. One threshold grid
    spans all samples; denser thresholds only lower the grid minimum, which
    makes the check stricter, not looser.

    The grid minimum is found from three grid points per sample. In the
    threshold t, false_alarm(t) + miss_detection(t, e) is 1 below noise_low
    and then falls as ln(noise_high / t) / (2 ln rho) up to t* = e + noise_low
    (for a detectable sample, e + noise_low >= noise_high, it reaches 0 at
    noise_high and stays there). From t* on it rises: as
    1 + ln(1 - e / t) / (2 ln rho) up to noise_high, then along the miss ramp
    to 1 at e + noise_high, and it is exactly 1 beyond. With rho = 1 it is a
    1/0/1 step around the same t*. So the minimum sits at the last grid point
    below t* or the first at or above it (miss_detection switches to its ramp
    at t* itself, so a grid point equal to t* belongs to the rising side).
    Rounding breaks this shape in two places, and both are covered:

    - at the top of the miss ramp the sum may round to just above 1, where
      the exact 1 beyond e + noise_high takes over, so the first grid point
      past e + noise_high is the third candidate;
    - the rise past t* is at least e h / (noise_high^2 2 ln rho) per grid
      step h; where that is within rounding of the separately rounded sum
      (e = 0 makes it flat across the whole noise support), rounding decides
      which grid point is lowest, and those samples get the whole grid.

    The result is the full-grid minimum to the last bit.
    """
    from .detection import false_alarm, miss_detection

    lo = model.noise_low
    hi = float(np.max(ew_pow)) + model.noise_high
    grid = np.linspace(lo, hi, grid_points)
    below = np.searchsorted(grid, ew_pow + lo, "left") - 1
    past = np.searchsorted(grid, ew_pow + model.noise_high, "right")
    t = grid[np.clip(np.stack([below, below + 1, past]), 0, grid_points - 1)]
    grid_min = np.min(false_alarm(t, model) + miss_detection(t, ew_pow, model), axis=0)
    h = (hi - lo) / max(grid_points - 1, 1)
    flat = np.flatnonzero(
        ew_pow * h < _FLAT_RISE * (1.0 + model.rho**2) * model.noise_high**2)
    if flat.size:
        fa = false_alarm(grid, model)
        step = max(1, int(2_000_000 / grid_points))
        for i in range(0, flat.size, step):
            rows = flat[i:i + step]
            tot = fa[None, :] + miss_detection(grid[None, :], ew_pow[rows, None], model)
            grid_min[rows] = tot.min(axis=1)
    return float(np.max(xi_closed - grid_min))


# ---------------------------------------------------------------------------
# analytic-bound audit
# ---------------------------------------------------------------------------

@dataclass
class BoundAuditRow:
    lam: float
    p: float
    mean_g: float          # quadrature value of E[g(X)]
    bound_mean_mad: float  # mean/MAD two-point bound
    bound_final: float     # simplified bound used by the optimizer
    xi_bar: float
    xi_check: float

    @property
    def ordered(self) -> bool:
        tol = 1e-9 * max(1.0, abs(self.bound_final))
        return (self.mean_g <= self.bound_mean_mad + tol
                and self.bound_mean_mad <= self.bound_final + tol)


@dataclass
class BoundAuditReport:
    rows: list
    violations: list  # (lam, p, description), empty when every bound held

    @property
    def passed(self) -> bool:
        return not self.violations


def bound_audit(cfg: ScenarioConfig, lam_grid, p_grid) -> BoundAuditReport:
    """Check the chain: quadrature E[g] <= mean/MAD bound <= final bound,
    equivalently xi_bar >= xi_check, over a (lambda, power) grid.

    Grid points that violate a bound are listed, not asserted away.
    """
    model = DetectionModel.from_config(cfg)
    rows: list[BoundAuditRow] = []
    violations: list[tuple] = []
    for lam in np.asarray(lam_grid, dtype=float):
        mu = lam + 2.0
        theta = 2.0 * math.sqrt(2.0 / math.pi) * math.sqrt(lam + 1.0)
        for p in np.asarray(p_grid, dtype=float):
            eg = mean_g_quadrature(lam, p, model)
            g_mu = float(g_of(mu, p, model))
            g_0 = float(g_of(0.0, p, model))
            # two-point bound with the limit term of g vanishing at infinity
            bound_b = g_mu + 0.5 * theta * (0.0 + (g_0 - g_mu) / mu)
            bound_c = float(g_upper(lam, p, model))
            xi_bar = 1.0 - eg / model.two_ln_rho
            xi_check = 1.0 - bound_c / model.two_ln_rho
            row = BoundAuditRow(float(lam), float(p), eg, bound_b, bound_c,
                                xi_bar, xi_check)
            rows.append(row)
            if not row.ordered:
                violations.append((float(lam), float(p), "bound chain broken"))
            if xi_bar < xi_check - 1e-9:
                violations.append((float(lam), float(p), "xi_bar below xi_check"))
    return BoundAuditReport(rows=rows, violations=violations)


# ---------------------------------------------------------------------------
# plan-level validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    outage: np.ndarray          # per-slot empirical outage probability
    outage_ci: np.ndarray       # (N, 2) Wilson intervals
    outage_ok: bool             # all slots within the allowed outage
    xi_bar: np.ndarray          # per-slot empirical mean warden error rate
    xi_bar_ci: np.ndarray       # (N, 2) normal intervals
    xi_check: np.ndarray        # per-slot analytic lower bound
    covert_ok: bool             # all slots at or above 1 - rho_w
    bound_ok: bool              # empirical mean never below the analytic bound
    threshold_grid_excess: float
    ks_stats: dict
    seed: int
    num_samples: int

    @property
    def passed(self) -> bool:
        return self.outage_ok and self.covert_ok and self.bound_ok

    def to_dict(self) -> dict:
        return {
            "num_samples": self.num_samples,
            "rng_seed": self.seed,
            "outage_probability": self.outage.tolist(),
            "outage_wilson_ci": self.outage_ci.tolist(),
            "outage_ok": bool(self.outage_ok),
            "willie_error_mean": self.xi_bar.tolist(),
            "willie_error_ci": self.xi_bar_ci.tolist(),
            "xi_lower_bound": self.xi_check.tolist(),
            "covert_ok": bool(self.covert_ok),
            "bound_ok": bool(self.bound_ok),
            "threshold_grid_excess": self.threshold_grid_excess,
            "ks_stats": self.ks_stats,
            "passed": bool(self.passed),
        }


def validate_plan(plan: Plan, cfg: ScenarioConfig,
                  mc: McSettings | None = None) -> ValidationReport:
    """Monte Carlo audit of a plan against the chance and covertness targets."""
    mc = mc or McSettings()
    if len(plan.trajectory) != cfg.num_slots_N:
        raise ValueError(
            f"plan has {len(plan.trajectory)} slots, scenario expects {cfg.num_slots_N}"
        )
    outage, outage_ci = empirical_outage(plan, cfg, mc)
    xi_bar, xi_ci, grid_excess = empirical_willie_error(plan, cfg, mc)
    # MC noise allowance: three standard errors on a bounded variable
    se = np.maximum(xi_ci[:, 1] - xi_bar, 1e-12) / mc.z_value
    outage_ok = bool(np.all(outage <= cfg.rho_b + 1e-12))
    covert_ok = bool(np.all(xi_bar >= (1.0 - cfg.rho_w) - 3.0 * se))
    bound_ok = bool(np.all(xi_bar >= plan.xi_lb - 3.0 * se))
    lam_lo = float(np.min(plan.lam))
    lam_med = float(np.median(plan.lam))
    ks_stats = {
        "lambda_min": lam_lo,
        "ks_at_lambda_min": ks_gaussian_approx(lam_lo),
        "lambda_median": lam_med,
        "ks_at_lambda_median": ks_gaussian_approx(lam_med),
    }
    return ValidationReport(
        outage=outage, outage_ci=outage_ci, outage_ok=outage_ok,
        xi_bar=xi_bar, xi_bar_ci=xi_ci, xi_check=plan.xi_lb,
        covert_ok=covert_ok, bound_ok=bound_ok,
        threshold_grid_excess=grid_excess, ks_stats=ks_stats,
        seed=mc.rng_seed, num_samples=mc.num_samples,
    )
