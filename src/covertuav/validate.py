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

Sampling uses the counter-based Philox generator keyed by (seed, stream), one
stream per slot and estimator, so reports are reproducible across platforms
and slots are independent; reductions are plain numpy pairwise sums over
fixed shard boundaries, hence order-independent. The slots are split into
contiguous chunks, one per thread of a pool that lives for one
``validate_plan`` call (``McSettings.workers``); the Philox fills and the
ufunc loops release the GIL, and a report is byte-identical for any worker
count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import chndtr, i0e, ndtr, ndtri

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
CONFIDENCE_LEVEL = 0.99  # two-sided level of every Monte Carlo interval
KS_GRID_POINTS = 10_000  # grid of ks_gaussian_approx
GRID_CHECK_FRACTION = 0.01  # share of each slot's warden samples the threshold grid re-checks
GRID_POINTS = 1000  # thresholds in that grid


@dataclass(frozen=True)
class McSettings:
    num_samples: int = 1_000_000
    rng_seed: int = 20240
    workers: int = 0  # audit threads; 0 means one per CPU this process may use

    def __post_init__(self):
        if self.num_samples < 1_000:
            raise ValueError("num_samples must be at least 1000")
        if self.workers < 0:
            raise ValueError("workers must be 0 (one per usable CPU) or positive")

    def threads(self, num_slots: int) -> int:
        """Threads for an audit of num_slots slots: at most one per slot."""
        k = self.workers or (len(os.sched_getaffinity(0))
                             if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        return max(1, min(k, num_slots))

    @property
    def z_value(self) -> float:
        """Two-sided normal quantile at CONFIDENCE_LEVEL."""
        return float(ndtri(0.5 * (1.0 + CONFIDENCE_LEVEL)))


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


def ks_gaussian_approx(lam: float) -> float:
    """KS distance between the exact distance-statistic CDF and its
    moment-matched normal approximation, on a dense grid."""
    mean = lam + 2.0
    sd = math.sqrt(4.0 * lam + 4.0)
    lo = max(0.0, mean - 8.0 * sd)
    hi = mean + 8.0 * sd
    grid = np.linspace(lo, hi, KS_GRID_POINTS)  # x >= 0, where chndtr is defined
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

class _SlotKernel:
    """One thread's buffers for the per-slot sampling, reused by every shard
    of every slot the thread runs. Each slot's samples come from its own
    Philox stream, so which thread runs a slot does not change a bit."""

    def __init__(self, num_samples: int):
        size = min(_SHARD, num_samples)
        self.num_samples = num_samples
        self.e = np.empty((size, 2))
        self.dx = np.empty(size)
        self.dy = np.empty(size)
        self.mask = np.empty(size, dtype=bool)

    def shards(self, gen: np.random.Generator, eps: float, c: np.ndarray, h2: float):
        """Yield, shard by shard, |c - e|^2 + h2 for location errors
        e ~ N(0, eps^2 I) drawn from gen, in a buffer the caller may overwrite
        until the next shard.

        The arithmetic is the row-wise ``np.sum((c - e)**2, axis=1) + h2`` of
        ``gen.normal(0.0, eps, (take, 2))`` draws, bit for bit, done column-wise
        and in place.
        """
        left = self.num_samples
        while left > 0:
            take = min(_SHARD, left)
            e, dx, dy = self.e[:take], self.dx[:take], self.dy[:take]
            gen.standard_normal(out=e)
            e *= eps
            np.subtract(c[0], e[:, 0], out=dx)
            np.subtract(c[1], e[:, 1], out=dy)
            dx *= dx
            dy *= dy
            dx += dy
            dx += h2
            yield dx
            left -= take


def _run_slots(chunk, n: int, mc: McSettings, pool: ThreadPoolExecutor | None) -> list:
    """Per-slot results in slot order of chunk(lo, hi), run on
    ``mc.threads(n)`` contiguous chunks of the n slots on the pool's threads
    (on a pool of that many threads, joined on return, when None)."""
    workers = mc.threads(n)
    if pool is None:
        with ThreadPoolExecutor(max_workers=workers) as own:
            return _run_slots(chunk, n, mc, own)
    bounds = [n * j // workers for j in range(workers + 1)]
    futures = [pool.submit(chunk, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return [row for f in futures for row in f.result()]


def empirical_outage(plan: Plan, cfg: ScenarioConfig, mc: McSettings, *,
                     pool: ThreadPoolExecutor | None = None):
    """Per-slot outage probability estimate with Wilson intervals.

    Samples the receiver location error and counts realized-rate shortfalls
    against the planned rate. Returns (p_hat, ci) with ci of shape (N, 2).
    The slots run on ``pool`` (``mc.threads(N)`` threads when None).
    """
    n = len(plan.trajectory)
    z = mc.z_value
    eps = math.sqrt(cfg.var_bob)
    h2 = cfg.altitude_H**2
    offsets = plan.trajectory.waypoints - cfg.bob_est

    def chunk(lo, hi):
        kernel = _SlotKernel(mc.num_samples)
        counts = []
        for i in range(lo, hi):
            gain = plan.power.powers[i] * cfg.gamma0
            r_i = plan.rates.rates[i]
            count = 0
            for x in kernel.shards(_rng(mc.rng_seed, 2 * i), eps, offsets[i], h2):
                np.divide(gain, x, out=x)
                x += 1.0
                np.log2(x, out=x)
                count += int(np.count_nonzero(np.less(x, r_i, out=kernel.mask[:x.size])))
            counts.append(count)
        return counts

    counts = _run_slots(chunk, n, mc, pool)
    p_hat = np.empty(n)
    ci = np.empty((n, 2))
    for i, count in enumerate(counts):
        p_hat[i] = count / mc.num_samples
        ci[i] = wilson_interval(count, mc.num_samples, z)
    return p_hat, ci


def empirical_willie_error(plan: Plan, cfg: ScenarioConfig, mc: McSettings, *,
                           pool: ThreadPoolExecutor | None = None):
    """Per-slot mean minimum total error rate at the warden, sampled over the
    warden's location error.

    A threshold grid of GRID_POINTS thresholds re-derives the per-sample
    minimum on the first GRID_CHECK_FRACTION of each slot's samples; the
    worst closed-form excess over the grid minimum is returned as a
    cross-check statistic (the closed form can only be below the grid by
    resolution, never above). The slots run on ``pool`` (``mc.threads(N)``
    threads when None).
    """
    model = DetectionModel.from_config(cfg)
    n = len(plan.trajectory)
    z = mc.z_value
    eps = math.sqrt(cfg.var_willie)
    h2 = cfg.altitude_H**2
    offsets = plan.trajectory.waypoints - cfg.willie_est
    n_checked = min(_SHARD, mc.num_samples,
                    max(1, int(mc.num_samples * GRID_CHECK_FRACTION)))

    def chunk(lo, hi):
        kernel = _SlotKernel(mc.num_samples)
        rows = []
        for i in range(lo, hi):
            gain = cfg.beta0 * plan.power.powers[i]
            total = 0.0
            total_sq = 0.0
            shards = kernel.shards(_rng(mc.rng_seed, 2 * i + 1), eps, offsets[i], h2)
            for s, ew_pow in enumerate(shards):
                np.divide(gain, ew_pow, out=ew_pow)
                _, xi = min_total_error(ew_pow, model)
                total += float(np.sum(xi))
                if s == 0:
                    excess = _threshold_grid_excess(ew_pow[:n_checked], xi[:n_checked],
                                                    model, GRID_POINTS)
                xi *= xi
                total_sq += float(np.sum(xi))
            rows.append((total, total_sq, excess))
        return rows

    rows = _run_slots(chunk, n, mc, pool)
    mean_xi = np.empty(n)
    ci = np.empty((n, 2))
    for i, (total, total_sq, _) in enumerate(rows):
        m = total / mc.num_samples
        var = max(total_sq / mc.num_samples - m * m, 0.0)
        half = z * math.sqrt(var / mc.num_samples)
        mean_xi[i] = m
        ci[i] = (m - half, m + half)
    # max folds left to right in slot order, so the worker count cannot
    # change which of two equal or unordered (NaN) values is kept
    worst_excess = max([0.0] + [excess for _, _, excess in rows])
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
    to 1 at e + noise_high, and it is exactly 1 beyond. So the minimum sits
    at the last grid point below t* or the first at or above it
    (miss_detection switches to its ramp at t* itself, so a grid point equal
    to t* belongs to the rising side).
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
    lam_lo = float(np.min(plan.lam))
    lam_med = float(np.median(plan.lam))
    with ThreadPoolExecutor(max_workers=mc.threads(len(plan.trajectory))) as pool:
        outage, outage_ci = empirical_outage(plan, cfg, mc, pool=pool)
        xi_bar, xi_ci, grid_excess = empirical_willie_error(plan, cfg, mc, pool=pool)
        ks_lo, ks_med = pool.map(ks_gaussian_approx, (lam_lo, lam_med))
    # MC noise allowance: three standard errors on a bounded variable
    se = np.maximum(xi_ci[:, 1] - xi_bar, 1e-12) / mc.z_value
    outage_ok = bool(np.all(outage <= cfg.rho_b + 1e-12))
    covert_ok = bool(np.all(xi_bar >= (1.0 - cfg.rho_w) - 3.0 * se))
    bound_ok = bool(np.all(xi_bar >= plan.xi_lb - 3.0 * se))
    ks_stats = {
        "lambda_min": lam_lo,
        "ks_at_lambda_min": ks_lo,
        "lambda_median": lam_med,
        "ks_at_lambda_median": ks_med,
    }
    return ValidationReport(
        outage=outage, outage_ci=outage_ci, outage_ok=outage_ok,
        xi_bar=xi_bar, xi_bar_ci=xi_ci, xi_check=plan.xi_lb,
        covert_ok=covert_ok, bound_ok=bound_ok,
        threshold_grid_excess=grid_excess, ks_stats=ks_stats,
        seed=mc.rng_seed, num_samples=mc.num_samples,
    )
