import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import chndtr

from covertuav import validate
from covertuav.convexify import exact_feasibility
from covertuav.detection import (
    DetectionModel,
    false_alarm,
    g_of,
    g_upper,
    lambda_of,
    min_total_error,
    miss_detection,
    xi_lower_bound,
)
from covertuav.scenario import PowerSchedule, RateSchedule, Trajectory, baseline_config
from covertuav.sca import Plan, run_jtp, run_stp
from covertuav.validate import (
    _SHARD,
    GRID_CHECK_FRACTION,
    GRID_POINTS,
    McSettings,
    ValidationReport,
    _rng,
    _threshold_grid_excess,
    empirical_outage,
    empirical_willie_error,
    ks_gaussian_approx,
    mean_g_quadrature,
    validate_plan,
    wilson_interval,
    xi_bar_quadrature,
)


def make_plan(cfg, waypoints, powers, rates):
    traj = Trajectory(np.asarray(waypoints, dtype=float))
    p = PowerSchedule(np.asarray(powers, dtype=float))
    r = RateSchedule(np.asarray(rates, dtype=float))
    m = exact_feasibility(traj, p, r, cfg)
    return Plan(
        trajectory=traj, power=p, rates=r, actr=r.mean,
        lam=m["lambda"], xi_lb=m["xi_lower_bound"],
        outage_margin=m["outage"], covert_margin=m["covertness"],
        feasible=True, status="handmade",
    )


@pytest.fixture(scope="module")
def tiny_cfg():
    # four slots, hovering start/landing point: fast Monte Carlo targets
    return baseline_config(
        flight_period_T=4.0, q_init=(-100.0, 200.0), q_final=(-100.0, 200.0),
        bob_est=(-100.0, 300.0), willie_est=(100.0, 300.0),
    )


class TestCdfOracle:
    """The KS statistic's exact CDF is scipy.special.chndtr; these pin its
    accuracy against scipy.stats.ncx2 on the statistic's range of lam."""

    @pytest.mark.parametrize("lam", [0.0, 3.0, 100.0, 1600.0])
    def test_matches_reference_distribution(self, lam):
        x = np.linspace(0.01, lam + 2 + 30 * math.sqrt(lam + 1), 400)
        ref = stats.ncx2.cdf(x, 2, lam) if lam > 0 else stats.chi2.cdf(x, 2)
        assert np.max(np.abs(chndtr(x, 2.0, lam) - ref)) < 1e-12

    def test_matches_reference_at_top_of_criterion6_grid(self):
        lam = 5000.0
        x = np.linspace(0.01, lam + 2 + 30 * math.sqrt(lam + 1), 400)
        assert np.max(np.abs(chndtr(x, 2.0, lam) - stats.ncx2.cdf(x, 2, lam))) < 5e-12

    def test_monotone_and_bounded(self, rng):
        x = np.sort(rng.uniform(0, 3000, 300))
        f = chndtr(x, 2.0, 800.0)
        assert np.all(np.diff(f) >= -1e-15)
        assert f.min() >= 0.0 and f.max() <= 1.0


class TestKsStatistic:
    def test_large_noncentrality_is_gaussian(self):
        assert ks_gaussian_approx(100.0) < 0.02
        assert ks_gaussian_approx(1600.0) < 0.005

    def test_values_pinned(self):
        # the KS statistics validate_plan reports, pinned to 1e-12
        assert ks_gaussian_approx(100.0) == pytest.approx(0.01982534023083915, abs=1e-12)
        assert ks_gaussian_approx(1600.0) == pytest.approx(0.00498486069959464, abs=1e-12)

    def test_memory_bounded_at_top_of_criterion6_grid(self):
        tracemalloc.start()
        try:
            ks_gaussian_approx(5000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_central_case_documented_poor(self):
        # at zero noncentrality the statistic is exponential and the normal
        # approximation is bad; the value is reported, not relied on
        assert ks_gaussian_approx(0.0) > 0.1


class TestWilson:
    def test_interval_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 1000, 2.5758)
        assert lo < 0.037 < hi

    def test_coverage_against_analytic_outage(self, tiny_cfg):
        # analytic per-slot outage from the distance-statistic CDF; Wilson
        # intervals at 99% must cover it in nearly all repeated experiments
        cfg = tiny_cfg
        q = np.array([-60.0, 260.0])
        p = 1e-6
        lam_b = float(np.sum((q - cfg.bob_est) ** 2)) / cfg.var_bob
        # rate pitched at the mean realized distance: outage near one half
        r = math.log2(1.0 + p * cfg.gamma0
                      / (cfg.var_bob * (lam_b + 2.0) + cfg.altitude_H**2))
        thr = p * cfg.gamma0 / (2.0**r - 1.0) - cfg.altitude_H**2
        analytic = 1.0 - float(chndtr(max(thr / cfg.var_bob, 0.0), 2.0, lam_b))
        assert 0.05 < analytic < 0.95
        rng = np.random.default_rng(99)
        n, z, covered, trials = 2000, 2.5758, 0, 400
        eps = math.sqrt(cfg.var_bob)
        for _ in range(trials):
            e_b = rng.normal(0.0, eps, size=(n, 2))
            d = q - cfg.bob_est - e_b
            snr = p * cfg.gamma0 / (np.sum(d * d, axis=1) + cfg.altitude_H**2)
            k = int(np.count_nonzero(np.log2(1.0 + snr) < r))
            lo, hi = wilson_interval(k, n, z)
            covered += int(lo <= analytic <= hi)
        assert covered / trials >= 0.97


class TestEmpiricalOutage:
    def test_floor_rate_never_out(self, tiny_cfg):
        plan = make_plan(
            tiny_cfg, [tiny_cfg.bob_est] * 4, [1e-6] * 4, [1e-6] * 4)
        p_hat, ci = empirical_outage(plan, tiny_cfg, McSettings(num_samples=20_000))
        assert np.all(p_hat < 1e-3)
        assert ci.shape == (4, 2)

    def test_nominal_rate_matches_cdf_oracle(self, tiny_cfg):
        # rate pinned at the zero-error channel: outage equals the chance the
        # realized distance beats the nominal one
        cfg = tiny_cfg
        q = np.array([-60.0, 260.0])
        p = 1e-6
        d2 = float(np.sum((q - cfg.bob_est) ** 2))
        r = math.log2(1.0 + p * cfg.gamma0 / (d2 + cfg.altitude_H**2))
        lam_b = d2 / cfg.var_bob
        analytic = 1.0 - float(chndtr(lam_b, 2.0, lam_b))
        plan = make_plan(cfg, [q] * 4, [p] * 4, [r] * 4)
        mc = McSettings(num_samples=200_000)
        p_hat, ci = empirical_outage(plan, cfg, mc)
        se = math.sqrt(analytic * (1 - analytic) / mc.num_samples)
        assert np.all(np.abs(p_hat - analytic) < 5 * se + 1e-4)


class TestEmpiricalWillieError:
    def test_silent_transmitter_is_fully_covert(self, tiny_cfg):
        plan = make_plan(
            tiny_cfg, [tiny_cfg.bob_est] * 4, [0.0] * 4, [1e-6] * 4)
        xi, ci, excess = empirical_willie_error(plan, tiny_cfg,
                                                McSettings(num_samples=5_000))
        assert np.all(xi == 1.0)
        assert excess <= 1e-12

    def test_matches_quadrature_average(self, tiny_cfg):
        cfg = tiny_cfg
        model = DetectionModel.from_config(cfg)
        q = np.array([-100.0, 300.0])
        p = 1.6e-6
        lam = float(lambda_of(q, cfg.willie_est, cfg.var_willie))
        plan = make_plan(cfg, [q] * 4, [p] * 4, [1e-6] * 4)
        mc = McSettings(num_samples=400_000)
        xi, ci, excess = empirical_willie_error(plan, cfg, mc)
        target = xi_bar_quadrature(lam, p, model)
        half = ci[:, 1] - xi
        assert np.all(np.abs(xi - target) <= 1.5 * half + 1e-5)
        # the closed-form minimum never loses to the brute-force grid
        assert excess <= 1e-9

    def test_grid_never_beats_closed_form_by_more_than_resolution(self, tiny_cfg,
                                                                  monkeypatch):
        plan = make_plan(
            tiny_cfg, [tiny_cfg.bob_est] * 4, [2e-6] * 4, [1e-6] * 4)
        monkeypatch.setattr(validate, "GRID_CHECK_FRACTION", 0.2)
        _, _, excess = empirical_willie_error(plan, tiny_cfg, McSettings(num_samples=5_000))
        assert -0.05 <= excess <= 1e-9


def brute_force_grid_excess(ew_pow, xi_closed, model, grid_points):
    """Test oracle: max over samples of the closed-form minimum total error
    less its minimum over every point of the threshold grid."""
    grid = np.linspace(model.noise_low, float(np.max(ew_pow)) + model.noise_high,
                       grid_points)
    tot = false_alarm(grid, model)[None, :] + miss_detection(
        grid[None, :], ew_pow[:, None], model)
    return float(np.max(xi_closed - tot.min(axis=1)))


@st.composite
def grid_check_inputs(draw):
    rho = draw(st.sampled_from([1.0 + 1e-9, 10.0**0.3, 10.0]))
    model = DetectionModel(rho=rho, noise_nominal=1e-15, beta0=1e-6,
                           var_willie=25.0, altitude_H=100.0)
    # coarse grids make the ties below land near the ends of the ramps
    grid_points = draw(st.one_of(st.integers(2, 8), st.integers(2, 2000)))
    # received powers relative to the nominal noise: silent, below rounding,
    # undetectable and detectable (e + noise_low >= noise_high)
    rel = st.one_of(
        st.just(0.0),
        st.floats(0.0, 1e-9),
        st.floats(0.0, 12.0),
        st.floats(1.0, 1e6),
    )
    ew_pow = 1e-15 * np.array(draw(st.lists(rel, min_size=1, max_size=30)))
    # ties: put the optimal threshold e + noise_low, or the top of the miss
    # ramp e + noise_high, on a grid point, exactly or within rounding (the
    # largest power fixes the grid, so it stays as drawn)
    grid = np.linspace(model.noise_low, float(np.max(ew_pow)) + model.noise_high,
                       grid_points)
    top = int(np.argmax(ew_pow))
    for i in draw(st.lists(st.integers(0, ew_pow.size - 1), max_size=10)):
        edge = draw(st.sampled_from([model.noise_low, model.noise_high]))
        e = grid[draw(st.integers(0, grid_points - 1))] - edge
        if i != top and 0.0 <= e <= ew_pow[top]:
            ew_pow[i] = e
    return model, ew_pow, grid_points


class TestThresholdGridExcess:
    @settings(max_examples=400)
    @given(grid_check_inputs())
    def test_equals_full_grid_oracle_bitwise(self, inputs):
        model, ew_pow, grid_points = inputs
        _, xi = min_total_error(ew_pow, model)
        got = _threshold_grid_excess(ew_pow, xi, model, grid_points)
        assert got == brute_force_grid_excess(ew_pow, xi, model, grid_points)
        # each sample's own excess on the shared grid (the others masked out
        # by -inf), so that no sample hides behind the maximum
        for i in range(ew_pow.size):
            one = np.where(np.arange(ew_pow.size) == i, xi, -np.inf)
            assert _threshold_grid_excess(ew_pow, one, model, grid_points) == \
                brute_force_grid_excess(ew_pow, one, model, grid_points)

    def test_equals_full_grid_oracle_on_plan_samples(self, small_cfg, small_plan):
        # the cross-check's own inputs: warden samples of a converged plan at
        # its power, a thousandth and a millionth of it
        model = DetectionModel.from_config(small_cfg)
        rng = np.random.default_rng(7)
        for i, p in enumerate(small_plan.power.powers):
            q = small_plan.trajectory.waypoints[i]
            e_w = rng.normal(0.0, math.sqrt(small_cfg.var_willie), size=(500, 2))
            d = q - small_cfg.willie_est - e_w
            gain = small_cfg.beta0 / (np.sum(d * d, axis=1) + small_cfg.altitude_H**2)
            for scale in (1.0, 1e-3, 1e-6):
                ew_pow = gain * p * scale
                _, xi = min_total_error(ew_pow, model)
                assert _threshold_grid_excess(ew_pow, xi, model, 1000) == \
                    brute_force_grid_excess(ew_pow, xi, model, 1000)


class TestBoundAudit:
    def test_chain_holds_on_small_grid(self, cfg):
        # quadrature E[g] <= the mean/MAD two-point bound <= g_upper, the
        # simplified bound the planner enforces, so xi_bar >= xi_check
        model = DetectionModel.from_config(cfg)
        for lam in (25.0, 400.0, 1600.0):
            mu = lam + 2.0
            theta = 2.0 * math.sqrt(2.0 / math.pi) * math.sqrt(lam + 1.0)
            for p in (0.0, 1e-5, 1e-3, 0.1):
                mean_g = mean_g_quadrature(lam, p, model)
                # the two-point bound, with g's limit at infinity 0
                g_mu, g_0 = float(g_of(mu, p, model)), float(g_of(0.0, p, model))
                two_point = g_mu + 0.5 * theta * (g_0 - g_mu) / mu
                final = float(g_upper(lam, p, model))
                tol = 1e-9 * max(1.0, abs(final))
                assert mean_g <= two_point + tol and two_point <= final + tol, (lam, p)
                assert (xi_bar_quadrature(lam, p, model)
                        >= xi_lower_bound(lam, p, model) - 1e-9), (lam, p)

    def test_zero_power_row_degenerate(self, cfg):
        model = DetectionModel.from_config(cfg)
        assert mean_g_quadrature(100.0, 0.0, model) == 0.0
        assert xi_bar_quadrature(100.0, 0.0, model) == 1.0
        assert xi_lower_bound(100.0, 0.0, model) == 1.0

    def test_simplification_step_identity(self):
        # sqrt(l+1)/(l+2) <= 1/sqrt(l+1) for all l >= 0
        lam = np.linspace(0.0, 1e6, 10_001)
        assert np.all(np.sqrt(lam + 1) / (lam + 2) <= 1.0 / np.sqrt(lam + 1))

    @pytest.mark.parametrize("lam, p", [
        (900.0, 5e-4),
        # the corners of the criterion-6 (lambda, power) grid
        (10.0, 1e-4), (10.0, 0.4), (5000.0, 1e-4), (5000.0, 0.4),
    ])
    def test_quadrature_oracle_agrees_with_reference(self, cfg, lam, p):
        # same integral through an entirely scipy-based route
        from scipy import integrate
        model = DetectionModel.from_config(cfg)
        ref, _ = integrate.quad(
            lambda x: np.log1p(model.beta1 * p / (x + model.h2_over_var))
            * stats.ncx2.pdf(x, 2, lam),
            0, lam + 2 + 60 * math.sqrt(lam + 1), limit=300)
        assert mean_g_quadrature(lam, p, model) == pytest.approx(ref, rel=1e-8)


@pytest.fixture(scope="module")
def small_plan(small_cfg):
    plan, _ = run_jtp(small_cfg)
    return plan


class TestPlanValidation:
    def test_converged_plan_passes(self, small_cfg, small_plan):
        mc = McSettings(num_samples=50_000, rng_seed=5)
        rep = validate_plan(small_plan, small_cfg, mc)
        assert rep.passed
        assert np.all(rep.outage <= small_cfg.rho_b)
        assert np.all(rep.xi_bar >= 1.0 - small_cfg.rho_w)
        assert np.all(rep.xi_bar >= rep.xi_check - 1e-6)

    def test_seeded_reproducibility(self, small_cfg, small_plan):
        mc = McSettings(num_samples=20_000, rng_seed=11)
        r1 = validate_plan(small_plan, small_cfg, mc)
        r2 = validate_plan(small_plan, small_cfg, mc)
        assert np.array_equal(r1.outage, r2.outage)
        assert np.array_equal(r1.xi_bar, r2.xi_bar)
        assert r1.to_dict() == r2.to_dict()

    def test_slot_count_mismatch_rejected(self, small_cfg, small_plan):
        other = small_cfg.with_updates(flight_period_T=26.0)
        with pytest.raises(ValueError, match="slots"):
            validate_plan(small_plan, other, McSettings(num_samples=1_000))

    def test_report_serializes(self, small_cfg, small_plan):
        rep = validate_plan(small_plan, small_cfg, McSettings(num_samples=5_000))
        d = rep.to_dict()
        assert set(d) >= {
            "outage_probability", "outage_wilson_ci", "willie_error_mean",
            "xi_lower_bound", "passed", "rng_seed", "ks_stats",
        }


def reference_validate_report(plan, cfg, mc):
    """Test oracle: the plan audit as serial per-slot loops with row-wise
    distances, fresh arrays per shard and a running worst grid excess."""
    model = DetectionModel.from_config(cfg)
    n = len(plan.trajectory)
    z = mc.z_value
    h2 = cfg.altitude_H**2
    outage = np.empty(n)
    outage_ci = np.empty((n, 2))
    xi_bar = np.empty(n)
    xi_ci = np.empty((n, 2))
    worst_excess = 0.0
    for i in range(n):
        q = plan.trajectory.waypoints[i]
        p_i = plan.power.powers[i]
        gen = _rng(mc.rng_seed, 2 * i)
        count = 0
        left = mc.num_samples
        while left > 0:
            take = min(_SHARD, left)
            e_b = gen.normal(0.0, math.sqrt(cfg.var_bob), size=(take, 2))
            d = q - cfg.bob_est - e_b
            snr = p_i * cfg.gamma0 / (np.sum(d * d, axis=1) + h2)
            count += int(np.count_nonzero(np.log2(1.0 + snr) < plan.rates.rates[i]))
            left -= take
        outage[i] = count / mc.num_samples
        outage_ci[i] = wilson_interval(count, mc.num_samples, z)

        gen = _rng(mc.rng_seed, 2 * i + 1)
        total = total_sq = 0.0
        checked = False
        left = mc.num_samples
        while left > 0:
            take = min(_SHARD, left)
            e_w = gen.normal(0.0, math.sqrt(cfg.var_willie), size=(take, 2))
            d = q - cfg.willie_est - e_w
            ew_pow = cfg.beta0 * p_i / (np.sum(d * d, axis=1) + h2)
            _, xi = min_total_error(ew_pow, model)
            total += float(np.sum(xi))
            total_sq += float(np.sum(xi * xi))
            if not checked:
                k = min(take, max(1, int(mc.num_samples * GRID_CHECK_FRACTION)))
                worst_excess = max(worst_excess, _threshold_grid_excess(
                    ew_pow[:k], xi[:k], model, GRID_POINTS))
                checked = True
            left -= take
        m = total / mc.num_samples
        half = z * math.sqrt(max(total_sq / mc.num_samples - m * m, 0.0) / mc.num_samples)
        xi_bar[i] = m
        xi_ci[i] = (m - half, m + half)

    se = np.maximum(xi_ci[:, 1] - xi_bar, 1e-12) / z
    lam_lo = float(np.min(plan.lam))
    lam_med = float(np.median(plan.lam))
    return ValidationReport(
        outage=outage, outage_ci=outage_ci,
        outage_ok=bool(np.all(outage <= cfg.rho_b + 1e-12)),
        xi_bar=xi_bar, xi_bar_ci=xi_ci, xi_check=plan.xi_lb,
        covert_ok=bool(np.all(xi_bar >= (1.0 - cfg.rho_w) - 3.0 * se)),
        bound_ok=bool(np.all(xi_bar >= plan.xi_lb - 3.0 * se)),
        threshold_grid_excess=worst_excess,
        ks_stats={
            "lambda_min": lam_lo,
            "ks_at_lambda_min": ks_gaussian_approx(lam_lo),
            "lambda_median": lam_med,
            "ks_at_lambda_median": ks_gaussian_approx(lam_med),
        },
        seed=mc.rng_seed, num_samples=mc.num_samples,
    )


@pytest.fixture(scope="module")
def small_plans(small_cfg, small_plan):
    return {"JTP": small_plan, "STP": run_stp(small_cfg)[0]}


@pytest.fixture(scope="module")
def reference_bytes(small_cfg, small_plans):
    """Oracle report bytes per (scheme, num_samples), computed once."""
    cache = {}

    def get(scheme, num_samples):
        if (scheme, num_samples) not in cache:
            mc = McSettings(num_samples=num_samples, rng_seed=31)
            rep = reference_validate_report(small_plans[scheme], small_cfg, mc)
            cache[scheme, num_samples] = json.dumps(rep.to_dict())
        return cache[scheme, num_samples]
    return get


class TestSlotKernel:
    # 1000 and 20 000 samples are one short shard; _SHARD + 1 and
    # 2 _SHARD + 777 end in a short tail shard in the reused buffers
    @pytest.mark.parametrize("num_samples", [1_000, 20_000, _SHARD + 1, 2 * _SHARD + 777])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["JTP", "STP"])
    def test_report_bytes_equal_reference(self, small_cfg, small_plans, reference_bytes,
                                          scheme, workers, num_samples):
        mc = McSettings(num_samples=num_samples, rng_seed=31, workers=workers)
        got = json.dumps(validate_plan(small_plans[scheme], small_cfg, mc).to_dict())
        assert got == reference_bytes(scheme, num_samples)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            McSettings(workers=-1)

    def test_threads_capped_at_slot_count(self):
        assert McSettings(workers=3).threads(2) == 2
        assert McSettings(workers=1).threads(300) == 1
        assert 1 <= McSettings().threads(300) <= 300

    def test_memory_bounded_at_a_million_samples(self, small_cfg, small_plan):
        # two threads, each with one shard's buffers and min_total_error's
        # two outputs (about 17 MiB a thread): measured peak 33.0 MiB
        mc = McSettings(num_samples=1_000_000, rng_seed=5, workers=2)
        tracemalloc.start()
        try:
            validate_plan(small_plan, small_cfg, mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 42 * 2**20
