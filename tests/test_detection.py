import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from covertuav.detection import (
    DetectionModel,
    false_alarm,
    g_of,
    g_upper,
    lambda_of,
    min_total_error,
    miss_detection,
    nc_chi2_pdf,
    xi_lower_bound,
)


@pytest.fixture(scope="module")
def model(cfg):
    return DetectionModel.from_config(cfg)


def reference_min_total_error(e_w, model):
    """Test oracle: min_total_error as where-selects over fresh arrays."""
    e_w = np.asarray(e_w, dtype=float)
    s2, rho = model.noise_nominal, model.rho
    lo = s2 / rho
    hi = rho * s2
    detectable = e_w + lo >= hi
    pth = np.where(detectable, hi, e_w + lo)
    xi = np.where(
        detectable,
        0.0,
        np.log(np.maximum(hi / np.maximum(e_w + lo, 1e-300), 1e-300)) / model.two_ln_rho,
    )
    xi = np.where(e_w == 0.0, 1.0, xi)
    if xi.shape:
        return pth, xi
    return float(pth), float(xi)


@st.composite
def min_total_error_inputs(draw):
    """A model at 0.5, 3 or 10 dB of noise spread and received powers that
    are silent, tiny, undetectable, detectable or within an ulp of the
    detectable edge e_w + noise_low = noise_high."""
    rho = 10.0 ** (draw(st.sampled_from([0.5, 3.0, 10.0])) / 10.0)
    s2 = draw(st.sampled_from([1e-15, 1e-12, 1.0]))
    model = DetectionModel(rho=rho, noise_nominal=s2, beta0=1e-6,
                           var_willie=25.0, altitude_H=100.0)
    edge = model.noise_high - model.noise_low
    rel = st.one_of(st.just(0.0), st.floats(0.0, 1e-9), st.floats(0.0, 12.0),
                    st.floats(1.0, 1e6))
    near = st.sampled_from([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
    e_w = draw(st.lists(st.one_of(rel.map(lambda r: r * s2), near), min_size=1, max_size=40))
    return model, np.array(e_w)


class TestModel:
    def test_beta1_definition(self, model, cfg):
        expect = cfg.beta0 * cfg.noise_uncertainty_rho / (cfg.var_willie * cfg.noise_nominal)
        assert model.beta1 == expect
        assert model.beta1 == pytest.approx(7.981049259875518e7, rel=1e-12)

    def test_rho_below_one_rejected(self, cfg):
        with pytest.raises(ValueError):
            DetectionModel(rho=0.9, noise_nominal=1e-15, beta0=1e-6,
                           var_willie=25.0, altitude_H=100.0)

    def test_rho_one_rejected(self):
        # a warden without noise uncertainty has 2 ln rho = 0 in every ramp
        with pytest.raises(ValueError, match="rho must exceed 1"):
            DetectionModel(rho=1.0, noise_nominal=1e-15, beta0=1e-6,
                           var_willie=25.0, altitude_H=100.0)


class TestErrorRates:
    def test_false_alarm_branches(self, model):
        s2, rho = model.noise_nominal, model.rho
        assert false_alarm(s2 / rho, model) == pytest.approx(1.0, abs=1e-12)
        assert false_alarm(rho * s2, model) == pytest.approx(0.0, abs=1e-12)
        assert false_alarm(s2, model) == pytest.approx(0.5, abs=1e-12)
        assert false_alarm(0.5 * s2 / rho, model) == 1.0
        assert false_alarm(2.0 * rho * s2, model) == 0.0

    def test_miss_detection_branches(self, model):
        s2, rho = model.noise_nominal, model.rho
        ew = 0.3 * s2
        assert miss_detection(ew + s2 / rho - 1e-18, ew, model) == 0.0
        assert miss_detection(ew + rho * s2, ew, model) == pytest.approx(1.0, abs=1e-12)
        assert miss_detection(s2, 0.0, model) == pytest.approx(0.5, abs=1e-12)

    def test_total_error_continuous_across_branches(self, model):
        # the summed error rate has no jumps at the branch boundaries
        s2, rho = model.noise_nominal, model.rho
        ew = 0.4 * s2

        def xi(p_th):
            return false_alarm(p_th, model) + miss_detection(p_th, ew, model)

        for b in [s2 / rho, ew + s2 / rho, rho * s2, ew + rho * s2]:
            lo = xi(b * (1 - 1e-13))
            hi = xi(b * (1 + 1e-13))
            assert abs(hi - lo) < 1e-10

    def test_min_total_error_no_signal(self, model):
        _, xi = min_total_error(0.0, model)
        assert xi == pytest.approx(1.0, abs=1e-12)

    def test_min_total_error_detectability_boundary(self, model):
        s2, rho = model.noise_nominal, model.rho
        ew = rho * s2 - s2 / rho
        p_th, xi = min_total_error(ew, model)
        assert xi == pytest.approx(0.0, abs=1e-12)
        assert p_th == pytest.approx(rho * s2, rel=1e-12)
        _, xi2 = min_total_error(2.0 * ew, model)
        assert xi2 == 0.0

    def test_min_total_error_matches_threshold_grid(self, model):
        # frozen oracle value: dense threshold search at e_w equal to the
        # nominal noise power gives 0.2059419
        ew = model.noise_nominal
        p_grid = np.linspace(model.noise_low, ew + model.noise_high, 400001)
        tot = false_alarm(p_grid, model) + miss_detection(p_grid, ew, model)
        p_th, xi = min_total_error(ew, model)
        assert xi == pytest.approx(0.20594189593919124, abs=1e-12)
        assert xi <= float(np.min(tot)) + 1e-12
        assert xi == pytest.approx(float(np.min(tot)), abs=1e-6)

    def test_optimal_threshold_location(self, model):
        ew = 0.7 * model.noise_nominal
        p_th, _ = min_total_error(ew, model)
        assert p_th == pytest.approx(ew + model.noise_low, rel=1e-12)

    @given(min_total_error_inputs())
    def test_min_total_error_equals_oracle_bitwise(self, inputs):
        model, e_w = inputs
        for e in (e_w, float(e_w[0])):
            got, want = min_total_error(e, model), reference_min_total_error(e, model)
            assert [type(x) for x in got] == [type(x) for x in want]
            assert [np.asarray(x).tobytes() for x in got] == \
                [np.asarray(x).tobytes() for x in want]


class TestDistanceStatistic:
    def test_lambda_examples(self, cfg):
        assert lambda_of(cfg.willie_est, cfg.willie_est, cfg.var_willie) == 0.0
        assert lambda_of([150.0, 300.0], [100.0, 300.0], 25.0) == pytest.approx(100.0)
        # above the receiver with the baseline geometry
        assert lambda_of(cfg.bob_est, cfg.willie_est, cfg.var_willie) == pytest.approx(1600.0)

    def test_pdf_central_case(self, rng):
        x = rng.uniform(0.0, 20.0, size=50)
        assert np.allclose(nc_chi2_pdf(x, 0.0), 0.5 * np.exp(-0.5 * x), rtol=1e-13)

    def test_pdf_matches_bessel_form_pointwise(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for lam in [0.0, 10.0, 1600.0, 5000.0, 1e5]:
            hi = lam + 2.0 + 60.0 * math.sqrt(lam + 1.0)
            x = np.linspace(0.0, hi, 401)
            exact = np.array([float(
                0.5 * mpmath.exp(-(mpmath.mpf(xi) + lam) / 2)
                * mpmath.besseli(0, mpmath.sqrt(lam * mpmath.mpf(xi)))) for xi in x])
            got = nc_chi2_pdf(x, lam)
            live = exact > 1e-290
            assert live.sum() > 100
            assert np.all(np.abs(got[live] / exact[live] - 1.0) <= 1e-12), lam
            assert np.all(got[~live] <= 1e-289)
            assert nc_chi2_pdf(0.0, lam) == pytest.approx(0.5 * math.exp(-0.5 * lam),
                                                          rel=1e-12)
        assert np.all(nc_chi2_pdf(np.array([-1e-300, -1.0, -1e6]), 10.0) == 0.0)
        assert nc_chi2_pdf(-2.0, 0.0) == 0.0
        val = nc_chi2_pdf(3.0, 10.0)
        assert isinstance(val, float)
        assert val == pytest.approx(float(
            0.5 * mpmath.exp(-6.5) * mpmath.besseli(0, mpmath.sqrt(30))), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 10.0, 100.0, 1600.0, 5000.0])
    def test_pdf_normalizes(self, lam):
        hi = lam + 2.0 + 60.0 * math.sqrt(lam + 1.0)
        total, _ = integrate.quad(lambda x: nc_chi2_pdf(x, lam), 0.0, hi, limit=300)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("lam", [25.0, 5000.0])
    def test_pdf_moments_by_quadrature(self, lam):
        hi = lam + 2.0 + 60.0 * math.sqrt(lam + 1.0)
        mean, _ = integrate.quad(lambda x: x * nc_chi2_pdf(x, lam), 0.0, hi, limit=300)
        var, _ = integrate.quad(
            lambda x: (x - (lam + 2.0)) ** 2 * nc_chi2_pdf(x, lam), 0.0, hi, limit=300)
        assert mean == pytest.approx(lam + 2.0, rel=1e-6)
        assert var == pytest.approx(4.0 * lam + 4.0, rel=1e-6)

    def test_gaussian_approximation_quality(self):
        from covertuav.validate import ks_gaussian_approx
        assert ks_gaussian_approx(100.0) < 0.02


class TestErrorKernel:
    def test_zero_power(self, model, rng):
        x = rng.uniform(0.0, 1e4, size=20)
        assert np.all(g_of(x, 0.0, model) == 0.0)

    def test_vanishes_at_infinity(self, model):
        # covert-regime power: the kernel is negligible by x = 1e9
        assert g_of(1e9, 1e-6, model) < 1e-6
        # asymptotic decay holds at any power
        assert g_of(1e14, 0.4, model) < 1e-6

    def test_midpoint_convexity(self, model, rng):
        for _ in range(300):
            x1, x2 = rng.uniform(0.0, 5e4, size=2)
            p = rng.uniform(0.0, 0.4)
            mid = g_of(0.5 * (x1 + x2), p, model)
            avg = 0.5 * (g_of(x1, p, model) + g_of(x2, p, model))
            assert mid <= avg + 1e-12

    def test_decreasing_in_x(self, model, rng):
        x = np.sort(rng.uniform(0.0, 1e5, size=100))
        vals = g_of(x, 0.1, model)
        assert np.all(np.diff(vals) <= 1e-15)


class TestXiLowerBound:
    def test_no_power_fully_covert(self, model):
        assert xi_lower_bound(1600.0, 0.0, model) == pytest.approx(1.0, abs=1e-15)
        assert xi_lower_bound(0.0, 0.0, model) == pytest.approx(1.0, abs=1e-15)

    def test_below_quadrature_average(self, model):
        # small spot grid; the acceptance suite covers the full 20x20 grid
        from covertuav.validate import xi_bar_quadrature
        for lam in [50.0, 400.0, 1600.0]:
            for p in [1e-5, 1e-3, 0.1]:
                assert xi_lower_bound(lam, p, model) <= \
                    xi_bar_quadrature(lam, p, model) + 1e-9

    def test_monotone_in_lambda_at_fixed_power(self, model):
        lams = np.linspace(200.0, 20000.0, 60)
        vals = xi_lower_bound(lams, 1e-4, model)
        assert np.all(np.diff(vals) > 0)

    def test_not_clamped(self, model):
        # large power makes the bound meaningless but algebraically usable
        assert xi_lower_bound(10.0, 0.4, model) < 0.0


class TestMeanAbsDeviationBound:
    def test_convex_kernel_bound_monte_carlo(self, model, rng):
        # For the Gaussian surrogate of the distance statistic truncated to
        # x >= 0, the two-point mean/MAD bound must dominate the sampled mean
        # of the convex kernel.
        for lam, p in [(100.0, 1e-3), (1600.0, 1e-2), (1600.0, 0.2)]:
            mu, var = lam + 2.0, 4.0 * lam + 4.0
            sd = math.sqrt(var)
            x = rng.normal(mu, sd, size=400_000)
            x = x[x >= 0.0]
            sampled = float(np.mean(g_of(x, p, model)))
            se = float(np.std(g_of(x, p, model))) / math.sqrt(x.size)
            theta = math.sqrt(2.0 / math.pi) * sd
            bound = float(g_of(mu, p, model)) + 0.5 * theta * (
                0.0 + (float(g_of(0.0, p, model)) - float(g_of(mu, p, model))) / mu)
            assert sampled <= bound + 3.0 * se
