import warnings

import numpy as np
import pytest

from covertuav.scenario import (
    FEAS_RTOL,
    ConfigParseError,
    PowerSchedule,
    RateSchedule,
    ScenarioConfig,
    ScenarioError,
    Trajectory,
    baseline_config,
    check_mobility,
    check_power,
    db_to_linear,
    dbm_to_watts,
    parse_config_text,
)


class TestUnits:
    def test_dbm_reference(self):
        assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-15)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)

    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == 1.0

    def test_three_db_spread(self):
        # 10**0.3
        assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-12)


class TestConfig:
    def test_baseline_derived_fields(self, cfg):
        assert cfg.num_slots_N == 300
        assert cfg.max_step_L == cfg.v_max * cfg.slot_duration == 5.0
        assert cfg.p_avg_max == pytest.approx(0.1, rel=1e-12)
        assert cfg.p_peak_max == pytest.approx(0.4, rel=1e-12)
        assert cfg.noise_nominal == pytest.approx(1e-15, rel=1e-12)

    def test_non_integer_slotting_rejected(self):
        with pytest.raises(ScenarioError):
            baseline_config(flight_period_T=300.5)

    def test_unreachable_endpoints_rejected(self):
        with pytest.raises(ScenarioError, match="N\\*L"):
            baseline_config(flight_period_T=100.0)  # needs 1000 m at 5 m/s

    @pytest.mark.parametrize("field,value", [
        ("noise_uncertainty_rho", 0.5),
        ("noise_uncertainty_rho", 1.0),
        ("rho_b", 0.0),
        ("rho_w", 1.0),
        ("altitude_H", -1.0),
        ("beta0", 0.0),
        ("var_bob", 0.0),
    ])
    def test_invariants_rejected(self, field, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic warns
            with pytest.raises(ScenarioError):
                baseline_config(**{field: value})

    def test_zero_db_noise_uncertainty_reason(self):
        with pytest.raises(ScenarioError, match="without noise uncertainty"):
            baseline_config(noise_uncertainty_rho=1.0)

    def test_immutable(self, cfg):
        with pytest.raises(Exception):
            cfg.altitude_H = 5.0
        with pytest.raises(ValueError):
            cfg.q_init[0] = 1.0


class TestMobility:
    def test_stationary_hover(self):
        cfg = baseline_config(
            flight_period_T=10.0, q_init=(0.0, 0.0), q_final=(0.0, 0.0),
            bob_est=(-10.0, 30.0), willie_est=(10.0, 30.0),
        )
        traj = Trajectory(np.zeros((10, 2)))
        margins = check_mobility(traj, cfg)
        assert np.allclose(margins[:-1], cfg.max_step_L)
        assert margins[-1] == 0.0

    def test_straight_line_at_speed_limit(self):
        cfg = baseline_config(flight_period_T=200.0)
        t = np.arange(1, 201)[:, None] / 200.0
        w = cfg.q_init + t * (cfg.q_final - cfg.q_init)
        margins = check_mobility(Trajectory(w), cfg)
        assert np.allclose(margins[:-1], 0.0, atol=1e-9)
        assert margins[-1] == 0.0

    def test_overlong_step_flagged(self):
        cfg = baseline_config(
            flight_period_T=10.0, q_init=(0.0, 0.0), q_final=(0.0, 0.0),
            bob_est=(-10.0, 30.0), willie_est=(10.0, 30.0),
        )
        w = np.zeros((10, 2))
        w[4] = (1.5 * cfg.max_step_L, 0.0)  # one step out, one step back
        margins = check_mobility(Trajectory(w), cfg)
        assert margins[4] == pytest.approx(-0.5 * cfg.max_step_L)

    def test_length_mismatch(self, cfg):
        with pytest.raises(ScenarioError):
            check_mobility(Trajectory(np.zeros((5, 2))), cfg)

    def test_accepted_trajectory_is_speed_feasible(self, cfg, rng):
        # any accepted flight is flyable at v <= v_max within each slot
        from covertuav.sca import line_segment_trajectory
        traj = line_segment_trajectory(cfg)
        steps = traj.step_lengths(cfg.q_init)
        assert np.all(steps <= cfg.v_max * cfg.slot_duration * (1 + FEAS_RTOL))


class TestPower:
    def test_zero_power_margins(self, cfg):
        p = PowerSchedule(np.zeros(cfg.num_slots_N))
        m = check_power(p, cfg)
        assert m.avg_margin == pytest.approx(cfg.p_avg_max)
        assert np.allclose(m.peak_margins, cfg.p_peak_max)

    def test_average_cap_tight(self, cfg):
        p = PowerSchedule(np.full(cfg.num_slots_N, cfg.p_avg_max))
        m = check_power(p, cfg)
        assert m.avg_margin == pytest.approx(0.0, abs=1e-15)

    def test_single_peak_slot(self):
        # peak = 4x average cap: one max slot amid zeros is feasible for N >= 4
        cfg = baseline_config(
            flight_period_T=4.0, q_init=(0.0, 0.0), q_final=(0.0, 0.0),
            bob_est=(-10.0, 30.0), willie_est=(10.0, 30.0),
        )
        powers = np.zeros(4)
        powers[0] = cfg.p_peak_max
        m = check_power(PowerSchedule(powers), cfg)
        assert np.all(m.peak_margins >= 0.0)
        assert m.avg_margin == pytest.approx(0.0, abs=1e-15)

    def test_negative_power_rejected(self):
        with pytest.raises(ScenarioError):
            PowerSchedule(np.array([-0.1]))


class TestRateSchedule:
    def test_floor_enforced(self):
        with pytest.raises(ScenarioError):
            RateSchedule(np.array([0.0]))
        r = RateSchedule(np.array([1e-6, 2.0]))
        assert r.mean == pytest.approx(1.0000005)


class TestConfigFile:
    def test_baseline_file_round_trip(self, cfg):
        from pathlib import Path
        text = Path(__file__).resolve().parents[1].joinpath(
            "configs", "default.cfg").read_text(encoding="utf-8")
        parsed = parse_config_text(text)
        assert parsed.num_slots_N == cfg.num_slots_N
        assert parsed.p_avg_max == pytest.approx(cfg.p_avg_max, rel=1e-12)
        assert parsed.noise_uncertainty_rho == pytest.approx(
            cfg.noise_uncertainty_rho, rel=1e-12)
        assert np.allclose(parsed.willie_est, cfg.willie_est)

    def test_unknown_key_reports_name(self):
        with pytest.raises(ConfigParseError, match="no_such_key"):
            parse_config_text("no_such_key = 5")

    def test_missing_key_reports_name(self):
        with pytest.raises(ConfigParseError, match="flight_period"):
            parse_config_text("altitude = 100 m")

    def test_wrong_unit_reports_expectation(self):
        with pytest.raises(ConfigParseError, match="dBm"):
            parse_config_text("p_avg_max = 20 volts")

    def test_bad_vector_reports_key(self):
        with pytest.raises(ConfigParseError, match="q_init"):
            parse_config_text("q_init = 1 m")
