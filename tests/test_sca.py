import math

import numpy as np
import pytest
from test_cvxsolver import dual_tol

from covertuav import cvxsolver
from covertuav.convexify import assemble_subproblem, exact_feasibility, exact_feasible
from covertuav.cvxsolver import SolverSettings
from covertuav.detection import DetectionModel, lambda_of
from covertuav.scenario import baseline_config
from covertuav.sca import (
    InfeasibleScenarioError,
    ScaSettings,
    initial_point,
    line_segment_trajectory,
    run_jtp,
    run_stp,
)


class TestLineSegment:
    def test_minimum_time_is_straight_line(self):
        cfg = baseline_config(flight_period_T=200.0)
        traj = line_segment_trajectory(cfg)
        steps = traj.step_lengths(cfg.q_init)
        assert np.allclose(steps, 5.0, atol=1e-9)  # every step at full speed
        assert np.allclose(traj.waypoints[:, 1], 100.0, atol=1e-9)  # on the line
        assert np.allclose(traj.waypoints[-1], cfg.q_final)
        # never reaches the receiver estimate: no hover
        d_bob = np.linalg.norm(traj.waypoints - cfg.bob_est, axis=1)
        assert d_bob.min() > 100.0

    def test_hover_budget_at_t300(self, cfg):
        traj = line_segment_trajectory(cfg)
        d1 = float(np.linalg.norm(cfg.bob_est - cfg.q_init))   # 447.21 m
        d2 = float(np.linalg.norm(cfg.q_final - cfg.bob_est))  # 632.46 m
        n1 = math.ceil(d1 / 5.0)
        n2 = math.ceil(d2 / 5.0)
        at_bob = np.linalg.norm(traj.waypoints - cfg.bob_est, axis=1) < 1e-9
        assert at_bob.sum() == cfg.num_slots_N - n1 - n2 + 1
        # arrival slot and departure slot bracket the hover block
        idx = np.nonzero(at_bob)[0]
        assert idx[0] == n1 - 1 and idx[-1] == cfg.num_slots_N - n2 - 1
        steps = traj.step_lengths(cfg.q_init)
        assert steps.max() <= 5.0 * (1.0 + 1e-12)

    def test_turn_back_when_period_is_short(self):
        cfg = baseline_config(flight_period_T=210.0)
        traj = line_segment_trajectory(cfg)
        steps = traj.step_lengths(cfg.q_init)
        assert steps.max() <= 5.0 * (1.0 + 1e-12)
        assert np.allclose(traj.waypoints[-1], cfg.q_final)
        # it turns before reaching the receiver estimate
        d_bob = np.linalg.norm(traj.waypoints - cfg.bob_est, axis=1)
        assert 0.0 < d_bob.min() < 200.0

    def test_pure_hover(self):
        cfg = baseline_config(
            flight_period_T=10.0, q_init=(-100.0, 300.0), q_final=(-100.0, 300.0),
        )
        traj = line_segment_trajectory(cfg)
        assert np.allclose(traj.waypoints, cfg.bob_est)


class TestInitialPoint:
    def test_u1_construction_formula(self, cfg):
        # the auxiliary variable seeds exactly as
        # ln(1 + beta1 P / (lam + 2 + H^2/var))
        exp = initial_point(cfg)
        model = DetectionModel.from_config(cfg)
        lam = lambda_of(exp.traj_tilde.waypoints, cfg.willie_est, cfg.var_willie)
        expect = np.log1p(model.beta1 * exp.p_tilde.powers
                          / (lam + 2.0 + model.h2_over_var))
        assert np.allclose(exp.u1_tilde, expect, rtol=0.0, atol=0.0)

    def test_assembled_residuals_nonpositive(self, small_cfg):
        sub = assemble_subproblem(initial_point(small_cfg), small_cfg)
        assert float(np.max(sub.eval_values(sub.start))) < 0.0

    def test_lax_covertness_raises_initial_power(self):
        # The unclamped error-rate bound goes negative at high power, so even
        # near-vacuous covertness levels still cap the power somewhere; the
        # cap must rise monotonically as the requirement relaxes.
        p_strict = initial_point(baseline_config(rho_w=0.05)).p_tilde.powers[0]
        p_mid = initial_point(baseline_config(rho_w=0.3)).p_tilde.powers[0]
        p_lax = initial_point(baseline_config(rho_w=0.999)).p_tilde.powers[0]
        assert p_strict < p_mid < p_lax

    def test_uniform_power(self, cfg):
        exp = initial_point(cfg)
        assert np.ptp(exp.p_tilde.powers) == 0.0

    def test_sub_floor_binding_power_stays_feasible(self):
        # a low-uncertainty warden pins the admissible uniform power below
        # the nominal 1e-8 W floor; the floor must not be forced through
        cfg = baseline_config(flight_period_T=250.0,
                              noise_uncertainty_rho=10.0 ** 0.1)
        exp = initial_point(cfg)
        assert float(exp.p_tilde.powers[0]) < 1e-8
        sub = assemble_subproblem(exp, cfg)
        assert float(np.max(sub.eval_values(sub.start))) < 0.0


@pytest.fixture(scope="module")
def small_runs(small_cfg):
    jtp = run_jtp(small_cfg)
    stp = run_stp(small_cfg)
    return jtp, stp


class TestScaLoop:
    def test_converged_and_feasible(self, small_cfg, small_runs):
        (plan, trace), _ = small_runs
        assert trace.stop_reason == "converged"
        assert plan.feasible
        assert abs(trace.objectives[-1] - trace.objectives[-2]) <= small_cfg.sca_tolerance

    def test_monotone_objective(self, small_runs):
        (plan, trace), _ = small_runs
        objs = np.array(trace.objectives)
        assert np.all(np.diff(objs) >= -1e-6)

    def test_every_iterate_exactly_feasible(self, small_cfg, small_runs):
        (plan, trace), _ = small_runs
        model = DetectionModel.from_config(small_cfg)
        for exp in trace.expansion_points:
            margins = exact_feasibility(exp.traj_tilde, exp.p_tilde, exp.r_tilde,
                                        small_cfg, model)
            assert exact_feasible(margins, small_cfg)

    def test_power_only_never_beats_joint(self, small_runs):
        (jtp_plan, _), (stp_plan, _) = small_runs
        assert stp_plan.actr <= jtp_plan.actr + 1e-6

    def test_stp_trajectory_frozen(self, small_cfg, small_runs):
        _, (stp_plan, _) = small_runs
        line = line_segment_trajectory(small_cfg)
        assert np.allclose(stp_plan.trajectory.waypoints, line.waypoints)

    def test_small_rate_not_converged_after_one_solve(self):
        # criterion 11's 1 dB noise-uncertainty case starts near 6.5e-5
        # bits/s/Hz, under sca_tolerance; its early passes still roughly
        # double the rate
        cfg = baseline_config(flight_period_T=250.0, noise_uncertainty_rho=10.0 ** 0.1)
        plan, trace = run_stp(cfg)
        assert trace.subproblem_solves > 1
        assert trace.stop_reason == "converged"
        assert plan.actr > 1e-3

    @pytest.mark.parametrize("runner", [run_jtp, run_stp])
    def test_stalled_solve_stops_the_loop(self, small_cfg, runner):
        # one backtrack per Newton step: the first solve's line search fails,
        # and the loop keeps that solve's interior iterate and stops
        settings = ScaSettings(solver=SolverSettings(max_iters=600, max_backtracks=1))
        plan, trace = runner(small_cfg, settings=settings)
        assert trace.stop_reason == "subproblem_stalled"
        assert plan.status == "subproblem_stalled"
        assert trace.subproblem_solves == 1
        assert plan.feasible
        assert trace.objectives[1] >= trace.objectives[0]

    def test_fixed_point_restart(self, small_cfg, small_runs):
        (plan, trace), _ = small_runs
        plan2, trace2 = run_jtp(small_cfg, start=trace.expansion_points[-1])
        assert trace2.subproblem_solves <= 2
        assert abs(plan2.actr - plan.actr) <= small_cfg.sca_tolerance

    def test_plan_diagnostics_shapes(self, small_cfg, small_runs):
        (plan, _), _ = small_runs
        n = small_cfg.num_slots_N
        assert plan.lam.shape == (n,)
        assert plan.xi_lb.shape == (n,)
        assert np.all(plan.covert_margin >= -1e-9)
        assert np.all(plan.outage_margin >= -1e-6)

    def test_plan_round_trips_through_dict(self, small_runs):
        from covertuav.sca import Plan
        (plan, _), _ = small_runs
        clone = Plan.from_dict(plan.to_dict())
        assert clone.actr == plan.actr
        assert np.allclose(clone.trajectory.waypoints, plan.trajectory.waypoints)


@pytest.mark.parametrize("period", [None, 200.0, 210.0, 250.0, 300.0])
@pytest.mark.parametrize("runner", [run_jtp, run_stp])
def test_last_solve_certifies_stationarity(small_cfg, monkeypatch, period, runner):
    # the duals of a converged plan's last solve leave a dual residual under
    # the solver's tolerance; None stands for small_cfg, the rest are the
    # flight-period study
    cfg = small_cfg if period is None else baseline_config(flight_period_T=period)
    solves = []
    solve = cvxsolver.solve

    def recorded(sub, **kwargs):
        solves.append((sub, solve(sub, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(cvxsolver, "solve", recorded)
    settings = ScaSettings()
    _, trace = runner(cfg, settings=settings)
    assert trace.stop_reason == "converged"
    sub, res = solves[-1]
    assert res.kkt.stationarity <= dual_tol(sub, settings.solver)


@pytest.fixture(scope="module")
def one_slot_cfg():
    return baseline_config(
        flight_period_T=1.0, q_init=(0.0, 0.0), q_final=(0.0, 0.0),
        bob_est=(-10.0, 30.0), willie_est=(10.0, 30.0),
    )


class TestDegenerateSingleSlot:
    def test_schemes_coincide(self, one_slot_cfg):
        jtp_plan, jtp_trace = run_jtp(one_slot_cfg)
        stp_plan, stp_trace = run_stp(one_slot_cfg)
        assert jtp_plan.actr == pytest.approx(stp_plan.actr, abs=1e-12)
        assert np.allclose(jtp_plan.power.powers, stp_plan.power.powers)

    def test_matches_grid_search_oracle(self, one_slot_cfg):
        # independent 1-D search over the same restricted feasible set:
        # q is pinned, the bound slack sits at var_bob, the cone slack at its
        # norm; covertness caps the power, the outage row then fixes the rate
        cfg = one_slot_cfg
        model = DetectionModel.from_config(cfg)
        exp = initial_point(cfg)
        q = exp.traj_tilde.waypoints[0]
        lam = float(lambda_of(q, cfg.willie_est, cfg.var_willie))
        lam_t = lam  # expansion trajectory equals the pinned waypoint
        u1_t = float(exp.u1_tilde[0])
        p_t = float(exp.p_tilde.powers[0])
        c_sq = math.sqrt(math.pi / 2.0)
        k_w = math.sqrt(2.0 * math.pi) * math.log(model.rho) * cfg.rho_w
        h2v = model.h2_over_var
        bw = model.beta1 * cfg.var_willie
        h2 = cfg.altitude_H**2
        denom = lam_t + 2.0 + h2v + model.beta1 * p_t

        a1 = 0.5 * math.sqrt((lam_t + 1.0) / u1_t)

        def covert_ok(p):
            # residual D is convex in u1; feasibility needs D at the best
            # admissible u1 (E's floor or D's interior minimizer, whichever
            # is larger) to be nonpositive
            u2 = lam + 1.0
            g4v = math.log(denom) + model.beta1 * (p - p_t) / denom
            need = g4v - math.log(u2 + 1.0 + h2v)
            u1_min_d = (0.5 / (c_sq * a1)) ** 2
            u1 = max(max(need, 0.0) ** 2, u1_min_d, 1e-10)
            g2v = (math.sqrt((lam_t + 1.0) * u1_t) + a1 * (u1 - u1_t))
            g3v = (math.log1p(bw * p_t / h2)
                   + bw * (p - p_t) / (h2 + bw * p_t))
            d = c_sq * g2v - math.sqrt(u1) + g3v - k_w * math.sqrt(u2)
            return d <= 0.0

        p_hi = min(cfg.p_avg_max, cfg.p_peak_max)
        grid = np.logspace(math.log10(1e-9), math.log10(p_hi), 400_000)
        ok = np.array([covert_ok(p) for p in grid])
        p_best = float(grid[ok][-1])

        # rate from the same surrogate outage row the subproblem carries,
        # with the slack variables at their per-slot optima
        dist2 = float(np.sum((q - cfg.bob_est) ** 2))
        y1 = cfg.var_bob
        z1 = math.sqrt(2.0 * cfg.var_bob**2 + 2.0 * cfg.var_bob * dist2)
        s_b = math.sqrt(-2.0 * math.log(cfg.rho_b))
        a_b = -math.log(cfg.rho_b)
        r_t = float(exp.r_tilde.rates[0])
        e_rt = 2.0**r_t - 1.0
        c0 = cfg.gamma0 * p_t / e_rt
        c1 = cfg.gamma0 * p_t * p_t / e_rt
        c2rt = cfg.gamma0 * p_t / (e_rt * e_rt) * 2.0**r_t
        room = -(2.0 * cfg.var_bob + h2 - c0 + dist2 + s_b * z1 + a_b * y1
                 + c1 * (p_t - p_best) / (p_best * p_t))
        r_oracle = r_t + math.log1p(room / c2rt) / math.log(2.0)

        sub = assemble_subproblem(exp, cfg)
        from covertuav.cvxsolver import SolverSettings, solve
        res = solve(sub, settings=SolverSettings(kkt_tol=1e-9, max_iters=400))
        assert res.status == "optimal"
        assert -res.objective == pytest.approx(r_oracle, abs=1e-4)


class TestInfeasibleScenario:
    def test_reported_with_margins(self):
        # covertness pins the power so low that the rate floor breaks outage
        cfg = baseline_config(
            flight_period_T=4.0, q_init=(0.0, 0.0), q_final=(0.0, 0.0),
            bob_est=(-10.0, 30.0), willie_est=(0.1, 0.1), var_willie=1e-4,
            gamma0=1e-2,
        )
        with pytest.raises(InfeasibleScenarioError):
            initial_point(cfg)

    @pytest.mark.parametrize("budget", ["p_avg_max", "p_peak_max"])
    def test_zero_power_budget_named(self, budget):
        cfg = baseline_config(flight_period_T=200.0, **{budget: 0.0})
        for runner in (run_jtp, run_stp):
            with pytest.raises(InfeasibleScenarioError,
                               match=f"zero power budget \\({budget} = 0 W\\)"):
                runner(cfg)

    @pytest.mark.parametrize("budget, value, reason", [
        ("p_avg_max", 1e-9, "no feasible initial plan at the power budget"),
        ("p_peak_max", 1e-9, "no feasible initial plan at the power budget"),
        ("p_peak_max", 1e-12, "power budget below the planner's power floor"),
    ])
    def test_tiny_power_budget_named(self, budget, value, reason):
        # budgets under the initializer's nominal power floor
        cfg = baseline_config(flight_period_T=200.0, **{budget: value})
        for runner in (run_jtp, run_stp):
            with pytest.raises(InfeasibleScenarioError) as info:
                runner(cfg)
            msg = str(info.value)
            assert msg.startswith(reason)
            assert f"({budget} = {value:g} W" in msg

    def test_uniform_power_never_above_budget(self):
        # a budget under the nominal initial floor, yet enough for the rate floor
        cfg = baseline_config(flight_period_T=200.0, gamma0=1e10, p_avg_max=5e-9)
        exp = initial_point(cfg)
        assert np.all(exp.p_tilde.powers <= cfg.p_avg_max)
        assemble_subproblem(exp, cfg, fixed_trajectory=False)


@pytest.mark.parametrize("var_willie", [1e-6, 1e-8])
def test_precise_warden_start_accepted_by_assembler(var_willie):
    # at lam ~ 1e10 the covertness rows carry terms of order
    # k_w sqrt(lam + 1) ~ 1e4; the initializer's 1e-6 margin on covert_D must
    # survive their rounding in the assembled rows
    cfg = baseline_config(flight_period_T=200.0, var_willie=var_willie)
    exp = initial_point(cfg)
    for fixed in (False, True):
        sub = assemble_subproblem(exp, cfg, fixed_trajectory=fixed)
        assert np.max(sub.eval_values(sub.start)) < 0.0
