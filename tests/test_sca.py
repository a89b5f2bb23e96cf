import json
import math
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from test_cvxsolver import dual_tol

from covertuav import convexify, cvxsolver, sca
from covertuav.convexify import (
    P_FLOOR,
    U_FLOOR,
    assemble_subproblem,
    exact_feasibility,
    exact_feasible,
)
from covertuav.detection import DetectionModel, lambda_of, xi_lower_bound
from covertuav.scenario import RATE_FLOOR, baseline_config
from covertuav.sca import (
    InfeasibleScenarioError,
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


def start_rows(cfg, powers, lam):
    """(u1, row D, row E, exact covertness margin) per slot at the start the
    initializer hands the subproblem, for the given powers: u1 just above
    ln_a^2, with ln_a = ln(1 + beta1 P / (lam + 2 + H^2/var)), and at least
    2 U_FLOOR; the tangent-bound slack at its optimum lam + 1."""
    model = DetectionModel.from_config(cfg)
    ln_a = np.log1p(model.beta1 * powers / (lam + 2.0 + model.h2_over_var))
    u1 = np.maximum((ln_a * (1.0 + 1e-7) + 1e-12) ** 2, 2.0 * U_FLOOR)
    sq = np.sqrt(lam + 1.0)
    k_w = math.sqrt(2.0 * math.pi) * math.log(model.rho) * cfg.rho_w
    ln_b = np.log1p(model.beta1 * cfg.var_willie * powers / cfg.altitude_H**2)
    row_d = (math.sqrt(math.pi / 2.0) * sq - 1.0) * np.sqrt(u1) + ln_b - k_w * sq
    row_e = ln_a - np.sqrt(u1)
    margin = xi_lower_bound(lam, powers, model) - (1.0 - cfg.rho_w)
    return u1, row_d, row_e, margin


def outage_denominator(cfg, waypoints):
    """The initializer's closed-form outage denominator, both slacks a
    millionth of their scale above their optima."""
    eps2 = cfg.var_bob
    dist2 = np.sum((waypoints - cfg.bob_est) ** 2, axis=1)
    cone = np.sqrt(2.0 * eps2**2 + 2.0 * eps2 * dist2)
    return (2.0 * eps2
            + math.sqrt(-2.0 * math.log(cfg.rho_b)) * (cone + 1e-6 * np.maximum(cone, 1.0))
            - math.log(cfg.rho_b) * (eps2 + 1e-6 * max(eps2, 1.0))
            + dist2 + cfg.altitude_H**2)


class TestInitialPoint:
    def test_u1_construction_formula(self, cfg):
        # u1 seeds just above ln_a^2, the smallest value row E (ln_a -
        # sqrt(u1) at the start) accepts, and not below 2 U_FLOOR
        exp = initial_point(cfg)
        lam = lambda_of(exp.traj_tilde.waypoints, cfg.willie_est, cfg.var_willie)
        u1, _, row_e, _ = start_rows(cfg, exp.p_tilde.powers, lam)
        assert np.array_equal(exp.u1_tilde, u1)
        assert np.all(row_e < 0.0)
        assert np.all(exp.u1_tilde >= 2.0 * U_FLOOR)

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

    @pytest.mark.parametrize("overrides", [
        {},  # slack budget: every slot at its own cap
        dict(flight_period_T=200.0, gamma0=1e10, p_avg_max=5e-9),  # water-filled
    ])
    def test_power_at_per_slot_caps(self, overrides):
        # every slot sits at its covertness cap (a millionth more power breaks
        # row D's 1e-6 margin or the exact bound's 1e-9), at the peak cap, or,
        # when the budget binds, at a common water level or at the power that
        # carries the rate floor
        cfg = baseline_config(**overrides)
        exp = initial_point(cfg)
        p = exp.p_tilde.powers
        lam = lambda_of(exp.traj_tilde.waypoints, cfg.willie_est, cfg.var_willie)
        _, row_d, _, margin = start_rows(cfg, p, lam)
        assert np.all(row_d <= -1e-6) and np.all(margin >= 1e-9)
        _, row_d_up, _, margin_up = start_rows(cfg, p * (1.0 + 1e-6), lam)
        at_cap = (row_d_up > -1e-6) | (margin_up < 1e-9)
        at_peak = p == cfg.p_peak_max * (1.0 - 1e-6)
        if np.mean(p) < cfg.p_avg_max * (1.0 - 1e-5):
            assert np.all(at_cap | at_peak)
            return
        # water-filling: nu = P + k/gamma0 on the slots between the floor and
        # their caps, at least that on capped slots, at most on floored ones
        level = outage_denominator(cfg, exp.traj_tilde.waypoints) / cfg.gamma0
        snr_floor = np.expm1(math.log(2.0) * RATE_FLOOR * (1.0 + 1e-6) / (1.0 - 1e-9))
        p_min = np.maximum(level * snr_floor * (1.0 + 1e-6), 2.5 * P_FLOOR)
        at_min = p <= p_min * (1.0 + 1e-12)
        free = ~(at_cap | at_peak | at_min)
        assert free.any() and at_min.any()
        nu = p[free] + level[free]
        assert np.ptp(nu) <= 1e-9 * nu.max()
        assert np.all(p[at_cap | at_peak] + level[at_cap | at_peak] <= nu.max() * (1 + 1e-9))
        assert np.all(p[at_min] + level[at_min] >= nu.min() * (1 - 1e-9))

    def test_sub_floor_binding_power_stays_feasible(self):
        # a low-uncertainty warden caps the start's power hardest; the
        # assembled restriction must still be strictly feasible there
        cfg = baseline_config(flight_period_T=250.0,
                              noise_uncertainty_rho=10.0 ** 0.1)
        exp = initial_point(cfg)
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
        # the start is not an SCA iterate, so its step never stops the loop;
        # from a start at the covertness caps JTP's first steps are small
        # while its limit is still far, and the stop must not cut it short of
        # where the uniform start's runs ended (0.0107527 at T = 250 s;
        # 0.0052673 for STP on criterion 11's 1 dB case)
        cfg = baseline_config(flight_period_T=250.0)
        plan, trace = run_jtp(cfg)
        assert trace.subproblem_solves > 1
        assert trace.stop_reason == "converged"
        assert plan.actr >= 0.0107527
        cfg = baseline_config(flight_period_T=250.0, noise_uncertainty_rho=10.0 ** 0.1)
        plan, trace = run_stp(cfg)
        assert trace.subproblem_solves > 1
        assert trace.stop_reason == "converged"
        assert plan.actr >= 0.0052673

    def test_stp_start_is_its_limit(self, cfg):
        # on the line path with a slack budget, every slot at its own
        # covertness cap is already the power-only scheme's limit
        plan, trace = run_stp(cfg)
        assert trace.stop_reason == "converged"
        assert abs(trace.objectives[0] - plan.actr) <= 1e-6 * plan.actr

    @pytest.mark.parametrize("overrides", [dict(rho_w=0.01),
                                           dict(noise_uncertainty_rho=1.1)])
    def test_strict_wardens_plan(self, overrides):
        # a uniform start could not carry the rate floor far from the
        # receiver under these wardens; per-slot caps can
        cfg = baseline_config(**overrides)
        model = DetectionModel.from_config(cfg)
        for runner in (run_jtp, run_stp):
            plan, trace = runner(cfg)
            assert plan.feasible and trace.stop_reason == "converged"
            for exp in trace.expansion_points:
                assert exact_feasible(exact_feasibility(
                    exp.traj_tilde, exp.p_tilde, exp.r_tilde, cfg, model), cfg)
            assert np.all(np.diff(trace.objectives) >= 0.0)

    @pytest.mark.parametrize("runner", [run_jtp, run_stp])
    def test_powers_far_under_the_budget_solve(self, runner):
        # covertness caps these powers near 1.5e-9 W, almost eight decades under
        # p_avg_max: each power is scaled by its own expansion value, and a
        # budget-sized unit left the first JTP solve at its Newton cap
        cfg = baseline_config(
            flight_period_T=30.0, q_init=(0.01, 0.001),
            q_final=(102.67393002082454, -9.277313668400806),
            bob_est=(-85.40136060214125, 0.011),
            willie_est=(145.32978766226177, 92.64277968580657),
            var_bob=1.0, var_willie=1.0, gamma0=39762747.42703589,
            p_avg_max=0.1, p_peak_max=0.1, noise_uncertainty_rho=10.0 ** 0.1,
            rho_b=0.08409253489731187, rho_w=1e-4)
        plan, trace = runner(cfg)
        assert np.max(plan.power.powers) < 1e-7 * cfg.p_avg_max
        assert plan.feasible and trace.stop_reason == "converged"
        assert all(rec.status == "optimal" for rec in trace.solves)

    @pytest.mark.parametrize("runner", [run_jtp, run_stp])
    def test_one_exact_feasibility_pass_per_iterate(self, small_cfg, monkeypatch, runner):
        # the start and each solve's plan are checked once; the next
        # assembly and the plan reuse those margins
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return exact_feasibility(*args, **kwargs)

        monkeypatch.setattr(convexify, "exact_feasibility", counted)
        monkeypatch.setattr(sca, "exact_feasibility", counted)
        plan, trace = runner(small_cfg)
        assert trace.stop_reason == "converged"
        assert len(calls) == trace.subproblem_solves + 1

    @pytest.mark.parametrize("runner", [run_jtp, run_stp])
    def test_stalled_solve_stops_the_loop(self, small_cfg, monkeypatch, runner):
        # one backtrack per Newton step: the first solve's line search fails,
        # and the loop keeps that solve's interior iterate and stops
        monkeypatch.setattr(cvxsolver, "MAX_BACKTRACKS", 1)
        plan, trace = runner(small_cfg)
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


@pytest.mark.parametrize("runner", [run_jtp, run_stp])
def test_solve_records_match_the_solves(small_cfg, monkeypatch, runner):
    # one scalar record per subproblem solve, carrying that solve's own counts
    results = []
    solve = cvxsolver.solve

    def recorded(sub, **kwargs):
        results.append(solve(sub, **kwargs))
        return results[-1]

    monkeypatch.setattr(cvxsolver, "solve", recorded)
    _, trace = runner(small_cfg)
    assert len(trace.solves) == trace.subproblem_solves == len(results)
    assert (sum(r.newton_steps for r in trace.solves)
            == sum(res.iterations for res in results))
    for rec, res in zip(trace.solves, results):
        assert (rec.newton_steps, rec.backtracks, rec.merit_evals, rec.gap,
                rec.dual_residual, rec.status) == (
            res.iterations, res.backtracks, res.merit_evals, res.gap,
            res.kkt.stationarity, res.status)


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
    _, trace = runner(cfg)
    assert trace.stop_reason == "converged"
    sub, res = solves[-1]
    assert res.kkt.stationarity <= dual_tol(sub)


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

    def test_matches_grid_search_oracle(self, one_slot_cfg, monkeypatch):
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
        monkeypatch.setattr(cvxsolver, "KKT_TOL", 1e-9)
        monkeypatch.setattr(cvxsolver, "MAX_ITERS", 400)
        res = cvxsolver.solve(sub)
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
        with pytest.raises(InfeasibleScenarioError,
                           match=r"^no feasible initial plan: covertness caps slot \d+'s "
                                 r"power at .* W, below the .* W that carries the rate floor"):
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

    def test_tiny_average_budget_plans(self):
        # at T = 300 s the long hover keeps the rate floor's mean power
        # under a 1e-9 W average budget
        cfg = baseline_config(p_avg_max=1e-9)
        for runner in (run_jtp, run_stp):
            plan, trace = runner(cfg)
            assert plan.feasible and trace.stop_reason == "converged"
            assert np.mean(plan.power.powers) <= cfg.p_avg_max

    def test_uniform_power_never_above_budget(self):
        # the covertness caps overrun this budget, so the start water-fills
        # under it: the mean stays within p_avg_max, every slot within the
        # peak cap, and the restriction is strictly feasible there
        cfg = baseline_config(flight_period_T=200.0, gamma0=1e10, p_avg_max=5e-9)
        exp = initial_point(cfg)
        p = exp.p_tilde.powers
        assert cfg.p_avg_max * (1.0 - 1e-5) <= np.mean(p) <= cfg.p_avg_max
        assert np.all(p <= cfg.p_peak_max)
        sub = assemble_subproblem(exp, cfg, fixed_trajectory=False)
        assert float(np.max(sub.eval_values(sub.start))) < 0.0


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


@st.composite
def fuzz_scenarios(draw):
    """Small scenarios around the baseline: 8 to 40 one-second slots, a
    reachable landing point, receiver and warden estimates near the path,
    location variances, budgets, outage and covertness levels, noise
    uncertainty and channel gain over several decades."""
    n = draw(st.integers(8, 40))

    def uniform(lo, hi):
        return draw(st.floats(lo, hi))

    def log_uniform(lo, hi):
        return 10.0 ** uniform(lo, hi)

    q0 = np.array([uniform(-100.0, 100.0), uniform(-100.0, 100.0)])
    turn = uniform(0.0, 2.0 * math.pi)
    qf = q0 + uniform(0.0, 0.95) * 5.0 * n * np.array([math.cos(turn), math.sin(turn)])

    def near_start():
        return tuple(q0 + np.array([uniform(-150.0, 150.0), uniform(-150.0, 150.0)]))

    p_avg = log_uniform(-12.0, -1.0)
    return baseline_config(
        flight_period_T=float(n), q_init=tuple(q0), q_final=tuple(qf),
        bob_est=near_start(), willie_est=near_start(),
        var_bob=log_uniform(-2.0, 3.0), var_willie=log_uniform(-6.0, 3.0),
        gamma0=log_uniform(4.0, 10.0),
        p_avg_max=p_avg, p_peak_max=p_avg * log_uniform(-0.5, 1.0),
        rho_w=log_uniform(-4.0, -0.3), rho_b=log_uniform(-3.0, -0.5),
        noise_uncertainty_rho=10.0 ** (log_uniform(-2.0, 0.8) / 10.0),
    )


def plan_bytes(plan, trace) -> bytes:
    payload = plan.to_dict()
    payload["stop_reason"] = trace.stop_reason
    payload["subproblem_solves"] = trace.subproblem_solves
    payload["objectives"] = trace.objectives
    return json.dumps(payload).encode()


class TestScenarioFuzz:
    @settings(max_examples=100)
    @given(cfg=fuzz_scenarios())
    def test_named_cause_or_feasible_plans(self, cfg):
        # either a named infeasibility, with no internal row label in it, or
        # exactly feasible plans with nondecreasing traces that rerun to the
        # same bytes, and JTP at least STP; RuntimeWarnings are errors in
        # this suite
        try:
            runs = {runner: runner(cfg) for runner in (run_jtp, run_stp)}
        except InfeasibleScenarioError as exc:
            msg = str(exc)
            assert re.match(r"(zero power budget|power budget below|no feasible initial plan)",
                            msg), msg
            assert not re.search(r"\w\[\d+\]|expansion point|residual", msg), msg
            event(f"infeasible: {msg.split(' (')[0].split(':')[0]}")
            return
        event("planned")
        model = DetectionModel.from_config(cfg)
        for runner, (plan, trace) in runs.items():
            assert plan.feasible
            for exp in trace.expansion_points:
                assert exact_feasible(exact_feasibility(
                    exp.traj_tilde, exp.p_tilde, exp.r_tilde, cfg, model), cfg)
            assert np.all(np.diff(trace.objectives) >= 0.0), trace.objectives
            assert plan_bytes(*runner(cfg)) == plan_bytes(plan, trace)
        assert runs[run_jtp][0].actr >= runs[run_stp][0].actr - 1e-6
