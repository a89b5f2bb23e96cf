"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Heavy artifacts (the flight-period sweep and the trend runs) are computed once
per session and shared. Run with -s to watch the lines as they appear.
"""

import math
import time

import numpy as np
import pytest
from covertuav import cvxsolver
from covertuav.convexify import (
    assemble_subproblem,
    exact_feasibility,
    exact_feasible,
    g1,
    g2,
    g3,
    g4,
    g5,
)
from covertuav.cvxsolver import solve
from covertuav.detection import (
    DetectionModel,
    false_alarm,
    lambda_of,
    min_total_error,
    miss_detection,
    xi_lower_bound,
)
from covertuav.scenario import baseline_config
from covertuav.sca import run_jtp, run_stp
from covertuav.validate import (
    McSettings,
    ks_gaussian_approx,
    validate_plan,
    xi_bar_quadrature,
)

SWEEP_T = (200.0, 210.0, 250.0, 300.0)
MC_SEED = 424242


def report(num: int, ok: bool, text: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def sweep_runs():
    """(T, scheme) -> (plan, trace, cfg, wall_seconds) for the study sweep."""
    runs = {}
    for t in SWEEP_T:
        cfg = baseline_config(flight_period_T=t)
        for scheme, runner in (("JTP", run_jtp), ("STP", run_stp)):
            t0 = time.time()
            plan, trace = runner(cfg)
            runs[(t, scheme)] = (plan, trace, cfg, time.time() - t0)
    return runs


@pytest.fixture(scope="session")
def trend_runs():
    """Joint-scheme runs for the qualitative trend comparisons, at T = 250 s."""
    out = {}
    cases = {
        "rho_db_1": dict(noise_uncertainty_rho=10.0 ** 0.1),
        "var_bob_5": dict(var_bob=5.0),
        "var_bob_100": dict(var_bob=100.0),
        "var_willie_5": dict(var_willie=5.0),
        "var_willie_100": dict(var_willie=100.0),
    }
    for name, kw in cases.items():
        cfg = baseline_config(flight_period_T=250.0, **kw)
        plan, trace = run_jtp(cfg)
        out[name] = (plan, trace, cfg)
    return out


class TestCriterion1:
    def test_minimum_time_coincidence(self, sweep_runs):
        jtp, _, cfg, t_j = sweep_runs[(200.0, "JTP")]
        stp, _, _, t_s = sweep_runs[(200.0, "STP")]
        line_y = cfg.q_init[1]
        dev_j = float(np.max(np.abs(jtp.trajectory.waypoints[:, 1] - line_y)))
        dev_s = float(np.max(np.abs(stp.trajectory.waypoints[:, 1] - line_y)))
        # waypoint x-coordinates must also march along the segment
        x_line = np.linspace(cfg.q_init[0], cfg.q_final[0], cfg.num_slots_N + 1)[1:]
        dev_jx = float(np.max(np.abs(jtp.trajectory.waypoints[:, 0] - x_line)))
        gap = abs(jtp.actr - stp.actr)
        ok = (dev_j < 1.0 and dev_s < 1.0 and dev_jx < 1.0
              and gap <= 1e-3 and (t_j + t_s) <= 600.0)
        report(1, ok,
               f"T=200 s straight line: max deviation JTP {dev_j:.3f} m / "
               f"STP {dev_s:.3f} m (x: {dev_jx:.3f} m), |ACTR gap| {gap:.2e} "
               f"bits/s/Hz, runtime {t_j + t_s:.0f} s")


class TestCriterion2:
    def test_dominance_and_monotonicity(self, sweep_runs):
        total_time = sum(v[3] for v in sweep_runs.values())
        dominance = all(
            sweep_runs[(t, "JTP")][0].actr >= sweep_runs[(t, "STP")][0].actr - 1e-6
            for t in SWEEP_T)
        mono = {}
        for scheme in ("JTP", "STP"):
            actrs = [sweep_runs[(t, scheme)][0].actr for t in SWEEP_T]
            mono[scheme] = all(b >= a - 1e-4 for a, b in zip(actrs, actrs[1:]))
        ok = dominance and mono["JTP"] and mono["STP"] and total_time <= 3600.0
        summary = ", ".join(
            f"T={t:.0f}: {sweep_runs[(t, 'JTP')][0].actr:.4f}/"
            f"{sweep_runs[(t, 'STP')][0].actr:.4f}" for t in SWEEP_T)
        report(2, ok,
               f"joint>=power-only and nondecreasing in T ({summary}), "
               f"sweep runtime {total_time:.0f} s")


class TestCriterion3:
    def test_hover_emergence(self, sweep_runs):
        plan, _, cfg, _ = sweep_runs[(300.0, "JTP")]
        steps = plan.trajectory.step_lengths(cfg.q_init)
        near = np.linalg.norm(plan.trajectory.waypoints - cfg.bob_est, axis=1)
        hover = int(np.count_nonzero((steps[1:] < 0.1) & (near[:-1] < 50.0)))
        report(3, hover >= 1,
               f"T=300 s joint plan hovers: {hover} slots with step < 0.1 m "
               f"within 50 m of the receiver estimate")


class TestCriterion4:
    def test_chance_constraints_validated(self, sweep_runs):
        mc = McSettings(num_samples=1_000_000, rng_seed=MC_SEED)
        worst_outage, worst_xi, all_ok = -1.0, 2.0, True
        for (t, scheme), (plan, _, cfg, _) in sorted(sweep_runs.items()):
            rep = validate_plan(plan, cfg, mc)
            worst_outage = max(worst_outage, float(np.max(rep.outage)))
            worst_xi = min(worst_xi, float(np.min(rep.xi_bar)))
            wilson_consistent = bool(
                np.all((rep.outage_ci[:, 0] <= rep.outage + 1e-12)
                       & (rep.outage <= rep.outage_ci[:, 1] + 1e-12)))
            ok = (np.all(rep.outage <= cfg.rho_b)
                  and np.all(rep.xi_bar >= 1.0 - cfg.rho_w)
                  and rep.bound_ok and wilson_consistent)
            all_ok = all_ok and bool(ok)
        report(4, all_ok,
               f"10^6-sample audit of all 8 plans (seed {MC_SEED}): worst "
               f"outage {worst_outage:.4f} <= 0.05, worst mean error rate "
               f"{worst_xi:.4f} >= 0.95, Wilson intervals consistent")


class TestCriterion5:
    def test_threshold_optimality_oracle(self, cfg):
        model = DetectionModel.from_config(cfg)
        span = model.noise_high - model.noise_low
        e_grid = np.concatenate([
            np.linspace(1e-4 * span, 0.999 * span, 48),
            [1e-6 * span, 0.5 * span],
        ])
        worst = 0.0
        for ew in e_grid:
            p_grid = np.linspace(model.noise_low, ew + model.noise_high, 200_001)
            tot = false_alarm(p_grid, model) + miss_detection(p_grid, ew, model)
            _, xi = min_total_error(float(ew), model)
            worst = max(worst, abs(xi - float(np.min(tot))))
        report(5, worst <= 1e-4,
               f"closed-form minimum error rate vs dense threshold grid on 50 "
               f"signal levels: worst gap {worst:.2e} <= 1e-4")


class TestCriterion6:
    def test_error_rate_lower_bound_on_grid(self, cfg):
        model = DetectionModel.from_config(cfg)
        lam_grid = np.logspace(math.log10(10.0), math.log10(5000.0), 20)
        p_grid = np.logspace(math.log10(1e-4), math.log10(0.4), 20)
        worst = math.inf
        violations = 0
        for lam in lam_grid:
            for p in p_grid:
                margin = (xi_bar_quadrature(float(lam), float(p), model)
                          - float(xi_lower_bound(lam, p, model)))
                worst = min(worst, margin)
                violations += int(margin < 0.0)
        report(6, violations == 0,
               f"quadrature average error rate >= closed-form bound on the "
               f"20x20 grid: {violations} violations, worst margin {worst:.2e}")


class TestCriterion7:
    def test_gaussian_approximation_quality(self):
        ks100 = ks_gaussian_approx(100.0)
        ks1600 = ks_gaussian_approx(1600.0)
        ks0 = ks_gaussian_approx(0.0)  # reported, not asserted
        report(7, ks100 < 0.02 and ks1600 < 0.005,
               f"KS(exact, normal) = {ks100:.4f} at lam=100 (< 0.02), "
               f"{ks1600:.4f} at lam=1600 (< 0.005); lam=0 gives {ks0:.4f} "
               f"(documented, small-lam regime excluded)")


class TestCriterion8:
    N = 10_000

    def test_surrogate_suite(self, cfg, rng):
        model = DetectionModel.from_config(cfg)
        w = cfg.willie_est
        bad = []

        p = rng.uniform(1e-4, 0.4, self.N)
        p_t = rng.uniform(1e-4, 0.4, self.N)
        r = rng.uniform(0.01, 10.0, self.N)
        r_t = rng.uniform(0.01, 10.0, self.N)
        true1 = cfg.gamma0 * p / (np.exp2(r) - 1.0)
        if not np.all(g1(p, r, p_t, r_t, cfg.gamma0) <= true1 * (1 + 1e-12) + 1e-9):
            bad.append("g1 bound")

        q = w + rng.uniform(-400, 400, (self.N, 2))
        q_t = w + rng.uniform(-400, 400, (self.N, 2))
        u1 = rng.uniform(1e-8, 2.0, self.N)
        u1_t = rng.uniform(1e-8, 2.0, self.N)
        lam = np.sum((q - w) ** 2, axis=1) / cfg.var_willie
        true2 = np.sqrt((lam + 1.0) * u1)
        if not np.all(g2(q, u1, q_t, u1_t, w, cfg.var_willie) >= true2 - 1e-9):
            bad.append("g2 bound")

        pp = rng.uniform(0.0, 0.4, self.N)
        pp_t = rng.uniform(0.0, 0.4, self.N)
        bw = model.beta1 * cfg.var_willie
        true3 = np.log1p(bw * pp / cfg.altitude_H**2)
        if not np.all(g3(pp, pp_t, model) >= true3 - 1e-12):
            bad.append("g3 bound")

        true4 = np.log(lam + 2.0 + model.h2_over_var + model.beta1 * pp)
        if not np.all(g4(q, pp, q_t, pp_t, model, w) >= true4 * (1 - 1e-12) - 1e-12):
            bad.append("g4 bound")

        if not np.all(g5(q, q_t, w, cfg.var_willie) <= lam + 1e-9):
            bad.append("g5 bound")

        # tangency: values to 1e-12 relative, gradients to 1e-6 relative
        # against central differences of the true functions
        def cd(f, x, h):
            return (f(x + h) - f(x - h)) / (2.0 * h)

        for _ in range(200):
            pt = float(rng.uniform(1e-4, 0.4))
            rt = float(rng.uniform(0.01, 10.0))
            qt = w + rng.uniform(-300.0, 300.0, 2)
            ut = float(rng.uniform(1e-6, 1.0))
            lam_t = float(np.sum((qt - w) ** 2)) / cfg.var_willie

            checks = [
                (float(g1(pt, rt, pt, rt, cfg.gamma0)),
                 cfg.gamma0 * pt / (2.0**rt - 1.0)),
                (float(g2(qt, ut, qt, ut, w, cfg.var_willie)),
                 math.sqrt((lam_t + 1.0) * ut)),
                (float(g3(pt, pt, model)),
                 math.log1p(bw * pt / cfg.altitude_H**2)),
                (float(g4(qt, pt, qt, pt, model, w)),
                 math.log(lam_t + 2.0 + model.h2_over_var + model.beta1 * pt)),
                (float(g5(qt, qt, w, cfg.var_willie)), lam_t),
            ]
            for got, want in checks:
                if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                    bad.append("tangency value")
                    break

            grads = [
                (float(g1(pt + 1e-9, rt, pt, rt, cfg.gamma0)
                       - g1(pt - 1e-9, rt, pt, rt, cfg.gamma0)) / 2e-9,
                 cd(lambda x: cfg.gamma0 * x / (2.0**rt - 1.0), pt, 1e-9)),
                (float(g1(pt, rt + 1e-7, pt, rt, cfg.gamma0)
                       - g1(pt, rt - 1e-7, pt, rt, cfg.gamma0)) / 2e-7,
                 cd(lambda x: cfg.gamma0 * pt / (2.0**x - 1.0), rt, 1e-7)),
                (float(g2(qt, ut * (1 + 1e-7), qt, ut, w, cfg.var_willie)
                       - g2(qt, ut * (1 - 1e-7), qt, ut, w, cfg.var_willie))
                 / (2e-7 * ut),
                 cd(lambda x: math.sqrt((lam_t + 1.0) * x), ut, 1e-7 * ut)),
                (float(g3(pt + 1e-9, pt, model) - g3(pt - 1e-9, pt, model)) / 2e-9,
                 cd(lambda x: math.log1p(bw * x / cfg.altitude_H**2), pt, 1e-9)),
                (float(g4(qt, pt + 1e-9, qt, pt, model, w)
                       - g4(qt, pt - 1e-9, qt, pt, model, w)) / 2e-9,
                 cd(lambda x: math.log(lam_t + 2.0 + model.h2_over_var
                                       + model.beta1 * x), pt, 1e-9)),
            ]
            for got, want in grads:
                if abs(got - want) > 1e-6 * max(abs(want), 1e-9):
                    bad.append("tangency gradient")
                    break
            # coordinate gradients of the two position-dependent surrogates
            for axis in range(2):
                h = 1e-5 * max(abs(qt[axis]), 1.0)
                e = np.zeros(2)
                e[axis] = h
                got2 = float(g2(qt + e, ut, qt, ut, w, cfg.var_willie)
                             - g2(qt - e, ut, qt, ut, w, cfg.var_willie)) / (2 * h)
                want2 = cd(lambda x: math.sqrt(
                    ((np.sum((np.where(np.arange(2) == axis, x, qt) - w) ** 2))
                     / cfg.var_willie + 1.0) * ut), qt[axis], h)
                if abs(got2 - want2) > 1e-6 * max(abs(want2), 1e-9):
                    bad.append("g2 coordinate gradient")
                del got2, want2
            if bad:
                break

        report(8, not bad,
               f"surrogate bounds on 10^4 points each and tangency "
               f"value/gradient checks: {'all hold' if not bad else bad}")


class TestCriterion9:
    def test_sca_convergence_discipline(self, sweep_runs):
        ok = True
        notes = []
        for (t, scheme), (plan, trace, cfg, _) in sorted(sweep_runs.items()):
            objs = np.array(trace.objectives)
            monotone = bool(np.all(np.diff(objs) >= -1e-6))
            converged = (trace.stop_reason == "converged"
                         and trace.subproblem_solves <= 100
                         and abs(objs[-1] - objs[-2]) <= 1e-4)
            model = DetectionModel.from_config(cfg)
            feasible = all(
                exact_feasible(
                    exact_feasibility(e.traj_tilde, e.p_tilde, e.r_tilde, cfg, model),
                    cfg)
                for e in trace.expansion_points)
            ok = ok and monotone and converged and feasible
            notes.append(f"{scheme}@{t:.0f}:{trace.subproblem_solves}it")
        report(9, ok,
               "objective histories nondecreasing, tolerance met within 100 "
               f"iterations, every iterate exactly feasible ({', '.join(notes)})")


class TestCriterion10:
    def test_solver_correctness(self, rng, small_cfg, monkeypatch):
        # generated strictly convex QPs with interior optima, via epigraph
        from test_cvxsolver import QuadEpigraph, box_family

        from covertuav.cvxsolver import BarrierProblem

        monkeypatch.setattr(cvxsolver, "KKT_TOL", 1e-8)
        monkeypatch.setattr(cvxsolver, "MAX_ITERS", 400)
        qp_ok = True
        worst_rel = 0.0
        for _ in range(10):
            n = int(rng.integers(2, 7))
            A = rng.normal(size=(n, n))
            Q = A.T @ A + np.eye(n)
            b = rng.normal(size=n) * 3.0
            x_star = -np.linalg.solve(Q, b)
            f_star = 0.5 * x_star @ Q @ x_star + b @ x_star
            if abs(f_star) < 0.5:
                b *= 2.0 / max(abs(f_star), 1e-3)
                x_star = -np.linalg.solve(Q, b)
                f_star = 0.5 * x_star @ Q @ x_star + b @ x_star
            hi = np.abs(x_star) * 4.0 + 10.0
            obj = np.zeros(n + 1)
            obj[n] = 1.0
            prob = BarrierProblem(
                obj, [QuadEpigraph(Q, b),
                      box_family(np.append(-hi, -1e6), np.append(hi, 1e6))],
                np.append(np.zeros(n), 1.0), np.ones(n + 1))
            res = solve(prob)
            rel = abs(res.objective - f_star) / max(1.0, abs(f_star))
            worst_rel = max(worst_rel, rel)
            qp_ok = qp_ok and res.status == "optimal" and rel < 1e-7

        # single-slot subproblem against an independent grid-search oracle
        from test_sca import TestDegenerateSingleSlot

        cfg1 = baseline_config(
            flight_period_T=1.0, q_init=(0.0, 0.0), q_final=(0.0, 0.0),
            bob_est=(-10.0, 30.0), willie_est=(10.0, 30.0))
        case = TestDegenerateSingleSlot()
        try:
            case.test_matches_grid_search_oracle(cfg1, monkeypatch)
            toy_ok = True
        except AssertionError:
            toy_ok = False
        report(10, qp_ok and toy_ok,
               f"QP set solved to {worst_rel:.1e} relative objective error "
               f"(< 1e-7); single-slot subproblem matches its grid oracle "
               f"within 1e-4")


class TestCriterion11:
    def test_parameter_trends(self, sweep_runs, trend_runs):
        base = sweep_runs[(250.0, "JTP")][0].actr  # rho_db=3, vars=25
        rho1 = trend_runs["rho_db_1"][0].actr
        eb5 = trend_runs["var_bob_5"][0].actr
        eb100 = trend_runs["var_bob_100"][0].actr
        ew5 = trend_runs["var_willie_5"][0].actr
        ew100 = trend_runs["var_willie_100"][0].actr
        slack = 1e-4
        noise_trend = base >= rho1 - slack
        bob_trend = eb5 >= base - slack and base >= eb100 - slack
        willie_trend = ew5 >= base - slack and base >= ew100 - slack
        ok = noise_trend and bob_trend and willie_trend
        report(11, ok,
               f"rate rises with warden noise spread ({rho1:.4f} -> {base:.4f}) "
               f"and falls as location uncertainty grows "
               f"(receiver: {eb5:.4f}/{base:.4f}/{eb100:.4f}; "
               f"warden: {ew5:.4f}/{base:.4f}/{ew100:.4f})")
