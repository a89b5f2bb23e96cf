import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertuav.convexify import (
    ConvexSubproblem,
    ExpansionPoint,
    InfeasibleExpansionError,
    assemble_subproblem,
    bti_outage_residuals,
    covertness_residuals,
    exact_feasibility,
    g1,
    g2,
    g3,
    g4,
    g5,
)
from covertuav.cvxsolver import row_label
from covertuav.detection import DetectionModel, lambda_of, xi_lower_bound
from covertuav.scenario import PowerSchedule
from covertuav.sca import initial_point
from test_cvxsolver import expand_hessians


@pytest.fixture(scope="module")
def model(cfg):
    return DetectionModel.from_config(cfg)


def true_g1(p, r, gamma0):
    return gamma0 * p / (np.exp2(r) - 1.0)


def true_g2(q, u1, willie, var_w):
    lam = np.sum((np.asarray(q) - willie) ** 2, axis=-1) / var_w
    return np.sqrt((lam + 1.0) * u1)


def true_g3(p, model):
    return np.log1p(model.beta1 * model.var_willie * p / model.altitude_H**2)


def true_g4(q, p, model, willie):
    lam = np.sum((np.asarray(q) - willie) ** 2, axis=-1) / model.var_willie
    return np.log(lam + 2.0 + model.h2_over_var + model.beta1 * p)


def true_g5(q, willie, var_w):
    return np.sum((np.asarray(q) - willie) ** 2, axis=-1) / var_w


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestSurrogateTangency:
    """Each surrogate equals its target at the expansion point, with matching
    gradient (central differences)."""

    def test_g1_value_and_gradient(self, cfg, rng):
        for _ in range(50):
            p_t = rng.uniform(1e-4, 0.4)
            r_t = rng.uniform(0.01, 10.0)
            assert g1(p_t, r_t, p_t, r_t, cfg.gamma0) == pytest.approx(
                true_g1(p_t, r_t, cfg.gamma0), rel=1e-12)
            hp, hr = 1e-7 * p_t, 1e-7 * max(r_t, 1.0)
            dp_s = central_diff(lambda p: g1(p, r_t, p_t, r_t, cfg.gamma0), p_t, hp)
            dp_t = central_diff(lambda p: true_g1(p, r_t, cfg.gamma0), p_t, hp)
            dr_s = central_diff(lambda r: g1(p_t, r, p_t, r_t, cfg.gamma0), r_t, hr)
            dr_t = central_diff(lambda r: true_g1(p_t, r, cfg.gamma0), r_t, hr)
            assert dp_s == pytest.approx(dp_t, rel=1e-6)
            assert dr_s == pytest.approx(dr_t, rel=1e-6)

    def test_g2_value_and_gradient(self, cfg, model, rng):
        w = cfg.willie_est
        for _ in range(50):
            q_t = w + rng.uniform(-300, 300, size=2)
            u1_t = rng.uniform(1e-6, 1.0)
            val = g2(q_t, u1_t, q_t, u1_t, w, cfg.var_willie)
            assert val == pytest.approx(true_g2(q_t, u1_t, w, cfg.var_willie), rel=1e-12)
            hu = 1e-7 * u1_t
            du_s = central_diff(lambda u: g2(q_t, u, q_t, u1_t, w, cfg.var_willie), u1_t, hu)
            du_t = central_diff(lambda u: true_g2(q_t, u, w, cfg.var_willie), u1_t, hu)
            assert du_s == pytest.approx(du_t, rel=1e-6)
            for axis in range(2):
                hq = 1e-6 * max(abs(q_t[axis]), 1.0)

                def s_axis(x, axis=axis):
                    qq = q_t.copy(); qq[axis] = x
                    return g2(qq, u1_t, q_t, u1_t, w, cfg.var_willie)

                def t_axis(x, axis=axis):
                    qq = q_t.copy(); qq[axis] = x
                    return true_g2(qq, u1_t, w, cfg.var_willie)

                ds = central_diff(s_axis, q_t[axis], hq)
                dt = central_diff(t_axis, q_t[axis], hq)
                assert ds == pytest.approx(dt, rel=1e-5, abs=1e-12)

    def test_g3_g4_g5_tangency(self, cfg, model, rng):
        w = cfg.willie_est
        for _ in range(50):
            p_t = rng.uniform(0.0, 0.4)
            q_t = w + rng.uniform(-300, 300, size=2)
            assert g3(p_t, p_t, model) == pytest.approx(true_g3(p_t, model), rel=1e-12)
            assert g4(q_t, p_t, q_t, p_t, model, w) == pytest.approx(
                true_g4(q_t, p_t, model, w), rel=1e-12)
            assert g5(q_t, q_t, w, cfg.var_willie) == pytest.approx(
                true_g5(q_t, w, cfg.var_willie), rel=1e-12, abs=1e-12)
            hp = 1e-7 * max(p_t, 1e-3)
            d3s = central_diff(lambda p: g3(p, p_t, model), p_t, hp)
            d3t = central_diff(lambda p: true_g3(p, model), p_t, hp)
            assert d3s == pytest.approx(d3t, rel=1e-6)
            d4s = central_diff(lambda p: g4(q_t, p, q_t, p_t, model, w), p_t, hp)
            d4t = central_diff(lambda p: true_g4(q_t, p, model, w), p_t, hp)
            assert d4s == pytest.approx(d4t, rel=1e-6)

    def test_g3_tangent_at_origin(self, model):
        # at p_t = 0 the bound is the tangent through the origin
        p = np.linspace(0.0, 0.4, 17)
        expect = model.beta1 * model.var_willie * p / model.altitude_H**2
        assert np.allclose(g3(p, 0.0, model), expect, rtol=1e-12)

    def test_g4_power_slope_constant(self, cfg, model):
        w = cfg.willie_est
        q_t = np.array([0.0, 150.0])
        p_t = 0.05
        lam_t = lambda_of(q_t, w, cfg.var_willie)
        denom = lam_t + 2.0 + model.h2_over_var + model.beta1 * p_t
        for p in [0.0, 0.1, 0.3]:
            h = 1e-6
            slope = central_diff(lambda x: g4(q_t, x, q_t, p_t, model, w), p, h)
            assert slope == pytest.approx(model.beta1 / denom, rel=1e-8)

    def test_g5_degenerate_tangent(self, cfg, rng):
        w = cfg.willie_est
        for _ in range(20):
            q = w + rng.uniform(-200, 200, size=2)
            assert g5(q, w, w, cfg.var_willie) == 0.0


class TestSurrogateBounds:
    """Bounding direction on randomized domains (the safe side of each)."""

    N_PTS = 10_000

    def test_g1_lower_bounds_true(self, cfg, rng):
        p = rng.uniform(1e-4, 0.4, self.N_PTS)
        p_t = rng.uniform(1e-4, 0.4, self.N_PTS)
        r = rng.uniform(0.01, 10.0, self.N_PTS)
        r_t = rng.uniform(0.01, 10.0, self.N_PTS)
        lhs = g1(p, r, p_t, r_t, cfg.gamma0)
        rhs = true_g1(p, r, cfg.gamma0)
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-9)

    def test_g2_upper_bounds_true(self, cfg, rng):
        w = cfg.willie_est
        q = w + rng.uniform(-400, 400, (self.N_PTS, 2))
        q_t = w + rng.uniform(-400, 400, (self.N_PTS, 2))
        u1 = rng.uniform(1e-8, 2.0, self.N_PTS)
        u1_t = rng.uniform(1e-8, 2.0, self.N_PTS)
        lhs = g2(q, u1, q_t, u1_t, w, cfg.var_willie)
        rhs = true_g2(q, u1, w, cfg.var_willie)
        assert np.all(lhs >= rhs - 1e-9 - 1e-12 * np.abs(rhs))

    def test_g3_upper_bounds_true(self, cfg, model, rng):
        p = rng.uniform(0.0, 0.4, self.N_PTS)
        p_t = rng.uniform(0.0, 0.4, self.N_PTS)
        assert np.all(g3(p, p_t, model) >= true_g3(p, model) - 1e-12)

    def test_g4_upper_bounds_true(self, cfg, model, rng):
        w = cfg.willie_est
        q = w + rng.uniform(-400, 400, (self.N_PTS, 2))
        q_t = w + rng.uniform(-400, 400, (self.N_PTS, 2))
        p = rng.uniform(0.0, 0.4, self.N_PTS)
        p_t = rng.uniform(0.0, 0.4, self.N_PTS)
        lhs = g4(q, p, q_t, p_t, model, w)
        rhs = true_g4(q, p, model, w)
        assert np.all(lhs >= rhs - 1e-12 * np.abs(rhs))

    def test_g5_lower_bounds_true(self, cfg, rng):
        w = cfg.willie_est
        q = w + rng.uniform(-400, 400, (self.N_PTS, 2))
        q_t = w + rng.uniform(-400, 400, (self.N_PTS, 2))
        lhs = g5(q, q_t, w, cfg.var_willie)
        rhs = true_g5(q, w, cfg.var_willie)
        assert np.all(lhs <= rhs + 1e-9)


class TestOutageResiduals:
    def test_slack_floor_from_identity_block(self, cfg):
        # the cone row at q = bob_est pins z1 to sqrt(2) * var_bob
        q = cfg.bob_est[None, :]
        _, res_b, _ = bti_outage_residuals(
            q, np.array([0.01]), np.array([0.1]), np.array([25.0]),
            np.array([0.0]), cfg)
        need = math.sqrt(2.0) * cfg.var_bob
        assert need == pytest.approx(35.35533905932738, rel=1e-12)
        assert res_b[0] == pytest.approx(need, rel=1e-12)  # z1 = 0 here

    def test_trace_constant(self, cfg):
        # residual A carries the 2x2 identity trace term: 2 * var_bob = 50
        q = cfg.bob_est[None, :]
        y1 = np.array([cfg.var_bob])
        z1 = np.array([math.sqrt(2.0) * cfg.var_bob])
        p, r = np.array([0.01]), np.array([1.0])
        res_a, _, _ = bti_outage_residuals(q, p, r, y1, z1, cfg)
        s_b = math.sqrt(-2.0 * math.log(cfg.rho_b))
        a_b = -math.log(cfg.rho_b)
        expect = (2.0 * cfg.var_bob + s_b * z1[0] + a_b * y1[0]
                  + cfg.altitude_H**2 - cfg.gamma0 * p[0] / (2.0**r[0] - 1.0))
        assert res_a[0] == pytest.approx(expect, rel=1e-12)

    def test_conservative_implication_monte_carlo(self, cfg, rng):
        # satisfied residuals imply empirical outage below the target
        q = np.array([50.0, 200.0])
        dist2 = float(np.sum((q - cfg.bob_est) ** 2))
        y1 = cfg.var_bob
        z1 = math.sqrt(2.0 * cfg.var_bob**2 + 2.0 * cfg.var_bob * dist2)
        p = 0.05
        s_b = math.sqrt(-2.0 * math.log(cfg.rho_b))
        a_b = -math.log(cfg.rho_b)
        k = 2.0 * cfg.var_bob + s_b * z1 + a_b * y1 + dist2 + cfg.altitude_H**2
        r = math.log2(1.0 + cfg.gamma0 * p / k)  # residual A exactly zero
        res_a, res_b, res_c = bti_outage_residuals(
            q[None, :], np.array([p]), np.array([r]), np.array([y1]),
            np.array([z1]), cfg)
        assert res_a[0] <= 1e-9 and res_b[0] <= 1e-12 and res_c[0] <= 0.0
        e_b = rng.normal(0.0, math.sqrt(cfg.var_bob), size=(1_000_000, 2))
        d = q - cfg.bob_est - e_b
        snr = p * cfg.gamma0 / (np.sum(d * d, axis=1) + cfg.altitude_H**2)
        outage = float(np.mean(np.log2(1.0 + snr) < r))
        assert outage <= cfg.rho_b

    def test_length_consistency(self, cfg, rng):
        n = 7
        q = rng.uniform(-100, 100, (n, 2))
        out = bti_outage_residuals(q, np.full(n, 0.01), np.full(n, 0.5),
                                   np.full(n, 25.0), np.full(n, 40.0), cfg)
        assert all(len(o) == n for o in out)


class TestCovertnessResiduals:
    def test_initial_point_satisfies_all(self, cfg):
        exp = initial_point(cfg)
        model = DetectionModel.from_config(cfg)
        lam = lambda_of(exp.traj_tilde.waypoints, cfg.willie_est, cfg.var_willie)
        d, e, f = covertness_residuals(
            exp.traj_tilde.waypoints, exp.p_tilde.powers, exp.t_tilde ** 2,
            lam + 1.0, exp, model, cfg.rho_w, cfg.willie_est)
        assert np.all(d <= 1e-9)
        assert np.all(e <= 1e-9)
        assert np.all(f <= 1e-9)

    def test_satisfied_residuals_imply_error_rate_floor(self, cfg):
        # back-substitution: subproblem covertness feasibility gives the
        # closed-form bound at the actual (q, P)
        exp = initial_point(cfg)
        model = DetectionModel.from_config(cfg)
        xi = xi_lower_bound(
            lambda_of(exp.traj_tilde.waypoints, cfg.willie_est, cfg.var_willie),
            exp.p_tilde.powers, model)
        assert np.all(xi >= 1.0 - cfg.rho_w - 1e-9)

    def test_zero_power_slot_feasible(self, cfg):
        exp = initial_point(cfg)
        model = DetectionModel.from_config(cfg)
        lam = lambda_of(exp.traj_tilde.waypoints, cfg.willie_est, cfg.var_willie)
        d, e, f = covertness_residuals(
            exp.traj_tilde.waypoints, np.zeros(cfg.num_slots_N), exp.t_tilde ** 2,
            lam + 1.0, exp, model, cfg.rho_w, cfg.willie_est)
        assert np.all(d <= 1e-9) and np.all(e <= 1e-9) and np.all(f <= 1e-9)


@pytest.fixture(scope="module")
def sub(cfg):
    return assemble_subproblem(initial_point(cfg), cfg)


class TestAssembledSubproblem:
    def test_layout_counts(self, cfg, sub):
        n = cfg.num_slots_N
        # final waypoint eliminated: 5 scalars (qx, qy, p, r, t) for n-1
        # slots, 3 for the last
        assert sub.n_var == 5 * n - 2
        # four families: every step (the first and last against a fixed
        # end), the budget, three simple bounds and three rows per slot
        by_name = {f.name: f.m for f in sub.families}
        assert by_name == {"mobility": n, "power_avg": 1, "bounds": 3 * n, "slot": 3 * n}
        first_slot_row = n + 1 + 3 * n  # the slot family comes last
        assert [row_label(sub.families, first_slot_row + r) for r in range(6)] == [
            "outage_A[0]", "covert_D[0]", "covert_E[0]",
            "outage_A[1]", "covert_D[1]", "covert_E[1]"]
        m = sum(f.m for f in sub.families)
        assert m == 7 * n + 1
        assert row_label(sub.families, m - 1) == f"covert_E[{n - 1}]"
        stp = assemble_subproblem(sub.expansion, cfg, fixed_trajectory=True)
        assert {f.name: f.m for f in stp.families} == {
            "power_avg": 1, "bounds": 3 * n, "slot": 3 * n}

    def test_bound_rows_in_slot_order(self, cfg, sub):
        # three rows per slot, slot by slot: peak power, power floor, rate
        # floor; row E keeps t positive, so t has no bound row
        bounds = next(f for f in sub.families if f.name == "bounds")
        lay = sub.layout
        kinds = ("power_peak", "power_floor", "rate_floor")
        assert [row_label([bounds], r) for r in range(6)] == [
            f"{k}[{i}]" for i in (0, 1) for k in kinds]
        assert np.array_equal(bounds.idx[:, 0].reshape(-1, 3),
                              np.stack([lay.p, lay.p, lay.r], axis=1))

    def test_row_labels_follow_the_scheme(self, small_cfg):
        # every row of the JTP and STP subproblems is kind[i], slot by slot
        # within a family: the step caps, the budget, then each slot's bound
        # rows and its slot-family rows in their declared order
        n = small_cfg.num_slots_N
        exp = initial_point(small_cfg)
        for fixed in (False, True):
            sub = assemble_subproblem(exp, small_cfg, fixed_trajectory=fixed)
            expect = [] if fixed else [f"mobility[{i}]" for i in range(n)]
            expect.append("power_avg[0]")
            for kinds in (("power_peak", "power_floor", "rate_floor"),
                          ("outage_A", "covert_D", "covert_E")):
                expect += [f"{k}[{i}]" for i in range(n) for k in kinds]
            m = sum(f.m for f in sub.families)
            assert [row_label(sub.families, r) for r in range(m)] == expect
            with pytest.raises(IndexError):
                row_label(sub.families, m)

    def test_start_strictly_feasible(self, sub):
        assert float(np.max(sub.eval_values(sub.start))) < 0.0

    def test_expansion_point_residuals_nonpositive(self, cfg, sub):
        # the start is the expansion point itself, bit for bit (t at its
        # tangency value), and every surrogate row is strictly negative there
        exp = sub.expansion
        lay = sub.layout
        free = lay.qx >= 0
        v = np.empty(sub.n_var)
        v[lay.qx[free]] = exp.traj_tilde.waypoints[free, 0]
        v[lay.qy[free]] = exp.traj_tilde.waypoints[free, 1]
        v[lay.p] = exp.p_tilde.powers
        v[lay.r] = exp.r_tilde.rates
        v[lay.t] = exp.t_tilde
        assert np.array_equal(v, sub.start)
        assert float(np.max(sub.eval_values(v))) < 0.0

    def test_family_gradients_match_finite_differences(self, sub, rng):
        # linear families return their stored coefficients; only the
        # nonlinear rows have gradients worth differencing
        v = sub.start.copy()
        for fam in sub.families:
            if fam.is_linear:
                continue
            V0 = fam.gather(v)
            blocks = rng.choice(len(V0), size=min(3, len(V0)), replace=False)
            for blk in blocks:
                grad = fam.grads(V0).reshape(len(V0), fam.rows, fam.k)[blk]
                for col in np.nonzero(fam.idx[blk] >= 0)[0]:
                    h = 1e-6 * max(abs(V0[blk, col]), 1e-9)

                    def f(x):
                        W = V0.copy()
                        W[blk, col] = x
                        return fam.values(W).reshape(len(V0), fam.rows)[blk]

                    num = central_diff(f, V0[blk, col], h)
                    assert grad[:, col] == pytest.approx(num, rel=1e-4, abs=1e-6), \
                        f"{fam.name} block {blk} col {col}"

    def test_family_hessians_match_finite_differences(self, sub, rng):
        v = sub.start.copy()
        for fam in sub.families:
            if fam.is_linear:
                continue
            V0 = fam.gather(v)
            blk = int(rng.integers(len(V0)))
            H = expand_hessians(fam, V0)[blk]
            for col in np.nonzero(fam.idx[blk] >= 0)[0]:
                h = 1e-6 * max(abs(V0[blk, col]), 1e-9)

                def grad_col(x):
                    W = V0.copy()
                    W[blk, col] = x
                    return fam.grads(W).reshape(len(V0), fam.rows, fam.k)[blk]

                num = (grad_col(V0[blk, col] + h) - grad_col(V0[blk, col] - h)) / (2 * h)
                scale = np.maximum(np.abs(H[:, :, col]), np.abs(num)) + 1e-9
                live = fam.idx[blk] >= 0
                assert np.all((np.abs(H[:, :, col] - num) <= 1e-4 * scale + 1e-6)[:, live]), \
                    f"{fam.name} block {blk} col {col}"

    @pytest.mark.parametrize("fixed", [False, True])
    def test_hessian_declarations_hold(self, cfg, rng, fixed):
        # hess returns the entries of the declared upper pattern, one per row
        # and pattern entry, and every entry between variables (not fixed
        # waypoints) is nonzero somewhere; that entries off the pattern vanish
        # is the finite-difference tests' job
        sub = assemble_subproblem(initial_point(cfg), cfg, fixed_trajectory=fixed)
        v = sub.start
        for fam in sub.families:
            if fam.is_linear or fam.m == 0:
                continue
            assert all(0 <= i <= j < fam.k for i, j in fam.hess_pattern), fam.name
            assert len(set(fam.hess_pattern)) == len(fam.hess_pattern), fam.name
            V = fam.gather(v)
            h = np.asarray(fam.hess(V)).reshape(len(V), fam.rows, len(fam.hess_pattern))
            live = (fam.idx >= 0)[:, None, :]
            for n, (i, j) in enumerate(fam.hess_pattern):
                on = np.broadcast_to(live[..., i] & live[..., j], h.shape[:2])
                assert not on.any() or np.any(on & (h[..., n] != 0.0)), \
                    (fam.name, i, j)

    def test_residual_midpoint_convexity(self, sub, rng):
        # random midpoint checks per family on in-domain perturbations of the
        # start (multiplicative jitter keeps the positive variables positive)
        v = sub.start
        lay = sub.layout
        q_cols = np.concatenate([lay.qx[lay.qx >= 0], lay.qy[lay.qy >= 0]])

        def jitter():
            # multiplicative on the positive variables, additive on coordinates
            out = v * np.exp(rng.normal(0, 0.2, v.size))
            out[q_cols] = v[q_cols] + rng.normal(0, 2.0, q_cols.size)
            return out

        for fam in sub.families:
            if fam.is_linear:
                continue
            checked = 0
            for _ in range(40):
                a = jitter()
                b = jitter()
                Va, Vb = a[fam.idx], b[fam.idx]
                Vm = 0.5 * (Va + Vb)
                with np.errstate(invalid="ignore", divide="ignore"):
                    fa, fb, fm = fam.values(Va), fam.values(Vb), fam.values(Vm)
                mask = np.isfinite(fa) & np.isfinite(fb) & np.isfinite(fm)
                if not np.any(mask):
                    continue
                checked += 1
                gap = fm[mask] - 0.5 * (fa + fb)[mask]
                tol = 1e-9 * (1.0 + np.abs(fa[mask]) + np.abs(fb[mask]))
                assert np.all(gap <= tol), fam.name
            assert checked >= 10, f"not enough in-domain samples for {fam.name}"

    def test_unpack_round_trip(self, cfg, sub):
        traj, powers, rates, t = sub.unpack(sub.start)
        assert len(traj) == cfg.num_slots_N
        assert np.array_equal(traj.waypoints, sub.expansion.traj_tilde.waypoints)
        assert np.allclose(traj.waypoints[-1], cfg.q_final)
        assert np.array_equal(powers.powers, sub.expansion.p_tilde.powers)
        assert np.array_equal(rates.rates, sub.expansion.r_tilde.rates)
        assert np.array_equal(t, sub.expansion.t_tilde)

    def test_infeasible_expansion_rejected(self, cfg):
        exp = initial_point(cfg)
        # within the power caps but far too loud to stay covert
        bad = ExpansionPoint(
            traj_tilde=exp.traj_tilde,
            p_tilde=PowerSchedule(np.full(cfg.num_slots_N, 0.05)),
            r_tilde=exp.r_tilde,
            t_tilde=exp.t_tilde,
        )
        with pytest.raises(InfeasibleExpansionError, match="covertness"):
            assemble_subproblem(bad, cfg)
        over = ExpansionPoint(
            traj_tilde=exp.traj_tilde,
            p_tilde=PowerSchedule(np.full(cfg.num_slots_N, cfg.p_peak_max)),
            r_tilde=exp.r_tilde,
            t_tilde=exp.t_tilde,
        )
        with pytest.raises(InfeasibleExpansionError, match="power"):
            assemble_subproblem(over, cfg)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_non_strict_warm_start_rejected(self, small_cfg, fixed):
        # at the start, row E is ln_a - t, and the initializer seeds t just
        # above ln_a; a warm-start t a millionth below that breaks it at one
        # slot, and the start is the warm start or nothing
        exp = initial_point(small_cfg)
        t = exp.t_tilde.copy()
        t[5] *= 1.0 - 1e-6
        nudged = ExpansionPoint(
            traj_tilde=exp.traj_tilde, p_tilde=exp.p_tilde, r_tilde=exp.r_tilde,
            t_tilde=t,
        )
        with pytest.raises(InfeasibleExpansionError,
                           match=r"covert_E\[5\]: start residual .* is not strictly negative"):
            assemble_subproblem(nudged, small_cfg, fixed_trajectory=fixed)


class TestStpAssembly:
    def test_fixed_trajectory_layout(self, cfg):
        exp = initial_point(cfg)
        sub = assemble_subproblem(exp, cfg, fixed_trajectory=True)
        n = cfg.num_slots_N
        assert sub.n_var == 3 * n
        names = {f.name for f in sub.families}
        assert "mobility" not in names
        assert float(np.max(sub.eval_values(sub.start))) < 0.0


def slack_oracle_rows(sub, v):
    """The reference oracles' outage A, covertness D and covertness E rows at
    the subproblem point v, with each slack at its closed-form optimum and
    u1 = t^2, and each row's scale (its largest term, where its rounding
    lives): two (slots, 3) arrays, plus row F, which the optimum makes
    tight."""
    cfg, exp = sub.cfg, sub.expansion
    model = DetectionModel.from_config(cfg)
    lay = sub.layout
    q = sub.unpack(v)[0].waypoints
    p, r, t = v[lay.p], v[lay.r], v[lay.t]
    dist2 = np.sum((q - cfg.bob_est) ** 2, axis=1)
    res_a, _, _ = bti_outage_residuals(
        q, p, r, np.full(len(q), cfg.var_bob),
        np.sqrt(2.0 * cfg.var_bob**2 + 2.0 * cfg.var_bob * dist2), cfg,
        p_t=exp.p_tilde.powers, r_t=exp.r_tilde.rates)
    slack = g5(q, exp.traj_tilde.waypoints, cfg.willie_est, cfg.var_willie) + 1.0
    res_d, res_e, res_f = covertness_residuals(
        q, p, t * t, slack, exp, model, cfg.rho_w, cfg.willie_est)
    lam = lambda_of(q, cfg.willie_est, cfg.var_willie)
    e_t = np.exp2(exp.r_tilde.rates) - 1.0
    scale = np.stack([cfg.altitude_H**2 + dist2
                      + cfg.gamma0 * exp.p_tilde.powers * np.exp2(r) / (e_t * e_t),
                      np.sqrt(lam + 1.0) * np.maximum(t, exp.t_tilde) + 1.0,
                      np.log(lam + 2.0 + model.h2_over_var) + 1.0], axis=1)
    return np.stack([res_a, res_d, res_e], axis=1), scale, res_f / slack


def jitter(sub, rng, spread=0.2, step_m=2.0):
    """A point near the start: multiplicative jitter keeps p, r and t
    positive, and free waypoints move by a few metres."""
    lay = sub.layout
    q_cols = np.concatenate([lay.qx[lay.qx >= 0], lay.qy[lay.qy >= 0]])
    v = sub.start * np.exp(rng.normal(0, spread, sub.n_var))
    v[q_cols] = sub.start[q_cols] + rng.normal(0, step_m, q_cols.size)
    return v


class TestOptimalSlackSubstitution:
    """The assembled outage and covertness rows are the slack forms of the
    reference oracles with each slack at its closed-form optimum."""

    @pytest.mark.parametrize("fixed", [False, True])
    def test_rows_match_slack_oracles(self, small_cfg, rng, fixed):
        sub = assemble_subproblem(initial_point(small_cfg), small_cfg, fixed_trajectory=fixed)
        slot = next(f for f in sub.families if f.name == "slot")
        for _ in range(20):
            v = jitter(sub, rng)
            expect, scale, tight = slack_oracle_rows(sub, v)
            assert np.all(np.abs(tight) <= 1e-15)  # row F is tight
            got = slot.values(slot.gather(v)).reshape(-1, 3)
            err = np.abs(got - expect) / scale
            assert np.max(err) <= 1e-12, float(np.max(err))


class _Cases(list):
    """A list whose repr stays short in Hypothesis's reports."""

    def __repr__(self):
        return f"<{len(self)} cases>"


@pytest.fixture(scope="module")
def slot_kernels(cfg, small_cfg):
    """(subproblem, slot family) for the first JTP and STP subproblems of
    small_cfg and of the baseline."""
    out = _Cases()
    for c in (small_cfg, cfg):
        exp = initial_point(c)
        for fixed in (False, True):
            sub = assemble_subproblem(exp, c, fixed_trajectory=fixed)
            out.append((sub, next(f for f in sub.families if f.name == "slot")))
    return out


class TestSlotKernel:
    """Values, gradients and pattern Hessians of the fused slot family, slot
    by slot, at points near the start inside the rows' domain: the values
    against the reference oracles, the derivatives against central
    differences."""

    @settings(max_examples=80)
    @given(case=st.integers(0, 3), slot_frac=st.floats(0.0, 1.0, exclude_max=True),
           seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([0.0, 0.05, 0.3]),
           last=st.booleans())
    def test_slot_rows_match_oracles_and_differences(self, slot_kernels, case, slot_frac,
                                                     seed, spread, last):
        sub, fam = slot_kernels[case]
        n = sub.layout.n_slots
        i = n - 1 if last else int(slot_frac * n)  # the last slot's waypoint is fixed
        # only slot i moves, so the oracles' other slots stay in their domain
        v = sub.start.copy()
        block = fam.idx[i][fam.idx[i] >= 0]
        v[block] = jitter(sub, np.random.default_rng(seed), spread, 20.0 * spread)[block]
        V = fam.gather(v)
        expect, scale, _ = slack_oracle_rows(sub, v)
        got = fam.values(V).reshape(n, 3)[i]
        assert np.all(np.abs(got - expect[i]) <= 1e-12 * scale[i]), (got, expect[i])

        live = np.nonzero(fam.idx[i] >= 0)[0]
        assert live.tolist() == ([2, 3, 4] if i >= fam.nf else [0, 1, 2, 3, 4])
        G = fam.grads(V).reshape(n, 3, 5)[i]
        H = expand_hessians(fam, V)[i]

        def at(col, x, of):
            W = V.copy()
            W[i, col] = x
            return of(W)

        # central differences with step h carry rounding of about
        # eps |f| / h, so each entry's absolute bound scales with the size of
        # what is differenced: the row's largest term for values, the
        # differenced gradient entry for the Hessian
        for col in live:
            x = V[i, col]
            # waypoints and rates are smooth on a unit scale; 1/P and t,
            # which can sit decades under 1, need a step relative to the
            # variable
            h = 1e-6 * max(abs(x), 1e-9 if col in (2, 4) else 1.0)
            fd = (at(col, x + h, fam.values) - at(col, x - h, fam.values)).reshape(n, 3)[i] / (2 * h)
            assert np.all(np.abs(G[:, col] - fd) <= 1e-6 * np.abs(fd) + 1e-13 * scale[i] / h), col
            gp, gm = (at(col, y, fam.grads).reshape(n, 3, 5)[i] for y in (x + h, x - h))
            fd_h = (gp - gm)[:, live] / (2 * h)
            noise = 1e-13 * np.maximum(np.abs(gp), np.abs(gm))[:, live] / h
            assert np.all(np.abs(H[:, col][:, live] - fd_h) <= 1e-6 * np.abs(fd_h) + noise), col
