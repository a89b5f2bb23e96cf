import math

import numpy as np
import pytest

from covertuav import cvxsolver
from covertuav.convexify import LinearFamily, ResidualFamily
from covertuav.cvxsolver import (
    BarrierProblem,
    SolverSettings,
    _Work,
    _eval_pieces,
    _newton_direction,
    _phi,
    check_kkt,
    solve,
)


def box_family(lo, hi):
    n = len(lo)
    idx, coef, const, lbl = [], [], [], []
    for i in range(n):
        if np.isfinite(hi[i]):
            idx.append([i]); coef.append([1.0]); const.append(-hi[i]); lbl.append(f"ub[{i}]")
        if np.isfinite(lo[i]):
            idx.append([i]); coef.append([-1.0]); const.append(lo[i]); lbl.append(f"lb[{i}]")
    return LinearFamily(np.array(idx), np.array(coef), np.array(const), "box", lbl)


def one_d_problem():
    fam = box_family(np.array([0.0]), np.array([3.0]))
    return BarrierProblem(obj_coef=np.array([-1.0]), families=[fam],
                          start=np.array([1.0]), var_scale=np.ones(1))


class QuadEpigraph(ResidualFamily):
    """0.5 x^T Q x + b.x - t <= 0 with t the last variable."""

    name = "quad_epi"
    is_linear = False

    def __init__(self, Q, b):
        n = Q.shape[0]
        super().__init__(np.arange(n + 1)[None, :], ["quad_epi"])
        self.Q, self.b = Q, b

    def values(self, V):
        x, t = V[:, :-1], V[:, -1]
        return 0.5 * np.einsum("mi,ij,mj->m", x, self.Q, x) + x @ self.b - t

    def grads(self, V):
        x = V[:, :-1]
        g = np.empty_like(V)
        g[:, :-1] = x @ self.Q + self.b
        g[:, -1] = -1.0
        return g

    def hess(self, V):
        h = np.zeros((1, self.k, self.k))
        h[0, :-1, :-1] = self.Q
        return h


class TestToys:
    def test_one_dimensional_bound(self):
        res = solve(one_d_problem(), settings=SolverSettings(kkt_tol=1e-9))
        assert res.status == "optimal"
        assert res.variables[0] == pytest.approx(3.0, abs=1e-8)
        assert res.objective == pytest.approx(-3.0, abs=1e-8)

    def test_soc_toy_closed_form(self):
        # min -x s.t. sqrt(2 + 2 x^2) <= 3  ->  x = sqrt(7/2)
        class Soc(ResidualFamily):
            name = "soc"
            is_linear = False

            def __init__(self):
                super().__init__(np.array([[0]]), ["soc"])

            def values(self, V):
                return np.sqrt(2.0 + 2.0 * V[:, 0] ** 2) - 3.0

            def grads(self, V):
                return 2.0 * V[:, [0]] / np.sqrt(2.0 + 2.0 * V[:, [0]] ** 2)

            def hess(self, V):
                rt = np.sqrt(2.0 + 2.0 * V[:, 0] ** 2)
                return (2.0 / rt * (1.0 - 2.0 * V[:, 0] ** 2 / rt**2)).reshape(1, 1, 1)

        prob = BarrierProblem(np.array([-1.0]), [Soc()], np.array([0.0]), np.ones(1))
        res = solve(prob, settings=SolverSettings(kkt_tol=1e-10))
        assert res.variables[0] == pytest.approx(math.sqrt(3.5), abs=1e-8)

    def test_objective_never_worse_than_start(self):
        prob = one_d_problem()
        res = solve(prob)
        assert res.objective <= float(prob.obj_coef @ prob.start) + 1e-12


class TestQuadraticPrograms:
    def test_generated_qp_set_against_closed_form(self, rng):
        for trial in range(8):
            n = int(rng.integers(2, 7))
            A = rng.normal(size=(n, n))
            Q = A.T @ A + np.eye(n)
            b = rng.normal(size=n) * 3.0
            x_star = -np.linalg.solve(Q, b)
            f_star = 0.5 * x_star @ Q @ x_star + b @ x_star
            if abs(f_star) < 0.5:
                b = b * (1.0 / max(abs(f_star), 1e-3))
                x_star = -np.linalg.solve(Q, b)
                f_star = 0.5 * x_star @ Q @ x_star + b @ x_star
            hi = np.abs(x_star) * 4.0 + 10.0
            obj = np.zeros(n + 1)
            obj[n] = 1.0
            fams = [QuadEpigraph(Q, b),
                    box_family(np.append(-hi, -1e6), np.append(hi, 1e6))]
            start = np.zeros(n + 1)
            start[n] = 1.0
            prob = BarrierProblem(obj, fams, start, np.ones(n + 1))
            res = solve(prob, settings=SolverSettings(kkt_tol=1e-8, max_iters=400))
            assert res.status == "optimal"
            assert abs(res.objective - f_star) <= 1e-7 * max(1.0, abs(f_star)), trial
            assert np.allclose(res.variables[:n], x_star, atol=1e-5)


class TestKkt:
    def test_optimum_has_tiny_residuals(self):
        prob = one_d_problem()
        res = solve(prob, settings=SolverSettings(kkt_tol=1e-10))
        rep = check_kkt(prob, res.variables)
        assert rep.primal < 0.0
        assert rep.stationarity < 1e-8
        assert rep.complementarity < 1e-8
        assert rep.max_residual() < 1e-8

    def test_start_point_reports_feasibility(self):
        prob = one_d_problem()
        rep = check_kkt(prob, prob.start)
        assert rep.primal <= 0.0  # strictly interior start

    def test_perturbed_optimum_degrades_stationarity(self):
        prob = one_d_problem()
        res = solve(prob, settings=SolverSettings(kkt_tol=1e-10))
        good = check_kkt(prob, res.variables)
        bad = check_kkt(prob, res.variables - 1e-3)
        assert bad.max_residual() >= good.max_residual() + 1e-4


class TestRobustness:
    def test_phase_one_restores_interior(self):
        prob = one_d_problem()
        res = solve(prob, start=np.array([5.0]))  # outside the box
        assert res.status == "optimal"
        assert res.variables[0] == pytest.approx(3.0, abs=1e-6)

    def test_infeasible_problem_detected(self):
        fam = LinearFamily(np.array([[0], [0]]), np.array([[1.0], [-1.0]]),
                           np.array([-3.0, 4.0]), "bad", ["ub", "lb"])
        prob = BarrierProblem(np.array([-1.0]), [fam], np.array([1.0]), np.ones(1))
        res = solve(prob)
        assert res.status == "infeasible"

    def test_deterministic_iterates(self, cfg):
        from covertuav.convexify import assemble_subproblem
        from covertuav.sca import initial_point

        small = cfg.with_updates(flight_period_T=200.0)
        sub = assemble_subproblem(initial_point(small), small)
        r1 = solve(sub, settings=SolverSettings())
        r2 = solve(sub, settings=SolverSettings())
        assert np.array_equal(r1.variables, r2.variables)
        assert r1.iterations == r2.iterations
        assert r1.objective == r2.objective

    def test_banded_and_dense_directions_agree(self, small_cfg):
        from covertuav.convexify import assemble_subproblem
        from covertuav.sca import initial_point

        sub = assemble_subproblem(initial_point(small_cfg), small_cfg)
        banded = _Work(sub, SolverSettings())
        dense = _Work(sub, SolverSettings(band_limit=0))
        assert banded.banded_ok and not dense.banded_ok
        v = sub.start
        for mu in [1.0, 1e-4]:
            gb, pb = _eval_pieces(banded, v, mu)
            gd, pd = _eval_pieces(dense, v, mu)
            assert np.allclose(gb, gd, rtol=1e-12)
            db = _newton_direction(banded, pb, gb, mu)
            dd = _newton_direction(dense, pd, gd, mu)
            assert np.allclose(db, dd, rtol=1e-6, atol=1e-9)

    def test_banded_and_dense_optima_agree(self, small_cfg):
        from covertuav.convexify import assemble_subproblem
        from covertuav.sca import initial_point

        sub = assemble_subproblem(initial_point(small_cfg), small_cfg)
        rb = solve(sub, settings=SolverSettings())
        rd = solve(sub, settings=SolverSettings(band_limit=0))
        assert rb.objective == pytest.approx(rd.objective, rel=1e-6, abs=1e-9)

    def test_banded_ridge_ladder_needs_no_dense_fallback(self, monkeypatch):
        # the last of 64 variables sits in no residual row, so its band
        # diagonal is exactly zero and the ridge-free factorization fails
        d = 64
        lo, hi = np.full(d, -1.0), np.full(d, 1.0)
        lo[-1], hi[-1] = -np.inf, np.inf
        fams = [box_family(lo, hi),
                LinearFamily(np.array([[i, i + 1] for i in range(d - 2)]),
                             np.tile([1.0, -1.0], (d - 2, 1)), np.full(d - 2, -1.5),
                             "chain", [f"chain[{i}]" for i in range(d - 2)])]
        prob = BarrierProblem(-np.ones(d), fams, np.zeros(d), np.ones(d))
        work = _Work(prob, SolverSettings())
        assert work.banded_ok

        outcomes = []
        solveh_banded = cvxsolver.sla.solveh_banded

        def recorded(*args, **kwargs):
            try:
                out = solveh_banded(*args, **kwargs)
            except np.linalg.LinAlgError:
                outcomes.append("failed")
                raise
            outcomes.append("solved")
            return out

        def no_dense(*args, **kwargs):
            raise AssertionError("dense Newton system on a banded problem")

        monkeypatch.setattr(cvxsolver.sla, "solveh_banded", recorded)
        monkeypatch.setattr(cvxsolver, "_newton_dense", no_dense)
        g, pieces = _eval_pieces(work, prob.start, 0.1)
        p = _newton_direction(work, pieces, g, 0.1)
        assert outcomes[0] == "failed" and outcomes[-1] == "solved"
        assert np.all(np.isfinite(p))
        assert float(g @ p) < 0.0

    def test_study_run_stays_banded(self, monkeypatch):
        # T = 210 s is the study point where the ridge-free banded
        # factorization fails to round-off on some Newton steps
        from covertuav.scenario import baseline_config
        from covertuav.sca import run_jtp, run_stp

        dense_calls = []
        newton_dense = cvxsolver._newton_dense

        def counted(*args, **kwargs):
            dense_calls.append(1)
            return newton_dense(*args, **kwargs)

        monkeypatch.setattr(cvxsolver, "_newton_dense", counted)
        cfg = baseline_config(flight_period_T=210.0)
        plan, trace = run_jtp(cfg)
        assert not dense_calls
        assert trace.stop_reason == "converged"
        assert plan.actr >= run_stp(cfg)[0].actr

    def test_merit_monotone_along_accepted_steps(self):
        # drive one centering by hand and watch the barrier merit
        prob = one_d_problem()
        settings = SolverSettings()
        work = _Work(prob, settings)
        v = prob.start.copy()
        mu = 0.1
        last = _phi(work, v, mu)
        for _ in range(20):
            g, pieces = _eval_pieces(work, v, mu)
            p = _newton_direction(work, pieces, g, mu)
            if float(-g @ p) < 1e-14:
                break
            t = 1.0
            while _phi(work, v + t * p, mu) > last + 0.01 * t * float(g @ p):
                t *= 0.5
            v = v + t * p
            phi = _phi(work, v, mu)
            assert phi <= last + 1e-12
            last = phi
