import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertuav import cvxsolver
from covertuav.convexify import LinearFamily, ResidualFamily, assemble_subproblem
from covertuav.cvxsolver import (
    BarrierProblem,
    _Work,
    _newton_banded,
    _phi,
    _pieces,
    _trial_values,
    check_kkt,
    residual_values,
    solve,
)
from covertuav.sca import initial_point


def box_family(lo, hi):
    """Rows x_i <= hi_i and lo_i <= x_i for every finite bound, labelled
    ub[i] and lb[i] when all bounds are finite and box[row] otherwise."""
    n = len(lo)
    idx, coef, const = [], [], []
    for i in range(n):
        if np.isfinite(hi[i]):
            idx.append([i]); coef.append([1.0]); const.append(-hi[i])
        if np.isfinite(lo[i]):
            idx.append([i]); coef.append([-1.0]); const.append(lo[i])
    kinds = ("ub", "lb") if np.isfinite(lo).all() and np.isfinite(hi).all() else ()
    return LinearFamily(np.array(idx), np.array(coef), np.array(const), "box", kinds)


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
        super().__init__(np.arange(n + 1)[None, :])
        self.Q, self.b = Q, b
        self.hess_pattern = tuple((i, j) for i in range(n) for j in range(i, n))

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
        return np.array([[self.Q[i, j] for i, j in self.hess_pattern]])


def newton_system(work, v, mu, lam=None):
    """(barrier gradient at mu, Newton pieces) at v, with duals mu / s unless given."""
    vals = work.values(v)
    lam = mu / -vals if lam is None else lam
    pieces = _pieces(work, v, vals, lam)
    return work.gradient(mu / -vals), pieces


def expand_hessians(f, V):
    """Test oracle: a family's Hessians as full (blocks, rows, k, k) blocks,
    expanded from the entries hess returns on its declared upper pattern
    (zero for a linear family)."""
    b = V.shape[0]
    H = np.zeros((b, f.rows, f.k, f.k))
    if f.is_linear:
        return H
    h = np.asarray(f.hess(V)).reshape(b, f.rows, len(f.hess_pattern))
    for n, (i, j) in enumerate(f.hess_pattern):
        H[:, :, i, j] = H[:, :, j, i] = h[:, :, n]
    return H


def dense_newton_oracle(problem, gathered, mu, lam=None):
    """Test oracle: the primal-dual Newton system as a dense d x d matrix.

    gathered[i] is family i's (blocks, k) variable matrix and lam the duals
    of all rows in family order (mu / s when None). In scaled coordinates
    (v = var_scale * w) the barrier gradient and Newton matrix are
        g = var_scale * obj_coef + sum_i mu G_i / s_i,
        H = sum_i lam_i (G_i G_i^T / s_i + H_i),
    with s_i = -c_i the slacks and G_i, H_i the residuals' gradients and
    Hessians in w, assembled here row by row with np.add.at; at lam = mu / s
    H is the barrier Hessian. A constant column (negative index) is no
    variable, so its entries land in a padding row and column that are
    dropped. Returns (H, g).
    """
    scale = np.asarray(problem.var_scale, dtype=float)
    d = scale.size
    g = np.append(np.asarray(problem.obj_coef, dtype=float) * scale, 0.0)
    H = np.zeros((d + 1, d + 1))
    pos = 0
    for f, V in zip(problem.families, gathered):
        if f.m == 0:
            continue
        b, r = V.shape[0], f.rows
        slack = -f.values(V).reshape(b, r)
        w = mu / slack if lam is None else lam[pos:pos + f.m].reshape(b, r)
        pos += f.m
        idx = np.where(f.idx >= 0, f.idx, d)[:, None, :]
        s = np.append(scale, 0.0)[idx]
        G = f.grads(V).reshape(b, r, f.k) * s
        Hf = expand_hessians(f, V) * s[..., :, None] * s[..., None, :]
        np.add.at(g, np.broadcast_to(idx, G.shape), mu * G / slack[..., None])
        blocks = w[..., None, None] * (np.einsum("bri,brj->brij", G, G)
                                       / slack[..., None, None] + Hf)
        np.add.at(H, (np.broadcast_to(idx[..., :, None], blocks.shape),
                      np.broadcast_to(idx[..., None, :], blocks.shape)), blocks)
    return H[:d, :d], g[:d]


def dense_direction(H, g):
    """H p = -g by dense elimination after symmetric diagonal equilibration,
    D H D y = -D g with D = diag(H)^(-1/2) and p = D y: the barrier terms
    spread H's diagonal over many decades, and unequilibrated elimination
    loses digits the banded Cholesky keeps."""
    dinv = 1.0 / np.sqrt(np.diag(H))
    y = np.linalg.solve(H * dinv[:, None] * dinv[None, :], -g * dinv)
    return dinv * y


class TestToys:
    def test_one_dimensional_bound(self, monkeypatch):
        monkeypatch.setattr(cvxsolver, "KKT_TOL", 1e-9)
        res = solve(one_d_problem())
        assert res.status == "optimal"
        assert res.variables[0] == pytest.approx(3.0, abs=1e-8)
        assert res.objective == pytest.approx(-3.0, abs=1e-8)

    def test_soc_toy_closed_form(self, monkeypatch):
        # min -x s.t. sqrt(2 + 2 x^2) <= 3  ->  x = sqrt(7/2)
        class Soc(ResidualFamily):
            name = "soc"
            is_linear = False
            hess_pattern = ((0, 0),)

            def __init__(self):
                super().__init__(np.array([[0]]))

            def values(self, V):
                return np.sqrt(2.0 + 2.0 * V[:, 0] ** 2) - 3.0

            def grads(self, V):
                return 2.0 * V[:, [0]] / np.sqrt(2.0 + 2.0 * V[:, [0]] ** 2)

            def hess(self, V):
                rt = np.sqrt(2.0 + 2.0 * V[:, 0] ** 2)
                return (2.0 / rt * (1.0 - 2.0 * V[:, 0] ** 2 / rt**2)).reshape(1, 1)

        prob = BarrierProblem(np.array([-1.0]), [Soc()], np.array([0.0]), np.ones(1))
        monkeypatch.setattr(cvxsolver, "KKT_TOL", 1e-10)
        res = solve(prob)
        assert res.variables[0] == pytest.approx(math.sqrt(3.5), abs=1e-8)

    def test_objective_never_worse_than_start(self):
        prob = one_d_problem()
        res = solve(prob)
        assert res.objective <= float(prob.obj_coef @ prob.start) + 1e-12


class TestQuadraticPrograms:
    def test_generated_qp_set_against_closed_form(self, rng, monkeypatch):
        monkeypatch.setattr(cvxsolver, "KKT_TOL", 1e-8)
        monkeypatch.setattr(cvxsolver, "MAX_ITERS", 400)
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
            res = solve(prob)
            assert res.status == "optimal"
            assert abs(res.objective - f_star) <= 1e-7 * max(1.0, abs(f_star)), trial
            assert np.allclose(res.variables[:n], x_star, atol=1e-5)


class TestKkt:
    def test_optimum_has_tiny_residuals(self, monkeypatch):
        prob = one_d_problem()
        monkeypatch.setattr(cvxsolver, "KKT_TOL", 1e-10)
        res = solve(prob)
        rep = check_kkt(prob, res.variables)
        assert rep.primal < 0.0
        assert rep.stationarity < 1e-8
        assert rep.complementarity < 1e-8

    def test_start_point_reports_feasibility(self):
        prob = one_d_problem()
        rep = check_kkt(prob, prob.start)
        assert rep.primal <= 0.0  # strictly interior start

    def test_perturbed_optimum_degrades_stationarity(self, monkeypatch):
        prob = one_d_problem()
        monkeypatch.setattr(cvxsolver, "KKT_TOL", 1e-10)
        res = solve(prob)
        good = check_kkt(prob, res.variables)
        bad = check_kkt(prob, res.variables - 1e-3)

        def worst(rep):
            return max(rep.primal, rep.stationarity, rep.complementarity)

        assert worst(bad) >= worst(good) + 1e-4


def dual_tol(sub):
    """The solver's stop tolerance on the dual residual of sub."""
    c_w = np.asarray(sub.obj_coef) * np.asarray(sub.var_scale)
    return 10.0 * cvxsolver.KKT_TOL * max(1.0, float(np.max(np.abs(c_w))))


class TestDuals:
    @pytest.fixture(scope="class")
    def first_solves(self, small_cfg):
        """(subproblem, its solve) for small_cfg's first JTP and STP subproblems."""
        exp = initial_point(small_cfg)
        out = []
        for fixed in (False, True):
            sub = assemble_subproblem(exp, small_cfg, fixed_trajectory=fixed)
            out.append((sub, solve(sub)))
        return out

    def test_duals_certify_stationarity(self, first_solves, monkeypatch):
        # the fixture's solves ran to optimality; the ones below stop at 3 steps
        monkeypatch.setattr(cvxsolver, "MAX_ITERS", 3)
        for sub, res in first_solves:
            assert res.status == "optimal"
            assert res.kkt.stationarity <= dual_tol(sub)
            assert res.gap == pytest.approx(float(res.duals @ -sub.eval_values(res.variables)))
            cut = solve(sub)
            assert cut.status == "max_iters" and cut.iterations == 3
            assert cut.kkt.stationarity > 100.0 * dual_tol(sub)

    def test_check_kkt_agrees_with_the_solver(self, first_solves):
        for sub, res in first_solves:
            audit = check_kkt(sub, res.variables, duals=res.duals)
            assert audit.primal == pytest.approx(res.kkt.primal, rel=1e-12)
            assert audit.stationarity == pytest.approx(res.kkt.stationarity, rel=1e-9)
            assert audit.complementarity == pytest.approx(res.kkt.complementarity, rel=1e-12)

    def test_warm_restart_from_the_optimum(self, first_solves):
        # the optimum and its duals solve the subproblem again at once
        sub, res = first_solves[0]
        again = solve(dataclasses.replace(sub, start=res.variables), duals=res.duals)
        assert again.status == "optimal"
        assert again.iterations <= 5
        assert again.objective == pytest.approx(res.objective, abs=1e-9)

    def test_duals_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"duals have shape \(3,\), the problem "
                                             r"has 2 residual rows"):
            solve(one_d_problem(), duals=np.ones(3))


class TestRobustness:
    def test_exterior_start_rejected(self):
        prob = dataclasses.replace(one_d_problem(), start=np.array([5.0]))  # outside the box
        with pytest.raises(ValueError, match=r"ub\[0\] = 2\.000e\+00"):
            solve(prob)

    def test_infeasible_problem_detected(self):
        fam = LinearFamily(np.array([[0], [0]]), np.array([[1.0], [-1.0]]),
                           np.array([-3.0, 4.0]), "bad", ("ub", "lb"))
        prob = BarrierProblem(np.array([-1.0]), [fam], np.array([1.0]), np.ones(1))
        with pytest.raises(ValueError, match=r"not strictly interior: residual "
                                             r"lb\[0\] = 3\.000e\+00"):
            solve(prob)

    def test_deterministic_iterates(self, cfg):
        from covertuav.convexify import assemble_subproblem
        from covertuav.sca import initial_point

        small = cfg.with_updates(flight_period_T=200.0)
        sub = assemble_subproblem(initial_point(small), small)
        r1 = solve(sub)
        r2 = solve(sub)
        assert np.array_equal(r1.variables, r2.variables)
        assert r1.iterations == r2.iterations
        assert r1.objective == r2.objective

    def test_banded_and_dense_directions_agree(self, small_cfg):
        from covertuav.convexify import assemble_subproblem
        from covertuav.sca import initial_point

        exp = initial_point(small_cfg)
        for fixed in (False, True):
            sub = assemble_subproblem(exp, small_cfg, fixed_trajectory=fixed)
            work = _Work(sub)
            v = sub.start
            gathered = [v[f.idx] for f in sub.families]
            # duals off the central path: mu / s times factors in [0.1, 10]
            off = np.exp(np.random.default_rng(7).uniform(-2.3, 2.3, work.m))
            for mu, factor in [(1.0, None), (1e-4, None), (1e-4, off)]:
                lam = None if factor is None else factor * mu / -work.values(v)
                gb, pieces = newton_system(work, v, mu, lam)
                H, gd = dense_newton_oracle(sub, gathered, mu, lam)
                assert np.allclose(gb, gd, rtol=1e-12)
                db = _newton_banded(work, pieces, gb)
                assert np.allclose(db, dense_direction(H, gd), rtol=1e-6, atol=1e-9)

    def test_banded_and_dense_optima_agree(self, small_cfg, monkeypatch):
        from covertuav.convexify import assemble_subproblem
        from covertuav.sca import initial_point

        sub = assemble_subproblem(initial_point(small_cfg), small_cfg)
        rb = solve(sub)

        def dense(work, pieces, g):
            by_family = {fi: V for fi, V, *_ in pieces}
            gathered = [by_family.get(fi) for fi in range(len(sub.families))]
            lam = np.empty(work.m)
            for fi, _, _, _, lam_f in pieces:
                lam[work.rows[fi]] = lam_f.T.ravel()  # pieces hold (rows, blocks)
            # given the duals, the Newton matrix does not depend on mu
            return dense_direction(dense_newton_oracle(sub, gathered, 1.0, lam)[0], g)

        monkeypatch.setattr(cvxsolver, "_newton_banded", dense)
        rd = solve(sub)
        assert rb.objective == pytest.approx(rd.objective, rel=1e-6, abs=1e-9)

    def test_failed_factorization_reports_stalled(self, monkeypatch):
        # the last of 64 variables sits in no residual row, so its band
        # diagonal is exactly zero and the banded factorization fails
        d = 64
        lo, hi = np.full(d, -1.0), np.full(d, 1.0)
        lo[-1], hi[-1] = -np.inf, np.inf
        fams = [box_family(lo, hi),
                LinearFamily(np.array([[i, i + 1] for i in range(d - 2)]),
                             np.tile([1.0, -1.0], (d - 2, 1)), np.full(d - 2, -1.5),
                             "chain")]
        prob = BarrierProblem(-np.ones(d), fams, np.zeros(d), np.ones(d))
        work = _Work(prob)
        # the 62-row chain of span 1 widens the band to 1, not 62 dyads
        assert work.band == 1 and work.wide == set()

        monkeypatch.setattr(cvxsolver, "MU_INIT", 0.1)
        res = solve(prob)
        assert res.status == "stalled"
        assert res.message == "Newton matrix not positive definite at mu 0.1"
        assert res.iterations == 0
        assert np.array_equal(res.variables, prob.start)

    def test_study_run_stays_banded(self):
        # T = 210 s is the study point whose smallest-mu Newton systems needed
        # a ridge to factor under the primal barrier; with no ridge, a failed
        # factorization would stall the run
        from covertuav.scenario import baseline_config
        from covertuav.sca import run_jtp, run_stp

        cfg = baseline_config(flight_period_T=210.0)
        plan, trace = run_jtp(cfg)
        assert trace.stop_reason == "converged"
        assert plan.actr >= run_stp(cfg)[0].actr

    def test_merit_monotone_along_accepted_steps(self):
        # drive one centering by hand and watch the barrier merit
        prob = one_d_problem()
        work = _Work(prob)
        v = prob.start.copy()
        mu = 0.1
        last = _phi(work, v, mu)
        for _ in range(20):
            g, pieces = newton_system(work, v, mu)
            p = _newton_banded(work, pieces, g)
            if float(-g @ p) < 1e-14:
                break
            t = 1.0
            while _phi(work, v + t * p, mu) > last + 0.01 * t * float(g @ p):
                t *= 0.5
            v = v + t * p
            phi = _phi(work, v, mu)
            assert phi <= last + 1e-12
            last = phi

    def test_production_band_layouts(self, cfg):
        # JTP's widest rows, the interior step caps, span 7 variables; STP's,
        # the covertness rows on (p, t), span 3. Only the average-power row,
        # one row over every power, is a Woodbury dyad
        exp = initial_point(cfg)
        for fixed, band in ((False, 6), (True, 2)):
            sub = assemble_subproblem(exp, cfg, fixed_trajectory=fixed)
            work = _Work(sub)
            assert work.band == band
            assert [sub.families[fi].name for fi in work.wide] == ["power_avg"]

    def test_first_study_solves_pinned(self, cfg):
        # the first subproblem of the T = 200 s study, as the planner solves
        # it: a change to any Newton iterate moves these figures
        study = cfg.with_updates(flight_period_T=200.0)
        exp = initial_point(study)
        for fixed, iterations, objective in ((False, 23, -0.005613506819633374),
                                             (True, 16, -0.0056119519993596)):
            sub = assemble_subproblem(exp, study, fixed_trajectory=fixed)
            res = solve(sub)
            assert res.status == "optimal"
            assert res.iterations == iterations
            assert res.objective == pytest.approx(objective, rel=1e-12)


class NanAbove(ResidualFamily):
    """-1 while variable j stays at or below cap, NaN above it."""

    name = "nan_above"

    def __init__(self, j, cap):
        super().__init__(np.array([[j]]))
        self.cap = cap

    def values(self, V):
        return np.where(V[:, 0] <= self.cap, -1.0, np.nan)


class SqrtDomain(ResidualFamily):
    """x - 2 sqrt(x) <= 0, convex on x >= 0 and NaN below it.

    Records how many NaN values it returned and every point the solver took
    a gradient at, which are the accepted iterates.
    """

    name = "sqrt_domain"
    hess_pattern = ((0, 0),)

    def __init__(self):
        super().__init__(np.array([[0]]))
        self.nans = 0
        self.grad_points = []

    def values(self, V):
        with np.errstate(invalid="ignore"):
            out = V[:, 0] - 2.0 * np.sqrt(V[:, 0])
        self.nans += int(np.isnan(out).sum())
        return out

    def grads(self, V):
        self.grad_points.extend(V[:, 0].tolist())
        return (1.0 - 1.0 / np.sqrt(V[:, 0]))[:, None]

    def hess(self, V):
        return (0.5 * V[:, 0] ** -1.5).reshape(-1, 1)


@pytest.fixture(scope="module")
def newton_steps(small_cfg):
    """(JTP or STP subproblem, its Newton step from the start) at mu 1 and 1e-3."""
    exp = initial_point(small_cfg)
    out = []
    for fixed in (False, True):
        sub = assemble_subproblem(exp, small_cfg, fixed_trajectory=fixed)
        work = _Work(sub)
        for mu in (1.0, 1e-3):
            g, pieces = newton_system(work, sub.start, mu)
            out.append((sub, _newton_banded(work, pieces, g) * work.scale))
    return out


class TestLineSearch:
    @settings(max_examples=300)
    @given(case=st.integers(0, 3), quarter_log2_t=st.integers(-8, 48),
           nan_var=st.floats(0.0, 1.0, exclude_max=True),
           quarter_log2_cap=st.one_of(st.none(), st.integers(-16, 16)))
    def test_trial_values_match_residual_values(self, newton_steps, case,
                                                quarter_log2_t, nan_var,
                                                quarter_log2_cap):
        # trials t = 2^(k/4) along a Newton step (the longest leave the domain),
        # some with a family that turns NaN past a cap on one variable
        sub, step = newton_steps[case]
        families = list(sub.families)
        if quarter_log2_cap is not None:
            j = int(nan_var * step.size)
            cap = sub.start[j] + abs(step[j]) * 2.0 ** (quarter_log2_cap / 4)
            families.append(NanAbove(j, cap))
        prob = BarrierProblem(sub.obj_coef, families, sub.start, sub.var_scale)
        cand = sub.start + 2.0 ** (quarter_log2_t / 4) * step
        got = _trial_values(_Work(prob), cand)
        ref = residual_values(families, cand)
        if np.max(ref) >= 0.0:
            assert got is None
        else:
            assert got is not None and got.tobytes() == ref.tobytes()

    def test_trial_values_cover_both_outcomes(self, newton_steps):
        # the property above sees inside and outside points on every step
        for sub, step in newton_steps:
            work = _Work(sub)
            assert _trial_values(work, sub.start + 2.0 ** -24 * step) is not None
            assert _trial_values(work, sub.start + 2.0 ** 12 * step) is None

    @pytest.mark.parametrize("x0", [0.5, 1.0, 3.9])
    def test_nan_outside_the_domain_is_never_accepted(self, x0):
        # min x over x - 2 sqrt(x) <= 0: the optimum x = 0 sits on the edge of
        # the family's domain, so full Newton steps land where it is NaN
        fam = SqrtDomain()
        res = solve(BarrierProblem(np.array([1.0]), [fam], np.array([x0]), np.ones(1)))
        assert fam.nans > 0
        assert res.status == "optimal"
        assert min(fam.grad_points) > 0.0
        assert 0.0 < res.variables[0] < 1e-8
        assert res.merit_evals >= res.iterations

    def test_failed_line_search_reports_stalled(self, monkeypatch):
        # at mu = 1e-3 the full Newton step from x = 1 lands near x = 801,
        # outside the box, and one backtrack allows no shorter trial
        prob = one_d_problem()
        monkeypatch.setattr(cvxsolver, "MU_INIT", 1e-3)
        monkeypatch.setattr(cvxsolver, "MAX_BACKTRACKS", 1)
        res = solve(prob)
        assert res.status == "stalled"
        assert "no acceptable step" in res.message
        assert np.array_equal(res.variables, prob.start)
        assert (res.iterations, res.backtracks, res.merit_evals) == (1, 1, 0)
        assert res.kkt.primal < 0.0
