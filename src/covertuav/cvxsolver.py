"""Primal-dual interior-point solver for smooth convex programs.

Solves   minimize  c . v   subject to  c_i(v) <= 0
with every c_i smooth and convex, supplied as vectorized residual families
carrying analytic gradients and Hessian blocks (see convexify.ResidualFamily).
This matches the subproblems assembled here: a few thousand variables,
residuals touching only a handful of variables each, plus one dense linear
budget row.

Each iterate is a strictly feasible point v with slacks s = -c(v) > 0 and
duals lam > 0 (S. J. Wright, Primal-Dual Interior-Point Methods, SIAM 1997).
The Newton matrix is sum_i lam_i hess c_i + (lam_i / s_i) grad c_i
grad c_i^T, the primal barrier Hessian with lam in place of mu / s, and the
right-hand side is the barrier gradient at mu, so the step p descends the
barrier merit c . v - mu sum log s and a feasibility-then-Armijo
backtracking line search on that merit takes it. The duals then move by
dlam = -lam + mu / s + lam (G p) / s with a fraction-to-boundary step and
are clipped to within a factor KAPPA_SIGMA of mu / s. mu shrinks
geometrically once the iterate solves the mu-problem to KAPPA_EPS mu
(Waechter & Biegler, Math. Program. 106, 2006), and the solve stops when
the gap lam . s and the dual residual c + G^T lam both meet their targets.
A cold start takes lam = barrier_mu_init / s; a warm start takes the duals
of a previous solve, with mu their mean complementarity at the new start,
so a subproblem that starts near its optimum skips the walk to the
analytic center. A start that is not strictly interior is an error, not
something the solver repairs.

Each line-search trial is tested family by family, the linear families first
and then the nonlinear ones, and the test stops at the first family with a
residual that is not < 0. Families mark points outside their domain with NaN,
which fails that comparison, so NaN means "violated" without a nan_to_num
pass. Only a trial inside the domain gets all its values, stored in family
order, and its merit; the accepted trial's values (and its merit while mu is
unchanged) then serve the next Newton step, which evaluates no residual
itself.

Every Newton system is one banded Cholesky solve plus a Woodbury correction
for the linear rows wider than the band, which keeps the cost per step linear
in the number of slots. The band is as wide as the widest nonlinear
residual's variable span (a dense nonlinear row makes it a dense Cholesky), or
as a linear family of span w and r rows with w^2 <= r. Gradient and Hessian
entries are scattered with one precomputed index per solve, and what does not
change within a solve is built once: the linear families' scaled gradients
and G G^T entries, and the scaled constant Hessians. Other nonlinear Hessians
contribute only on the nonzero pattern their family declares.

A solve that cannot go on, because the Newton matrix does not factor, no
trial within max_backtracks is acceptable or the Newton decrement is not
finite and positive, ends with status "stalled" at the current interior
iterate; "max_iters" means the Newton budget ran out. Everything is
deterministic: no randomized pivoting, no restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.optimize import nnls


TAU = 0.99           # fraction-to-boundary factor of the dual step
KAPPA_SIGMA = 1e10   # duals stay within this factor of mu / s
KAPPA_EPS = 10.0     # mu shrinks once the mu-problem is solved to KAPPA_EPS * mu


@dataclass(frozen=True)
class SolverSettings:
    kkt_tol: float = 1e-7          # stop: gap <= 0.1 kkt_tol max(1, |f|), dual
                                   # residual <= 10 kkt_tol max(1, |c|_inf)
    max_iters: int = 200           # total Newton steps
    barrier_mu_init: float = 1.0   # first mu of a cold start
    barrier_shrink: float = 0.2
    ls_alpha: float = 0.01         # Armijo slope fraction
    ls_beta: float = 0.5           # backtracking factor
    max_backtracks: int = 80

    def __post_init__(self):
        if self.kkt_tol <= 0:
            raise ValueError("kkt_tol must be positive")
        if not 0.0 < self.barrier_shrink < 1.0:
            raise ValueError("barrier_shrink must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class KktReport:
    primal: float           # max residual value (feasible when <= 0)
    stationarity: float     # inf-norm of grad f + J^T lambda, scaled variables
    complementarity: float  # max |lambda_i * c_i|

    def max_residual(self) -> float:
        return max(self.primal, self.stationarity, self.complementarity)


@dataclass
class SolverResult:
    variables: np.ndarray
    objective: float
    status: str             # "optimal" | "max_iters" | "stalled"
    kkt: KktReport
    iterations: int
    gap: float              # duality gap lam . s at exit
    duals: np.ndarray       # one multiplier per residual row, in family order
    message: str = ""
    backtracks: int = 0     # line-search trials rejected (each shrinks t by ls_beta)
    merit_evals: int = 0    # trials inside the domain, so their merit was computed


@dataclass
class BarrierProblem:
    """Minimal problem container; ConvexSubproblem provides the same surface."""

    obj_coef: np.ndarray
    families: list
    start: np.ndarray
    var_scale: np.ndarray


def residual_values(families, v: np.ndarray) -> np.ndarray:
    """All residual values at v, in family order.

    Families signal out-of-domain points with NaN, which becomes +inf here so
    that every feasibility test reads it as a violation.
    """
    out = np.empty(sum(f.m for f in families))
    pos = 0
    for f in families:
        out[pos:pos + f.m] = f.values(v[f.idx])
        pos += f.m
    return np.nan_to_num(out, nan=np.inf)


class _Work:
    """Band layout, scatter indices, scaled views and the per-solve constants
    of one problem instance. Everything here lives as long as one solve."""

    def __init__(self, problem):
        self.families = list(problem.families)
        self.scale = np.asarray(problem.var_scale, dtype=float)
        self.d = self.scale.size
        self.c_w = np.asarray(problem.obj_coef, dtype=float) * self.scale
        self.m = sum(f.m for f in self.families)
        ends = np.cumsum([f.m for f in self.families])
        self.rows = [slice(e - f.m, e) for f, e in zip(self.families, ends)]

        # the band is as wide as the widest nonlinear row, or as a linear
        # family of span w and r rows with w^2 <= r (widening the band costs
        # about d w^2, dyads about d r); wider linear rows become low-rank
        # dyad corrections
        live = [fi for fi, f in enumerate(self.families) if f.m]
        span = {fi: int((self.families[fi].idx.max(axis=1)
                         - self.families[fi].idx.min(axis=1)).max()) for fi in live}
        band = max((span[fi] for fi in live if not self.families[fi].is_linear
                    or span[fi] ** 2 <= self.families[fi].m), default=0)
        self.wide = {fi for fi in live if span[fi] > band}
        self.band = band
        self.live = live
        self.s_gath = [self.scale[f.idx] for f in self.families]
        # line-search trials test the cheap linear rows first
        self.trial_order = ([fi for fi in live if self.families[fi].is_linear]
                            + [fi for fi in live if not self.families[fi].is_linear])

        # gradient weights: c_w, then each family's (m, k) rows; one scatter
        # index per solve, and np.bincount adds its weights in index order,
        # the order np.add.at would take them family by family
        self.grad_index = np.concatenate(
            [np.arange(self.d)] + [self.families[fi].idx.ravel() for fi in live])
        self.grad_w = np.empty(self.grad_index.size)
        self.grad_w[:self.d] = self.c_w
        self.grad_rows, pos = {}, self.d
        for fi in live:
            f = self.families[fi]
            self.grad_rows[fi] = self.grad_w[pos:pos + f.m * f.k].reshape(f.m, f.k)
            pos += f.m * f.k

        # band weights, family by family, only at the local (i, j) entries
        # that land in upper band storage (idx_i <= idx_j) in some row, in
        # row-major order; where a row's entry does not, it goes to one
        # trailing bin that is dropped after the scatter. Per-solve constants:
        # the scaled gradient rows of the linear families and their G G^T
        # entries; the kept entries of each nonlinear Hessian's nonzero
        # pattern, scaled once when the Hessian is constant.
        self.g_lin, self.gg_lin, self.h_pairs, self.h_pat, self.h_const = {}, {}, {}, {}, {}
        hess_parts, pos = [np.zeros(0, dtype=np.int64)], 0
        for fi in live:
            f, s = self.families[fi], self.s_gath[fi]
            if f.is_linear:
                self.g_lin[fi] = f.grads(np.zeros((f.m, f.k))) * s
            if fi in self.wide:
                continue  # low-rank dyads, not band entries
            keep = f.idx[:, :, None] <= f.idx[:, None, :]
            P, Q = np.nonzero(keep.any(axis=0))
            ii, jj = f.idx[:, P], f.idx[:, Q]
            hess_parts.append(np.where(keep[:, P, Q], (band + ii - jj) * self.d + jj,
                                       (band + 1) * self.d).ravel())
            self.h_pairs[fi] = (P, Q, slice(pos, pos + f.m * P.size))
            pos += f.m * P.size
            if f.is_linear:
                self.gg_lin[fi] = self.g_lin[fi][:, P] * self.g_lin[fi][:, Q]
                continue
            at = {pq: n for n, pq in enumerate(zip(P.tolist(), Q.tolist()))}
            kept = [pq for pq in (f.hess_pattern or at) if pq in at]
            pi = np.array([i for i, _ in kept], dtype=np.int64)
            pj = np.array([j for _, j in kept], dtype=np.int64)
            self.h_pat[fi] = (np.array([at[pq] for pq in kept], dtype=np.int64),
                              pi, pj, s[:, pi], s[:, pj])
            if f.hess_constant:
                self.h_const[fi] = f.hess(np.zeros((f.m, f.k)))[:, pi, pj] * s[:, pi] * s[:, pj]
        self.hess_index = np.concatenate(hess_parts)
        self.hess_w = np.empty(pos)
        self.hess_size = (band + 1) * self.d

    def values(self, v: np.ndarray) -> np.ndarray:
        return residual_values(self.families, v)

    def gradient(self) -> np.ndarray:
        """c_w plus the gradient rows written to grad_rows, scattered in one pass."""
        return np.bincount(self.grad_index, self.grad_w, minlength=self.d)

    def hessian(self) -> np.ndarray:
        """Upper band storage (band + 1, d) of the weights written to hess_w."""
        flat = np.bincount(self.hess_index, self.hess_w, minlength=self.hess_size)
        return flat[:self.hess_size].reshape(self.band + 1, self.d)

    def objective_w(self, v: np.ndarray) -> float:
        return float(self.c_w @ (v / self.scale))


def _trial_values(work: _Work, v: np.ndarray) -> np.ndarray | None:
    """Residual values at a line-search trial, or None outside the domain.

    Families are tested in work.trial_order, and the test stops at the first
    one with a residual that is not < 0; NaN compares false, so it fails
    without nan_to_num. A trial that passes gets its values in family order,
    the array residual_values returns there.
    """
    out = np.empty(work.m)
    for fi in work.trial_order:
        f = work.families[fi]
        vals = f.values(v[f.idx])
        if not np.max(vals) < 0.0:
            return None
        out[work.rows[fi]] = vals
    return out


def _pieces(work: _Work, v: np.ndarray, vals: np.ndarray, lam: np.ndarray):
    """Per-family Newton pieces at an interior v: (fi, V, s, G_w, lam) with
    s = -c the slacks, G_w the gradient rows in scaled coordinates and lam
    the duals of the family's rows."""
    pieces = []
    for fi in work.live:
        f = work.families[fi]
        rows = work.rows[fi]
        V = v[f.idx]
        G_w = work.g_lin.get(fi)
        if G_w is None:
            G_w = f.grads(V) * work.s_gath[fi]
        pieces.append((fi, V, -vals[rows], G_w, lam[rows]))
    return pieces


def _gradient(work: _Work, pieces, weights: np.ndarray) -> np.ndarray:
    """c_w + sum_i weights_i grad c_i in scaled coordinates: the barrier
    gradient for weights mu / s, the Lagrangian's for weights lam."""
    for fi, _, _, G_w, _ in pieces:
        np.multiply(G_w, weights[work.rows[fi], None], out=work.grad_rows[fi])
    return work.gradient()


def _phi(work: _Work, v: np.ndarray, mu: float, vals=None) -> float:
    """Barrier merit at v, inf outside the domain; vals, when given, are the
    residual values at v (an accepted line-search trial's)."""
    if vals is None:
        vals = _trial_values(work, v)
        if vals is None:
            return math.inf
    return work.objective_w(v) - mu * float(np.sum(np.log(-vals)))


def _band_weights(work: _Work, fi: int, V, s, G_w, lam) -> None:
    """Write one family's Newton-matrix entries (scaled coordinates) to hess_w.

    (lam / s) G G^T at the kept entries, plus lam (H s_i) s_j on the kept
    entries of the Hessian's nonzero pattern: the same sums as over the
    whole (m, k, k) block.
    """
    P, Q, sl = work.h_pairs[fi]
    out = work.hess_w[sl].reshape(s.size, P.size)
    coef = (lam / s)[:, None]
    GG = work.gg_lin.get(fi)
    if GG is None:
        np.multiply(G_w[:, P], G_w[:, Q], out=out)
        out *= coef
    else:
        np.multiply(coef, GG, out=out)
    if fi in work.h_pat:
        at, pi, pj, s_i, s_j = work.h_pat[fi]
        h = work.h_const.get(fi)
        if h is None:
            h = work.families[fi].hess(V)[:, pi, pj] * s_i * s_j
        out[:, at] += h * lam[:, None]


def _newton_banded(work: _Work, pieces, g: np.ndarray) -> np.ndarray:
    """Solve W p = -g, W = sum_i lam_i hess c_i + (lam_i / s_i) grad c_i grad c_i^T.

    Band entries go to one banded Cholesky factorization; each row of a
    family wider than the band is a dyad a a^T, a = sqrt(lam / s) grad c,
    folded in by the Woodbury identity. A factorization that fails raises
    numpy.linalg.LinAlgError.
    """
    dyad_cols = []
    for piece in pieces:
        fi, _, s, G_w, lam = piece
        if fi not in work.wide:
            _band_weights(work, *piece)
            continue
        f = work.families[fi]
        coef = np.sqrt(lam / s)
        for r in range(f.m):
            a = np.zeros(work.d)
            a[f.idx[r]] = coef[r] * G_w[r]
            dyad_cols.append(a)
    ab = work.hessian()
    if not dyad_cols:
        return sla.solveh_banded(ab, -g, lower=False)
    A = np.stack(dyad_cols, axis=1)
    X = sla.solveh_banded(ab, np.column_stack([-g, A]), lower=False)
    x0, Y = X[:, 0], X[:, 1:]
    Mk = np.eye(A.shape[1]) + A.T @ Y
    return x0 - Y @ np.linalg.solve(Mk, A.T @ x0)


def _dual_step(work: _Work, pieces, p: np.ndarray, mu: float) -> np.ndarray:
    """Newton step of the duals, dlam = -lam + mu / s + lam (G p) / s, where
    G p is each row's directional derivative along the scaled step p."""
    dlam = np.empty(work.m)
    for fi, _, s, G_w, lam in pieces:
        f = work.families[fi]
        Gp = np.einsum("ij,ij->i", G_w, p[f.idx])
        dlam[work.rows[fi]] = (mu + lam * Gp) / s - lam
    return dlam


def _clip_duals(lam: np.ndarray, s: np.ndarray, mu: float) -> np.ndarray:
    """lam kept within a factor KAPPA_SIGMA of the central value mu / s."""
    return np.clip(lam, mu / (KAPPA_SIGMA * s), KAPPA_SIGMA * mu / s)


def _primal_dual(work: _Work, problem, v0: np.ndarray, vals0: np.ndarray,
                 lam0: np.ndarray, mu: float, settings: SolverSettings) -> SolverResult:
    v, vals, lam = v0.copy(), vals0, lam0
    cw_norm = max(1.0, float(np.max(np.abs(work.c_w))))
    dual_tol = 10.0 * settings.kkt_tol * cw_norm
    phi0 = None  # barrier merit at v for the current mu, once known
    total = backtracks = merit_evals = 0
    status, message = "max_iters", "newton budget exhausted"

    while True:
        s = -vals
        pieces = _pieces(work, v, vals, lam)
        r_dual = _gradient(work, pieces, lam)
        dual_inf = float(np.max(np.abs(r_dual)))
        if (float(lam @ s) <= _gap_target(work, v, settings)
                and dual_inf <= dual_tol):
            status, message = "optimal", ""
            break
        # monotone mu: shrink while the iterate solves the mu-problem to
        # within KAPPA_EPS mu (Waechter & Biegler, 2006, eq. 7); the dual
        # residual need not beat the final tolerance, which round-off can
        # keep it from at the smallest mu
        comp = lam * s
        while (dual_inf <= max(KAPPA_EPS * mu * cw_norm, dual_tol)
               and float(np.max(np.abs(comp - mu))) <= KAPPA_EPS * mu):
            mu *= settings.barrier_shrink
            phi0 = None
        g = _gradient(work, pieces, mu / s)
        try:
            p = _newton_banded(work, pieces, g)
        except np.linalg.LinAlgError:
            status = "stalled"
            message = f"Newton matrix not positive definite at mu {mu:.3g}"
            break
        dec2 = float(-g @ p)
        if not np.isfinite(dec2) or dec2 <= 0:
            status = "stalled"
            message = f"Newton decrement^2 {dec2:.3g} at mu {mu:.3g}"
            break
        if total >= settings.max_iters:
            break
        if phi0 is None:
            phi0 = _phi(work, v, mu, vals)
        slope = float(g @ p)
        step = p * work.scale
        t, ok = 1.0, False
        for _ in range(settings.max_backtracks):
            cand = v + t * step
            cand_vals = _trial_values(work, cand)
            phi1 = math.inf
            if cand_vals is not None:
                merit_evals += 1
                phi1 = _phi(work, cand, mu, cand_vals)
            if phi1 <= phi0 + settings.ls_alpha * t * slope:
                ok = True
                break
            backtracks += 1
            t *= settings.ls_beta
        total += 1
        if not ok:
            status = "stalled"
            message = (f"no acceptable step in {settings.max_backtracks} "
                       f"backtracks at mu {mu:.3g}")
            break
        # duals: fraction-to-boundary step, then back near the central path
        dlam = _dual_step(work, pieces, p, mu)
        shrinking = dlam < 0.0
        alpha = float(np.min(-TAU * lam[shrinking] / dlam[shrinking], initial=1.0))
        v, vals, phi0 = cand, cand_vals, phi1
        lam = _clip_duals(lam + alpha * dlam, -vals, mu)

    kkt = KktReport(primal=float(np.max(vals)), stationarity=dual_inf,
                    complementarity=float(np.max(lam * s)))
    return SolverResult(
        variables=v, objective=float(np.asarray(problem.obj_coef) @ v),
        status=status, kkt=kkt, iterations=total, gap=float(lam @ s), duals=lam,
        message=message, backtracks=backtracks, merit_evals=merit_evals,
    )


def _gap_target(work: _Work, v: np.ndarray, settings: SolverSettings) -> float:
    # one extra decade under the nominal tolerance keeps the relative
    # objective error below kkt_tol on unit-scale problems
    return 0.1 * settings.kkt_tol * max(1.0, abs(work.objective_w(v)))


def solve(problem, start: np.ndarray | None = None,
          settings: SolverSettings | None = None,
          duals: np.ndarray | None = None) -> SolverResult:
    """Minimize the problem's linear objective over its residual families.

    The start (problem.start unless given) must be strictly interior: a
    ValueError naming the worst row and its value is raised otherwise.
    duals, when given, warm-start the multipliers (one per residual row, in
    family order, as SolverResult.duals returns them) and set the first mu
    to their mean complementarity at the start; otherwise the duals start
    at barrier_mu_init / s.
    """
    settings = settings or SolverSettings()
    v0 = np.array(problem.start if start is None else start, dtype=float)
    work = _Work(problem)
    if work.m == 0:
        return SolverResult(v0, float(np.asarray(problem.obj_coef) @ v0), "optimal",
                            KktReport(-math.inf, 0.0, 0.0), 0, 0.0, np.zeros(0))

    vals0 = work.values(v0)
    worst = int(np.argmax(vals0))
    if vals0[worst] >= 0.0:
        labels = [label for f in work.families for label in f.row_labels]
        raise ValueError(f"start is not strictly interior: residual "
                         f"{labels[worst]} = {vals0[worst]:.3e}")
    s0 = -vals0
    if duals is None:
        mu = settings.barrier_mu_init
        lam0 = mu / s0
    else:
        lam0 = np.asarray(duals, dtype=float)
        if lam0.shape != (work.m,):
            raise ValueError(f"duals have shape {lam0.shape}, the problem has "
                             f"{work.m} residual rows")
        mu = float(lam0 @ s0) / work.m
        lam0 = _clip_duals(lam0, s0, mu)
    return _primal_dual(work, problem, v0, vals0, lam0, mu, settings)


# ---------------------------------------------------------------------------
# KKT audit
# ---------------------------------------------------------------------------

def check_kkt(problem, point: np.ndarray, duals: np.ndarray | None = None,
              active_tol: float = 1e-5) -> KktReport:
    """Primal/stationarity/complementarity residuals at a candidate point.

    Multipliers are estimated by nonnegative least squares over the
    near-active constraints unless supplied. Intended for small problems and
    audits; it materializes the dense Jacobian.
    """
    v = np.asarray(point, dtype=float)
    scale = np.asarray(problem.var_scale, dtype=float)
    vals = residual_values(problem.families, v)
    m, d = vals.size, v.size

    J = np.zeros((m, d))
    pos = 0
    for f in problem.families:
        G = f.grads(v[f.idx]) * scale[f.idx]
        for r in range(f.m):
            np.add.at(J[pos + r], f.idx[r], G[r])
        pos += f.m
    g0 = np.asarray(problem.obj_coef, dtype=float) * scale

    if duals is None:
        lam = np.zeros(m)
        act = vals >= -active_tol * (1.0 + np.abs(vals))
        if np.any(act):
            sol, _ = nnls(J[act].T, -g0)
            lam[act] = sol
    else:
        lam = np.asarray(duals, dtype=float)

    stat = float(np.max(np.abs(g0 + J.T @ lam))) if m else float(np.max(np.abs(g0)))
    comp = float(np.max(np.abs(lam * vals))) if m else 0.0
    return KktReport(primal=float(np.max(vals)) if m else -math.inf,
                     stationarity=stat, complementarity=comp)
