"""Primal log-barrier interior-point solver for smooth convex programs.

Solves   minimize  c . v   subject to  c_i(v) <= 0
with every c_i smooth and convex, supplied as vectorized residual families
carrying analytic gradients and Hessian blocks (see convexify.ResidualFamily).
This matches the subproblems assembled here: a few thousand variables,
residuals touching only a handful of variables each, plus one dense linear
budget row.

The barrier parameter follows the classical path from a strictly feasible
start (Boyd & Vandenberghe, Convex Optimization, 11.3): damped Newton
centering with a feasibility-then-Armijo backtracking line search, geometric
shrink of mu, and a duality-gap stop at m * mu. Iterates stay strictly
feasible throughout; a start that is not strictly interior is an error, not
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
as a linear family of span w and r rows with w^2 <= r. A factorization that
fails to round-off is retried on a ridge ladder (a growing multiple of the
identity added to the diagonal). Gradient and Hessian entries are scattered
with one precomputed index per solve, and what does not change within a
solve is built once: the linear families' scaled gradients and G G^T entries,
and the scaled constant Hessians. Other nonlinear Hessians contribute only on
the nonzero pattern their family declares.

A centering that cannot go on, because no trial within max_backtracks is
acceptable or the Newton decrement is not finite and positive, ends the solve
with status "stalled" at the current interior iterate; "max_iters" means the
Newton budget ran out. Everything is deterministic: no randomized pivoting,
no restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.optimize import nnls


@dataclass(frozen=True)
class SolverSettings:
    kkt_tol: float = 1e-7          # duality-gap target relative to max(1, |f|)
    max_iters: int = 200           # total Newton steps
    barrier_mu_init: float = 1.0
    barrier_shrink: float = 0.2
    ls_alpha: float = 0.01         # Armijo slope fraction
    ls_beta: float = 0.5           # backtracking factor
    max_backtracks: int = 80
    centering_tol: float = 1e-5    # Newton decrement^2 / 2, mid-path centers
    final_centering_tol: float = 1e-9
    center_step_cap: int = 25      # Newton steps per mid-path centering
    final_step_cap: int = 60

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
    gap: float              # duality-gap bound m * mu at exit
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


def _eval_pieces(work: _Work, v: np.ndarray, mu: float, vals=None):
    """Barrier gradient (scaled coords) and per-family pieces at an interior v.

    vals, when given, are the residual values at v in family order (the
    accepted line-search trial's), so they are not evaluated again.
    """
    if vals is None:
        vals = work.values(v)
    pieces = []
    for fi in work.live:
        f = work.families[fi]
        V = v[f.idx]
        c = vals[work.rows[fi]]
        w2 = mu / (-c)
        G_w = work.g_lin.get(fi)
        if G_w is None:
            G_w = f.grads(V) * work.s_gath[fi]
        np.multiply(G_w, w2[:, None], out=work.grad_rows[fi])
        pieces.append((fi, V, c, G_w, w2))
    return work.gradient(), pieces


def _phi(work: _Work, v: np.ndarray, mu: float, vals=None) -> float:
    """Barrier merit at v, inf outside the domain; vals as in _eval_pieces."""
    if vals is None:
        vals = _trial_values(work, v)
        if vals is None:
            return math.inf
    return work.objective_w(v) - mu * float(np.sum(np.log(-vals)))


def _band_weights(work: _Work, mu: float, fi: int, V, vals, G_w, w2) -> None:
    """Write one family's barrier Hessian entries (scaled coordinates) to hess_w.

    mu G G^T / c^2 at the kept entries, plus w2 (H s_i) s_j on the kept
    entries of the Hessian's nonzero pattern: the same sums as over the
    whole (m, k, k) block.
    """
    P, Q, sl = work.h_pairs[fi]
    out = work.hess_w[sl].reshape(vals.size, P.size)
    coef = (mu / (vals * vals))[:, None]
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
        out[:, at] += h * w2[:, None]


def _ridge_ladder(solve_shifted, diag: np.ndarray) -> np.ndarray:
    """solve_shifted(ridge) for the first ridge whose factorization succeeds.

    The first rung is ridge-free; then 1e-14 * max|diag|, times 100 per rung,
    six rungs in all (Nocedal & Wright, Numerical Optimization, 3.4).
    """
    ridge = 0.0
    for _ in range(6):
        try:
            return solve_shifted(ridge)
        except np.linalg.LinAlgError:
            ridge = max(ridge * 100.0, 1e-14 * (float(np.max(np.abs(diag))) or 1.0))
    raise np.linalg.LinAlgError(
        f"Newton system not positive definite up to ridge {ridge / 100.0:.3e}")


def _newton_banded(work: _Work, pieces, g: np.ndarray, mu: float) -> np.ndarray:
    d, u = work.d, work.band
    dyad_cols = []
    for piece in pieces:
        fi, _, vals, G_w, _ = piece
        if fi not in work.wide:
            _band_weights(work, mu, *piece)
            continue
        # H contribution mu * G G^T / c^2 == a a^T, a = sqrt(mu) G / |c|
        f = work.families[fi]
        coef = np.sqrt(mu) / (-vals)
        for r in range(f.m):
            a = np.zeros(d)
            a[f.idx[r]] = coef[r] * G_w[r]
            dyad_cols.append(a)
    ab = work.hessian()
    A = np.stack(dyad_cols, axis=1) if dyad_cols else None

    def solve_shifted(ridge):
        shifted = ab
        if ridge:
            shifted = ab.copy()
            shifted[u] += ridge  # row u of upper band storage is the diagonal
        if A is None:
            return sla.solveh_banded(shifted, -g, lower=False)
        X = sla.solveh_banded(shifted, np.column_stack([-g, A]), lower=False)
        x0, Y = X[:, 0], X[:, 1:]
        Mk = np.eye(A.shape[1]) + A.T @ Y
        return x0 - Y @ np.linalg.solve(Mk, A.T @ x0)

    return _ridge_ladder(solve_shifted, ab[u])


def _barrier_minimize(work: _Work, problem, v0: np.ndarray, vals0: np.ndarray,
                      settings: SolverSettings, log=None) -> SolverResult:
    scale = work.scale
    v, vals = v0.copy(), vals0
    m = work.m
    mu = settings.barrier_mu_init
    phi0 = None  # barrier merit at v for the current mu, once known
    total = backtracks = merit_evals = 0
    status = "optimal"
    message = ""
    done = False
    if log is not None:
        log.write("iter,mu,merit,step,decrement,worst_residual\n")

    while not done:
        gap_hit = m * mu <= _gap_target(work, v, settings)
        ctol = settings.final_centering_tol if gap_hit else settings.centering_tol
        step_cap = settings.final_step_cap if gap_hit else settings.center_step_cap
        steps_here = 0
        prev_dec2 = math.inf
        while True:
            g, pieces = _eval_pieces(work, v, mu, vals)
            p = _newton_banded(work, pieces, g, mu)
            dec2 = float(-g @ p)
            if not np.isfinite(dec2) or dec2 <= 0:
                status, done = "stalled", True
                message = f"Newton decrement^2 {dec2:.3g} at mu {mu:.3g}"
                break
            if phi0 is None:
                phi0 = _phi(work, v, mu, vals)
            if 0.5 * dec2 <= ctol * max(1.0, abs(phi0)):
                break
            # float-precision stall: small decrement no longer contracting
            if dec2 < 1e-7 and dec2 > 0.9 * prev_dec2:
                break
            if steps_here >= step_cap:
                break  # partial centering is fine mid-path; mu keeps shrinking
            if total >= settings.max_iters:
                status, message, done = "max_iters", "newton budget exhausted", True
                break
            slope = float(g @ p)
            step = p * scale
            t, ok, phi1 = 1.0, False, math.inf
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
            steps_here += 1
            prev_dec2 = dec2
            if log is not None:
                log.write(f"{total},{mu:.6g},{phi1:.12g},{t:.6g},"
                          f"{dec2:.6g},{float(np.max(vals)):.6g}\n")
            if not ok:
                status, done = "stalled", True
                message = (f"no acceptable step in {settings.max_backtracks} "
                           f"backtracks at mu {mu:.3g}")
                break
            if phi0 - phi1 < 1e-16 * max(1.0, abs(phi0)):
                break  # stalled at numerical precision: accept as centered
            v, vals, phi0 = cand, cand_vals, phi1
        if done:
            break
        if gap_hit and steps_here < step_cap:
            break
        if gap_hit:
            continue  # gap reached but final centering was cut short: finish it
        mu *= settings.barrier_shrink
        phi0 = None

    vals = work.values(v)
    duals = mu / np.maximum(-vals, 1e-300)
    kkt = KktReport(
        primal=float(np.max(vals)) if m else -math.inf,
        stationarity=_stationarity(work, v, duals),
        complementarity=float(np.max(np.abs(duals * vals))) if m else 0.0,
    )
    return SolverResult(
        variables=v, objective=float(np.asarray(problem.obj_coef) @ v),
        status=status, kkt=kkt, iterations=total, gap=m * mu, message=message,
        backtracks=backtracks, merit_evals=merit_evals,
    )


def _gap_target(work: _Work, v: np.ndarray, settings: SolverSettings) -> float:
    # one extra decade under the nominal tolerance keeps the relative
    # objective error below kkt_tol on unit-scale problems
    return 0.1 * settings.kkt_tol * max(1.0, abs(work.objective_w(v)))


def _stationarity(work: _Work, v: np.ndarray, duals: np.ndarray) -> float:
    for fi in work.live:
        f = work.families[fi]
        G_w = f.grads(v[f.idx]) * work.s_gath[fi]
        np.multiply(G_w, duals[work.rows[fi], None], out=work.grad_rows[fi])
    return float(np.max(np.abs(work.gradient())))


def solve(problem, start: np.ndarray | None = None,
          settings: SolverSettings | None = None,
          log_path=None) -> SolverResult:
    """Minimize the problem's linear objective over its residual families.

    The start (problem.start unless given) must be strictly interior: a
    ValueError naming the worst row and its value is raised otherwise.
    log_path, when given, receives one CSV line per Newton step (iteration,
    mu, merit, step length, decrement, worst residual) for convergence
    debugging.
    """
    settings = settings or SolverSettings()
    v0 = np.array(problem.start if start is None else start, dtype=float)
    work = _Work(problem)
    if work.m == 0:
        return SolverResult(v0, float(np.asarray(problem.obj_coef) @ v0), "optimal",
                            KktReport(-math.inf, 0.0, 0.0), 0, 0.0)

    vals0 = work.values(v0)
    worst = int(np.argmax(vals0))
    if vals0[worst] >= 0.0:
        labels = [label for f in work.families for label in f.row_labels]
        raise ValueError(f"start is not strictly interior: residual "
                         f"{labels[worst]} = {vals0[worst]:.3e}")
    if log_path is None:
        return _barrier_minimize(work, problem, v0, vals0, settings)
    from pathlib import Path

    with Path(log_path).open("w", encoding="utf-8") as log:
        return _barrier_minimize(work, problem, v0, vals0, settings, log=log)


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
