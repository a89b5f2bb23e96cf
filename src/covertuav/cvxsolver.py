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
something the solver repairs. Every Newton system is one banded Cholesky
solve, the band as wide as the widest nonlinear residual's variable span (a
dense nonlinear row makes it a dense Cholesky), plus a Woodbury correction for
the linear rows wider than the band, which keeps the cost per step linear in
the number of slots. A factorization that fails to round-off is retried on a
ridge ladder (a growing multiple of the identity added to the diagonal).
Gradient and Hessian entries are scattered with one precomputed index per
solve. Everything is deterministic: no randomized pivoting, no restarts.
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
    status: str             # "optimal" | "max_iters"
    kkt: KktReport
    iterations: int
    gap: float              # duality-gap bound m * mu at exit
    message: str = ""


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
    """Band layout, scatter indices and scaled views for one problem instance."""

    def __init__(self, problem):
        self.families = list(problem.families)
        self.scale = np.asarray(problem.var_scale, dtype=float)
        self.d = self.scale.size
        self.c_w = np.asarray(problem.obj_coef, dtype=float) * self.scale
        self.m = sum(f.m for f in self.families)

        # the band is as wide as the widest nonlinear row; linear rows wider
        # than that turn into low-rank dyad corrections
        live = [fi for fi, f in enumerate(self.families) if f.m]
        span = {fi: int((self.families[fi].idx.max(axis=1)
                         - self.families[fi].idx.min(axis=1)).max()) for fi in live}
        band = max((span[fi] for fi in live if not self.families[fi].is_linear),
                   default=0)
        self.wide = {fi for fi in live if span[fi] > band}
        self.band = band
        self.s_gath = [self.scale[f.idx] for f in self.families]

        # one scatter index per solve: np.bincount adds its weights in index
        # order, the order np.add.at would take them family by family
        self.grad_index = np.concatenate(
            [np.arange(self.d)] + [self.families[fi].idx.ravel() for fi in live])
        hess_parts = [np.zeros(0, dtype=np.int64)]
        for fi in live:
            if fi in self.wide:
                continue  # low-rank dyads, not band entries
            idx = self.families[fi].idx
            ii, jj = idx[:, :, None], idx[:, None, :]
            # upper band storage; lower-triangle entries go to one trailing
            # bin that is dropped after the scatter
            tgt = np.where(ii <= jj, (band + ii - jj) * self.d + jj,
                           (band + 1) * self.d)
            hess_parts.append(tgt.ravel())
        self.hess_index = np.concatenate(hess_parts)
        self.hess_size = (band + 1) * self.d

    def values(self, v: np.ndarray) -> np.ndarray:
        return residual_values(self.families, v)

    def gradient(self, rows: list) -> np.ndarray:
        """c_w plus the per-family (m, k) gradient rows, scattered in one pass."""
        w = np.concatenate([self.c_w, *(r.ravel() for r in rows)])
        return np.bincount(self.grad_index, w, minlength=self.d)

    def hessian(self, blocks: list) -> np.ndarray:
        """Flat upper band storage from per-family (m, k, k) blocks.

        Blocks come in family order, without the wide families.
        """
        w = np.concatenate([np.zeros(0), *(b.ravel() for b in blocks)])
        return np.bincount(self.hess_index, w, minlength=self.hess_size)[:self.hess_size]

    def objective_w(self, v: np.ndarray) -> float:
        return float(self.c_w @ (v / self.scale))


def _eval_pieces(work: _Work, v: np.ndarray, mu: float):
    """Barrier gradient (scaled coords) and per-family pieces at an interior v."""
    pieces = []
    for fi, f in enumerate(work.families):
        if f.m == 0:
            continue
        V = v[f.idx]
        vals = f.values(V)
        w2 = mu / (-vals)
        G_w = f.grads(V) * work.s_gath[fi]
        pieces.append((fi, V, vals, G_w, w2))
    return work.gradient([G_w * w2[:, None] for _, _, _, G_w, w2 in pieces]), pieces


def _phi(work: _Work, v: np.ndarray, mu: float) -> float:
    vals = work.values(v)
    mx = float(np.max(vals)) if vals.size else -math.inf
    if mx >= 0.0:
        return math.inf
    return work.objective_w(v) - mu * float(np.sum(np.log(-vals)))


def _hess_block(work: _Work, mu: float, fi: int, V, vals, G_w, w2) -> np.ndarray:
    """Barrier Hessian blocks (m, k, k) of one family, scaled coordinates."""
    f = work.families[fi]
    blocks = (mu / (vals * vals))[:, None, None] * np.einsum("mi,mj->mij", G_w, G_w)
    if not f.is_linear:
        s = work.s_gath[fi]
        blocks = blocks + w2[:, None, None] * (f.hess(V) * s[:, :, None] * s[:, None, :])
    return blocks


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
    blocks, dyad_cols = [], []
    for piece in pieces:
        fi, _, vals, G_w, _ = piece
        if fi not in work.wide:
            blocks.append(_hess_block(work, mu, *piece))
            continue
        # H contribution mu * G G^T / c^2 == a a^T, a = sqrt(mu) G / |c|
        f = work.families[fi]
        coef = np.sqrt(mu) / (-vals)
        for r in range(f.m):
            a = np.zeros(d)
            a[f.idx[r]] = coef[r] * G_w[r]
            dyad_cols.append(a)
    ab = work.hessian(blocks).reshape(u + 1, d)
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


def _barrier_minimize(work: _Work, problem, v0: np.ndarray,
                      settings: SolverSettings, log=None) -> SolverResult:
    scale = work.scale
    v = v0.copy()
    m = work.m
    mu = settings.barrier_mu_init
    total = 0
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
            g, pieces = _eval_pieces(work, v, mu)
            p = _newton_banded(work, pieces, g, mu)
            dec2 = float(-g @ p)
            if not np.isfinite(dec2) or dec2 <= 0:
                break
            phi0 = work.objective_w(v) - mu * float(
                np.sum(np.log(-np.concatenate([pc[2] for pc in pieces]))))
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
            t, ok, phi1, cand = 1.0, False, math.inf, v
            for _ in range(settings.max_backtracks):
                cand = v + t * (p * scale)
                phi1 = _phi(work, cand, mu)
                if phi1 <= phi0 + settings.ls_alpha * t * slope:
                    ok = True
                    break
                t *= settings.ls_beta
            total += 1
            steps_here += 1
            prev_dec2 = dec2
            if log is not None:
                worst = float(np.max(np.concatenate([pc[2] for pc in pieces])))
                log.write(f"{total},{mu:.6g},{phi1:.12g},{t:.6g},"
                          f"{dec2:.6g},{worst:.6g}\n")
            if not ok or phi0 - phi1 < 1e-16 * max(1.0, abs(phi0)):
                break  # stalled at numerical precision: accept as centered
            v = cand
        if done:
            break
        if gap_hit and steps_here < step_cap:
            break
        if gap_hit:
            continue  # gap reached but final centering was cut short: finish it
        mu *= settings.barrier_shrink

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
    )


def _gap_target(work: _Work, v: np.ndarray, settings: SolverSettings) -> float:
    # one extra decade under the nominal tolerance keeps the relative
    # objective error below kkt_tol on unit-scale problems
    return 0.1 * settings.kkt_tol * max(1.0, abs(work.objective_w(v)))


def _stationarity(work: _Work, v: np.ndarray, duals: np.ndarray) -> float:
    rows = []
    pos = 0
    for fi, f in enumerate(work.families):
        if f.m == 0:
            continue
        G_w = f.grads(v[f.idx]) * work.s_gath[fi]
        rows.append(G_w * duals[pos:pos + f.m, None])
        pos += f.m
    return float(np.max(np.abs(work.gradient(rows))))


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
        return _barrier_minimize(work, problem, v0, settings)
    from pathlib import Path

    with Path(log_path).open("w", encoding="utf-8") as log:
        return _barrier_minimize(work, problem, v0, settings, log=log)


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
