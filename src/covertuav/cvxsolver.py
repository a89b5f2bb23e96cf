"""Primal-dual interior-point solver for smooth convex programs.

Solves   minimize  c . v   subject to  c_i(v) <= 0
with every c_i smooth and convex, supplied as vectorized residual families
carrying analytic gradients and the Hessian entries of a declared pattern
(see convexify.ResidualFamily).
This matches the subproblems assembled here: a few thousand variables,
residuals touching only a handful of variables each, plus one dense linear
budget row.

Each iterate is a strictly feasible point v with slacks s = -c(v) > 0 and
duals lam > 0 (S. J. Wright, Primal-Dual Interior-Point Methods, SIAM 1997).
The Newton matrix is sum_i lam_i hess c_i + (lam_i / s_i) grad c_i
grad c_i^T, the primal barrier Hessian with lam in place of mu / s, and the
right-hand side is the barrier gradient at mu, so the step p descends the
barrier merit c . v - mu sum log s and a feasibility-then-Armijo
backtracking line search on that merit (LS_ALPHA, LS_BETA) takes it. The
duals then move by dlam = -lam + mu / s + lam (G p) / s with a
fraction-to-boundary step and are clipped to within a factor KAPPA_SIGMA of
mu / s. mu shrinks by MU_SHRINK once the iterate solves the mu-problem to
KAPPA_EPS mu (Waechter & Biegler, Math. Program. 106, 2006), and the solve
stops when the gap lam . s and the dual residual c + G^T lam both meet their
targets.
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
as a linear family of span w and r rows with w^2 <= r. A family's rows come
in blocks over the same variables (the slot family's three rows per slot),
so G G^T is summed per block and the Hessian enters only at its pattern
entries, never as full blocks. All gradient entries sit in one flat array,
so G^T w and G p are one scatter each; band entries are scattered with one
precomputed index per solve, and what does not change within a solve is
built once: the linear families' scaled gradients, G G^T entries and dyad
columns.

A solve that cannot go on, because the Newton matrix does not factor, no
trial within max_backtracks is acceptable or the Newton decrement is not
finite and positive, ends with status "stalled" at the current interior
iterate; "max_iters" means the Newton budget ran out. Everything is
deterministic: no randomized pivoting, no restarts.

Rows are numbered over the families in order; row_label names one only when
an error reports it, so no label is built on the solver's path.
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
MU_SHRINK = 0.2      # factor mu shrinks by
LS_ALPHA = 0.01      # Armijo slope fraction
LS_BETA = 0.5        # backtracking factor
KKT_ACTIVE_TOL = 1e-5  # check_kkt: rows within this relative margin are near-active


@dataclass(frozen=True)
class SolverSettings:
    kkt_tol: float = 1e-7          # stop: gap <= 0.1 kkt_tol max(1, |f|), dual
                                   # residual <= 10 kkt_tol max(1, |c|_inf)
    max_iters: int = 600           # total Newton steps
    barrier_mu_init: float = 1.0   # first mu of a cold start
    max_backtracks: int = 80

    def __post_init__(self):
        if self.kkt_tol <= 0:
            raise ValueError("kkt_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class KktReport:
    primal: float           # max residual value (feasible when <= 0)
    stationarity: float     # inf-norm of grad f + J^T lambda, scaled variables
    complementarity: float  # max |lambda_i * c_i|


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
    backtracks: int = 0     # line-search trials rejected (each shrinks t by LS_BETA)
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


def row_label(families, row: int) -> str:
    """kind[group] of residual row `row`, counted over the families in order."""
    for f in families:
        if 0 <= row < f.m:
            kinds = f.kinds or (f.name,)
            return f"{kinds[row % len(kinds)]}[{row // len(kinds)}]"
        row -= f.m
    raise IndexError("residual row out of range")


class _Work:
    """Band layout, scatter indices, scaled views and the per-solve constants
    of one problem instance. Everything here lives as long as one solve.

    Per-family arrays put the block axis last, (rows, k, blocks) for
    gradients, so that each operation runs over long contiguous rows.
    """

    def __init__(self, problem):
        self.families = list(problem.families)
        self.scale = np.asarray(problem.var_scale, dtype=float)
        self.d = d = self.scale.size
        self.c_w = np.asarray(problem.obj_coef, dtype=float) * self.scale
        self.m = sum(f.m for f in self.families)
        ends = np.cumsum([f.m for f in self.families])
        self.rows = [slice(e - f.m, e) for f, e in zip(self.families, ends)]

        # a constant column (negative index) has scale 0, so its gradient and
        # Newton entries vanish, and its scatter entries go to a trailing bin
        # that is dropped after the scatter
        live = [fi for fi, f in enumerate(self.families) if f.m]
        self.s_gath = [np.where(f.idx >= 0, self.scale[f.idx], 0.0).T[None]
                       for f in self.families]
        # the band is as wide as the widest nonlinear row, or as a linear
        # family of span w and r rows with w^2 <= r (widening the band costs
        # about d w^2, dyads about d r); wider linear rows become low-rank
        # dyad corrections
        span = {}
        for fi in live:
            idx = self.families[fi].idx
            span[fi] = int((idx.max(axis=1) - np.where(idx >= 0, idx, d).min(axis=1)).max())
        band = max((span[fi] for fi in live if not self.families[fi].is_linear
                    or span[fi] ** 2 <= self.families[fi].m), default=0)
        self.wide = {fi for fi in live if span[fi] > band}
        self.band = band
        self.live = live
        # line-search trials test the cheap linear rows first
        self.trial_order = ([fi for fi in live if self.families[fi].is_linear]
                            + [fi for fi in live if not self.families[fi].is_linear])

        # every gradient entry of every family in one flat array, each
        # family's (rows, k, blocks) in turn, with the variable and the row
        # of each entry: G p and G^T w are then one gather and one
        # np.bincount each, whatever the number of families
        var, row, self.g_rows, pos = [], [], {}, 0
        for fi in live:
            f = self.families[fi]
            shape = (f.rows, f.k, f.idx.shape[0])
            var.append(np.broadcast_to(np.where(f.idx >= 0, f.idx, d).T, shape).ravel())
            first = self.rows[fi].start + np.arange(f.m).reshape(-1, f.rows).T
            row.append(np.broadcast_to(first[:, None, :], shape).ravel())
            self.g_rows[fi] = (pos, shape)
            pos += f.m * f.k
        self.g_all = np.empty(pos)
        self.entry_row = np.concatenate(row) if row else np.zeros(0, dtype=np.int64)
        # gradient weights: c_w, then the weighted entries; one scatter index
        # per solve, and np.bincount adds its weights in index order
        self.grad_index = np.concatenate([np.arange(d)] + var)
        self.grad_w = np.empty(self.grad_index.size)
        self.grad_w[:d] = self.c_w

        # band weights, family by family, one entry per local pair (i, j),
        # i <= j, and block: first the declared Hessian pattern, then the
        # other pairs of columns that name a variable in some row. Each lands
        # in upper band storage at (min, max) of its two indices, or in the
        # dropped bin when one is constant. Per-solve constants: the scaled
        # gradients of the linear families and their G G^T entries, and the
        # scale products of each Hessian pattern.
        self.hess_size = (band + 1) * d
        self.g_lin, self.gg_lin, self.h_pairs, self.h_scale, self.dyads = {}, {}, {}, {}, {}
        self.h_kept = {}
        hess_parts, pos = [np.zeros(0, dtype=np.int64)], 0
        for fi in live:
            f, s = self.families[fi], self.s_gath[fi][0]
            if f.is_linear:
                self.g_lin[fi] = self.family_grads(fi)
                self.g_lin[fi][...] = _by_block(f.grads(np.zeros(f.idx.shape)), f) * s
            if fi in self.wide:
                # low-rank dyads, not band entries: one dense column per row
                self.dyads[fi] = np.zeros((d, f.m))
                self.dyads[fi][f.idx, np.arange(f.m)[:, None]] = self.g_lin[fi][0].T
                continue
            cols = np.nonzero((f.idx >= 0).any(axis=0))[0].tolist()
            # pattern entries between columns that are constant in every
            # block (STP's waypoint) would only ever reach the dropped bin
            kept = [n for n, (i, j) in enumerate(f.hess_pattern) if i in cols and j in cols]
            if len(kept) < len(f.hess_pattern):
                self.h_kept[fi] = np.array(kept, dtype=np.int64)
            pattern = [f.hess_pattern[n] for n in kept]
            pairs = pattern + [(i, j) for i in cols for j in cols
                               if i <= j and (i, j) not in pattern]
            P = np.array([i for i, _ in pairs], dtype=np.int64)
            Q = np.array([j for _, j in pairs], dtype=np.int64)
            ii, jj = f.idx[:, P].T, f.idx[:, Q].T
            hess_parts.append(np.where(
                (ii >= 0) & (jj >= 0),
                (band + np.minimum(ii, jj) - np.maximum(ii, jj)) * d + np.maximum(ii, jj),
                self.hess_size).ravel())
            self.h_pairs[fi] = (P, Q, len(pattern), slice(pos, pos + ii.size))
            pos += ii.size
            if f.is_linear:
                g = self.g_lin[fi]
                self.gg_lin[fi] = g[:, P] * g[:, Q]
            else:
                n_pat = len(pattern)
                self.h_scale[fi] = s[P[:n_pat]] * s[Q[:n_pat]]
        self.hess_index = np.concatenate(hess_parts)
        self.hess_w = np.empty(pos)

    def values(self, v: np.ndarray) -> np.ndarray:
        return residual_values(self.families, v)

    def family_grads(self, fi: int) -> np.ndarray:
        """Family fi's (rows, k, blocks) view of g_all."""
        pos, shape = self.g_rows[fi]
        return self.g_all[pos:pos + math.prod(shape)].reshape(shape)

    def gradient(self, weights: np.ndarray) -> np.ndarray:
        """c_w + sum_i weights_i grad c_i in scaled coordinates, G at the last
        pieces' point: the barrier gradient for weights mu / s, the
        Lagrangian's for weights lam."""
        np.multiply(self.g_all, weights[self.entry_row], out=self.grad_w[self.d:])
        return np.bincount(self.grad_index, self.grad_w, minlength=self.d + 1)[:self.d]

    def directional(self, p: np.ndarray) -> np.ndarray:
        """G p: each row's derivative along p, over the entries in g_all."""
        along = self.g_all * np.append(p, 0.0)[self.grad_index[self.d:]]
        return np.bincount(self.entry_row, along, minlength=self.m)

    def hessian(self) -> np.ndarray:
        """Upper band storage (band + 1, d) of the weights written to hess_w."""
        flat = np.bincount(self.hess_index, self.hess_w, minlength=self.hess_size + 1)
        return flat[:self.hess_size].reshape(self.band + 1, self.d)

    def objective_w(self, v: np.ndarray) -> float:
        return float(self.c_w @ (v / self.scale))


def _by_block(x: np.ndarray, f) -> np.ndarray:
    """A family's (blocks, rows, n) output, or (blocks, n) with one row per
    block, as a (rows, n, blocks) view."""
    return x.reshape(f.idx.shape[0], f.rows, -1).transpose(1, 2, 0)


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
        if not vals.max() < 0.0:
            return None
        out[work.rows[fi]] = vals
    return out


def _pieces(work: _Work, v: np.ndarray, vals: np.ndarray, lam: np.ndarray):
    """Per-family Newton pieces at an interior v: (fi, V, s, G_w, lam) with
    s = -c the slacks and lam the duals of the family's rows, both shaped
    (rows, blocks), and G_w the (rows, k, blocks) gradients in scaled
    coordinates, written to work.g_all (so valid until the next call)."""
    pieces = []
    for fi in work.live:
        f = work.families[fi]
        rows = work.rows[fi]
        V = v[f.idx]
        G_w = work.g_lin.get(fi)
        if G_w is None:
            G_w = np.multiply(_by_block(f.grads(V), f), work.s_gath[fi],
                              out=work.family_grads(fi))
        pieces.append((fi, V, -vals[rows].reshape(-1, f.rows).T, G_w,
                       lam[rows].reshape(-1, f.rows).T))
    return pieces


def _phi(work: _Work, v: np.ndarray, mu: float, vals=None) -> float:
    """Barrier merit at v, inf outside the domain; vals, when given, are the
    residual values at v (an accepted line-search trial's)."""
    if vals is None:
        vals = _trial_values(work, v)
        if vals is None:
            return math.inf
    return work.objective_w(v) - mu * float(np.log(-vals).sum())


def _row_sum(w: np.ndarray, X: np.ndarray, out: np.ndarray) -> None:
    """out = sum over rows r of w[r] * X[r], for w (rows, blocks) and X
    (rows, n, blocks)."""
    if len(w) == 1:
        np.multiply(w[0], X[0], out=out)
    else:
        np.einsum("rb,rnb->nb", w, X, out=out)


def _band_weights(work: _Work, fi: int, V, s, G_w, lam) -> None:
    """Write one family's Newton-matrix entries (scaled coordinates) to hess_w.

    Per block, the sum over its rows of (lam / s) G G^T at the family's
    pairs, plus lam (H s_i) s_j on the Hessian pattern, which leads the
    pairs.
    """
    P, Q, n_pat, sl = work.h_pairs[fi]
    out = work.hess_w[sl].reshape(P.size, -1)
    coef = lam / s
    GG = work.gg_lin.get(fi)
    if GG is None:
        # row by row: a rows x pairs x blocks temporary passes 128 KB at 600
        # slots, and allocating it then costs more than filling it
        np.multiply(G_w[0, P], G_w[0, Q], out=out)
        out *= coef[0]
        for r in range(1, len(coef)):
            out += coef[r] * G_w[r, P] * G_w[r, Q]
    else:
        _row_sum(coef, GG, out)
    if n_pat:
        f = work.families[fi]
        h = np.empty((n_pat, s.shape[1]))
        H = _by_block(f.hess(V), f)
        if fi in work.h_kept:
            H = H[:, work.h_kept[fi]]
        _row_sum(lam, H, h)
        h *= work.h_scale[fi]
        out[:n_pat] += h


def _newton_banded(work: _Work, pieces, g: np.ndarray) -> np.ndarray:
    """Solve W p = -g, W = sum_i lam_i hess c_i + (lam_i / s_i) grad c_i grad c_i^T.

    Band entries go to one banded Cholesky factorization; each row of a
    family wider than the band is a dyad a a^T, a = sqrt(lam / s) grad c,
    folded in by the Woodbury identity. A factorization that fails raises
    numpy.linalg.LinAlgError.
    """
    dyad_cols = []
    for piece in pieces:
        fi, _, s, _, lam = piece
        if fi in work.wide:
            dyad_cols.append(work.dyads[fi] * np.sqrt(lam / s)[0])
        else:
            _band_weights(work, *piece)
    ab = work.hessian()
    if not dyad_cols:
        return sla.solveh_banded(ab, -g, lower=False)
    A = np.hstack(dyad_cols)
    X = sla.solveh_banded(ab, np.column_stack([-g, A]), lower=False)
    x0, Y = X[:, 0], X[:, 1:]
    Mk = np.eye(A.shape[1]) + A.T @ Y
    return x0 - Y @ np.linalg.solve(Mk, A.T @ x0)


def _dual_step(work: _Work, lam: np.ndarray, s: np.ndarray, p: np.ndarray,
               mu: float) -> np.ndarray:
    """Newton step of the duals, dlam = -lam + mu / s + lam (G p) / s, where
    G p is each row's directional derivative along the scaled step p (G at
    the last pieces' point)."""
    return (mu + lam * work.directional(p)) / s - lam


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
        r_dual = work.gradient(lam)
        dual_inf = float(np.abs(r_dual).max())
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
               and float(np.abs(comp - mu).max()) <= KAPPA_EPS * mu):
            mu *= MU_SHRINK
            phi0 = None
        g = work.gradient(mu / s)
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
            if phi1 <= phi0 + LS_ALPHA * t * slope:
                ok = True
                break
            backtracks += 1
            t *= LS_BETA
        total += 1
        if not ok:
            status = "stalled"
            message = (f"no acceptable step in {settings.max_backtracks} "
                       f"backtracks at mu {mu:.3g}")
            break
        # duals: fraction-to-boundary step, then back near the central path
        dlam = _dual_step(work, lam, s, p, mu)
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
        raise ValueError(f"start is not strictly interior: residual "
                         f"{row_label(work.families, worst)} = {vals0[worst]:.3e}")
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

def check_kkt(problem, point: np.ndarray, duals: np.ndarray | None = None) -> KktReport:
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
        G = f.grads(v[f.idx]).reshape(-1, f.rows, f.k) * scale[f.idx][:, None, :]
        for blk, idx in enumerate(f.idx):
            var = idx >= 0
            for r in range(f.rows):
                np.add.at(J[pos + r], idx[var], G[blk, r, var])
            pos += f.rows
    g0 = np.asarray(problem.obj_coef, dtype=float) * scale

    if duals is None:
        lam = np.zeros(m)
        act = vals >= -KKT_ACTIVE_TOL * (1.0 + np.abs(vals))
        if np.any(act):
            sol, _ = nnls(J[act].T, -g0)
            lam[act] = sol
    else:
        lam = np.asarray(duals, dtype=float)

    stat = float(np.max(np.abs(g0 + J.T @ lam))) if m else float(np.max(np.abs(g0)))
    comp = float(np.max(np.abs(lam * vals))) if m else 0.0
    return KktReport(primal=float(np.max(vals)) if m else -math.inf,
                     stationarity=stat, complementarity=comp)
