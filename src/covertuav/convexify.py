"""Convex restriction of the planning problem around a feasible expansion point.

The planner's constraints mix a chance constraint on the receiver's outage, a
covertness floor on the warden's average error rate, and the flight envelope.
This module turns them into a smooth convex subproblem:

* the outage chance constraint becomes one conservative quadratic inequality
  per slot; its bound slack and its second-order-cone slack enter with
  positive weights, so both sit at their closed-form optima (var_bob and the
  cone's norm, a smooth convex function of the waypoint) instead of being
  variables;
* the covertness constraint becomes two residuals per slot built from
  first-order surrogates g1..g5 that bound the true nonlinearities on the safe
  side and are tangent at the expansion point, so any point feasible for the
  subproblem is feasible for the original constraints; the tangent-bound
  slack on lambda + 1 sits at its optimum g5(q) + 1, which is affine in the
  waypoint, since both rows fall as it grows;
* mobility and power limits enter directly (steps are capped in squared form,
  which stays smooth when consecutive waypoints coincide while hovering).

The slack forms themselves, bti_outage_residuals and covertness_residuals,
stay as reference oracles. The subproblem has four residual families: the
step caps (mobility), the average-power budget, the simple bounds, and one
slot family whose three rows per slot (outage A, covertness D and E) share
one gather of the slot's variables. A fixed waypoint (the landing point in
the joint scheme, every waypoint in the power-only one) enters the rows as a
constant, so the power-only subproblem is the joint one with every waypoint
fixed. Each family returns analytic gradients and its Hessians only at the
entries of its declared pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cvxsolver import residual_values, row_label
from .detection import POSITIVE_FLOOR, DetectionModel, lambda_of, xi_lower_bound
from .scenario import (
    FEAS_RTOL,
    RATE_FLOOR,
    PowerSchedule,
    RateSchedule,
    ScenarioConfig,
    Trajectory,
    check_mobility,
    check_power,
)

# Lower bounds for subproblem variables whose residuals involve sqrt or 1/x.
U_FLOOR = 1e-10
P_FLOOR = 1e-11

# Step-radius inflation inside the subproblem. Minimum-time flights force
# every step to exactly the mobility radius, which would leave the feasible
# region with an empty interior; inflating by a tenth of the feasibility
# tolerance restores an interior without exceeding the tolerance the exact
# checks allow.
STEP_INFLATION = 0.1 * FEAS_RTOL


class InfeasibleExpansionError(ValueError):
    """The expansion point violates a constraint family of the true problem."""

    def __init__(self, family: str, message: str):
        self.family = family
        super().__init__(f"expansion point infeasible for {family}: {message}")


# ---------------------------------------------------------------------------
# expansion point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionPoint:
    """Feasible point the surrogates are linearized around.

    u1_tilde parametrizes the bilinear-sqrt surrogate and must be positive.
    The expansion point itself is the subproblem's start, which must be
    strictly feasible.
    """

    traj_tilde: Trajectory
    p_tilde: PowerSchedule
    r_tilde: RateSchedule
    u1_tilde: np.ndarray

    def __post_init__(self):
        u1 = np.asarray(self.u1_tilde, dtype=float).reshape(-1).copy()
        if not len(self.p_tilde) == len(self.r_tilde) == u1.size == len(self.traj_tilde):
            raise ValueError("expansion point arrays disagree on slot count")
        if np.any(u1 < POSITIVE_FLOOR):
            raise ValueError("u1_tilde must be positive")
        u1.flags.writeable = False
        object.__setattr__(self, "u1_tilde", u1)

    @property
    def num_slots(self) -> int:
        return len(self.traj_tilde)


# ---------------------------------------------------------------------------
# surrogate functions (reference implementations; broadcast over slots)
# ---------------------------------------------------------------------------

def g1(p, r, p_t, r_t, gamma0: float):
    """Concave lower bound on gamma0 * p / (2**r - 1), tangent at (p_t, r_t)."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    e_t = np.exp2(r_t) - 1.0
    out = (
        p_t * gamma0 / e_t
        - (p_t * p_t) * gamma0 / e_t * (1.0 / p - 1.0 / p_t)
        - p_t * gamma0 * (np.exp2(r) - np.exp2(r_t)) / (e_t * e_t)
    )
    return out if out.shape else float(out)


def g2(q, u1, q_t, u1_t, willie_est, var_willie: float):
    """Convex upper bound on sqrt((|q - willie|^2/var + 1) * u1).

    Linear in u1, quadratic in q; tangent at (q_t, u1_t), u1_t > 0.
    """
    q = np.asarray(q, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    u1_t = np.maximum(np.asarray(u1_t, dtype=float), POSITIVE_FLOOR)
    lam = np.sum((q - willie_est) ** 2, axis=-1) / var_willie
    lam_t = np.sum((np.asarray(q_t, dtype=float) - willie_est) ** 2, axis=-1) / var_willie
    a = lam_t + 1.0
    out = (
        np.sqrt(a * u1_t)
        + 0.5 * np.sqrt(a / u1_t) * (u1 - u1_t)
        + 0.5 * np.sqrt(u1_t / a) * (lam - lam_t)
    )
    return out if out.shape else float(out)


def g3(p, p_t, model: DetectionModel):
    """Affine upper bound on ln(1 + beta1 * var * p / H^2), tangent at p_t."""
    p = np.asarray(p, dtype=float)
    p_t = np.asarray(p_t, dtype=float)
    h2 = model.altitude_H**2
    bw = model.beta1 * model.var_willie
    out = np.log1p(bw * p_t / h2) + bw * (p - p_t) / (h2 + bw * p_t)
    return out if out.shape else float(out)


def g4(q, p, q_t, p_t, model: DetectionModel, willie_est):
    """Upper bound on ln(lam(q) + 2 + H^2/var + beta1 * p).

    Convex in q (the squared-distance term keeps its curvature), affine in p.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    lam = np.sum((q - willie_est) ** 2, axis=-1) / model.var_willie
    lam_t = np.sum((np.asarray(q_t, dtype=float) - willie_est) ** 2, axis=-1) / model.var_willie
    denom = lam_t + 2.0 + model.h2_over_var + model.beta1 * np.asarray(p_t)
    out = np.log(denom) + ((lam - lam_t) + model.beta1 * (p - np.asarray(p_t))) / denom
    return out if out.shape else float(out)


def g5(q, q_t, willie_est, var_willie: float):
    """Affine lower bound on |q - willie|^2 / var, tangent at q_t."""
    q = np.asarray(q, dtype=float)
    q_t = np.asarray(q_t, dtype=float)
    lam_t = np.sum((q_t - willie_est) ** 2, axis=-1) / var_willie
    out = (2.0 / var_willie) * np.sum((q_t - willie_est) * (q - q_t), axis=-1) + lam_t
    return out if out.shape else float(out)


def bti_outage_residuals(q, p, r, y1, z1, cfg: ScenarioConfig, p_t=None, r_t=None):
    """Per-slot residuals (A, B, C) of the conservative outage reformulation.

    A uses the concave surrogate g1 when an expansion point (p_t, r_t) is
    given, otherwise the true power/rate coupling (the two agree at the
    expansion point). All residuals are feasible when <= 0.

    Returns (res_a, res_b, res_c) with res_c the tighter of the two slack
    bound margins per slot.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    z1 = np.asarray(z1, dtype=float)
    eps2 = cfg.var_bob
    dist2 = np.sum((q - cfg.bob_est) ** 2, axis=-1)
    s_b = math.sqrt(-2.0 * math.log(cfg.rho_b))
    a_b = -math.log(cfg.rho_b)
    if p_t is None:
        coupling = cfg.gamma0 * p / (np.exp2(r) - 1.0)
    else:
        coupling = g1(p, r, p_t, r_t, cfg.gamma0)
    res_a = (
        2.0 * eps2
        + s_b * z1
        + a_b * y1
        + dist2
        + cfg.altitude_H**2
        - coupling
    )
    res_b = np.sqrt(2.0 * eps2**2 + 2.0 * eps2 * dist2) - z1
    res_c = np.maximum(eps2 - y1, -z1)
    return res_a, res_b, res_c


def covertness_residuals(q, p, u1, u2, exp_pt: ExpansionPoint, model: DetectionModel,
                         rho_w: float, willie_est):
    """Per-slot residuals (D, E, F) of the convexified covertness constraint.

    Surrogates are linearized at exp_pt. Feasible when <= 0; jointly with the
    slack relations they imply the closed-form error-rate bound stays above
    1 - rho_w.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    p = np.asarray(p, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    q_t = exp_pt.traj_tilde.waypoints
    p_t = exp_pt.p_tilde.powers
    u1_t = exp_pt.u1_tilde
    k_w = math.sqrt(2.0 * math.pi) * math.log(model.rho) * rho_w
    res_d = (
        math.sqrt(math.pi / 2.0) * g2(q, u1, q_t, u1_t, willie_est, model.var_willie)
        - np.sqrt(u1)
        + g3(p, p_t, model)
        - k_w * np.sqrt(u2)
    )
    res_e = (
        g4(q, p, q_t, p_t, model, willie_est)
        - np.log(u2 + 1.0 + model.h2_over_var)
        - np.sqrt(u1)
    )
    res_f = u2 - g5(q, q_t, willie_est, model.var_willie) - 1.0
    return res_d, res_e, res_f


# ---------------------------------------------------------------------------
# variable layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarLayout:
    """Maps per-slot named variables to flat vector indices.

    Each slot holds (qx, qy, p, r, u1) in that order, or (p, r, u1) when its
    waypoint is fixed (the final one always is; all of them are in the
    power-only scheme); fixed waypoints carry index -1.
    """

    n_slots: int
    traj_free: bool
    qx: np.ndarray
    qy: np.ndarray
    p: np.ndarray
    r: np.ndarray
    u1: np.ndarray
    n_var: int

    @classmethod
    def build(cls, n_slots: int, traj_free: bool) -> "VarLayout":
        q_free = np.arange(n_slots) < (n_slots - 1 if traj_free else 0)
        width = np.where(q_free, 5, 3)
        first = np.cumsum(width) - width
        p = first + np.where(q_free, 2, 0)
        idx = {"qx": np.where(q_free, first, -1), "qy": np.where(q_free, first + 1, -1),
               "p": p, "r": p + 1, "u1": p + 2}
        for name in idx:
            idx[name] = idx[name].astype(np.int64)
            idx[name].flags.writeable = False
        return cls(n_slots=n_slots, traj_free=traj_free, n_var=int(width.sum()), **idx)


# ---------------------------------------------------------------------------
# residual families
# ---------------------------------------------------------------------------

class ResidualFamily:
    """Blocks of structurally identical residuals c_i(v) <= 0.

    idx holds, per block, the flat indices of the variables its rows touch;
    a negative index marks a constant column (a fixed waypoint) whose value
    the family supplies itself, and derivatives along it are ignored. Each
    block carries `rows` residual rows over the same variables, so m is the
    number of blocks times rows, and rows are numbered block by block.
    values/grads/hess take the gathered (blocks, k) variable matrix: values
    returns the m row values, grads (blocks, rows, k) and hess the Hessian
    entries listed in hess_pattern, (blocks, rows, len(hess_pattern)); with
    one row per block the rows axis may be left out. hess_pattern lists the
    (i, j), i <= j, entries of a row's symmetric Hessian that can be
    nonzero. Rows must be convex; NaNs in values are treated as out-of-domain
    by the solver.

    kinds names the rows in turn ((name,) when empty): row r is labelled
    kind[g], kind = kinds[r % len(kinds)] and g = r // len(kinds), by
    cvxsolver.row_label, only when a violated row is reported.
    """

    name: str = "residual"
    is_linear = False
    rows = 1
    hess_pattern: tuple = ()
    kinds: tuple = ()

    def __init__(self, idx: np.ndarray):
        self.idx = np.asarray(idx, dtype=np.int64)
        if self.idx.ndim != 2:
            raise ValueError("idx must be (blocks, k)")

    @property
    def m(self) -> int:
        return self.idx.shape[0] * self.rows

    @property
    def k(self) -> int:
        return self.idx.shape[1]

    def gather(self, v: np.ndarray) -> np.ndarray:
        return v[self.idx]

    def values(self, V: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grads(self, V: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, V: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LinearFamily(ResidualFamily):
    """Rows coef . v + const <= 0."""

    is_linear = True

    def __init__(self, idx, coef, const, name, kinds=()):
        super().__init__(idx)
        self.name, self.kinds = name, tuple(kinds)
        self.coef = np.asarray(coef, dtype=float)
        self.const = np.asarray(const, dtype=float)

    def values(self, V):
        return np.einsum("mk,mk->m", self.coef, V) + self.const

    def grads(self, V):
        return np.broadcast_to(self.coef, V.shape).copy()


class StepCapFamily(ResidualFamily):
    """Squared step-length caps |w_prev - w|^2 - L_eff^2 <= 0, one row per step.

    Columns: x, y of the earlier waypoint, then x, y of the later one. A fixed
    end of a step (the takeoff or landing point) has index -1 and its
    coordinates in `fixed`.
    """

    name = "mobility"
    hess_pattern = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (1, 3))

    def __init__(self, idx, fixed, cap_sq):
        super().__init__(idx)
        self.free = self.idx >= 0
        self.fixed = np.asarray(fixed, dtype=float)
        self.cap_sq = float(cap_sq)
        self._hess = np.broadcast_to([2.0, 2.0, 2.0, 2.0, -2.0, -2.0], (len(idx), 6))

    def _delta(self, V):
        W = np.where(self.free, V, self.fixed)
        return W[:, 0] - W[:, 2], W[:, 1] - W[:, 3]

    def values(self, V):
        dx, dy = self._delta(V)
        return dx * dx + dy * dy - self.cap_sq

    def grads(self, V):
        dx, dy = self._delta(V)
        g = np.empty((4, V.shape[0]))
        np.multiply(dx, 2.0, out=g[0])
        np.multiply(dy, 2.0, out=g[1])
        np.negative(g[0:2], out=g[2:4])
        return g.T

    def hess(self, V):
        return self._hess


_LN2 = math.log(2.0)


class SlotFamily(ResidualFamily):
    """The outage row and the two covertness rows of every slot, over one
    gather of the slot's [qx, qy, P, R, u1].

    Rows per slot, in this order, with per-slot constants of the expansion
    point (c_a holds the bound slack's a_b eps^2):
      outage_A: c_a + |q - bob|^2 + s_b sqrt(2 eps^4 + 2 eps^2 |q - bob|^2)
                + C1 (1/P - 1/Pt) + C2 2^Rt expm1(ln2 (R - Rt)),
      covert_D: c_d + l_d P + m_d u1 - sqrt(u1) + n_d |q - willie|^2
                - k_w sqrt(sl),
      covert_E: c_e + l_e P - sqrt(u1) + n_e |q - willie|^2 - ln(sl + e_c),
    where sl = g5(q) + 1 = lam_t + 1 + g5_grad . (q - q_t) is the tangent-
    bound slack at its optimum, affine in q; its tails are convex and
    decreasing, so D and E are convex. A's square root is the cone slack's
    norm, smooth because of the eps^4 term. A's expansion-relative terms are
    kept in difference form: the raw coefficients reach ~gamma0/(2^Rt - 1)^2,
    and evaluating them against a separate constant would cancel ~1e10
    against ~1e10 to produce a ~1e-4 residual.

    Free waypoints come first (the layout fixes at most the trailing ones);
    a fixed waypoint (index -1) folds its terms into the row constants. The
    Hessian of each row is nonzero only on the waypoint block and on the
    diagonal of P, R and u1.
    """

    name = "slot"
    rows = 3
    kinds = ("outage_A", "covert_D", "covert_E")
    hess_pattern = ((0, 0), (0, 1), (1, 1), (2, 2), (3, 3), (4, 4))

    def __init__(self, idx, fixed_w, exp: ExpansionPoint, cfg: ScenarioConfig,
                 model: DetectionModel):
        super().__init__(idx)
        free = self.idx[:, 0] >= 0
        self.nf = nf = int(free.sum())
        if not free[:nf].all():
            raise ValueError("free waypoints must precede the fixed ones")
        q_t, p_t, r_t = exp.traj_tilde.waypoints, exp.p_tilde.powers, exp.r_tilde.rates
        u1_t = exp.u1_tilde
        eps2, h2, var_w = cfg.var_bob, cfg.altitude_H**2, cfg.var_willie
        h2v = model.h2_over_var
        a_b = -math.log(cfg.rho_b)
        c_sq = math.sqrt(math.pi / 2.0)
        dw = q_t - cfg.willie_est
        lam_t = np.sum(dw * dw, axis=1) / var_w
        lam1_t = lam_t + 1.0
        # g1 coefficients
        e_rt = np.exp2(r_t) - 1.0
        c0 = cfg.gamma0 * p_t / e_rt
        c1 = cfg.gamma0 * p_t * p_t / e_rt
        c2 = cfg.gamma0 * p_t / (e_rt * e_rt)
        # g2 coefficients, scaled by sqrt(pi/2)
        a0 = np.sqrt(lam1_t * u1_t)
        a1 = c_sq * 0.5 * np.sqrt(lam1_t / u1_t)
        a2 = c_sq * 0.5 * np.sqrt(u1_t / lam1_t)
        # g3 coefficients
        bw = model.beta1 * var_w
        b0 = np.log1p(bw * p_t / h2)
        b1 = bw / (h2 + bw * p_t)
        # g4 coefficients
        denom = lam_t + 2.0 + h2v + model.beta1 * p_t
        # every array below is one value per slot, or per free slot for the
        # waypoint terms, so that each operation runs over one contiguous row
        self.bx, self.by = (float(x) for x in cfg.bob_est)
        self.wx, self.wy = (float(x) for x in cfg.willie_est)
        self.e4, self.e2 = 2.0 * eps2 * eps2, 2.0 * eps2
        self.s_b = math.sqrt(-2.0 * math.log(cfg.rho_b))
        self.k_w = math.sqrt(2.0 * math.pi) * math.log(model.rho) * cfg.rho_w
        self.e_c = 1.0 + h2v
        self.c1, self.p_t, self.r_t = c1, p_t, r_t
        self.c2rt = c2 * np.exp2(r_t)
        self.l_d, self.l_e, self.m_d = b1, model.beta1 / denom, a1
        g5 = (2.0 / var_w) * dw
        self.n_d, self.n_e = a2 / var_w, (1.0 / denom) / var_w
        # c_a, c_d, c_e; outage A keeps its expansion-relative terms apart
        self.const = np.stack([
            2.0 * eps2 + a_b * eps2 + h2 - c0,
            c_sq * a0 - a1 * u1_t - a2 * lam_t + b0 - b1 * p_t,
            np.log(denom) - (lam_t + model.beta1 * p_t) / denom])
        self._add_q_values(self.const[:, nf:], *np.asarray(fixed_w, dtype=float)[nf:].T, *(
            x[nf:] for x in (q_t[:, 0], q_t[:, 1], g5[:, 0], g5[:, 1], lam1_t,
                             self.n_d, self.n_e)))
        self.q_free = tuple(np.ascontiguousarray(x[:nf]) for x in (
            q_t[:, 0], q_t[:, 1], g5[:, 0], g5[:, 1], lam1_t, self.n_d, self.n_e))
        # gradient entries that do not depend on the variables
        self.g_const = np.zeros((3, 5, len(self.idx)))
        self.g_const[1, 2] = self.l_d
        self.g_const[2, 2] = self.l_e

    def _slack(self, qx, qy, qtx, qty, gx, gy, lam1_t):
        return lam1_t + (gx * (qx - qtx) + gy * (qy - qty))

    def _add_q_values(self, out, qx, qy, qtx, qty, gx, gy, lam1_t, n_d, n_e):
        """Add the waypoint terms of the three rows at (qx, qy) to out (3, slots)."""
        dbx, dby = qx - self.bx, qy - self.by
        nb = dbx * dbx + dby * dby
        dwx, dwy = qx - self.wx, qy - self.wy
        nw = dwx * dwx + dwy * dwy
        s = self._slack(qx, qy, qtx, qty, gx, gy, lam1_t)
        out[0] += nb + self.s_b * np.sqrt(self.e4 + self.e2 * nb)
        out[1] += n_d * nw - self.k_w * np.sqrt(s)
        out[2] += n_e * nw - np.log(s + self.e_c)

    # values, grads and hess build their output slot axis last, (3, ..., n),
    # and return its (n, 3, ...) view

    def values(self, V):
        nf = self.nf
        p, r, u1 = V[:, 2], V[:, 3], V[:, 4]
        out = np.empty((3, V.shape[0]))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rest = (self.c1 * (self.p_t - p) / (p * self.p_t)
                    + self.c2rt * np.expm1(_LN2 * (r - self.r_t)))
            # 1/p is only the convex branch for positive power
            out[0] = np.where(p > 0.0, rest, np.inf)
            su = np.sqrt(u1)
            out[1] = self.l_d * p + self.m_d * u1 - su
            out[2] = self.l_e * p - su
            out += self.const
            if nf:
                self._add_q_values(out[:, :nf], V[:nf, 0], V[:nf, 1], *self.q_free)
        return out.T.reshape(-1)

    def grads(self, V):
        nf = self.nf
        p, r, u1 = V[:, 2], V[:, 3], V[:, 4]
        g = self.g_const.copy()
        g[0, 2] = -self.c1 / (p * p)
        g[0, 3] = (self.c2rt * _LN2) * np.exp2(r - self.r_t)
        half_isu = 0.5 / np.sqrt(u1)
        g[1, 4] = self.m_d - half_isu
        np.negative(half_isu, out=g[2, 4])
        if nf:
            qx, qy = V[:nf, 0], V[:nf, 1]
            qtx, qty, gx, gy, lam1_t, n_d, n_e = self.q_free
            dbx, dby = qx - self.bx, qy - self.by
            a = 2.0 + (self.s_b * self.e2) / np.sqrt(self.e4 + self.e2 * (dbx * dbx + dby * dby))
            g[0, 0, :nf] = a * dbx
            g[0, 1, :nf] = a * dby
            dwx, dwy = 2.0 * (qx - self.wx), 2.0 * (qy - self.wy)
            s = self._slack(qx, qy, qtx, qty, gx, gy, lam1_t)
            t_d = -0.5 * self.k_w / np.sqrt(s)
            t_e = -1.0 / (s + self.e_c)
            g[1, 0, :nf] = n_d * dwx + t_d * gx
            g[1, 1, :nf] = n_d * dwy + t_d * gy
            g[2, 0, :nf] = n_e * dwx + t_e * gx
            g[2, 1, :nf] = n_e * dwy + t_e * gy
        return g.transpose(2, 0, 1)

    def hess(self, V):
        nf = self.nf
        p, r, u1 = V[:, 2], V[:, 3], V[:, 4]
        h = np.zeros((3, 6, V.shape[0]))
        h[0, 3] = (2.0 * self.c1) / (p * p * p)
        h[0, 4] = (self.c2rt * _LN2**2) * np.exp2(r - self.r_t)
        h[1, 5] = 0.25 / (u1 * np.sqrt(u1))
        h[2, 5] = h[1, 5]
        if nf:
            qx, qy = V[:nf, 0], V[:nf, 1]
            qtx, qty, gx, gy, lam1_t, n_d, n_e = self.q_free
            dbx, dby = qx - self.bx, qy - self.by
            s2 = self.e4 + self.e2 * (dbx * dbx + dby * dby)
            c = (self.s_b * self.e2) / np.sqrt(s2)
            kk = self.e2 * c / s2
            h[0, 0, :nf] = 2.0 + c - kk * dbx * dbx
            h[0, 1, :nf] = -kk * dbx * dby
            h[0, 2, :nf] = 2.0 + c - kk * dby * dby
            s = self._slack(qx, qy, qtx, qty, gx, gy, lam1_t)
            t_d = 0.25 * self.k_w / (s * np.sqrt(s))
            t_e = (s + self.e_c) ** -2.0
            for row, n_q, t in ((1, n_d, t_d), (2, n_e, t_e)):
                tx = t * gx
                h[row, 0, :nf] = 2.0 * n_q + tx * gx
                h[row, 1, :nf] = tx * gy
                h[row, 2, :nf] = 2.0 * n_q + t * gy * gy
        return h.transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# the assembled subproblem
# ---------------------------------------------------------------------------

@dataclass
class ConvexSubproblem:
    """Linear objective, convex residual families, and a strictly feasible start.

    The objective is minimize obj_coef . v (the negated mean rate). Immutable
    in practice: nothing mutates it after assembly, so it can be shared.
    """

    layout: VarLayout
    obj_coef: np.ndarray
    families: list
    start: np.ndarray
    var_scale: np.ndarray
    expansion: ExpansionPoint
    cfg: ScenarioConfig
    fixed_waypoints: np.ndarray  # (N, 2); rows for free slots hold expansion values

    @property
    def n_var(self) -> int:
        return self.layout.n_var

    def eval_values(self, v: np.ndarray) -> np.ndarray:
        return residual_values(self.families, v)

    def unpack(self, v: np.ndarray):
        """(trajectory, powers, rates, u1) of a subproblem point."""
        lay = self.layout
        free = lay.qx >= 0
        w = self.fixed_waypoints.copy()
        w[free, 0] = v[lay.qx[free]]
        w[free, 1] = v[lay.qy[free]]
        powers = PowerSchedule(np.maximum(v[lay.p], 0.0))
        rates = RateSchedule(np.maximum(v[lay.r], RATE_FLOOR))
        return Trajectory(w), powers, rates, v[lay.u1].copy()


# ---------------------------------------------------------------------------
# exact feasibility of the original constraints
# ---------------------------------------------------------------------------

def exact_feasibility(traj: Trajectory, powers: PowerSchedule, rates: RateSchedule,
                      cfg: ScenarioConfig, model: DetectionModel | None = None) -> dict:
    """Margins of the true (pre-surrogate) constraints at a candidate plan.

    Outage margins use the conservative reformulation with its slack variables
    at their per-slot optima (the slacks enter with positive weights, so the
    bound slack at var_bob and the cone slack at its norm are optimal).
    Covertness margins are the closed-form error-rate bound minus (1 - rho_w).
    All entries are feasible when >= -FEAS_RTOL * scale.
    """
    if model is None:
        model = DetectionModel.from_config(cfg)
    w = traj.waypoints
    dist2_b = np.sum((w - cfg.bob_est) ** 2, axis=1)
    res_a, _, _ = bti_outage_residuals(
        w, powers.powers, rates.rates, np.full(len(traj), cfg.var_bob),
        np.sqrt(2.0 * cfg.var_bob**2 + 2.0 * cfg.var_bob * dist2_b), cfg)
    lam = lambda_of(w, cfg.willie_est, cfg.var_willie)
    xi = xi_lower_bound(lam, powers.powers, model)
    power_margins = check_power(powers, cfg)
    return {
        "mobility": check_mobility(traj, cfg),
        "power_avg": power_margins.avg_margin,
        "power_peak": power_margins.peak_margins,
        "outage": -res_a,
        "covertness": xi - (1.0 - cfg.rho_w),
        "lambda": lam,
        "xi_lower_bound": xi,
    }


def first_violation(margins: dict, cfg: ScenarioConfig) -> str | None:
    """The first constraint family whose margins break tolerance, or None.

    Families are tested in the order mobility, power, outage, covertness; a
    margin below -FEAS_RTOL times its family's scale (or NaN) is a violation.
    """
    tol_pow = FEAS_RTOL * max(cfg.p_peak_max, 1e-30)
    for family, margin, tol in (
            ("mobility", margins["mobility"], FEAS_RTOL * cfg.max_step_L),
            ("power", np.append(margins["power_peak"], margins["power_avg"]), tol_pow),
            ("outage", margins["outage"], FEAS_RTOL * max(cfg.altitude_H**2, 1.0)),
            ("covertness", margins["covertness"], FEAS_RTOL)):
        if not np.all(margin >= -tol):
            return family
    return None


def exact_feasible(margins: dict, cfg: ScenarioConfig) -> bool:
    return first_violation(margins, cfg) is None


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _check_expansion(exp: ExpansionPoint, cfg: ScenarioConfig, model: DetectionModel,
                     margins: dict | None):
    n = exp.num_slots
    if n != cfg.num_slots_N:
        raise InfeasibleExpansionError("layout", f"{n} slots vs scenario {cfg.num_slots_N}")
    if margins is None:
        margins = exact_feasibility(exp.traj_tilde, exp.p_tilde, exp.r_tilde, cfg, model)
    family = first_violation(margins, cfg)
    if family == "power":
        raise InfeasibleExpansionError(family, "power caps violated")
    if family is not None:
        what, unit = ("step margin", " m") if family == "mobility" else ("margin", "")
        raise InfeasibleExpansionError(
            family, f"worst {what} {margins[family].min():.3e}{unit}")
    return margins


def assemble_subproblem(exp: ExpansionPoint, cfg: ScenarioConfig,
                        fixed_trajectory: bool = False,
                        margins: dict | None = None) -> ConvexSubproblem:
    """Build the convex restricted subproblem at a feasible expansion point.

    With fixed_trajectory the waypoints are frozen at the expansion trajectory
    and only power, rate and u1 variables remain (the power-only scheme).
    margins, when given, are exact_feasibility's margins at exp, which are then
    checked rather than computed again.
    """
    model = DetectionModel.from_config(cfg)
    _check_expansion(exp, cfg, model, margins)

    n = cfg.num_slots_N
    traj_free = (not fixed_trajectory) and n >= 2
    lay = VarLayout.build(n, traj_free)

    q_t = exp.traj_tilde.waypoints

    # fixed waypoint values: expansion trajectory, with the final slot pinned
    # to the landing point it must already match
    fixed_w = q_t.copy()
    if traj_free:
        if np.linalg.norm(q_t[-1] - cfg.q_final) > FEAS_RTOL * cfg.max_step_L:
            raise InfeasibleExpansionError("mobility", "expansion must end at q_final")
        fixed_w[-1] = cfg.q_final

    families: list[ResidualFamily] = []

    # --- mobility ---------------------------------------------------------
    cap_sq = (cfg.max_step_L * (1.0 + STEP_INFLATION)) ** 2
    if traj_free:
        # step i flies w_{i-1} -> w_i, with w_{-1} = q_init and w_{n-1} = q_final fixed
        prev_x, prev_y = np.append(-1, lay.qx[:-1]), np.append(-1, lay.qy[:-1])
        ends = np.zeros((n, 4))
        ends[0, 0:2] = cfg.q_init
        ends[n - 1, 2:4] = cfg.q_final
        families.append(StepCapFamily(
            np.stack([prev_x, prev_y, lay.qx, lay.qy], axis=1), ends, cap_sq))
    else:
        # trajectory is constant: verify the steps obey the cap outright
        pts = np.vstack([cfg.q_init, q_t])
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(steps > cfg.max_step_L * (1.0 + FEAS_RTOL)):
            raise InfeasibleExpansionError("mobility", "fixed trajectory breaks the step cap")

    # --- power budget -----------------------------------------------------
    families.append(LinearFamily(
        idx=lay.p[None, :],
        coef=np.full((1, n), 1.0 / n),
        const=np.array([-cfg.p_avg_max]),
        name="power_avg",
    ))

    # --- simple bounds, four rows per slot ------------------------------------
    families.append(LinearFamily(
        idx=np.stack([lay.p, lay.p, lay.r, lay.u1], axis=1).reshape(-1, 1),
        coef=np.tile([1.0, -1.0, -1.0, -1.0], n)[:, None],
        const=np.tile([-cfg.p_peak_max, P_FLOOR, RATE_FLOOR, U_FLOOR], n),
        name="bounds",
        kinds=("power_peak", "power_floor", "rate_floor", "u1_floor"),
    ))

    # --- outage and covertness, three rows per slot ---------------------------
    families.append(SlotFamily(
        np.stack([lay.qx, lay.qy, lay.p, lay.r, lay.u1], axis=1), fixed_w, exp, cfg, model))
    free = lay.qx >= 0

    # --- objective, start, scales ------------------------------------------
    obj = np.zeros(lay.n_var)
    obj[lay.r] = -1.0 / n

    scale = np.ones(lay.n_var)
    scale[lay.qx[free]] = scale[lay.qy[free]] = 100.0
    # each power in units of its own expansion value: powers can sit many
    # decades under the budget, where a budget-sized unit leaves the Newton
    # system unable to resolve them
    scale[lay.p] = np.maximum(exp.p_tilde.powers, 2.0 * P_FLOOR)
    scale[lay.r] = 1.0
    scale[lay.u1] = max(float(np.median(exp.u1_tilde)), 1e-6)

    # the start is the expansion point, which the previous solve (or the
    # initializer) leaves strictly feasible; a start that is not is rejected
    # below, never repaired
    start = np.zeros(lay.n_var)
    start[lay.qx[free]] = q_t[free, 0]
    start[lay.qy[free]] = q_t[free, 1]
    start[lay.p] = np.clip(exp.p_tilde.powers, 2.0 * P_FLOOR, cfg.p_peak_max * (1.0 - 1e-9))
    start[lay.r] = exp.r_tilde.rates
    start[lay.u1] = np.maximum(exp.u1_tilde, 2.0 * U_FLOOR)

    sub = ConvexSubproblem(
        layout=lay, obj_coef=obj, families=families, start=start,
        var_scale=scale, expansion=exp, cfg=cfg, fixed_waypoints=fixed_w,
    )
    vals = sub.eval_values(start)
    bad = int(np.argmax(vals))
    if vals[bad] >= 0.0:
        raise InfeasibleExpansionError(
            row_label(families, bad),
            f"start residual {vals[bad]:.3e} is not strictly negative",
        )
    return sub
