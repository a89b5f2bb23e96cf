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
stay as reference oracles. Every residual is exposed with analytic gradient
and Hessian on its own variable support; the solver consumes the vectorized
family view, and tests consume the per-row view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cvxsolver import residual_values
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
    """A block of structurally identical residuals c_i(v) <= 0.

    idx holds, per row, the flat indices of the variables the row touches.
    values/grads/hess take the gathered (m, k) variable matrix. Rows must be
    convex; NaNs in values are treated as out-of-domain by the solver.
    hess_pattern lists the (i, j) entries of a row's Hessian that can be
    nonzero (None: all of them), and hess_constant marks a Hessian that does
    not depend on the variables; the solver builds its Newton blocks from
    these.
    """

    name: str = "residual"
    is_linear = False
    hess_pattern = None
    hess_constant = False

    def __init__(self, idx: np.ndarray, row_labels: list[str]):
        self.idx = np.asarray(idx, dtype=np.int64)
        if self.idx.ndim != 2:
            raise ValueError("idx must be (m, k)")
        self.row_labels = row_labels

    @property
    def m(self) -> int:
        return self.idx.shape[0]

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
        """Per-row (k, k) Hessian blocks, shape (m, k, k)."""
        raise NotImplementedError


class LinearFamily(ResidualFamily):
    """Rows coef . v + const <= 0."""

    is_linear = True

    def __init__(self, idx, coef, const, name, row_labels):
        super().__init__(idx, row_labels)
        self.name = name
        self.coef = np.asarray(coef, dtype=float)
        self.const = np.asarray(const, dtype=float)

    def values(self, V):
        return np.einsum("mk,mk->m", self.coef, V) + self.const

    def grads(self, V):
        return np.broadcast_to(self.coef, V.shape).copy()

    def hess(self, V):
        return np.zeros((self.m, self.k, self.k))


class StepCapFamily(ResidualFamily):
    """Squared step-length caps |p1 - p2|^2 - L_eff^2 <= 0.

    Rows either join two free waypoints (k = 4, columns x, y of the earlier
    one, then x, y of the later one) or one free waypoint and a constant
    anchor (k = 2).
    """

    hess_constant = True

    def __init__(self, idx, anchors, cap_sq, name, row_labels):
        super().__init__(idx, row_labels)
        self.name = name
        self.anchors = None if anchors is None else np.asarray(anchors, dtype=float)
        self.cap_sq = float(cap_sq)
        self.hess_pattern = [(i, i) for i in range(self.k)]
        if self.anchors is None:
            self.hess_pattern += [(0, 2), (2, 0), (1, 3), (3, 1)]

    def _delta(self, V):
        if self.anchors is None:
            return V[:, 0:2] - V[:, 2:4]
        return V - self.anchors

    def values(self, V):
        d = self._delta(V)
        return np.sum(d * d, axis=1) - self.cap_sq

    def grads(self, V):
        d = self._delta(V)
        if self.anchors is None:
            return np.concatenate([2.0 * d, -2.0 * d], axis=1)
        return 2.0 * d

    def hess(self, V):
        if self.anchors is None:
            h = np.zeros((4, 4))
            h[0, 0] = h[1, 1] = h[2, 2] = h[3, 3] = 2.0
            h[0, 2] = h[2, 0] = h[1, 3] = h[3, 1] = -2.0
        else:
            h = 2.0 * np.eye(2)
        return np.broadcast_to(h, (self.m,) + h.shape).copy()


class SlotFamily(ResidualFamily):
    """One row per slot whose waypoint terms are either live or constant.

    With has_q the first two columns are the slot's free waypoint (qx, qy)
    and the row adds _q_value(q); otherwise the waypoint stays at q_t and
    _q_value(q_t) joins const when the family is built. The other columns
    carry _rest_value. The waypoint block of the Hessian is a full 2 x 2, and
    the rest is diagonal on the columns listed in _curved.
    """

    _curved: tuple = ()

    def __init__(self, idx, has_q, q_t, const, name, row_labels):
        super().__init__(idx, row_labels)
        self.name = name
        self.has_q = has_q
        self.q_t = np.asarray(q_t, dtype=float)
        self._o = o = 2 if has_q else 0
        const = np.asarray(const, dtype=float)
        self.const = const if has_q else const + self._q_value(self.q_t)
        self.hess_pattern = ([(0, 0), (0, 1), (1, 0), (1, 1)] if has_q else []) + [
            (o + c, o + c) for c in self._curved]

    def values(self, V):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = self.const + self._rest_value(V[:, self._o:])
            if self.has_q:
                out = out + self._q_value(V[:, 0:2])
        return out

    def grads(self, V):
        g = np.empty_like(V)
        g[:, self._o:] = self._rest_grad(V[:, self._o:])
        if self.has_q:
            g[:, 0:2] = self._q_grad(V[:, 0:2])
        return g

    def hess(self, V):
        h = np.zeros((self.m, self.k, self.k))
        o = self._o
        for c, h_cc in zip(self._curved, self._rest_hess(V[:, o:])):
            h[:, o + c, o + c] = h_cc
        if self.has_q:
            h[:, 0:2, 0:2] = self._q_hess(V[:, 0:2])
        return h


class OutageAFamily(SlotFamily):
    """Conservative outage inequality with optimal slacks and g1 substituted.

    Row value: const + |q - bob|^2 + s_b sqrt(2 eps^4 + 2 eps^2 |q - bob|^2)
               + C1 (1/P - 1/Pt) + C2 2^Rt expm1(ln2 (R - Rt)) <= 0,
    with the bound slack's a_b eps^2 inside const. The square root is the
    cone slack's norm: convex in q, and smooth because of the eps^4 term. The
    two expansion-relative terms are kept in difference form: the raw
    coefficients reach ~gamma0/(2^Rt - 1)^2, and evaluating them against a
    separate constant would cancel ~1e10 against ~1e10 to produce a ~1e-4
    residual. Columns: [qx, qy, P, R] when q is free, else [P, R].
    """

    _curved = (0, 1)

    def __init__(self, idx, has_q, q_t, const, bob_est, eps2, s_b, c1, c2, p_t, r_t,
                 name, row_labels):
        self.bob = np.asarray(bob_est, dtype=float)
        self.eps2 = float(eps2)
        self.s_b = float(s_b)
        self.c1 = np.asarray(c1, dtype=float)
        self.c2rt = np.asarray(c2, dtype=float) * np.exp2(np.asarray(r_t, dtype=float))
        self.p_t = np.asarray(p_t, dtype=float)
        self.r_t = np.asarray(r_t, dtype=float)
        super().__init__(idx, has_q, q_t, const, name, row_labels)

    def _cone(self, Q):
        d = Q - self.bob
        s2 = 2.0 * self.eps2**2 + 2.0 * self.eps2 * np.sum(d * d, axis=1)
        return d, s2, np.sqrt(s2)

    def _q_value(self, Q):
        d, _, rt = self._cone(Q)
        return np.sum(d * d, axis=1) + self.s_b * rt

    def _q_grad(self, Q):
        d, _, rt = self._cone(Q)
        return (2.0 + 2.0 * self.s_b * self.eps2 / rt)[:, None] * d

    def _q_hess(self, Q):
        d, s2, rt = self._cone(Q)
        c = 2.0 * self.s_b * self.eps2 / rt
        return ((2.0 + c)[:, None, None] * np.eye(2)
                - (2.0 * self.eps2 * c / s2)[:, None, None] * np.einsum("mi,mj->mij", d, d))

    def _rest_value(self, R):
        p, r = R[:, 0], R[:, 1]
        out = (self.c1 * (self.p_t - p) / (p * self.p_t)
               + self.c2rt * np.expm1(math.log(2.0) * (r - self.r_t)))
        # 1/p is only the convex branch for positive power
        return np.where(p > 0.0, out, np.inf)

    def _rest_grad(self, R):
        p, r = R[:, 0], R[:, 1]
        return np.stack([-self.c1 / (p * p),
                         self.c2rt * math.log(2.0) * np.exp2(r - self.r_t)], axis=1)

    def _rest_hess(self, R):
        p, r = R[:, 0], R[:, 1]
        return 2.0 * self.c1 / p**3, self.c2rt * math.log(2.0) ** 2 * np.exp2(r - self.r_t)


class CovertFamily(SlotFamily):
    """Covertness row with the tangent-bound slack at its optimum g5(q) + 1.

    Row value: const + lin_p P + lin_u1 u1 - sqrt(u1)
               + quad |q - willie|^2 / var + tail(g5(q) + 1).
    g5(q) + 1 = lam_t + 1 + g5_grad . (q - q_t) is affine in q and tail is
    convex and decreasing, so the row is convex. Columns [qx, qy, P, u1] when
    q is free, else [P, u1]. Subclasses give tail and its derivatives.
    """

    _curved = (1,)

    def __init__(self, idx, has_q, q_t, const, willie_est, var_w, quad, lin_p, lin_u1,
                 name, row_labels):
        self.willie = np.asarray(willie_est, dtype=float)
        self.var_w = float(var_w)
        self.quad = np.asarray(quad, dtype=float)
        self.lin_p = np.asarray(lin_p, dtype=float)
        self.lin_u1 = lin_u1
        dw = np.asarray(q_t, dtype=float) - self.willie
        self.g5_grad = (2.0 / self.var_w) * dw
        self.lam1_t = np.sum(dw * dw, axis=1) / self.var_w + 1.0
        super().__init__(idx, has_q, q_t, const, name, row_labels)

    def _slack(self, Q):
        return self.lam1_t + np.einsum("mi,mi->m", self.g5_grad, Q - self.q_t)

    def _q_value(self, Q):
        d = Q - self.willie
        return self.quad * np.sum(d * d, axis=1) / self.var_w + self._tail(self._slack(Q))

    def _q_grad(self, Q):
        return ((2.0 * self.quad / self.var_w)[:, None] * (Q - self.willie)
                + self._tail_d1(self._slack(Q))[:, None] * self.g5_grad)

    def _q_hess(self, Q):
        return ((2.0 * self.quad / self.var_w)[:, None, None] * np.eye(2)
                + self._tail_d2(self._slack(Q))[:, None, None]
                * np.einsum("mi,mj->mij", self.g5_grad, self.g5_grad))

    def _rest_value(self, R):
        p, u1 = R[:, 0], R[:, 1]
        return self.lin_p * p + self.lin_u1 * u1 - np.sqrt(u1)

    def _rest_grad(self, R):
        return np.stack([self.lin_p, self.lin_u1 - 0.5 / np.sqrt(R[:, 1])], axis=1)

    def _rest_hess(self, R):
        return (0.25 * R[:, 1] ** -1.5,)


class CovertDFamily(CovertFamily):
    """sqrt(pi/2) g2 - sqrt(u1) + g3 - k_w sqrt(g5(q) + 1) <= 0."""

    def __init__(self, *args, k_w, **kwargs):
        self.k_w = float(k_w)
        super().__init__(*args, **kwargs)

    def _tail(self, s):
        return -self.k_w * np.sqrt(s)

    def _tail_d1(self, s):
        return -0.5 * self.k_w / np.sqrt(s)

    def _tail_d2(self, s):
        return 0.25 * self.k_w * s**-1.5


class CovertEFamily(CovertFamily):
    """g4 - ln(g5(q) + 1 + 1 + H^2/var) - sqrt(u1) <= 0."""

    def __init__(self, *args, e_c, **kwargs):
        self.e_c = float(e_c)  # 1 + H^2/var
        super().__init__(*args, **kwargs)

    def _tail(self, s):
        return -np.log(s + self.e_c)

    def _tail_d1(self, s):
        return -1.0 / (s + self.e_c)

    def _tail_d2(self, s):
        return (s + self.e_c) ** -2.0


# ---------------------------------------------------------------------------
# per-row view used by tests and diagnostics
# ---------------------------------------------------------------------------

class ResidualView:
    """Scalar residual c(v) <= 0 with a dense-gradient callback.

    Families carry per-row constants, so single rows are evaluated through
    the whole family; this view is for tests and audits, not hot paths.
    """

    __slots__ = ("family", "row", "name", "n_var")

    def __init__(self, family: ResidualFamily, row: int, n_var: int):
        self.family = family
        self.row = row
        self.name = family.row_labels[row]
        self.n_var = n_var

    def value(self, v: np.ndarray) -> float:
        V = self.family.gather(v)
        return float(self.family.values(V)[self.row])

    def grad(self, v: np.ndarray) -> np.ndarray:
        V = self.family.gather(v)
        g = np.zeros(self.n_var)
        np.add.at(g, self.family.idx[self.row], self.family.grads(V)[self.row])
        return g


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

    @property
    def n_constraints(self) -> int:
        return sum(f.m for f in self.families)

    def eval_values(self, v: np.ndarray) -> np.ndarray:
        return residual_values(self.families, v)

    def constraint_names(self) -> list[str]:
        names: list[str] = []
        for f in self.families:
            names.extend(f.row_labels)
        return names

    def residuals(self) -> list[ResidualView]:
        views: list[ResidualView] = []
        for f in self.families:
            views.extend(ResidualView(f, i, self.n_var) for i in range(f.m))
        return views

    def objective(self, v: np.ndarray) -> float:
        return float(self.obj_coef @ v)

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


def first_violation(margins: dict, cfg: ScenarioConfig, rtol: float = FEAS_RTOL) -> str | None:
    """The first constraint family whose margins break tolerance, or None.

    Families are tested in the order mobility, power, outage, covertness; a
    margin below -rtol times its family's scale (or NaN) is a violation.
    """
    tol_pow = rtol * max(cfg.p_peak_max, 1e-30)
    for family, margin, tol in (
            ("mobility", margins["mobility"], rtol * cfg.max_step_L),
            ("power", np.append(margins["power_peak"], margins["power_avg"]), tol_pow),
            ("outage", margins["outage"], rtol * max(cfg.altitude_H**2, 1.0)),
            ("covertness", margins["covertness"], rtol)):
        if not np.all(margin >= -tol):
            return family
    return None


def exact_feasible(margins: dict, cfg: ScenarioConfig, rtol: float = FEAS_RTOL) -> bool:
    return first_violation(margins, cfg, rtol) is None


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _check_expansion(exp: ExpansionPoint, cfg: ScenarioConfig, model: DetectionModel):
    n = exp.num_slots
    if n != cfg.num_slots_N:
        raise InfeasibleExpansionError("layout", f"{n} slots vs scenario {cfg.num_slots_N}")
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
                        fixed_trajectory: bool = False) -> ConvexSubproblem:
    """Build the convex restricted subproblem at a feasible expansion point.

    With fixed_trajectory the waypoints are frozen at the expansion trajectory
    and only power, rate and u1 variables remain (the power-only scheme).
    """
    model = DetectionModel.from_config(cfg)
    _check_expansion(exp, cfg, model)

    n = cfg.num_slots_N
    traj_free = (not fixed_trajectory) and n >= 2
    lay = VarLayout.build(n, traj_free)

    q_t = exp.traj_tilde.waypoints
    p_t = exp.p_tilde.powers
    r_t = exp.r_tilde.rates
    u1_t = np.maximum(exp.u1_tilde, POSITIVE_FLOOR)

    # fixed waypoint values: expansion trajectory, with the final slot pinned
    # to the landing point it must already match
    fixed_w = q_t.copy()
    if traj_free:
        if np.linalg.norm(q_t[-1] - cfg.q_final) > FEAS_RTOL * cfg.max_step_L:
            raise InfeasibleExpansionError("mobility", "expansion must end at q_final")
        fixed_w[-1] = cfg.q_final

    eps2 = cfg.var_bob
    h2 = cfg.altitude_H**2
    s_b = math.sqrt(-2.0 * math.log(cfg.rho_b))
    a_b = -math.log(cfg.rho_b)
    k_w = math.sqrt(2.0 * math.pi) * math.log(model.rho) * cfg.rho_w
    c_sq = math.sqrt(math.pi / 2.0)
    var_w = cfg.var_willie
    h2v = model.h2_over_var

    dw_t = q_t - cfg.willie_est
    lam_t = np.sum(dw_t * dw_t, axis=1) / var_w

    # g1 coefficients
    e_rt = np.exp2(r_t) - 1.0
    c0 = cfg.gamma0 * p_t / e_rt
    c1 = cfg.gamma0 * p_t * p_t / e_rt
    c2 = cfg.gamma0 * p_t / (e_rt * e_rt)
    # g2 coefficients, scaled by sqrt(pi/2)
    a0 = np.sqrt((lam_t + 1.0) * u1_t)
    a1 = c_sq * 0.5 * np.sqrt((lam_t + 1.0) / u1_t)
    a2 = c_sq * 0.5 * np.sqrt(u1_t / (lam_t + 1.0))
    # g3 coefficients
    bw = model.beta1 * var_w
    b0 = np.log1p(bw * p_t / h2)
    b1 = bw / (h2 + bw * p_t)
    # g4 coefficients
    denom = lam_t + 2.0 + h2v + model.beta1 * p_t
    g4_const = np.log(denom) - (lam_t + model.beta1 * p_t) / denom
    inv_denom = 1.0 / denom
    gp = model.beta1 / denom

    families: list[ResidualFamily] = []

    # --- mobility ---------------------------------------------------------
    cap_sq = (cfg.max_step_L * (1.0 + STEP_INFLATION)) ** 2
    if traj_free:
        pair_idx, pair_lbl = [], []
        anch_idx, anch_pts, anch_lbl = [], [], []
        # step 0: q_init -> w0
        anch_idx.append([lay.qx[0], lay.qy[0]])
        anch_pts.append(cfg.q_init)
        anch_lbl.append("mobility[step=0]")
        for i in range(1, n - 1):
            if lay.qx[i] >= 0:
                pair_idx.append([lay.qx[i - 1], lay.qy[i - 1], lay.qx[i], lay.qy[i]])
                pair_lbl.append(f"mobility[step={i}]")
        # final step: w_{n-2} -> q_final
        anch_idx.append([lay.qx[n - 2], lay.qy[n - 2]])
        anch_pts.append(cfg.q_final)
        anch_lbl.append(f"mobility[step={n - 1}]")
        if pair_idx:
            families.append(StepCapFamily(np.array(pair_idx), None, cap_sq,
                                          "mobility", pair_lbl))
        families.append(StepCapFamily(np.array(anch_idx), np.array(anch_pts),
                                      cap_sq, "mobility_anchor", anch_lbl))
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
        row_labels=["power_avg"],
    ))

    # --- simple bounds, four rows per slot ------------------------------------
    kinds = ("power_peak", "power_floor", "rate_floor", "u1_floor")
    families.append(LinearFamily(
        idx=np.stack([lay.p, lay.p, lay.r, lay.u1], axis=1).reshape(-1, 1),
        coef=np.tile([1.0, -1.0, -1.0, -1.0], n)[:, None],
        const=np.tile([-cfg.p_peak_max, P_FLOOR, RATE_FLOOR, U_FLOOR], n),
        name="bounds",
        row_labels=[f"{kind}[{i}]" for i in range(n) for kind in kinds],
    ))

    # --- outage and covertness ------------------------------------------------
    # one family per row type over the free-waypoint slots, and a "_fixed"
    # one over the rest; outage A splits into this constant plus
    # expansion-relative terms handled inside the family (see OutageAFamily)
    base_a = 2.0 * eps2 + a_b * eps2 + h2 - c0
    d_const = c_sq * a0 - a1 * u1_t - a2 * lam_t + b0 - b1 * p_t
    free = lay.qx >= 0
    for sl, has_q, suffix in ((np.nonzero(free)[0], True, ""),
                              (np.nonzero(~free)[0], False, "_fixed")):
        if not sl.size:
            continue
        q_cols = [lay.qx[sl], lay.qy[sl]] if has_q else []
        families.append(OutageAFamily(
            np.stack(q_cols + [lay.p[sl], lay.r[sl]], axis=1), has_q, q_t[sl],
            base_a[sl], bob_est=cfg.bob_est, eps2=eps2, s_b=s_b,
            c1=c1[sl], c2=c2[sl], p_t=p_t[sl], r_t=r_t[sl],
            name="outage_A" + suffix, row_labels=[f"outage_A[{i}]" for i in sl]))
        idx = np.stack(q_cols + [lay.p[sl], lay.u1[sl]], axis=1)
        families.append(CovertDFamily(
            idx, has_q, q_t[sl], d_const[sl], cfg.willie_est, var_w,
            quad=a2[sl], lin_p=b1[sl], lin_u1=a1[sl], k_w=k_w,
            name="covert_D" + suffix, row_labels=[f"covert_D[{i}]" for i in sl]))
        families.append(CovertEFamily(
            idx, has_q, q_t[sl], g4_const[sl], cfg.willie_est, var_w,
            quad=inv_denom[sl], lin_p=gp[sl], lin_u1=0.0, e_c=1.0 + h2v,
            name="covert_E" + suffix, row_labels=[f"covert_E[{i}]" for i in sl]))

    # --- objective, start, scales ------------------------------------------
    obj = np.zeros(lay.n_var)
    obj[lay.r] = -1.0 / n

    scale = np.ones(lay.n_var)
    scale[lay.qx[free]] = scale[lay.qy[free]] = 100.0
    scale[lay.p] = max(cfg.p_avg_max, 1e-9)
    scale[lay.r] = 1.0
    scale[lay.u1] = max(float(np.median(u1_t)), 1e-6)

    # the start is the expansion point, which the previous solve (or the
    # initializer) leaves strictly feasible; a start that is not is rejected
    # below, never repaired
    start = np.zeros(lay.n_var)
    start[lay.qx[free]] = q_t[free, 0]
    start[lay.qy[free]] = q_t[free, 1]
    start[lay.p] = np.clip(p_t, 2.0 * P_FLOOR, cfg.p_peak_max * (1.0 - 1e-9))
    start[lay.r] = r_t
    start[lay.u1] = np.maximum(exp.u1_tilde, 2.0 * U_FLOOR)

    sub = ConvexSubproblem(
        layout=lay, obj_coef=obj, families=families, start=start,
        var_scale=scale, expansion=exp, cfg=cfg, fixed_waypoints=fixed_w,
    )
    vals = sub.eval_values(start)
    bad = int(np.argmax(vals))
    if vals[bad] >= 0.0:
        raise InfeasibleExpansionError(
            sub.constraint_names()[bad],
            f"start residual {vals[bad]:.3e} is not strictly negative",
        )
    return sub
