"""Convex restriction of the planning problem around a feasible expansion point.

The planner's constraints mix a chance constraint on the receiver's outage, a
covertness floor on the warden's average error rate, and the flight envelope.
This module turns them into a smooth convex subproblem:

* the outage chance constraint becomes three deterministic residuals per slot
  (a conservative quadratic inequality, a second-order-cone bound on its slack,
  and slack lower bounds);
* the covertness constraint becomes three residuals per slot built from
  first-order surrogates g1..g5 that bound the true nonlinearities on the safe
  side and are tangent at the expansion point, so any point feasible for the
  subproblem is feasible for the original constraints;
* mobility and power limits enter directly (steps are capped in squared form,
  which stays smooth when consecutive waypoints coincide while hovering).

Every residual is exposed with analytic gradient and Hessian on its own
variable support; the solver consumes the vectorized family view, and tests
consume the per-row view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cvxsolver import residual_values
from .detection import DetectionModel, POSITIVE_FLOOR
from .scenario import (
    FEAS_RTOL,
    RATE_FLOOR,
    PowerSchedule,
    RateSchedule,
    ScenarioConfig,
    Trajectory,
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
# expansion point and slacks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionPoint:
    """Feasible point the surrogates are linearized around.

    u1_tilde parametrizes the bilinear-sqrt surrogate and must be positive.
    The slack arrays are the warm-start values of the remaining slacks; with
    the expansion point itself they make the subproblem's start, which must
    be strictly feasible.
    """

    traj_tilde: Trajectory
    p_tilde: PowerSchedule
    r_tilde: RateSchedule
    u1_tilde: np.ndarray
    y1_start: np.ndarray
    z1_start: np.ndarray
    u2_start: np.ndarray

    def __post_init__(self):
        u1 = np.asarray(self.u1_tilde, dtype=float).reshape(-1).copy()
        n = len(self.traj_tilde)
        if not (len(self.p_tilde) == len(self.r_tilde) == u1.size == n
                == np.size(self.y1_start) == np.size(self.z1_start)
                == np.size(self.u2_start)):
            raise ValueError("expansion point arrays disagree on slot count")
        if np.any(u1 < POSITIVE_FLOOR):
            raise ValueError("u1_tilde must be positive")
        u1.flags.writeable = False
        object.__setattr__(self, "u1_tilde", u1)

    @property
    def num_slots(self) -> int:
        return len(self.traj_tilde)


@dataclass
class SlackVars:
    """Auxiliary per-slot variables introduced by the convexification."""

    y1: np.ndarray
    z1: np.ndarray
    u1: np.ndarray
    u2: np.ndarray


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

_SLOT_FIELDS = ("p", "r", "y1", "z1", "u1", "u2")


@dataclass(frozen=True)
class VarLayout:
    """Maps per-slot named variables to flat vector indices.

    Waypoints may be fixed (the final one always is; all of them are in the
    power-only scheme); fixed waypoints carry index -1.
    """

    n_slots: int
    traj_free: bool
    qx: np.ndarray
    qy: np.ndarray
    p: np.ndarray
    r: np.ndarray
    y1: np.ndarray
    z1: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    n_var: int

    @classmethod
    def build(cls, n_slots: int, traj_free: bool) -> "VarLayout":
        idx = {name: np.full(n_slots, -1, dtype=np.int64) for name in
               ("qx", "qy", "p", "r", "y1", "z1", "u1", "u2")}
        pos = 0
        for n in range(n_slots):
            q_free = traj_free and n < n_slots - 1
            if q_free:
                idx["qx"][n] = pos
                idx["qy"][n] = pos + 1
                pos += 2
            for name in _SLOT_FIELDS:
                idx[name][n] = pos
                pos += 1
        for name in idx:
            idx[name].flags.writeable = False
        return cls(n_slots=n_slots, traj_free=traj_free, n_var=pos, **idx)

    def var_names(self) -> list[str]:
        names = [""] * self.n_var
        for n in range(self.n_slots):
            if self.qx[n] >= 0:
                names[self.qx[n]] = f"q_x[{n}]"
                names[self.qy[n]] = f"q_y[{n}]"
            for fname in _SLOT_FIELDS:
                names[getattr(self, fname)[n]] = f"{fname}[{n}]"
        return names


# ---------------------------------------------------------------------------
# residual families
# ---------------------------------------------------------------------------

class ResidualFamily:
    """A block of structurally identical residuals c_i(v) <= 0.

    idx holds, per row, the flat indices of the variables the row touches.
    values/grads/hess take the gathered (m, k) variable matrix. Rows must be
    convex; NaNs in values are treated as out-of-domain by the solver.
    """

    name: str = "residual"
    is_linear = False

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

    Rows either join two free waypoints (k = 4, columns x1 y1 x2 y2) or one
    free waypoint and a constant anchor (k = 2).
    """

    def __init__(self, idx, anchors, cap_sq, name, row_labels):
        super().__init__(idx, row_labels)
        self.name = name
        self.anchors = None if anchors is None else np.asarray(anchors, dtype=float)
        self.cap_sq = float(cap_sq)

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


class OutageAFamily(ResidualFamily):
    """Conservative outage inequality with the g1 surrogate substituted.

    Row value: const + s_b z1 + a_b y1 + |q - bob|^2
               + C1 (1/P - 1/Pt) + C2 2^Rt expm1(ln2 (R - Rt)) <= 0.
    The two expansion-relative terms are kept in difference form: the raw
    coefficients reach ~gamma0/(2^Rt - 1)^2, and evaluating them against a
    separate constant would cancel ~1e10 against ~1e10 to produce a ~1e-4
    residual. Columns: [qx, qy, P, R, y1, z1] when q is free, else
    [P, R, y1, z1].
    """

    def __init__(self, idx, has_q, bob_est, const, c1, c2, p_t, r_t, s_b, a_b,
                 name, row_labels):
        super().__init__(idx, row_labels)
        self.name = name
        self.has_q = has_q
        self.bob = np.asarray(bob_est, dtype=float)
        self.const = np.asarray(const, dtype=float)  # includes fixed-q distance term
        self.c1 = np.asarray(c1, dtype=float)
        self.c2rt = np.asarray(c2, dtype=float) * np.exp2(np.asarray(r_t, dtype=float))
        self.p_t = np.asarray(p_t, dtype=float)
        self.r_t = np.asarray(r_t, dtype=float)
        self.s_b = float(s_b)
        self.a_b = float(a_b)
        self._o = 2 if has_q else 0  # column offset of P

    def _cols(self, V):
        o = self._o
        return V[:, o], V[:, o + 1], V[:, o + 2], V[:, o + 3]

    def values(self, V):
        p, r, y1, z1 = self._cols(V)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = (
                self.const
                + self.s_b * z1
                + self.a_b * y1
                + self.c1 * (self.p_t - p) / (p * self.p_t)
                + self.c2rt * np.expm1(math.log(2.0) * (r - self.r_t))
            )
        if self.has_q:
            d = V[:, 0:2] - self.bob
            out = out + np.sum(d * d, axis=1)
        # 1/p is only the convex branch for positive power
        return np.where(p > 0.0, out, np.inf)

    def grads(self, V):
        p, r, y1, z1 = self._cols(V)
        g = np.zeros_like(V)
        o = self._o
        g[:, o] = -self.c1 / (p * p)
        g[:, o + 1] = self.c2rt * math.log(2.0) * np.exp2(r - self.r_t)
        g[:, o + 2] = self.a_b
        g[:, o + 3] = self.s_b
        if self.has_q:
            g[:, 0:2] = 2.0 * (V[:, 0:2] - self.bob)
        return g

    def hess(self, V):
        p, r, _, _ = self._cols(V)
        h = np.zeros((self.m, self.k, self.k))
        o = self._o
        h[:, o, o] = 2.0 * self.c1 / (p**3)
        h[:, o + 1, o + 1] = self.c2rt * math.log(2.0) ** 2 * np.exp2(r - self.r_t)
        if self.has_q:
            h[:, 0, 0] = 2.0
            h[:, 1, 1] = 2.0
        return h


class OutageBFamily(ResidualFamily):
    """Second-order-cone slack bound sqrt(2 eps^4 + 2 eps^2 |q - bob|^2) - z1 <= 0.

    Columns [qx, qy, z1]; the eps^4 term bounds the norm away from zero, so the
    row is smooth everywhere. Fixed-q slots reduce to linear rows and are
    emitted elsewhere.
    """

    def __init__(self, idx, bob_est, eps2, name, row_labels):
        super().__init__(idx, row_labels)
        self.name = name
        self.bob = np.asarray(bob_est, dtype=float)
        self.eps2 = float(eps2)

    def _parts(self, V):
        d = V[:, 0:2] - self.bob
        s2 = 2.0 * self.eps2**2 + 2.0 * self.eps2 * np.sum(d * d, axis=1)
        return d, s2, np.sqrt(s2)

    def values(self, V):
        _, _, rt = self._parts(V)
        return rt - V[:, 2]

    def grads(self, V):
        d, _, rt = self._parts(V)
        g = np.zeros_like(V)
        g[:, 0:2] = (2.0 * self.eps2 / rt)[:, None] * d
        g[:, 2] = -1.0
        return g

    def hess(self, V):
        d, s2, rt = self._parts(V)
        h = np.zeros((self.m, self.k, self.k))
        c = 2.0 * self.eps2 / rt
        outer = np.einsum("mi,mj->mij", d, d)
        block = c[:, None, None] * (
            np.broadcast_to(np.eye(2), (self.m, 2, 2))
            - (2.0 * self.eps2 / s2)[:, None, None] * outer
        )
        h[:, 0:2, 0:2] = block
        return h


class CovertDFamily(ResidualFamily):
    """sqrt(pi/2) g2 - sqrt(u1) + g3 - k_w sqrt(u2) <= 0.

    Columns [qx, qy, P, u1, u2] when q is free, else [P, u1, u2]; the fixed-q
    squared-distance contribution is folded into the constant.
    """

    def __init__(self, idx, has_q, willie_est, var_w, const, a1, a2, b1, k_w,
                 name, row_labels):
        super().__init__(idx, row_labels)
        self.name = name
        self.has_q = has_q
        self.willie = np.asarray(willie_est, dtype=float)
        self.var_w = float(var_w)
        self.const = np.asarray(const, dtype=float)
        self.a1 = np.asarray(a1, dtype=float)  # sqrt(pi/2) * dg2/du1
        self.a2 = np.asarray(a2, dtype=float)  # sqrt(pi/2) * dg2/dlam
        self.b1 = np.asarray(b1, dtype=float)  # dg3/dP
        self.k_w = float(k_w)
        self._o = 2 if has_q else 0

    def values(self, V):
        o = self._o
        p, u1, u2 = V[:, o], V[:, o + 1], V[:, o + 2]
        with np.errstate(invalid="ignore"):
            out = (
                self.const
                + self.b1 * p
                + self.a1 * u1
                - np.sqrt(u1)
                - self.k_w * np.sqrt(u2)
            )
        if self.has_q:
            d = V[:, 0:2] - self.willie
            out = out + self.a2 * np.sum(d * d, axis=1) / self.var_w
        return out

    def grads(self, V):
        o = self._o
        u1, u2 = V[:, o + 1], V[:, o + 2]
        g = np.zeros_like(V)
        g[:, o] = self.b1
        g[:, o + 1] = self.a1 - 0.5 / np.sqrt(u1)
        g[:, o + 2] = -0.5 * self.k_w / np.sqrt(u2)
        if self.has_q:
            g[:, 0:2] = (2.0 * self.a2 / self.var_w)[:, None] * (V[:, 0:2] - self.willie)
        return g

    def hess(self, V):
        o = self._o
        u1, u2 = V[:, o + 1], V[:, o + 2]
        h = np.zeros((self.m, self.k, self.k))
        h[:, o + 1, o + 1] = 0.25 * u1 ** (-1.5)
        h[:, o + 2, o + 2] = 0.25 * self.k_w * u2 ** (-1.5)
        if self.has_q:
            c = 2.0 * self.a2 / self.var_w
            h[:, 0, 0] = c
            h[:, 1, 1] = c
        return h


class CovertEFamily(ResidualFamily):
    """g4 - ln(u2 + 1 + H^2/var) - sqrt(u1) <= 0.

    Columns [qx, qy, P, u1, u2] when q is free, else [P, u1, u2].
    """

    def __init__(self, idx, has_q, willie_est, var_w, const, inv_denom, gp, e_c,
                 name, row_labels):
        super().__init__(idx, row_labels)
        self.name = name
        self.has_q = has_q
        self.willie = np.asarray(willie_est, dtype=float)
        self.var_w = float(var_w)
        self.const = np.asarray(const, dtype=float)
        self.inv_denom = np.asarray(inv_denom, dtype=float)  # 1 / g4 denominator
        self.gp = np.asarray(gp, dtype=float)                # beta1 / denominator
        self.e_c = float(e_c)                                # 1 + H^2/var
        self._o = 2 if has_q else 0

    def values(self, V):
        o = self._o
        p, u1, u2 = V[:, o], V[:, o + 1], V[:, o + 2]
        with np.errstate(invalid="ignore"):
            out = (
                self.const
                + self.gp * p
                - np.log(u2 + self.e_c)
                - np.sqrt(u1)
            )
        if self.has_q:
            d = V[:, 0:2] - self.willie
            out = out + self.inv_denom * np.sum(d * d, axis=1) / self.var_w
        return out

    def grads(self, V):
        o = self._o
        u1, u2 = V[:, o + 1], V[:, o + 2]
        g = np.zeros_like(V)
        g[:, o] = self.gp
        g[:, o + 1] = -0.5 / np.sqrt(u1)
        g[:, o + 2] = -1.0 / (u2 + self.e_c)
        if self.has_q:
            g[:, 0:2] = (2.0 * self.inv_denom / self.var_w)[:, None] * (
                V[:, 0:2] - self.willie
            )
        return g

    def hess(self, V):
        o = self._o
        u1, u2 = V[:, o + 1], V[:, o + 2]
        h = np.zeros((self.m, self.k, self.k))
        h[:, o + 1, o + 1] = 0.25 * u1 ** (-1.5)
        h[:, o + 2, o + 2] = (u2 + self.e_c) ** (-2.0)
        if self.has_q:
            c = 2.0 * self.inv_denom / self.var_w
            h[:, 0, 0] = c
            h[:, 1, 1] = c
        return h


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
        lay = self.layout
        n = lay.n_slots
        w = self.fixed_waypoints.copy()
        for i in range(n):
            if lay.qx[i] >= 0:
                w[i, 0] = v[lay.qx[i]]
                w[i, 1] = v[lay.qy[i]]
        traj = Trajectory(w)
        powers = PowerSchedule(np.maximum(v[lay.p], 0.0))
        rates = RateSchedule(np.maximum(v[lay.r], RATE_FLOOR))
        slacks = SlackVars(y1=v[lay.y1].copy(), z1=v[lay.z1].copy(),
                           u1=v[lay.u1].copy(), u2=v[lay.u2].copy())
        return traj, powers, rates, slacks

    def dump(self, path) -> None:
        """Write a solver-independent description for offline inspection."""
        lines = [
            f"n_var {self.n_var}",
            f"n_constraints {self.n_constraints}",
            "variables " + " ".join(self.layout.var_names()),
        ]
        for f in self.families:
            lines.append(f"family {f.name} rows {f.m} arity {f.k}")
            for lbl in f.row_labels:
                lines.append(f"  {lbl}")
        lines.append("expansion_trajectory " + " ".join(
            f"{x:.12g}" for x in self.expansion.traj_tilde.waypoints.ravel()))
        lines.append("expansion_power " + " ".join(
            f"{x:.12g}" for x in self.expansion.p_tilde.powers))
        lines.append("expansion_rate " + " ".join(
            f"{x:.12g}" for x in self.expansion.r_tilde.rates))
        lines.append("expansion_u1 " + " ".join(
            f"{x:.12g}" for x in self.expansion.u1_tilde))
        lines.append("start " + " ".join(f"{x:.12g}" for x in self.start))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# exact feasibility of the original constraints
# ---------------------------------------------------------------------------

def exact_feasibility(traj: Trajectory, powers: PowerSchedule, rates: RateSchedule,
                      cfg: ScenarioConfig, model: DetectionModel | None = None) -> dict:
    """Margins of the true (pre-surrogate) constraints at a candidate plan.

    Outage margins use the conservative reformulation with its slack variables
    at their per-slot optima (the slacks enter with definite signs, so the
    bound slack y1 = var_bob and the cone slack z1 at its norm are optimal).
    Covertness margins are the closed-form error-rate bound minus (1 - rho_w).
    All entries are feasible when >= -FEAS_RTOL * scale.
    """
    from .detection import lambda_of, xi_lower_bound as xi_lb

    if model is None:
        model = DetectionModel.from_config(cfg)
    w = traj.waypoints
    dist2_b = np.sum((w - cfg.bob_est) ** 2, axis=1)
    y1 = np.full(len(traj), cfg.var_bob)
    z1 = np.sqrt(2.0 * cfg.var_bob**2 + 2.0 * cfg.var_bob * dist2_b)
    res_a, _, _ = bti_outage_residuals(w, powers.powers, rates.rates, y1, z1, cfg)
    lam = lambda_of(w, cfg.willie_est, cfg.var_willie)
    xi = xi_lb(lam, powers.powers, model)
    from .scenario import check_mobility as _cm, check_power as _cp

    power_margins = _cp(powers, cfg)
    return {
        "mobility": _cm(traj, cfg),
        "power_avg": power_margins.avg_margin,
        "power_peak": power_margins.peak_margins,
        "outage": -res_a,
        "covertness": xi - (1.0 - cfg.rho_w),
        "lambda": lam,
        "xi_lower_bound": xi,
    }


def exact_feasible(margins: dict, cfg: ScenarioConfig, rtol: float = FEAS_RTOL) -> bool:
    tol_len = rtol * cfg.max_step_L
    tol_pow = rtol * max(cfg.p_peak_max, 1e-30)
    return bool(
        np.all(margins["mobility"] >= -tol_len)
        and margins["power_avg"] >= -tol_pow
        and np.all(margins["power_peak"] >= -tol_pow)
        and np.all(margins["outage"] >= -rtol * max(cfg.altitude_H**2, 1.0))
        and np.all(margins["covertness"] >= -rtol)
    )


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _check_expansion(exp: ExpansionPoint, cfg: ScenarioConfig, model: DetectionModel):
    n = exp.num_slots
    if n != cfg.num_slots_N:
        raise InfeasibleExpansionError("layout", f"{n} slots vs scenario {cfg.num_slots_N}")
    margins = exact_feasibility(exp.traj_tilde, exp.p_tilde, exp.r_tilde, cfg, model)
    tol_len = FEAS_RTOL * cfg.max_step_L
    if not np.all(margins["mobility"] >= -tol_len):
        raise InfeasibleExpansionError(
            "mobility", f"worst step margin {margins['mobility'].min():.3e} m")
    tol_pow = FEAS_RTOL * max(cfg.p_peak_max, 1e-30)
    if margins["power_avg"] < -tol_pow or np.any(margins["power_peak"] < -tol_pow):
        raise InfeasibleExpansionError("power", "power caps violated")
    if not np.all(margins["outage"] >= -FEAS_RTOL * max(cfg.altitude_H**2, 1.0)):
        raise InfeasibleExpansionError(
            "outage", f"worst margin {margins['outage'].min():.3e}")
    if not np.all(margins["covertness"] >= -FEAS_RTOL):
        raise InfeasibleExpansionError(
            "covertness", f"worst margin {margins['covertness'].min():.3e}")
    return margins


def assemble_subproblem(exp: ExpansionPoint, cfg: ScenarioConfig,
                        fixed_trajectory: bool = False) -> ConvexSubproblem:
    """Build the convex restricted subproblem at a feasible expansion point.

    With fixed_trajectory the waypoints are frozen at the expansion trajectory
    and only power, rate and slack variables remain (the power-only scheme).
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
    db_t = q_t - cfg.bob_est
    dist2b_t = np.sum(db_t * db_t, axis=1)

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
    # g5 gradient and constant
    g5_grad = (2.0 / var_w) * dw_t                       # (N, 2)
    g5_const = lam_t - np.einsum("ni,ni->n", g5_grad, q_t)

    free = lay.qx >= 0
    free_slots = np.nonzero(free)[0]
    fixed_slots = np.nonzero(~free)[0]

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

    # --- simple bounds ----------------------------------------------------
    bidx, bcoef, bconst, blbl = [], [], [], []

    def bound(ix, coef, const, label):
        bidx.append([ix]); bcoef.append([coef]); bconst.append(const); blbl.append(label)

    for i in range(n):
        bound(lay.p[i], 1.0, -cfg.p_peak_max, f"power_peak[{i}]")
        bound(lay.p[i], -1.0, P_FLOOR, f"power_floor[{i}]")
        bound(lay.r[i], -1.0, RATE_FLOOR, f"rate_floor[{i}]")
        bound(lay.y1[i], -1.0, eps2, f"y1_floor[{i}]")
        bound(lay.z1[i], -1.0, 0.0, f"z1_floor[{i}]")
        bound(lay.u1[i], -1.0, U_FLOOR, f"u1_floor[{i}]")
        bound(lay.u2[i], -1.0, U_FLOOR, f"u2_floor[{i}]")
    families.append(LinearFamily(np.array(bidx), np.array(bcoef), np.array(bconst),
                                 "bounds", blbl))

    # --- outage -----------------------------------------------------------
    # residual A splits into this constant plus expansion-relative terms
    # handled inside the family (see OutageAFamily)
    base_a = 2.0 * eps2 + h2 - c0
    if free_slots.size:
        sl = free_slots
        families.append(OutageAFamily(
            idx=np.stack([lay.qx[sl], lay.qy[sl], lay.p[sl], lay.r[sl],
                          lay.y1[sl], lay.z1[sl]], axis=1),
            has_q=True, bob_est=cfg.bob_est, const=base_a[sl],
            c1=c1[sl], c2=c2[sl], p_t=p_t[sl], r_t=r_t[sl], s_b=s_b, a_b=a_b,
            name="outage_A", row_labels=[f"outage_A[{i}]" for i in sl]))
        families.append(OutageBFamily(
            idx=np.stack([lay.qx[sl], lay.qy[sl], lay.z1[sl]], axis=1),
            bob_est=cfg.bob_est, eps2=eps2,
            name="outage_B", row_labels=[f"outage_B[{i}]" for i in sl]))
    if fixed_slots.size:
        sl = fixed_slots
        families.append(OutageAFamily(
            idx=np.stack([lay.p[sl], lay.r[sl], lay.y1[sl], lay.z1[sl]], axis=1),
            has_q=False, bob_est=cfg.bob_est,
            const=base_a[sl] + dist2b_t[sl],
            c1=c1[sl], c2=c2[sl], p_t=p_t[sl], r_t=r_t[sl], s_b=s_b, a_b=a_b,
            name="outage_A_fixed", row_labels=[f"outage_A[{i}]" for i in sl]))
        rt_fixed = np.sqrt(2.0 * eps2**2 + 2.0 * eps2 * dist2b_t[sl])
        families.append(LinearFamily(
            idx=lay.z1[sl][:, None], coef=-np.ones((sl.size, 1)), const=rt_fixed,
            name="outage_B_fixed", row_labels=[f"outage_B[{i}]" for i in sl]))

    # --- covertness -------------------------------------------------------
    d_const = c_sq * a0 - a1 * u1_t - a2 * lam_t + b0 - b1 * p_t
    e_c = 1.0 + h2v
    if free_slots.size:
        sl = free_slots
        families.append(CovertDFamily(
            idx=np.stack([lay.qx[sl], lay.qy[sl], lay.p[sl], lay.u1[sl], lay.u2[sl]], axis=1),
            has_q=True, willie_est=cfg.willie_est, var_w=var_w,
            const=d_const[sl], a1=a1[sl], a2=a2[sl], b1=b1[sl], k_w=k_w,
            name="covert_D", row_labels=[f"covert_D[{i}]" for i in sl]))
        families.append(CovertEFamily(
            idx=np.stack([lay.qx[sl], lay.qy[sl], lay.p[sl], lay.u1[sl], lay.u2[sl]], axis=1),
            has_q=True, willie_est=cfg.willie_est, var_w=var_w,
            const=g4_const[sl], inv_denom=inv_denom[sl], gp=gp[sl], e_c=e_c,
            name="covert_E", row_labels=[f"covert_E[{i}]" for i in sl]))
        # F: u2 - g5(q) - 1 <= 0, affine
        families.append(LinearFamily(
            idx=np.stack([lay.qx[sl], lay.qy[sl], lay.u2[sl]], axis=1),
            coef=np.stack([-g5_grad[sl, 0], -g5_grad[sl, 1], np.ones(sl.size)], axis=1),
            const=-g5_const[sl] - 1.0,
            name="covert_F", row_labels=[f"covert_F[{i}]" for i in sl]))
    if fixed_slots.size:
        sl = fixed_slots
        families.append(CovertDFamily(
            idx=np.stack([lay.p[sl], lay.u1[sl], lay.u2[sl]], axis=1),
            has_q=False, willie_est=cfg.willie_est, var_w=var_w,
            const=d_const[sl] + a2[sl] * lam_t[sl],
            a1=a1[sl], a2=a2[sl], b1=b1[sl], k_w=k_w,
            name="covert_D_fixed", row_labels=[f"covert_D[{i}]" for i in sl]))
        families.append(CovertEFamily(
            idx=np.stack([lay.p[sl], lay.u1[sl], lay.u2[sl]], axis=1),
            has_q=False, willie_est=cfg.willie_est, var_w=var_w,
            const=g4_const[sl] + inv_denom[sl] * lam_t[sl],
            inv_denom=inv_denom[sl], gp=gp[sl], e_c=e_c,
            name="covert_E_fixed", row_labels=[f"covert_E[{i}]" for i in sl]))
        # with q fixed at the expansion value, g5 equals lam_t exactly
        families.append(LinearFamily(
            idx=lay.u2[sl][:, None], coef=np.ones((sl.size, 1)),
            const=-lam_t[sl] - 1.0,
            name="covert_F_fixed", row_labels=[f"covert_F[{i}]" for i in sl]))

    # --- objective, start, scales ------------------------------------------
    obj = np.zeros(lay.n_var)
    obj[lay.r] = -1.0 / n

    scale = np.ones(lay.n_var)
    scale[lay.qx[free]] = scale[lay.qy[free]] = 100.0
    scale[lay.p] = max(cfg.p_avg_max, 1e-9)
    scale[lay.r] = 1.0
    scale[lay.y1] = max(eps2, 1.0)
    scale[lay.z1] = max(math.sqrt(2.0) * eps2, 1.0)
    scale[lay.u1] = max(float(np.median(u1_t)), 1e-6)
    scale[lay.u2] = max(float(np.median(lam_t)) + 1.0, 1.0)

    # the start is the expansion point with its warm-start slacks, which the
    # previous solve (or the initializer) leaves strictly feasible; a start
    # that is not is rejected below, never repaired
    start = np.zeros(lay.n_var)
    start[lay.qx[free]] = q_t[free, 0]
    start[lay.qy[free]] = q_t[free, 1]
    start[lay.p] = np.clip(p_t, 2.0 * P_FLOOR, cfg.p_peak_max * (1.0 - 1e-9))
    start[lay.r] = r_t
    start[lay.y1] = exp.y1_start
    start[lay.z1] = exp.z1_start
    start[lay.u1] = np.maximum(exp.u1_tilde, 2.0 * U_FLOOR)
    start[lay.u2] = exp.u2_start

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
