"""Outer optimization loop: initial feasible point and successive convex passes.

The initializer flies the max-speed line-segment path (out to the receiver's
estimated position, hover, max-speed leg to the landing point, with a midway
turn when the flight period is too short to reach the receiver), then finds
the largest uniform transmit power whose covertness residuals hold on that
path and backs the per-slot rates out of the outage inequality in closed form.

Each outer iteration assembles the convex restriction at the current point,
solves it from there with the previous solve's duals, re-verifies the exact
constraints, and repeats until the mean rate stops improving, both in
absolute terms (sca_tolerance) and relative to the rate itself. Restriction
plus tangency make the objective nondecreasing and every iterate feasible for
the original problem, so no damping or trust region is needed. A solve that
stops short ("stalled" or "max_iters") ends the loop; if it ends below its
start's rate, the loop keeps the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cvxsolver
from .convexify import (
    ExpansionPoint,
    InfeasibleExpansionError,
    P_FLOOR,
    U_FLOOR,
    assemble_subproblem,
    exact_feasibility,
    exact_feasible,
)
from .cvxsolver import SolverSettings
from .detection import DetectionModel, lambda_of, xi_lower_bound
from .scenario import (
    FEAS_RTOL,
    RATE_FLOOR,
    PowerSchedule,
    RateSchedule,
    ScenarioConfig,
    ScenarioError,
    Trajectory,
)

POWER_FLOOR_INIT = 1e-8  # W, smallest uniform power the initializer will emit
# Converged also needs the last step within this fraction of the ACTR: early
# passes roughly double a small ACTR, so sca_tolerance alone would stop a
# scenario that starts below it after one solve.
CONVERGED_RTOL = 1e-2
# solver statuses that end the outer loop at the solve's (feasible) iterate
_SOLVE_STOPS = {"max_iters": "subproblem_newton_cap", "stalled": "subproblem_stalled"}


class InfeasibleScenarioError(ScenarioError):
    """No feasible plan exists for the scenario (within this construction)."""


@dataclass(frozen=True)
class ScaSettings:
    solver: SolverSettings = field(default_factory=lambda: SolverSettings(max_iters=600))
    max_outer: int = 100


@dataclass(frozen=True)
class SolveRecord:
    """What one subproblem solve did, in scalars only, so that reruns give
    the same records."""

    newton_steps: int
    backtracks: int
    merit_evals: int
    gap: float             # duality gap at exit
    dual_residual: float   # inf-norm of the Lagrangian gradient, scaled variables
    status: str

    @classmethod
    def of(cls, res: cvxsolver.SolverResult) -> "SolveRecord":
        return cls(newton_steps=res.iterations, backtracks=res.backtracks,
                   merit_evals=res.merit_evals, gap=res.gap,
                   dual_residual=res.kkt.stationarity, status=res.status)


@dataclass
class ScaTrace:
    """Objective history, the expansion points the loop visited and one
    record per subproblem solve; objectives[i] for i >= 1 is the outcome of
    solves[i - 1]."""

    objectives: list
    expansion_points: list
    stop_reason: str
    subproblem_solves: int
    solves: list


@dataclass
class Plan:
    """A feasible flight and transmission plan with per-slot diagnostics."""

    trajectory: Trajectory
    power: PowerSchedule
    rates: RateSchedule
    actr: float                 # mean rate, bits/s/Hz
    lam: np.ndarray             # per-slot noncentrality of the warden distance
    xi_lb: np.ndarray           # per-slot covertness bound
    outage_margin: np.ndarray   # conservative outage inequality margin (>= 0 ok)
    covert_margin: np.ndarray   # xi_lb - (1 - rho_w)
    feasible: bool
    status: str

    def to_dict(self) -> dict:
        return {
            "num_slots": len(self.trajectory),
            "actr_bps_hz": self.actr,
            "trajectory_m": self.trajectory.waypoints.tolist(),
            "power_w": self.power.powers.tolist(),
            "rate_bps_hz": self.rates.rates.tolist(),
            "lambda": self.lam.tolist(),
            "xi_lower_bound": self.xi_lb.tolist(),
            "outage_margin": self.outage_margin.tolist(),
            "covert_margin": self.covert_margin.tolist(),
            "feasible": bool(self.feasible),
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Plan":
        return cls(
            trajectory=Trajectory(np.asarray(d["trajectory_m"], dtype=float)),
            power=PowerSchedule(np.asarray(d["power_w"], dtype=float)),
            rates=RateSchedule(np.asarray(d["rate_bps_hz"], dtype=float)),
            actr=float(d["actr_bps_hz"]),
            lam=np.asarray(d["lambda"], dtype=float),
            xi_lb=np.asarray(d["xi_lower_bound"], dtype=float),
            outage_margin=np.asarray(d["outage_margin"], dtype=float),
            covert_margin=np.asarray(d["covert_margin"], dtype=float),
            feasible=bool(d["feasible"]),
            status=str(d["status"]),
        )


# ---------------------------------------------------------------------------
# initial trajectory
# ---------------------------------------------------------------------------

def line_segment_trajectory(cfg: ScenarioConfig) -> Trajectory:
    """Max-speed path to the receiver estimate, hover, max-speed path home.

    When the slot budget cannot cover both legs, the flight turns at the
    farthest point along the first leg that still allows reaching the landing
    point on time. Every step is at most L and the final waypoint lands
    exactly on q_final.
    """
    n_slots, L = cfg.num_slots_N, cfg.max_step_L
    q0, qf, qb = cfg.q_init, cfg.q_final, cfg.bob_est
    d1 = float(np.linalg.norm(qb - q0))
    d2 = float(np.linalg.norm(qf - qb))
    dir1 = (qb - q0) / d1 if d1 > 0 else np.zeros(2)
    # ceil with a relative guard so an exact multiple of L is not rounded up
    n1 = int(math.ceil(d1 / L - 1e-12))
    n2 = int(math.ceil(d2 / L - 1e-12))

    w = np.empty((n_slots, 2))
    if n1 + n2 <= n_slots:
        dir2 = (qf - qb) / d2 if d2 > 0 else np.zeros(2)
        for n in range(1, n_slots + 1):
            if n <= n1:
                w[n - 1] = q0 + min(n * L, d1) * dir1
            elif n <= n_slots - n2:
                w[n - 1] = qb
            else:
                j = n - (n_slots - n2)
                w[n - 1] = qb + min(j * L, d2) * dir2
    else:
        # turn at the last approach slot that keeps the landing reachable
        def reachable(k: int) -> bool:
            p = q0 + min(k * L, d1) * dir1
            return float(np.linalg.norm(qf - p)) <= (n_slots - k) * L * (1.0 + 1e-12)

        k_star = 0
        for k in range(1, n_slots + 1):
            if reachable(k):
                k_star = k
            else:
                break
        p_turn = q0 + min(k_star * L, d1) * dir1
        dr = float(np.linalg.norm(qf - p_turn))
        ur = (qf - p_turn) / dr if dr > 0 else np.zeros(2)
        nr = int(math.ceil(dr / L - 1e-12))
        spare = (n_slots - k_star) - nr  # hover slots at the turn point
        for n in range(1, n_slots + 1):
            if n <= k_star:
                w[n - 1] = q0 + min(n * L, d1) * dir1
            elif n <= k_star + spare:
                w[n - 1] = p_turn
            else:
                j = n - k_star - spare
                w[n - 1] = p_turn + min(j * L, dr) * ur
    w[n_slots - 1] = qf
    return Trajectory(w)


# ---------------------------------------------------------------------------
# initial feasible point
# ---------------------------------------------------------------------------

def _covert_start_ok(p: float, lam: np.ndarray, model: DetectionModel,
                     rho_w: float) -> bool:
    """Does uniform power p leave the covertness rows strictly satisfied?

    Checks the assembled rows at the start the initializer hands the
    subproblem: the auxiliary variable at ln(1 + beta1 p / (lam + 2 +
    H^2/var)), raised to its floor 2 U_FLOOR where it is smaller, and the
    tangent-bound slack at its optimum lam + 1. Residual D must hold with a
    1e-6 margin. Residual E must hold with a 1e-7 margin at the unfloored
    auxiliary variable, where it is largest (E degenerates when the log
    reaches 1, which lax covertness levels allow). The exact
    error-rate bound must hold as well. Each piece is monotone in p across
    the admissible power range, so bisection applies.
    """
    ln_a = np.log1p(model.beta1 * p / (lam + 2.0 + model.h2_over_var))
    ln_b = np.log1p(model.beta1 * model.var_willie * p / model.altitude_H**2)
    c = math.sqrt(math.pi / 2.0) * np.sqrt(lam + 1.0)
    k_w = math.sqrt(2.0 * math.pi) * math.log(model.rho) * rho_w
    u1 = np.maximum(ln_a, 2.0 * U_FLOOR)
    res_d = float(np.max((c - 1.0) * np.sqrt(u1) + ln_b - k_w * np.sqrt(lam + 1.0)))
    res_e = float(np.max(ln_a - np.sqrt(ln_a)))
    exact = float(np.max((1.0 - rho_w) - xi_lower_bound(lam, p, model)))
    return res_d <= -1e-6 and res_e <= -1e-7 and exact <= -1e-9


def initial_point(cfg: ScenarioConfig) -> ExpansionPoint:
    """Line-segment trajectory plus the largest covert uniform power.

    The power is bisected against the subproblem's own covertness residuals
    (slightly stricter than the closed-form error-rate bound, which is implied
    by them), so the assembled restriction is strictly feasible at the start.
    Rates then come from the outage inequality in closed form, with its two
    slacks a millionth of their scale above their optima.
    """
    for name in ("p_avg_max", "p_peak_max"):
        if getattr(cfg, name) == 0.0:
            raise InfeasibleScenarioError(
                f"zero power budget ({name} = 0 W): without transmit power no "
                f"rate at or above the floor {RATE_FLOOR:g} bits/s/Hz is feasible")
    budget = min(("p_avg_max", cfg.p_avg_max), ("p_peak_max", cfg.p_peak_max),
                 key=lambda item: item[1])
    budget_text = f"{budget[0]} = {budget[1]:g} W"
    p_cap = budget[1] * (1.0 - 1e-6)
    if p_cap < 2.0 * P_FLOOR:
        # the subproblem keeps every power above P_FLOOR and starts at 2 P_FLOOR
        raise InfeasibleScenarioError(
            f"power budget below the planner's power floor ({budget_text}; "
            f"the planner needs more than {2.0 * P_FLOOR:g} W)")
    traj = line_segment_trajectory(cfg)
    model = DetectionModel.from_config(cfg)
    lam = lambda_of(traj.waypoints, cfg.willie_est, cfg.var_willie)
    n = cfg.num_slots_N

    if _covert_start_ok(p_cap, lam, model, cfg.rho_w):
        p0 = p_cap
    else:
        lo, hi = 0.0, p_cap
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _covert_start_ok(mid, lam, model, cfg.rho_w):
                lo = mid
            else:
                hi = mid
        p0 = lo
    if p0 < POWER_FLOOR_INIT:
        # raise to the nominal floor only when the floor itself stays covert
        # (tight wardens can pin the admissible uniform power below it), and
        # never above the power budget
        if _covert_start_ok(POWER_FLOOR_INIT, lam, model, cfg.rho_w):
            floor = POWER_FLOOR_INIT
        else:
            floor = 100.0 * P_FLOOR
        p0 = max(p0, min(floor, p_cap))

    powers = np.full(n, p0)
    u1 = np.maximum(
        np.log1p(model.beta1 * powers / (lam + 2.0 + model.h2_over_var)),
        2.0 * U_FLOOR,
    )

    eps2 = cfg.var_bob
    dist2_b = np.sum((traj.waypoints - cfg.bob_est) ** 2, axis=1)
    cone = np.sqrt(2.0 * eps2**2 + 2.0 * eps2 * dist2_b)
    s_b = math.sqrt(-2.0 * math.log(cfg.rho_b))
    a_b = -math.log(cfg.rho_b)
    k_den = (2.0 * eps2 + s_b * (cone + 1e-6 * np.maximum(cone, 1.0))
             + a_b * (eps2 + 1e-6 * max(eps2, 1.0))
             + dist2_b + cfg.altitude_H**2)
    rates = np.log2(1.0 + cfg.gamma0 * powers / k_den) * (1.0 - 1e-9)
    rates = np.maximum(rates, RATE_FLOOR * (1.0 + 1e-6))

    exp = ExpansionPoint(
        traj_tilde=traj,
        p_tilde=PowerSchedule(powers),
        r_tilde=RateSchedule(rates),
        u1_tilde=u1,
    )
    margins = exact_feasibility(traj, exp.p_tilde, exp.r_tilde, cfg, model)
    if not exact_feasible(margins, cfg):
        worst_cov = float(np.min(margins["covertness"]))
        worst_out = float(np.min(margins["outage"]))
        # at the budget the power itself is what falls short
        cause = f" at the power budget ({budget_text})" if p0 == p_cap else ""
        raise InfeasibleScenarioError(
            f"no feasible initial plan{cause}: worst covertness margin "
            f"{worst_cov:.3e}, worst outage margin {worst_out:.3e}"
        )
    return exp


# ---------------------------------------------------------------------------
# the outer loop
# ---------------------------------------------------------------------------

def _make_plan(exp: ExpansionPoint, cfg: ScenarioConfig, model: DetectionModel,
               status: str) -> Plan:
    margins = exact_feasibility(exp.traj_tilde, exp.p_tilde, exp.r_tilde, cfg, model)
    return Plan(
        trajectory=exp.traj_tilde,
        power=exp.p_tilde,
        rates=exp.r_tilde,
        actr=exp.r_tilde.mean,
        lam=margins["lambda"],
        xi_lb=margins["xi_lower_bound"],
        outage_margin=margins["outage"],
        covert_margin=margins["covertness"],
        feasible=exact_feasible(margins, cfg),
        status=status,
    )


def _run_sca(cfg: ScenarioConfig, fixed_trajectory: bool,
             settings: ScaSettings | None, start: ExpansionPoint | None):
    settings = settings or ScaSettings()
    model = DetectionModel.from_config(cfg)
    exp = start if start is not None else initial_point(cfg)

    objectives = [exp.r_tilde.mean]
    points = [exp]
    records = []
    duals = None  # the last solve's, to warm-start the next
    reason = "outer_iteration_cap"
    for _ in range(settings.max_outer):
        try:
            sub = assemble_subproblem(exp, cfg, fixed_trajectory=fixed_trajectory)
        except InfeasibleExpansionError as exc:
            if not records:
                raise InfeasibleScenarioError(
                    f"initial point rejected by the subproblem: {exc}") from exc
            reason = "expansion_rejected"
            break
        res = cvxsolver.solve(sub, settings=settings.solver, duals=duals)
        records.append(SolveRecord.of(res))
        duals = res.duals
        traj, powers, rates, u1 = sub.unpack(res.variables)
        if res.status in _SOLVE_STOPS and rates.mean < objectives[-1]:
            # a solve cut short may end below its start, which is feasible
            # by construction: keep the start
            objectives.append(objectives[-1])
            points.append(exp)
            reason = _SOLVE_STOPS[res.status]
            break
        margins = exact_feasibility(traj, powers, rates, cfg, model)
        if not exact_feasible(margins, cfg):
            reason = "feasibility_regression"
            break
        exp = ExpansionPoint(
            traj_tilde=traj, p_tilde=powers, r_tilde=rates,
            u1_tilde=np.maximum(u1, 2.0 * U_FLOOR),
        )
        objectives.append(rates.mean)
        points.append(exp)
        if res.status in _SOLVE_STOPS:
            reason = _SOLVE_STOPS[res.status]
            break
        step = abs(objectives[-1] - objectives[-2])
        if step <= cfg.sca_tolerance and step <= CONVERGED_RTOL * objectives[-1]:
            reason = "converged"
            break

    plan = _make_plan(exp, cfg, model, status=reason)
    trace = ScaTrace(
        objectives=objectives,
        expansion_points=points,
        stop_reason=reason,
        subproblem_solves=len(records),
        solves=records,
    )
    return plan, trace


def run_jtp(cfg: ScenarioConfig, settings: ScaSettings | None = None,
            start: ExpansionPoint | None = None):
    """Joint trajectory and power optimization. Returns (Plan, ScaTrace)."""
    return _run_sca(cfg, fixed_trajectory=False, settings=settings, start=start)


def run_stp(cfg: ScenarioConfig, settings: ScaSettings | None = None,
            start: ExpansionPoint | None = None):
    """Power-only baseline on the frozen line-segment trajectory."""
    return _run_sca(cfg, fixed_trajectory=True, settings=settings, start=start)
