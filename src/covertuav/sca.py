"""Outer optimization loop: initial feasible point and successive convex passes.

The initializer flies the max-speed line-segment path (out to the receiver's
estimated position, hover, max-speed leg to the landing point, with a midway
turn when the flight period is too short to reach the receiver). Every slot
then gets the largest power its own covertness rows allow at the start the
subproblem is handed, with the auxiliary variable t = sqrt(u1) just above
the smallest value covertness row E accepts there. When those caps overrun
the average budget, the powers are water-filled under it. Per-slot rates
come out of the outage inequality in closed form. The restriction's rate
surrogate can at most double a slot's SNR term per pass, so a start below
these caps would spend its first passes climbing; on the line path with a
slack budget the start is the power-only scheme's limit.

Each outer iteration assembles the convex restriction at the current point,
solves it from there with the previous solve's duals, re-verifies the exact
constraints once (the margins go on to the next assembly and to the plan),
and repeats until two consecutive SCA iterates' mean rates agree, both in
absolute terms (sca_tolerance) and relative to the rate itself. The start is
not an SCA iterate, so the first solve's step never stops the loop.
Restriction plus tangency make the objective nondecreasing and every iterate
feasible for the original problem, so no damping or trust region is needed;
a solve's strictly interior iterate is also strictly interior for the next
restriction, so it becomes the next start exactly as it is.
A solve that stops short ("stalled" or "max_iters") ends the loop. So does a
solve that ends below its start's rate, and the loop keeps the start: cut
short, the solve says nothing more; optimal, it leaves the start within the
solver's tolerance of the restriction's optimum, a fixed point of the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cvxsolver
from .convexify import (
    ExpansionPoint,
    InfeasibleExpansionError,
    P_FLOOR,
    assemble_subproblem,
    exact_feasibility,
    exact_feasible,
)
from .detection import DetectionModel, lambda_of, xi_lower_bound
from .scenario import (
    RATE_FLOOR,
    PowerSchedule,
    RateSchedule,
    ScenarioConfig,
    ScenarioError,
    Trajectory,
)

# Converged also needs the last step within this fraction of the ACTR. From a
# start at the covertness caps JTP's first trajectory steps are small (a few
# 1e-6 on small scenarios) while its limit is still about 1e-3 of the ACTR
# away, so a looser relative test stops it short.
CONVERGED_RTOL = 1e-3
MAX_OUTER = 100  # subproblem solves per run
BISECTION_STEPS = 200
# solver statuses that end the outer loop at the solve's (feasible) iterate
_SOLVE_STOPS = {"max_iters": "subproblem_newton_cap", "stalled": "subproblem_stalled"}


class InfeasibleScenarioError(ScenarioError):
    """No feasible plan exists for the scenario (within this construction)."""


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

def _start_t(ln_a):
    """t at the start: just above ln_a, where covertness row E (ln_a - t at
    the start) is strictly negative."""
    return ln_a * (1.0 + 1e-7) + 1e-12


def _ln_a(p, lam, model: DetectionModel):
    return np.log1p(model.beta1 * p / (lam + 2.0 + model.h2_over_var))


def _covert_start_ok(p, lam: np.ndarray, model: DetectionModel,
                     rho_w: float) -> np.ndarray:
    """Per slot: does power p[i] leave slot i's covertness rows strictly satisfied?

    Checks the assembled rows at the start the initializer hands the
    subproblem: t at _start_t and the tangent-bound slack at its optimum
    lam + 1, where row E holds by construction. Row D, (c - 1) t +
    ln(1 + beta1 var p / H^2) - k_w sqrt(lam + 1) with c = sqrt(pi/2)
    sqrt(lam + 1) > 1, must hold with a 1e-6 margin, and the exact error-rate
    bound with 1e-9. Both only tighten as p grows, so bisection applies.
    """
    sq = np.sqrt(lam + 1.0)
    ln_b = np.log1p(model.beta1 * model.var_willie * p / model.altitude_H**2)
    k_w = math.sqrt(2.0 * math.pi) * math.log(model.rho) * rho_w
    res_d = ((math.sqrt(math.pi / 2.0) * sq - 1.0) * _start_t(_ln_a(p, lam, model))
             + ln_b - k_w * sq)
    exact = (1.0 - rho_w) - xi_lower_bound(lam, p, model)
    return (res_d <= -1e-6) & (exact <= -1e-9)


def _covert_caps(p_hi: float, lam: np.ndarray, model: DetectionModel,
                 rho_w: float) -> np.ndarray:
    """The largest power in [0, p_hi] that passes _covert_start_ok, per slot,
    to 1e-12 relative (or to a thousandth of P_FLOOR, below which no power
    matters)."""
    lo, hi = np.zeros_like(lam), np.full_like(lam, p_hi)
    top = _covert_start_ok(hi, lam, model, rho_w)
    for _ in range(BISECTION_STEPS):
        if np.all(hi - lo <= 1e-12 * hi + 1e-3 * P_FLOOR):
            break
        mid = 0.5 * (lo + hi)
        ok = _covert_start_ok(mid, lam, model, rho_w)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return np.where(top, p_hi, lo)


def _water_fill(total: float, level: np.ndarray, p_min: np.ndarray,
                cap: np.ndarray) -> np.ndarray:
    """clip(nu - level, p_min, cap) at the largest nu whose sum stays within
    total; needs sum(p_min) <= total."""
    lo, hi = float(np.min(p_min + level)), float(np.max(cap + level))
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if np.sum(np.clip(mid - level, p_min, cap)) <= total:
            lo = mid
        else:
            hi = mid
    return np.clip(lo - level, p_min, cap)


def initial_point(cfg: ScenarioConfig, margins: dict | None = None) -> ExpansionPoint:
    """Line-segment trajectory with every slot at its own covertness cap.

    Each slot's power is bisected against the subproblem's own covertness
    rows at the start (slightly stricter than the closed-form error-rate
    bound, which they imply), with t just above
    ln(1 + beta1 P / (lam + 2 + H^2/var)), the smallest value row E accepts,
    so the assembled restriction is strictly feasible at the start. When the
    caps overrun the average budget, the powers are water-filled under it
    against the outage denominator, never below the power that carries the
    rate floor. Rates then come from the outage inequality in closed form,
    with its two slacks a millionth of their scale above their optima. A
    start that cannot be built raises InfeasibleScenarioError naming the
    slot or the budget that breaks it. margins, when given, receives the
    start's exact_feasibility margins, which the outer loop hands on.
    """
    for name in ("p_avg_max", "p_peak_max"):
        if getattr(cfg, name) == 0.0:
            raise InfeasibleScenarioError(
                f"zero power budget ({name} = 0 W): without transmit power no "
                f"rate at or above the floor {RATE_FLOOR:g} bits/s/Hz is feasible")
    budget = min(("p_avg_max", cfg.p_avg_max), ("p_peak_max", cfg.p_peak_max),
                 key=lambda item: item[1])
    if budget[1] * (1.0 - 1e-6) < 2.0 * P_FLOOR:
        # the subproblem keeps every power above P_FLOOR, and the start's
        # powers at least 2.5 P_FLOOR
        raise InfeasibleScenarioError(
            f"power budget below the planner's power floor ({budget[0]} = "
            f"{budget[1]:g} W; the planner needs more than {2.0 * P_FLOOR:g} W)")
    traj = line_segment_trajectory(cfg)
    model = DetectionModel.from_config(cfg)
    lam = lambda_of(traj.waypoints, cfg.willie_est, cfg.var_willie)
    n = cfg.num_slots_N

    # the outage denominator with both slacks a millionth of their scale above
    # their optima; the rate floor within it needs at least p_min
    eps2 = cfg.var_bob
    dist2_b = np.sum((traj.waypoints - cfg.bob_est) ** 2, axis=1)
    cone = np.sqrt(2.0 * eps2**2 + 2.0 * eps2 * dist2_b)
    s_b = math.sqrt(-2.0 * math.log(cfg.rho_b))
    a_b = -math.log(cfg.rho_b)
    k_den = (2.0 * eps2 + s_b * (cone + 1e-6 * np.maximum(cone, 1.0))
             + a_b * (eps2 + 1e-6 * max(eps2, 1.0))
             + dist2_b + cfg.altitude_H**2)
    snr_floor = np.expm1(math.log(2.0) * RATE_FLOOR * (1.0 + 1e-6) / (1.0 - 1e-9))
    p_min = np.maximum(k_den * snr_floor / cfg.gamma0 * (1.0 + 1e-6), 2.5 * P_FLOOR)

    p_hi = cfg.p_peak_max * (1.0 - 1e-6)
    cap = _covert_caps(p_hi, lam, model, cfg.rho_w)
    i = int(np.argmin(cap / p_min))
    if cap[i] < p_min[i]:
        what = (f" at the power budget (p_peak_max = {cfg.p_peak_max:g} W): it"
                if cap[i] == p_hi else ": covertness")
        raise InfeasibleScenarioError(
            f"no feasible initial plan{what} caps slot {i}'s power at "
            f"{cap[i]:.3e} W, below the {p_min[i]:.3e} W that carries the rate floor "
            f"{RATE_FLOOR:g} bits/s/Hz within outage")
    total = n * cfg.p_avg_max * (1.0 - 1e-6)
    if np.sum(p_min) > total:
        raise InfeasibleScenarioError(
            f"no feasible initial plan at the power budget (p_avg_max = "
            f"{cfg.p_avg_max:g} W): carrying the rate floor {RATE_FLOOR:g} bits/s/Hz "
            f"within outage in every slot needs a mean power of {np.mean(p_min):.3e} W")
    if np.sum(cap) <= total:
        powers = cap
    else:
        powers = _water_fill(total, k_den / cfg.gamma0, p_min, cap)

    rates = np.log2(1.0 + cfg.gamma0 * powers / k_den) * (1.0 - 1e-9)
    rates = np.maximum(rates, RATE_FLOOR * (1.0 + 1e-6))
    exp = ExpansionPoint(
        traj_tilde=traj,
        p_tilde=PowerSchedule(powers),
        r_tilde=RateSchedule(rates),
        t_tilde=_start_t(_ln_a(powers, lam, model)),
    )
    found = exact_feasibility(traj, exp.p_tilde, exp.r_tilde, cfg, model)
    if not exact_feasible(found, cfg):
        raise InfeasibleScenarioError(
            f"no feasible initial plan: worst covertness margin "
            f"{float(np.min(found['covertness'])):.3e}, worst outage margin "
            f"{float(np.min(found['outage'])):.3e}")
    if margins is not None:
        margins.update(found)
    return exp


# ---------------------------------------------------------------------------
# the outer loop
# ---------------------------------------------------------------------------

def _make_plan(exp: ExpansionPoint, margins: dict, cfg: ScenarioConfig,
               status: str) -> Plan:
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


def _run_sca(cfg: ScenarioConfig, fixed_trajectory: bool, start: ExpansionPoint | None):
    model = DetectionModel.from_config(cfg)
    if start is None:
        margins = {}
        exp = initial_point(cfg, margins)
    else:
        exp = start
        margins = exact_feasibility(exp.traj_tilde, exp.p_tilde, exp.r_tilde, cfg, model)

    # exp's margins are computed once, where exp is accepted, and handed on
    objectives = [exp.r_tilde.mean]
    points = [exp]
    records = []
    duals = None  # the last solve's, to warm-start the next
    reason = "outer_iteration_cap"
    for _ in range(MAX_OUTER):
        try:
            sub = assemble_subproblem(exp, cfg, fixed_trajectory=fixed_trajectory,
                                      margins=margins)
        except InfeasibleExpansionError as exc:
            if not records:
                raise InfeasibleScenarioError(
                    f"initial point rejected by the subproblem: {exc}") from exc
            reason = "expansion_rejected"
            break
        res = cvxsolver.solve(sub, duals=duals)
        records.append(SolveRecord.of(res))
        duals = res.duals
        traj, powers, rates, t = sub.unpack(res.variables)
        if rates.mean < objectives[-1]:
            # a solve may end below its start, which is feasible by
            # construction: keep the start. One cut short says so; an optimal
            # one leaves the start within the solver's tolerance of the
            # restriction's optimum, a fixed point of the loop
            objectives.append(objectives[-1])
            points.append(exp)
            reason = _SOLVE_STOPS.get(res.status, "converged")
            break
        candidate = exact_feasibility(traj, powers, rates, cfg, model)
        if not exact_feasible(candidate, cfg):
            reason = "feasibility_regression"
            break
        margins = candidate
        exp = ExpansionPoint(traj_tilde=traj, p_tilde=powers, r_tilde=rates, t_tilde=t)
        objectives.append(rates.mean)
        points.append(exp)
        if res.status in _SOLVE_STOPS:
            reason = _SOLVE_STOPS[res.status]
            break
        # the start is not an SCA iterate: judge steps between two solves
        step = abs(objectives[-1] - objectives[-2])
        if (len(records) >= 2 and step <= cfg.sca_tolerance
                and step <= CONVERGED_RTOL * objectives[-1]):
            reason = "converged"
            break

    plan = _make_plan(exp, margins, cfg, status=reason)
    trace = ScaTrace(
        objectives=objectives,
        expansion_points=points,
        stop_reason=reason,
        subproblem_solves=len(records),
        solves=records,
    )
    return plan, trace


def run_jtp(cfg: ScenarioConfig, start: ExpansionPoint | None = None):
    """Joint trajectory and power optimization. Returns (Plan, ScaTrace)."""
    return _run_sca(cfg, fixed_trajectory=False, start=start)


def run_stp(cfg: ScenarioConfig, start: ExpansionPoint | None = None):
    """Power-only baseline on the frozen line-segment trajectory."""
    return _run_sca(cfg, fixed_trajectory=True, start=start)
