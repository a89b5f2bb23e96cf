"""The three workloads and their timed passes.

study_sweep  the flight-period study: T in {200, 210, 250, 300} s x {JTP, STP}
             at 1 s slots, planned serially.
fine_grid    T = 300 s at 0.5 s slots (600 slots), JTP and STP.
audit        validate_plan on the 300-slot JTP and STP plans (made in set-up)
             plus the 20 x 20 (lambda, p) quadrature grid of criterion 6.

Every workload reports every end-to-end metric. The solver workloads carry a
companion audit, timed apart from the planner calls (a 10 x 10 sub-grid and
the pass's longest JTP plan at 1000 samples); the audit workload reports the
planner figures of the plans it makes in set-up.

The seed drives the program's inputs: the key order of the generated config
files, the order of the quadrature grid points and the Monte Carlo seeds
(``mc_seed``). It also picks the slots and grid points the checks look at.
"""

from __future__ import annotations

import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from covertuav import detection, sca, scenario, validate

import checks
import oracles
from tracer import Tracer

clock = time.perf_counter

SETUP_REPEATS = 3          # set-up runs per timed run; setup_s is their median
SWEEP_T = (200.0, 210.0, 250.0, 300.0)
FINE_T, FINE_SLOT = 300.0, 0.5
AUDIT_SAMPLES = 20_000     # Monte Carlo samples per slot in the audit
COMPANION_SAMPLES = 1_000  # ... in the solver workloads' companion audit
GRID_N = 20                # criterion-6 grid is GRID_N x GRID_N
COMPANION_GRID_STRIDE = 2  # companion sub-grid: every 2nd point, 10 x 10
COVERT_CHECK_SLOTS = 8     # smallest-margin slots whose MC warden error is checked
RANDOM_CHECK_SLOTS = 24    # plus this many seed-chosen slots

BASE_CONFIG = {
    "flight_period": "300 s",
    "slot_duration": "1 s",
    "altitude": "100 m",
    "v_max": "5 m/s",
    "q_init": "-500, 100 m",
    "q_final": "500, 100 m",
    "bob_est": "-100, 300 m",
    "willie_est": "100, 300 m",
    "var_bob": "25 m^2",
    "var_willie": "25 m^2",
    "beta0": "-60 dB",
    "gamma0": "80 dB",
    "p_avg_max": "20 dBm",
    "p_peak_max": "0.4 W",
    "noise_nominal": "-120 dBm",
    "noise_uncertainty": "3 dB",
    "rho_b": "0.05",
    "rho_w": "0.05",
    "sca_tolerance": "1e-4",
}

RUNNERS = {"JTP": "run_jtp", "STP": "run_stp"}
PLAN_INDEX = {"JTP": 0, "STP": 1}   # the audit's plan index in mc_seed


def mc_seed(seed: int, index: int) -> int:
    """Monte Carlo seed of the audit's index-th plan for a run seed."""
    return 1_000_003 * seed + index


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def criterion6_grid():
    lam = np.logspace(math.log10(10.0), math.log10(5000.0), GRID_N)
    p = np.logspace(math.log10(1e-4), math.log10(0.4), GRID_N)
    return [(float(a), float(b)) for a in lam for b in p]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    cases: list                 # [(T, slot_duration, scheme)], in study order
    configs: dict               # (T, slot_duration) -> ScenarioConfig
    rng: random.Random
    plans: dict = field(default_factory=dict)   # audit only: scheme -> (plan, trace)
    plan_s: dict = field(default_factory=dict)  # audit only: scheme -> seconds


def write_configs(out_dir: Path, rng: random.Random, periods) -> dict:
    """Write one config file per (T, slot) with seed-shuffled key order and
    load it back through the program's parser."""
    configs = {}
    for t, slot in periods:
        entries = dict(BASE_CONFIG, flight_period=f"{t:g} s", slot_duration=f"{slot:g} s")
        keys = list(entries)
        rng.shuffle(keys)
        path = out_dir / f"T{t:g}_slot{slot:g}.cfg"
        path.write_text("".join(f"{k} = {entries[k]}\n" for k in keys), encoding="utf-8")
        configs[(t, slot)] = scenario.load_config(path)
    return configs


def make_inputs(workload: str, seed: int, out_dir: Path) -> Inputs:
    rng = random.Random(seed)
    if workload == "study_sweep":
        periods = [(t, 1.0) for t in SWEEP_T]
    elif workload == "fine_grid":
        periods = [(FINE_T, FINE_SLOT)]
    else:
        periods = [(300.0, 1.0)]
    # the study's own order: peak memory depends on it, so it stays fixed
    cases = [(t, slot, s) for t, slot in periods for s in ("JTP", "STP")]
    inputs = Inputs(cases=cases, configs=write_configs(out_dir, rng, periods), rng=rng)
    if workload == "audit":
        cfg = inputs.configs[periods[0]]
        for scheme in ("JTP", "STP"):
            t0 = clock()
            inputs.plans[scheme] = getattr(sca, RUNNERS[scheme])(cfg)
            inputs.plan_s[scheme] = clock() - t0
    return inputs


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    seconds: dict = field(default_factory=dict)   # figure -> seconds in this pass
    op_seconds: dict = field(default_factory=dict)  # operation key -> seconds
    outputs: dict = field(default_factory=dict)   # operation key -> program output


def operations(workload: str, inputs: Inputs, seed: int, grid, companion: bool):
    """One pass as [(key, figure, thunk)].

    A thunk takes the pass's results so far and looks its program function up
    at call time, so a tracer installed between calls sees it. The quadrature
    grid is cut into slices that run before, between and after the main
    operations, so that the grid's time is sampled across the whole pass and
    not in one stretch of the machine's fluctuating speed. With
    ``companion`` the solver workloads carry a 10 x 10 sub-grid this way and
    end the pass with the companion audit of the longest JTP plan.
    """
    if workload == "audit":
        cfg = inputs.configs[(300.0, 1.0)]
        main = []
        for _, _, scheme in inputs.cases:
            mc = validate.McSettings(num_samples=AUDIT_SAMPLES,
                                     rng_seed=mc_seed(seed, PLAN_INDEX[scheme]))
            plan = inputs.plans[scheme][0]
            main.append((scheme, "validate",
                         lambda res, plan=plan, mc=mc: validate.validate_plan(plan, cfg, mc)))
        points = grid
    else:
        main = [((t, slot, scheme), scheme,
                 lambda res, cfg=inputs.configs[(t, slot)], name=RUNNERS[scheme]:
                 getattr(sca, name)(cfg))
                for t, slot, scheme in inputs.cases]
        if not companion:
            return main
        cfg = inputs.configs[max(inputs.configs)]
        points = [pt for k, pt in enumerate(grid)
                  if (k // GRID_N) % COMPANION_GRID_STRIDE == 0
                  and (k % GRID_N) % COMPANION_GRID_STRIDE == 0]
        inputs.rng.shuffle(points)
    slices = len(main) + 1
    size = -(-len(points) // slices)
    ops = []
    for k in range(slices):
        part = points[k * size:(k + 1) * size]
        ops.append((("grid", k), "grid", lambda res, part=part: bound_grid(cfg, part)))
        if k < len(main):
            ops.append(main[k])
    if workload != "audit":
        t, slot = max(inputs.configs)
        mc = validate.McSettings(num_samples=COMPANION_SAMPLES, rng_seed=mc_seed(seed, 0))
        ops.append(("companion", "validate", lambda res: validate.validate_plan(
            res.outputs[(t, slot, "JTP")][0], cfg, mc)))
    return ops


def planner_outputs(outputs: dict) -> dict:
    """(T, slot, scheme) -> (plan, trace) of the pass's planner calls."""
    return {k: v for k, v in outputs.items() if isinstance(k, tuple) and len(k) == 3}


def grid_margins(outputs: dict) -> dict:
    """The quadrature grid's margins, gathered from its slices."""
    margins = {}
    for key, out in outputs.items():
        if isinstance(key, tuple) and key[0] == "grid":
            margins.update(out)
    return margins


def run_op(res: PassResult, key, figure, thunk):
    """Run and time one operation; a ScenarioError counts as a failed one."""
    res.attempted += 1
    t0 = clock()
    try:
        out = thunk(res)
    except scenario.ScenarioError as exc:
        res.failed += 1
        print(f"failed: {key}: {exc}", file=sys.stderr)
        return
    dt = clock() - t0
    res.seconds[figure] = res.seconds.get(figure, 0.0) + dt
    res.op_seconds[key] = dt
    res.outputs[key] = out


def run_pass(ops) -> PassResult:
    res = PassResult()
    for key, figure, thunk in ops:
        run_op(res, key, figure, thunk)
    return res


def bound_grid(cfg, grid):
    """Quadrature error rate minus the closed-form bound at each grid point."""
    model = detection.DetectionModel.from_config(cfg)
    return {(lam, p): validate.xi_bar_quadrature(lam, p, model)
            - float(detection.xi_lower_bound(lam, p, model)) for lam, p in grid}


# ---------------------------------------------------------------------------
# checks over a whole run
# ---------------------------------------------------------------------------

def check_planner_passes(workload: str, inputs: Inputs, passes) -> list:
    bad = []
    first = passes[0].outputs
    plans = planner_outputs(first)
    for k, res in enumerate(passes[1:], start=2):
        for case in plans:
            if case in res.outputs and (res.outputs[case][0].to_dict()
                                        != first[case][0].to_dict()):
                bad.append(f"pass {k}: plan {case} differs from pass 1")
    for (t, slot, scheme), (plan, trace) in sorted(plans.items()):
        label = f"{scheme} T={t:g} slot={slot:g}"
        bad += checks.check_plan(label, plan, trace, inputs.configs[(t, slot)],
                                 scenario.FEAS_RTOL)
    actr = {(t, s): out[0].actr for (t, slot, s), out in plans.items()}
    if workload == "study_sweep":
        bad += checks.check_sweep(actr)
    else:
        for (t, s), a in actr.items():
            if s == "JTP" and (t, "STP") in actr and a < actr[(t, "STP")] - 1e-6:
                bad.append(f"T={t:g}: JTP {a:.9g} below STP {actr[(t, 'STP')]:.9g}")
    if "companion" in first:
        t, slot = max(inputs.configs)
        bad += checks.check_outage_mc("companion audit", first["companion"],
                                      plans[(t, slot, "JTP")][0], inputs.configs[(t, slot)])
        bad += [f"companion grid: quadrature below the bound by {-m:.3g} at {pt}"
                for pt, m in grid_margins(first).items() if m < 0.0]
        for k, res in enumerate(passes[1:], start=2):
            if (res.outputs["companion"].to_dict() != first["companion"].to_dict()
                    or grid_margins(res.outputs) != grid_margins(first)):
                bad.append(f"pass {k}: companion audit differs from pass 1")
    return bad


def check_audit_passes(inputs: Inputs, passes) -> list:
    cfg = inputs.configs[(300.0, 1.0)]
    bad = []
    first = passes[0].outputs
    for k, res in enumerate(passes[1:], start=2):
        for key in ("JTP", "STP"):
            if res.outputs[key].to_dict() != first[key].to_dict():
                bad.append(f"pass {k}: {key} report differs from pass 1")
        if grid_margins(res.outputs) != grid_margins(first):
            bad.append(f"pass {k}: grid margins differ from pass 1")
    z99 = validate.McSettings(num_samples=AUDIT_SAMPLES).z_value
    for scheme in ("JTP", "STP"):
        plan, trace = inputs.plans[scheme]
        label = f"audit {scheme}"
        bad += checks.check_plan(label, plan, trace, cfg, scenario.FEAS_RTOL)
        report = first[scheme]
        if not report.passed:
            bad.append(f"{label}: report did not pass")
        bad += checks.check_outage_mc(label, report, plan, cfg)
        order = np.argsort(plan.covert_margin, kind="stable")
        slots = list(order[:COVERT_CHECK_SLOTS])
        slots += inputs.rng.sample(list(order[COVERT_CHECK_SLOTS:]), RANDOM_CHECK_SLOTS)
        bad += checks.check_willie_mc(label, report, plan, cfg, slots, z99)
        bad += checks.check_ks(label, report)
    margins = grid_margins(first)
    bad += [f"grid: quadrature below the bound by {-m:.3g} at {k}"
            for k, m in margins.items() if m < 0.0]
    model = detection.DetectionModel.from_config(cfg)
    for lam, p in inputs.rng.sample(sorted(margins), 4):
        want = 1.0 - oracles.mean_log_kernel(lam, p, cfg) / model.two_ln_rho
        got = validate.xi_bar_quadrature(lam, p, model)
        if abs(got - want) > 1e-8:
            bad.append(f"grid: quadrature {got:.12g} vs scipy {want:.12g} at ({lam:.6g}, {p:.3g})")
    return bad


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _timed_passes(run_pass, seconds: float):
    """Whole passes: one, and more while the next one is expected to end
    inside the window."""
    passes, start = [], clock()
    while True:
        t0 = clock()
        passes.append(run_pass())
        if (clock() - start) + (clock() - t0) > seconds:
            return passes


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
        out_root: Path) -> dict:
    out_dir = out_root / f"{workload}-{seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return _run_traced(workload, seed, out_dir)
        return _run_timed(workload, seed, seconds, import_s, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _operations(workload, inputs, seed, companion):
    grid = criterion6_grid()
    if workload == "audit":
        inputs.rng.shuffle(grid)
    return operations(workload, inputs, seed, grid, companion)


def _run_timed(workload, seed, seconds, import_s, out_dir):
    setup_times, plan_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        inputs = make_inputs(workload, seed, out_dir)
        setup_times.append(clock() - t0)
        plan_times.append(inputs.plan_s)
    setup_s = import_s + statistics.median(setup_times)

    ops = _operations(workload, inputs, seed, companion=True)
    passes = _timed_passes(lambda: run_pass(ops), seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if workload == "audit":
        bad = check_audit_passes(inputs, passes)
        jtp_s, stp_s = (statistics.median(t[scheme] for t in plan_times)
                        for scheme in ("JTP", "STP"))
        actr_j, actr_s = inputs.plans["JTP"][0].actr, inputs.plans["STP"][0].actr
        slot_samples = AUDIT_SAMPLES * sum(len(p[0].trajectory) for p in inputs.plans.values())
    else:
        bad = check_planner_passes(workload, inputs, passes)
        jtp_s = statistics.median(p.seconds["JTP"] for p in passes)
        stp_s = statistics.median(p.seconds["STP"] for p in passes)
        plans = planner_outputs(passes[0].outputs)
        actr_j, actr_s = (statistics.fmean(plan.actr for (_, _, s), (plan, _) in plans.items()
                                           if s == scheme)
                          for scheme in ("JTP", "STP"))
        slot_samples = COMPANION_SAMPLES * len(passes[0].outputs["companion"].outage)
    sps = statistics.median(slot_samples / p.seconds["validate"] for p in passes)
    grid_s = statistics.median(p.seconds["grid"] for p in passes)

    for line in bad:
        print(f"check failed: {line}", file=sys.stderr)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jtp_s": (jtp_s, "s"),
        "stp_s": (stp_s, "s"),
        "actr_jtp_bps_hz": (actr_j, "bit/s/Hz"),
        "actr_stp_bps_hz": (actr_s, "bit/s/Hz"),
        "audit_samples_per_s": (sps, "slot-samples/s"),
        "bound_grid_s": (grid_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for k, p in enumerate(passes, start=1):
        print(f"pass {k}: " + ", ".join(f"{key} {dt:.3f} s" for key, dt in p.op_seconds.items()),
              file=sys.stderr)
    return _result(not bad, attempted, failed, metrics)


def _run_traced(workload, seed, out_dir):
    """Each operation runs twice back to back, plain and traced, alternating
    which goes first, so that slow drifts of the machine cancel out of the
    overhead figure."""
    inputs = make_inputs(workload, seed, out_dir)
    tracer = Tracer()
    tracer.install()
    try:
        write_configs(out_dir, random.Random(seed), list(inputs.configs))
    finally:
        tracer.uninstall()

    plain, traced = PassResult(), PassResult()
    for k, (key, figure, thunk) in enumerate(_operations(workload, inputs, seed, False)):
        for res in ((plain, traced) if k % 2 == 0 else (traced, plain)):
            if res is traced:
                tracer.install()
            try:
                run_op(res, key, figure, thunk)
            finally:
                if res is traced:
                    tracer.uninstall()
    ratios = [traced.op_seconds[key] / plain.op_seconds[key]
              for key in plain.op_seconds if key in traced.op_seconds]

    passes = [plain, traced]
    if workload == "audit":
        bad = check_audit_passes(inputs, passes)
    else:
        bad = check_planner_passes(workload, inputs, passes)
    for line in bad:
        print(f"check failed: {line}", file=sys.stderr)
    plain_s, traced_s = sum(plain.seconds.values()), sum(traced.seconds.values())
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    # the machine's own noise is large next to the overhead; the median of the
    # per-operation ratios resists it better than the ratio of the sums
    metrics["trace.overhead_pct"] = (100.0 * statistics.median(ratios) - 100.0, "%")
    return _result(not bad, plain.attempted + traced.attempted,
                   plain.failed + traced.failed, metrics)


def _result(correct, attempted, failed, metrics):
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
