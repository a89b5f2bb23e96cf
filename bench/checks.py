"""Correctness checks on plans, the sweep and audit reports.

Each check returns a list of failure messages (empty when everything holds).
Plans are checked against the scenario's own limits and against the exact
scipy oracles in ``oracles.py``; nothing is compared with a stored copy of an
earlier run's output.
"""

from __future__ import annotations

import math

import numpy as np

import oracles

FAMILY_ALPHA = 1e-6   # family-wise false-alarm rate of the Monte Carlo checks
COVERT_SLOTS = 4      # smallest-margin slots of a plan checked by quadrature


def check_plan(label, plan, trace, cfg, feas_rtol):
    bad = []
    w = plan.trajectory.waypoints
    steps = np.linalg.norm(np.diff(np.vstack([cfg.q_init, w]), axis=0), axis=1)
    if float(steps.max()) > cfg.max_step_L * (1.0 + feas_rtol):
        bad.append(f"{label}: step {steps.max():.9g} m over the cap {cfg.max_step_L} m")
    if not np.array_equal(w[-1], cfg.q_final):
        bad.append(f"{label}: last waypoint {w[-1].tolist()} is not q_final")
    p = plan.power.powers
    if float(np.mean(p)) > cfg.p_avg_max:
        bad.append(f"{label}: mean power {np.mean(p):.9g} W over p_avg_max")
    if float(np.max(p)) > cfg.p_peak_max:
        bad.append(f"{label}: peak power {np.max(p):.9g} W over p_peak_max")
    rates = plan.rates.rates
    if not math.isclose(plan.actr, float(np.mean(rates)), rel_tol=1e-12, abs_tol=1e-15):
        bad.append(f"{label}: ACTR {plan.actr!r} is not the mean rate")
    if not plan.actr > 0.0:
        bad.append(f"{label}: ACTR {plan.actr!r} is not positive")
    outage = oracles.exact_outage(w, p, rates, cfg)
    if float(outage.max()) > cfg.rho_b:
        i = int(np.argmax(outage))
        bad.append(f"{label}: exact outage {outage[i]:.6g} > rho_b at slot {i}")
    for i in np.argsort(plan.covert_margin, kind="stable")[:COVERT_SLOTS]:
        xi = oracles.mean_warden_error(w[i], float(p[i]), cfg)
        if xi < 1.0 - cfg.rho_w:
            bad.append(f"{label}: mean warden error {xi:.6g} < 1 - rho_w at slot {i}")
    if np.any(np.diff(np.asarray(trace.objectives)) < 0.0):
        bad.append(f"{label}: objective history decreases: {trace.objectives}")
    return bad


def check_sweep(actr):
    """actr: {(T, scheme): ACTR} over the flight-period study."""
    bad = []
    periods = sorted({t for t, _ in actr})
    for t in periods:
        j, s = actr.get((t, "JTP")), actr.get((t, "STP"))
        if j is not None and s is not None and j < s - 1e-6:
            bad.append(f"T={t:g}: JTP {j:.9g} below STP {s:.9g}")
    for scheme in ("JTP", "STP"):
        seq = [actr[(t, scheme)] for t in periods if (t, scheme) in actr]
        if any(b < a - 1e-4 for a, b in zip(seq, seq[1:])):
            bad.append(f"{scheme}: ACTR decreases in T: {seq}")
    t0 = periods[0]
    if (t0, "JTP") in actr and (t0, "STP") in actr:
        gap = abs(actr[(t0, "JTP")] - actr[(t0, "STP")])
        if gap > 1e-3:
            bad.append(f"T={t0:g}: JTP and STP differ by {gap:.3g} at minimum time")
    return bad


def wilson(count, n, z):
    p_hat = count / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2.0 * n)) / denom
    half = z * np.sqrt((p_hat * (1.0 - p_hat) + z2 / (4.0 * n)) / n) / denom
    return center - half, center + half


def check_outage_mc(label, report, plan, cfg):
    """Per-slot Monte Carlo outage against ncx2.sf, Bonferroni-corrected."""
    exact = oracles.exact_outage(plan.trajectory.waypoints, plan.power.powers,
                                 plan.rates.rates, cfg)
    n = report.num_samples
    z = oracles.bonferroni_z(FAMILY_ALPHA, exact.size)
    lo, hi = wilson(np.rint(report.outage * n), n, z)
    off = np.nonzero((exact < lo - 1e-12) | (exact > hi + 1e-12))[0]
    if off.size:
        i = int(off[0])
        return [f"{label}: MC outage {report.outage[i]:.6g} vs exact {exact[i]:.6g} "
                f"at slot {i} ({off.size} slots outside the z={z:.2f} interval)"]
    return []


def check_willie_mc(label, report, plan, cfg, slots, confidence_z):
    """Monte Carlo mean warden error against its quadrature on chosen slots."""
    z = oracles.bonferroni_z(FAMILY_ALPHA, len(slots))
    bad = []
    w, p = plan.trajectory.waypoints, plan.power.powers
    for i in slots:
        exact = oracles.mean_warden_error(w[i], float(p[i]), cfg)
        se = (report.xi_bar_ci[i, 1] - report.xi_bar[i]) / confidence_z
        if abs(report.xi_bar[i] - exact) > z * se + 1e-9:
            bad.append(f"{label}: MC warden error {report.xi_bar[i]:.9g} vs "
                       f"quadrature {exact:.9g} at slot {i} (se {se:.3g})")
            break
    return bad


def check_ks(label, report):
    bad = []
    for key_lam, key_ks in (("lambda_min", "ks_at_lambda_min"),
                            ("lambda_median", "ks_at_lambda_median")):
        lam, got = report.ks_stats[key_lam], report.ks_stats[key_ks]
        want = oracles.ks_normal_vs_ncx2(lam)
        if abs(got - want) > 1e-7:
            bad.append(f"{label}: KS {got:.9g} vs ncx2.cdf {want:.9g} at lambda {lam:.6g}")
    return bad
