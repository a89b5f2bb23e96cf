"""Experiment command line: single runs, parameter sweeps, and plan audits.

Outputs are machine-readable: plan.json (trajectory, powers, rates, per-slot
diagnostics), trace.csv (objective history with each solve's Newton steps
and dual residual), sweep.csv (one row per sweep cell), validation.json
(Monte Carlo audit). Floats are written with at most 12 significant digits
so outputs are byte-stable across platforms.

Exit codes: 0 success, 1 I/O or parse error (including slot-count mismatch),
2 infeasible scenario or failed validation criteria.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .scenario import (
    CONFIG_KEYS,
    ConfigParseError,
    ScenarioError,
    load_config,
    parse_key_values,
    parse_quantity,
)
from .sca import InfeasibleScenarioError, Plan, run_jtp, run_stp
from .validate import McSettings, validate_plan


def _fmt(x: float) -> float:
    """Round-trip through 12 significant digits."""
    return float(f"{x:.12g}")


def _round_floats(obj):
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_round_floats(payload), indent=1) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# sweep specification
# ---------------------------------------------------------------------------

# sweep parameter -> config key, whose ScenarioConfig field and unit kind
# (scenario.CONFIG_KEYS) the sweep values take
_SWEEPABLE = {
    "T": "flight_period",
    "rho_w": "rho_w",
    "rho_b": "rho_b",
    "var_bob": "var_bob",
    "var_willie": "var_willie",
    "noise_uncertainty": "noise_uncertainty",
    "p_avg": "p_avg_max",
}

_SCHEMES = {"JTP": run_jtp, "STP": run_stp}

_SWEEP_KEYS = ("param", "values", "schemes", "mc_validate")


@dataclass(frozen=True)
class SweepSpec:
    param: str
    values: tuple
    schemes: tuple
    mc_validate: bool = False


def parse_sweep_text(text: str) -> SweepSpec:
    entries = parse_key_values(text, _SWEEP_KEYS)
    for key in ("param", "values", "schemes"):
        if key not in entries:
            raise ConfigParseError(key, "required sweep key is missing")
    param = entries["param"]
    if param not in _SWEEPABLE:
        raise ConfigParseError(
            "param", f"'{param}' is not sweepable (choose from {sorted(_SWEEPABLE)})"
        )
    _, kind, _ = CONFIG_KEYS[_SWEEPABLE[param]]
    values = tuple(
        parse_quantity(tok.strip(), kind, f"values[{i}]")
        for i, tok in enumerate(entries["values"].split(","))
        if tok.strip()
    )
    if not values:
        raise ConfigParseError("values", "no sweep values given")
    schemes = tuple(s.strip().upper() for s in entries["schemes"].split(",") if s.strip())
    for s in schemes:
        if s not in _SCHEMES:
            raise ConfigParseError("schemes", f"unknown scheme '{s}' (use JTP, STP)")
    mc = entries.get("mc_validate", "false").strip().lower()
    if mc not in ("true", "false", "0", "1", "yes", "no"):
        raise ConfigParseError("mc_validate", f"expected a boolean, got '{mc}'")
    return SweepSpec(param=param, values=values, schemes=schemes,
                     mc_validate=mc in ("true", "1", "yes"))


def load_sweep(path) -> SweepSpec:
    return parse_sweep_text(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _out_dir(out_dir) -> Path | None:
    """The output directory, created if missing, or None after an error."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir '{out}': {exc}", file=sys.stderr)
        return None
    return out


def _write_plan_outputs(out_dir: Path, plan, trace, scheme: str) -> None:
    payload = plan.to_dict()
    payload["scheme"] = scheme
    payload["stop_reason"] = trace.stop_reason
    payload["subproblem_solves"] = trace.subproblem_solves
    _write_json(out_dir / "plan.json", payload)
    with (out_dir / "trace.csv").open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "actr_bps_hz", "newton_steps", "dual_residual"])
        for i, obj in enumerate(trace.objectives):
            rec = trace.solves[i - 1] if i else None
            w.writerow([i, f"{obj:.12g}"] + (["", ""] if rec is None else [
                rec.newton_steps, f"{rec.dual_residual:.12g}"]))


def cmd_run(config_path, out_dir, scheme: str = "JTP", seed: int = 20240,
            mc_samples: int = 0) -> int:
    """Optimize one scenario; write plan.json, trace.csv, validation.json."""
    try:
        cfg = load_config(config_path)
    except OSError as exc:
        print(f"error: cannot read config '{config_path}': {exc}", file=sys.stderr)
        return 1
    except (ConfigParseError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ScenarioError) else 1

    scheme = scheme.upper()
    if scheme not in _SCHEMES:
        print(f"error: unknown scheme '{scheme}'", file=sys.stderr)
        return 1
    out = _out_dir(out_dir)
    if out is None:
        return 1

    try:
        plan, trace = _SCHEMES[scheme](cfg)
    except InfeasibleScenarioError as exc:
        print(f"error: infeasible scenario: {exc}", file=sys.stderr)
        return 2
    _write_plan_outputs(out, plan, trace, scheme)

    if mc_samples > 0:
        rep = validate_plan(plan, cfg, McSettings(num_samples=mc_samples, rng_seed=seed))
        _write_json(out / "validation.json", rep.to_dict())

    if plan.feasible and trace.stop_reason == "converged":
        return 0
    print(f"warning: plan not optimal-feasible (status: {trace.stop_reason})",
          file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_cell(payload):
    """One (value, scheme) cell; top-level so worker processes can import it."""
    cfg, field_name, value, scheme, seed, mc_samples, mc_workers = payload
    row = {
        "param": field_name,
        "value": value,
        "scheme": scheme,
        "actr_bps_hz": "",
        "iters": "",
        "feasible": "",
        "min_xi_margin": "",
        "max_outage_mc": "",
        "error": "",
    }
    try:
        cell_cfg = cfg.with_updates(**{field_name: value})
        plan, trace = _SCHEMES[scheme](cell_cfg)
        row["actr_bps_hz"] = f"{plan.actr:.12g}"
        row["iters"] = str(trace.subproblem_solves)
        row["feasible"] = str(bool(plan.feasible)).lower()
        row["min_xi_margin"] = f"{float(np.min(plan.covert_margin)):.12g}"
        if mc_samples > 0:
            rep = validate_plan(plan, cell_cfg, McSettings(
                num_samples=mc_samples, rng_seed=seed, workers=mc_workers))
            row["max_outage_mc"] = f"{float(np.max(rep.outage)):.12g}"
    except (ScenarioError, ValueError) as exc:
        row["error"] = str(exc)
        row["feasible"] = "false"
    return row


def cmd_sweep(config_path, sweep_path, out_dir, seed: int = 20240,
              mc_samples: int = 0, workers: int = 0) -> int:
    """Run every (value, scheme) cell of a sweep; write sweep.csv."""
    try:
        cfg = load_config(config_path)
        spec = load_sweep(sweep_path)
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    except (ConfigParseError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = _out_dir(out_dir)
    if out is None:
        return 1

    field_name, _, _ = CONFIG_KEYS[_SWEEPABLE[spec.param]]
    mc = mc_samples if mc_samples > 0 else (1_000_000 if spec.mc_validate else 0)
    pooled = bool(workers and workers > 1)
    # a k-process sweep audits on k threads in all, one per process
    mc_workers = 1 if pooled else 0
    cells = []
    for value in spec.values:
        for scheme in spec.schemes:
            cell_seed = seed + 1_000_003 * len(cells)  # one stream per cell
            cells.append((cfg, field_name, value, scheme, cell_seed, mc, mc_workers))

    if pooled:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(c) for c in cells]

    cols = ["param", "value", "scheme", "actr_bps_hz", "iters", "feasible",
            "min_xi_margin", "max_outage_mc", "error"]
    with (out / "sweep.csv").open("w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=cols)
        w.writeheader()
        for row in rows:
            row = dict(row)
            row["value"] = f"{row['value']:.12g}"
            w.writerow(row)

    failed = [r for r in rows if r["error"]]
    for r in failed:
        print(f"cell {r['param']}={r['value']} {r['scheme']} failed: {r['error']}",
              file=sys.stderr)
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(plan_path, config_path, out_dir, seed: int = 20240,
                 mc_samples: int = 1_000_000) -> int:
    """Monte Carlo audit of an existing plan.json against a scenario."""
    try:
        cfg = load_config(config_path)
        plan = Plan.from_dict(json.loads(Path(plan_path).read_text(encoding="utf-8")))
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    except (KeyError, json.JSONDecodeError) as exc:
        print(f"error: malformed plan file '{plan_path}': {exc}", file=sys.stderr)
        return 1
    except (ConfigParseError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = _out_dir(out_dir)
    if out is None:
        return 1

    try:
        rep = validate_plan(plan, cfg, McSettings(num_samples=mc_samples, rng_seed=seed))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_json(out / "validation.json", rep.to_dict())
    if rep.passed:
        return 0
    bad = []
    if not rep.outage_ok:
        bad.append("outage")
    if not rep.covert_ok:
        bad.append("covertness")
    if not rep.bound_ok:
        bad.append("bound")
    print(f"validation failed: {', '.join(bad)}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="covertuav",
        description="Covert UAV link planning: optimize, sweep, validate.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="Optimize one scenario.")
    r.add_argument("--config", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--scheme", default="JTP", help="JTP (joint) or STP (power only)")
    r.add_argument("--seed", type=int, default=20240)
    r.add_argument("--mc-samples", type=int, default=0,
                   help="also Monte Carlo validate with this many samples")

    s = sub.add_parser("sweep", help="Run a parameter sweep.")
    s.add_argument("--config", required=True, help="base scenario config")
    s.add_argument("--sweep", required=True, help="sweep spec file")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=20240)
    s.add_argument("--mc-samples", type=int, default=0)
    s.add_argument("--workers", type=int, default=0)

    v = sub.add_parser("validate", help="Monte Carlo audit of a plan.json.")
    v.add_argument("--plan", required=True)
    v.add_argument("--config", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--seed", type=int, default=20240)
    v.add_argument("--mc-samples", type=int, default=1_000_000)

    args = p.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args.config, args.out, scheme=args.scheme, seed=args.seed,
                       mc_samples=args.mc_samples)
    if args.cmd == "sweep":
        return cmd_sweep(args.config, args.sweep, args.out, seed=args.seed,
                         mc_samples=args.mc_samples, workers=args.workers)
    return cmd_validate(args.plan, args.config, args.out, seed=args.seed,
                        mc_samples=args.mc_samples)


if __name__ == "__main__":
    sys.exit(main())
