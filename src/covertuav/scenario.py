"""Scenario data model: geometry, slotting, channel gains and uncertainty.

Everything is stored in linear SI units (meters, seconds, Watts). dB and dBm
values appear only at the configuration-file boundary and in reports; they are
converted exactly once, on load.

All types here are immutable after construction and safe to share between
threads; the operations are pure functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# Relative feasibility tolerance used by every margin check. Interior-point
# solutions are epsilon-feasible, never exact.
FEAS_RTOL = 1e-6

# Lower bound on per-slot rates, bits/s/Hz. Keeps 2**R - 1 away from zero in
# the rate/power coupling term.
RATE_FLOOR = 1e-6


class ScenarioError(ValueError):
    """A scenario is internally inconsistent or has no feasible flight."""


class ConfigParseError(ValueError):
    """A config file entry is missing, malformed, or in the wrong unit."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


# ---------------------------------------------------------------------------
# unit conversions
# ---------------------------------------------------------------------------

def db_to_linear(x_db: float) -> float:
    """10**(x/10)."""
    return 10.0 ** (float(x_db) / 10.0)


def dbm_to_watts(x_dbm: float) -> float:
    """dBm uses the 1 mW reference: 20 dBm -> 0.1 W."""
    return 1e-3 * db_to_linear(x_dbm)


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

def _as_point(value, name: str) -> np.ndarray:
    q = np.asarray(value, dtype=float).reshape(-1)
    if q.shape != (2,):
        raise ScenarioError(f"{name} must be a 2-vector, got shape {np.shape(value)}")
    q = q.copy()
    q.flags.writeable = False
    return q


@dataclass(frozen=True)
class ScenarioConfig:
    """Canonical problem data in linear SI units."""

    flight_period_T: float        # s
    slot_duration: float          # s
    altitude_H: float             # m
    v_max: float                  # m/s
    q_init: np.ndarray            # (2,) m, takeoff point
    q_final: np.ndarray           # (2,) m, landing point
    bob_est: np.ndarray           # (2,) m, receiver location estimate
    willie_est: np.ndarray        # (2,) m, warden location estimate
    var_bob: float                # m^2, per-axis variance of receiver location error
    var_willie: float             # m^2, per-axis variance of warden location error
    beta0: float                  # linear channel power gain at 1 m
    gamma0: float                 # linear SNR gain at 1 m (beta0 over receiver noise)
    p_avg_max: float              # W, average transmit power cap
    p_peak_max: float             # W, per-slot transmit power cap
    noise_nominal: float          # W, warden nominal noise power
    noise_uncertainty_rho: float  # linear spread of warden noise, > 1
    rho_b: float                  # allowed transmission outage probability
    rho_w: float                  # allowed covertness slack (error rate >= 1 - rho_w)
    sca_tolerance: float = 1e-4   # outer-loop objective convergence tolerance
    num_slots_N: int = field(init=False)
    max_step_L: float = field(init=False)

    def __post_init__(self):
        for name in ("q_init", "q_final", "bob_est", "willie_est"):
            object.__setattr__(self, name, _as_point(getattr(self, name), name))

        if self.slot_duration <= 0:
            raise ScenarioError("slot_duration must be positive")
        n_float = self.flight_period_T / self.slot_duration
        n = int(round(n_float))
        if n < 1 or abs(n_float - n) > 1e-9 * max(1.0, n_float):
            raise ScenarioError(
                f"flight_period_T / slot_duration = {n_float} is not a positive integer"
            )
        object.__setattr__(self, "num_slots_N", n)
        object.__setattr__(self, "max_step_L", self.v_max * self.slot_duration)

        if self.altitude_H <= 0:
            raise ScenarioError("altitude_H must be positive")
        if self.v_max <= 0:
            raise ScenarioError("v_max must be positive")
        if not self.noise_uncertainty_rho > 1.0:
            raise ScenarioError(
                f"noise_uncertainty_rho must exceed 1 (0 dB), got "
                f"{self.noise_uncertainty_rho}: a warden without noise uncertainty "
                "detects any positive transmit power, so no covert plan exists")
        for name in ("rho_b", "rho_w"):
            p = getattr(self, name)
            if not 0.0 < p < 1.0:
                raise ScenarioError(f"{name} must lie in (0, 1), got {p}")
        for name in ("var_bob", "var_willie", "noise_nominal"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"{name} must be positive")
        for name in ("beta0", "gamma0"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"{name} must be positive (linear)")
        for name in ("p_avg_max", "p_peak_max"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"{name} must be nonnegative")
        if self.sca_tolerance <= 0:
            raise ScenarioError("sca_tolerance must be positive")

        # Reject unreachable endpoints outright instead of clamping; every
        # consumer downstream assumes a feasible flight exists.
        reach = float(np.linalg.norm(self.q_init - self.q_final))
        budget = self.num_slots_N * self.max_step_L
        if reach > budget * (1.0 + FEAS_RTOL):
            raise ScenarioError(
                f"endpoints are {reach:.3f} m apart but the flight can cover at "
                f"most N*L = {budget:.3f} m"
            )

    def with_updates(self, **changes) -> "ScenarioConfig":
        """Rebuild the config with some fields replaced (derived fields recomputed)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class Trajectory:
    """Per-slot horizontal waypoints q[n], meters, shape (N, 2)."""

    waypoints: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.waypoints, dtype=float)
        if w.ndim != 2 or w.shape[1] != 2 or w.shape[0] < 1:
            raise ScenarioError(f"waypoints must have shape (N, 2), got {w.shape}")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "waypoints", w)

    def __len__(self) -> int:
        return self.waypoints.shape[0]

    def step_lengths(self, q_init: np.ndarray) -> np.ndarray:
        """Lengths of all N steps, including the first step out of q_init."""
        pts = np.vstack([np.asarray(q_init, dtype=float), self.waypoints])
        return np.linalg.norm(np.diff(pts, axis=0), axis=1)


@dataclass(frozen=True)
class PowerSchedule:
    """Per-slot transmit powers, Watts, shape (N,)."""

    powers: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=float).reshape(-1).copy()
        if p.size < 1:
            raise ScenarioError("power schedule is empty")
        if np.any(p < 0):
            raise ScenarioError("powers must be nonnegative")
        p.flags.writeable = False
        object.__setattr__(self, "powers", p)

    def __len__(self) -> int:
        return self.powers.size


@dataclass(frozen=True)
class RateSchedule:
    """Per-slot transmission rates, bits/s/Hz, shape (N,), each >= RATE_FLOOR."""

    rates: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float).reshape(-1).copy()
        if r.size < 1:
            raise ScenarioError("rate schedule is empty")
        if np.any(r < RATE_FLOOR * (1.0 - 1e-12)):
            raise ScenarioError(f"rates must be >= {RATE_FLOOR} bits/s/Hz")
        r.flags.writeable = False
        object.__setattr__(self, "rates", r)

    def __len__(self) -> int:
        return self.rates.size

    @property
    def mean(self) -> float:
        return float(np.mean(self.rates))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def check_mobility(traj: Trajectory, cfg: ScenarioConfig) -> np.ndarray:
    """Feasibility margins for the flight: array of length N + 1.

    Entry 0 is L minus the first step out of q_init, entries 1..N-1 are L minus
    the in-flight step lengths, and the last entry is minus the distance between
    the final waypoint and q_final (an equality written as a margin). The
    trajectory is feasible iff every entry is >= -FEAS_RTOL * L.
    """
    if len(traj) != cfg.num_slots_N:
        raise ScenarioError(
            f"trajectory has {len(traj)} waypoints, scenario expects {cfg.num_slots_N}"
        )
    steps = traj.step_lengths(cfg.q_init)
    step_margins = cfg.max_step_L - steps
    terminal = -float(np.linalg.norm(traj.waypoints[-1] - cfg.q_final))
    return np.concatenate([step_margins, [terminal]])


@dataclass(frozen=True)
class PowerMargins:
    avg_margin: float            # p_avg_max - mean power
    peak_margins: np.ndarray     # p_peak_max - power, per slot


def check_power(p: PowerSchedule, cfg: ScenarioConfig) -> PowerMargins:
    """Margins for the average and per-slot power caps."""
    if len(p) != cfg.num_slots_N:
        raise ScenarioError(
            f"power schedule has {len(p)} slots, scenario expects {cfg.num_slots_N}"
        )
    return PowerMargins(
        avg_margin=cfg.p_avg_max - float(np.mean(p.powers)),
        peak_margins=cfg.p_peak_max - p.powers,
    )


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

# kind -> (accepted units and their conversion to linear SI, human hint)
_UNIT_TABLE = {
    "time": ({"s": 1.0}, "seconds, e.g. '300 s'"),
    "length": ({"m": 1.0}, "meters, e.g. '100 m'"),
    "speed": ({"m/s": 1.0}, "meters/second, e.g. '5 m/s'"),
    "area": ({"m^2": 1.0, "m2": 1.0}, "square meters, e.g. '25 m^2'"),
    "scalar": ({"": 1.0}, "a plain number, e.g. '0.05'"),
}


def _parse_number(tok: str, key: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ConfigParseError(key, f"'{tok}' is not a number") from None


def parse_quantity(raw: str, kind: str, key: str) -> float:
    """Parse '20 dBm', '100 m', '5 m/s', '-60 dB' or a bare number into SI."""
    s = raw.strip()
    m = re.fullmatch(r"([-+0-9.eE]+)\s*([a-zA-Z/^0-9]*)", s)
    if not m:
        raise ConfigParseError(key, f"cannot parse value '{raw}'")
    value, unit = _parse_number(m.group(1), key), m.group(2)

    if kind == "power":
        if unit == "W":
            return value
        if unit == "mW":
            return value * 1e-3
        if unit == "dBm":
            return dbm_to_watts(value)
        raise ConfigParseError(key, f"expected W, mW or dBm, got '{raw}'")
    if kind == "gain":
        # channel gains and noise-uncertainty spreads: dB or bare linear
        if unit == "dB":
            return db_to_linear(value)
        if unit == "":
            return value
        raise ConfigParseError(key, f"expected dB or a linear value, got '{raw}'")

    units, hint = _UNIT_TABLE[kind]
    if unit in units:
        return value * units[unit]
    if unit == "" and kind != "scalar":
        # bare numbers are accepted as already-SI
        return value
    raise ConfigParseError(key, f"expected {hint}, got '{raw}'")


def parse_point(raw: str, key: str) -> np.ndarray:
    """Parse '-500, 100 m' or '[-500, 100] m' into a 2-vector in meters."""
    s = raw.strip().rstrip("m").strip()
    s = s.strip("[]() ")
    parts = [p for p in re.split(r"[,;\s]+", s) if p]
    if len(parts) != 2:
        raise ConfigParseError(key, f"expected two coordinates in meters, got '{raw}'")
    return np.array([_parse_number(parts[0], key), _parse_number(parts[1], key)])


# key -> (kind, required)
_CONFIG_KEYS = {
    "flight_period": ("time", True),
    "slot_duration": ("time", True),
    "altitude": ("length", True),
    "v_max": ("speed", True),
    "q_init": ("point", True),
    "q_final": ("point", True),
    "bob_est": ("point", True),
    "willie_est": ("point", True),
    "var_bob": ("area", True),
    "var_willie": ("area", True),
    "beta0": ("gain", True),
    "gamma0": ("gain", True),
    "p_avg_max": ("power", True),
    "p_peak_max": ("power", True),
    "noise_nominal": ("power", True),
    "noise_uncertainty": ("gain", True),
    "rho_b": ("scalar", True),
    "rho_w": ("scalar", True),
    "sca_tolerance": ("scalar", False),
}


def parse_key_values(text: str, known) -> dict[str, str]:
    """Raw values of the `key = value` lines of a config or sweep file ('#'
    starts a comment); a line without '=', a key not in `known` and a key
    given twice each raise ConfigParseError."""
    entries: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigParseError(f"line {lineno}", f"expected 'key = value', got '{line.strip()}'")
        key, _, value = body.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigParseError(key, "unknown key")
        if key in first_line:
            raise ConfigParseError(key, f"given twice, on lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        entries[key] = value.strip()
    return entries


def parse_config_text(text: str) -> ScenarioConfig:
    entries = parse_key_values(text, _CONFIG_KEYS)

    parsed: dict[str, object] = {}
    for key, raw in entries.items():
        kind, _ = _CONFIG_KEYS[key]
        parsed[key] = parse_point(raw, key) if kind == "point" else parse_quantity(raw, kind, key)

    missing = [k for k, (_, req) in _CONFIG_KEYS.items() if req and k not in entries]
    if missing:
        raise ConfigParseError(missing[0], "required key is missing")

    return ScenarioConfig(
        flight_period_T=parsed["flight_period"],
        slot_duration=parsed["slot_duration"],
        altitude_H=parsed["altitude"],
        v_max=parsed["v_max"],
        q_init=parsed["q_init"],
        q_final=parsed["q_final"],
        bob_est=parsed["bob_est"],
        willie_est=parsed["willie_est"],
        var_bob=parsed["var_bob"],
        var_willie=parsed["var_willie"],
        beta0=parsed["beta0"],
        gamma0=parsed["gamma0"],
        p_avg_max=parsed["p_avg_max"],
        p_peak_max=parsed["p_peak_max"],
        noise_nominal=parsed["noise_nominal"],
        noise_uncertainty_rho=parsed["noise_uncertainty"],
        rho_b=parsed["rho_b"],
        rho_w=parsed["rho_w"],
        sca_tolerance=parsed.get("sca_tolerance", 1e-4),
    )


def load_config(path) -> ScenarioConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def baseline_config(**overrides) -> ScenarioConfig:
    """The default study scenario (all fields overridable)."""
    base = dict(
        flight_period_T=300.0,
        slot_duration=1.0,
        altitude_H=100.0,
        v_max=5.0,
        q_init=(-500.0, 100.0),
        q_final=(500.0, 100.0),
        bob_est=(-100.0, 300.0),
        willie_est=(100.0, 300.0),
        var_bob=25.0,
        var_willie=25.0,
        beta0=db_to_linear(-60.0),
        gamma0=db_to_linear(80.0),
        p_avg_max=dbm_to_watts(20.0),
        p_peak_max=4.0 * dbm_to_watts(20.0),
        noise_nominal=dbm_to_watts(-120.0),
        noise_uncertainty_rho=db_to_linear(3.0),
        rho_b=0.05,
        rho_w=0.05,
        sca_tolerance=1e-4,
    )
    base.update(overrides)
    return ScenarioConfig(**base)
