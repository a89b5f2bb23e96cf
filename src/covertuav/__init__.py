"""Joint UAV trajectory and transmit-power planning for covert links.

A UAV flies from a start to a landing point over a fixed number of time
slots, transmitting to a ground receiver whose position is known only
approximately, while a warden at an uncertain position runs a radiometer to
detect the transmission. The planner maximizes the mean transmission rate
subject to a chance constraint on the receiver's outage and a floor on the
warden's average detection error rate, by successively solving convex
restrictions with a built-in interior-point method. A Monte Carlo layer
independently validates every closed form the optimizer relies on.
"""

from .scenario import (
    ScenarioConfig,
    Trajectory,
    PowerSchedule,
    RateSchedule,
    ScenarioError,
    ConfigParseError,
    baseline_config,
    load_config,
)
from .detection import DetectionModel, xi_lower_bound
from .convexify import ExpansionPoint, ConvexSubproblem, assemble_subproblem
from .cvxsolver import SolverResult, solve, check_kkt
from .sca import (
    Plan,
    ScaTrace,
    SolveRecord,
    InfeasibleScenarioError,
    initial_point,
    line_segment_trajectory,
    run_jtp,
    run_stp,
)
from .validate import McSettings, ValidationReport, validate_plan

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig", "Trajectory", "PowerSchedule", "RateSchedule",
    "ScenarioError", "ConfigParseError", "baseline_config", "load_config",
    "DetectionModel", "xi_lower_bound",
    "ExpansionPoint", "ConvexSubproblem", "assemble_subproblem",
    "SolverResult", "solve", "check_kkt",
    "Plan", "ScaTrace", "SolveRecord", "InfeasibleScenarioError",
    "initial_point", "line_segment_trajectory", "run_jtp", "run_stp",
    "McSettings", "ValidationReport", "validate_plan",
]
