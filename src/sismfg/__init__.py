"""Strategic SIS mean-field game: stationary equilibria, turnpike
trajectories, and finite-N validation of the mean-field limit."""

__version__ = "0.1.0"

from .model import (
    MixedState,
    ModelParams,
    StationaryControl,
    ValueVector,
    best_response,
    consistency_residual,
)
from .stationary import (
    ConsistencyMargins,
    EnumerationResult,
    EquilibriumSolution,
    StabilityReport,
    consistency_mixed,
    consistency_single,
    enumerate_equilibria,
    fixed_point_mixed,
    fixed_point_single,
    hjb_mixed_exact,
    hjb_single_exact,
    stability_single,
)
from .dynamics import (
    TimeGrid,
    TrajectorySolution,
    TurnpikeHypothesisError,
    check_turnpike_hypotheses,
    default_grid,
    integrate_backward,
    integrate_forward,
    solve_turnpike,
)
from .nplayer import CountVector, CtmcPath, lln_error, simulate_ctmc
from .config import ConfigError, ScenarioConfig, parse_config
from .runs import run_scenario

__all__ = [
    "__version__",
    "ModelParams",
    "MixedState",
    "StationaryControl",
    "ValueVector",
    "best_response",
    "consistency_residual",
    "fixed_point_single",
    "fixed_point_mixed",
    "stability_single",
    "hjb_single_exact",
    "hjb_mixed_exact",
    "consistency_single",
    "consistency_mixed",
    "enumerate_equilibria",
    "EquilibriumSolution",
    "EnumerationResult",
    "StabilityReport",
    "ConsistencyMargins",
    "TimeGrid",
    "default_grid",
    "integrate_forward",
    "integrate_backward",
    "solve_turnpike",
    "check_turnpike_hypotheses",
    "TrajectorySolution",
    "TurnpikeHypothesisError",
    "CountVector",
    "CtmcPath",
    "simulate_ctmc",
    "lln_error",
    "ScenarioConfig",
    "ConfigError",
    "parse_config",
    "run_scenario",
]
