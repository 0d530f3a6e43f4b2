"""Minmax-regret combinatorial optimization under interval cost uncertainty.

The library computes exact minmax-regret solutions and a family of lower
bounds for problems whose deterministic version is solvable by a fast
oracle, with shortest paths in directed graphs as the built-in instance.
The strongest bound is the value of a zero-sum game between a solution
player and a scenario player, approximated from below by a double-oracle
loop that is usable anytime and embeds into branch and bound.
"""

from .bounds import BoundReport, GapMetrics, gap_metrics, lb_cg, lb_kz, lb_mgd
from .branch_bound import STRATEGIES, BBConfig, BBStats, bb_solve
from .core import (
    IntervalInstance,
    NoFeasibleSolution,
    Scenario,
    SolutionIndicator,
    favoring_scenario,
    midpoint_scenario,
    penalizing_scenario,
    val,
)
from .double_oracle import (
    DoubleOracleConfig,
    DoubleOracleResult,
    ScenarioDescriptor,
    ScenarioPool,
    br_c,
    max_regret,
    run_double_oracle,
)
from .game import Equilibrium, SolverFailure, solve_zero_sum
from .shortest_path import (
    IntervalDigraph,
    Path,
    PathConstraint,
    constrained_sp,
    dijkstra,
    sp_oracle,
    two_unit_min_flow,
)

__version__ = "0.1.0"

__all__ = [
    "IntervalInstance",
    "Scenario",
    "SolutionIndicator",
    "val",
    "penalizing_scenario",
    "favoring_scenario",
    "midpoint_scenario",
    "Equilibrium",
    "SolverFailure",
    "solve_zero_sum",
    "NoFeasibleSolution",
    "ScenarioDescriptor",
    "ScenarioPool",
    "DoubleOracleConfig",
    "DoubleOracleResult",
    "run_double_oracle",
    "max_regret",
    "br_c",
    "IntervalDigraph",
    "Path",
    "PathConstraint",
    "dijkstra",
    "constrained_sp",
    "two_unit_min_flow",
    "sp_oracle",
    "BoundReport",
    "GapMetrics",
    "gap_metrics",
    "lb_kz",
    "lb_cg",
    "lb_mgd",
    "BBConfig",
    "BBStats",
    "STRATEGIES",
    "bb_solve",
    "__version__",
]
