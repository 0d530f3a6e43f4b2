"""Fast lower bounds on the optimal maximum regret of a path instance.

Three bounds with very different price tags: half the midpoint solution's
regret (one scenario evaluation), a two-scenario mixture bound solved with
a two-unit flow, and a forbidden-arc detour bound that is only informative
once branching has fixed some arcs.  All are parameterized by a branch
constraint so the search can call them at any node; at the root the
constraint is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NoFeasibleSolution
from .double_oracle import max_regret
from .shortest_path import IntervalDigraph, PathConstraint, constrained_sp, dijkstra, sp_oracle, two_unit_min_flow


@dataclass(frozen=True)
class BoundReport:
    """A bound value and its artifacts: the path it found, and for kz the midpoint regret."""

    value: float
    artifacts: dict


def lb_kz(graph: IntervalDigraph, oracle=None) -> BoundReport:
    """Half the maximum regret of the midpoint-optimal path.

    The midpoint path's regret is at most twice the optimum, which makes
    half of it a valid lower bound and the path itself a 2-approximation.
    """
    oracle = oracle or sp_oracle(graph)
    path, _ = oracle.solve_path(graph.instance.mid)
    regret = max_regret(graph.instance, oracle, path.indicator())
    return BoundReport(max(regret / 2.0, 0.0), {"path": path, "midpoint_regret": regret})


def lb_cg(graph: IntervalDigraph, constraint: PathConstraint | None = None) -> BoundReport:
    """Best two-scenario mixture bound over centered extreme scenario pairs.

    The mixture fixes forced arcs at hi and forbidden arcs at lo in both
    scenarios and splits every other interval across the pair.  Its value
    is the forced arcs' hi-midpoint gap, plus the constrained midpoint
    shortest path, minus half the cheapest two-unit routing in which a
    second use of an arc costs its remaining interval endpoint.
    """
    constraint = constraint or PathConstraint(graph)
    mid = graph.instance.mid
    found = constrained_sp(graph, mid, constraint)
    if found is None:
        raise NoFeasibleSolution("constraint admits no path")
    path, mid_value = found
    pinned = float(sum(graph.hi[e] - mid[e] for e in constraint.in_chain))
    pair_value = two_unit_min_flow(graph, constraint)
    if pair_value is None:
        raise NoFeasibleSolution("constraint admits no path")
    return BoundReport(max(pinned + mid_value - pair_value / 2.0, 0.0), {"path": path})


def lb_mgd(graph: IntervalDigraph, constraint: PathConstraint | None = None) -> BoundReport:
    """Detour cost the constraint forces under the all-hi scenario.

    Compares the constrained shortest path against the shortest path that
    may still use forbidden arcs, pricing forbidden arcs at lo.  Zero
    under an empty constraint by construction.  The constrained path uses
    no forbidden arc, so its value bounds the relaxed search.
    """
    constraint = constraint or PathConstraint(graph)
    found = constrained_sp(graph, graph.hi, constraint)
    if found is None:
        raise NoFeasibleSolution("constraint admits no path")
    path, constrained_value = found
    relaxed = np.array(graph.hi)
    forbidden = constraint.out_index
    relaxed[forbidden] = graph.lo[forbidden]
    unrestricted = dijkstra(graph, relaxed, constrained_value)
    return BoundReport(max(constrained_value - unrestricted[1], 0.0), {"path": path})


@dataclass(frozen=True)
class GapMetrics:
    gap_medsol: float
    gap_minsol: float
    gap_opt: float | None


def _gap(numerator: float, lb: float) -> float:
    # Everything below 1e-9 relative to the inputs is cancellation dust at
    # realistic cost scales, so both sides snap to zero under the same rule
    # before the degenerate conventions (0/0 -> 1, positive/0 -> inf) apply.
    scale = max(1.0, numerator, lb)
    if numerator < -1e-9 * scale:
        raise ValueError("gap numerators must be nonnegative")
    numerator = max(numerator, 0.0)
    if lb <= 1e-9 * scale:
        return 1.0 if numerator <= 1e-9 * scale else math.inf
    return numerator / lb


def gap_metrics(lb: float, midpoint_regret: float, minsol_regret: float, opt: float | None = None) -> GapMetrics:
    """Quality ratios of a lower bound against reference regrets.

    A zero bound against a zero regret counts as a perfect gap of one; a
    zero bound against a positive regret is reported as infinite.
    """
    if lb < -1e-9 * max(1.0, abs(midpoint_regret)):
        raise ValueError("lower bounds must be nonnegative")
    lb = max(lb, 0.0)
    return GapMetrics(
        gap_medsol=_gap(midpoint_regret, lb),
        gap_minsol=_gap(minsol_regret, lb),
        gap_opt=None if opt is None else _gap(opt, lb),
    )
