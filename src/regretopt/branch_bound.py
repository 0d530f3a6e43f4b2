"""Exact minmax regret paths by best-first branch and bound.

A node fixes a path prefix out of the source and a set of forbidden arcs.
Branching picks the arc with which the node's current best response leaves
the prefix's end node, and splits on using it or banning it.  Nodes are
bounded by one of the fast bounds or by the game bound; with the game
bound, the scenarios generated anywhere in the tree are shared globally and
each child inherits the parent's solutions that remain feasible for it.
Nodes and the incumbent carry solutions as member sets only; the optimal
path is put in traversal order once, when the search ends.

Before branching, the root forbids every arc that no path with regret
below the midpoint incumbent's can use (see fixed_arcs), so every node of
every strategy inherits those arcs.  The bounds read forbidden arcs as
"paths avoiding these arcs", and only such paths can beat the incumbent,
so each bound stays valid: mgd and cg price the fixed arcs at lo, the
game's solution player skips them, and scenario optima still search the
whole graph.

No node work is repeated that cannot change the answer: with the mgd bound
the child that takes the branch arc inherits its parent's bound and
response, and the solutions of a node bounded at or above the incumbent's
regret are never priced.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .bounds import lb_cg, lb_mgd
from .core import NoFeasibleSolution, SolutionIndicator, favoring_scenario, midpoint_scenario, val
from .double_oracle import DoubleOracleConfig, ScenarioPool, max_regret, run_double_oracle
from .game import SolverFailure
from .shortest_path import IntervalDigraph, Path, PathConstraint, order_path_edges, sp_oracle, through_arc_costs

STRATEGIES = ("mgd", "cg", "do")

# A node is pruned once its bound comes this close to the incumbent's regret.
_PRUNE_TOL = 1e-9

# Root fixing searches walks up to this factor past its limit (see fixed_arcs).
_CUTOFF_FACTOR = 1.0 + 1e-12


@dataclass(frozen=True)
class BBConfig:
    max_support_x: int = 50
    node_limit: int | None = None
    time_limit_ms: float | None = None
    warm_start: bool = True


@dataclass(frozen=True)
class BBStats:
    """Search outcome; opt is only proven optimal when complete is true.

    fixed_arcs counts the arcs the root forbade before any branching.
    """

    opt: float
    optimal_path: Path
    nodes_expanded: int
    fixed_arcs: int
    elapsed_ms: float
    complete: bool
    strategy: str


@dataclass(frozen=True)
class NodeBound:
    """A node's bound and the response to branch along.

    With the game bound, generated holds the solutions the node's game
    added to those it started from, and solutions holds all of the game's
    solutions, for the children to inherit.
    """

    value: float
    response: SolutionIndicator
    generated: tuple[SolutionIndicator, ...] = ()
    solutions: tuple[SolutionIndicator, ...] = ()


def branch(graph: IntervalDigraph, constraint: PathConstraint, k: int) -> tuple[PathConstraint, PathConstraint]:
    """Split a node on arc k: force it into the prefix, or forbid it.

    k must extend the current prefix, i.e. leave the prefix's end node,
    and must not already be forced or forbidden.
    """
    if not 0 <= k < graph.m:
        raise ValueError("branch arc id out of range")
    take, skip = constraint.split(k)
    if int(graph.tails[k]) != constraint.chain_end(graph):
        raise ValueError("branch arc does not extend the forced prefix")
    take.validate(graph)
    return take, skip


def select_branch_edge(graph: IntervalDigraph, constraint: PathConstraint, response: SolutionIndicator) -> int | None:
    """The response's arc out of the forced prefix's end node; None at a leaf.

    The response is a simple path, so it leaves that node at most once.
    """
    if not response.members.issuperset(constraint.in_chain):
        raise ValueError("response does not contain the forced prefix")
    end = constraint.chain_end(graph)
    for e in response.members:
        if graph.tails.item(e) == end:
            return e
    return None


def fixed_arcs(graph: IntervalDigraph, reference: SolutionIndicator, regret: float) -> frozenset[int]:
    """The arcs on no s-t path whose maximum regret is below the given regret.

    For any s-t paths P and Q, regret(P) >= c(P) - lo(Q), where c is Q's
    favoring scenario (lo on Q, hi elsewhere): this is P's penalizing
    scenario evaluated at Q.  An arc is fixed when the cheapest walk
    through it under c, less lo(Q), reaches regret + 1e-9 * max(1, regret).
    The margin keeps the reference's own arcs, which score zero up to
    rounding, free.

    The walks are searched only up to (lo(Q) + that limit) * (1 + 1e-12):
    an arc past that cutoff, or within rounding of it, reads inf, and every
    other arc reads the sum full searches give.  The factor lies far above
    the rounding of the sums, so every arc that reads inf reaches the limit
    under full searches too, and the fixed set is the same.
    """
    scenario = favoring_scenario(graph.instance, reference)
    lo_q = val(reference, scenario)
    limit = regret + 1e-9 * max(1.0, regret)
    through = through_arc_costs(graph, scenario.costs, (lo_q + limit) * _CUTOFF_FACTOR)
    return frozenset(np.flatnonzero(through - lo_q >= limit).tolist())


def _split_inherited(solutions, k: int) -> tuple[tuple[SolutionIndicator, ...], tuple[SolutionIndicator, ...]]:
    take = tuple(x for x in solutions if k in x.members)
    skip = tuple(x for x in solutions if k not in x.members)
    return take, skip


def node_lower_bound(
    graph: IntervalDigraph,
    constraint: PathConstraint,
    lb_strategy: str,
    oracle=None,
    pool: ScenarioPool | None = None,
    inherited=(),
    max_support_x: int = 50,
    stop_value: float | None = None,
) -> NodeBound:
    """Bound one node and report the response to branch along.

    Raises NoFeasibleSolution when the constraint admits no path.  With the
    game bound, the game starts from the distinct inherited solutions, or
    else the node's midpoint-optimal path, and from the pool's scenarios,
    or else the first solution's penalizing one (see run_double_oracle).
    The solutions it adds are returned to refresh the caller's incumbent.
    """
    if lb_strategy not in STRATEGIES:
        raise ValueError("unknown bounding strategy %r" % (lb_strategy,))
    if lb_strategy != "do":
        report = lb_mgd(graph, constraint) if lb_strategy == "mgd" else lb_cg(graph, constraint)
        return NodeBound(report.value, report.artifacts["path"].indicator())

    oracle = oracle or sp_oracle(graph)
    instance = graph.instance
    restriction = constraint if (constraint.in_chain or constraint.out_set) else None
    init_x = list(inherited)
    if not init_x:
        seed, _ = oracle.solve(midpoint_scenario(instance).costs, restriction)
        init_x = [seed]
    config = DoubleOracleConfig(max_support_x=max_support_x, stop_value=stop_value)
    result = run_double_oracle(instance, oracle, init_x, config=config, restriction=restriction, pool=pool)
    # The starting solutions are distinct and enter the game first.
    generated = result.solutions[len(init_x):]
    return NodeBound(result.lower_bound, result.best_response, generated, result.solutions)


def bb_solve(graph: IntervalDigraph, lb_strategy: str = "do", config: BBConfig | None = None) -> BBStats:
    """Minimize maximum regret over the graph's s-t paths, exactly.

    Best-first on the node bounds, ties preferring deeper nodes and then
    insertion order.  The incumbent starts at the midpoint-optimal path and
    absorbs every solution generated by a node bounded below it.  The root
    forbids the arcs fixed_arcs finds against that first incumbent, once;
    the midpoint path's own arcs stay free, so the root is feasible.  A
    node whose game LP fails is bounded by the pair bound instead.  Node or
    time limits leave complete=False and the incumbent as the best known
    value.
    """
    if lb_strategy not in STRATEGIES:
        raise ValueError("unknown bounding strategy %r" % (lb_strategy,))
    config = config or BBConfig()
    start = time.perf_counter()
    oracle = sp_oracle(graph)
    instance = graph.instance

    regret_cache: dict[frozenset, float] = {}

    def regret_of(x: SolutionIndicator) -> float:
        cached = regret_cache.get(x.members)
        if cached is None:
            cached = max_regret(instance, oracle, x)
            regret_cache[x.members] = cached
        return cached

    mid_path, _ = oracle.solve_path(midpoint_scenario(instance).costs)
    best = mid_path.indicator()
    best_regret = regret_of(best)
    # Paths through these arcs cannot beat the incumbent: the root forbids
    # them, so every node inherits them.
    fixed = fixed_arcs(graph, best, best_regret)

    def absorb(x: SolutionIndicator) -> None:
        nonlocal best, best_regret
        regret = regret_of(x)
        if regret < best_regret:
            best, best_regret = x, regret

    shared_pool = ScenarioPool(instance, oracle) if config.warm_start else None

    def bound_node(constraint: PathConstraint, inherited) -> NodeBound:
        try:
            found = node_lower_bound(
                graph,
                constraint,
                lb_strategy,
                oracle=oracle,
                pool=shared_pool,
                inherited=inherited,
                max_support_x=config.max_support_x,
                stop_value=best_regret - _PRUNE_TOL,
            )
        except SolverFailure:
            # The node's game LP failed: bound it with the pair bound instead,
            # and leave its children no solutions to inherit.
            found = node_lower_bound(graph, constraint, "cg")
        # Every solution a node returns lies in its subtree, so its regret is
        # at least the node's bound: a bound at the incumbent prices nothing.
        if found.value >= best_regret:
            return found
        for x in found.generated:
            absorb(x)
        absorb(found.response)
        return found

    counter = itertools.count()
    root_constraint = PathConstraint(out_set=fixed)
    # The midpoint path seeds the root's game, solved once for the incumbent.
    root = bound_node(root_constraint, (best,))
    heap: list = [(root.value, 0, next(counter), root_constraint, root)]

    expanded = 0
    complete = True

    def out_of_budget() -> bool:
        if config.node_limit is not None and expanded >= config.node_limit:
            return True
        if config.time_limit_ms is not None:
            return (time.perf_counter() - start) * 1000.0 > config.time_limit_ms
        return False

    while heap:
        if out_of_budget():
            complete = False
            break
        lb, neg_depth, _, constraint, node = heapq.heappop(heap)
        expanded += 1
        if lb >= best_regret - _PRUNE_TOL:
            break  # best-first: every remaining node is bounded at least as high
        k = select_branch_edge(graph, constraint, node.response)
        if k is None:
            absorb(node.response)
            continue
        take, skip = branch(graph, constraint, k)
        take_inherit, skip_inherit = _split_inherited(node.solutions if config.warm_start else (), k)
        for child_constraint, child_inherit in ((take, take_inherit), (skip, skip_inherit)):
            if child_constraint.chain_end(graph) == graph.target:
                absorb(Path(child_constraint.in_chain).indicator())
                continue
            if lb_strategy == "mgd" and child_constraint is take:
                # k is the response's own next arc, so the response stays the
                # take child's constrained hi-cost path and the relaxed search
                # sees the same forbidden arcs: the bound carries over.
                child = node
            else:
                try:
                    child = bound_node(child_constraint, child_inherit)
                except NoFeasibleSolution:
                    continue
            if child.value >= best_regret - _PRUNE_TOL:
                continue
            heapq.heappush(heap, (child.value, neg_depth - 1, next(counter), child_constraint, child))

    optimal_path = order_path_edges(graph, best.members)
    elapsed = (time.perf_counter() - start) * 1000.0
    return BBStats(
        opt=best_regret,
        optimal_path=optimal_path,
        nodes_expanded=expanded,
        fixed_arcs=len(fixed),
        elapsed_ms=elapsed,
        complete=complete,
        strategy=lb_strategy,
    )
