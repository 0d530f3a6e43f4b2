"""Exact minmax regret paths by best-first branch and bound.

A node fixes a path prefix out of the source and a set of forbidden arcs.
Branching picks the arc with which the node's current best response would
extend the prefix, and splits on using it or banning it.  Nodes are bounded
by one of the fast bounds or by the game bound; with the game bound, the
scenarios generated anywhere in the tree are shared globally and each
child inherits the parent's solutions that remain feasible for it.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

from .bounds import lb_cg, lb_mgd
from .core import SolutionIndicator, midpoint_scenario
from .double_oracle import (
    DoubleOracleConfig,
    NoFeasibleSolution,
    PENALIZING,
    ScenarioDescriptor,
    ScenarioPool,
    max_regret,
    run_double_oracle,
)
from .shortest_path import IntervalDigraph, Path, PathConstraint, order_path_edges, sp_oracle

STRATEGIES = ("mgd", "cg", "do")


@dataclass(frozen=True)
class BBConfig:
    max_support_x: int = 50
    node_limit: int | None = None
    time_limit_ms: float | None = None
    warm_start: bool = True
    tolerance: float = 1e-9


@dataclass(frozen=True)
class Incumbent:
    solution: SolutionIndicator
    path: Path
    regret: float


@dataclass(frozen=True)
class BBStats:
    """Search outcome; opt is only proven optimal when complete is true."""

    opt: float
    optimal_path: Path
    nodes_expanded: int
    elapsed_ms: float
    complete: bool
    strategy: str


@dataclass(frozen=True)
class BBNode:
    constraint: PathConstraint
    lb: float
    depth: int
    inherited: tuple[SolutionIndicator, ...] = ()
    branch_path: Path | None = None


@dataclass(frozen=True)
class NodeBound:
    value: float
    branch_path: Path
    generated: tuple[SolutionIndicator, ...]
    solutions: tuple[SolutionIndicator, ...] = ()


def branch(graph: IntervalDigraph, constraint: PathConstraint, k: int) -> tuple[PathConstraint, PathConstraint]:
    """Split a node on arc k: force it into the prefix, or forbid it.

    k must extend the current prefix, i.e. leave the prefix's end node,
    and must not already be forced or forbidden.
    """
    if not 0 <= k < graph.m:
        raise ValueError("branch arc id out of range")
    if k in constraint.in_chain or k in constraint.out_set:
        raise ValueError("branch arc already constrained")
    if int(graph.tails[k]) != constraint.chain_end(graph):
        raise ValueError("branch arc does not extend the forced prefix")
    take = PathConstraint(constraint.in_chain + (k,), constraint.out_set)
    skip = PathConstraint(constraint.in_chain, constraint.out_set | {k})
    take.validate(graph)
    return take, skip


def select_branch_edge(graph: IntervalDigraph, constraint: PathConstraint, response: Path) -> int | None:
    """First arc with which the response leaves the forced prefix; None at a leaf."""
    chain = constraint.in_chain
    if response.edges[: len(chain)] != chain:
        raise ValueError("response does not start with the forced prefix")
    if len(response.edges) == len(chain):
        return None
    return int(response.edges[len(chain)])


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
    """Bound one node and report the response path to branch along.

    Raises NoFeasibleSolution when the constraint admits no path.  With the
    game bound, inherited solutions warm-start the node's game, the pool
    contributes every known scenario, and newly generated strategies are
    returned so the caller can refresh its incumbent.
    """
    if lb_strategy not in STRATEGIES:
        raise ValueError("unknown bounding strategy %r" % (lb_strategy,))
    if lb_strategy == "mgd":
        report = lb_mgd(graph, constraint)
        path = report.artifacts["path"]
        return NodeBound(report.value, path, (path.indicator(),))
    if lb_strategy == "cg":
        report = lb_cg(graph, constraint)
        path = report.artifacts["path"]
        return NodeBound(report.value, path, (path.indicator(),))

    oracle = oracle or sp_oracle(graph)
    instance = graph.instance
    restriction = constraint if (constraint.in_chain or constraint.out_set) else None
    init_x = list(inherited)
    init_c = []
    if not init_x:
        seed, _ = oracle.solve(midpoint_scenario(instance).costs, restriction)
        init_x = [seed]
    if pool is None or len(pool) == 0:
        init_c = [ScenarioDescriptor(init_x[0], PENALIZING)]
    known = {x.members for x in init_x}
    config = DoubleOracleConfig(max_support_x=max_support_x, stop_value=stop_value)
    result = run_double_oracle(instance, oracle, init_x, init_c, config, restriction, pool)
    generated = tuple(x for x in result.solutions if x.members not in known)
    branch_path = order_path_edges(graph, result.best_response.members)
    return NodeBound(result.lower_bound, branch_path, generated, result.solutions)


def bb_solve(graph: IntervalDigraph, lb_strategy: str = "do", config: BBConfig | None = None) -> BBStats:
    """Minimize maximum regret over the graph's s-t paths, exactly.

    Best-first on the node bounds, ties preferring deeper nodes and then
    insertion order.  The incumbent starts at the midpoint-optimal path and
    absorbs every solution any bound computation generates.  Node or time
    limits leave complete=False and the incumbent as the best known value.
    """
    if lb_strategy not in STRATEGIES:
        raise ValueError("unknown bounding strategy %r" % (lb_strategy,))
    config = config or BBConfig()
    start = time.perf_counter()
    oracle = sp_oracle(graph)
    instance = graph.instance
    tol = config.tolerance

    regret_cache: dict[frozenset, float] = {}

    def regret_of(x: SolutionIndicator) -> float:
        cached = regret_cache.get(x.members)
        if cached is None:
            cached = max_regret(instance, oracle, x)
            regret_cache[x.members] = cached
        return cached

    mid_path, _ = oracle.solve_path(midpoint_scenario(instance).costs)
    incumbent = Incumbent(mid_path.indicator(), mid_path, regret_of(mid_path.indicator()))

    def absorb(x: SolutionIndicator) -> None:
        nonlocal incumbent
        regret = regret_of(x)
        if regret < incumbent.regret:
            incumbent = Incumbent(x, order_path_edges(graph, x.members), regret)

    shared_pool = ScenarioPool(instance, oracle) if config.warm_start else None

    def bound_node(constraint: PathConstraint, inherited) -> NodeBound:
        pool = shared_pool if config.warm_start else ScenarioPool(instance, oracle)
        found = node_lower_bound(
            graph,
            constraint,
            lb_strategy,
            oracle=oracle,
            pool=pool,
            inherited=inherited,
            max_support_x=config.max_support_x,
            stop_value=incumbent.regret - tol,
        )
        for x in found.generated:
            absorb(x)
        absorb(found.branch_path.indicator())
        return found

    counter = itertools.count()
    heap: list = []
    root_constraint = PathConstraint()
    # The midpoint path seeds the root's game, solved once for the incumbent.
    root = bound_node(root_constraint, (incumbent.solution,))
    heapq.heappush(
        heap,
        (root.value, 0, next(counter), BBNode(root_constraint, root.value, 0, root.solutions, root.branch_path)),
    )

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
        lb, neg_depth, _, node = heapq.heappop(heap)
        expanded += 1
        if lb >= incumbent.regret - tol:
            break  # best-first: every remaining node is bounded at least as high
        k = select_branch_edge(graph, node.constraint, node.branch_path)
        if k is None:
            absorb(node.branch_path.indicator())
            continue
        take, skip = branch(graph, node.constraint, k)
        take_inherit, skip_inherit = _split_inherited(node.inherited if config.warm_start else (), k)
        for child_constraint, child_inherit in ((take, take_inherit), (skip, skip_inherit)):
            if child_constraint.chain_end(graph) == graph.target:
                absorb(Path(child_constraint.in_chain).indicator())
                continue
            try:
                child = bound_node(child_constraint, child_inherit)
            except NoFeasibleSolution:
                continue
            if child.value >= incumbent.regret - tol:
                continue
            heapq.heappush(
                heap,
                (
                    child.value,
                    -(node.depth + 1),
                    next(counter),
                    BBNode(child_constraint, child.value, node.depth + 1, child.solutions, child.branch_path),
                ),
            )

    elapsed = (time.perf_counter() - start) * 1000.0
    return BBStats(
        opt=incumbent.regret,
        optimal_path=incumbent.path,
        nodes_expanded=expanded,
        elapsed_ms=elapsed,
        complete=complete,
        strategy=lb_strategy,
    )
