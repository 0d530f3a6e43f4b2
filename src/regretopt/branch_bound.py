"""Exact minmax regret paths by best-first branch and bound.

A node fixes a path prefix out of the source and a set of forbidden arcs,
as a PathConstraint on the graph.  Branching picks the arc with which the
node's current best response leaves the prefix's end node, and splits the
constraint on using it or banning it (PathConstraint.split).  Nodes are
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
whole graph.  When fixing leaves free only the incumbent's own arcs, every
other path uses a fixed arc, so the incumbent is optimal: the mgd and cg
searches end before bounding their root, and the game search plays its
root game, which prunes the root at once.

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
from .core import NoFeasibleSolution, SolutionIndicator, cost_of
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
    """Search budgets (None means unlimited) and whether node games share work.

    The budgets count expanded nodes and elapsed time.  A root that fixing
    closes leaves the mgd and cg searches no node to expand, so they
    complete under any budget, 0 included.
    """

    node_limit: int | None = None
    time_limit_ms: float | None = None
    warm_start: bool = True

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be nonnegative")
        # NaN fails the comparison, so it is rejected too.
        if self.time_limit_ms is not None and not self.time_limit_ms >= 0.0:
            raise ValueError("time_limit_ms must be nonnegative")


@dataclass(frozen=True)
class BBStats:
    """Search outcome; opt is only proven optimal when complete is true.

    fixed_arcs counts the arcs the root forbade before any branching.
    nodes_expanded is 0 when fixing left free only the incumbent's arcs
    and the bound is mgd or cg: the incumbent was proven optimal before
    any node was bounded, and complete is true whatever the budgets.
    """

    opt: float
    optimal_path: Path
    nodes_expanded: int
    fixed_arcs: int
    elapsed_ms: float
    complete: bool


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


def select_branch_edge(constraint: PathConstraint, response: SolutionIndicator) -> int:
    """The response's arc out of the forced prefix's end node.

    The response is a simple path, so it leaves that node at most once.  A
    node's prefix never ends at the target, so an s-t response through the
    prefix always leaves its end; a response that does not is an error.
    """
    if not response.members.issuperset(constraint.in_chain):
        raise ValueError("response does not contain the forced prefix")
    tails, end = constraint.graph.tails, constraint.end
    for e in response.members:
        if tails.item(e) == end:
            return e
    raise ValueError("response does not leave the prefix's end")


def fixed_arcs(graph: IntervalDigraph, reference: SolutionIndicator, regret: float) -> np.ndarray:
    """One flag per arc, set on the arcs that no s-t path whose maximum regret is below the given regret uses.

    For any s-t paths P and Q, regret(P) >= c(P) - lo(Q), where c is Q's
    favoring scenario (lo on Q, hi elsewhere): this is P's penalizing
    scenario evaluated at Q.  An arc is fixed when the cheapest walk
    through it under c, less lo(Q), reaches regret + 1e-9 * max(1, regret).
    The margin keeps the reference's own arcs, which score zero up to
    rounding, free.  So when every free arc lies on the reference, every
    other path uses a fixed arc and its regret reaches the limit, above
    the given regret: bb_solve then closes the root, read off the flags.

    The walks are searched only up to (lo(Q) + that limit) * (1 + 1e-12):
    an arc past that cutoff, or within rounding of it, reads inf, and every
    other arc reads the sum full searches give.  The factor lies far above
    the rounding of the sums, so every arc that reads inf reaches the limit
    under full searches too, and the fixed set is the same.  The flags
    build the root constraint unchecked (PathConstraint.forbidding), only
    when bb_solve bounds the root.  through_arc_costs builds c from the
    graph's own intervals, so no scenario is made and no cost is checked
    again.
    """
    lo_q = cost_of(reference.members, graph.lo)
    limit = regret + 1e-9 * max(1.0, regret)
    through = through_arc_costs(graph, reference, (lo_q + limit) * _CUTOFF_FACTOR)
    return through - lo_q >= limit


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
    restriction = constraint if (constraint.in_chain or constraint.out_index.size) else None
    init_x = list(inherited)
    if not init_x:
        seed, _ = oracle.solve(instance.mid, restriction)
        init_x = [seed]
    config = DoubleOracleConfig(stop_value=stop_value)
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
    the midpoint path's own arcs stay free, so the root is feasible.  When
    they are the only free arcs, the incumbent is optimal.  The mgd and cg
    searches then leave the root unbounded and the heap empty, so they
    bound, push and price no node and end with nodes_expanded 0 and
    complete true, under any budget.  The game search still plays its root
    game, whose value is the incumbent's regret, and prunes the root on its
    first pop, as with any root bounded at the incumbent.  Each distinct
    solution is priced once, through the root game's pool, which
    publishes nothing: with the game bound, the root game's first column,
    the incumbent's penalizing scenario, reuses the solve that priced the
    incumbent.  A node whose game LP fails is bounded by the pair bound
    instead.  Node or time limits leave complete=False and the incumbent as
    the best known value.
    """
    if lb_strategy not in STRATEGIES:
        raise ValueError("unknown bounding strategy %r" % (lb_strategy,))
    config = config or BBConfig()
    start = time.perf_counter()
    oracle = sp_oracle(graph)
    instance = graph.instance

    mid_path, _ = oracle.solve_path(instance.mid)
    best = mid_path.indicator()
    root_pool = ScenarioPool(instance, oracle)
    priced = {best.members}
    best_regret = max_regret(instance, oracle, best, root_pool)
    # Paths through these arcs cannot beat the incumbent: the root forbids
    # them, so every node inherits them.
    fixed = fixed_arcs(graph, best, best_regret)
    fixed_count = int(np.count_nonzero(fixed))

    def absorb(x: SolutionIndicator) -> None:
        nonlocal best, best_regret
        # A solution priced before was the incumbent or no better than it
        # then, and the incumbent only improves.
        if x.members in priced:
            return
        priced.add(x.members)
        regret = max_regret(instance, oracle, x, root_pool)
        if regret < best_regret:
            best, best_regret = x, regret

    shared_pool = root_pool if config.warm_start else None

    def bound_node(constraint: PathConstraint, inherited, pool: ScenarioPool | None = shared_pool) -> NodeBound:
        try:
            found = node_lower_bound(
                graph,
                constraint,
                lb_strategy,
                oracle=oracle,
                pool=pool,
                inherited=inherited,
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
    heap: list = []
    # When every free arc lies on the incumbent, every other path uses a
    # fixed arc: the incumbent is optimal, and mgd and cg bound no root, so
    # they build no root constraint either.  The game search still plays
    # its root game there: the benchmark's tracer self-test probes the game
    # layer through bb_solve(..., "do") on a closed root (ROADMAP items 1
    # and 8).
    if lb_strategy == "do" or graph.m - fixed_count != sum(not fixed.item(e) for e in best.members):
        root_constraint = PathConstraint.forbidding(graph, fixed)
        # The midpoint path seeds the root's game, solved once for the incumbent.
        root = bound_node(root_constraint, (best,), root_pool)
        heap.append((root.value, 0, next(counter), root_constraint, root))

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
        k = select_branch_edge(constraint, node.response)
        take, skip = constraint.split(k)
        take_inherit, skip_inherit = _split_inherited(node.solutions if config.warm_start else (), k)
        for child_constraint, child_inherit in ((take, take_inherit), (skip, skip_inherit)):
            if child_constraint.end == graph.target:
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
        fixed_arcs=fixed_count,
        elapsed_ms=elapsed,
        complete=complete,
    )
