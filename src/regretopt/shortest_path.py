"""Directed graphs with interval arc costs and the searches the bounds need.

Holds the graph container, Dijkstra, shortest path search under branch
constraints (forced prefix, forbidden arcs), a two-unit minimum cost flow
used by the pair-scenario bound, the cheapest s-t walk through each arc
that branch and bound's arc fixing reads, and the adapter that turns all
of this into a standard-problem oracle.

The searches index plain Python sequences: each call copies its costs into
a flat array of doubles, and the graph keeps its adjacency as per-node
tuples, because indexing numpy scalars one arc at a time costs more than
the search itself.  Work over all arcs stays in numpy: a constraint keeps
its forbidden arcs as an index array, marked at inf with one store, and
the walk through each arc is scored in one expression.  The graph's own
lo and hi were checked when it was built and are read-only, so a search
handed either of them checks nothing again; every other cost vector is
checked on every call.

Searches toward the target are goal-directed (A*).  Every cost vector the
solvers build lies in [lo, hi], so each node's lo-cost distance to the
target, shrunk by a hair, is a consistent potential for all of them; the
graph computes it once, on first use.  Costs below lo anywhere fall back
to a zero potential, which is plain Dijkstra.  The two-unit flow stops its
first pass at the target and prices its second with the first pass's
labels, capped at the target's label less the potential.  The walk through
each arc may be cut off at a cost: both of its searches then expand only
the nodes whose key stays below it, so arc fixing at the root of branch and
bound settles the few nodes near a cheap route instead of the whole graph.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import IntervalInstance, NoFeasibleSolution, SolutionIndicator


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Path:
    """Arc ids of a simple path, in traversal order."""

    edges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(map(int, self.edges)))

    def indicator(self) -> SolutionIndicator:
        return SolutionIndicator(frozenset(self.edges))

    def value(self, costs) -> float:
        c = np.asarray(costs, dtype=float)
        return float(sum(c[e] for e in self.edges))

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class IntervalDigraph:
    """Digraph with an interval cost per arc and fixed terminals.

    Parallel arcs are allowed; arcs are identified by index into the tail,
    head, lo and hi arrays.  Construction rejects graphs whose target is
    not reachable from the source, and derives out_edges and instance from
    the arrays.  Equality and hashing are by identity.
    """

    node_count: int
    tails: np.ndarray
    heads: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    source: int
    target: int
    out_edges: tuple[tuple[int, ...], ...] = field(init=False)
    instance: IntervalInstance = field(init=False)
    # The head of every arc in out_edges, position by position.
    _out_heads: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    # Filled on first use of goal_potential.
    _goal_potential: array = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = int(self.node_count)
        tails = _frozen(self.tails, np.int64)
        heads = _frozen(self.heads, np.int64)
        instance = IntervalInstance(self.lo, self.hi)
        if n < 2:
            raise ValueError("graph needs at least two nodes")
        if tails.ndim != 1 or tails.shape != heads.shape:
            raise ValueError("tails and heads must be 1-d arrays of equal length")
        if tails.size != instance.n:
            raise ValueError("one cost interval per arc required")
        for arr in (tails, heads):
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise ValueError("arc endpoint out of range")
        s, t = int(self.source), int(self.target)
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError("terminal out of range")
        if s == t:
            raise ValueError("source and target must differ")
        ids = list(range(n))  # one int object per node, shared by all head tuples
        out_adj: list[list[int]] = [[] for _ in range(n)]
        out_heads: list[list[int]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(zip(tails.tolist(), heads.tolist())):
            out_adj[u].append(e)
            out_heads[u].append(ids[v])
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "lo", instance.lo)
        object.__setattr__(self, "hi", instance.hi)
        object.__setattr__(self, "source", s)
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "out_edges", tuple(tuple(a) for a in out_adj))
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "_out_heads", tuple(tuple(a) for a in out_heads))
        if not self._reaches_target():
            raise ValueError("target is not reachable from the source")

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple], source: int, target: int) -> "IntervalDigraph":
        """Build from (tail, head, lo, hi) tuples."""
        rows = list(edges)
        tails = [r[0] for r in rows]
        heads = [r[1] for r in rows]
        lo = [r[2] for r in rows]
        hi = [r[3] for r in rows]
        return cls(node_count, np.asarray(tails), np.asarray(heads), np.asarray(lo), np.asarray(hi), source, target)

    @property
    def m(self) -> int:
        return self.tails.size

    @property
    def goal_potential(self) -> array:
        """Each node's lo-cost distance to the target times 1 - 2**-20; inf if it cannot get there.

        This is the A* potential of every search toward the target whose
        costs are at least lo.  Shrinking the distances leaves every arc of
        positive cost a margin that the rounding of the heap keys cannot
        close: when such an arc ties its head's label, its tail is settled
        before its head, as in plain Dijkstra, so the tie resolves the same
        way.  Computed on first use by one Dijkstra over the reversed arcs,
        then kept.
        """
        if self._goal_potential is None:
            shrink = 1.0 - 2.0**-20
            h = _distances_to_target(self, self.lo)
            # Every graph keeps this, so it is stored as doubles: 8 bytes a node.
            object.__setattr__(self, "_goal_potential", array("d", [x * shrink for x in h]))
        return self._goal_potential

    def _reaches_target(self) -> bool:
        seen = [False] * self.node_count
        seen[self.source] = True
        stack = [self.source]
        while stack:
            u = stack.pop()
            if u == self.target:
                return True
            for v in self._out_heads[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return False


@dataclass(frozen=True)
class PathConstraint:
    """Branch state: a forced arc prefix out of the source plus forbidden arcs.

    The forbidden arcs can number in the hundreds once branch and bound
    fixes arcs at its root, so neither branching, the checks nor the searches
    pass over them in Python.  out_index holds the forbidden ids once each,
    as a read-only numpy array, and the searches mark them with one indexed
    store; the checks read their range from the span kept beside it.  split
    builds both children from checked parts: the take child shares its
    parent's index, and the skip child's is the parent's with k appended.
    """

    in_chain: tuple[int, ...] = ()
    out_set: frozenset[int] = frozenset()
    out_index: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    # The least and greatest forbidden arc ids; None when none is forbidden.
    _out_span: tuple[int, int] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        chain = tuple(map(int, self.in_chain))
        out = frozenset(map(int, self.out_set))
        forced = set(chain)
        if not out.isdisjoint(forced):
            raise ValueError("an arc cannot be both forced and forbidden")
        if len(forced) != len(chain):
            raise ValueError("forced prefix repeats an arc")
        index = np.fromiter(out, np.intp, len(out))
        index.setflags(write=False)
        object.__setattr__(self, "in_chain", chain)
        object.__setattr__(self, "out_set", out)
        object.__setattr__(self, "out_index", index)
        object.__setattr__(self, "_out_span", (min(out), max(out)) if out else None)

    def split(self, k: int) -> tuple["PathConstraint", "PathConstraint"]:
        """The two children on arc k: k appended to the forced prefix, and k forbidden."""
        k = int(k)
        if k in self.out_set or k in self.in_chain:
            raise ValueError("arc already constrained")
        lo, hi = self._out_span or (k, k)
        take = self._child(self.in_chain + (k,), self.out_set, self.out_index, self._out_span)
        index = np.append(self.out_index, k)
        index.setflags(write=False)
        skip = self._child(self.in_chain, self.out_set | {k}, index, (min(lo, k), max(hi, k)))
        return take, skip

    @classmethod
    def _child(cls, chain: tuple[int, ...], out: frozenset[int], index: np.ndarray, span) -> "PathConstraint":
        # The parts are checked and normalised already: skip __post_init__.
        child = object.__new__(cls)
        object.__setattr__(child, "in_chain", chain)
        object.__setattr__(child, "out_set", out)
        object.__setattr__(child, "out_index", index)
        object.__setattr__(child, "_out_span", span)
        return child

    def validate(self, graph: IntervalDigraph) -> None:
        """Check the arc ids and that the prefix is a simple path leaving the source."""
        self.chain_nodes(graph)

    def chain_end(self, graph: IntervalDigraph) -> int:
        return graph.heads.item(self.in_chain[-1]) if self.in_chain else graph.source

    def chain_nodes(self, graph: IntervalDigraph) -> tuple[int, ...]:
        """The prefix's nodes from the source on, checked as validate describes."""
        m = graph.m
        if self.in_chain and not (min(self.in_chain) >= 0 and max(self.in_chain) < m):
            raise ValueError("forced arc id out of range")
        if self._out_span and not (self._out_span[0] >= 0 and self._out_span[1] < m):
            raise ValueError("forbidden arc id out of range")
        node = graph.source
        nodes = [node]
        for e in self.in_chain:
            if graph.tails.item(e) != node:
                raise ValueError("forced prefix does not chain from the source")
            node = graph.heads.item(e)
            if node in nodes:
                raise ValueError("forced prefix revisits a node")
            nodes.append(node)
        if graph.target in nodes[:-1]:
            raise ValueError("forced prefix passes through the target")
        return tuple(nodes)


def _check_costs(graph: IntervalDigraph, costs) -> tuple[np.ndarray, bool]:
    """The costs as a float array, and whether none lies below its arc's lo.

    The graph's own lo and hi pass unchecked: both were checked when the
    graph was built and are read-only.  Costs at or above lo are
    nonnegative already, so they need only the finiteness check.
    """
    if costs is graph.lo or costs is graph.hi:
        return costs, True
    c = np.asarray(costs, dtype=float)
    if c.shape != (graph.m,):
        raise ValueError("one cost per arc required")
    # NaN fails every comparison, so these catch every bad value.
    above_lo = bool((c >= graph.lo).all())
    if (above_lo or c.min() >= 0.0) and c.max() < math.inf:
        return c, above_lo
    raise ValueError("arc costs must be finite and nonnegative")


def _potential(graph: IntervalDigraph, above_lo: bool):
    """The graph's goal potential when no cost lies below lo, else the zero potential."""
    return graph.goal_potential if above_lo else [0.0] * graph.node_count


def _settle_all(graph, costs: array, src, banned_nodes, target, h, cutoff=math.inf):
    """A* labels from src toward target under the consistent potential h.

    The heap orders nodes by (label + h, label, node), so a zero potential
    is plain Dijkstra; the search stops once target is settled, and with
    target None settles everything src reaches.  Equal-cost relaxations
    keep the smallest arc id.  Arcs priced at infinity are never relaxed,
    nodes whose key label + h reaches cutoff never enter the heap (with the
    default cutoff, those of infinite potential), and banned nodes start
    out settled.  So with target None a node other than src is settled
    exactly when its final label + h lies below cutoff.  Predecessors are
    only rewritten while the head is unsettled, so the predecessor chain
    always walks strictly back in settle order and stays acyclic even
    across zero-cost arcs.
    """
    n = graph.node_count
    dist = [math.inf] * n
    pred = [-1] * n
    settled = [False] * n
    for u in banned_nodes:
        settled[u] = True
    if settled[src]:
        return dist, pred
    out_edges, out_heads = graph.out_edges, graph._out_heads
    push, pop = heapq.heappush, heapq.heappop
    dist[src] = 0.0
    heap = [(h[src], 0.0, src)]
    while heap:
        _, d, u = pop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if u == target:
            break
        for e, v in zip(out_edges[u], out_heads[u]):
            if settled[v]:
                continue
            nd = d + costs[e]
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                pred[v] = e
                key = nd + h[v]
                if key < cutoff:
                    push(heap, (key, nd, v))
            elif nd == dv and e < pred[v]:
                pred[v] = e
    return dist, pred


def _distances_to_target(graph, costs: np.ndarray, arcs=None, h=None, cutoff=math.inf) -> list[float]:
    """Each node's least cost to the target, by one search over the reversed arcs.

    With arcs, a boolean mask, only those arcs are searched.  With h, a
    potential consistent for the reversed arcs such as labels from the
    source, the heap orders nodes by label + h, and nodes whose key reaches
    cutoff are labelled but not expanded.  A node popped at a stale label
    is skipped and one relabelled after its pop is expanded again, so every
    label below the cutoff is final however h rounds.  The reversed
    adjacency is built for the call and dropped with it.
    """
    n = graph.node_count
    tails, heads, w = graph.tails, graph.heads, costs
    if arcs is not None:
        tails, heads, w = tails[arcs], heads[arcs], w[arcs]
    into: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, c in zip(tails.tolist(), heads.tolist(), w.tolist()):
        into[v].append((u, c))
    h = [0.0] * n if h is None else h
    dist = [math.inf] * n
    t = graph.target
    dist[t] = 0.0
    heap = [(h[t], 0.0, t)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        _, d, v = pop(heap)
        if d > dist[v]:
            continue
        for u, c in into[v]:
            nd = d + c
            if nd < dist[u]:
                dist[u] = nd
                key = nd + h[u]
                if key < cutoff:
                    push(heap, (key, nd, u))
    return dist


def through_arc_costs(graph: IntervalDigraph, costs, cutoff: float = math.inf) -> np.ndarray:
    """Per arc (u, v): d_s(u) + c_uv + d_t(v), the cheapest s-t walk through it.

    d_s and d_t are the least costs from the source and to the target
    under the given costs.  No s-t path through the arc costs less; the
    value is inf when no s-t walk uses the arc, or when it reaches cutoff.

    Both searches stop short of the cutoff.  The forward one is A* from the
    source under the goal potential, which never exceeds d_t, and expands
    only nodes whose key d_s + potential lies below the cutoff.  So an arc
    whose walk costs less than the cutoff has both ends settled, at final
    labels.  The reverse search runs over the arcs between settled nodes,
    with the forward labels as its potential, and expands only nodes whose
    d_s + d_t lies below the cutoff; every node on the cheapest route from
    such a node to the target meets the same test.  The arcs below the
    cutoff therefore read the same sums as with full searches, and the
    rest read inf.  The keys are summed in another order than the walks,
    so an arc within rounding of the cutoff may read inf either way.
    """
    c, above_lo = _check_costs(graph, costs)
    h = _potential(graph, above_lo)
    d_s, _ = _settle_all(graph, array("d", c.tobytes()), graph.source, (), None, h, cutoff)
    d_s = np.array(d_s)
    # Labels of nodes left unsettled may not be final: read them as inf.
    settled = d_s + np.asarray(h) < cutoff
    d_s[~settled] = math.inf
    tails, heads = graph.tails, graph.heads
    d_t = np.array(_distances_to_target(graph, c, settled[tails] & settled[heads], d_s.tolist(), cutoff))
    through = d_s[tails] + c + d_t[heads]
    through[through >= cutoff] = math.inf
    return through


def _walk_back(graph, pred, src, dst) -> Path:
    edges = []
    node = dst
    while node != src:
        e = pred[node]
        edges.append(e)
        node = graph.tails.item(e)
    edges.reverse()
    return Path(tuple(edges))


def dijkstra(graph: IntervalDigraph, costs):
    """Shortest source-target path under the given arc costs, as (path, value)."""
    c, above_lo = _check_costs(graph, costs)
    s, t = graph.source, graph.target
    dist, pred = _settle_all(graph, array("d", c.tobytes()), s, (), t, _potential(graph, above_lo))
    return _walk_back(graph, pred, s, t), dist[t]


def constrained_sp(graph: IntervalDigraph, costs, constraint: PathConstraint):
    """Cheapest s-t path honoring the forced prefix and the forbidden arcs.

    The completion search starts at the end of the prefix and may not
    revisit any earlier prefix node.  Returns None when no such path exists.
    """
    c, above_lo = _check_costs(graph, costs)
    c = array("d", c.tobytes())
    *banned_nodes, start = constraint.chain_nodes(graph)
    chain_value = float(sum(c[e] for e in constraint.in_chain))
    if start == graph.target:
        return Path(constraint.in_chain), chain_value
    # chain_nodes has checked the forbidden ids' range, so the store stays in bounds.
    np.frombuffer(c)[constraint.out_index] = math.inf
    dist, pred = _settle_all(graph, c, start, banned_nodes, graph.target, _potential(graph, above_lo))
    if dist[graph.target] == math.inf:
        return None
    tail = _walk_back(graph, pred, start, graph.target)
    return Path(constraint.in_chain + tail.edges), chain_value + dist[graph.target]


def two_unit_min_flow(graph: IntervalDigraph, lo_costs, hi_costs, constraint: PathConstraint | None = None):
    """Cheapest way to route two units from source to target, priced per use.

    A free arc costs lo on first use and hi on the second; arcs forced by
    the constraint cost hi on both uses, forbidden arcs lo on both.  Solved
    as two successive shortest path augmentations, so the second pass may
    cancel the first.  The first is A* stopped at the target; the second is
    Dijkstra on costs reduced by min(label, target label - potential), which
    is A* wherever the first pass did not settle.  Returns the total cost,
    or None when the target is unreachable.
    """
    lo, above_lo = _check_costs(graph, lo_costs)
    hi, _ = _check_costs(graph, hi_costs)
    # The graph's own pair was checked when the graph was built.
    if not (lo is graph.lo and hi is graph.hi) and (hi < lo).any():
        raise ValueError("per-arc second-use cost below first-use cost")
    costs = array("d", lo.tobytes())
    out = frozenset()
    if constraint is not None:
        constraint.validate(graph)
        for e in constraint.in_chain:
            costs[e] = hi.item(e)
        out = constraint.out_set

    s, t = graph.source, graph.target
    h = _potential(graph, above_lo)
    dist, pred = _settle_all(graph, costs, s, (), t, h)
    dt = dist[t]
    if dt == math.inf:
        return None
    used = _walk_back(graph, pred, s, t).edges

    # Second augmentation on the residual graph: a used arc carries its
    # second-use cost forward and a free backward copy that cancels the
    # first unit.  No forward cost is below its first-use cost, so costs
    # reduced by the truncated potential are nonnegative but for rounding,
    # which the clamp absorbs; the cancel arcs, on settled nodes, reduce to 0.
    # Nodes that cannot reach the target price at -inf and are never pushed.
    for e in used:
        costs[e] = (lo if e in out else hi).item(e)
    cancel = {graph.heads.item(e): graph.tails.item(e) for e in used}
    out_edges, out_heads = graph.out_edges, graph._out_heads
    push, pop = heapq.heappush, heapq.heappop
    rdist = [math.inf] * graph.node_count
    done = [False] * graph.node_count
    rdist[s] = 0.0
    heap = [(0.0, s)]
    while heap:
        d, u = pop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == t:
            break
        base = min(dist[u], dt - h[u])
        for e, v in zip(out_edges[u], out_heads[u]):
            if done[v]:
                continue
            pv = dt - h[v]
            if dist[v] < pv:
                pv = dist[v]
            reduced = costs[e] + base - pv
            nd = d + reduced if reduced > 0.0 else d
            if nd < rdist[v]:
                rdist[v] = nd
                push(heap, (nd, v))
        v = cancel.get(u)
        if v is not None and not done[v] and d < rdist[v]:
            rdist[v] = d
            push(heap, (d, v))
    if rdist[t] == math.inf:
        return None
    return 2.0 * dt + rdist[t]


def order_path_edges(graph: IntervalDigraph, members: frozenset[int]) -> Path:
    """Rebuild traversal order from the arc set of a simple s-t path."""
    by_tail: dict[int, int] = {}
    for e in members:
        u = graph.tails.item(e)
        if u in by_tail:
            raise ValueError("arc set leaves a node twice; not a simple path")
        by_tail[u] = e
    edges = []
    node = graph.source
    while node != graph.target:
        if node not in by_tail:
            raise ValueError("arc set does not connect source to target")
        e = by_tail.pop(node)
        edges.append(e)
        node = graph.heads.item(e)
    if by_tail:
        raise ValueError("arc set has leftovers beyond the s-t path")
    return Path(tuple(edges))


class ShortestPathOracle:
    """Standard-problem oracle over the graph's simple s-t paths.

    Satisfies the oracle contract used by the game engine: n is the arc
    count and solve returns an optimal path for any nonnegative costs,
    deterministically under ties.
    """

    def __init__(self, graph: IntervalDigraph):
        self.graph = graph
        self.n = graph.m

    def solve_path(self, costs, restriction: PathConstraint | None = None) -> tuple[Path, float]:
        if restriction is None:
            found = dijkstra(self.graph, costs)
        else:
            found = constrained_sp(self.graph, costs, restriction)
        if found is None:
            raise NoFeasibleSolution("no path satisfies the restriction")
        return found

    def solve(self, costs, restriction: PathConstraint | None = None) -> tuple[SolutionIndicator, float]:
        path, value = self.solve_path(costs, restriction)
        return path.indicator(), value


def sp_oracle(graph: IntervalDigraph) -> ShortestPathOracle:
    """Adapter from an interval digraph to the standard-problem oracle contract."""
    return ShortestPathOracle(graph)
