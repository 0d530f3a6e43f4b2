"""Directed graphs with interval arc costs and the searches the bounds need.

Holds the graph container, Dijkstra, shortest path search under branch
constraints (forced prefix, forbidden arcs), a two-unit minimum cost flow
used by the pair-scenario bound, the cheapest s-t walk through each arc
that branch and bound's arc fixing reads, and the adapter that turns all
of this into a standard-problem oracle.  A constraint is built for one
graph and checked against it then, once: split checks only the arc it
adds, and a search only tests that it was handed the constraint's graph.

The searches index plain Python sequences: each call copies its costs into
a flat array of doubles, and the graph keeps its adjacency as per-node
tuples, because indexing numpy scalars one arc at a time costs more than
the search itself.  Work over all arcs stays in numpy: a constraint keeps
its forbidden arcs as an index array, marked at inf with one store, and
the walk through each arc is scored in one expression.  The graph's own
lo, hi and midpoint costs (instance.mid) were checked when it was built
and are read-only, so a search handed any of them checks nothing again,
and neither does the walk through each arc, which builds a path's
favoring scenario from them; every other cost vector is checked on every
call.

Searches toward the target are goal-directed (A*).  Each node's distance
to the target under any floor at or below the costs, shrunk by a hair, is
a consistent potential that leaves ties as plain Dijkstra resolves them
(see IntervalDigraph.potential).  A search handed the graph's own lo,
midpoint or hi costs uses that vector's own distances, exact before any
arc is forbidden; every other cost vector the solvers build lies in
[lo, hi] and uses the lo distances.  The graph computes each of the three
on first use, by the reverse search (_reverse_search) that root arc
fixing also runs, and keeps it.  Costs below lo anywhere fall back to a
zero potential, which is plain Dijkstra; the cost check hands each search
its potential (_check_costs).  A caller that holds a path may pass its
cost as a bound: nodes whose key cannot beat it are labelled but never
pushed, which leaves the answer as it was.  The two-unit flow prices the
graph's own intervals, so it always has the lo potential; it stops its
first pass at the target and prices its second with the first pass's
labels, capped at the target's label less the potential.  The walk through
each arc may be cut off at a cost: both of its searches then expand only
the nodes whose key stays below it, and the reverse one reads its arcs off
the nodes the forward one settled, so arc fixing at the root of branch and
bound touches the few nodes near a cheap route instead of the whole graph.

On an acyclic graph dijkstra and constrained_sp use no heap: one pass over
the nodes in the topological order the graph keeps (_search_to_target).
The two-unit flow and the reverse search keep theirs.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import IntervalInstance, NoFeasibleSolution, SolutionIndicator, cost_of

_UNSORTED = object()  # a graph's _order before its first search


def _frozen_ids(values) -> np.ndarray:
    """A read-only int64 copy of node ids; values of any non-integer type are rejected, not truncated."""
    given = np.asarray(values)
    if given.size and given.dtype.kind not in "biu":
        raise TypeError("node ids must be integers")
    out = np.array(given, dtype=np.int64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Path:
    """Arc ids of a simple path, in traversal order."""

    edges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(map(operator.index, self.edges)))

    def indicator(self) -> SolutionIndicator:
        return SolutionIndicator(self.edges)

    def value(self, costs) -> float:
        """The path's cost, priced by core.cost_of."""
        return cost_of(self.edges, np.asarray(costs, dtype=float))


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
    # The tail of every arc, by arc id, for walking a path back.
    _tails: tuple[int, ...] = field(init=False, repr=False)
    # The potentials of the graph's own cost floors, filled on first use of potential.
    _potentials: dict = field(default_factory=dict, init=False, repr=False)
    # What acyclic_order returns, filled on its first call.
    _order: tuple | None = field(default=_UNSORTED, init=False, repr=False)

    def __post_init__(self):
        n = operator.index(self.node_count)
        tails = _frozen_ids(self.tails)
        heads = _frozen_ids(self.heads)
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
        s, t = operator.index(self.source), operator.index(self.target)
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError("terminal out of range")
        if s == t:
            raise ValueError("source and target must differ")
        ids = list(range(n))  # one int object per node, shared by all head tuples
        out_adj: list[list[int]] = [[] for _ in range(n)]
        out_heads: list[list[int]] = [[] for _ in range(n)]
        tail_ids = tuple(ids[u] for u in tails.tolist())
        for e, (u, v) in enumerate(zip(tail_ids, heads.tolist())):
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
        object.__setattr__(self, "_tails", tail_ids)
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

    def potential(self, floor: np.ndarray) -> array:
        """The A* potential of every search toward the target whose costs are at least floor.

        floor is one of the graph's own read-only cost vectors, passed by
        identity: lo, hi or the midpoint costs instance.mid.  The potential
        is each node's floor-cost distance to the target times 1 - 2**-20,
        inf where the target cannot be reached.  Any floor at or below the
        costs works: a floor distance drops by at most the arc's floor cost,
        so after shrinking, every arc of positive cost c keeps a reduced
        cost of at least c * 2**-20, a margin the rounding of the heap keys
        cannot close.  When such an arc ties its head's label, its tail is
        settled before its head, as in plain Dijkstra, so the tie resolves
        the same way and paths and values come out bit for bit.  Computed
        on first use by _reverse_search over every node, under a zero
        potential and no cutoff, then kept as doubles: 8 bytes a node for
        each floor used.
        """
        # The graph holds each floor, so no other live array shares its id.
        h = self._potentials.get(id(floor))
        if h is None:
            if not (floor is self.lo or floor is self.hi or floor is self.instance.mid):
                raise ValueError("potentials are kept for the graph's own lo, hi and midpoint costs only")
            n = self.node_count
            d_t, _ = _reverse_search(self, floor.tolist(), range(n), [0.0] * n)
            shrink = 1.0 - 2.0**-20
            h = array("d", [x * shrink for x in d_t])
            self._potentials[id(floor)] = h
        return h

    def acyclic_order(self) -> tuple[list[int], list[int], list[tuple]] | None:
        """The nodes in topological order, each node's place in it and its out-arcs as (arc, head) pairs.

        None if the graph has a cycle.  Computed on first use by Kahn's
        algorithm, then kept in a field, not in the instance dict, which
        would slow every attribute read of the graph: two ints a node and a
        pair an arc.  The pass over the order iterates the pairs faster
        than it would zip out_edges with the heads.
        """
        if self._order is not _UNSORTED:
            return self._order
        indegree = np.bincount(self.heads, minlength=self.node_count).tolist()
        order = [u for u, k in enumerate(indegree) if not k]
        for u in order:  # the loop reads the nodes it appends
            for v in self._out_heads[u]:
                indegree[v] -= 1
                if not indegree[v]:
                    order.append(v)
        found = None
        if len(order) == self.node_count:
            out_arcs = [tuple(zip(arcs, heads)) for arcs, heads in zip(self.out_edges, self._out_heads)]
            # argsort inverts the permutation: each node's place in the order.
            found = order, np.argsort(order).tolist(), out_arcs
        object.__setattr__(self, "_order", found)
        return found

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
    """Branch state on one graph: a forced arc prefix out of the source plus forbidden arcs.

    Construction checks it against the graph once; nodes holds the
    prefix's nodes from the source on, and split checks only the arc it
    adds.  The forbidden arcs can number in the hundreds once branch and
    bound fixes arcs at its root, so neither splitting nor the searches pass
    over them in Python: out_index holds the forbidden ids once each, as a
    read-only numpy array marked with one indexed store.  The take child
    shares its parent's index; the skip child's is the parent's with k appended.
    forbidding builds a constraint straight from a mask over the arcs, and
    leaves out_set to be built from out_index on first read: a root whose
    search ends before it branches never reads it.
    """

    graph: IntervalDigraph = field(repr=False)
    in_chain: tuple[int, ...] = ()
    # A factory, not a default: a default would stay on the class, in the
    # place of the descriptor below that builds a missing out_set.
    out_set: frozenset[int] = field(default_factory=frozenset)
    nodes: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    out_index: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        graph = self.graph
        chain = tuple(map(operator.index, self.in_chain))
        out = frozenset(map(operator.index, self.out_set))
        forced = set(chain)
        if not out.isdisjoint(forced):
            raise ValueError("an arc cannot be both forced and forbidden")
        if len(forced) != len(chain):
            raise ValueError("forced prefix repeats an arc")
        if chain and not (min(chain) >= 0 and max(chain) < graph.m):
            raise ValueError("forced arc id out of range")
        if out and not (min(out) >= 0 and max(out) < graph.m):
            raise ValueError("forbidden arc id out of range")
        node = graph.source
        nodes = [node]
        for e in chain:
            if graph.tails.item(e) != node:
                raise ValueError("forced prefix does not chain from the source")
            node = graph.heads.item(e)
            if node in nodes:
                raise ValueError("forced prefix revisits a node")
            nodes.append(node)
        if graph.target in nodes[:-1]:
            raise ValueError("forced prefix passes through the target")
        index = np.fromiter(out, np.intp, len(out))
        index.setflags(write=False)
        self.__dict__.update(in_chain=chain, out_set=out, nodes=tuple(nodes), out_index=index)

    @classmethod
    def forbidding(cls, graph: IntervalDigraph, mask) -> "PathConstraint":
        """The constraint that forces no arc and forbids each arc whose flag in mask is set.

        A mask holds one flag per arc, so its ids are distinct and in range:
        they are read off it once, in increasing order, and not checked again.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (graph.m,):
            raise ValueError("one flag per arc required")
        index = np.flatnonzero(mask)
        index.setflags(write=False)
        return cls._unchecked(graph, (), (graph.source,), None, index)

    @property
    def end(self) -> int:
        return self.nodes[-1]

    def split(self, k: int) -> tuple["PathConstraint", "PathConstraint"]:
        """The two children on arc k, an arc out of end: k appended to the forced prefix, and k forbidden."""
        k = operator.index(k)
        graph = self.graph
        if not 0 <= k < graph.m:
            raise ValueError("branch arc id out of range")
        if k in self.out_set or k in self.in_chain:
            raise ValueError("arc already constrained")
        if graph.tails.item(k) != self.end:
            raise ValueError("branch arc does not extend the forced prefix")
        head = graph.heads.item(k)
        if head in self.nodes:
            raise ValueError("forced prefix revisits a node")
        if self.end == graph.target:
            raise ValueError("forced prefix passes through the target")
        take = self._unchecked(graph, self.in_chain + (k,), self.nodes + (head,), self.out_set, self.out_index)
        index = np.append(self.out_index, k)
        index.setflags(write=False)
        skip = self._unchecked(graph, self.in_chain, self.nodes, self.out_set | {k}, index)
        return take, skip

    @classmethod
    def _unchecked(cls, graph, chain, nodes, out, index) -> "PathConstraint":
        # The parts are checked against this graph already: skip __post_init__.
        # With out None, out_set is built from index on first read.
        made = object.__new__(cls)
        made.__dict__.update(graph=graph, in_chain=chain, nodes=nodes, out_index=index)
        if out is not None:
            made.__dict__["out_set"] = out
        return made


# An out_set that forbidding leaves out of the instance dict is built from
# out_index on first read by this non-data descriptor, which a set out_set
# shadows.  A __getattr__ would do the same, but it slows every attribute
# read of a constraint, and branch and bound reads them at every node.
PathConstraint.out_set = functools.cached_property(lambda constraint: frozenset(constraint.out_index.tolist()))
PathConstraint.out_set.__set_name__(PathConstraint, "out_set")


def _check_costs(graph: IntervalDigraph, costs) -> tuple[np.ndarray, Sequence[float]]:
    """The costs as a float array, and the A* potential a search under them uses.

    The graph's own lo, hi and midpoint costs pass unchecked, each with its
    own kept potential: all three were checked when the graph was built
    and are read-only.  Any other costs take the lo potential when none
    lies below lo, and a zero potential otherwise; a copy of the graph's
    own costs is such another vector.  Costs at or above lo are
    nonnegative already, so they need only the finiteness check.  Nearly
    every search finds its potential kept, so that lookup skips the
    accessor's call; the accessor computes the rest.
    """
    instance = graph.instance
    if costs is instance.lo or costs is instance.hi or costs is instance.mid:
        c = floor = costs
    else:
        c = np.asarray(costs, dtype=float)
        if c.shape != (graph.m,):
            raise ValueError("one cost per arc required")
        # NaN fails every comparison, so these catch every bad value.
        above_lo = bool((c >= graph.lo).all())
        if not ((above_lo or c.min() >= 0.0) and c.max() < math.inf):
            raise ValueError("arc costs must be finite and nonnegative")
        if not above_lo:
            return c, [0.0] * graph.node_count
        floor = instance.lo
    h = graph._potentials.get(id(floor))
    return c, graph.potential(floor) if h is None else h


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


def _reverse_search(graph, costs, region, h, cutoff=math.inf) -> tuple[list[float], array]:
    """Labels to the target, and the cheapest walk through each arc, over the arcs between region nodes.

    A* from the target over the reversed arcs, under the potential h of
    each node's cost from the source side, keyed (label + h, label, node):
    a zero h is plain Dijkstra.  Only keys below cutoff are expanded.  A
    node popped at a stale label is skipped and one relabelled after its
    pop is expanded again, so its last expansion is at its final label and
    prices the walk h[u] + c[e] + d_t[v] through each arc e = (u, v) into
    it, kept below cutoff.  Returns d_t and the walks, each inf where
    nothing was reached or kept.
    """
    n = graph.node_count
    inside = [False] * n
    for u in region:
        inside[u] = True
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    out_edges, out_heads = graph.out_edges, graph._out_heads
    for u in region:
        for e, v in zip(out_edges[u], out_heads[u]):
            if inside[v]:
                into[v].append((e, u))
    through = array("d", [math.inf]) * graph.m
    d_t = [math.inf] * n
    t = graph.target
    d_t[t] = 0.0
    heap = [(h[t], 0.0, t)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        _, d, v = pop(heap)
        if d > d_t[v]:
            continue
        for e, u in into[v]:
            hu, ce = h[u], costs[e]
            walk = hu + ce + d
            if walk < cutoff:
                through[e] = walk
            nd = d + ce
            if nd < d_t[u]:
                d_t[u] = nd
                key = nd + hu
                if key < cutoff:
                    push(heap, (key, nd, u))
    return d_t, through


def through_arc_costs(graph: IntervalDigraph, reference: SolutionIndicator, cutoff: float = math.inf) -> np.ndarray:
    """Per arc (u, v): d_s(u) + c_uv + d_t(v), the cheapest s-t walk through it.

    c is the reference's favoring scenario, lo on its arcs and hi
    elsewhere, written straight into the search's array from the graph's
    own intervals, so nothing is checked again.  d_s and d_t are the least
    costs from the source and to the target under c.  No s-t path through
    the arc costs less; the value is inf when no s-t walk uses the arc, or
    when it reaches cutoff.

    Both searches stop short of the cutoff.  The forward one is A* from the
    source under the lo potential, which never exceeds d_t, and expands
    only nodes whose key d_s + potential lies below the cutoff: the settled
    region, read off the forward labels.  So an arc whose walk costs less
    than the cutoff has both ends in the region, at final labels.  The
    reverse one, _reverse_search over the region under the forward labels,
    expands only nodes whose d_s + d_t lies below the cutoff; every node on
    the cheapest route from such a node to the target meets the same test,
    and a node never expanded has every walk into it at or above the
    cutoff.  So the arcs below the cutoff read the same sums as with full
    searches, and the rest read inf.  The keys are summed in another order
    than the walks, so an arc within rounding of the cutoff may read inf
    either way.
    """
    lo = graph.lo
    c = array("d", graph.hi.tobytes())
    for e in reference.members:
        c[e] = lo.item(e)
    h = graph.potential(lo)
    d_s, _ = _settle_all(graph, c, graph.source, (), None, h, cutoff)
    # Labels of nodes left unsettled may not be final: they stay out.
    region = [u for u, d in enumerate(d_s) if d + h[u] < cutoff]
    _, through = _reverse_search(graph, c, region, d_s, cutoff)
    return np.frombuffer(through)


def _walk_back(graph, pred, src, dst) -> tuple[int, ...]:
    tails = graph._tails
    edges = []
    node = dst
    while node != src:
        e = pred[node]
        edges.append(e)
        node = tails[e]
    edges.reverse()
    return tuple(edges)


def _acyclic_pass(graph, costs: array, src, banned_nodes, target, h, cutoff=math.inf):
    """_settle_all's labels on an acyclic graph, by one pass over its nodes from src up to target.

    Every in-arc of a node is relaxed before the pass reaches it, so all
    equal-label in-arcs compete for its predecessor.  A node whose key
    reaches cutoff relaxes nothing.  The banned nodes of a prefix ending at
    src precede src in the order, so the pass never reaches them.
    """
    n = graph.node_count
    dist = [math.inf] * n
    pred = [-1] * n
    dist[src] = 0.0
    order, position, out_arcs = graph.acyclic_order()
    for u in order[position[src] : position[target]]:
        d = dist[u]
        if d + h[u] >= cutoff:
            continue
        for e, v in out_arcs[u]:
            nd = d + costs[e]
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                pred[v] = e
            elif nd == dv and e < pred[v]:
                pred[v] = e
    return dist, pred


def _search_to_target(graph, costs: array, start, banned_nodes, h, cutoff):
    """Labels from start to the target, expanding no node whose key reaches cutoff.

    On a cyclic graph this is _settle_all's A*, stopped once the target is
    settled, and on an acyclic one _acyclic_pass.  A cutoff above the
    cheapest completion expands every node of a cheapest completion, and
    every pushed node pops as without it, so the target's label and
    predecessors come out the same bit for bit.  The target's potential is
    zero, so its label lies below the cutoff exactly when the cutoff was
    not too low; when it does not, the search runs again without one.
    """
    t = graph.target
    search = _settle_all if graph.acyclic_order() is None else _acyclic_pass
    dist, pred = search(graph, costs, start, banned_nodes, t, h, cutoff)
    if dist[t] >= cutoff and cutoff < math.inf:
        dist, pred = search(graph, costs, start, banned_nodes, t, h)
    return dist, pred


def _cutoff(bound: float) -> float:
    """Strictly above bound, also at 0, by more than the rounding of any sum of path costs near it."""
    return bound + 1e-9 * max(1.0, bound)


def dijkstra(graph: IntervalDigraph, costs, bound: float = math.inf):
    """Shortest source-target path under the given arc costs, as (path, value).

    bound is the cost, under these costs, of an s-t path the caller holds:
    the search pushes no node that cannot beat it (see _search_to_target).
    Any bound gives the same answer; a lower one only costs a second search.
    """
    c, h = _check_costs(graph, costs)
    s, t = graph.source, graph.target
    dist, pred = _search_to_target(graph, array("d", c.tobytes()), s, (), h, _cutoff(bound))
    return Path(_walk_back(graph, pred, s, t)), dist[t]


def constrained_sp(graph: IntervalDigraph, costs, constraint: PathConstraint, bound: float = math.inf):
    """Cheapest s-t path honoring the forced prefix and the forbidden arcs.

    The completion search starts at the end of the prefix and may not
    revisit any earlier prefix node.  Returns None when no such path exists.
    bound is the cost of a path the caller holds that honors the
    constraint, prefix included, and prunes the search as in dijkstra.
    """
    if constraint.graph is not graph:
        raise ValueError("constraint belongs to another graph")
    c, h = _check_costs(graph, costs)
    c = array("d", c.tobytes())
    *banned_nodes, start = constraint.nodes
    chain_value = float(sum(c[e] for e in constraint.in_chain))
    if start == graph.target:
        return Path(constraint.in_chain), chain_value
    # The forbidden ids were checked against this graph, so the store stays in bounds.
    np.frombuffer(c)[constraint.out_index] = math.inf
    dist, pred = _search_to_target(graph, c, start, banned_nodes, h, _cutoff(bound) - chain_value)
    if dist[graph.target] == math.inf:
        return None
    return Path(constraint.in_chain + _walk_back(graph, pred, start, graph.target)), chain_value + dist[graph.target]


def two_unit_min_flow(graph: IntervalDigraph, constraint: PathConstraint | None = None):
    """Cheapest way to route two units from source to target, priced per use.

    The graph's own intervals price each use: a free arc costs lo on first
    use and hi on the second, arcs forced by the constraint cost hi on both
    uses, forbidden arcs lo on both.  Solved as two successive shortest
    path augmentations, so the second pass may cancel the first.  The first
    is A* stopped at the target; the second is Dijkstra on costs reduced by
    min(label, target label - potential), which is A* wherever the first
    pass did not settle.  Returns the total cost, or None when the target
    is unreachable.
    """
    lo, hi = graph.lo, graph.hi
    costs = array("d", lo.tobytes())
    out = frozenset()
    if constraint is not None:
        if constraint.graph is not graph:
            raise ValueError("constraint belongs to another graph")
        for e in constraint.in_chain:
            costs[e] = hi.item(e)
        out = constraint.out_set

    s, t = graph.source, graph.target
    h = graph.potential(graph.lo)
    dist, pred = _settle_all(graph, costs, s, (), t, h)
    dt = dist[t]
    if dt == math.inf:
        return None
    used = _walk_back(graph, pred, s, t)

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
    deterministically under ties.  A bound, the cost of a path the caller
    holds that meets the restriction, prunes the search and never changes
    the answer (see dijkstra).
    """

    def __init__(self, graph: IntervalDigraph):
        self.graph = graph
        self.n = graph.m

    def solve_path(self, costs, restriction: PathConstraint | None = None, bound: float = math.inf) -> tuple[Path, float]:
        if restriction is None:
            found = dijkstra(self.graph, costs, bound)
        else:
            found = constrained_sp(self.graph, costs, restriction, bound)
        if found is None:
            raise NoFeasibleSolution("no path satisfies the restriction")
        return found

    def solve(self, costs, restriction: PathConstraint | None = None, bound: float = math.inf) -> tuple[SolutionIndicator, float]:
        path, value = self.solve_path(costs, restriction, bound)
        return path.indicator(), value


def sp_oracle(graph: IntervalDigraph) -> ShortestPathOracle:
    """Adapter from an interval digraph to the standard-problem oracle contract."""
    return ShortestPathOracle(graph)
