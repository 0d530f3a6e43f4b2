"""Result checks that do not trust the program under test.

Every check recomputes what it needs with the small Dijkstra below, which
reads only the graph's arc arrays and never imports
``regretopt.shortest_path``.  The checks assert properties every correct
method must have (a reported path is a real s-t path, an exact optimum is
its path's max regret, a bound certified by its own mixture), never a
stored copy of an earlier run's output.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

# Relative slack for comparing two float computations of the same quantity.
REL_TOL = 1e-9

PENALIZING = "penalizing"
FAVORING = "favoring"


class CheckFailure(AssertionError):
    """A program output violates a property the method guarantees."""


class Net:
    """Arc arrays and adjacency of one graph, copied out of the program's object."""

    def __init__(self, node_count, tails, heads, lo, hi, source, target):
        self.node_count = int(node_count)
        self.tails = [int(u) for u in tails]
        self.heads = [int(v) for v in heads]
        self.lo = np.array(lo, dtype=float)
        self.hi = np.array(hi, dtype=float)
        self.source = int(source)
        self.target = int(target)
        self.m = len(self.tails)
        self.adj = [[] for _ in range(self.node_count)]
        for e, (u, v) in enumerate(zip(self.tails, self.heads)):
            self.adj[u].append((v, e))

    @classmethod
    def of(cls, graph) -> "Net":
        return cls(graph.node_count, graph.tails, graph.heads, graph.lo, graph.hi, graph.source, graph.target)


def _dijkstra(adj, source: int, target: int | None):
    """Distances and predecessor labels over adjacency lists of (head, weight, label).

    Stops once target is settled; target None settles everything reachable.
    """
    dist = [math.inf] * len(adj)
    pred = [None] * len(adj)
    done = [False] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == target:
            break
        for v, w, label in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                pred[v] = label
                heapq.heappush(heap, (d + w, v))
    return dist, pred


def _arc_adjacency(net: Net, costs):
    c = [float(x) for x in costs]
    return [[(v, c[e], e) for v, e in out] for out in net.adj]


def _walk_back(net: Net, pred) -> list[int]:
    path = []
    node = net.target
    while node != net.source:
        e = pred[node]
        path.append(e)
        node = net.tails[e]
    path.reverse()
    return path


def shortest(net: Net, costs) -> tuple[float, list[int] | None]:
    """Cheapest s-t distance and one path attaining it; (inf, None) when unreachable."""
    dist, pred = _dijkstra(_arc_adjacency(net, costs), net.source, net.target)
    if math.isinf(dist[net.target]):
        return math.inf, None
    return dist[net.target], _walk_back(net, pred)


def sp_value(net: Net, costs) -> float:
    return shortest(net, costs)[0]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _at_most(a: float, b: float) -> bool:
    return a <= b + REL_TOL * max(1.0, abs(a), abs(b))


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


def check_path(net: Net, edges) -> list[int]:
    """The arcs must chain from source to target without revisiting a node."""
    edges = [int(e) for e in edges]
    require(len(edges) > 0, "empty path")
    node = net.source
    seen = {node}
    for e in edges:
        require(0 <= e < net.m, "arc id %d out of range" % e)
        require(net.tails[e] == node, "arc %d does not continue the path at node %d" % (e, node))
        node = net.heads[e]
        require(node not in seen, "path revisits node %d" % node)
        seen.add(node)
    require(node == net.target, "path ends at node %d, not at the target" % node)
    return edges


def max_regret(net: Net, edges) -> float:
    """Regret of a path under its penalizing scenario: hi on the path, lo elsewhere."""
    edges = check_path(net, edges)
    costs = net.lo.copy()
    costs[edges] = net.hi[edges]
    return float(sum(net.hi[e] for e in edges)) - sp_value(net, costs)


def midpoint_regret(net: Net) -> float:
    """Max regret of the midpoint-optimal path, found by this module's own search."""
    _, path = shortest(net, (net.lo + net.hi) / 2.0)
    return max_regret(net, path)


def scenario_costs(net: Net, defining, kind: str) -> np.ndarray:
    """Dense costs of an extreme scenario named by a defining arc set and its kind."""
    members = sorted(int(e) for e in defining)
    if kind == PENALIZING:
        costs = net.lo.copy()
        costs[members] = net.hi[members]
    elif kind == FAVORING:
        costs = net.hi.copy()
        costs[members] = net.lo[members]
    else:
        raise CheckFailure("unknown scenario kind %r" % (kind,))
    return costs


def mixture_bound(net: Net, scenarios, probs) -> float:
    """SP(mean costs) - sum q * SP(c): a lower bound on the optimal max regret for any q.

    ``scenarios`` holds (defining arc set, kind) pairs; the expansion to
    dense costs and every shortest path are computed here.
    """
    q = np.asarray(probs, dtype=float)
    require(len(q) == len(scenarios) and len(q) > 0, "one probability per scenario required")
    require(bool((q >= 0).all()) and _close(float(q.sum()), 1.0), "scenario weights are not a distribution")
    mean = np.zeros(net.m)
    expected_opt = 0.0
    for qj, (defining, kind) in zip(q, scenarios):
        costs = scenario_costs(net, defining, kind)
        mean += qj * costs
        expected_opt += qj * sp_value(net, costs)
    return sp_value(net, mean) - expected_opt


def two_unit_flow(net: Net) -> float:
    """Cheapest routing of two units from source to target when an arc's
    first unit costs lo and its second hi, by two successive shortest paths.

    The second search runs on the residual graph with reduced costs, the
    first search's distances serving as potentials.
    """
    lo = [float(x) for x in net.lo]
    hi = [float(x) for x in net.hi]
    dist, pred = _dijkstra(_arc_adjacency(net, lo), net.source, None)
    require(not math.isinf(dist[net.target]), "target unreachable")
    used = set(_walk_back(net, pred))
    residual = [[] for _ in range(net.node_count)]
    for e, (u, v) in enumerate(zip(net.tails, net.heads)):
        if math.isinf(dist[u]) or math.isinf(dist[v]):
            continue
        if e in used:
            residual[u].append((v, max(hi[e] + dist[u] - dist[v], 0.0), e))
            residual[v].append((u, 0.0, e))  # cancels the first unit
        else:
            residual[u].append((v, max(lo[e] + dist[u] - dist[v], 0.0), e))
    second, _ = _dijkstra(residual, net.source, net.target)
    return 2.0 * dist[net.target] + second[net.target]


def check_cg(net: Net, value: float, path_edges) -> None:
    """At the root the pair bound is SP(midpoint) minus half the two-unit routing cost."""
    check_path(net, path_edges)
    expected = max(sp_value(net, (net.lo + net.hi) / 2.0) - two_unit_flow(net) / 2.0, 0.0)
    require(_close(value, expected), "cg %.12g is not the pair bound %.12g" % (value, expected))


def check_kz(net: Net, value: float, path_edges, mid_regret: float) -> None:
    require(_close(max_regret(net, path_edges), mid_regret), "kz path's max regret is not the midpoint regret")
    require(_close(value, mid_regret / 2.0), "kz %.12g is not half the midpoint regret %.12g" % (value, mid_regret))


def check_game_bound(net: Net, value: float, scenarios, probs) -> float:
    """A converged game bound must equal the bound its own final mixture certifies."""
    certified = mixture_bound(net, scenarios, probs)
    require(_close(value, certified), "game bound %.12g differs from its certificate %.12g" % (value, certified))
    return certified


def check_exact(net: Net, opt: float, path_edges, mid_regret: float, bound: float | None = None) -> None:
    """opt is its path's max regret, and bound <= opt <= midpoint regret <= 2 opt."""
    regret = max_regret(net, path_edges)
    require(_close(opt, regret), "opt %.12g is not its path's max regret %.12g" % (opt, regret))
    require(_at_most(opt, mid_regret), "opt %.12g exceeds the midpoint regret %.12g" % (opt, mid_regret))
    require(_at_most(mid_regret, 2.0 * opt), "midpoint regret %.12g exceeds twice opt %.12g" % (mid_regret, opt))
    if bound is not None:
        require(_at_most(bound, opt), "lower bound %.12g exceeds opt %.12g" % (bound, opt))


def check_at_most(a: float, b: float, what: str) -> None:
    require(_at_most(a, b), "%s: %.12g > %.12g" % (what, a, b))


def check_same(a: float, b: float, what: str) -> None:
    require(_close(a, b), "%s: %.12g != %.12g" % (what, a, b))
