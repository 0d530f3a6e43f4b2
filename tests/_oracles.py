"""Independent reference solvers and test oracles used only by the tests.

The zero-sum reference here finds an equilibrium by square-support
enumeration: for every equally sized row/column support it solves the
indifference equations directly and keeps the first candidate whose
strategies are nonnegative and whose best-response certificates hold.
Nothing is shared with the production solver beyond numpy.

EnumeratedOracle is a standard-problem oracle over an explicit list of
feasible sets, the fake for a problem that is not a shortest path.

full_sweep_fixed_arcs is root arc fixing as first written: two plain
Dijkstras that settle every node, and a Python pass over every arc.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations
from typing import Iterable

import numpy as np

from regretopt import NoFeasibleSolution, SolutionIndicator, favoring_scenario, val

_EPS = 1e-8


class EnumeratedOracle:
    """Oracle over an explicitly listed feasible set; ties keep the first listing."""

    def __init__(self, n: int, solutions: Iterable):
        self.n = int(n)
        normalized = []
        for x in solutions:
            if not isinstance(x, SolutionIndicator):
                x = SolutionIndicator(frozenset(x))
            normalized.append(x)
        if not normalized:
            raise ValueError("oracle needs at least one feasible solution")
        self.solutions = tuple(normalized)

    def solve(self, costs, restriction=None) -> tuple[SolutionIndicator, float]:
        c = np.asarray(costs, dtype=float)
        if c.shape != (self.n,):
            raise ValueError("one cost per element required")
        best = None
        best_value = np.inf
        for x in self.solutions:
            if restriction is not None and not restriction(x):
                continue
            value = float(sum(c[i] for i in x.members))
            if value < best_value:
                best, best_value = x, value
        if best is None:
            raise NoFeasibleSolution("restriction rejects every listed solution")
        return best, best_value


def enum_equilibrium(matrix) -> tuple[float, np.ndarray, np.ndarray]:
    """Equilibrium of a small matrix game by support enumeration.

    Rows minimize, columns maximize.  Supports are scanned by size, then
    lexicographically, so the result is deterministic.
    """
    a = np.asarray(matrix, dtype=float)
    rows, cols = a.shape
    for k in range(1, min(rows, cols) + 1):
        row_supports = list(combinations(range(rows), k))
        col_supports = list(combinations(range(cols), k))
        pairs = [(i, j) for i in row_supports for j in col_supports]
        systems = np.zeros((len(pairs), k + 1, k + 1))
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        for idx, (si, sj) in enumerate(pairs):
            block = a[np.ix_(si, sj)]
            systems[idx, :k, :k] = block.T  # indifference of every support column
            systems[idx, :k, k] = -1.0
            systems[idx, k, :k] = 1.0
        dets = np.linalg.det(systems)
        solvable = np.abs(dets) > 1e-12
        solutions = np.full((len(pairs), k + 1), np.nan)
        if solvable.any():
            solutions[solvable] = np.linalg.solve(systems[solvable], rhs)
        for idx, (si, sj) in enumerate(pairs):
            if not solvable[idx]:
                continue
            p_support = solutions[idx, :k]
            value = solutions[idx, k]
            if p_support.min() < -_EPS:
                continue
            # Column strategy from the transposed indifference system.
            dual = np.zeros((k + 1, k + 1))
            dual[:k, :k] = a[np.ix_(si, sj)]
            dual[:k, k] = -1.0
            dual[k, :k] = 1.0
            if abs(np.linalg.det(dual)) <= 1e-12:
                continue
            q_solution = np.linalg.solve(dual, rhs)
            q_support = q_solution[:k]
            if q_support.min() < -_EPS:
                continue
            p = np.zeros(rows)
            p[list(si)] = np.clip(p_support, 0.0, None)
            p /= p.sum()
            q = np.zeros(cols)
            q[list(sj)] = np.clip(q_support, 0.0, None)
            q /= q.sum()
            if (p @ a).max() <= value + _EPS and (a @ q).min() >= value - _EPS:
                return float(value), p, q
    raise RuntimeError("no equilibrium found by support enumeration")


def _plain_dijkstra(node_count: int, source: int, arcs) -> list[float]:
    """Least cost from source to every node over (tail, head, cost) arcs."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(node_count)]
    for u, v, w in arcs:
        adj[u].append((v, w))
    dist = [math.inf] * node_count
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def full_sweep_through_costs(graph, costs) -> list[float]:
    """Per arc (u, v): d_s(u) + c_uv + d_t(v), from sweeps that settle every node."""
    tails, heads, c = graph.tails.tolist(), graph.heads.tolist(), [float(x) for x in costs]
    d_s = _plain_dijkstra(graph.node_count, graph.source, zip(tails, heads, c))
    d_t = _plain_dijkstra(graph.node_count, graph.target, zip(heads, tails, c))
    return [d_s[u] + w + d_t[v] for u, v, w in zip(tails, heads, c)]


def full_sweep_fixed_arcs(graph, reference: SolutionIndicator, regret: float) -> frozenset[int]:
    """The arcs fixed_arcs fixes, from full forward and reverse sweeps.

    An arc is fixed when d_s(u) + c_uv + d_t(v) - lo(Q) reaches
    regret + 1e-9 * max(1, regret), with c the reference's favoring
    scenario and Q the reference.
    """
    scenario = favoring_scenario(graph.instance, reference)
    lo_q = val(reference, scenario)
    limit = regret + 1e-9 * max(1.0, regret)
    through = full_sweep_through_costs(graph, scenario.costs)
    return frozenset(e for e, cost in enumerate(through) if cost - lo_q >= limit)
