"""Exhaustive reference computations for small graphs.

Everything here enumerates all source-target paths outright, so it is
only usable on instances with at most a few thousand paths.  The point
is independence: none of these functions call the incremental solvers,
which makes them trustworthy as ground truth in tests.
"""

from __future__ import annotations

import numpy as np

from ..core import SolutionIndicator
from ..game import Equilibrium, solve_zero_sum
from ..shortest_path import IntervalDigraph, Path


def enumerate_paths(graph: IntervalDigraph, path_limit: int = 1_000_000) -> list[Path]:
    """All simple source-target paths, DFS exploring edges in id order.

    Raises ValueError once more than path_limit paths exist.
    """
    paths: list[Path] = []
    stack: list[int] = []
    heads = graph.heads.tolist()
    on_path = [False] * graph.node_count
    on_path[graph.source] = True

    def walk(node: int) -> None:
        if node == graph.target:
            if len(paths) >= path_limit:
                raise ValueError("more than %d paths" % path_limit)
            paths.append(Path(tuple(stack)))
            return
        for e in graph.out_edges[node]:
            head = heads[e]
            if on_path[head]:
                continue
            on_path[head] = True
            stack.append(e)
            walk(head)
            stack.pop()
            on_path[head] = False

    walk(graph.source)
    return paths


def _path_matrix(graph: IntervalDigraph, paths: list[Path]) -> np.ndarray:
    mat = np.zeros((len(paths), graph.m))
    for i, p in enumerate(paths):
        mat[i, list(p.edges)] = 1.0
    return mat


def brute_force_opt(graph: IntervalDigraph, path_limit: int = 1_000_000) -> tuple[Path, float, list[float]]:
    """Minmax-regret optimum by enumeration.

    Returns (best path, its max regret, max regret of every path in
    enumeration order).  Ties go to the earliest path enumerated.
    """
    paths = enumerate_paths(graph, path_limit)
    mat = _path_matrix(graph, paths)
    width = graph.hi - graph.lo
    # Worst case for path x is its penalizing scenario: hi on x, lo off it.
    scenarios = graph.lo[None, :] + width[None, :] * mat
    values = mat @ scenarios.T  # values[y, x] = val(y, penalizing(x))
    regrets = (np.diagonal(values) - values.min(axis=0)).tolist()
    best = int(np.argmin(regrets))
    return paths[best], float(regrets[best]), [float(r) for r in regrets]


def brute_force_lb_star(
    graph: IntervalDigraph, path_limit: int = 100_000
) -> tuple[float, Equilibrium, list[Path]]:
    """Exact game value over all paths and all of their favoring scenarios.

    Builds the complete regret matrix in one shot and solves it with the
    same LP routine the incremental algorithm uses, but with no column or
    row generation involved.
    """
    paths = enumerate_paths(graph, path_limit)
    mat = _path_matrix(graph, paths)
    width = graph.hi - graph.lo
    scenarios = graph.hi[None, :] - width[None, :] * mat  # favoring each path
    values = mat @ scenarios.T  # values[x, y] = val(x, favoring(y))
    regret = values - values.min(axis=0, keepdims=True)
    eq = solve_zero_sum(regret)
    return eq.value, eq, paths


def brute_force_max_regret(graph: IntervalDigraph, members: frozenset[int] | SolutionIndicator) -> float:
    """Max regret of one solution, scanning every path as the adversary."""
    if isinstance(members, SolutionIndicator):
        members = members.members
    paths = enumerate_paths(graph)
    mat = _path_matrix(graph, paths)
    ind = np.zeros(graph.m)
    ind[list(members)] = 1.0
    scenario = graph.lo + (graph.hi - graph.lo) * ind
    return float(ind @ scenario - (mat @ scenario).min())
