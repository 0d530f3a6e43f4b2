"""Hand-checked instances shared across test modules, and a relabelling helper.

The six-node graph is the worked routing example used throughout the
docs; every golden number asserted against it was derived by hand and
cross-checked with the enumeration oracles before the solvers existed.
relabel hands a solver the same graph under other node and arc ids.
"""

from __future__ import annotations

import numpy as np

from regretopt import IntervalDigraph, IntervalInstance

# Edge order: (1,2) (1,3) (2,3) (2,4) (3,4) (3,5) (4,6) (5,6), 1-based nodes.
SIX_NODE_EDGES = [
    (0, 1, 2.0, 4.0),
    (0, 2, 3.0, 5.0),
    (1, 2, 1.0, 2.0),
    (1, 3, 1.0, 4.0),
    (2, 3, 2.0, 3.0),
    (2, 4, 2.0, 3.0),
    (3, 5, 2.0, 3.0),
    (4, 5, 1.0, 2.0),
]


def six_node_graph() -> IntervalDigraph:
    return IntervalDigraph.from_edges(6, SIX_NODE_EDGES, 0, 5)


def two_arc_graph() -> IntervalDigraph:
    """Two parallel arcs, intervals [5,10] and [7,12]; regret matrix [[0,3],[7,0]]."""
    return IntervalDigraph.from_edges(2, [(0, 1, 5.0, 10.0), (0, 1, 7.0, 12.0)], 0, 1)


def loop_graph() -> IntervalDigraph:
    """Source 0, target 3, an arc 2 -> 0 back to the source and an arc 3 -> 1 out of the target."""
    rows = [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (2, 0, 0.0, 0.0), (2, 3, 9.0, 9.0), (0, 3, 1.0, 1.0), (3, 1, 1.0, 1.0)]
    return IntervalDigraph.from_edges(4, rows, 0, 3)


def relabel(graph: IntervalDigraph, rng: np.random.Generator) -> IntervalDigraph:
    """The same graph with permuted node ids and arc order."""
    node_perm = rng.permutation(graph.node_count)
    arc_order = rng.permutation(graph.m)
    return IntervalDigraph(
        graph.node_count,
        node_perm[np.asarray(graph.tails)[arc_order]],
        node_perm[np.asarray(graph.heads)[arc_order]],
        np.asarray(graph.lo)[arc_order],
        np.asarray(graph.hi)[arc_order],
        int(node_perm[graph.source]),
        int(node_perm[graph.target]),
    )


def five_element_instance() -> IntervalInstance:
    """Five cost intervals used in the scenario-construction examples."""
    return IntervalInstance(
        lo=np.array([3.0, 1.0, 1.0, 3.0, 0.0]),
        hi=np.array([4.0, 5.0, 2.0, 3.0, 6.0]),
    )
