"""The game bound against the linear relaxation it equals.

For shortest paths, the converged regret game's value is the optimum of the
LP relaxation of the Karasan-Pinar-Yaman formulation: over a unit s-t flow
x in [0, 1] and free node potentials pi,

    minimise   sum_e hi_e x_e - (pi_t - pi_s)
    subject to pi_v - pi_u - (hi_e - lo_e) x_e <= lo_e   for each arc e = (u, v).

For a fixed x the potentials price the shortest path under the costs
lo + (hi - lo) x, so at a 0/1 path x the objective is that path's maximum
regret.  The LP is built with scipy.sparse and solved with HiGHS; the
library itself never imports scipy.

At a branch-and-bound node the solution player is held to the node's
paths: x is 1 on the forced prefix, and 0 on the forbidden arcs and on
every other arc into or out of a prefix node but its end, which the node's
searches ban.  The scenario player, and with it pi, still ranges over the
whole graph.
"""

import random

import numpy as np
import pytest

sparse = pytest.importorskip("scipy.sparse")
optimize = pytest.importorskip("scipy.optimize")

from regretopt import PathConstraint, bb_solve, constrained_sp, run_double_oracle, sp_oracle  # noqa: E402
from regretopt.harness import GeneratorSpec, gen_instance  # noqa: E402

SPECS = [GeneratorSpec(family="R", n=20, r=1000.0, d=1.0, delta=0.3, seed=s) for s in range(12)] + [
    GeneratorSpec(family="K", n=22, r=1000.0, d=1.0, w=4, seed=s) for s in range(12)
]


def relaxation_value(graph, constraint=None) -> float:
    """Optimum of the LP relaxation at the root, or at the node of the given constraint.

    The variables are x per arc, then pi per node.
    """
    m, n = graph.m, graph.node_count
    arcs = np.arange(m)
    tails, heads = np.asarray(graph.tails), np.asarray(graph.heads)
    cost = np.concatenate([graph.hi, np.zeros(n)])
    cost[m + graph.target] = -1.0
    # Flow conservation: one unit leaves the source and reaches the target.
    conservation = sparse.csr_matrix(
        (np.r_[np.ones(m), -np.ones(m)], (np.r_[tails, heads], np.r_[arcs, arcs])), shape=(n, m + n)
    )
    supply = np.zeros(n)
    supply[graph.source], supply[graph.target] = 1.0, -1.0
    # One dual row per arc: pi_head - pi_tail - width * x <= lo.
    potentials = sparse.csr_matrix(
        (np.r_[np.ones(m), -np.ones(m), -graph.instance.width], (np.r_[arcs, arcs, arcs], np.r_[m + heads, m + tails, arcs])),
        shape=(m, m + n),
    )
    bounds = [(0.0, 1.0)] * m + [(None, None)] * n
    if constraint is not None:
        banned = set(constraint.nodes[:-1])
        for e in range(m):
            if e in constraint.out_set or tails[e] in banned or heads[e] in banned:
                bounds[e] = (0.0, 0.0)
        for e in constraint.in_chain:
            bounds[e] = (1.0, 1.0)
    bounds[m + graph.source] = (0.0, 0.0)  # potentials are defined up to a shift
    res = optimize.linprog(
        cost, A_ub=potentials, b_ub=graph.lo, A_eq=conservation, b_eq=supply, bounds=bounds, method="highs"
    )
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "%s#%d" % (s.name, s.seed))
def test_the_converged_game_bound_is_the_root_relaxation(spec):
    graph = gen_instance(spec)
    lp = relaxation_value(graph)
    tol = 1e-9 * max(1.0, abs(lp))
    oracle = sp_oracle(graph)
    x_mid, _ = oracle.solve(graph.instance.mid)
    result = run_double_oracle(graph.instance, oracle, [x_mid])
    assert result.converged
    assert abs(result.lower_bound - lp) <= tol
    # Every anytime bound on the way is a valid bound, so none passes the LP.
    assert max(result.trace) <= lp + tol
    stats = bb_solve(graph, "do")
    assert stats.complete
    assert stats.opt >= lp - tol


def random_nodes(graph, rng, count):
    """Constraints reached from the root by up to five random take or skip splits, each with a path left."""
    nodes = []
    while len(nodes) < count:
        constraint = PathConstraint(graph)
        for _ in range(rng.randint(1, 5)):
            free = [e for e in graph.out_edges[constraint.end] if e not in constraint.out_set and graph.heads.item(e) not in constraint.nodes]
            if not free:
                break
            take, skip = constraint.split(rng.choice(free))
            child = take if rng.random() < 0.5 else skip
            if child.end == graph.target or constrained_sp(graph, graph.lo, child) is None:
                break
            constraint = child
        if constraint.in_chain or constraint.out_set:
            nodes.append(constraint)
    return nodes


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "%s#%d" % (s.name, s.seed))
def test_a_converged_node_game_is_the_node_relaxation(spec):
    graph = gen_instance(spec)
    oracle = sp_oracle(graph)
    for constraint in random_nodes(graph, random.Random(spec.seed), 4):
        lp = relaxation_value(graph, constraint)
        tol = 1e-9 * max(1.0, abs(lp))
        seed, _ = oracle.solve(graph.instance.mid, constraint)
        result = run_double_oracle(graph.instance, oracle, [seed], restriction=constraint)
        assert result.converged
        assert abs(result.lower_bound - lp) <= tol
        assert max(result.trace) <= lp + tol
