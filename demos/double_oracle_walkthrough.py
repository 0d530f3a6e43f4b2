"""The game bound, iteration by iteration, on two parallel arcs.

Two arcs lead from s to t, one costing [5, 10] and one costing [7, 12].
The adversary prices arcs after seeing our (possibly randomized) choice,
so the right mental model is a zero-sum game: we mix over arcs, the
adversary mixes over extreme cost scenarios, and the game value is a
lower bound on the best achievable max regret.

The full game has infinitely many scenarios.  The double-oracle loop
dodges that by keeping small strategy sets for both players, solving the
restricted game exactly, and letting each side add one best response per
round.  We rerun the loop with growing iteration budgets to expose the
anytime staircase, then certify the fixed point with the two oracles.
"""

import numpy as np

from regretopt import (
    DoubleOracleConfig,
    IntervalDigraph,
    ScenarioDescriptor,
    br_c,
    lb_kz,
    run_double_oracle,
    sp_oracle,
)
from regretopt.double_oracle import PENALIZING


def main() -> None:
    graph = IntervalDigraph.from_edges(
        2, [(0, 1, 5.0, 10.0), (0, 1, 7.0, 12.0)], source=0, target=1
    )
    oracle = sp_oracle(graph)
    x_mid = lb_kz(graph, oracle).artifacts["path"].indicator()
    start_c = ScenarioDescriptor(x_mid, PENALIZING)

    print("anytime staircase (bound after n generation rounds):")
    for n in (1, 2, 3, 4):
        budget = DoubleOracleConfig(max_iterations=n)
        bound = run_double_oracle(graph.instance, oracle, [x_mid], [start_c], budget).lower_bound
        print("  n=%d  bound %g" % (n, bound))

    result = run_double_oracle(
        graph.instance, oracle, [x_mid], [start_c], DoubleOracleConfig()
    )
    print("\nconverged after %d iterations, game value %g" % (result.iterations, result.lower_bound))
    print("per-iteration bounds: %s" % ", ".join("%g" % b for b in result.trace))
    print("solutions generated: %s" % [sorted(x.members) for x in result.solutions])
    print("scenarios generated:")
    for desc in result.scenarios:
        print("  %s of %s -> costs %s"
              % (desc.kind, sorted(desc.defining.members), desc.expand(graph.instance).costs))

    eq = result.equilibrium
    print("\nequilibrium mixes arcs with probabilities %s" % np.round(eq.row_probs, 6))

    # Certify: neither oracle can improve on the restricted equilibrium.
    # Regret is linear in the scenario, so the best solution against the
    # scenario mix is the shortest path under the mix's mean costs.
    dense = np.array([d.expand(graph.instance).costs for d in result.scenarios])
    opts = np.array([oracle.solve(c)[1] for c in dense])
    best, _ = oracle.solve(eq.col_probs @ dense)
    on_best = np.isin(np.arange(graph.instance.n), list(best.members))
    best_regret = eq.col_probs @ (dense @ on_best - opts)
    challenger = br_c(graph.instance, oracle, eq.row_probs, result.solutions)
    print("best solution against the scenario mix gets regret %g (no better than %g)"
          % (best_regret, result.lower_bound))
    print("best scenario against the solution mix is %s of %s (already generated: %s)"
          % (challenger.kind, sorted(challenger.defining.members), challenger in result.scenarios))


if __name__ == "__main__":
    main()
