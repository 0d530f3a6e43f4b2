"""How the bounding strategy drives branch-and-bound search effort.

High cost variability is the hard regime: intervals are wide, the
midpoint route is a poor guess, and weak root bounds force the search
to branch a lot.  This script solves the same volatile instances with
all three bounding strategies and reports nodes expanded, next to the
arcs the root fixed before branching (no path through them can beat the
midpoint route's regret), then shows
what warm-starting the game bound from the parent node saves, and what
an anytime run under a node budget still guarantees.
"""

from regretopt import BBConfig, bb_solve
from regretopt.harness import GeneratorSpec, gen_instance

SPEC = GeneratorSpec(family="R", n=25, r=1000.0, d=1.0, delta=0.25, seed=0)


def main() -> None:
    print("five volatile instances from %s\n" % SPEC.name)
    print("%-8s %8s %8s %8s %12s" % ("seed", "mgd", "cg", "do", "fixed arcs"))
    graphs = []
    for spec in SPEC.seeds(5):
        graph = gen_instance(spec)
        graphs.append(graph)
        nodes = {}
        for strategy in ("mgd", "cg", "do"):
            stats = bb_solve(graph, strategy)
            nodes[strategy] = stats.nodes_expanded
        print("%-8d %8d %8d %8d %5d of %-4d (opt %.1f)"
              % (spec.seed, nodes["mgd"], nodes["cg"], nodes["do"], stats.fixed_arcs, graph.m, stats.opt))

    print("\nwarm versus cold restricted games, do strategy:")
    for seed, graph in enumerate(graphs[:3]):
        warm = bb_solve(graph, "do", BBConfig(warm_start=True))
        cold = bb_solve(graph, "do", BBConfig(warm_start=False))
        print("  seed %d: warm %d nodes / %.1f ms, cold %d nodes / %.1f ms"
              % (seed, warm.nodes_expanded, warm.elapsed_ms, cold.nodes_expanded, cold.elapsed_ms))

    print("\ntruncated search still returns the incumbent and says so:")
    stats = bb_solve(graphs[0], "do", BBConfig(node_limit=1))
    print("  node_limit=1: regret %.1f, complete=%s" % (stats.opt, stats.complete))
    stats = bb_solve(graphs[0], "do")
    print("  full run:     regret %.1f, complete=%s" % (stats.opt, stats.complete))


if __name__ == "__main__":
    main()
