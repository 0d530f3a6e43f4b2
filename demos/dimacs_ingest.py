"""Take a deterministic shortest-path file and make it uncertain.

Public road benchmarks ship point costs in the DIMACS .gr format.  To
study regret on them we widen every cost c into an interval drawn
around it, write the result in the native format, read it back, and let
the brute-force cross-checker confirm that all the solvers agree on the
small result.  The same flow is available on the command line:

    regretopt dimacs --gr grid.gr --seed 3 --out grid.ri
    regretopt verify grid.ri
"""

import os
import tempfile

from regretopt.harness import parse_dimacs, perturb_intervals, read_native, write_native
from regretopt.harness.cli import verify_instance

GR_TEXT = """\
c 3x3 grid, unit-ish costs, node 1 top left, node 9 bottom right
p sp 9 12
a 1 2 40
a 2 3 35
a 4 5 38
a 5 6 41
a 7 8 39
a 8 9 37
a 1 4 42
a 4 7 36
a 2 5 40
a 5 8 43
a 3 6 38
a 6 9 44
"""


def main() -> None:
    node_count, arcs = parse_dimacs(GR_TEXT)
    print("parsed %d nodes, %d arcs" % (node_count, len(arcs)))

    graph = perturb_intervals(node_count, arcs, seed=3, source=0, target=8)
    print("widened costs, for example arc 1->2: %d becomes [%.2f, %.2f]"
          % (arcs[0][2], graph.lo[0], graph.hi[0]))

    with tempfile.NamedTemporaryFile(suffix=".ri", mode="w", delete=False) as handle:
        write_native(graph, handle)
        path = handle.name
    try:
        again = read_native(path)
    finally:
        os.unlink(path)
    print("wrote %s and read it back: %d arcs, terminals %d -> %d"
          % (path, again.m, again.source + 1, again.target + 1))

    print("\ncross-checks against path enumeration:")
    for label, ok, detail in verify_instance(again, path_limit=100_000):
        print("  %s %s (%s)" % ("PASS" if ok else "FAIL", label, detail))


if __name__ == "__main__":
    main()
