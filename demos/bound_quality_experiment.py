"""Compare the lower bounds on a generated benchmark family.

Generates a handful of dense random instances, computes each bound with
its own timer, solves every instance exactly for reference, and prints
mean gap ratios.  A gap of 1.0 means the bound matched the optimum; the
interesting question is how much of the gap the game bound closes over
the closed-form bounds, and what the extra oracle calls cost.

The iteration-capped variants (do5, do10, ...) show the anytime
trade-off: most of the improvement arrives in the first few rounds.
"""

from regretopt.harness import GeneratorSpec
from regretopt.harness.experiments import run_lb_experiment

SPEC = GeneratorSpec(family="R", n=120, r=1000.0, d=1.0, delta=0.08, seed=7)
SEEDS = 8
BOUNDS = ("kz", "cg", "do5", "do10", "do")


def main() -> None:
    print("family %s, %d seeds, exact reference via branch and bound\n" % (SPEC.name, SEEDS))
    records, table = run_lb_experiment(SPEC.seeds(SEEDS), BOUNDS, exact=True)
    failed = [r for r in records if "error" in r]
    if failed:
        raise SystemExit("instance generation failed: %s" % failed)

    print("%-6s %12s %12s %12s" % ("bound", "gap-opt", "gap-midsol", "mean ms"))
    for name in BOUNDS:
        stats = table[name]
        print("%-6s %12.3f %12.3f %12.2f"
              % (name, stats["gap_opt_mean"], stats["gap_medsol_mean"], stats["time_ms_mean"]))

    opt_ms = sum(r["opt_time_ms"] for r in records) / len(records)
    print("\nexact solves averaged %.1f ms per instance" % opt_ms)
    print("(gap-midsol divides the midpoint route's regret by the bound;")
    print(" gap-opt divides the true optimum by the bound)")


if __name__ == "__main__":
    main()
