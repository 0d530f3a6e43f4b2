"""Command line front end.

Subcommands:
  gen     write generated instances as native .ri files
  lb      lower-bound comparison over a generated family or .ri files -> CSV
  bb      exact solve / search-strategy comparison -> CSV
  dimacs  ingest a DIMACS .gr file, perturb costs into intervals, write .ri
  verify  brute-force cross-checks on small instances; a file that cannot
          be read or checked prints an ERROR line and counts as a failure
"""

from __future__ import annotations

import argparse
import os
import sys

from ..bounds import lb_cg, lb_kz
from ..branch_bound import STRATEGIES, BBConfig, bb_solve
from ..double_oracle import run_double_oracle
from ..shortest_path import sp_oracle
from .brute_force import brute_force_lb_star, brute_force_opt
from .experiments import (
    BOUND_NAMES,
    INPUT_ERRORS,
    experiment_rows,
    instance_id,
    load_instance,
    run_bb_experiment,
    run_lb_experiment,
    write_csv,
)
from .generators import GeneratorSpec, gen_instance
from .io import parse_dimacs, perturb_intervals, write_native


def _add_generator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=("R", "K"), help="instance family")
    parser.add_argument("--nodes", type=int, help="node count")
    parser.add_argument("--r", type=float, default=1000.0, help="cost magnitude (default 1000)")
    parser.add_argument("--d", type=float, default=0.5, help="cost variability in [0,1] (default 0.5)")
    parser.add_argument("--delta", type=float, help="edge probability (R family)")
    parser.add_argument("--width", type=int, help="layer width (K family)")
    parser.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    parser.add_argument("--count", type=int, default=1, help="number of seeds (default 1)")


def _generator_spec(args) -> GeneratorSpec:
    if args.family is None or args.nodes is None:
        raise SystemExit("error: --family and --nodes are required without instance files")
    return GeneratorSpec(
        family=args.family, n=args.nodes, r=args.r, d=args.d, delta=args.delta, w=args.width, seed=args.seed
    )


def _sources(args) -> list[GeneratorSpec | str]:
    """The .ri files given on the command line, else the family the flags name."""
    return args.files or _generator_spec(args).seeds(args.count)


def _cmd_gen(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    for sub in _generator_spec(args).seeds(args.count):
        path = os.path.join(args.out, "%s-s%d.ri" % (sub.name, sub.seed))
        write_native(gen_instance(sub), path)
        print(path)
    return 0


def _cmd_lb(args) -> int:
    bounds = BOUND_NAMES if args.lb == "all" else (args.lb,)
    records, table = run_lb_experiment(_sources(args), bounds, args.exact, args.max_support, args.jobs)
    write_csv(experiment_rows(table, records), args.out or sys.stdout)
    return 0


def _cmd_bb(args) -> int:
    strategies = STRATEGIES if args.bb == "all" else (args.bb,)
    config = BBConfig(max_support_x=args.max_support, node_limit=args.node_limit, time_limit_ms=args.time_limit_ms)
    records, table = run_bb_experiment(_sources(args), strategies, config, args.jobs)
    write_csv(experiment_rows(table, records), args.out or sys.stdout)
    return 0


def _cmd_dimacs(args) -> int:
    with open(args.gr) as handle:
        node_count, arcs = parse_dimacs(handle.read())
    source = args.source - 1 if args.source is not None else None
    target = args.target - 1 if args.target is not None else None
    try:
        graph = perturb_intervals(node_count, arcs, args.seed, source, target)
    except ValueError as err:
        raise SystemExit("error: %s" % err) from None
    write_native(graph, args.out)
    print("%s: %d nodes, %d arcs, s=%d, t=%d" % (args.out, graph.node_count, graph.m, graph.source + 1, graph.target + 1))
    return 0


def verify_instance(graph, path_limit: int) -> list[tuple[str, bool, str]]:
    """Cross-check the incremental solvers against the enumeration oracles."""
    checks: list[tuple[str, bool, str]] = []
    _, bf_opt, _ = brute_force_opt(graph, path_limit)
    for strategy in STRATEGIES:
        stats = bb_solve(graph, strategy)
        checks.append(
            ("bb-%s-agrees" % strategy, abs(stats.opt - bf_opt) <= 1e-6, "opt=%g brute=%g" % (stats.opt, bf_opt))
        )
    bf_value, _, _ = brute_force_lb_star(graph, path_limit)
    oracle = sp_oracle(graph)
    kz = lb_kz(graph, oracle)
    x_mid = kz.artifacts["path"].indicator()
    result = run_double_oracle(graph.instance, oracle, [x_mid])
    checks.append(("do-converged", result.converged, "iterations=%d" % result.iterations))
    checks.append(
        ("lb-star-agrees", abs(result.lower_bound - bf_value) <= 1e-6, "do=%g brute=%g" % (result.lower_bound, bf_value))
    )
    lb_values = {"kz": kz.value, "cg": lb_cg(graph).value, "star": result.lower_bound}
    medsol = kz.artifacts["midpoint_regret"]
    tol = 1e-9
    sandwich = (
        lb_values["kz"] <= lb_values["star"] + tol
        and lb_values["cg"] <= lb_values["star"] + tol
        and lb_values["star"] <= bf_opt + 1e-6
        and bf_opt <= medsol + tol
        and medsol <= 2.0 * bf_opt + tol
    )
    checks.append(
        (
            "bound-sandwich",
            sandwich,
            "kz=%g cg=%g star=%g opt=%g medsol=%g" % (lb_values["kz"], lb_values["cg"], lb_values["star"], bf_opt, medsol),
        )
    )
    return checks


def _cmd_verify(args) -> int:
    failures = 0
    for source in _sources(args):
        try:
            checks = verify_instance(load_instance(source), args.path_limit)
        except INPUT_ERRORS as err:
            failures += 1
            print("ERROR %s %s" % (instance_id(source), err))
            continue
        for label, ok, detail in checks:
            if not ok:
                failures += 1
            print("%s %s %s (%s)" % ("PASS" if ok else "FAIL", instance_id(source), label, detail))
    if failures:
        print("%d check(s) failed" % failures)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="regretopt", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate instances and write native .ri files")
    _add_generator_flags(p_gen)
    p_gen.add_argument("--out", default=".", help="output directory (default: current)")
    p_gen.set_defaults(func=_cmd_gen)

    p_lb = sub.add_parser("lb", help="lower-bound comparison, CSV output")
    _add_generator_flags(p_lb)
    p_lb.add_argument("files", nargs="*", help="native .ri files (instead of generator flags)")
    p_lb.add_argument("--lb", choices=BOUND_NAMES + ("all",), default="all", help="bound to run (default all)")
    p_lb.add_argument("--exact", action="store_true", help="also solve exactly for the Gap-Opt column")
    p_lb.add_argument("--max-support", type=int, default=50, help="solution support cap (default 50)")
    p_lb.add_argument("--jobs", type=int, default=1, help="parallel worker processes (default 1)")
    p_lb.add_argument("--out", help="CSV path (default stdout)")
    p_lb.set_defaults(func=_cmd_lb)

    p_bb = sub.add_parser("bb", help="exact solve via branch and bound, CSV output")
    _add_generator_flags(p_bb)
    p_bb.add_argument("files", nargs="*", help="native .ri files (instead of generator flags)")
    p_bb.add_argument("--bb", choices=STRATEGIES + ("all",), default="all", help="bounding strategy (default all)")
    p_bb.add_argument("--max-support", type=int, default=50, help="solution support cap (default 50)")
    p_bb.add_argument("--node-limit", type=int, help="stop after expanding this many nodes")
    p_bb.add_argument("--time-limit-ms", type=float, help="stop after this much wall time")
    p_bb.add_argument("--jobs", type=int, default=1, help="parallel worker processes (default 1)")
    p_bb.add_argument("--out", help="CSV path (default stdout)")
    p_bb.set_defaults(func=_cmd_bb)

    p_dimacs = sub.add_parser("dimacs", help="DIMACS .gr -> native .ri with interval perturbation")
    p_dimacs.add_argument("--gr", required=True, help="input .gr file")
    p_dimacs.add_argument("--seed", type=int, default=0, help="perturbation seed (default 0)")
    p_dimacs.add_argument("--source", type=int, help="source node, 1-based; with --target, or both drawn")
    p_dimacs.add_argument("--target", type=int, help="target node, 1-based; with --source, or both drawn")
    p_dimacs.add_argument("--out", required=True, help="output .ri path")
    p_dimacs.set_defaults(func=_cmd_dimacs)

    p_verify = sub.add_parser("verify", help="brute-force cross-checks on small instances")
    _add_generator_flags(p_verify)
    p_verify.add_argument("files", nargs="*", help="native .ri files (instead of generator flags)")
    p_verify.add_argument("--path-limit", type=int, default=100_000, help="path enumeration cap (default 100000)")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
