"""The benchmark's three workloads: instance rosters, operations and checks.

Each workload solves a fixed roster of generated instances.  The
benchmark seed does not pick which instances are solved: instance
difficulty varies so much between generator seeds that a different draw
per seed would swamp any change in the program.  Instead the seed draws
a relabelling of every roster graph (a permutation of its node ids and
of its arc order), so each seed hands the program different input arrays
describing the same graphs and the work stays nearly the same; only the
anytime game bound shifts a little, as floating-point sums taken in arc
order break near-ties differently.  The two search-K exact solves are
kept exactly as generated, because they are the roadmap's named cases,
one of which fails today.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

FAULT_LP_TOLERANCE = (
    "known fault: game.solve_zero_sum stops its simplex on an absolute reduced-cost tolerance "
    "(1e-10) of the shifted reciprocal LP but certifies with an absolute 1e-7 in payoff units; "
    "with payoffs in the thousands the two disagree and SolverFailure aborts bb_solve"
)


@dataclass(frozen=True)
class Instance:
    label: str
    graph: object


@dataclass(frozen=True)
class Op:
    """One (instance, method) call: key names the method, index the roster entry."""

    key: str
    index: int
    call: Callable


@dataclass
class Outcome:
    """What one op returned, reduced to what checks and determinism need."""

    signature: tuple
    data: dict = field(default_factory=dict)


def relabel(ro, graph, rng: np.random.Generator):
    """The same graph with permuted node ids and arc order."""
    node_perm = rng.permutation(graph.node_count)
    arc_order = rng.permutation(graph.m)
    return ro.IntervalDigraph(
        graph.node_count,
        node_perm[np.asarray(graph.tails)[arc_order]],
        node_perm[np.asarray(graph.heads)[arc_order]],
        np.asarray(graph.lo)[arc_order],
        np.asarray(graph.hi)[arc_order],
        int(node_perm[graph.source]),
        int(node_perm[graph.target]),
    )


def _scenarios(result) -> list[tuple[frozenset, str]]:
    return [(frozenset(d.defining.members), d.kind) for d in result.scenarios]


# -- operations ------------------------------------------------------------------
# Every call goes through the package namespace at call time, so the tracer's
# wrappers are used when it is installed.


def op_kz(ro, g) -> Outcome:
    rep = ro.lb_kz(g)
    return Outcome(
        (rep.value,),
        {"value": rep.value, "path": rep.artifacts["path"].edges, "mid": rep.artifacts["midpoint_regret"]},
    )


def op_cg(ro, g) -> Outcome:
    rep = ro.lb_cg(g)
    return Outcome((rep.value,), {"value": rep.value, "path": rep.artifacts["path"].edges})


def _midpoint_game(ro, g, max_iterations: int) -> Outcome:
    oracle = ro.sp_oracle(g)
    path, _ = oracle.solve_path(ro.midpoint_scenario(g.instance).costs)
    x = path.indicator()
    config = ro.DoubleOracleConfig(max_iterations=max_iterations)
    result = ro.run_double_oracle(
        g.instance, oracle, [x], [ro.ScenarioDescriptor(x, ro.double_oracle.PENALIZING)], config
    )
    return Outcome(
        (result.lower_bound, result.iterations),
        {
            "value": result.lower_bound,
            "converged": result.converged,
            "scenarios": _scenarios(result),
            "probs": np.array(result.equilibrium.col_probs),
        },
    )


def op_do(ro, g) -> Outcome:
    """Converged game bound from the midpoint seed."""
    return _midpoint_game(ro, g, ro.DoubleOracleConfig().max_iterations)


def op_do10(ro, g) -> Outcome:
    """Ten double-oracle rounds from the midpoint seed: the anytime bound at a fixed budget."""
    return _midpoint_game(ro, g, 10)


def op_bb(strategy: str):
    def run(ro, g) -> Outcome:
        stats = ro.bb_solve(g, strategy)
        return Outcome(
            (stats.opt, stats.optimal_path.edges, stats.nodes_expanded),
            {"value": stats.opt, "path": stats.optimal_path.edges, "complete": stats.complete},
        )

    return run


# -- independent checks ---------------------------------------------------------


def certified_game_value(ro, g, net: checks.Net) -> float | None:
    """The converged game bound, accepted only once its own mixture certifies it.

    None when the program cannot compute it: the LP fault also strikes
    some relabelled K-82 root games, and the checks that need the value
    are then skipped for that instance rather than ending the run.
    """
    try:
        out = op_do(ro, g)
    except ro.SolverFailure as exc:
        print("reference game bound unavailable: SolverFailure: %s [%s]" % (exc, FAULT_LP_TOLERANCE), file=sys.stderr)
        return None
    checks.require(out.data["converged"], "reference game run did not converge")
    return checks.check_game_bound(net, out.data["value"], out.data["scenarios"], out.data["probs"])


def check_bounds(ro, inst: Instance, net: checks.Net, mid: float, results: dict[str, Outcome]) -> None:
    kz, cg, do = results.get("kz"), results.get("cg"), results.get("do")
    game = None
    if do is not None:
        checks.require(do.data["converged"], "do bound did not converge")
        game = checks.check_game_bound(net, do.data["value"], do.data["scenarios"], do.data["probs"])
        checks.check_at_most(game, mid, "game bound above the midpoint regret")
    if kz is not None:
        checks.check_same(kz.data["mid"], mid, "kz midpoint regret")
        checks.check_kz(net, kz.data["value"], kz.data["path"], mid)
    if cg is not None:
        checks.check_cg(net, cg.data["value"], cg.data["path"])
    for name, out in (("kz", kz), ("cg", cg)):
        if out is not None and game is not None:
            checks.check_at_most(out.data["value"], game, "%s above the converged game bound" % name)


def check_search(ro, inst: Instance, net: checks.Net, mid: float, results: dict[str, Outcome]) -> None:
    game = certified_game_value(ro, inst.graph, net)
    if game is not None:
        checks.check_at_most(game, mid, "game bound above the midpoint regret")
    ceiling = mid if game is None else game
    opts = []
    for key, out in results.items():
        if key.startswith("bb_"):
            checks.require(out.data["complete"], "%s stopped before proving optimality" % key)
            checks.check_exact(net, out.data["value"], out.data["path"], mid, bound=game)
            opts.append((key, out.data["value"]))
        elif key == "do10":
            # Anytime bounds never exceed the game value; the returned final
            # mixture certifies a valid bound of its own.
            checks.check_at_most(out.data["value"], ceiling, "do10 above the converged game bound")
            final = checks.mixture_bound(net, out.data["scenarios"], out.data["probs"])
            checks.check_at_most(final, ceiling, "do10 final mixture certifies more than the game value")
    for key, opt in opts[1:]:
        checks.check_same(opt, opts[0][1], "%s and %s disagree on opt" % (key, opts[0][0]))


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Callable  # (harness) -> list of (GeneratorSpec, relabelled?)
    methods: dict  # key -> op
    schedule: Callable  # roster size -> ordered (key, index) pairs of one round
    warmup: Callable  # (harness) -> GeneratorSpec of a small instance
    check: Callable

    def build(self, ro, harness, seed: int) -> list[Instance]:
        out = []
        for index, (spec, relabelled) in enumerate(self.specs(harness)):
            graph = harness.gen_instance(spec)
            if relabelled:
                graph = relabel(ro, graph, np.random.default_rng([seed, index]))
            out.append(Instance("%s#%d" % (spec.name, spec.seed), graph))
        return out

    def ops(self, roster: list[Instance]) -> list[Op]:
        return [Op(key, i, self.methods[key]) for key, i in self.schedule(len(roster))]


def _r_specs(n, delta, count):
    return lambda h: [(h.GeneratorSpec("R", n, 1000.0, 1.0, delta=delta, seed=s), True) for s in range(count)]


def _each_instance(*keys):
    return lambda n: [(key, i) for i in range(n) for key in keys]


SEARCH_K_EXACT = (0, 3)  # the roadmap's scaling case, and the instance the LP fault aborts
SEARCH_K_ANYTIME = 40
ANYTIME_PASSES = 3  # do10 passes before, between and after the exact solves


def _k82(h, seed):
    return h.GeneratorSpec("K", 82, 1000.0, 1.0, w=4, seed=seed)


def _search_k_schedule(n):
    """Anytime passes around each exact solve.

    One exact solve takes tens of seconds, so a round is the whole run.
    Repeating the short do10 calls in passes spread across the round gives
    each of them enough repeats for a steady median.
    """
    exact = len(SEARCH_K_EXACT)
    anytime = [("do10", i) for i in range(exact, n)] * ANYTIME_PASSES
    out = list(anytime)
    for i in range(exact):
        out += [("bb_do", i)] + anytime
    return out


WORKLOADS = {
    "bounds-R": Workload(
        "bounds-R",
        _r_specs(1000, 0.006, 15),
        {"kz": op_kz, "cg": op_cg, "do": op_do},
        _each_instance("kz", "cg", "do"),
        lambda h: h.GeneratorSpec("R", 200, 1000.0, 1.0, delta=0.03, seed=1000),
        check_bounds,
    ),
    "search-R": Workload(
        "search-R",
        _r_specs(40, 0.2, 50),
        {"bb_mgd": op_bb("mgd"), "bb_cg": op_bb("cg"), "bb_do": op_bb("do")},
        _each_instance("bb_mgd", "bb_cg", "bb_do"),
        lambda h: h.GeneratorSpec("R", 40, 1000.0, 1.0, delta=0.2, seed=1000),
        check_search,
    ),
    "search-K": Workload(
        "search-K",
        lambda h: [(_k82(h, s), False) for s in SEARCH_K_EXACT] + [(_k82(h, s), True) for s in range(SEARCH_K_ANYTIME)],
        {"bb_do": op_bb("do"), "do10": op_do10},
        _search_k_schedule,
        lambda h: h.GeneratorSpec("K", 22, 1000.0, 1.0, w=4, seed=1000),
        check_search,
    ),
}


# (workload, method, roster index) -> label of a failure that happens every time today
KNOWN_FAILURES = {("search-K", "bb_do", SEARCH_K_EXACT.index(3)): FAULT_LP_TOLERANCE}
