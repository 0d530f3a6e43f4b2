import random

import numpy as np
import pytest

from regretopt import IntervalDigraph, NoFeasibleSolution, PathConstraint, SolverFailure, branch_bound, double_oracle, lb_mgd, midpoint_scenario, penalizing_scenario, shortest_path
from regretopt.branch_bound import STRATEGIES, BBConfig, NodeBound, bb_solve, fixed_arcs, node_lower_bound, select_branch_edge
from regretopt.harness import GeneratorSpec, gen_instance
from regretopt.harness.brute_force import brute_force_max_regret, brute_force_opt, enumerate_paths
from regretopt.shortest_path import order_path_edges, sp_oracle

from _fixtures import loop_graph, relabel, six_node_graph, two_arc_graph
from _oracles import full_sweep_fixed_arcs


# ------------------------------------------------------------- primitives


def test_branch_splits_into_take_and_skip():
    g = six_node_graph()
    root = PathConstraint(g)
    take, skip = root.split(0)
    assert (take.in_chain, take.out_set, take.end) == ((0,), frozenset(), 1)
    assert (skip.in_chain, skip.out_set, skip.end) == ((), frozenset({0}), 0)
    deeper, _ = take.split(2)
    assert (deeper.in_chain, deeper.nodes) == ((0, 2), (0, 1, 2))
    # Each child is the constraint its parts build, checked in full.
    for child in (take, skip, deeper):
        built = PathConstraint(g, child.in_chain, child.out_set)
        assert child.graph is g and child == built and child.nodes == built.nodes
        assert sorted(child.out_index.tolist()) == sorted(built.out_index.tolist())


def test_branch_rejects_bad_arcs():
    g, loop = six_node_graph(), loop_graph()
    root = PathConstraint(g)
    bad = [
        (root, 99, "branch arc id out of range"),
        (root, -1, "branch arc id out of range"),
        (PathConstraint(g, in_chain=(0,)), 0, "arc already constrained"),
        (PathConstraint(g, out_set=frozenset({3})), 3, "arc already constrained"),
        (root, 7, "branch arc does not extend the forced prefix"),  # arc 7 leaves node 4
        (PathConstraint(loop, in_chain=(0, 1)), 2, "forced prefix revisits a node"),
        (PathConstraint(loop, in_chain=(4,)), 5, "forced prefix passes through the target"),
    ]
    for constraint, k, message in bad:
        with pytest.raises(ValueError) as caught:
            constraint.split(k)
        assert str(caught.value) == message


def test_select_branch_edge_walks_the_response():
    graph = six_node_graph()
    response = node_lower_bound(graph, PathConstraint(graph), "cg").response
    assert response.members == {0, 3, 6}
    assert select_branch_edge(PathConstraint(graph), response) == 0
    assert select_branch_edge(PathConstraint(graph, in_chain=(0,)), response) == 3
    with pytest.raises(ValueError, match="response does not leave the prefix's end"):
        select_branch_edge(PathConstraint(graph, in_chain=(0, 3, 6)), response)
    with pytest.raises(ValueError):
        select_branch_edge(PathConstraint(graph, in_chain=(1,)), response)


def test_node_lower_bound_strategies():
    graph = six_node_graph()
    assert node_lower_bound(graph, PathConstraint(graph), "mgd").value == 0.0
    assert node_lower_bound(graph, PathConstraint(graph), "cg").value == 2.5
    game = node_lower_bound(graph, PathConstraint(graph), "do")
    assert game.value == pytest.approx(2.5, abs=1e-9)
    assert len(game.solutions) >= 1
    with pytest.raises(ValueError):
        node_lower_bound(graph, PathConstraint(graph), "best")
    with pytest.raises(NoFeasibleSolution):
        node_lower_bound(graph, PathConstraint(graph, out_set=frozenset({0, 1})), "cg")


def test_fixed_arcs_carry_no_path_that_beats_the_incumbent():
    """Root arc fixing against the midpoint incumbent, checked by enumerating every path.

    On zero-width graphs the incumbent's regret is 0, so only the margin
    keeps the midpoint path's own arcs (score 0 up to rounding) free.
    """
    zero_width = through_fixed = 0
    for i in range(150):
        d = (0.0, 0.5, 1.0)[i % 3]
        spec = GeneratorSpec(family="R", n=4 + i % 4, r=100.0, d=d, delta=0.5 + 0.1 * (i % 5), seed=2400 + i)
        graph = gen_instance(spec)
        oracle = sp_oracle(graph)
        mid, _ = oracle.solve(midpoint_scenario(graph.instance).costs)
        incumbent = double_oracle.max_regret(graph.instance, oracle, mid)
        fixed = PathConstraint.forbidding(graph, fixed_arcs(graph, mid, incumbent)).out_set
        assert fixed.isdisjoint(mid.members)
        # brute_force_opt lists every path's regret, by enumeration, in enumerate_paths order.
        _, _, regrets = brute_force_opt(graph)
        for path, regret in zip(enumerate_paths(graph), regrets, strict=True):
            if not fixed.isdisjoint(path.edges):
                assert regret >= incumbent - 1e-9
                through_fixed += 1
        assert bb_solve(graph, "cg").fixed_arcs == len(fixed)
        if d == 0.0:
            assert incumbent == 0.0
            zero_width += 1
    assert zero_width == 50 and through_fixed > 3000


def _fixing_cases(graph):
    """The midpoint incumbent with its own regret, and with a half and a zero one."""
    oracle = sp_oracle(graph)
    mid, _ = oracle.solve(midpoint_scenario(graph.instance).costs)
    incumbent = double_oracle.max_regret(graph.instance, oracle, mid)
    return [(mid, incumbent), (mid, incumbent / 2.0), (mid, 0.0)]


def _integer_costs(graph):
    """The same arcs with costs cut to a few integer levels, so walks tie often."""
    return IntervalDigraph(
        graph.node_count, graph.tails, graph.heads, np.floor(graph.lo / 250.0), np.floor(graph.hi / 250.0),
        graph.source, graph.target,
    )


def _check_root(graph, reference, regret):
    """The root built straight from fixed_arcs' per-arc flags, against the checked constructor on the full sweep's set."""
    root = PathConstraint.forbidding(graph, fixed_arcs(graph, reference, regret))
    checked = PathConstraint(graph, out_set=full_sweep_fixed_arcs(graph, reference, regret))
    assert root.graph is graph
    k = select_branch_edge(root, reference)
    for ours, built in zip((root, *root.split(k)), (checked, *checked.split(k))):
        assert (ours.in_chain, ours.out_set, ours.nodes, ours.end) == (built.in_chain, built.out_set, built.nodes, built.end)
        assert ours.out_index.dtype == built.out_index.dtype and not ours.out_index.flags.writeable
        np.testing.assert_array_equal(np.sort(ours.out_index), np.sort(built.out_index))
    return root


def test_bounded_fixing_matches_the_full_sweep():
    """fixed_arcs cuts its searches off near the limit; the fixed set, and the root it builds, must not notice."""
    graphs = 0
    for i in range(240):
        d = (0.0, 0.5, 1.0)[i % 3]
        if i % 2:
            spec = GeneratorSpec(family="K", n=2 + 3 * (2 + i % 5), r=1000.0, d=d, w=3, seed=3100 + i)
        else:
            spec = GeneratorSpec(family="R", n=5 + i % 20, r=1000.0, d=d, delta=0.2 + 0.05 * (i % 9), seed=3100 + i)
        graph = gen_instance(spec)
        if i % 4 == 3:
            graph = _integer_costs(graph)
        for reference, regret in _fixing_cases(graph):
            _check_root(graph, reference, regret)
        graphs += 1
    assert graphs >= 200


def test_forbidding_takes_one_flag_per_arc():
    g = six_node_graph()
    root = PathConstraint.forbidding(g, np.arange(g.m) % 3 == 0)
    np.testing.assert_array_equal(root.out_index, [0, 3, 6])
    # out_set is built on first read, so a root that never branches never builds it.
    assert "out_set" not in vars(root)
    assert root == PathConstraint(g, out_set=frozenset({0, 3, 6})) and root.out_set == {0, 3, 6}
    assert PathConstraint.forbidding(g, np.zeros(g.m, dtype=bool)).out_set == frozenset()
    for mask in (np.zeros(g.m - 1, dtype=bool), np.zeros((1, g.m), dtype=bool)):
        with pytest.raises(ValueError, match="one flag per arc"):
            PathConstraint.forbidding(g, mask)


def test_bounded_fixing_matches_the_full_sweep_on_the_search_roster():
    # The benchmark's search-R graphs, as generated: R-40, delta 0.2, seeds 0-49.
    fixed = arcs = 0
    for seed in range(50):
        graph = gen_instance(GeneratorSpec(family="R", n=40, r=1000.0, d=1.0, delta=0.2, seed=seed))
        reference, regret = _fixing_cases(graph)[0]
        found = _check_root(graph, reference, regret).out_set
        fixed += len(found)
        arcs += graph.m
    assert (fixed, arcs) == (15064, 15656)


# ------------------------------------------------------------- full search


def test_every_strategy_solves_the_fixtures():
    six = six_node_graph()
    two = two_arc_graph()
    # Node counts pin search determinism on this graph, not a theorem.
    expected_nodes = {"mgd": 11, "cg": 9, "do": 2}
    for strategy in ("mgd", "cg", "do"):
        stats = bb_solve(six, strategy)
        assert stats.complete
        assert stats.opt == 4.0
        assert stats.optimal_path.edges == (0, 2, 5, 7)
        assert stats.nodes_expanded == expected_nodes[strategy]

        stats = bb_solve(two, strategy)
        assert stats.complete
        assert stats.opt == 3.0
        assert stats.optimal_path.edges == (0,)
        # Fixing forbids arc 1, which leaves the incumbent's arc alone free:
        # mgd and cg bound no root, and the game prunes its root on the first pop.
        assert stats.nodes_expanded == (strategy == "do")


# (family, generator seed) -> (opt.hex(), optimal path, nodes expanded by
# mgd, cg, warm do and cold do), all with r=1000 and d=1.  These pin the
# search's exact answers and its node order, not a theorem: a change meant
# to keep the search's answers must keep every bit and count here.
GOLDEN_SEARCHES = {
    ("R", 0): ("0x1.267013d861601p+8", (2, 91, 215, 232), (4, 5, 1, 1)),
    ("R", 1): ("0x1.2e4fb7628250fp+7", (0, 15, 66), (1, 3, 1, 1)),
    ("R", 2): ("0x1.72d92d889d1dap+9", (4, 154, 84, 109), (15, 15, 7, 8)),
    ("R", 3): ("0x1.d1dead4d1572bp+8", (4, 220, 36, 120, 79, 49, 94, 210, 61), (9, 16, 3, 3)),
    ("R", 4): ("0x1.cb6ccfadf902ap+8", (2, 136, 149, 262, 38, 218), (6, 9, 4, 4)),
    ("R", 5): ("0x1.72606f090c1a4p+7", (4, 196), (1, 4, 1, 1)),
    ("R", 6): ("0x1.b562d0f971a40p+6", (0, 71, 104, 243), (0, 0, 1, 1)),
    ("R", 7): ("0x1.23227214e1a98p+8", (2, 199), (1, 2, 1, 1)),
    ("K", 0): ("0x1.945834c657a84p+9", (3, 16, 20, 36, 53, 69), (33, 22, 5, 6)),
    ("K", 1): ("0x1.6ca24b84de21cp+9", (2, 14, 28, 36, 54, 70), (21, 12, 7, 7)),
    ("K", 2): ("0x1.32f4c65d8cebep+10", (3, 17, 26, 47, 64, 68), (53, 43, 1, 1)),
    ("K", 3): ("0x1.2d07fc273dec4p+8", (0, 4, 20, 39, 67, 71), (0, 0, 1, 1)),
}


@pytest.mark.parametrize("family, seed", sorted(GOLDEN_SEARCHES))
def test_golden_search_outcomes(family, seed):
    if family == "R":
        spec = GeneratorSpec(family="R", n=40, r=1000.0, d=1.0, delta=0.2, seed=seed)
    else:
        spec = GeneratorSpec(family="K", n=22, r=1000.0, d=1.0, w=4, seed=seed)
    graph = gen_instance(spec)
    opt_hex, path, nodes = GOLDEN_SEARCHES[family, seed]
    runs = (("mgd", True), ("cg", True), ("do", True), ("do", False))
    for (strategy, warm_start), expected_nodes in zip(runs, nodes, strict=True):
        stats = bb_solve(graph, strategy, BBConfig(warm_start=warm_start))
        assert stats.complete
        assert (stats.opt.hex(), stats.optimal_path.edges, stats.nodes_expanded) == (opt_hex, path, expected_nodes)


def test_exact_solves_do_not_depend_on_the_labelling():
    """Every strategy's optimum, on small R and K graphs and three relabelled copies of each.

    Root fixing agrees too, but on the copies with integer costs: there the
    midpoint incumbent it fixes against is one of several tied paths, and
    the tie rule (the smallest arc id) picks it by label.
    """
    specs = [GeneratorSpec(family="R", n=16 + 4 * (i % 3), r=1000.0, d=1.0, delta=0.25, seed=i) for i in range(12)]
    specs += [GeneratorSpec(family="K", n=18 + 4 * (i % 3), r=1000.0, d=1.0, w=4, seed=i) for i in range(12)]
    branched = 0
    for spec in specs:
        for tied in (False, True):
            graph = gen_instance(spec)
            graph = _integer_costs(graph) if tied else graph
            copies = [relabel(graph, np.random.default_rng([spec.seed, spec.n, k])) for k in range(3)]
            for strategy in STRATEGIES:
                stats = bb_solve(graph, strategy)
                assert stats.complete
                branched += stats.nodes_expanded > 1
                for copy in copies:
                    relabelled = bb_solve(copy, strategy)
                    assert relabelled.opt.hex() == stats.opt.hex()
                    assert tied or relabelled.fixed_arcs == stats.fixed_arcs
    assert branched >= 50


def _golden_graph(family, seed):
    if family == "R":
        return gen_instance(GeneratorSpec(family="R", n=40, r=1000.0, d=1.0, delta=0.2, seed=seed))
    return gen_instance(GeneratorSpec(family="K", n=22, r=1000.0, d=1.0, w=4, seed=seed))


@pytest.mark.parametrize("family, seed", (("R", 0), ("R", 3), ("K", 0), ("K", 2)))
def test_mgd_take_child_keeps_its_parents_bound(family, seed):
    """Forcing the response's next arc changes neither the mgd bound nor the response."""
    graph = _golden_graph(family, seed)
    rng = random.Random(seed)
    checked = 0
    for _ in range(6):
        constraint = PathConstraint(graph)
        node = node_lower_bound(graph, constraint, "mgd")
        while constraint.end != graph.target:
            k = select_branch_edge(constraint, node.response)
            take, skip = constraint.split(k)
            assert node.response.members.issuperset(take.in_chain)
            assert node.response.members.isdisjoint(take.out_set)
            assert lb_mgd(graph, take).value == pytest.approx(node.value, rel=1e-12)
            checked += 1
            if rng.random() < 0.5:
                try:
                    constraint, node = skip, node_lower_bound(graph, skip, "mgd")
                    continue
                except NoFeasibleSolution:
                    pass
            constraint = take
    assert checked >= 20


def test_mgd_search_bounds_no_take_child(monkeypatch):
    """A take child reuses its parent's mgd bound; only roots and skip children are bounded."""
    takes, bounded = [], []
    plain_split, plain_lb_mgd = PathConstraint.split, branch_bound.lb_mgd

    def recording_split(constraint, k):
        take, skip = plain_split(constraint, k)
        takes.append(take)
        return take, skip

    def recording_lb_mgd(graph, constraint=None):
        bounded.append(constraint)
        return plain_lb_mgd(graph, constraint)

    monkeypatch.setattr(PathConstraint, "split", recording_split)
    monkeypatch.setattr(branch_bound, "lb_mgd", recording_lb_mgd)
    stats = bb_solve(_golden_graph("R", 2), "mgd")
    assert stats.nodes_expanded == GOLDEN_SEARCHES["R", 2][2][0]
    assert takes and len(bounded) > 1
    assert not set(takes) & set(bounded)


@pytest.mark.parametrize("family, seed", sorted(GOLDEN_SEARCHES))
def test_solutions_are_priced_only_below_the_incumbent(monkeypatch, family, seed):
    """A node bounded at or above the incumbent holds nothing better, so nothing of it is priced.

    The incumbent is the least regret priced so far; each pricing after the
    first must follow a node bound that was below the incumbent of its time.
    """
    state = {}
    plain_regret, plain_bound = branch_bound.max_regret, branch_bound.node_lower_bound

    def pricing(instance, oracle, x, *pool):
        assert state["open"], "priced a solution of a node bounded at the incumbent"
        regret = plain_regret(instance, oracle, x, *pool)
        state["incumbent"] = min(state["incumbent"], regret)
        return regret

    def bounding(*args, **kwargs):
        found = plain_bound(*args, **kwargs)
        state["open"] = found.value < state["incumbent"]
        return found

    monkeypatch.setattr(branch_bound, "max_regret", pricing)
    monkeypatch.setattr(branch_bound, "node_lower_bound", bounding)
    graph = _golden_graph(family, seed)
    for strategy, warm_start in (("mgd", True), ("cg", True), ("do", True), ("do", False)):
        state.update(incumbent=float("inf"), open=True)
        assert bb_solve(graph, strategy, BBConfig(warm_start=warm_start)).complete


@pytest.mark.parametrize("strategy, warm_start", (("mgd", True), ("cg", True), ("do", True), ("do", False)))
def test_each_distinct_solution_is_priced_once(monkeypatch, strategy, warm_start):
    """Every regret is priced through one pool per solve, and no solution is priced twice."""
    priced = []
    plain = branch_bound.max_regret

    def pricing(instance, oracle, x, pool):
        priced.append((x.members, pool))
        return plain(instance, oracle, x, pool)

    monkeypatch.setattr(branch_bound, "max_regret", pricing)
    for family, seed in sorted(GOLDEN_SEARCHES):
        priced.clear()
        assert bb_solve(_golden_graph(family, seed), strategy, BBConfig(warm_start=warm_start)).complete
        members = [m for m, _ in priced]
        assert len(members) == len(set(members))
        assert len({id(pool) for _, pool in priced}) == 1


def test_a_node_bounded_just_below_the_incumbent_is_still_priced(monkeypatch):
    """Pricing stops at the incumbent's regret itself, not at the pruning tolerance below it."""
    # Three parallel arcs. The midpoint picks arc 0, of regret 1 + 1e-10;
    # arc 1, the hi-cost shortest path, has regret 1, the optimum.
    graph = IntervalDigraph.from_edges(2, [(0, 1, 0.0, 1.1 + 1e-10), (0, 1, 1.0, 1.0), (0, 1, 0.1, 100.0)], 0, 1)
    plain = branch_bound.node_lower_bound

    def tightest(*args, **kwargs):
        # The optimum itself is the tightest valid bound on the root's subtree.
        found = plain(*args, **kwargs)
        return NodeBound(1.0, found.response, found.generated, found.solutions)

    monkeypatch.setattr(branch_bound, "node_lower_bound", tightest)
    stats = bb_solve(graph, "mgd")
    assert stats.complete
    assert (stats.opt, stats.optimal_path.edges) == (1.0, (1,))


@pytest.mark.parametrize("strategy, warm_start", (("mgd", True), ("cg", True), ("do", True), ("do", False)))
def test_bb_solve_orders_one_path_per_solve(monkeypatch, strategy, warm_start):
    """Nodes and the incumbent carry member sets; only the reported path is put in order."""
    ordered = []
    plain = branch_bound.order_path_edges

    def counting(graph, members):
        ordered.append(members)
        return plain(graph, members)

    monkeypatch.setattr(branch_bound, "order_path_edges", counting)
    stats = bb_solve(six_node_graph(), strategy, BBConfig(warm_start=warm_start))
    assert stats.optimal_path.edges == (0, 2, 5, 7)
    assert len(ordered) == 1


def test_zero_width_instances_close_at_the_root():
    graph = gen_instance(GeneratorSpec(family="R", n=8, r=100, d=0.0, delta=0.6, seed=3))
    stats = bb_solve(graph, "do")
    assert stats.complete
    assert stats.opt == 0.0
    assert stats.nodes_expanded == 1


def _small_root_graph(i):
    d = (0.5, 1.0)[(i // 2) % 2]
    if i % 2:
        return gen_instance(GeneratorSpec(family="K", n=2 + 3 * (2 + i % 3), r=100.0, d=d, w=3, seed=4100 + i))
    return gen_instance(GeneratorSpec(family="R", n=5 + i % 5, r=100.0, d=d, delta=0.3 + 0.1 * (i % 5), seed=4100 + i))


def test_a_root_that_fixing_solves_closes_without_a_bound(monkeypatch):
    """When every arc the root leaves free lies on the incumbent, the incumbent is optimal and mgd and cg bound nothing.

    Every other path uses a fixed arc, so fixing's margin puts its regret
    above the incumbent's.  The game search bounds the root alone, and
    prunes it on the first pop.  A root with one more free arc, found as
    such or made by freeing one fixed arc, is bounded by every strategy.
    """
    bounded = []
    plain_bound = branch_bound.node_lower_bound

    def counting(*args, **kwargs):
        bounded.append(args[1])
        return plain_bound(*args, **kwargs)

    monkeypatch.setattr(branch_bound, "node_lower_bound", counting)
    runs = (("mgd", True), ("cg", True), ("do", True), ("do", False))
    closed = one_more = 0
    for i in range(240):
        graph = _small_root_graph(i)
        oracle = sp_oracle(graph)
        mid, _ = oracle.solve(midpoint_scenario(graph.instance).costs)
        incumbent = double_oracle.max_regret(graph.instance, oracle, mid)
        fixed = fixed_arcs(graph, mid, incumbent)
        root = PathConstraint.forbidding(graph, fixed)
        extra = set(range(graph.m)) - root.out_set - mid.members
        _, opt, regrets = brute_force_opt(graph)
        if len(extra) == 1:
            one_more += 1
            for strategy, warm_start in runs:
                bounded.clear()
                stats = bb_solve(graph, strategy, BBConfig(warm_start=warm_start))
                assert stats.complete and stats.nodes_expanded >= 1 and bounded
                assert stats.opt == pytest.approx(opt, rel=1e-9, abs=1e-9)
        if extra:
            continue
        closed += 1
        for path, regret in zip(enumerate_paths(graph), regrets, strict=True):
            if set(path.edges) == mid.members:
                assert regret == pytest.approx(incumbent, rel=1e-12, abs=1e-12)
            else:
                assert regret > incumbent
        for strategy, warm_start in runs:
            bounded.clear()
            stats = bb_solve(graph, strategy, BBConfig(warm_start=warm_start))
            games = int(strategy == "do")
            assert (stats.complete, stats.nodes_expanded, stats.fixed_arcs) == (True, games, len(root.out_set))
            assert (stats.opt, stats.optimal_path.indicator().members) == (incumbent, mid.members)
            assert len(bounded) == games
        # Freeing any one fixed arc keeps the root valid, and leaves it to be
        # bounded by the strategies that skip a closed root.
        freed = fixed.copy()
        freed[min(root.out_set)] = False
        strategy, warm_start = runs[closed % 2]
        bounded.clear()
        with monkeypatch.context() as patch:
            patch.setattr(branch_bound, "fixed_arcs", lambda *args: freed)
            stats = bb_solve(graph, strategy, BBConfig(warm_start=warm_start))
        assert stats.complete and stats.nodes_expanded >= 1 and bounded
        assert (stats.opt, stats.optimal_path.indicator().members) == (incumbent, mid.members)
    assert closed >= 150 and one_more >= 3, (closed, one_more)


@pytest.mark.parametrize("config", (BBConfig(node_limit=0), BBConfig(time_limit_ms=0.0)), ids=("nodes", "time"))
@pytest.mark.parametrize("graph", (two_arc_graph(), _golden_graph("R", 6)), ids=("two-arc", "R-6"))
def test_a_root_closed_by_fixing_completes_under_any_budget(graph, config):
    """Fixing leaves mgd and cg nothing to expand, so no budget cuts them short.

    The game search has its root to expand, and a zero budget stops it
    before the first pop, with the same incumbent.
    """
    for strategy in STRATEGIES:
        stats = bb_solve(graph, strategy, config)
        assert (stats.complete, stats.nodes_expanded) == (strategy != "do", 0)
        assert stats.opt == bb_solve(graph, strategy).opt


def test_node_limit_truncates_but_reports_honestly():
    stats = bb_solve(six_node_graph(), "cg", BBConfig(node_limit=1))
    assert not stats.complete
    assert stats.nodes_expanded == 1
    # The reported value is still the exact regret of a real path.
    members = stats.optimal_path.indicator().members
    assert stats.opt == 5.0
    assert brute_force_max_regret(six_node_graph(), members) == stats.opt


def test_time_limit_truncates_before_expanding():
    stats = bb_solve(six_node_graph(), "do", BBConfig(time_limit_ms=0.0))
    assert not stats.complete
    assert stats.nodes_expanded == 0
    assert stats.opt == 5.0


@pytest.mark.parametrize(
    "fields, message",
    (
        ({"node_limit": -3}, "node_limit"),
        ({"node_limit": -1, "time_limit_ms": 10.0}, "node_limit"),
        ({"time_limit_ms": -0.5}, "time_limit_ms"),
        ({"time_limit_ms": float("nan")}, "time_limit_ms"),
    ),
    ids=("nodes", "nodes-with-time", "time", "time-nan"),
)
def test_negative_or_nan_budgets_are_rejected(fields, message):
    # Such a budget used to stop the search silently before its first node.
    with pytest.raises(ValueError, match="^%s must be nonnegative$" % message):
        BBConfig(**fields)


def test_zero_and_infinite_budgets_are_accepted():
    assert not bb_solve(six_node_graph(), "cg", BBConfig(node_limit=0)).complete
    assert bb_solve(six_node_graph(), "cg", BBConfig(time_limit_ms=float("inf"))).complete


def test_cold_start_matches_warm_start():
    graph = six_node_graph()
    warm = bb_solve(graph, "do")
    cold = bb_solve(graph, "do", BBConfig(warm_start=False))
    assert warm.opt == cold.opt
    assert warm.complete and cold.complete
    assert warm.nodes_expanded == cold.nodes_expanded


@pytest.mark.parametrize("warm_start", (True, False))
def test_lp_failure_degrades_the_node_to_the_pair_bound(monkeypatch, warm_start):
    """A node whose game LP fails is bounded with lb_cg; the solve still completes."""
    failures = []

    def failing(matrix):
        failures.append(matrix)
        raise SolverFailure("numerically singular pivot")

    monkeypatch.setattr(double_oracle, "solve_zero_sum", failing)
    graph = six_node_graph()
    stats = bb_solve(graph, "do", BBConfig(warm_start=warm_start))
    assert failures
    assert stats.complete
    assert stats.opt == bb_solve(graph, "cg").opt == 4.0


@pytest.mark.parametrize("warm_start", (True, False))
def test_game_search_solves_the_midpoint_scenario_once(monkeypatch, warm_start):
    """The root's game starts from the incumbent's midpoint path instead of solving for it again."""
    graph = six_node_graph()
    midpoint = midpoint_scenario(graph.instance).costs
    searched = []
    plain = shortest_path.dijkstra

    def counting(g, costs, *args, **kwargs):
        searched.append(np.array(costs, dtype=float))
        return plain(g, costs, *args, **kwargs)

    monkeypatch.setattr(shortest_path, "dijkstra", counting)
    stats = bb_solve(graph, "do", BBConfig(warm_start=warm_start))
    assert stats.complete and stats.opt == 4.0
    assert sum(np.array_equal(costs, midpoint) for costs in searched) == 1


@pytest.mark.parametrize("warm_start, searches, penalized", ((True, 13, 5), (False, 19, 7)))
def test_game_search_solves_the_incumbents_penalizing_scenario_once(monkeypatch, warm_start, searches, penalized):
    """The incumbent's regret and the root game's first column share one solve of its penalizing scenario.

    While every br_c answer's optimum was searched, sharing it made 16 and
    25 searches, and solving it apart for each made 17 and 26, 6 and 8 of
    them under that scenario.
    """
    graph = six_node_graph()
    mid, _ = sp_oracle(graph).solve(midpoint_scenario(graph.instance).costs)
    worst = penalizing_scenario(graph.instance, mid).costs
    searched = []
    plain = shortest_path.dijkstra

    def counting(g, costs, *args, **kwargs):
        searched.append(np.array(costs, dtype=float))
        return plain(g, costs, *args, **kwargs)

    monkeypatch.setattr(shortest_path, "dijkstra", counting)
    stats = bb_solve(graph, "do", BBConfig(warm_start=warm_start))
    assert stats.complete and stats.opt == 4.0
    assert len(searched) == searches
    assert sum(np.array_equal(costs, worst) for costs in searched) == penalized


def test_bb_solve_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        bb_solve(six_node_graph(), "exact")


def test_strategies_agree_with_brute_force():
    checked = 0
    for i in range(50):
        spec = GeneratorSpec(
            family="R", n=4 + i % 6, r=80, d=(0.5, 1.0)[i % 2],
            delta=0.4 + 0.1 * (i % 6), seed=1300 + i,
        )
        graph = gen_instance(spec)
        try:
            _, opt, _ = brute_force_opt(graph, path_limit=5000)
        except ValueError:
            continue
        for strategy in ("mgd", "cg", "do"):
            stats = bb_solve(graph, strategy)
            assert stats.complete
            assert stats.opt == pytest.approx(opt, abs=1e-6)
            members = stats.optimal_path.indicator().members
            # The reported path orders into a real s-t path with that regret.
            order_path_edges(graph, members)
            assert brute_force_max_regret(graph, members) == pytest.approx(stats.opt, abs=1e-9)
        checked += 1
    assert checked >= 40
