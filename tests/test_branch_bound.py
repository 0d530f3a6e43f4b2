import numpy as np
import pytest

from regretopt import NoFeasibleSolution, PathConstraint, midpoint_scenario, shortest_path
from regretopt.branch_bound import BBConfig, bb_solve, branch, node_lower_bound, select_branch_edge
from regretopt.harness import GeneratorSpec, gen_instance
from regretopt.harness.brute_force import brute_force_max_regret, brute_force_opt
from regretopt.shortest_path import order_path_edges

from _fixtures import six_node_graph, two_arc_graph


# ------------------------------------------------------------- primitives


def test_branch_splits_into_take_and_skip():
    graph = six_node_graph()
    take, skip = branch(graph, PathConstraint(), 0)
    assert take.in_chain == (0,)
    assert take.out_set == frozenset()
    assert skip.in_chain == ()
    assert skip.out_set == frozenset({0})

    deeper, _ = branch(graph, take, 2)
    assert deeper.in_chain == (0, 2)


def test_branch_rejects_bad_arcs():
    graph = six_node_graph()
    with pytest.raises(ValueError):
        branch(graph, PathConstraint(), 99)
    with pytest.raises(ValueError):
        branch(graph, PathConstraint(in_chain=(0,)), 0)
    with pytest.raises(ValueError):
        branch(graph, PathConstraint(out_set=frozenset({3})), 3)
    # arc 7 leaves node 4, not the root prefix end
    with pytest.raises(ValueError):
        branch(graph, PathConstraint(), 7)


def test_select_branch_edge_walks_the_response():
    graph = six_node_graph()
    response = node_lower_bound(graph, PathConstraint(), "cg").branch_path
    assert response.edges == (0, 3, 6)
    assert select_branch_edge(graph, PathConstraint(), response) == 0
    assert select_branch_edge(graph, PathConstraint(in_chain=(0,)), response) == 3
    assert select_branch_edge(graph, PathConstraint(in_chain=(0, 3, 6)), response) is None
    with pytest.raises(ValueError):
        select_branch_edge(graph, PathConstraint(in_chain=(1,)), response)


def test_node_lower_bound_strategies():
    graph = six_node_graph()
    assert node_lower_bound(graph, PathConstraint(), "mgd").value == 0.0
    assert node_lower_bound(graph, PathConstraint(), "cg").value == 2.5
    game = node_lower_bound(graph, PathConstraint(), "do")
    assert game.value == pytest.approx(2.5, abs=1e-9)
    assert len(game.solutions) >= 1
    with pytest.raises(ValueError):
        node_lower_bound(graph, PathConstraint(), "best")
    with pytest.raises(NoFeasibleSolution):
        node_lower_bound(graph, PathConstraint(out_set=frozenset({0, 1})), "cg")


# ------------------------------------------------------------- full search


def test_every_strategy_solves_the_fixtures():
    six = six_node_graph()
    two = two_arc_graph()
    # Node counts pin search determinism on this graph, not a theorem.
    expected_nodes = {"mgd": 11, "cg": 9, "do": 2}
    for strategy in ("mgd", "cg", "do"):
        stats = bb_solve(six, strategy)
        assert stats.complete
        assert stats.strategy == strategy
        assert stats.opt == 4.0
        assert stats.optimal_path.edges == (0, 2, 5, 7)
        assert stats.nodes_expanded == expected_nodes[strategy]

        stats = bb_solve(two, strategy)
        assert stats.complete
        assert stats.opt == 3.0
        assert stats.optimal_path.edges == (0,)
        assert stats.nodes_expanded == 1


def test_zero_width_instances_close_at_the_root():
    graph = gen_instance(GeneratorSpec(family="R", n=8, r=100, d=0.0, delta=0.6, seed=3))
    stats = bb_solve(graph, "do")
    assert stats.complete
    assert stats.opt == 0.0
    assert stats.nodes_expanded == 1


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


def test_cold_start_matches_warm_start():
    graph = six_node_graph()
    warm = bb_solve(graph, "do")
    cold = bb_solve(graph, "do", BBConfig(warm_start=False))
    assert warm.opt == cold.opt
    assert warm.complete and cold.complete
    assert warm.nodes_expanded == cold.nodes_expanded


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
