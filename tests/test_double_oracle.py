import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretopt import (
    DoubleOracleConfig,
    IntervalDigraph,
    IntervalInstance,
    NoFeasibleSolution,
    Scenario,
    ScenarioDescriptor,
    ScenarioPool,
    SolutionIndicator,
    br_c,
    dijkstra,
    favoring_scenario,
    lb_cg,
    lb_kz,
    max_regret,
    midpoint_scenario,
    penalizing_scenario,
    run_double_oracle,
    solve_zero_sum,
    sp_oracle,
    val,
)
from regretopt.double_oracle import PENALIZING, RestrictedGame
from regretopt.harness import GeneratorSpec, gen_instance
from regretopt.harness.brute_force import brute_force_lb_star

from _fixtures import five_element_instance, six_node_graph, two_arc_graph
from _oracles import EnumeratedOracle


def sol(*indices):
    return SolutionIndicator(frozenset(indices))


def pair_oracle(n):
    return EnumeratedOracle(n, itertools.combinations(range(n), 2))


def two_arc_setup():
    graph = two_arc_graph()
    return graph.instance, sp_oracle(graph)


def six_node_setup():
    graph = six_node_graph()
    return graph, graph.instance, sp_oracle(graph)


def root_start(inst, oracle):
    """The midpoint solution and its penalizing scenario, as starting lists."""
    x_mid, _ = oracle.solve(midpoint_scenario(inst).costs)
    return [x_mid], [ScenarioDescriptor(x_mid, PENALIZING)]


def full_game_value(inst, oracle):
    """Value of the complete regret game over the oracle's listed solutions
    and the scenarios favoring each of them."""
    sols = oracle.solutions
    matrix = np.empty((len(sols), len(sols)))
    for j, z in enumerate(sols):
        dense = favoring_scenario(inst, z)
        opt = oracle.solve(dense.costs)[1]
        for i, x in enumerate(sols):
            matrix[i, j] = val(x, dense) - opt
    return solve_zero_sum(matrix).value


# ------------------------------------------------------------ oracle adapter


def test_enumerated_oracle_keeps_first_listed_tie():
    oracle = EnumeratedOracle(3, [[0, 1], [2], [1, 0]])
    x, value = oracle.solve([1.0, 1.0, 2.0])
    assert x.members == frozenset({0, 1})
    assert value == 2.0


def test_enumerated_oracle_restriction_filters():
    oracle = EnumeratedOracle(3, [[0], [1], [2]])
    x, value = oracle.solve([3.0, 2.0, 1.0], restriction=lambda s: 2 not in s.members)
    assert x.members == frozenset({1})
    with pytest.raises(NoFeasibleSolution):
        oracle.solve([1.0, 1.0, 1.0], restriction=lambda s: False)


def test_enumerated_oracle_validation():
    with pytest.raises(ValueError):
        EnumeratedOracle(2, [])
    oracle = EnumeratedOracle(2, [[0]])
    with pytest.raises(ValueError):
        oracle.solve([1.0, 2.0, 3.0])


# -------------------------------------------------------- scenario handling


def test_descriptor_expands_to_the_defining_extremes():
    inst = five_element_instance()
    x = sol(1, 2)
    pen = ScenarioDescriptor(x, "penalizing").expand(inst)
    fav = ScenarioDescriptor(x, "favoring").expand(inst)
    np.testing.assert_array_equal(pen.costs, penalizing_scenario(inst, x).costs)
    np.testing.assert_array_equal(fav.costs, favoring_scenario(inst, x).costs)
    np.testing.assert_array_equal(fav.costs, [4.0, 1.0, 1.0, 3.0, 6.0])


def test_descriptor_kind_is_part_of_identity():
    # Dense-equal scenarios from different descriptors stay distinct columns.
    x = sol(0)
    assert ScenarioDescriptor(x, "penalizing") != ScenarioDescriptor(x, "favoring")
    with pytest.raises(ValueError):
        ScenarioDescriptor(x, "middling")


def test_pool_caches_one_optimum_per_descriptor():
    inst, oracle = two_arc_setup()
    pool = ScenarioPool(inst, oracle)
    desc = ScenarioDescriptor(sol(0), "penalizing")
    idx = pool.ensure(desc)
    assert pool.ensure(desc) == idx
    assert len(pool) == 1
    assert pool.opt_values[idx] == 7.0  # opt under (10, 7)


def test_restricted_game_matches_dense_recomputation():
    graph, inst, oracle = six_node_setup()
    pool = ScenarioPool(inst, oracle)
    game = RestrictedGame(inst, pool)
    xs = [sol(0, 3, 6), sol(1, 5, 7), sol(0, 2, 5, 7)]
    descs = [
        ScenarioDescriptor(sol(0, 3, 6), "penalizing"),
        ScenarioDescriptor(sol(1, 5, 7), "favoring"),
        ScenarioDescriptor(sol(0, 2, 4, 6), "favoring"),
    ]
    for x in xs:
        game.add_solution(x)
    for desc in descs:
        game.add_scenario(desc, game.column_values(desc))
    dense = np.empty((3, 3))
    for j, desc in enumerate(descs):
        c = desc.expand(inst)
        opt = oracle.solve(c.costs)[1]
        for i, x in enumerate(xs):
            dense[i, j] = val(x, c) - opt
    np.testing.assert_allclose(game.matrix, dense, atol=1e-9)

    # column_values prices a scenario without committing it
    probe = ScenarioDescriptor(sol(1, 4, 6), "favoring")
    c = probe.expand(inst)
    opt = oracle.solve(c.costs)[1]
    np.testing.assert_allclose(
        game.column_values(probe), [val(x, c) - opt for x in xs], atol=1e-9
    )
    assert not game.has_scenario(probe)

    # a stored column reads back as priced
    assert game.column_values(descs[1]) == game.matrix[:, 1].tolist()

    # mixture_costs and expected_regret agree with the dense mixture,
    # also when a column carries zero weight
    x = sol(0, 3, 6)
    for q in (np.array([0.5, 0.25, 0.25]), np.array([0.5, 0.0, 0.5])):
        mixed = sum(p * descs[j].expand(inst).costs for j, p in enumerate(q))
        np.testing.assert_allclose(game.mixture_costs(q), mixed, atol=1e-12)
        direct = sum(
            p * (val(x, descs[j].expand(inst)) - oracle.solve(descs[j].expand(inst).costs)[1])
            for j, p in enumerate(q)
        )
        assert game.expected_regret(x, q) == pytest.approx(direct, abs=1e-9)


def test_restricted_game_rejects_duplicates():
    inst, oracle = two_arc_setup()
    game = RestrictedGame(inst, ScenarioPool(inst, oracle))
    game.add_solution(sol(0))
    with pytest.raises(ValueError):
        game.add_solution(sol(0))
    desc = ScenarioDescriptor(sol(0), "penalizing")
    game.add_scenario(desc, game.column_values(desc))
    with pytest.raises(ValueError):
        game.add_scenario(desc, game.column_values(desc))
    other = ScenarioDescriptor(sol(1), "penalizing")
    with pytest.raises(ValueError):
        game.add_scenario(other, [])
    assert not game.has_scenario(other)


def test_run_prices_each_game_entry_once(monkeypatch):
    """Every entry of the final game is priced once; expected regrets are not entries."""
    priced = []
    in_expected_regret = []
    regret, expected_regret = RestrictedGame._regret, RestrictedGame.expected_regret

    def counting(self, members, sums, pool_idx):
        if not in_expected_regret:
            priced.append((members, pool_idx))
        return regret(self, members, sums, pool_idx)

    def flagged(self, x, col_probs):
        in_expected_regret.append(True)
        try:
            return expected_regret(self, x, col_probs)
        finally:
            in_expected_regret.pop()

    monkeypatch.setattr(RestrictedGame, "_regret", counting)
    monkeypatch.setattr(RestrictedGame, "expected_regret", flagged)
    inst, oracle = two_arc_setup()
    result = run_double_oracle(inst, oracle, *root_start(inst, oracle))
    assert (len(result.solutions), len(result.scenarios)) == (2, 3)
    assert len(priced) == 6
    assert len(set(priced)) == 6


# ------------------------------------------------------------ best responses


def two_arc_game(*descs):
    """The two-arc game with the given columns and no rows yet."""
    inst, oracle = two_arc_setup()
    game = RestrictedGame(inst, ScenarioPool(inst, oracle))
    for desc in descs:
        game.add_scenario(desc, [])
    return game, oracle


def solution_response(game, oracle, col_probs):
    """The solution player's best response to a column mixture, as run_double_oracle computes it."""
    x, _ = oracle.solve(game.mixture_costs(col_probs))
    return x, game.expected_regret(x, col_probs)


def test_br_x_against_pure_scenario_has_zero_regret():
    game, oracle = two_arc_game(ScenarioDescriptor(sol(0), "penalizing"))
    x, regret = solution_response(game, oracle, [1.0])
    # Under (10, 7) arc 1 is the optimum, so its regret is zero.
    assert x.members == frozenset({1})
    assert regret == 0.0


def test_br_x_two_arc_mixture():
    # (5, 12) favors arc 0 and (10, 7) penalizes it.
    game, oracle = two_arc_game(ScenarioDescriptor(sol(0), "favoring"), ScenarioDescriptor(sol(0), "penalizing"))
    x, regret = solution_response(game, oracle, [0.3, 0.7])
    # Mean costs tie at (8.5, 8.5); the search keeps the lower arc id.
    # Both arcs give expected regret 0.3 * 0 + 0.7 * 3 = 2.1 here.
    assert x.members == frozenset({0})
    assert regret == pytest.approx(2.1, abs=1e-9)

    x, regret = solution_response(game, oracle, [0.5, 0.5])
    assert x.members == frozenset({0})
    assert regret == pytest.approx(1.5, abs=1e-12)


def test_br_c_on_pure_solution_returns_favoring_descriptor():
    inst = five_element_instance()
    oracle = pair_oracle(5)
    desc = br_c(inst, oracle, np.array([1.0]), [sol(1, 2)])
    assert desc.kind == "favoring"
    assert desc.defining.members == frozenset({2, 4})
    np.testing.assert_array_equal(desc.expand(inst).costs, [4.0, 5.0, 1.0, 3.0, 0.0])


def test_br_c_two_arc_mixture():
    inst, oracle = two_arc_setup()
    desc = br_c(inst, oracle, np.array([0.7, 0.3]), [sol(0), sol(1)])
    # Marginal costs (8.5, 8.5) tie; arc 0 wins, giving scenario (5, 12).
    assert desc.defining.members == frozenset({0})
    np.testing.assert_array_equal(desc.expand(inst).costs, [5.0, 12.0])


def test_br_c_rejects_oversized_support():
    inst, oracle = two_arc_setup()
    with pytest.raises(ValueError):
        br_c(inst, oracle, np.array([1.0]), [sol(5)])
    with pytest.raises(ValueError):  # one probability per solution
        br_c(inst, oracle, np.array([0.5, 0.5]), [sol(0)])


def test_max_regret_examples():
    inst, oracle = two_arc_setup()
    assert max_regret(inst, oracle, sol(0)) == 3.0
    assert max_regret(inst, oracle, sol(1)) == 7.0
    graph, inst6, oracle6 = six_node_setup()
    assert max_regret(inst6, oracle6, sol(0, 2, 5, 7)) == 4.0
    assert max_regret(inst6, oracle6, sol(0, 3, 6)) == 5.0


# --------------------------------------------------------------- generation


def test_two_arc_run_from_midpoint_root():
    inst, oracle = two_arc_setup()
    init_x, init_c = root_start(inst, oracle)
    assert init_x[0].members == frozenset({0})
    result = run_double_oracle(inst, oracle, init_x, init_c)
    assert result.converged
    assert result.iterations == 3
    np.testing.assert_allclose(result.trace, [0.0, 0.0, 2.1], atol=1e-9)
    assert result.lower_bound == pytest.approx(2.1, abs=1e-9)
    assert result.equilibrium.value == pytest.approx(2.1, abs=1e-9)
    np.testing.assert_allclose(result.equilibrium.row_probs, [0.7, 0.3], atol=1e-9)
    assert [sorted(x.members) for x in result.solutions] == [[0], [1]]
    assert [(d.kind, sorted(d.defining.members)) for d in result.scenarios] == [
        ("penalizing", [0]),
        ("favoring", [1]),
        ("favoring", [0]),
    ]
    assert result.best_response.members == frozenset({0})


def test_six_node_run_meets_the_baseline_bounds():
    graph, inst, oracle = six_node_setup()
    result = run_double_oracle(inst, oracle, *root_start(inst, oracle))
    assert result.converged
    assert result.lower_bound == pytest.approx(2.5, abs=1e-9)
    np.testing.assert_allclose(result.trace, [0.0, 0.0, 2.5], atol=1e-9)
    # The game value dominates both closed-form bounds on this graph.
    assert result.lower_bound >= lb_kz(graph).value - 1e-9
    assert result.lower_bound >= lb_cg(graph).value - 1e-9
    # And it never exceeds the best max regret among generated solutions.
    best = min(max_regret(inst, oracle, x) for x in result.solutions)
    assert result.lower_bound <= best + 1e-9


def test_zero_width_converges_immediately():
    inst = IntervalInstance(lo=np.array([5.0, 7.0]), hi=np.array([5.0, 7.0]))
    oracle = EnumeratedOracle(2, [[0], [1]])
    result = run_double_oracle(inst, oracle, *root_start(inst, oracle))
    assert result.converged
    assert result.iterations == 1
    assert result.lower_bound == 0.0
    assert result.trace == (0.0,)


def test_warm_start_skips_rediscovery():
    graph, inst, oracle = six_node_setup()
    warm = run_double_oracle(
        inst,
        oracle,
        [sol(0, 3, 6), sol(1, 4, 6), sol(0, 2, 5, 7)],
        [
            ScenarioDescriptor(sol(0, 3, 6), "penalizing"),
            ScenarioDescriptor(sol(1, 4, 6), "favoring"),
        ],
    )
    assert warm.converged
    assert warm.iterations == 2
    assert warm.lower_bound == pytest.approx(2.5, abs=1e-9)


def test_shared_pool_carries_scenarios_between_runs():
    graph, inst, oracle = six_node_setup()
    pool = ScenarioPool(inst, oracle)
    first = run_double_oracle(inst, oracle, *root_start(inst, oracle), pool=pool)
    assert first.iterations == 3
    assert len(pool) == 3
    second = run_double_oracle(inst, oracle, *root_start(inst, oracle), pool=pool)
    assert second.converged
    assert second.iterations < first.iterations
    assert second.lower_bound == pytest.approx(2.5, abs=1e-9)


def test_pooled_scenarios_seed_a_game_without_pool_lookups(monkeypatch):
    graph, inst, oracle = six_node_setup()
    pool = ScenarioPool(inst, oracle)
    run_double_oracle(inst, oracle, *root_start(inst, oracle), pool=pool)
    pooled = list(pool.descriptors)
    assert len(pooled) == 3
    asked = []
    ensure = ScenarioPool.ensure

    def recording(self, desc):
        asked.append(desc)
        return ensure(self, desc)

    monkeypatch.setattr(ScenarioPool, "ensure", recording)
    game = RestrictedGame(inst, pool)
    assert game.scenarios == pooled
    assert game.scenario_ids == [0, 1, 2]
    # A run from another start reads the pooled columns by position too.
    second = run_double_oracle(inst, oracle, [sol(1, 4, 6)], [ScenarioDescriptor(sol(1, 4, 6), "favoring")], pool=pool)
    assert list(second.scenarios[:3]) == pooled
    assert not set(asked) & set(pooled)


def test_stop_value_short_circuits():
    inst, oracle = two_arc_setup()
    config = DoubleOracleConfig(stop_value=0.05)
    result = run_double_oracle(inst, oracle, *root_start(inst, oracle), config)
    assert not result.converged
    assert result.iterations == 3
    assert result.lower_bound == pytest.approx(2.1, abs=1e-9)


def test_solution_support_cap_keeps_the_bound_sound():
    graph, inst, oracle = six_node_setup()
    config = DoubleOracleConfig(max_support_x=1)
    result = run_double_oracle(inst, oracle, *root_start(inst, oracle), config)
    assert len(result.solutions) == 1
    assert not result.converged
    # Stalled at the root: still a valid (here trivial) lower bound.
    assert result.lower_bound == 0.0


def test_iteration_budget_truncates():
    inst, oracle = two_arc_setup()
    config = DoubleOracleConfig(max_iterations=1)
    result = run_double_oracle(inst, oracle, *root_start(inst, oracle), config)
    assert result.iterations == 1
    assert not result.converged
    assert len(result.trace) == 1


def test_truncated_runs_keep_the_bound_their_mixture_certifies():
    checked = 0
    for seed in range(60):
        spec = GeneratorSpec(family="R", n=5 + seed % 3, r=50.0, d=1.0, delta=0.5 + 0.05 * (seed % 3), seed=seed)
        graph = gen_instance(spec)
        inst, oracle = graph.instance, sp_oracle(graph)
        star, _, _ = brute_force_lb_star(graph)
        for budget in (1, 2, 3):
            config = DoubleOracleConfig(max_iterations=budget)
            result = run_double_oracle(inst, oracle, *root_start(inst, oracle), config)
            assert len(result.trace) == result.iterations
            if result.converged:
                continue
            # SP(mean) - sum q * opt is a valid bound for any scenario mixture.
            dense = [desc.expand(inst).costs for desc in result.scenarios]
            q = result.equilibrium.col_probs
            mean = sum(qj * c for qj, c in zip(q, dense))
            sp_mean = dijkstra(graph, mean)[1]
            certified = sp_mean - sum(qj * dijkstra(graph, c)[1] for qj, c in zip(q, dense))
            assert result.lower_bound >= certified - 1e-9
            assert result.lower_bound <= star + 1e-6
            # best_response answers the returned mixture
            assert sum(mean[e] for e in result.best_response.members) == pytest.approx(sp_mean, abs=1e-9)
            checked += 1
    assert checked >= 30


def relabel(graph, rng):
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


def test_wide_payoff_root_game_converges():
    # Two of this root game's restricted games have payoffs spanning about
    # 5300: the simplex stops on its absolute tolerances short of the
    # optimum, the certificate fails, and the game is solved again on
    # payoffs divided by 8192.
    spec = GeneratorSpec("K", 82, 1000.0, 1.0, w=4, seed=25)
    g = relabel(gen_instance(spec), np.random.default_rng([3, 25]))
    oracle = sp_oracle(g)
    path, _ = oracle.solve_path(midpoint_scenario(g.instance).costs)
    x = path.indicator()
    result = run_double_oracle(g.instance, oracle, [x], [ScenarioDescriptor(x, PENALIZING)])
    assert result.converged
    assert lb_cg(g).value <= result.lower_bound <= max_regret(g.instance, oracle, x)


def test_run_validates_inputs():
    inst, oracle = two_arc_setup()
    init_x, init_c = root_start(inst, oracle)
    with pytest.raises(ValueError):
        run_double_oracle(inst, oracle, init_x, init_c, DoubleOracleConfig(max_iterations=0))
    with pytest.raises(ValueError):
        run_double_oracle(inst, oracle, [], init_c)
    with pytest.raises(ValueError):
        run_double_oracle(inst, oracle, [])


def test_run_without_columns_starts_from_the_first_solutions_penalizing_scenario():
    graph, inst, oracle = six_node_setup()
    init_x, init_c = root_start(inst, oracle)
    init_x.append(sol(0, 3, 6))
    for config in (DoubleOracleConfig(), DoubleOracleConfig(max_iterations=2)):
        seeded = run_double_oracle(inst, oracle, init_x, init_c, config)
        unseeded = run_double_oracle(inst, oracle, init_x, config=config)
        assert unseeded.scenarios[0] == init_c[0]
        assert [b.hex() for b in unseeded.trace] == [b.hex() for b in seeded.trace]
        assert unseeded.lower_bound.hex() == seeded.lower_bound.hex()
        assert unseeded.solutions == seeded.solutions
        assert unseeded.scenarios == seeded.scenarios
        assert unseeded.best_response == seeded.best_response
        assert (unseeded.converged, unseeded.iterations) == (seeded.converged, seeded.iterations)
        np.testing.assert_array_equal(unseeded.equilibrium.col_probs, seeded.equilibrium.col_probs)
        # An empty pool seeds the same column, and keeps it for later runs.
        pool = ScenarioPool(inst, oracle)
        pooled = run_double_oracle(inst, oracle, init_x, config=config, pool=pool)
        assert pooled.scenarios == seeded.scenarios
        assert pool.descriptors[0] == init_c[0]


def test_run_from_a_pool_adds_no_penalizing_column():
    graph, inst, oracle = six_node_setup()
    pool = ScenarioPool(inst, oracle)
    pool.ensure(ScenarioDescriptor(sol(1, 4, 6), "favoring"))
    x = sol(0, 2, 5, 7)
    result = run_double_oracle(inst, oracle, [x], pool=pool)
    assert result.scenarios[0] == ScenarioDescriptor(sol(1, 4, 6), "favoring")
    assert ScenarioDescriptor(x, PENALIZING) not in result.scenarios
    assert all(d.kind != PENALIZING for d in pool.descriptors)


def test_lb_star_n_is_the_best_bound_within_the_budget():
    """LB*_n, the best anytime bound of the first n iterations, is the lower_bound of an n-iteration run."""
    inst, oracle = two_arc_setup()
    init_x, init_c = root_start(inst, oracle)

    def lb_star(n):
        return run_double_oracle(inst, oracle, init_x, init_c, DoubleOracleConfig(max_iterations=n)).lower_bound

    # The first two iterations only grow the game.  After the first the
    # re-solved game still lacks a scenario; after the second the re-solved
    # 2x2 game with both scenarios already certifies the game value.
    assert lb_star(1) == 0.0
    assert lb_star(2) == pytest.approx(2.1, abs=1e-9)
    assert lb_star(3) == pytest.approx(2.1, abs=1e-9)
    assert lb_star(10) == pytest.approx(2.1, abs=1e-9)


# ------------------------------------------------------------- property side

pair_instances = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
    ).map(
        lambda pair: IntervalInstance(
            lo=np.array(pair[0], dtype=float),
            hi=np.array(pair[0], dtype=float) + np.array(pair[1], dtype=float),
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(pair_instances)
def test_converged_runs_find_the_full_game_value(inst):
    oracle = pair_oracle(inst.n)
    result = run_double_oracle(inst, oracle, *root_start(inst, oracle))
    assert result.converged
    assert result.lower_bound == pytest.approx(full_game_value(inst, oracle), abs=1e-6)
    # Strategy sets stay duplicate-free and grow by at most one per side
    # and iteration beyond the root.
    assert len({x.members for x in result.solutions}) == len(result.solutions)
    assert len(set(result.scenarios)) == len(result.scenarios)
    assert len(result.solutions) <= 1 + result.iterations
    assert len(result.scenarios) <= 1 + result.iterations


@settings(max_examples=60, deadline=None)
@given(pair_instances)
def test_every_trace_entry_is_a_valid_lower_bound(inst):
    oracle = pair_oracle(inst.n)
    truth = full_game_value(inst, oracle)
    truncated = run_double_oracle(
        inst, oracle, *root_start(inst, oracle), DoubleOracleConfig(max_iterations=2)
    )
    for entry in truncated.trace:
        assert entry <= truth + 1e-9
    opt_regret = min(max_regret(inst, oracle, x) for x in oracle.solutions)
    assert truncated.lower_bound <= opt_regret + 1e-9


@settings(max_examples=40, deadline=None)
@given(pair_instances)
def test_neither_player_improves_on_a_converged_equilibrium(inst):
    oracle = pair_oracle(inst.n)
    result = run_double_oracle(inst, oracle, *root_start(inst, oracle))
    assert result.converged
    value = result.equilibrium.value

    # Dense reference: the best solution against the scenario mixture
    # answers its mean costs, and no solution beats the game value there.
    dense = np.array([d.expand(inst).costs for d in result.scenarios])
    q = result.equilibrium.col_probs
    opts = [oracle.solve(c)[1] for c in dense]
    x, _ = oracle.solve(q @ dense)
    best_row = sum(qj * (val(x, Scenario(c)) - opt) for qj, c, opt in zip(q, dense, opts))
    assert best_row >= value - 1e-7

    challenger = br_c(inst, oracle, result.equilibrium.row_probs, result.solutions).expand(inst)
    opt = oracle.solve(challenger.costs)[1]
    best_col = sum(
        p * (val(x, challenger) - opt)
        for p, x in zip(result.equilibrium.row_probs, result.solutions)
    )
    assert best_col <= value + 1e-7
