import itertools
import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretopt import (
    BBConfig,
    DoubleOracleConfig,
    IntervalDigraph,
    IntervalInstance,
    NoFeasibleSolution,
    Scenario,
    ScenarioDescriptor,
    ScenarioPool,
    SolutionIndicator,
    bb_solve,
    br_c,
    dijkstra,
    favoring_scenario,
    lb_cg,
    lb_kz,
    lb_mgd,
    max_regret,
    midpoint_scenario,
    penalizing_scenario,
    run_double_oracle,
    solve_zero_sum,
    sp_oracle,
    val,
)
from regretopt import bounds, core, double_oracle, shortest_path
from regretopt.core import cost_of
from regretopt.double_oracle import FAVORING, PENALIZING, RestrictedGame
from regretopt.harness import GeneratorSpec, gen_instance
from regretopt.harness.brute_force import brute_force_lb_star, enumerate_paths

from _fixtures import five_element_instance, six_node_graph, two_arc_graph
from _oracles import EnumeratedOracle, reference_marginals, reference_mixture_costs


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
    assert pool.ensure(desc) == 7.0  # opt under (10, 7)
    assert pool.ensure(desc) == 7.0
    assert len(pool) == 1
    assert pool.published == {desc: 7.0}


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
        assert game.expected_regret(game._row_values(x), q) == pytest.approx(direct, abs=1e-9)


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
    """On the two-arc run every entry of the final game is priced once, and nothing else is priced against a column.

    An entry is a pricing against a published column's own costs.  A best
    response's row is priced once, for its expected regret, and joins the
    game as it is; br_c's search bound prices the rows against mixture
    costs instead, which are no column's.
    """
    priced = []
    cost_of = double_oracle.cost_of

    def counting(members, costs):
        priced.append((members, costs))
        return cost_of(members, costs)

    monkeypatch.setattr(double_oracle, "cost_of", counting)
    inst, oracle = two_arc_setup()
    pool = ScenarioPool(inst, oracle)
    result = run_double_oracle(inst, oracle, *root_start(inst, oracle), pool=pool)
    assert (len(result.solutions), len(result.scenarios)) == (2, 3)
    columns = list(pool.costs.values())
    assert len(columns) == 3
    entries = [(members, j) for members, costs in priced for j, column in enumerate(columns) if costs is column]
    assert len(entries) == 6
    assert len(set(entries)) == 6


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
    return x, game.expected_regret(game._row_values(x), col_probs)


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


def test_br_c_leaves_zero_probability_rows_out_of_the_mixture():
    """A row of probability zero moves no bit of the mixture, so the answer is the one without it."""
    rng = np.random.default_rng(31)
    for seed in range(12):
        spec = (GeneratorSpec(family="K", n=14, r=1000.0, d=1.0, w=3, seed=seed) if seed % 2
                else GeneratorSpec(family="R", n=14, r=1000.0, d=1.0, delta=0.35, seed=seed))
        graph = gen_instance(spec)
        inst, oracle = graph.instance, sp_oracle(graph)
        solutions = list({x.members: x for x in (oracle.solve(rng.uniform(inst.lo, inst.hi))[0] for _ in range(12))}.values())
        probs = rng.dirichlet(np.ones(len(solutions)))
        probs[rng.random(len(solutions)) < 0.5] = 0.0
        if not probs.any():
            probs[0] = 1.0
        kept = probs != 0.0
        full = br_c(inst, oracle, probs, solutions)
        drawn = br_c(inst, oracle, probs[kept], [x for x, keep in zip(solutions, kept) if keep])
        assert full == drawn


def _random_interval_instance(rng, n):
    """n elements whose lo spans several decades, with widths up to 1000."""
    lo = rng.uniform(0.0, 1000.0, n) * 10.0 ** rng.uniform(-2, 2, n)
    return IntervalInstance(lo=lo, hi=lo + rng.uniform(0.0, 1000.0, n))


def _feasible_families():
    """(label, instance, oracle, every feasible solution): small R and K graphs, and random set families."""
    for seed in range(3):
        for spec in (GeneratorSpec(family="R", n=10, r=1000.0, d=1.0, delta=0.4, seed=8100 + seed),
                     GeneratorSpec(family="K", n=14, r=1000.0, d=1.0, w=3, seed=8100 + seed)):
            graph = gen_instance(spec)
            yield spec.name, graph.instance, sp_oracle(graph), [p.indicator() for p in enumerate_paths(graph)]
    rng = np.random.default_rng(81)
    for k in range(3):
        n = 9
        inst = _random_interval_instance(rng, n)
        family = list({x.members: x for x in (sol(*np.flatnonzero(rng.random(n) < 0.4).tolist()) for _ in range(24)) if x.members}.values())
        yield "sets#%d" % k, inst, EnumeratedOracle(n, family), family


def test_a_scenario_best_response_is_optimal_for_its_own_solution():
    """br_c's answer fav(z) has z among its optima, so its optimum is z's own cost, to the bit.

    That holds for br_c's answers alone: some favoring descriptor built by
    hand has an optimum below its own solution's cost, and the pool
    searches such a descriptor.
    """
    rng = np.random.default_rng(82)
    for label, inst, oracle, feasible in _feasible_families():
        assert len(feasible) >= 4, label
        for _ in range(30):
            solutions = [feasible[i] for i in rng.choice(len(feasible), size=int(rng.integers(1, 6)), replace=False)]
            probs = rng.dirichlet(np.ones(len(solutions)))
            probs[rng.random(len(solutions)) < 0.3] = 0.0
            if not probs.any():
                probs[0] = 1.0
            desc = br_c(inst, oracle, probs, solutions)
            scenario = desc.expand(inst)
            own = val(desc.defining, scenario).hex()
            assert val(oracle.solve(scenario.costs)[0], scenario).hex() == own, label
            assert min(val(y, scenario) for y in feasible).hex() == own, label
            pool = ScenarioPool(inst, oracle)
            assert pool.ensure(desc, defining_optimal=True).hex() == own
        below = []
        for x in feasible:
            scenario = favoring_scenario(inst, x)
            searched = ScenarioPool(inst, oracle).ensure(ScenarioDescriptor(x, FAVORING))
            assert searched == min(val(y, scenario) for y in feasible)
            below.append(searched < val(x, scenario))
        assert any(below), label


def _game_families():
    """(label, instance, oracle) triples whose double-oracle runs grow for several iterations."""
    for seed in range(3):
        for spec in (GeneratorSpec(family="R", n=40, r=1000.0, d=1.0, delta=0.2, seed=8300 + seed),
                     GeneratorSpec(family="K", n=34, r=1000.0, d=1.0, w=4, seed=8300 + seed)):
            graph = gen_instance(spec)
            yield spec.name, graph.instance, sp_oracle(graph)
    rng = np.random.default_rng(84)
    for k in range(3):
        n = 14
        inst = _random_interval_instance(rng, n)
        family = {frozenset(rng.choice(n, size=5, replace=False).tolist()) for _ in range(120)}
        yield "sets#%d" % k, inst, EnumeratedOracle(n, sorted(family, key=sorted))


def test_a_grown_iteration_makes_two_oracle_calls_to_the_answers_of_three(monkeypatch):
    """A grown iteration makes two oracle calls, one best response per player; searching br_c's optimum too made three.

    With that search put back, every run reads the same trace, bound,
    strategies and final mixture, to the bit, and makes one call more per
    br_c answer published.
    """

    class Counting:
        def __init__(self, oracle):
            self.oracle, self.n, self.calls = oracle, oracle.n, 0

        def solve(self, *args):
            self.calls += 1
            return self.oracle.solve(*args)

    plain_lp = double_oracle.solve_zero_sum

    def run(inst, oracle, x, iterations):
        """The run, its pool's size, and the oracle calls before the first LP and after each."""
        counting, marks = Counting(oracle), []

        def marking(matrix):
            marks.append(counting.calls)
            return plain_lp(matrix)

        monkeypatch.setattr(double_oracle, "solve_zero_sum", marking)
        pool = ScenarioPool(inst, counting)
        result = run_double_oracle(inst, counting, [x], config=DoubleOracleConfig(max_iterations=iterations), pool=pool)
        monkeypatch.setattr(double_oracle, "solve_zero_sum", plain_lp)
        return result, len(pool), marks[0], np.diff(marks + [counting.calls]).tolist()

    def outcome(result):
        return (
            [v.hex() for v in result.trace], result.lower_bound.hex(), result.solutions, result.scenarios,
            result.equilibrium.col_probs.tobytes(), result.converged, result.iterations,
        )

    ensure = ScenarioPool.ensure

    def searching(self, desc, *, defining_optimal=False):
        return ensure(self, desc)

    grown = 0
    for label, inst, oracle in _game_families():
        x, _ = oracle.solve(inst.mid)
        for iterations in (5, 10_000):
            result, published, first, steps = run(inst, oracle, x, iterations)
            # One search for the first column's optimum, before the first LP.
            assert first == 1, label
            # Two calls after every LP but the one that closes a run cut short after growing.
            assert steps[:result.iterations] == [2] * result.iterations, label
            assert steps[result.iterations:] in ([], [1]), label
            grown += result.iterations - result.converged
            monkeypatch.setattr(ScenarioPool, "ensure", searching)
            searched, searched_published, _, searched_steps = run(inst, oracle, x, iterations)
            monkeypatch.setattr(ScenarioPool, "ensure", ensure)
            assert outcome(searched) == outcome(result), label
            assert searched_published == published
            assert sum(searched_steps) - sum(steps) == published - 1, label
    assert grown >= 60


def test_max_regret_examples():
    inst, oracle = two_arc_setup()
    assert max_regret(inst, oracle, sol(0)) == 3.0
    assert max_regret(inst, oracle, sol(1)) == 7.0
    graph, inst6, oracle6 = six_node_setup()
    assert max_regret(inst6, oracle6, sol(0, 2, 5, 7)) == 4.0
    assert max_regret(inst6, oracle6, sol(0, 3, 6)) == 5.0


def test_max_regret_through_a_pool_matches_a_plain_solve(monkeypatch):
    """Priced through a pool, x's regret is the plain one to the bit, and pricing publishes nothing.

    The pool keeps the optimum it solved, so a game started from that pool
    solves x's penalizing scenario, its first column, once less than a
    game from a fresh pool.
    """
    searched = []
    plain = shortest_path.dijkstra

    def counting(g, costs, *args, **kwargs):
        searched.append(np.array(costs, dtype=float))
        return plain(g, costs, *args, **kwargs)

    monkeypatch.setattr(shortest_path, "dijkstra", counting)
    for i in range(100):
        if i % 2:
            spec = GeneratorSpec(family="K", n=2 + 3 * (2 + i % 5), r=1000.0, d=(0.5, 1.0)[i % 4 // 2], w=3, seed=6100 + i)
        else:
            spec = GeneratorSpec(family="R", n=5 + i % 30, r=1000.0, d=(0.5, 1.0)[i % 4 // 2], delta=0.3, seed=6100 + i)
        graph = gen_instance(spec)
        inst, oracle = graph.instance, sp_oracle(graph)
        for costs in (inst.mid, inst.hi):
            x, _ = oracle.solve(costs)
            worst = penalizing_scenario(inst, x).costs
            pool = ScenarioPool(inst, oracle)
            shared = max_regret(inst, oracle, x, pool)
            assert shared.hex() == max_regret(inst, oracle, x).hex()
            assert len(pool) == 0
            # A second pricing reads the pool and solves nothing.
            searched.clear()
            assert max_regret(inst, oracle, x, pool).hex() == shared.hex() and len(pool) == 0
            assert not searched
            if i % 10 == 0:
                config = DoubleOracleConfig(max_iterations=3)
                ours = run_double_oracle(inst, oracle, [x], config=config, pool=pool)
                ours_solves = sum(np.array_equal(c, worst) for c in searched)
                searched.clear()
                fresh = run_double_oracle(inst, oracle, [x], config=config)
                assert ours_solves == sum(np.array_equal(c, worst) for c in searched) - 1
                assert [v.hex() for v in ours.trace] == [v.hex() for v in fresh.trace]
                assert (ours.solutions, ours.scenarios) == (fresh.solutions, fresh.scenarios)
                assert next(iter(pool.published)) == ScenarioDescriptor(x, PENALIZING)


def test_mixture_costs_match_the_reference_loops_bit_for_bit():
    """Both players' mixture costs come from one routine, to the bit of the loops each first had."""
    rng = np.random.default_rng(15)
    for _ in range(300):
        n = int(rng.integers(1, 14))
        lo = rng.uniform(0.0, 1000.0, n)
        inst = IntervalInstance(lo=lo, hi=lo + rng.uniform(0.0, 500.0, n) * (rng.random(n) < 0.8))

        def draw():
            return sol(*rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())

        def weights(k):
            w = rng.dirichlet(np.ones(k))
            w[rng.random(k) < 0.3] = 0.0
            return w

        solutions = [draw() for _ in range(int(rng.integers(1, 8)))]
        row_probs = weights(len(solutions))
        handed = []

        class Recording:
            def solve(self, costs, restriction=None, bound=math.inf):
                handed.append(costs)
                return solutions[0], 0.0

        br_c(inst, Recording(), row_probs, solutions)
        expected = inst.lo + inst.width * reference_marginals(row_probs, solutions, n).clip(0.0, 1.0)
        assert handed[0].tobytes() == expected.tobytes()

        descs = [ScenarioDescriptor(draw(), (PENALIZING, FAVORING)[int(rng.integers(2))]) for _ in range(int(rng.integers(1, 10)))]
        # As in a real game, every defining solution is feasible for the pool's oracle.
        game = RestrictedGame(inst, ScenarioPool(inst, EnumeratedOracle(n, solutions + [d.defining for d in descs])))
        for desc in descs:
            if not game.has_scenario(desc):
                game.add_scenario(desc, [])
        col_probs = weights(len(game.scenarios)).tolist()
        expected = reference_mixture_costs(inst, zip(col_probs, game.scenarios))
        assert game.mixture_costs(col_probs).tobytes() == expected.tobytes()


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
    pooled = list(pool.published)
    assert len(pooled) == 3
    asked = []
    ensure = ScenarioPool.ensure

    def recording(self, desc, **kwargs):
        asked.append(desc)
        return ensure(self, desc, **kwargs)

    monkeypatch.setattr(ScenarioPool, "ensure", recording)
    game = RestrictedGame(inst, pool)
    assert game.scenarios == pooled
    # A run from another start reads the pooled optima from its own copy too.
    second = run_double_oracle(inst, oracle, [sol(1, 4, 6)], [ScenarioDescriptor(sol(1, 4, 6), "favoring")], pool=pool)
    assert list(second.scenarios[:3]) == pooled
    assert not set(asked) & set(pooled)


def test_a_pooled_game_expands_each_scenario_once(monkeypatch):
    """Publishing a scenario expands its descriptor once, for its search and its dense costs alike."""
    expanded = []
    extreme = core._extreme

    def counting(base, swap, x):
        expanded.append(x)
        return extreme(base, swap, x)

    monkeypatch.setattr(core, "_extreme", counting)
    for spec in (GeneratorSpec(family="R", n=14, r=1000.0, d=1.0, delta=0.35, seed=3), GeneratorSpec(family="K", n=17, r=1000.0, d=1.0, w=3, seed=3)):
        graph = gen_instance(spec)
        inst, oracle = graph.instance, sp_oracle(graph)
        pool = ScenarioPool(inst, oracle)
        start, _ = oracle.solve(inst.mid)
        expanded.clear()
        run_double_oracle(inst, oracle, [start], config=DoubleOracleConfig(max_iterations=10), pool=pool)
        assert len(pool) > 1 and len(expanded) == len(pool)
        # An optimum solved unpublished expands once; publishing it later expands once more, for its costs.
        desc = next(d for d in (ScenarioDescriptor(p.indicator(), PENALIZING) for p in enumerate_paths(graph)) if d not in pool.published)
        expanded.clear()
        pool.optimum(desc)
        pool.ensure(desc)
        pool.ensure(desc)
        assert len(expanded) == 2


def test_a_game_owns_a_copy_of_the_pools_published_columns():
    """A new game's columns are the pool's published map, in publishing order, with
    each optimum val of a fresh oracle solve's solution to the bit and each column's
    costs its scenario's; later publishing leaves the game alone."""
    specs = [GeneratorSpec(family="R", n=12, r=1000.0, d=1.0, delta=0.4, seed=s) for s in range(3)]
    specs += [GeneratorSpec(family="K", n=14, r=1000.0, d=1.0, w=3, seed=s) for s in range(3)]
    for spec in specs:
        graph = gen_instance(spec)
        inst, oracle = graph.instance, sp_oracle(graph)
        pool = ScenarioPool(inst, oracle)
        for x in root_start(inst, oracle)[0] + [oracle.solve(inst.hi)[0]]:
            run_double_oracle(inst, oracle, [x], pool=pool)
        published = list(pool.published)
        assert len(published) >= 2
        game = RestrictedGame(inst, pool)
        assert game._columns == pool.published and game._columns is not pool.published
        assert list(game._columns.items()) == list(pool.published.items())
        fresh = sp_oracle(graph)
        for (desc, opt), costs in zip(game._columns.items(), game._costs, strict=True):
            scenario = desc.expand(inst)
            assert opt.hex() == val(fresh.solve(scenario.costs)[0], scenario).hex()
            assert costs == array("d", scenario.costs)
        columns = dict(game._columns)
        # Every published scenario is defined by a path; this one is defined by every arc.
        late = ScenarioDescriptor(sol(*range(inst.n)), FAVORING)
        pool.ensure(late)
        assert late in pool.published and not game.has_scenario(late)
        assert game._columns == columns and game.scenarios == published


def test_stop_value_short_circuits():
    inst, oracle = two_arc_setup()
    config = DoubleOracleConfig(stop_value=0.05)
    result = run_double_oracle(inst, oracle, *root_start(inst, oracle), config)
    assert not result.converged
    assert result.iterations == 3
    assert result.lower_bound == pytest.approx(2.1, abs=1e-9)


def test_solution_support_cap_keeps_the_bound_sound(monkeypatch):
    graph, inst, oracle = six_node_setup()
    monkeypatch.setattr(double_oracle, "_MAX_SOLUTIONS", 1)
    result = run_double_oracle(inst, oracle, *root_start(inst, oracle))
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


def test_ten_round_bounds_are_the_same_without_the_acyclic_order(monkeypatch):
    """The 10-round midpoint game on K graphs and relabelled copies: the same bits with the order and under A*."""
    graphs = []
    for n, seed in itertools.product((30, 42), range(4)):  # K-30 and K-42 seed 2 stop at the budget
        g = gen_instance(GeneratorSpec("K", n, 1000.0, 1.0, w=4, seed=seed))
        graphs += [g, relabel(g, np.random.default_rng([n, seed]))]
    passes = []
    acyclic_pass = shortest_path._acyclic_pass

    def counting(*args):
        passes.append(None)
        return acyclic_pass(*args)

    monkeypatch.setattr(shortest_path, "_acyclic_pass", counting)

    def ten_rounds(g):
        oracle = sp_oracle(g)
        path, _ = oracle.solve_path(midpoint_scenario(g.instance).costs)
        x = path.indicator()
        config = DoubleOracleConfig(max_iterations=10)
        result = run_double_oracle(g.instance, oracle, [x], [ScenarioDescriptor(x, PENALIZING)], config)
        return result.lower_bound.hex(), result.iterations, result.scenarios

    with_order = [ten_rounds(g) for g in graphs]
    assert sum(iterations == 10 for _, iterations, _ in with_order) >= 4
    assert len(passes) > len(with_order)
    # The graphs see the cyclic marker in place of the order, and search with A*.
    monkeypatch.setattr(IntervalDigraph, "acyclic_order", lambda self: None)
    passes.clear()
    assert [ten_rounds(g) for g in graphs] == with_order
    assert passes == []


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
        assert next(iter(pool.published)) == init_c[0]


def test_run_from_a_pool_adds_no_penalizing_column():
    graph, inst, oracle = six_node_setup()
    pool = ScenarioPool(inst, oracle)
    pool.ensure(ScenarioDescriptor(sol(1, 4, 6), "favoring"))
    x = sol(0, 2, 5, 7)
    result = run_double_oracle(inst, oracle, [x], pool=pool)
    assert result.scenarios[0] == ScenarioDescriptor(sol(1, 4, 6), "favoring")
    assert ScenarioDescriptor(x, PENALIZING) not in result.scenarios
    assert all(d.kind != PENALIZING for d in pool.published)


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


def test_every_bound_a_search_receives_holds_a_path_that_cheap(monkeypatch):
    """The pool, br_c, the game's best responses and lb_mgd bound their searches by a path they hold.

    On real graphs, through every strategy of branch and bound and the
    root bounds, no bound lies below the search's own optimum by more than
    the rounding of a sum taken in another order.
    """
    received = []
    plain_dijkstra, plain_constrained = shortest_path.dijkstra, shortest_path.constrained_sp

    def note(name, bound, found):
        if found is not None and bound < math.inf:
            received.append((name, bound, found[1]))
        return found

    def checked_dijkstra(graph, costs, bound=math.inf):
        return note("dijkstra", bound, plain_dijkstra(graph, costs, bound))

    def checked_constrained(graph, costs, constraint, bound=math.inf):
        return note("constrained_sp", bound, plain_constrained(graph, costs, constraint, bound))

    for module in (shortest_path, bounds):
        monkeypatch.setattr(module, "dijkstra", checked_dijkstra)
        monkeypatch.setattr(module, "constrained_sp", checked_constrained)
    for i in range(24):
        if i % 2:
            spec = GeneratorSpec(family="K", n=2 + 3 * (2 + i % 4), r=1000.0, d=1.0, w=3, seed=7300 + i)
        else:
            spec = GeneratorSpec(family="R", n=6 + i % 10, r=1000.0, d=(0.5, 1.0)[i % 4 // 2], delta=0.35, seed=7300 + i)
        graph = gen_instance(spec)
        for strategy in ("mgd", "cg", "do"):
            bb_solve(graph, strategy, BBConfig(warm_start=i % 3 != 0))
        lb_kz(graph)
        lb_mgd(graph)
    kinds = {name for name, _, _ in received}
    assert kinds == {"dijkstra", "constrained_sp"}
    for name, bound, value in received:
        assert bound >= value - 1e-12 * max(1.0, value), (name, bound, value)


# ------------------------------------------------------ order independence


def _random_cost_copies(spec, seed):
    """A generated graph's arcs with random float costs spanning six decades, and a copy with its arcs reordered.

    Returns both graphs and the map from an arc id of the first to its id in the copy.
    """
    base = gen_instance(spec)
    rng = np.random.default_rng(seed)
    lo = rng.random(base.m) * 10 ** rng.uniform(-2, 4, base.m)
    hi = lo + rng.random(base.m) * 10 ** rng.uniform(-2, 4, base.m)
    graph = IntervalDigraph(base.node_count, base.tails, base.heads, lo, hi, base.source, base.target)
    perm = rng.permutation(base.m)  # arc j of the copy is arc perm[j]
    copy = IntervalDigraph(
        base.node_count, base.tails[perm], base.heads[perm], lo[perm], hi[perm], base.source, base.target
    )
    return graph, copy, np.argsort(perm)


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec(family="R", n=12, r=1000.0, d=1.0, delta=0.4, seed=5),
        GeneratorSpec(family="K", n=20, r=1000.0, d=1.0, w=3, seed=5),
    ],
    ids=["R", "K"],
)
def test_pricing_does_not_depend_on_arc_order(spec):
    """Game entries, expected regrets and max regrets are the same bits on a graph and on a copy with its arcs reordered."""
    graph, copy, new_id = _random_cost_copies(spec, spec.seed)
    rng = np.random.default_rng(1)
    # Distinct paths: the optima of random cost vectors on the first graph.
    oracle = sp_oracle(graph)
    paths = {}
    for _ in range(40):
        x, _ = oracle.solve(rng.random(graph.m) * 10 ** rng.uniform(-2, 4, graph.m))
        paths.setdefault(x.members, x)
    solutions = list(paths.values())[:8]
    assert len(solutions) >= 5
    descs = [ScenarioDescriptor(x, kind) for x in solutions for kind in (PENALIZING, FAVORING)]

    found = []
    for g, ids in ((graph, np.arange(graph.m)), (copy, new_id)):

        def on_g(x):
            return SolutionIndicator(frozenset(ids[e] for e in x.members))

        inst, g_oracle = g.instance, sp_oracle(g)
        game = RestrictedGame(inst, ScenarioPool(inst, g_oracle))
        for desc in descs:
            game.add_scenario(ScenarioDescriptor(on_g(desc.defining), desc.kind), [])
        for x in solutions:
            game.add_solution(on_g(x))
        probs = np.random.default_rng(2).dirichlet(np.ones(len(descs)), size=4)
        found.append((
            game.matrix.tobytes(),
            [game.expected_regret(game._row_values(on_g(x)), q).hex() for x in solutions for q in probs],
            [max_regret(inst, g_oracle, on_g(x)).hex() for x in solutions],
        ))
    assert found[0] == found[1]


def test_val_is_the_same_in_every_member_order():
    rng = np.random.default_rng(3)
    costs = rng.random(40) * 10 ** rng.uniform(-6, 6, 40)
    scenario = Scenario(costs)
    x = sol(3, 11, 17, 22, 29, 35, 38)
    expected = val(x, scenario).hex()
    for order in itertools.permutations(sorted(x.members)):
        assert val(SolutionIndicator(order), scenario).hex() == expected
        assert cost_of(order, costs).hex() == expected
        assert cost_of(order, array("d", costs)).hex() == expected
