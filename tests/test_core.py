import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretopt import (
    IntervalInstance,
    Scenario,
    ScenarioDescriptor,
    ScenarioPool,
    SolutionIndicator,
    br_c,
    favoring_scenario,
    midpoint_scenario,
    penalizing_scenario,
    sp_oracle,
    val,
)
from regretopt.double_oracle import PENALIZING, RestrictedGame, mixture_costs

from _fixtures import five_element_instance, six_node_graph, two_arc_graph
from _oracles import EnumeratedOracle


def sol(*indices):
    return SolutionIndicator(frozenset(indices))


# ---------------------------------------------------------------- validation


def test_solution_indices_must_be_integers():
    # A fractional index is an error, not an element it truncates to.
    for members in ([1.5, 2.9], [np.float64(2.0)], ["1"]):
        with pytest.raises(TypeError):
            SolutionIndicator(members)
    x = SolutionIndicator([np.int64(3), np.int32(1), 2])
    assert x.members == {1, 2, 3} and all(type(i) is int for i in x.members)


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="set table sizes are CPython's")
def test_member_sets_take_the_smaller_table():
    rng = np.random.default_rng(0)
    for count in range(1, 65):
        ids = tuple(rng.choice(312, size=count, replace=False).tolist())
        direct = frozenset(ids)
        copy = frozenset(set(direct))
        members = SolutionIndicator(ids).members
        assert members == direct
        assert sys.getsizeof(members) == min(sys.getsizeof(direct), sys.getsizeof(copy)), count
        if 5 <= count <= 7 or 19 <= count <= 31:
            assert sys.getsizeof(members) < sys.getsizeof(direct), count


def test_instance_rejects_inverted_interval():
    with pytest.raises(ValueError):
        IntervalInstance(lo=np.array([2.0]), hi=np.array([1.0]))


def test_instance_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        IntervalInstance(lo=np.array([-1.0]), hi=np.array([1.0]))
    with pytest.raises(ValueError):
        IntervalInstance(lo=np.array([0.0]), hi=np.array([np.inf]))
    with pytest.raises(ValueError):
        IntervalInstance(lo=np.array([]), hi=np.array([]))


# ----------------------------------------------------------------------- val


def test_val_empty_solution_is_zero():
    c = Scenario(np.array([1.0, 2.0, 3.0]))
    assert val(sol(), c) == 0.0


def test_val_all_low_route():
    g = six_node_graph()
    c = Scenario(np.array(g.lo))
    assert val(sol(0, 3, 6), c) == 5.0


def test_val_two_arc_instance():
    c = Scenario(np.array([5.0, 12.0]))
    assert val(sol(1), c) == 12.0


def test_val_dimension_mismatch():
    with pytest.raises(ValueError):
        val(sol(5), Scenario(np.array([1.0, 2.0])))


# ----------------------------------------------------------- scenario makers


def test_penalizing_empty_is_all_low():
    inst = five_element_instance()
    np.testing.assert_array_equal(penalizing_scenario(inst, sol()).costs, inst.lo)


def test_penalizing_five_element_example():
    inst = five_element_instance()
    got = penalizing_scenario(inst, sol(1, 2))
    np.testing.assert_array_equal(got.costs, [3.0, 5.0, 2.0, 3.0, 0.0])


def test_penalizing_zero_width_is_unique_scenario():
    inst = IntervalInstance(lo=np.array([2.0, 3.0]), hi=np.array([2.0, 3.0]))
    np.testing.assert_array_equal(penalizing_scenario(inst, sol(0)).costs, [2.0, 3.0])


def test_favoring_five_element_example():
    inst = five_element_instance()
    got = favoring_scenario(inst, sol(2, 4))
    np.testing.assert_array_equal(got.costs, [4.0, 5.0, 1.0, 3.0, 0.0])


def test_favoring_full_solution_is_all_low():
    inst = five_element_instance()
    got = favoring_scenario(inst, sol(0, 1, 2, 3, 4))
    np.testing.assert_array_equal(got.costs, inst.lo)


def test_favoring_route_in_graph():
    g = six_node_graph()
    got = favoring_scenario(g.instance, sol(1, 5, 7))
    expected = np.array(g.hi)
    expected[[1, 5, 7]] = g.lo[[1, 5, 7]]
    np.testing.assert_array_equal(got.costs, expected)


def test_midpoints():
    inst = two_arc_graph().instance
    np.testing.assert_array_equal(midpoint_scenario(inst).costs, [7.5, 9.5])
    g = six_node_graph()
    np.testing.assert_array_equal(
        midpoint_scenario(g.instance).costs, [3.0, 4.0, 1.5, 2.5, 2.5, 2.5, 2.5, 1.5]
    )
    flat = IntervalInstance(lo=np.array([1.0]), hi=np.array([1.0]))
    np.testing.assert_array_equal(midpoint_scenario(flat).costs, [1.0])


def test_the_instance_keeps_one_read_only_midpoint():
    """instance.mid is (lo + hi) / 2 to the bit, read-only, inside [lo, hi], and what midpoint_scenario hands out."""
    rng = np.random.default_rng(1407)
    instances = [six_node_graph().instance, two_arc_graph().instance, five_element_instance()]
    for _ in range(200):
        lo = rng.random(8) * 10.0 ** rng.integers(-3, 6)
        instances.append(IntervalInstance(lo=lo, hi=lo + rng.random(8) * 10.0 ** rng.integers(-12, 6)))
    for inst in instances:
        mid = inst.mid
        assert mid is inst.mid and not mid.flags.writeable
        assert mid.tobytes() == ((inst.lo + inst.hi) / 2.0).tobytes()
        assert (inst.lo <= mid).all() and (mid <= inst.hi).all()
        assert midpoint_scenario(inst).costs is mid
    with pytest.raises(ValueError, match="midpoints"), np.errstate(over="ignore"):
        IntervalInstance(lo=np.array([1e308]), hi=np.array([1.5e308]))


def test_extreme_scenarios_are_read_only_copies():
    inst = five_element_instance()
    for build in (penalizing_scenario, favoring_scenario):
        scenario = build(inst, sol(1, 4))
        assert not scenario.costs.flags.writeable
        assert not np.shares_memory(scenario.costs, inst.lo) and not np.shares_memory(scenario.costs, inst.hi)
        with pytest.raises(ValueError, match="does not fit"):
            build(inst, sol(5))


def test_extreme_scenarios_match_the_per_member_loop_byte_for_byte():
    """One indexed store gives the bytes, and the error, of swapping the members in one by one."""

    def reference(base, swap, members):
        costs = np.array(base)
        for i in members:
            if i >= costs.size:
                raise ValueError("solution does not fit the instance")
            costs[i] = swap[i]
        return costs

    rng = np.random.default_rng(24)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        lo = rng.uniform(0.0, 1000.0, n)
        inst = IntervalInstance(lo=lo, hi=lo + rng.uniform(0.0, 500.0, n) * (rng.random(n) < 0.8))
        x = sol(*rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
        assert x.index.dtype == np.intp and not x.index.flags.writeable and x.index is x.index
        assert sorted(x.index.tolist()) == sorted(x.members)
        outside = sol(*x.members, n + int(rng.integers(0, 3)))
        for build, base, swap in ((penalizing_scenario, inst.lo, inst.hi), (favoring_scenario, inst.hi, inst.lo)):
            assert build(inst, x).costs.tobytes() == reference(base, swap, x.members).tobytes()
            with pytest.raises(ValueError, match="does not fit") as raised:
                build(inst, outside)
            with pytest.raises(ValueError) as expected:
                reference(base, swap, outside.members)
            assert str(raised.value) == str(expected.value)


def test_mean_scenario_single_and_weighted():
    """The mean scenario of a mixture, as the restricted game builds it for the solution player."""
    graph = two_arc_graph()
    game = RestrictedGame(graph.instance, ScenarioPool(graph.instance, sp_oracle(graph)))
    for defining in (sol(0), sol(1)):  # (5, 12) and (10, 7)
        game.add_scenario(ScenarioDescriptor(defining, "favoring"), [])
    np.testing.assert_array_equal(game.mixture_costs([1.0, 0.0]), [5.0, 12.0])
    np.testing.assert_allclose(game.mixture_costs([0.3, 0.7]), [8.5, 8.5])


def test_marginals():
    """A solution mixture's marginals are the weights at hi of its penalizing scenarios' mixture."""

    def marginals(probs, solutions, n):
        unit = IntervalInstance(lo=np.zeros(n), hi=np.ones(n))
        return mixture_costs(unit, [(p, ScenarioDescriptor(x, PENALIZING)) for p, x in zip(probs, solutions)])

    np.testing.assert_array_equal(marginals(np.array([1.0]), [sol(0, 2)], 3), [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(marginals(np.array([0.5, 0.5]), [sol(0), sol(1)], 2), [0.5, 0.5])
    np.testing.assert_allclose(marginals(np.array([0.7, 0.3]), [sol(0), sol(1)], 2), [0.7, 0.3])
    with pytest.raises(ValueError, match="does not fit"):
        marginals(np.array([1.0]), [sol(3)], 3)
    with pytest.raises(ValueError):  # br_c takes one probability per solution
        br_c(IntervalInstance(lo=np.zeros(2), hi=np.ones(2)), EnumeratedOracle(2, [sol(0)]), np.array([0.5, 0.5]), [sol(0)])


# ------------------------------------------------------------- property side

interval_instances = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 8), min_size=n, max_size=n),
        st.lists(st.integers(0, 8), min_size=n, max_size=n),
    ).map(
        lambda pair: IntervalInstance(
            lo=np.array(pair[0], dtype=float),
            hi=np.array(pair[0], dtype=float) + np.array(pair[1], dtype=float),
        )
    )
)


def subsets(n):
    return st.sets(st.integers(0, n - 1), max_size=n).map(SolutionIndicator)


@given(interval_instances, st.data())
def test_penalizing_and_favoring_are_opposite_extremes(inst, data):
    x = data.draw(subsets(inst.n))
    pen = penalizing_scenario(inst, x).costs
    fav = favoring_scenario(inst, x).costs
    member = np.isin(np.arange(inst.n), list(x.members))
    np.testing.assert_array_equal(pen, np.where(member, inst.hi, inst.lo))
    np.testing.assert_array_equal(fav, np.where(member, inst.lo, inst.hi))
    # Each flips the other endpoint-wise; the integer data keep this exact.
    np.testing.assert_array_equal(pen + fav, inst.lo + inst.hi)


@settings(max_examples=60)
@given(interval_instances, st.data())
def test_pairwise_regret_peaks_at_both_defining_extremes(inst, data):
    # Over every extreme scenario the x-vs-y regret is maximized both at
    # x's penalizing scenario and at the scenario favoring y.
    x = data.draw(subsets(inst.n))
    y = data.draw(subsets(inst.n))
    def regret(c):
        return val(x, c) - val(y, c)

    best = -np.inf
    for mask in range(2 ** inst.n):
        costs = np.where([(mask >> i) & 1 for i in range(inst.n)], inst.hi, inst.lo)
        best = max(best, regret(Scenario(costs)))
    at_pen = regret(penalizing_scenario(inst, x))
    at_fav = regret(favoring_scenario(inst, y))
    assert at_pen == pytest.approx(best, abs=1e-9)
    assert at_fav == pytest.approx(best, abs=1e-9)


@given(interval_instances, st.data())
def test_centered_pair_averages_to_midpoint(inst, data):
    x = data.draw(subsets(inst.n))
    mean = 0.5 * penalizing_scenario(inst, x).costs + 0.5 * favoring_scenario(inst, x).costs
    np.testing.assert_allclose(mean, midpoint_scenario(inst).costs)


@given(interval_instances, st.data())
def test_val_is_linear_in_the_scenario_mixture(inst, data):
    x = data.draw(subsets(inst.n))
    k = data.draw(st.integers(1, 4))
    support = tuple(
        Scenario(np.where(data.draw(st.lists(st.booleans(), min_size=inst.n, max_size=inst.n)), inst.hi, inst.lo))
        for _ in range(k)
    )
    raw = np.array(data.draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)), dtype=float)
    probs = raw / raw.sum()
    mixed = val(x, Scenario(probs @ np.array([c.costs for c in support])))
    direct = sum(prob * val(x, c) for prob, c in zip(probs, support))
    assert mixed == pytest.approx(direct, rel=1e-9, abs=1e-9)
