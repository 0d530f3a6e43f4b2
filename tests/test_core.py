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
    favoring_scenario,
    midpoint_scenario,
    penalizing_scenario,
    sp_oracle,
    val,
)
from regretopt.core import marginals
from regretopt.double_oracle import RestrictedGame

from _fixtures import five_element_instance, six_node_graph, two_arc_graph


def sol(*indices):
    return SolutionIndicator(frozenset(indices))


# ---------------------------------------------------------------- validation


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


def test_mean_scenario_single_and_weighted():
    """The mean scenario of a mixture, as the restricted game builds it for the solution player."""
    graph = two_arc_graph()
    game = RestrictedGame(graph.instance, ScenarioPool(graph.instance, sp_oracle(graph)))
    for defining in (sol(0), sol(1)):  # (5, 12) and (10, 7)
        game.add_scenario(ScenarioDescriptor(defining, "favoring"), [])
    np.testing.assert_array_equal(game.mixture_costs([1.0, 0.0]), [5.0, 12.0])
    np.testing.assert_allclose(game.mixture_costs([0.3, 0.7]), [8.5, 8.5])


def test_marginals():
    np.testing.assert_array_equal(marginals(np.array([1.0]), [sol(0, 2)], 3), [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(marginals(np.array([0.5, 0.5]), [sol(0), sol(1)], 2), [0.5, 0.5])
    np.testing.assert_allclose(marginals(np.array([0.7, 0.3]), [sol(0), sol(1)], 2), [0.7, 0.3])
    with pytest.raises(ValueError):
        marginals(np.array([1.0]), [sol(3)], 3)
    with pytest.raises(ValueError):
        marginals(np.array([0.5, 0.5]), [sol(0)], 2)


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
