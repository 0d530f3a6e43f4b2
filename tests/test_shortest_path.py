import dataclasses
import functools
import heapq
import math
import types

import numpy as np
import pytest

from array import array

from regretopt import (
    IntervalDigraph,
    NoFeasibleSolution,
    Path,
    PathConstraint,
    Scenario,
    SolutionIndicator,
    constrained_sp,
    dijkstra,
    favoring_scenario,
    lb_cg,
    lb_mgd,
    midpoint_scenario,
    run_double_oracle,
    solve_zero_sum,
    sp_oracle,
    two_unit_min_flow,
)
from regretopt import shortest_path
from regretopt.branch_bound import fixed_arcs
from regretopt.double_oracle import max_regret
from regretopt.harness import GeneratorSpec, gen_instance
from regretopt.harness.brute_force import enumerate_paths
from regretopt.shortest_path import order_path_edges, through_arc_costs

from _fixtures import loop_graph, six_node_graph, two_arc_graph
from _oracles import _plain_dijkstra, full_sweep_through_costs


def random_graph(i: int) -> IntervalDigraph:
    spec = GeneratorSpec(
        family="R",
        n=4 + (i % 9),
        r=50.0,
        d=(0.0, 0.5, 1.0)[i % 3],
        delta=0.3 + 0.1 * (i % 7),
        seed=i,
    )
    return gen_instance(spec)


# ------------------------------------------------------------- construction


def test_construction_rejects_bad_graphs():
    with pytest.raises(ValueError):
        IntervalDigraph.from_edges(2, [(0, 1, 1.0, 2.0)], 0, 0)
    with pytest.raises(ValueError):  # target unreachable
        IntervalDigraph.from_edges(3, [(1, 0, 1.0, 2.0)], 0, 2)
    with pytest.raises(ValueError):  # arc endpoint out of range
        IntervalDigraph.from_edges(2, [(0, 5, 1.0, 2.0)], 0, 1)
    with pytest.raises(ValueError):  # inverted interval
        IntervalDigraph.from_edges(2, [(0, 1, 3.0, 2.0)], 0, 1)


def test_graphs_and_their_records_compare_and_hash_by_identity():
    g, h = six_node_graph(), six_node_graph()
    # Each record holds numpy arrays, which have no single truth value.
    records = [
        (g, h),
        (g.instance, h.instance),
        (Scenario(g.lo), Scenario(g.lo)),
        (solve_zero_sum([[1.0, 0.0]]), solve_zero_sum([[1.0, 0.0]])),
    ]
    for a, b in records:
        assert a == a and a != b
        assert len({a, b, a}) == 2


def test_derived_graph_fields_are_not_init_parameters():
    args = (3, [0, 1], [1, 2], [1.0, 1.0], [2.0, 2.0], 0, 2)
    assert IntervalDigraph(*args).out_edges == ((0,), (1,), ())
    with pytest.raises(TypeError):
        IntervalDigraph(*args, out_edges=((9,), (), ()))
    with pytest.raises(TypeError):
        IntervalDigraph(*args, instance=six_node_graph().instance)


def test_path_helpers():
    g = six_node_graph()
    p = Path((0, 3, 6))
    assert p.value(g.lo) == 5.0
    # Priced by core.cost_of, exactly rounded: a sum in edge order would drop both ones.
    costs = np.zeros(g.m)
    costs[[0, 3, 6]] = [1e16, 1.0, 1.0]
    assert p.value(costs) == 1e16 + 2.0
    assert p.indicator().members == {0, 3, 6}


def test_constraint_validation():
    g = six_node_graph()
    constraint = PathConstraint(g, in_chain=(0, 2), out_set=frozenset({5}))
    assert (constraint.nodes, constraint.end) == ((0, 1, 2), 2)
    assert (PathConstraint(g).nodes, PathConstraint(g).end) == ((0,), 0)
    # Each bad part raises at construction, in this order of checks.
    bad = [
        (g, (0,), {0}, "an arc cannot be both forced and forbidden"),
        (g, (0, 0), (), "forced prefix repeats an arc"),
        (g, (0, 99), (), "forced arc id out of range"),
        (g, (-1,), (), "forced arc id out of range"),
        (g, (), {99}, "forbidden arc id out of range"),
        (g, (), {-1}, "forbidden arc id out of range"),
        (g, (2,), (), "forced prefix does not chain from the source"),
        (loop_graph(), (0, 1, 2), (), "forced prefix revisits a node"),
        (loop_graph(), (4, 5), (), "forced prefix passes through the target"),
    ]
    for graph, chain, out, message in bad:
        with pytest.raises(ValueError) as caught:
            PathConstraint(graph, chain, frozenset(out))
        assert str(caught.value) == message


def test_path_arc_ids_must_be_integers():
    with pytest.raises(TypeError):
        Path((0.7, 3.2))
    with pytest.raises(TypeError):
        Path((np.float64(1.0),))
    p = Path((np.int64(0), np.int32(3), 6))
    assert p.edges == (0, 3, 6) and all(type(e) is int for e in p.edges)


def test_graph_node_ids_must_be_integers():
    args = dict(node_count=3, tails=[0, 1, 0], heads=[1, 2, 2], lo=[1.0] * 3, hi=[2.0] * 3, source=0, target=2)
    fractional = [
        dict(tails=[0.5, 1.7, 0]),
        dict(heads=np.array([1.0, 2.0, 2.0])),
        dict(node_count=3.5),
        dict(source=0.2),
        dict(target=2.9),
    ]
    for bad in fractional:
        with pytest.raises(TypeError):
            IntervalDigraph(**{**args, **bad})
    g = IntervalDigraph(
        **{**args, "node_count": np.int64(3), "tails": np.array([0, 1, 0], np.int32), "heads": np.array([1, 2, 2], np.uint8), "target": np.int64(2)}
    )
    assert (g.node_count, g.source, g.target, g.out_edges) == (3, 0, 2, ((0, 2), (1,), ()))
    assert type(g.node_count) is int and type(g.target) is int
    assert g.tails.dtype == g.heads.dtype == np.int64


def test_constraint_arc_ids_must_be_integers():
    g = six_node_graph()
    for chain, out in (((0.9,), ()), ((), (2.5,)), ((np.float64(0.0),), ())):
        with pytest.raises(TypeError):
            PathConstraint(g, in_chain=chain, out_set=out)
    constraint = PathConstraint(g, in_chain=(np.int64(0),), out_set=(np.int32(5),))
    assert constraint.in_chain == (0,) and constraint.out_set == {5}
    with pytest.raises(TypeError):
        constraint.split(2.5)
    take, skip = constraint.split(np.int64(2))
    assert take.in_chain == (0, 2) and skip.out_set == {2, 5}


def test_chain_nodes_checks_what_validate_checks():
    g = six_node_graph()
    # Off the source, an id out of range, and a forbidden id out of range: built
    # directly or replaced into a checked constraint, each raises one message.
    bad = [((2,), (), "forced prefix does not chain from the source"), ((0, 99), (), "forced arc id out of range"), ((), {99}, "forbidden arc id out of range")]
    checked = PathConstraint(g, in_chain=(0,))
    for chain, out, message in bad:
        for build in (lambda: PathConstraint(g, chain, frozenset(out)), lambda: dataclasses.replace(checked, in_chain=chain, out_set=frozenset(out))):
            with pytest.raises(ValueError) as caught:
                build()
            assert str(caught.value) == message
    # A replaced constraint gets its nodes from its own prefix.
    assert dataclasses.replace(checked, in_chain=(0, 2)).nodes == (0, 1, 2)


def test_a_constraint_serves_only_its_own_graph():
    g, twin = six_node_graph(), six_node_graph()
    oracle = sp_oracle(g)
    for foreign in (PathConstraint(twin), PathConstraint(twin, in_chain=(0,), out_set=frozenset({4}))):
        calls = (
            lambda: constrained_sp(g, g.hi, foreign),
            lambda: two_unit_min_flow(g, foreign),
            lambda: oracle.solve(g.lo, foreign),
            lambda: lb_cg(g, foreign),
            lambda: lb_mgd(g, foreign),
        )
        for call in calls:
            with pytest.raises(ValueError, match="^constraint belongs to another graph$"):
                call()


# ------------------------------------------------------------------ dijkstra


def test_dijkstra_on_the_six_node_graph():
    g = six_node_graph()
    path, value = dijkstra(g, g.lo)
    assert (path.edges, value) == ((0, 3, 6), 5.0)
    path, value = dijkstra(g, g.hi)
    assert (path.edges, value) == ((1, 5, 7), 10.0)
    # midpoint costs tie two routes at 8; the smallest-arc-id rule wins
    mid = (g.lo + g.hi) / 2.0
    path, value = dijkstra(g, mid)
    assert (path.edges, value) == ((0, 3, 6), 8.0)


def test_dijkstra_rejects_bad_costs():
    g = two_arc_graph()
    with pytest.raises(ValueError):
        dijkstra(g, [1.0])
    with pytest.raises(ValueError):
        dijkstra(g, [-1.0, 2.0])
    with pytest.raises(ValueError):
        dijkstra(g, [np.inf, 2.0])
    with pytest.raises(ValueError):
        dijkstra(g, [2.0, np.nan])
    with pytest.raises(ValueError):
        dijkstra(g, [-np.inf, 2.0])
    with pytest.raises(ValueError):
        dijkstra(g, [2.0, -1e-300])


def test_the_graphs_own_costs_skip_no_check_on_other_vectors():
    # lo and hi of a graph are checked once, when it is built, and stay read-only;
    # every other cost vector, a copy of either included, is checked on every call.
    # The two-unit flow prices the graph's own intervals and takes no costs.
    g = two_arc_graph()
    assert not g.lo.flags.writeable and not g.hi.flags.writeable
    for own in (g.lo, g.hi, g.instance.mid):
        c, h = shortest_path._check_costs(g, own)
        assert c is own and h is g.potential(own)
    bad_vectors = ([1.0], [1.0, 2.0, 3.0], [2.0, np.nan], [np.inf, 2.0], [-np.inf, 2.0], [-1.0, 2.0], [2.0, -1e-300])
    for bad in bad_vectors:
        with pytest.raises(ValueError):
            constrained_sp(g, bad, PathConstraint(g))
        with pytest.raises(ValueError):
            constrained_sp(g, bad, PathConstraint(g, out_set=frozenset({1})))
    assert two_unit_min_flow(g) == 12.0


def test_the_midpoint_array_searches_like_a_checked_copy():
    """Handed instance.mid, the searches and lb_cg skip the cost check and answer as for a writable copy."""
    rng = np.random.default_rng(1408)
    checked = 0
    for i in range(40):
        if i % 2:
            spec = GeneratorSpec(family="K", n=2 + 3 * (2 + i % 5), r=1000.0, d=(0.5, 1.0)[i % 4 // 2], w=3, seed=5200 + i)
        else:
            spec = GeneratorSpec(family="R", n=6 + i % 30, r=1000.0, d=(0.5, 1.0)[i % 4 // 2], delta=0.3, seed=5200 + i)
        g = gen_instance(spec)
        mid = g.instance.mid
        copy = np.array(mid)
        assert copy.flags.writeable and shortest_path._check_costs(g, copy)[0] is not mid
        path, value = dijkstra(g, mid)
        copy_path, copy_value = dijkstra(g, copy)
        assert (path.edges, value.hex()) == (copy_path.edges, copy_value.hex())
        for constraint in (PathConstraint(g), random_constraint(rng, g), random_constraint(rng, g)):
            found = constrained_sp(g, mid, constraint)
            expected = constrained_sp(g, copy, constraint)
            if expected is None:
                assert found is None
                continue
            assert (found[0].edges, found[1].hex()) == (expected[0].edges, expected[1].hex())
            # lb_cg reads instance.mid; rebuild its value from the copy.
            report = lb_cg(g, constraint)
            pinned = float(sum(g.hi[e] - copy[e] for e in constraint.in_chain))
            value = pinned + expected[1] - two_unit_min_flow(g, constraint) / 2.0
            assert (report.artifacts["path"].edges, report.value.hex()) == (expected[0].edges, max(value, 0.0).hex())
            checked += 1
    assert checked >= 80


def test_negative_zero_is_a_valid_cost():
    g = two_arc_graph()
    path, value = dijkstra(g, [3.0, -0.0])
    assert path.edges == (1,) and value == 0.0
    signed = IntervalDigraph.from_edges(2, [(0, 1, -0.0, 1.0), (0, 1, 0.0, 2.0)], 0, 1)
    assert two_unit_min_flow(signed) == 0.0


def test_zero_cost_cycle_does_not_trap_the_search():
    g = IntervalDigraph.from_edges(
        4,
        [(0, 1, 0.0, 0.0), (1, 2, 0.0, 0.0), (2, 1, 0.0, 0.0), (1, 3, 1.0, 1.0)],
        0,
        3,
    )
    path, value = dijkstra(g, g.lo)
    assert value == 1.0
    assert path.edges == (0, 3)


# -------------------------------------------------------------- constrained


def test_constrained_sp_honors_chain_and_bans():
    g = six_node_graph()
    mid = (g.lo + g.hi) / 2.0
    path, value = constrained_sp(g, mid, PathConstraint(g, in_chain=(0, 2), out_set=frozenset({5})))
    assert path.edges == (0, 2, 4, 6)
    assert value == pytest.approx(9.5)
    # chain already reaches the target
    path, value = constrained_sp(g, mid, PathConstraint(g, in_chain=(0, 3, 6)))
    assert path.edges == (0, 3, 6)
    assert value == pytest.approx(8.0)
    # both arcs out of the chain end are forbidden
    assert constrained_sp(g, mid, PathConstraint(g, in_chain=(0,), out_set=frozenset({2, 3}))) is None


def test_constrained_sp_never_revisits_chain_nodes():
    g = IntervalDigraph.from_edges(
        4,
        [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (2, 0, 0.0, 0.0), (2, 3, 9.0, 9.0), (0, 3, 1.0, 1.0)],
        0,
        3,
    )
    found = constrained_sp(g, g.lo, PathConstraint(g, in_chain=(0, 1)))
    assert found is not None
    path, value = found
    # the cheap detour through arc 2 would revisit the source
    assert path.edges == (0, 1, 3)
    assert value == 11.0


def test_oracle_restriction_raises_when_infeasible():
    g = six_node_graph()
    oracle = sp_oracle(g)
    x, value = oracle.solve(np.array(g.lo))
    assert x.members == {0, 3, 6} and value == 5.0
    with pytest.raises(NoFeasibleSolution):
        oracle.solve(np.array(g.lo), PathConstraint(g, in_chain=(0,), out_set=frozenset({2, 3})))


def test_through_arc_costs_below_a_cutoff_match_full_sweeps():
    # Each reference prices its favoring scenario: none (hi everywhere), the
    # midpoint path and a random arc set, on every fourth graph with costs cut
    # to a few integer levels so that walks tie; the cutoffs include exact walk
    # costs, the edge case.
    rng = np.random.default_rng(3003)
    for i in range(90):
        g = random_graph(i)
        if i % 4 == 3:
            g = IntervalDigraph(g.node_count, g.tails, g.heads, np.floor(g.lo / 10.0), np.floor(g.hi / 10.0), g.source, g.target)
        mid, _ = sp_oracle(g).solve(g.instance.mid)
        for reference in (SolutionIndicator(frozenset()), mid, SolutionIndicator(np.flatnonzero(rng.random(g.m) < 0.5))):
            full = np.array(full_sweep_through_costs(g, favoring_scenario(g.instance, reference).costs))
            assert through_arc_costs(g, reference).tolist() == full.tolist()
            finite = np.sort(full[np.isfinite(full)])
            for cutoff in (finite[0], finite[len(finite) // 3], finite[-1], finite[-1] * 2.0, 0.0):
                # Within rounding of the cutoff an arc may read either way.
                got = through_arc_costs(g, reference, cutoff)
                assert ((got == full) | (got == math.inf)).all()
                clear = full < cutoff * (1.0 - 1e-12)
                assert got[clear].tolist() == full[clear].tolist()
                assert (got[full >= cutoff] == math.inf).all()


def test_forbidden_index_follows_split_chains():
    rng = np.random.default_rng(404)
    for i in range(60):
        g = random_graph(i)
        out = frozenset(int(e) for e in rng.choice(g.m, size=int(rng.integers(0, g.m // 2 + 1)), replace=False))
        constraint = PathConstraint(g, out_set=out)
        while True:
            index = constraint.out_index
            assert index.dtype == np.intp and not index.flags.writeable
            assert len(set(index.tolist())) == index.size == len(constraint.out_set)
            assert set(index.tolist()) == constraint.out_set
            end = constraint.end
            free = [e for e in g.out_edges[end] if e not in constraint.out_set and g.heads.item(e) not in constraint.nodes]
            if end == g.target or not free:
                break
            take, skip = constraint.split(int(rng.choice(free)))
            assert take.out_index is index
            constraint = take if rng.random() < 0.3 else skip


def loop_marked_sp(graph, costs, constraint):
    """constrained_sp with every forbidden arc set to inf one at a time, as (arcs, value) or None."""
    c = array("d", np.asarray(costs, dtype=float).tobytes())
    chain = constraint.in_chain
    chain_value = float(sum(c[e] for e in chain))
    *banned_nodes, start = constraint.nodes
    if start == graph.target:
        return chain, chain_value
    for e in constraint.out_set:
        c[e] = math.inf
    _, h = shortest_path._check_costs(graph, costs)
    dist, pred = shortest_path._settle_all(graph, c, start, banned_nodes, graph.target, h)
    if dist[graph.target] == math.inf:
        return None
    return chain + shortest_path._walk_back(graph, pred, start, graph.target), chain_value + dist[graph.target]


def root_sized_constraints(rng, graph):
    """Root fixing's forbidden set, then random branches off it, then random sets of most arcs."""
    oracle = sp_oracle(graph)
    mid, _ = oracle.solve(midpoint_scenario(graph.instance).costs)
    constraint = PathConstraint.forbidding(graph, fixed_arcs(graph, mid, max_regret(graph.instance, oracle, mid)))
    yield constraint
    for _ in range(8):
        end = constraint.end
        if end == graph.target:
            break
        free = [e for e in graph.out_edges[end] if e not in constraint.out_set and graph.heads.item(e) not in constraint.nodes]
        if not free:
            break
        take, skip = constraint.split(int(rng.choice(free)))
        constraint = take if rng.random() < 0.5 else skip
        yield constraint
    for share in (0.5, 0.8, 0.95):
        chain = random_constraint(rng, graph).in_chain
        yield PathConstraint(graph, in_chain=chain, out_set=frozenset(e for e in range(graph.m) if e not in chain and rng.random() < share))


def test_indexed_marking_matches_loop_marking():
    rng = np.random.default_rng(1101)
    forbidden = searches = 0
    for seed in range(12):
        g = gen_instance(GeneratorSpec(family="R", n=40, r=1000.0, d=1.0, delta=0.2, seed=900 + seed))
        mid = midpoint_scenario(g.instance).costs
        for constraint in root_sized_constraints(rng, g):
            forbidden = max(forbidden, len(constraint.out_set))
            for costs in (mid, g.hi, g.lo + rng.random(g.m) * (g.hi - g.lo), rng.random(g.m) * g.lo):
                found = constrained_sp(g, costs, constraint)
                expected = loop_marked_sp(g, costs, constraint)
                assert (found if found is None else (found[0].edges, found[1])) == expected
                assert expected == reference_constrained(g, costs, constraint)
                searches += expected is not None
            found = loop_marked_sp(g, g.hi, constraint)
            if found is None:
                with pytest.raises(NoFeasibleSolution):
                    lb_mgd(g, constraint)
                continue
            relaxed = np.array(g.hi)
            for e in constraint.out_set:
                relaxed[e] = g.lo[e]
            report = lb_mgd(g, constraint)
            assert report.artifacts["path"].edges == found[0]
            assert report.value == max(found[1] - dijkstra(g, relaxed)[1], 0.0)
    assert forbidden >= 280 and searches >= 200


def test_order_path_edges():
    g = six_node_graph()
    assert order_path_edges(g, frozenset({6, 0, 3})).edges == (0, 3, 6)
    with pytest.raises(ValueError):
        order_path_edges(g, frozenset({0, 6}))


# ------------------------------------------------------------ two-unit flow


def pair_cost(edges_a, edges_b, constraint, lo, hi):
    in_set = set(constraint.in_chain)
    use = {}
    for e in list(edges_a) + list(edges_b):
        use[e] = use.get(e, 0) + 1
    total = 0.0
    for e, count in use.items():
        if e in in_set:
            first, second = hi[e], hi[e]
        elif e in constraint.out_set:
            first, second = lo[e], lo[e]
        else:
            first, second = lo[e], hi[e]
        total += first if count == 1 else first + second
    return total


def brute_pair_minimum(graph, constraint):
    # The constraint only reprices arcs; both units may route anywhere.
    paths = enumerate_paths(graph)
    return min(pair_cost(a.edges, b.edges, constraint, graph.lo, graph.hi) for a in paths for b in paths)


def with_lo(graph, lo):
    """The same arcs and hi costs with the given lo costs, each in [0, hi]."""
    return IntervalDigraph(graph.node_count, graph.tails, graph.heads, lo, graph.hi, graph.source, graph.target)


def on(graph, constraint):
    """The constraint's prefix and forbidden arcs, built for another graph with the same arcs."""
    return PathConstraint(graph, constraint.in_chain, constraint.out_set)


def test_two_unit_flow_on_fixtures():
    g = six_node_graph()
    assert two_unit_min_flow(g) == pytest.approx(11.0)
    assert two_unit_min_flow(two_arc_graph()) == pytest.approx(12.0)


def test_two_unit_flow_matches_pair_enumeration():
    checked = 0
    for i in range(200):
        g = random_graph(i)
        if g.node_count > 7:
            continue
        flow = two_unit_min_flow(g)
        ref = brute_pair_minimum(g, PathConstraint(g))
        assert flow == pytest.approx(ref, abs=1e-9)
        checked += 1
        # reprice along a shortest path prefix and re-check
        path, _ = dijkstra(g, g.lo)
        if len(path.edges) >= 2:
            constraint = PathConstraint(g, in_chain=path.edges[:1], out_set=frozenset({path.edges[-1]}))
            ref = brute_pair_minimum(g, constraint)
            flow = two_unit_min_flow(g, constraint)
            assert flow == pytest.approx(ref, abs=1e-9)
    assert checked >= 50


def test_two_unit_flow_requires_two_units_smallest_graph():
    # One arc into the target forces both units across it.
    g = IntervalDigraph.from_edges(3, [(0, 1, 1.0, 2.0), (1, 2, 3.0, 5.0)], 0, 2)
    assert two_unit_min_flow(g) == pytest.approx((1.0 + 2.0) + (3.0 + 5.0))


def with_dead_ends(graph, rng):
    """The graph plus a few nodes that cheap arcs enter but that cannot reach the target."""
    n, extra = graph.node_count, int(rng.integers(1, 4))
    rows = list(zip(graph.tails.tolist(), graph.heads.tolist(), graph.lo.tolist(), graph.hi.tolist()))
    for j in range(extra):
        for u in rng.integers(0, n + j, size=2).tolist():
            lo = float(rng.uniform(0.0, 2.0))
            rows.append((u, n + j, lo, lo + float(rng.uniform(0.0, 2.0))))
    return IntervalDigraph.from_edges(n + extra, rows, graph.source, graph.target)


def full_settle_pair_flow(graph, constraint):
    """Two successive shortest paths on the graph's intervals, written out plainly.

    The first pass runs Dijkstra over every node the source reaches; the
    second runs Dijkstra on the residual graph with those labels as
    potentials, reduced costs clamped at zero.
    """
    tails, heads = graph.tails.tolist(), graph.heads.tolist()
    lo, hi = graph.lo, graph.hi
    first = [float(x) for x in lo]
    for e in constraint.in_chain:
        first[e] = float(hi[e])

    def search(adj):
        dist = [math.inf] * graph.node_count
        pred = [None] * graph.node_count
        dist[graph.source] = 0.0
        heap = [(0.0, graph.source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w, e in adj[u]:
                if d + w < dist[v]:
                    dist[v], pred[v] = d + w, e
                    heapq.heappush(heap, (d + w, v))
        return dist, pred

    adj = [[] for _ in range(graph.node_count)]
    for e in range(graph.m):
        adj[tails[e]].append((heads[e], first[e], e))
    label, pred = search(adj)
    used, node = set(), graph.target
    while node != graph.source:
        used.add(pred[node])
        node = tails[pred[node]]

    def reduced(u, v, w):
        return max(w + label[u] - label[v], 0.0)

    residual = [[] for _ in range(graph.node_count)]
    for e in range(graph.m):
        u, v = tails[e], heads[e]
        if label[u] == math.inf or label[v] == math.inf:
            continue
        if e in used:
            second = float(lo[e] if e in constraint.out_set else hi[e])
            residual[u].append((v, reduced(u, v, second), e))
            residual[v].append((u, reduced(v, u, -first[e]), e))
        else:
            residual[u].append((v, reduced(u, v, first[e]), e))
    rdist, _ = search(residual)
    return 2.0 * label[graph.target] + rdist[graph.target]


def test_two_unit_flow_potentials_match_pair_enumeration():
    # The second pass prices nodes with the truncated potential: forced and
    # forbidden arcs, graphs whose lo costs are cut down at random, and nodes
    # the lo potential marks as unable to reach the target.
    rng = np.random.default_rng(2005)
    checked = 0
    for i in range(120):
        g = random_graph(i)
        if g.node_count > 7:
            continue
        constraint = random_constraint(rng, g)
        ref = brute_pair_minimum(g, constraint)
        assert two_unit_min_flow(g, constraint) == pytest.approx(ref, rel=1e-12)

        wide = with_lo(g, g.lo * rng.random(g.m))
        ref = brute_pair_minimum(wide, on(wide, constraint))
        assert two_unit_min_flow(wide, on(wide, constraint)) == pytest.approx(ref, rel=1e-12)

        dead = with_dead_ends(g, rng)
        assert all(math.isinf(h) for h in dead.potential(dead.lo)[g.node_count:])
        constraint = random_constraint(rng, dead)
        ref = brute_pair_minimum(dead, constraint)
        assert two_unit_min_flow(dead, constraint) == pytest.approx(ref, rel=1e-12)
        checked += 1
    assert checked >= 50


def test_two_unit_flow_matches_a_full_settle_reference():
    rng = np.random.default_rng(1993)
    for seed in range(4):
        g = gen_instance(GeneratorSpec(family="R", n=200, r=1000.0, d=1.0, delta=0.03, seed=seed))
        for graph in (g, with_lo(g, g.lo * rng.random(g.m))):
            for constraint in (PathConstraint(graph), random_constraint(rng, graph), random_constraint(rng, graph)):
                ref = full_settle_pair_flow(graph, constraint)
                assert two_unit_min_flow(graph, constraint) == pytest.approx(ref, rel=1e-12)


def test_two_unit_flow_settles_a_narrow_band(monkeypatch):
    # Both passes are goal-directed, so the root call on a 200-node R graph
    # pops the heap far fewer times than there are nodes.
    g = gen_instance(GeneratorSpec(family="R", n=200, r=1000.0, d=1.0, delta=0.03, seed=0))
    g.potential(g.lo)  # computed once per graph by a search of its own
    pops = []

    def counting_pop(heap):
        pops.append(None)
        return heapq.heappop(heap)

    shim = types.SimpleNamespace(heappush=heapq.heappush, heappop=counting_pop)
    monkeypatch.setattr(shortest_path, "heapq", shim)
    assert two_unit_min_flow(g) is not None
    assert len(pops) <= g.node_count // 4


# ------------------------------------------------------- tie-break contract


def reference_search(graph, costs, start, banned_nodes=(), banned_arcs=frozenset()):
    """Textbook heap Dijkstra from start to the target, scanning every arc.

    Relaxes on a smaller label and, on an equal label, keeps the smaller
    arc id, but only while the head is unsettled.  Returns (arcs, value) or
    None.
    """
    dist = {start: 0.0}
    pred = {}
    settled = set(banned_nodes)
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for e in range(graph.m):
            v = int(graph.heads[e])
            if int(graph.tails[e]) != u or e in banned_arcs or v in settled:
                continue
            nd = d + costs[e]
            if nd < dist.get(v, math.inf):
                dist[v], pred[v] = nd, e
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and e < pred[v]:
                pred[v] = e
    if graph.target not in dist:
        return None
    edges, node = [], graph.target
    while node != start:
        edges.append(pred[node])
        node = int(graph.tails[pred[node]])
    return tuple(reversed(edges)), dist[graph.target]


def tie_heavy_graph(rng):
    """Small multigraph with integer intervals, many zero-cost arcs and self-loops."""
    while True:
        n = int(rng.integers(3, 7))
        m = int(rng.integers(n, 3 * n + 1))
        tails = rng.integers(0, n, size=m)
        heads = rng.integers(0, n, size=m)
        lo = rng.integers(0, 3, size=m).astype(float)
        hi = lo + rng.integers(0, 3, size=m)
        try:
            return IntervalDigraph(n, tails, heads, lo, hi, 0, n - 1)
        except ValueError:
            continue  # target unreachable; draw again


def random_constraint(rng, graph):
    """A random forced prefix out of the source plus random forbidden arcs."""
    chain, node, seen = [], graph.source, {graph.source}
    while node != graph.target and rng.random() < 0.6:
        arcs = [e for e in graph.out_edges[node] if int(graph.heads[e]) not in seen]
        if not arcs:
            break
        e = int(rng.choice(arcs))
        chain.append(e)
        node = int(graph.heads[e])
        seen.add(node)
    out = frozenset(e for e in range(graph.m) if e not in chain and rng.random() < 0.25)
    return PathConstraint(graph, in_chain=tuple(chain), out_set=out)


def reference_constrained(graph, costs, constraint):
    """The forced prefix plus reference_search's completion from its end, or None."""
    chain, out = constraint.in_chain, constraint.out_set
    *banned_nodes, start = constraint.nodes
    chain_value = float(sum(costs[e] for e in chain))
    if start == graph.target:
        return chain, chain_value
    completion = reference_search(graph, costs, start, banned_nodes, out)
    if completion is None:
        return None
    return chain + completion[0], chain_value + completion[1]


def test_tie_break_contract_on_tie_heavy_graphs():
    rng = np.random.default_rng(2016)
    constrained = 0
    for _ in range(400):
        g = tie_heavy_graph(rng)
        paths = enumerate_paths(g)
        costs = rng.integers(0, 3, size=g.m).astype(float)

        found = dijkstra(g, costs)
        assert found is not None
        path, value = found
        assert (path.edges, value) == reference_search(g, costs, g.source)
        assert value == min(p.value(costs) for p in paths)

        constraint = random_constraint(rng, g)
        chain, out = constraint.in_chain, constraint.out_set
        found = constrained_sp(g, costs, constraint)
        feasible = [
            p for p in paths if p.edges[: len(chain)] == chain and not out & set(p.edges)
        ]
        expected = reference_constrained(g, costs, constraint)
        if expected is None:
            assert found is None and not feasible
        else:
            assert (found[0].edges, found[1]) == expected
            assert found[1] == min(p.value(costs) for p in feasible)
            constrained += 1

        assert two_unit_min_flow(g, constraint) == brute_pair_minimum(g, constraint)
    assert constrained >= 200


# ------------------------------------------------------ goal-directed search


def test_tie_break_contract_under_the_potential():
    # Costs at or above lo let the search use the lo-cost distance to the
    # target as its potential; paths, values and ties must not change.
    rng = np.random.default_rng(1968)
    for _ in range(400):
        g = tie_heavy_graph(rng)
        costs = g.lo + rng.integers(0, 3, size=g.m)
        path, value = dijkstra(g, costs)
        assert (path.edges, value) == reference_search(g, costs, g.source)

        constraint = random_constraint(rng, g)
        found = constrained_sp(g, costs, constraint)
        expected = reference_constrained(g, costs, constraint)
        assert (found if found is None else (found[0].edges, found[1])) == expected


def test_potential_search_matches_reference_on_real_costs():
    rng = np.random.default_rng(77)
    for i in range(60):
        g = random_graph(i)
        costs = g.lo + rng.random(g.m) * (g.hi - g.lo)
        path, value = dijkstra(g, costs)
        assert (path.edges, value) == reference_search(g, costs, g.source)
        constraint = random_constraint(rng, g)
        found = constrained_sp(g, costs, constraint)
        expected = reference_constrained(g, costs, constraint)
        assert (found if found is None else (found[0].edges, found[1])) == expected


def test_one_cost_below_lo_drops_the_potential():
    # Priced below its lo, arc 3 makes 0-2-3 shorter than the lo route
    # 0-1-3; under the lo-cost potential the search would settle the target
    # at 2.0 before it looked at node 2.
    g = IntervalDigraph.from_edges(
        4, [(0, 1, 1.0, 5.0), (1, 3, 1.0, 5.0), (0, 2, 1.0, 5.0), (2, 3, 4.0, 5.0)], 0, 3
    )
    assert g.potential(g.lo).tolist() == [x * (1.0 - 2.0**-20) for x in (2.0, 1.0, 4.0, 0.0)]
    costs = [1.0, 1.0, 1.0, 0.5]
    path, value = dijkstra(g, costs)
    assert (path.edges, value) == ((2, 3), 1.5) == reference_search(g, costs, g.source)
    path, value = constrained_sp(g, costs, PathConstraint(g))
    assert (path.edges, value) == ((2, 3), 1.5)


def test_potentials_equal_a_reference_reverse_dijkstra():
    """Each floor's potential is a plain Dijkstra's distance to the target over the reversed arcs, times 1 - 2**-20, bit for bit."""
    shrink = 1.0 - 2.0**-20
    rng = np.random.default_rng(2511)
    # Zero-cost, parallel and self-loop arcs; node 4 has no way to the
    # target 3 and node 5 no arc out.
    hand_built = IntervalDigraph.from_edges(
        6,
        [(0, 1, 0.0, 0.0), (0, 1, 0.0, 2.0), (1, 1, 0.0, 1.0), (1, 2, 0.5, 0.5), (1, 2, 0.25, 3.0),
         (2, 3, 0.0, 1.0), (2, 2, 0.0, 0.0), (0, 3, 2.0, 2.5), (3, 4, 1.0, 1.0), (4, 4, 0.0, 0.0), (4, 5, 0.1, 0.3)],
        0,
        3,
    )
    graphs = [hand_built, six_node_graph(), loop_graph()] + [tie_heavy_graph(rng) for _ in range(60)]
    graphs += [random_graph(i) for i in range(30)]
    graphs += [gen_instance(GeneratorSpec(family="K", n=2 + 3 * (2 + i % 4), r=1000.0, d=(0.0, 0.5, 1.0)[i % 3], w=3, seed=i)) for i in range(12)]
    graphs.append(gen_instance(GeneratorSpec(family="R", n=1000, r=1000.0, d=1.0, delta=0.006, seed=0)))
    unreachable = 0
    for g in graphs:
        for floor in (g.lo, g.instance.mid, g.hi):
            reversed_arcs = zip(g.heads.tolist(), g.tails.tolist(), floor.tolist())
            expected = _plain_dijkstra(g.node_count, g.target, reversed_arcs)
            assert [x.hex() for x in g.potential(floor)] == [(x * shrink).hex() for x in expected]
            unreachable += expected.count(math.inf)
    assert [x.hex() for x in hand_built.potential(hand_built.lo)][4:] == ["inf", "inf"]
    assert unreachable >= 60


def test_potential_prunes_the_midpoint_search(monkeypatch):
    # On the large sparse R family the potential confines the midpoint
    # search to a narrow band around the route: count the nodes it labels.
    g = gen_instance(GeneratorSpec(family="R", n=1000, r=1000.0, d=1.0, delta=0.006, seed=0))
    mid = (g.lo + g.hi) / 2.0
    settle = shortest_path._settle_all
    labelled = []

    def counting(*args):
        dist, pred = settle(*args)
        labelled.append(sum(d < math.inf for d in dist))
        return dist, pred

    monkeypatch.setattr(shortest_path, "_settle_all", counting)
    _, value = dijkstra(g, mid)
    plain, _ = counting(g, mid.tolist(), g.source, (), g.target, [0.0] * g.node_count)
    assert value == plain[g.target]
    assert labelled[0] * 4 <= labelled[1]


def test_key_rounding_cannot_reorder_an_equal_label_tie():
    # Both routes into node 3 reach it at exactly 527.8836957123276.  Under
    # the unshrunk lo distances the key of node 1, the tail of the smaller
    # arc id, rounds one ulp above node 3's key, so node 3 would be settled
    # first and arc 3 kept; plain Dijkstra keeps arc 2.
    c = [458.0232730832542, 418.03666491881984, 69.86042262907347, 109.84703079350774, 9.65922565689301]
    g = IntervalDigraph.from_edges(
        5,
        [(0, 1, c[0], c[0]), (0, 2, c[1], c[1]), (1, 3, c[2], c[2]), (2, 3, c[3], c[3]), (3, 4, c[4], c[4]),
         (2, 4, 29.981321577137937, 2000.0)],
        0,
        4,
    )
    path, value = dijkstra(g, g.hi)
    assert (path.edges, value) == ((0, 2, 4), 537.5429213692206) == reference_search(g, g.hi, g.source)


def floor_potential_cases(rng):
    """Tie-heavy, integer-cost, zero-width, R and K graphs."""
    for _ in range(150):
        yield tie_heavy_graph(rng)  # integer intervals, a third of them zero-width
    for i in range(40):
        g = random_graph(i)
        yield g
        yield with_lo(g, np.where(rng.random(g.m) < 0.5, g.hi, g.lo))  # half the arcs zero-width
        yield IntervalDigraph(g.node_count, g.tails, g.heads, np.floor(g.lo / 10.0), np.floor(g.hi / 10.0), g.source, g.target)
    for i in range(12):
        yield gen_instance(GeneratorSpec(family="K", n=2 + 3 * (2 + i % 4), r=1000.0, d=(0.0, 0.5, 1.0)[i % 3], w=3, seed=i))


def test_floor_potentials_change_no_answer():
    """Searches on the graph's own mid and hi, under their own potentials, answer as plain Dijkstra.

    The same costs as a copy take the lo potential, and the reference
    scans every arc without one; paths and values agree as float hex.  The
    potential each search uses is consistent with its floor, arc by arc.
    """
    rng = np.random.default_rng(2005)
    constrained = 0
    for g in floor_potential_cases(rng):
        tails, heads = g.tails.tolist(), g.heads.tolist()
        for own in (g.instance.mid, g.hi):
            copy = np.array(own)
            h = shortest_path._check_costs(g, own)[1]
            assert h is g.potential(own) and h is not g.potential(g.lo)
            assert shortest_path._check_costs(g, copy)[1] is g.potential(g.lo)
            assert all(h[u] <= c + h[v] for u, v, c in zip(tails, heads, own.tolist()))
            path, value = dijkstra(g, own)
            copy_path, copy_value = dijkstra(g, copy)
            expected = reference_search(g, own, g.source)
            assert (path.edges, value.hex()) == (copy_path.edges, copy_value.hex()) == (expected[0], expected[1].hex())
            for constraint in (random_constraint(rng, g), random_constraint(rng, g)):
                found = constrained_sp(g, own, constraint)
                expected = reference_constrained(g, own, constraint)
                assert (found is None) == (expected is None) == (constrained_sp(g, copy, constraint) is None)
                if found is None:
                    continue
                copy_found = constrained_sp(g, copy, constraint)
                assert (found[0].edges, found[1].hex()) == (copy_found[0].edges, copy_found[1].hex())
                assert (found[0].edges, found[1].hex()) == (expected[0], expected[1].hex())
                constrained += 1
    assert constrained >= 400


def test_floor_potentials_are_lazy_kept_and_cut_the_midpoint_search(monkeypatch):
    """No potential at construction, each floor's once per graph, and a midpoint search under half the labels."""
    reverse = shortest_path._reverse_search
    floors = []

    def counting_reverse(graph, costs, *args):
        floors.append(list(costs))
        return reverse(graph, costs, *args)

    settle = shortest_path._settle_all
    labelled = []

    def counting_settle(*args):
        dist, pred = settle(*args)
        labelled.append(sum(d < math.inf for d in dist))
        return dist, pred

    monkeypatch.setattr(shortest_path, "_reverse_search", counting_reverse)
    monkeypatch.setattr(shortest_path, "_settle_all", counting_settle)
    rng = np.random.default_rng(2026)
    for seed in range(3):
        g = gen_instance(GeneratorSpec(family="R", n=1000, r=1000.0, d=1.0, delta=0.006, seed=seed))
        assert floors == []
        mid = g.instance.mid
        labelled.clear()
        own_path, own_value = dijkstra(g, mid)
        copy_path, copy_value = dijkstra(g, np.array(mid))
        assert (own_path.edges, own_value.hex()) == (copy_path.edges, copy_value.hex())
        assert labelled[0] * 2 <= labelled[1]
        assert floors == [mid.tolist(), g.lo.tolist()]
        # Every further search, bound and flow reuses the kept potentials.
        for _ in range(3):
            constraint = random_constraint(rng, g)
            for costs in (mid, g.hi, g.lo, np.array(g.hi)):
                dijkstra(g, costs)
                constrained_sp(g, costs, constraint)
            lb_cg(g, constraint)
            lb_mgd(g, constraint)
            two_unit_min_flow(g, constraint)
        assert len(floors) == 3 and floors[2] == g.hi.tolist()
        with pytest.raises(ValueError, match="own lo, hi and midpoint"):
            g.potential(np.array(g.hi))
        floors.clear()


# --------------------------------------------------------- bounded searches


def bounded_cases(rng):
    """(graph, costs) pairs on R, K, tie-heavy, integer-cost and zero-optimum graphs."""
    for i in range(40):
        g = random_graph(i)
        costs = g.lo + rng.random(g.m) * g.instance.width
        yield g, costs
        yield g, np.ceil(costs)  # integer costs, many of them tied
        zero = np.array(costs)
        zero[list(dijkstra(g, g.lo)[0].edges)] = 0.0  # a free route: the optimum is 0
        yield g, zero
    for i in range(20):
        g = gen_instance(GeneratorSpec(family="K", n=2 + 3 * (2 + i % 4), r=1000.0, d=1.0, w=3, seed=i))
        yield g, g.hi
        yield g, g.instance.mid
    for _ in range(120):
        g = tie_heavy_graph(rng)
        yield g, rng.integers(0, 3, size=g.m).astype(float)


def bounds_around(path, costs, value):
    """Bounds at the optimum, within rounding of it and loose, then bounds below it."""
    other_order = float(sum(costs[e] for e in sorted(path.edges, reverse=True)))
    valid = [value, other_order, math.nextafter(value, math.inf), math.nextafter(value, -math.inf), 2.0 * value + 1.0, math.inf]
    below = [value - 1e-6 * max(1.0, value), value / 2.0 - 1.0, -1.0]
    return valid, below


def test_a_bound_changes_no_search_answer(monkeypatch):
    """Bounded dijkstra and constrained_sp give the unbounded path and value, as float hex.

    A bound at, within rounding of, or above the optimum prunes one search;
    a bound below it costs a second search and still gives the same answer.
    """
    searches = []

    def counting(search):
        def counted(*args):
            searches.append(None)
            return search(*args)

        return counted

    # The K and some tie-heavy graphs are acyclic: their searches are passes, not heap searches.
    for name in ("_settle_all", "_acyclic_pass"):
        monkeypatch.setattr(shortest_path, name, counting(getattr(shortest_path, name)))
    rng = np.random.default_rng(1806)
    constrained = 0
    for g, costs in bounded_cases(rng):
        constraint = random_constraint(rng, g)
        runs = [(lambda bound: dijkstra(g, costs, bound), dijkstra(g, costs))]
        found = constrained_sp(g, costs, constraint)
        if found is None:
            for bound in (0.0, 1.0, math.inf):
                assert constrained_sp(g, costs, constraint, bound) is None
        else:
            runs.append((lambda bound: constrained_sp(g, costs, constraint, bound), found))
            constrained += 1
        for run, (path, value) in runs:
            expected = (path.edges, value.hex())
            valid, below = bounds_around(path, costs, value)
            for bound, count in [(b, 1) for b in valid] + [(b, 2) for b in below]:
                searches.clear()
                got, got_value = run(bound)
                assert (got.edges, got_value.hex()) == expected
                # Chains that end at the target take no search at all.
                assert len(searches) in (0, count)
    assert constrained >= 150


def test_bounded_game_searches_pop_the_same_nodes_and_push_fewer(monkeypatch):
    """On one R-200 game, bounding every search leaves heap pops as they were and cuts pushes."""
    g = gen_instance(GeneratorSpec(family="R", n=200, r=1000.0, d=1.0, delta=0.03, seed=0))
    g.potential(g.lo)  # computed once per graph by a search of its own
    counts = {"push": 0, "pop": 0}

    def push(heap, item):
        counts["push"] += 1
        heapq.heappush(heap, item)

    def pop(heap):
        counts["pop"] += 1
        return heapq.heappop(heap)

    class Unbounded(shortest_path.ShortestPathOracle):
        def solve(self, costs, restriction=None, bound=math.inf):
            return super().solve(costs, restriction)

    monkeypatch.setattr(shortest_path, "heapq", types.SimpleNamespace(heappush=push, heappop=pop))
    x, _ = sp_oracle(g).solve(g.instance.mid)
    runs = []
    for oracle in (sp_oracle(g), Unbounded(g)):
        counts.update(push=0, pop=0)
        result = run_double_oracle(g.instance, oracle, [x])
        answer = (result.lower_bound.hex(), result.iterations, result.solutions, result.scenarios, result.equilibrium.col_probs.tobytes())
        runs.append((answer, dict(counts)))
    (bounded, bounded_counts), (plain, plain_counts) = runs
    assert bounded == plain
    assert bounded_counts["pop"] == plain_counts["pop"] > 0
    assert bounded_counts["push"] * 2 < plain_counts["push"]


# ------------------------------------------------------------ acyclic graphs


def random_dag(rng):
    """Small acyclic multigraph with integer intervals: arcs climb a random ranking of the nodes.

    The source and target sit anywhere in the ranking, so some nodes may
    come before the source or after the target.
    """
    while True:
        n = int(rng.integers(3, 9))
        rank = rng.permutation(n)  # rank[i] is the node at place i
        m = int(rng.integers(n, 3 * n + 1))
        low = rng.integers(0, n - 1, size=m)
        high = low + 1 + (rng.random(m) * (n - 1 - low)).astype(int)
        lo = rng.integers(0, 3, size=m).astype(float)
        hi = lo + rng.integers(0, 3, size=m)
        s, t = sorted(rng.choice(n, size=2, replace=False))
        try:
            return IntervalDigraph(n, rank[low], rank[high], lo, hi, int(rank[s]), int(rank[t]))
        except ValueError:
            continue  # target unreachable; draw again


def acyclic_cases(rng):
    """(graph, costs) pairs on small K graphs under real costs and random DAGs under integer costs."""
    for i in range(40):
        g = gen_instance(GeneratorSpec(family="K", n=2 + 3 * (2 + i % 4), r=1000.0, d=(0.0, 0.5, 1.0)[i % 3], w=3, seed=i))
        yield g, g.lo + rng.random(g.m) * g.instance.width
        yield g, g.hi
        yield g, g.instance.mid
        yield g, g.lo * rng.random(g.m)  # below lo: no potential
    for i in range(300):
        g = random_dag(rng)
        yield g, rng.integers(i % 2, 3, size=g.m).astype(float)  # every other draw has no zero cost


def labels_from(graph, costs, start, banned_nodes, banned_arcs):
    """Least cost from start to every node it reaches, by relaxing every arc until none improves."""
    dist = {start: 0.0}
    changed = True
    while changed:
        changed = False
        for e, (u, v) in enumerate(zip(graph.tails.tolist(), graph.heads.tolist())):
            if u in dist and e not in banned_arcs and v not in banned_nodes and dist[u] + costs[e] < dist.get(v, math.inf):
                dist[v] = dist[u] + costs[e]
                changed = True
    return dist


def test_the_acyclic_pass_matches_the_heap_search(monkeypatch):
    """On DAGs the pass gives the heap search's values as float hex, under every bound.

    Paths are the heap search's when every cost is positive.  Across
    zero-cost ties the path honors the constraint and takes, into each node
    of its completion, the smallest arc id among the equal-label in-arcs.
    A bound at or above the optimum takes one pass, a lower one two.
    """
    passes = []
    acyclic_pass = shortest_path._acyclic_pass

    def counting(*args):
        passes.append(None)
        return acyclic_pass(*args)

    monkeypatch.setattr(shortest_path, "_acyclic_pass", counting)
    rng = np.random.default_rng(1979)
    constrained = ties = 0
    for g, costs in acyclic_cases(rng):
        positive = bool((costs > 0).all())
        for constraint in (PathConstraint(g), random_constraint(rng, g), random_constraint(rng, g)):
            chain, out = constraint.in_chain, constraint.out_set
            *banned, start = constraint.nodes
            if chain or out:
                search = functools.partial(constrained_sp, g, costs, constraint)
            else:
                search = functools.partial(dijkstra, g, costs)
            found = search(math.inf)
            expected = reference_constrained(g, costs, constraint)
            if expected is None:
                assert found is None
                continue
            path, value = found
            assert value.hex() == expected[1].hex()
            if positive:
                assert path.edges == expected[0]
            assert path.edges[: len(chain)] == chain and not out & set(path.edges)
            assert tuple(order_path_edges(g, frozenset(path.edges)).edges) == path.edges
            dist = labels_from(g, costs, start, banned, out)
            for e in path.edges[len(chain):]:
                v = int(g.heads[e])
                tied = [
                    f for f in range(g.m)
                    if int(g.heads[f]) == v and f not in out and int(g.tails[f]) in dist
                    and dist[int(g.tails[f])] + costs[f] == dist[v]
                ]
                assert e == min(tied)
                ties += len(tied) > 1
            constrained += bool(chain or out)
            valid, below = bounds_around(path, costs, value)
            for bound, count in [(b, 1) for b in valid] + [(b, 2) for b in below]:
                passes.clear()
                got, got_value = search(bound)
                assert (got.edges, got_value.hex()) == (path.edges, value.hex())
                # A bound below the optimum costs a second pass; chains that end at the target take none.
                assert len(passes) in (0, count)
    assert constrained >= 400 and ties >= 100


def test_the_order_is_lazy_kept_and_cyclic_graphs_keep_the_heap(monkeypatch):
    """No order at construction, one kept per graph from its first search, no heap on a DAG, and A* on every cyclic graph."""
    pops = []

    def counting_pop(heap):
        pops.append(None)
        return heapq.heappop(heap)

    monkeypatch.setattr(shortest_path, "heapq", types.SimpleNamespace(heappush=heapq.heappush, heappop=counting_pop))
    for i in range(4):
        g = gen_instance(GeneratorSpec(family="K", n=2 + 4 * (2 + i), r=1000.0, d=1.0, w=4, seed=i))
        g.potential(g.lo)  # computed once per graph by a search of its own
        assert g._order is shortest_path._UNSORTED
        pops.clear()
        dijkstra(g, np.array(g.hi))
        kept = g._order
        for costs in (np.array(g.hi), g.lo + 0.5 * g.instance.width):
            dijkstra(g, costs)
            constrained_sp(g, costs, random_constraint(np.random.default_rng(i), g))
        assert pops == [] and g.acyclic_order() is kept
        order, position, out_arcs = kept
        assert sorted(order) == list(range(g.node_count))
        assert all(position[u] == i for i, u in enumerate(order))
        assert all(position[u] < position[v] for u, v in zip(g.tails.tolist(), g.heads.tolist()))
        assert out_arcs == [tuple(zip(g.out_edges[u], g._out_heads[u])) for u in range(g.node_count)]

    self_loop = IntervalDigraph.from_edges(3, [(0, 1, 1.0, 2.0), (1, 1, 0.0, 1.0), (1, 2, 1.0, 1.0)], 0, 2)
    two_cycle = IntervalDigraph.from_edges(3, [(0, 1, 1.0, 2.0), (1, 0, 0.0, 1.0), (1, 2, 1.0, 1.0)], 0, 2)
    r_graphs = [gen_instance(GeneratorSpec(family="R", n=40, r=1000.0, d=1.0, delta=0.2, seed=i)) for i in range(10)]
    for g in [self_loop, two_cycle, loop_graph()] + r_graphs:
        g.potential(g.lo)
        assert g._order is shortest_path._UNSORTED
        for costs in (np.array(g.hi), np.array(g.lo)):
            pops.clear()
            path, value = dijkstra(g, costs)
            assert (path.edges, value) == reference_search(g, costs, g.source)
            assert g._order is None and len(pops) > 0
