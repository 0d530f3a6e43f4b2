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
    constrained_sp,
    dijkstra,
    lb_mgd,
    midpoint_scenario,
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

from _fixtures import six_node_graph, two_arc_graph
from _oracles import full_sweep_through_costs


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
    assert len(p) == 3
    assert p.value(g.lo) == 5.0
    assert p.indicator().members == {0, 3, 6}


def test_constraint_validation():
    g = six_node_graph()
    PathConstraint(in_chain=(0, 2), out_set=frozenset({5})).validate(g)
    with pytest.raises(ValueError):
        PathConstraint(in_chain=(0,), out_set=frozenset({0}))
    with pytest.raises(ValueError):
        PathConstraint(in_chain=(2,)).validate(g)  # does not start at the source
    with pytest.raises(ValueError):
        PathConstraint(in_chain=(0, 99)).validate(g)
    assert PathConstraint(in_chain=(0, 2)).chain_end(g) == 2
    assert PathConstraint().chain_end(g) == 0
    assert PathConstraint(in_chain=(0, 2)).chain_nodes(g) == (0, 1, 2)



def test_chain_nodes_checks_what_validate_checks():
    g = six_node_graph()
    # Off the source, an id out of range, and a forbidden id out of range.
    bad = [PathConstraint(in_chain=(2,)), PathConstraint(in_chain=(0, 99)), PathConstraint(out_set=frozenset({99}))]
    for constraint in bad:
        messages = set()
        for check in (constraint.validate, constraint.chain_nodes, lambda graph: constrained_sp(graph, graph.hi, constraint)):
            with pytest.raises(ValueError) as caught:
                check(g)
            messages.add(str(caught.value))
        assert len(messages) == 1


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
    g = two_arc_graph()
    assert not g.lo.flags.writeable and not g.hi.flags.writeable
    assert shortest_path._check_costs(g, g.lo) == (g.lo, True)
    assert shortest_path._check_costs(g, g.hi)[0] is g.hi
    bad_vectors = ([1.0], [1.0, 2.0, 3.0], [2.0, np.nan], [np.inf, 2.0], [-np.inf, 2.0], [-1.0, 2.0], [2.0, -1e-300])
    for bad in bad_vectors:
        with pytest.raises(ValueError):
            constrained_sp(g, bad, PathConstraint())
        with pytest.raises(ValueError):
            constrained_sp(g, bad, PathConstraint(out_set=frozenset({1})))
        with pytest.raises(ValueError):
            two_unit_min_flow(g, bad, g.hi)
        with pytest.raises(ValueError):
            two_unit_min_flow(g, g.lo, bad)
    # A second use that costs less than the first, on arcs of positive width.
    assert (g.hi > g.lo).all()
    for lo, hi in ((g.hi, g.lo), (np.array(g.hi), g.lo), (g.lo, g.lo / 2.0)):
        with pytest.raises(ValueError):
            two_unit_min_flow(g, lo, hi)
        with pytest.raises(ValueError):
            two_unit_min_flow(g, lo, hi, PathConstraint(in_chain=(0,)))
    assert two_unit_min_flow(g, g.lo, g.hi) == two_unit_min_flow(g, np.array(g.lo), np.array(g.hi)) == 12.0


def test_negative_zero_is_a_valid_cost():
    g = two_arc_graph()
    path, value = dijkstra(g, [3.0, -0.0])
    assert path.edges == (1,) and value == 0.0
    assert two_unit_min_flow(g, [-0.0, 0.0], [1.0, 2.0]) == 0.0


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
    path, value = constrained_sp(g, mid, PathConstraint(in_chain=(0, 2), out_set=frozenset({5})))
    assert path.edges == (0, 2, 4, 6)
    assert value == pytest.approx(9.5)
    # chain already reaches the target
    path, value = constrained_sp(g, mid, PathConstraint(in_chain=(0, 3, 6)))
    assert path.edges == (0, 3, 6)
    assert value == pytest.approx(8.0)
    # both arcs out of the chain end are forbidden
    assert constrained_sp(g, mid, PathConstraint(in_chain=(0,), out_set=frozenset({2, 3}))) is None


def test_constrained_sp_never_revisits_chain_nodes():
    g = IntervalDigraph.from_edges(
        4,
        [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (2, 0, 0.0, 0.0), (2, 3, 9.0, 9.0), (0, 3, 1.0, 1.0)],
        0,
        3,
    )
    found = constrained_sp(g, g.lo, PathConstraint(in_chain=(0, 1)))
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
        oracle.solve(np.array(g.lo), PathConstraint(in_chain=(0,), out_set=frozenset({2, 3})))


def test_through_arc_costs_below_a_cutoff_match_full_sweeps():
    # Costs at or above lo search under the goal potential, costs below lo without one;
    # the cutoffs include exact walk costs, the edge case.
    rng = np.random.default_rng(3003)
    for i in range(90):
        g = random_graph(i)
        width = g.hi - g.lo
        for costs in (g.lo + rng.random(g.m) * width, g.hi, rng.random(g.m) * g.lo, np.floor(g.lo + rng.random(g.m) * width)):
            full = np.array(full_sweep_through_costs(g, costs))
            assert through_arc_costs(g, costs).tolist() == full.tolist()
            finite = np.sort(full[np.isfinite(full)])
            for cutoff in (finite[0], finite[len(finite) // 3], finite[-1], finite[-1] * 2.0, 0.0):
                # Within rounding of the cutoff an arc may read either way.
                got = through_arc_costs(g, costs, cutoff)
                assert ((got == full) | (got == math.inf)).all()
                clear = full < cutoff * (1.0 - 1e-12)
                assert got[clear].tolist() == full[clear].tolist()
                assert (got[full >= cutoff] == math.inf).all()


def test_forbidden_index_follows_split_chains():
    rng = np.random.default_rng(404)
    for i in range(60):
        g = random_graph(i)
        out = frozenset(int(e) for e in rng.choice(g.m, size=int(rng.integers(0, g.m // 2 + 1)), replace=False))
        constraint = PathConstraint(out_set=out)
        while True:
            index = constraint.out_index
            assert index.dtype == np.intp and not index.flags.writeable
            assert len(set(index.tolist())) == index.size == len(constraint.out_set)
            assert set(index.tolist()) == constraint.out_set
            free = [e for e in range(g.m) if e not in constraint.out_set and e not in constraint.in_chain]
            if not free:
                break
            take, skip = constraint.split(int(rng.choice(free)))
            assert take.out_index is index
            constraint = take if rng.random() < 0.3 else skip


def loop_marked_sp(graph, costs, constraint):
    """constrained_sp with every forbidden arc set to inf one at a time, as (arcs, value) or None."""
    c = array("d", np.asarray(costs, dtype=float).tobytes())
    chain = constraint.in_chain
    chain_value = float(sum(c[e] for e in chain))
    *banned_nodes, start = constraint.chain_nodes(graph)
    if start == graph.target:
        return chain, chain_value
    for e in constraint.out_set:
        c[e] = math.inf
    above_lo = bool((np.asarray(costs) >= graph.lo).all())
    dist, pred = shortest_path._settle_all(graph, c, start, banned_nodes, graph.target, shortest_path._potential(graph, above_lo))
    if dist[graph.target] == math.inf:
        return None
    return chain + shortest_path._walk_back(graph, pred, start, graph.target).edges, chain_value + dist[graph.target]


def root_sized_constraints(rng, graph):
    """Root fixing's forbidden set, then random branches off it, then random sets of most arcs."""
    oracle = sp_oracle(graph)
    mid, _ = oracle.solve(midpoint_scenario(graph.instance).costs)
    constraint = PathConstraint(out_set=fixed_arcs(graph, mid, max_regret(graph.instance, oracle, mid)))
    yield constraint
    for _ in range(8):
        end = constraint.chain_end(graph)
        if end == graph.target:
            break
        free = [e for e in graph.out_edges[end] if e not in constraint.out_set and graph.heads.item(e) not in constraint.chain_nodes(graph)]
        if not free:
            break
        take, skip = constraint.split(int(rng.choice(free)))
        constraint = take if rng.random() < 0.5 else skip
        yield constraint
    for share in (0.5, 0.8, 0.95):
        chain = random_constraint(rng, graph).in_chain
        yield PathConstraint(in_chain=chain, out_set=frozenset(e for e in range(graph.m) if e not in chain and rng.random() < share))


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
            assert report.artifacts["constrained_value"] == found[1]
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


def brute_pair_minimum(graph, constraint, lo=None, hi=None):
    # The constraint only reprices arcs; both units may route anywhere.
    lo = graph.lo if lo is None else lo
    hi = graph.hi if hi is None else hi
    paths = enumerate_paths(graph)
    return min(pair_cost(a.edges, b.edges, constraint, lo, hi) for a in paths for b in paths)


def test_two_unit_flow_on_fixtures():
    g = six_node_graph()
    assert two_unit_min_flow(g, g.lo, g.hi) == pytest.approx(11.0)
    g2 = two_arc_graph()
    assert two_unit_min_flow(g2, g2.lo, g2.hi) == pytest.approx(12.0)


def test_two_unit_flow_matches_pair_enumeration():
    checked = 0
    for i in range(200):
        g = random_graph(i)
        if g.node_count > 7:
            continue
        flow = two_unit_min_flow(g, g.lo, g.hi)
        ref = brute_pair_minimum(g, PathConstraint())
        assert flow == pytest.approx(ref, abs=1e-9)
        checked += 1
        # reprice along a shortest path prefix and re-check
        path, _ = dijkstra(g, g.lo)
        if len(path.edges) >= 2:
            constraint = PathConstraint(in_chain=path.edges[:1], out_set=frozenset({path.edges[-1]}))
            ref = brute_pair_minimum(g, constraint)
            flow = two_unit_min_flow(g, g.lo, g.hi, constraint)
            assert flow == pytest.approx(ref, abs=1e-9)
    assert checked >= 50


def test_two_unit_flow_requires_two_units_smallest_graph():
    # One arc into the target forces both units across it.
    g = IntervalDigraph.from_edges(3, [(0, 1, 1.0, 2.0), (1, 2, 3.0, 5.0)], 0, 2)
    assert two_unit_min_flow(g, g.lo, g.hi) == pytest.approx((1.0 + 2.0) + (3.0 + 5.0))


def with_dead_ends(graph, rng):
    """The graph plus a few nodes that cheap arcs enter but that cannot reach the target."""
    n, extra = graph.node_count, int(rng.integers(1, 4))
    rows = list(zip(graph.tails.tolist(), graph.heads.tolist(), graph.lo.tolist(), graph.hi.tolist()))
    for j in range(extra):
        for u in rng.integers(0, n + j, size=2).tolist():
            lo = float(rng.uniform(0.0, 2.0))
            rows.append((u, n + j, lo, lo + float(rng.uniform(0.0, 2.0))))
    return IntervalDigraph.from_edges(n + extra, rows, graph.source, graph.target)


def full_settle_pair_flow(graph, lo, hi, constraint):
    """Two successive shortest paths, written out plainly.

    The first pass runs Dijkstra over every node the source reaches; the
    second runs Dijkstra on the residual graph with those labels as
    potentials, reduced costs clamped at zero.
    """
    tails, heads = graph.tails.tolist(), graph.heads.tolist()
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
    # forbidden arcs, the zero potential of costs below lo, and nodes the
    # goal potential marks as unable to reach the target.
    rng = np.random.default_rng(2005)
    checked = 0
    for i in range(120):
        g = random_graph(i)
        if g.node_count > 7:
            continue
        constraint = random_constraint(rng, g)
        ref = brute_pair_minimum(g, constraint)
        assert two_unit_min_flow(g, g.lo, g.hi, constraint) == pytest.approx(ref, rel=1e-12)

        below = g.lo * rng.random(g.m)
        ref = brute_pair_minimum(g, constraint, below, g.hi)
        assert two_unit_min_flow(g, below, g.hi, constraint) == pytest.approx(ref, rel=1e-12)

        dead = with_dead_ends(g, rng)
        assert all(math.isinf(h) for h in dead.goal_potential[g.node_count:])
        constraint = random_constraint(rng, dead)
        ref = brute_pair_minimum(dead, constraint)
        assert two_unit_min_flow(dead, dead.lo, dead.hi, constraint) == pytest.approx(ref, rel=1e-12)
        checked += 1
    assert checked >= 50


def test_two_unit_flow_matches_a_full_settle_reference():
    rng = np.random.default_rng(1993)
    for seed in range(4):
        g = gen_instance(GeneratorSpec(family="R", n=200, r=1000.0, d=1.0, delta=0.03, seed=seed))
        for costs in (g.lo, g.lo * rng.random(g.m)):
            for constraint in (PathConstraint(), random_constraint(rng, g), random_constraint(rng, g)):
                ref = full_settle_pair_flow(g, costs, g.hi, constraint)
                assert two_unit_min_flow(g, costs, g.hi, constraint) == pytest.approx(ref, rel=1e-12)


def test_two_unit_flow_settles_a_narrow_band(monkeypatch):
    # Both passes are goal-directed, so the root call on a 200-node R graph
    # pops the heap far fewer times than there are nodes.
    g = gen_instance(GeneratorSpec(family="R", n=200, r=1000.0, d=1.0, delta=0.03, seed=0))
    g.goal_potential  # computed once per graph by a search of its own
    pops = []

    def counting_pop(heap):
        pops.append(None)
        return heapq.heappop(heap)

    shim = types.SimpleNamespace(heappush=heapq.heappush, heappop=counting_pop)
    monkeypatch.setattr(shortest_path, "heapq", shim)
    assert two_unit_min_flow(g, g.lo, g.hi) is not None
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
    return PathConstraint(in_chain=tuple(chain), out_set=out)


def reference_constrained(graph, costs, constraint):
    """The forced prefix plus reference_search's completion from its end, or None."""
    chain, out = constraint.in_chain, constraint.out_set
    *banned_nodes, start = constraint.chain_nodes(graph)
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

        assert two_unit_min_flow(g, g.lo, g.hi, constraint) == brute_pair_minimum(g, constraint)
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
    assert g.goal_potential.tolist() == [x * (1.0 - 2.0**-20) for x in (2.0, 1.0, 4.0, 0.0)]
    costs = [1.0, 1.0, 1.0, 0.5]
    path, value = dijkstra(g, costs)
    assert (path.edges, value) == ((2, 3), 1.5) == reference_search(g, costs, g.source)
    path, value = constrained_sp(g, costs, PathConstraint())
    assert (path.edges, value) == ((2, 3), 1.5)


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
