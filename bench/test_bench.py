"""Self-tests for the benchmark's checker and tracer.

Run from the checkout root with:  python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import regretopt as ro  # noqa: E402
from regretopt.harness import GeneratorSpec, gen_instance  # noqa: E402
from regretopt.harness.brute_force import brute_force_max_regret, brute_force_opt, enumerate_paths  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL = [GeneratorSpec("R", 8, 100.0, 1.0, delta=0.4, seed=s) for s in range(6)] + [
    GeneratorSpec("K", 11, 100.0, 1.0, w=3, seed=s) for s in range(3)
]


@pytest.fixture(params=SMALL, ids=lambda s: "%s#%d" % (s.name, s.seed))
def graph(request):
    return gen_instance(request.param)


def test_shortest_path_agrees_with_enumeration(graph):
    net = checks.Net.of(graph)
    paths = enumerate_paths(graph)
    rng = np.random.default_rng(7)
    for costs in (graph.lo, graph.hi, rng.uniform(graph.lo, graph.hi)):
        best = min(p.value(costs) for p in paths)
        value, path = checks.shortest(net, costs)
        assert value == pytest.approx(best, rel=1e-12)
        assert sum(costs[e] for e in path) == pytest.approx(best, rel=1e-12)
        assert tuple(path) in {p.edges for p in paths}


def test_max_regret_agrees_with_enumeration(graph):
    net = checks.Net.of(graph)
    for p in enumerate_paths(graph)[:20]:
        assert checks.max_regret(net, p.edges) == pytest.approx(brute_force_max_regret(graph, p.indicator()), rel=1e-12)


def test_two_unit_flow_agrees_with_enumeration(graph):
    net = checks.Net.of(graph)
    paths = [p.edges for p in enumerate_paths(graph)]

    def pair_cost(a, b):
        return sum(graph.lo[e] for e in a) + sum(graph.hi[e] if e in a else graph.lo[e] for e in b)

    # an optimal two-unit flow splits into two simple paths, possibly sharing arcs
    best = min(pair_cost(a, b) for a in paths for b in paths)
    assert checks.two_unit_flow(net) == pytest.approx(best, rel=1e-12)


def test_any_mixture_bound_is_below_the_optimum(graph):
    net = checks.Net.of(graph)
    _, opt, _ = brute_force_opt(graph)
    paths = enumerate_paths(graph)
    rng = np.random.default_rng(3)
    scenarios = [(frozenset(p.edges), kind) for p in paths[:6] for kind in (checks.PENALIZING, checks.FAVORING)]
    for _ in range(5):
        q = rng.dirichlet(np.ones(len(scenarios)))
        assert checks.mixture_bound(net, scenarios, q) <= opt + 1e-9


def _solved(graph):
    net = checks.Net.of(graph)
    stats = ro.bb_solve(graph, "do")
    return net, stats, checks.midpoint_regret(net)


def test_exact_results_pass_and_perturbed_ones_fail(graph):
    net, stats, mid = _solved(graph)
    path = stats.optimal_path.edges
    checks.check_exact(net, stats.opt, path, mid, bound=stats.opt)
    with pytest.raises(checks.CheckFailure):
        checks.check_exact(net, stats.opt * (1 + 1e-6) + 1e-6, path, mid)
    with pytest.raises(checks.CheckFailure):
        checks.check_exact(net, stats.opt, path, mid, bound=stats.opt * (1 + 1e-6) + 1e-6)
    with pytest.raises(checks.CheckFailure):
        checks.check_exact(net, stats.opt, path[:-1], mid)
    others = [p.edges for p in enumerate_paths(graph) if checks.max_regret(net, p.edges) > stats.opt + 1e-6]
    if others:
        with pytest.raises(checks.CheckFailure):
            checks.check_exact(net, stats.opt, others[0], mid)


def test_path_check_rejects_broken_paths(graph):
    net = checks.Net.of(graph)
    path = enumerate_paths(graph)[0].edges
    checks.check_path(net, path)
    for broken in (path[1:], path[:-1], path + path[-1:], (), tuple(reversed(path)) if len(path) > 1 else ()):
        with pytest.raises(checks.CheckFailure):
            checks.check_path(net, broken)


def test_bound_checks_pass_and_perturbed_ones_fail(graph):
    net = checks.Net.of(graph)
    kz = workloads.op_kz(ro, graph)
    do = workloads.op_do(ro, graph)
    inst = workloads.Instance("g", graph)
    mid = checks.midpoint_regret(net)
    workloads.check_bounds(ro, inst, net, mid, {"kz": kz, "cg": workloads.op_cg(ro, graph), "do": do})
    with pytest.raises(checks.CheckFailure):
        checks.check_kz(net, kz.data["value"] * (1 + 1e-6) + 1e-6, kz.data["path"], mid)
    cg = workloads.op_cg(ro, graph)
    with pytest.raises(checks.CheckFailure):
        checks.check_cg(net, cg.data["value"] * (1 + 1e-6) + 1e-6, cg.data["path"])
    with pytest.raises(checks.CheckFailure):
        checks.check_game_bound(net, do.data["value"] * (1 + 1e-6) + 1e-6, do.data["scenarios"], do.data["probs"])
    do.data["value"] = do.data["value"] * (1 + 1e-6) + 1e-6
    with pytest.raises(checks.CheckFailure):
        workloads.check_bounds(ro, inst, net, mid, {"do": do})


def test_search_check_catches_a_perturbed_opt(graph):
    inst = workloads.Instance("g", graph)
    net = checks.Net.of(graph)
    mid = checks.midpoint_regret(net)
    results = {"bb_mgd": workloads.op_bb("mgd")(ro, graph), "bb_do": workloads.op_bb("do")(ro, graph)}
    workloads.check_search(ro, inst, net, mid, results)
    results["bb_mgd"].data["value"] += 1e-6 * (1 + results["bb_mgd"].data["value"])
    with pytest.raises(checks.CheckFailure):
        workloads.check_search(ro, inst, net, mid, results)


def test_relabelled_graph_has_the_same_answers(graph):
    twin = workloads.relabel(ro, graph, np.random.default_rng(5))
    assert ro.bb_solve(twin, "do").opt == pytest.approx(ro.bb_solve(graph, "do").opt, rel=1e-12)
    assert ro.lb_cg(twin).value == pytest.approx(ro.lb_cg(graph).value, rel=1e-12)


def test_tracer_wraps_every_binding_and_restores_them():
    import regretopt.bounds
    import regretopt.shortest_path

    original = regretopt.shortest_path.dijkstra
    tr = tracer.Tracer()
    tr.install()
    try:
        assert regretopt.bounds.dijkstra is regretopt.shortest_path.dijkstra is not original
        graph = gen_instance(SMALL[0])
        ro.bb_solve(graph, "do")
        ro.lb_kz(graph)
    finally:
        tr.uninstall()
    assert regretopt.bounds.dijkstra is regretopt.shortest_path.dijkstra is original
    m = tr.metrics(1, 1.0)
    assert m["bounds.lb_kz.calls"][0] == 1
    assert m["shortest_path.dijkstra.calls"][0] > 0
    assert m["game.solve_zero_sum.calls"][0] > 0
    assert tr.spans["branch_bound.bb_solve"].self_s < tr.spans["branch_bound.bb_solve"].total_s


def test_tracer_refuses_a_hidden_unwrapped_reference(monkeypatch):
    import types

    import regretopt.shortest_path

    hidden = types.ModuleType("regretopt._hidden")
    hidden.solve = regretopt.shortest_path.dijkstra  # bound under another name: still patched

    def uses_default(costs, search=regretopt.shortest_path.dijkstra):
        return search

    hidden.uses_default = uses_default
    monkeypatch.setitem(sys.modules, "regretopt._hidden", hidden)
    tr = tracer.Tracer()
    with pytest.raises(tracer.TracerError, match="default argument"):
        tr.install()
    assert regretopt.shortest_path.dijkstra is hidden.solve


def test_tracer_refuses_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("shortest_path", "no_such_search", "x.y", True),))
    with pytest.raises(tracer.TracerError, match="no_such_search"):
        tracer.Tracer().install()


def test_benchmark_json_names_every_metric_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = set(tracer.Tracer().metrics(1, 1.0)) | {
        "harness.gen_instance.calls",
        "harness.gen_instance.ms",
        "trace.overhead_s",
    }
    assert {m["name"] for m in spec["per_layer"]} == layers
    first = {("k", i): workloads.Outcome((), {"value": 1.0}) for i in range(12)}
    results = [(key, i, out, 1.0 + i, 0.0, 0.01) for (key, i), out in first.items()]
    e2e = set(worker.end_to_end([(1.0, results)], first, [2.0] * 12, _sampled((0.0, 1.0)))) | {"setup_s"}
    assert {m["name"] for m in spec["end_to_end"]} == e2e
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _sampled(*samples):
    """A sampler that saw the kernel take slowdown * REFERENCE_S at each (time, slowdown)."""
    sampler = speed.Sampler()
    sampler.ends = [t for t, _ in samples]
    sampler.times = [k * speed.REFERENCE_S for _, k in samples]
    return sampler


def test_times_are_rescaled_by_the_kernel_runs_near_each_call():
    # The kernel ran at reference speed around t = 0 and half as fast around t = 10.
    sampler = _sampled((-0.1, 1.0), (0.1, 1.0), (9.9, 2.0), (10.0, 2.0), (10.1, 2.0))
    assert sampler.scale(0.0, 0.05, pad=0.2) == pytest.approx(1.0)
    assert sampler.scale(9.95, 10.0, pad=0.2) == pytest.approx(0.5)
    assert sampler.scale(0.0, 10.0) == pytest.approx((1.0 + 1.0 + 0.5 * 3) / 5)
    with pytest.raises(RuntimeError):
        sampler.scale(5.0, 5.1)
    first = {("k", 0): workloads.Outcome((), {"value": 1.0})}
    # the same call took 8 ms at reference speed and 16 ms in the slow stretch: 8 ms each
    rounds = [(1.0, [("k", 0, first[("k", 0)], 8.0, 0.0, 0.008)]),
              (1.0, [("k", 0, first[("k", 0)], 16.0, 9.95, 9.966)]),
              (1.0, [("k", 0, first[("k", 0)], 16.0, 10.0, 10.016)])]
    assert worker.call_times(rounds, sampler) == {("k", 0): pytest.approx(8.0)}
