"""End-to-end acceptance checks.

Each test prints exactly one PASS or FAIL line with the measured
numbers, so running this file with -s doubles as a release checklist.
Budgets are wall-clock and generous for the instance sizes used; the
value tolerances are the contractual ones and must not be loosened.
"""

import io
import time

import numpy as np
import pytest

from regretopt import (
    DoubleOracleConfig,
    IntervalDigraph,
    ScenarioDescriptor,
    bb_solve,
    lb_cg,
    lb_kz,
    lb_mgd,
    run_double_oracle,
    solve_zero_sum,
    sp_oracle,
)
from regretopt.branch_bound import BBConfig
from regretopt.double_oracle import PENALIZING
from regretopt.harness import GeneratorSpec, gen_instance, parse_dimacs, write_native
from regretopt.harness.brute_force import brute_force_lb_star, brute_force_opt
from regretopt.harness.experiments import run_bb_experiment, run_lb_experiment
from regretopt.harness.io import read_native

from _fixtures import six_node_graph, two_arc_graph
from _oracles import enum_equilibrium


def _report(label: str, ok: bool, detail: str) -> None:
    print("%s %s (%s)" % ("PASS" if ok else "FAIL", label, detail))
    assert ok, "%s: %s" % (label, detail)


def _two_arc_chain():
    graph = two_arc_graph()
    oracle = sp_oracle(graph)
    kz = lb_kz(graph, oracle)
    cg = lb_cg(graph)
    x_mid = kz.artifacts["path"].indicator()
    result = run_double_oracle(
        graph.instance, oracle, [x_mid],
        [ScenarioDescriptor(x_mid, PENALIZING)], DoubleOracleConfig(),
    )
    _, opt, _ = brute_force_opt(graph)
    return kz.value, cg.value, result.lower_bound, opt


def test_two_arc_bound_chain():
    kz, cg, star, opt = _two_arc_chain()
    best = float("inf")
    for _ in range(20):
        begin = time.perf_counter()
        _two_arc_chain()
        best = min(best, time.perf_counter() - begin)
    ok = (
        kz == pytest.approx(1.5, abs=1e-9)
        and cg == pytest.approx(1.5, abs=1e-9)
        and star == pytest.approx(2.1, abs=1e-9)
        and opt == pytest.approx(3.0, abs=1e-9)
        and star > cg
        and best < 1e-3
    )
    _report(
        "two-arc bound chain", ok,
        "kz=%g cg=%g game=%g opt=%g best=%.3fms" % (kz, cg, star, opt, best * 1e3),
    )


def _routing_example():
    graph = six_node_graph()
    path, bf_opt, _ = brute_force_opt(graph)
    search = {s: bb_solve(graph, s).opt for s in ("mgd", "cg", "do")}
    oracle = sp_oracle(graph)
    kz = lb_kz(graph, oracle)
    x_mid = kz.artifacts["path"].indicator()
    result = run_double_oracle(
        graph.instance, oracle, [x_mid],
        [ScenarioDescriptor(x_mid, PENALIZING)], DoubleOracleConfig(),
    )
    bf_star, _, _ = brute_force_lb_star(graph)
    return path.edges, bf_opt, search, kz.value, lb_cg(graph).value, lb_mgd(graph).value, result.lower_bound, bf_star


def test_routing_example_end_to_end():
    edges, opt, search, kz, cg, mgd, star, bf_star = _routing_example()
    best = float("inf")
    for _ in range(5):
        begin = time.perf_counter()
        _routing_example()
        best = min(best, time.perf_counter() - begin)
    ok = (
        opt == pytest.approx(4.0, abs=1e-9)
        and edges == (0, 2, 5, 7)  # the route through nodes 1-2-3-5-6
        and all(v == pytest.approx(4.0, abs=1e-9) for v in search.values())
        and kz == pytest.approx(2.5, abs=1e-9)
        and cg == pytest.approx(2.5, abs=1e-9)
        and mgd == pytest.approx(0.0, abs=1e-9)
        and star == pytest.approx(bf_star, abs=1e-6)
        and best < 1e-2
    )
    _report(
        "routing example end to end", ok,
        "opt=%g search=%s kz=%g cg=%g mgd=%g game=%g brute=%g best=%.2fms"
        % (opt, sorted(search.values()), kz, cg, mgd, star, bf_star, best * 1e3),
    )


@pytest.fixture(scope="module")
def equivalence_sweep():
    """500 small random instances with everything cross-checked ready."""
    records = []
    staircases = []
    begin = time.perf_counter()
    for i in range(500):
        spec = GeneratorSpec(
            family="R", n=4 + i % 5, r=100.0, d=(0.0, 0.5, 1.0)[i % 3],
            delta=0.3 + 0.1 * (i % 7), seed=i,
        )
        graph = gen_instance(spec)
        _, bf_opt, _ = brute_force_opt(graph)
        bb_opt = bb_solve(graph, "do").opt
        bf_star, _, _ = brute_force_lb_star(graph)
        oracle = sp_oracle(graph)
        kz = lb_kz(graph, oracle)
        x_mid = kz.artifacts["path"].indicator()
        start = ScenarioDescriptor(x_mid, PENALIZING)
        result = run_double_oracle(
            graph.instance, oracle, [x_mid], [start], DoubleOracleConfig(),
        )
        records.append({
            "bf_opt": bf_opt,
            "bb_opt": bb_opt,
            "bf_star": bf_star,
            "converged": result.converged,
            "star": result.lower_bound,
            "kz": kz.value,
            "cg": lb_cg(graph).value,
            "medsol": kz.artifacts["midpoint_regret"],
            "trace": result.trace,
        })
        if i % 97 == 0:
            staircases.append([
                run_double_oracle(
                    graph.instance, oracle, [x_mid], [start], DoubleOracleConfig(max_iterations=n),
                ).lower_bound
                for n in (1, 2, 3, 4, 5)
            ])
    return records, staircases, time.perf_counter() - begin


def test_solvers_match_enumeration_on_random_graphs(equivalence_sweep):
    records, _, elapsed = equivalence_sweep
    worst_opt = max(abs(r["bb_opt"] - r["bf_opt"]) for r in records)
    worst_star = max(abs(r["star"] - r["bf_star"]) for r in records)
    sandwich = all(
        r["kz"] <= r["star"] + 1e-9
        and r["cg"] <= r["star"] + 1e-9
        and r["star"] <= r["bf_opt"] + 1e-6
        and r["bf_opt"] <= r["medsol"] + 1e-9
        and r["medsol"] <= 2.0 * r["bf_opt"] + 1e-9
        for r in records
    )
    ok = (
        len(records) == 500
        and all(r["converged"] for r in records)
        and worst_opt <= 1e-6
        and worst_star <= 1e-6
        and sandwich
        and elapsed < 60.0
    )
    _report(
        "solver equivalence sweep", ok,
        "instances=%d worst_opt_diff=%.1e worst_game_diff=%.1e sandwich=%s %.1fs"
        % (len(records), worst_opt, worst_star, sandwich, elapsed),
    )


def test_matrix_solver_against_support_enumeration():
    rng = np.random.default_rng(0)
    begin = time.perf_counter()
    worst = 0.0
    certified = True
    for _ in range(1000):
        rows, cols = rng.integers(1, 7, size=2)
        a = rng.uniform(-10.0, 10.0, size=(int(rows), int(cols)))
        eq = solve_zero_sum(a)
        reference, _, _ = enum_equilibrium(a)
        worst = max(worst, abs(eq.value - reference))
        certified = certified and (eq.row_probs @ a).max() <= eq.value + 1e-7
        certified = certified and (a @ eq.col_probs).min() >= eq.value - 1e-7
    elapsed = time.perf_counter() - begin
    ok = worst <= 1e-6 and certified and elapsed < 10.0
    _report(
        "matrix game certificates", ok,
        "matrices=1000 worst_value_diff=%.1e certified=%s %.1fs" % (worst, certified, elapsed),
    )


def test_anytime_bounds_never_overshoot(equivalence_sweep):
    records, staircases, _ = equivalence_sweep
    excess = max(max(r["trace"]) - r["bf_opt"] for r in records)
    monotone = all(
        all(a <= b + 1e-12 for a, b in zip(steps, steps[1:])) for steps in staircases
    )
    ok = excess <= 1e-9 and monotone
    _report(
        "anytime bound soundness", ok,
        "worst_excess=%.1e staircases_monotone=%s over %d checks"
        % (excess, monotone, len(staircases)),
    )


def test_warm_start_changes_nothing_but_speed():
    worst_diff = 0.0
    worst_ratio = 0.0
    begin = time.perf_counter()
    for i in range(100):
        spec = GeneratorSpec(
            family="R", n=10 + i % 21, r=1000.0, d=(0.5, 1.0)[i % 2],
            delta=0.2 + 0.05 * (i % 9), seed=1000 + i,
        )
        graph = gen_instance(spec)
        warm = bb_solve(graph, "do", BBConfig(warm_start=True))
        cold = bb_solve(graph, "do", BBConfig(warm_start=False))
        worst_diff = max(worst_diff, abs(warm.opt - cold.opt))
        if warm.nodes_expanded > 2 * cold.nodes_expanded:
            worst_ratio = float("inf")
        elif cold.nodes_expanded:
            worst_ratio = max(worst_ratio, warm.nodes_expanded / cold.nodes_expanded)
    elapsed = time.perf_counter() - begin
    ok = worst_diff <= 1e-9 and worst_ratio <= 2.0
    _report(
        "warm start equivalence", ok,
        "instances=100 worst_opt_diff=%.1e worst_node_ratio=%.2f %.1fs"
        % (worst_diff, worst_ratio, elapsed),
    )


def test_bound_and_search_trends_on_benchmark_families():
    begin = time.perf_counter()
    dense = GeneratorSpec(family="R", n=500, r=1000.0, d=0.5, delta=0.012, seed=0)
    dense_records, dense_table = run_lb_experiment(dense.seeds(30), ("kz", "cg", "do"), exact=True)
    layered = GeneratorSpec(family="K", n=42, r=1000.0, d=1.0, w=4, seed=0)
    layered_records, layered_table = run_lb_experiment(layered.seeds(30), ("kz", "do20"), exact=True)
    volatile = GeneratorSpec(family="R", n=25, r=1000.0, d=1.0, delta=0.25, seed=0)
    volatile_records, volatile_table = run_bb_experiment(volatile.seeds(30), ("mgd", "do"))
    elapsed = time.perf_counter() - begin

    clean = not any(
        "error" in r for r in dense_records + layered_records + volatile_records
    )
    game = dense_table["do"]["gap_opt_mean"]
    pair = dense_table["cg"]["gap_opt_mean"]
    half = dense_table["kz"]["gap_opt_mean"]
    k_kz = layered_table["kz"]["gap_opt_mean"]
    k_do = layered_table["do20"]["gap_opt_mean"]
    nodes_mgd = volatile_table["mgd"]["nodes_mean"]
    nodes_do = volatile_table["do"]["nodes_mean"]
    complete = (
        volatile_table["mgd"]["incomplete"] == 0.0
        and volatile_table["do"]["incomplete"] == 0.0
    )
    ok = (
        clean
        and game < pair
        and game < half
        and k_kz >= 1.8
        and k_do <= 1.5
        and complete
        and nodes_do < nodes_mgd
        and elapsed < 900.0
    )
    _report(
        "benchmark family trends", ok,
        "dense game=%.3f pair=%.3f half=%.3f; layered kz=%.3f do20=%.3f; "
        "nodes mgd=%.1f do=%.1f; %.0fs"
        % (game, pair, half, k_kz, k_do, nodes_mgd, nodes_do, elapsed),
    )


def test_file_format_robustness(tmp_path):
    parsed = parse_dimacs("p sp 2 1\na 1 2 7\n") == (2, [(0, 1, 7.0)])
    with pytest.raises(ValueError, match="arc count mismatch: header declared 3, found 2"):
        parse_dimacs("p sp 3 3\na 1 2 4\na 2 3 5\n")
    with pytest.raises(ValueError, match="line 2: node id out of range"):
        parse_dimacs("p sp 2 1\na 1 9 3\n")

    graph = gen_instance(GeneratorSpec(family="R", n=9, r=1000.0, d=1.0, delta=0.5, seed=77))
    first, second = io.StringIO(), io.StringIO()
    write_native(graph, first)
    back = read_native(io.StringIO(first.getvalue()))
    write_native(back, second)
    round_trip = (
        first.getvalue() == second.getvalue()
        and np.array_equal(back.lo, graph.lo)
        and np.array_equal(back.hi, graph.hi)
        and np.array_equal(back.tails, graph.tails)
        and np.array_equal(back.heads, graph.heads)
        and (back.source, back.target) == (graph.source, graph.target)
    )
    ok = parsed and round_trip
    _report(
        "file format robustness", ok,
        "dimacs_examples=%s native_round_trip=%s" % (parsed, round_trip),
    )
