import io
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from regretopt import IntervalDigraph, NoFeasibleSolution
from regretopt.branch_bound import BBConfig
from regretopt.harness import (
    GeneratorSpec,
    gen_instance,
    parse_dimacs,
    perturb_intervals,
    read_native,
    write_native,
)
from regretopt.harness.brute_force import (
    brute_force_lb_star,
    brute_force_max_regret,
    brute_force_opt,
    enumerate_paths,
)
from regretopt.harness import experiments
from regretopt.harness import io as harness_io
from regretopt.harness.cli import main, verify_instance
from regretopt.harness.experiments import (
    evaluate_bounds,
    experiment_rows,
    run_bb_experiment,
    run_lb_experiment,
    write_csv,
)
from regretopt.double_oracle import max_regret
from regretopt.shortest_path import sp_oracle

from _fixtures import loop_graph, six_node_graph, two_arc_graph


# --------------------------------------------------------------- generators


def test_generator_spec_validation_and_names():
    spec = GeneratorSpec(family="R", n=10, r=1000.0, d=0.5, delta=1.0)
    assert spec.name == "R-10-1000-0.5-1"
    assert GeneratorSpec(family="K", n=12, r=100.0, d=0.5, w=2).name == "K-12-100-0.5-2"
    for bad in (
        dict(family="X", n=5, r=10.0, d=0.5, delta=0.5),
        dict(family="R", n=2, r=10.0, d=0.5, delta=0.5),
        dict(family="R", n=5, r=0.5, d=0.5, delta=0.5),
        dict(family="R", n=5, r=10.0, d=1.5, delta=0.5),
        dict(family="R", n=5, r=10.0, d=0.5),
        dict(family="R", n=5, r=10.0, d=0.5, delta=0.0),
        dict(family="K", n=12, r=10.0, d=0.5),
        dict(family="K", n=12, r=10.0, d=0.5, w=3),
    ):
        with pytest.raises(ValueError):
            GeneratorSpec(**bad)


def test_layered_family_topology():
    graph = gen_instance(GeneratorSpec(family="K", n=12, r=100.0, d=0.5, w=2, seed=1))
    # 5 layers of width 2: 2 source arcs + 4 * 4 between layers + 2 into t.
    assert graph.m == 20
    assert graph.node_count == 12
    assert graph.source == 0 and graph.target == 11
    # every layer-to-layer block is complete
    pairs = set(zip(graph.tails.tolist(), graph.heads.tolist()))
    for u in (1, 2):
        for v in (3, 4):
            assert (u, v) in pairs
    # layers only lead forward, so the graph is acyclic
    assert graph.acyclic_order() is not None


def test_dense_family_is_the_complete_digraph():
    graph = gen_instance(GeneratorSpec(family="R", n=5, r=100.0, d=0.5, delta=1.0, seed=2))
    assert graph.m == 5 * 4
    assert not any(t == h for t, h in zip(graph.tails, graph.heads))


def test_degenerate_variability_gives_zero_width():
    graph = gen_instance(GeneratorSpec(family="R", n=6, r=100.0, d=0.0, delta=0.8, seed=4))
    np.testing.assert_array_equal(graph.lo, graph.hi)


def test_interval_shape_tracks_variability():
    # lo >= (1-d) m and hi <= (1+d) m force hi <= 3 lo at d = 0.5.
    graph = gen_instance(GeneratorSpec(family="R", n=8, r=50.0, d=0.5, delta=0.7, seed=9))
    assert (graph.lo >= 0.0).all()
    assert (graph.hi <= 3.0 * graph.lo + 1e-9).all()


def test_generator_is_deterministic_per_spec():
    spec = GeneratorSpec(family="K", n=12, r=100.0, d=0.5, w=2, seed=1)
    first, second = io.StringIO(), io.StringIO()
    write_native(gen_instance(spec), first)
    write_native(gen_instance(spec), second)
    assert first.getvalue() == second.getvalue()


def test_r_graphs_match_the_nonzero_reference():
    """R arcs come from a mask drawn in blocks of rows: np.nonzero's arcs on the whole mask, in its order, array for array."""
    from regretopt.harness.generators import _CONNECT_RETRIES, _MASK_BLOCK, _draw_costs, _gen_r

    def reference(spec):
        for attempt in range(_CONNECT_RETRIES):
            rng = np.random.default_rng(spec.seed + attempt)
            mask = rng.random((spec.n, spec.n)) < spec.delta
            np.fill_diagonal(mask, False)
            tails, heads = np.nonzero(mask)
            lo, hi = _draw_costs(rng, tails.size, spec.r, spec.d)
            try:
                IntervalDigraph(spec.n, tails, heads, lo, hi, 0, spec.n - 1)
            except ValueError:
                continue
            return tails, heads, lo, hi

    # Six blocks of 109 rows, the last one short, and two draws that leave the target unreachable before the seed bump connects it.
    retried = GeneratorSpec(family="R", n=600, r=1000.0, d=0.5, delta=0.005, seed=11)
    rows = _MASK_BLOCK // retried.n
    assert retried.n > rows and retried.n % rows
    with pytest.raises(ValueError):
        _gen_r(retried, retried.seed)
    specs = [GeneratorSpec(family="R", n=3 + 7 * (i % 6), r=1000.0, d=(0.0, 0.5, 1.0)[i % 3], delta=(0.05, 0.2, 0.6, 1.0)[i % 4], seed=i) for i in range(40)]
    for spec in specs + [retried]:
        graph = gen_instance(spec)
        tails, heads, lo, hi = reference(spec)
        assert np.array_equal(graph.tails, tails) and np.array_equal(graph.heads, heads)
        assert graph.lo.tobytes() == lo.tobytes() and graph.hi.tobytes() == hi.tobytes()
    big = GeneratorSpec(family="R", n=1000, r=1000.0, d=1.0, delta=0.006, seed=0)
    assert all(np.array_equal(a, b) for a, b in zip((gen_instance(big).tails, gen_instance(big).heads), reference(big)))


def test_r_graph_generation_holds_one_block_of_the_mask():
    """An R-1000 graph is built without the 8 MB of an n-by-n draw: its traced peak stays under 3 MB."""
    spec = GeneratorSpec(family="R", n=1000, r=1000.0, d=1.0, delta=0.006, seed=0)
    tracemalloc.start()
    try:
        gen_instance(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_generator_gives_up_on_hopeless_density():
    spec = GeneratorSpec(family="R", n=3, r=10.0, d=0.5, delta=1e-15, seed=0)
    with pytest.raises(ValueError, match="no connected instance"):
        gen_instance(spec)


# ------------------------------------------------------------- file formats


def test_parse_dimacs_minimal_file():
    assert parse_dimacs("p sp 2 1\na 1 2 7\n") == (2, [(0, 1, 7.0)])


def test_parse_dimacs_skips_comments_and_blank_lines():
    text = "c made by hand\n\np sp 3 2\nc mid comment\na 1 2 4\na 2 3 5\n"
    assert parse_dimacs(text) == (3, [(0, 1, 4.0), (1, 2, 5.0)])


def test_parse_dimacs_error_cases():
    with pytest.raises(ValueError, match="arc count mismatch: header declared 3, found 2"):
        parse_dimacs("p sp 3 3\na 1 2 4\na 2 3 5\n")
    with pytest.raises(ValueError, match="line 2: node id out of range"):
        parse_dimacs("p sp 2 1\na 1 5 3\n")
    with pytest.raises(ValueError, match="line 1: malformed problem header"):
        parse_dimacs("p sp x 1\na 1 2 3\n")
    with pytest.raises(ValueError, match="line 2: malformed arc line"):
        parse_dimacs("p sp 2 1\na 1 2\n")
    with pytest.raises(ValueError, match="line 1: arc before problem header"):
        parse_dimacs("a 1 2 3\n")
    with pytest.raises(ValueError, match="line 3: unrecognized line type"):
        parse_dimacs("p sp 2 1\na 1 2 3\nq whatever\n")
    with pytest.raises(ValueError, match="line 2: repeated problem header"):
        parse_dimacs("p sp 2 1\np sp 2 1\na 1 2 3\n")
    with pytest.raises(ValueError, match="line 2: negative arc weight"):
        parse_dimacs("p sp 2 1\na 1 2 -3\n")
    with pytest.raises(ValueError, match="missing problem header"):
        parse_dimacs("c nothing here\n")


def test_perturb_zero_cost_stays_zero_width():
    graph = perturb_intervals(2, [(0, 1, 0.0)], seed=5, source=0, target=1)
    assert graph.lo[0] == 0.0 and graph.hi[0] == 0.0


def test_perturb_brackets_the_nominal_cost():
    arcs = [(0, 1, 100.0), (1, 2, 100.0), (0, 2, 100.0)]
    graph = perturb_intervals(3, arcs, seed=5, source=0, target=2)
    assert (graph.lo >= 90.0).all() and (graph.lo <= 100.0).all()
    assert (graph.hi >= 100.0).all() and (graph.hi <= 110.0).all()
    again = perturb_intervals(3, arcs, seed=5, source=0, target=2)
    np.testing.assert_array_equal(graph.lo, again.lo)
    np.testing.assert_array_equal(graph.hi, again.hi)


def test_perturb_draws_reachable_terminals_when_unpinned():
    arcs = [(0, 1, 10.0), (1, 2, 10.0), (2, 3, 10.0)]
    graph = perturb_intervals(4, arcs, seed=7)
    assert graph.source != graph.target  # construction also proved reachability


def test_native_round_trip_is_bit_exact(tmp_path):
    graph = gen_instance(GeneratorSpec(family="R", n=7, r=1000.0, d=1.0, delta=0.6, seed=11))
    path = tmp_path / "instance.ri"
    write_native(graph, str(path))
    back = read_native(str(path))
    assert back.node_count == graph.node_count
    assert back.source == graph.source and back.target == graph.target
    np.testing.assert_array_equal(back.tails, graph.tails)
    np.testing.assert_array_equal(back.heads, graph.heads)
    np.testing.assert_array_equal(back.lo, graph.lo)
    np.testing.assert_array_equal(back.hi, graph.hi)


def test_read_native_error_cases():
    with pytest.raises(ValueError, match="missing header"):
        read_native(io.StringIO(""))
    with pytest.raises(ValueError, match="line 2: repeated header"):
        read_native(io.StringIO("ri 2 1 1 2\nri 2 1 1 2\ne 1 2 1.0 2.0\n"))
    with pytest.raises(ValueError, match="arc count mismatch"):
        read_native(io.StringIO("ri 2 2 1 2\ne 1 2 1.0 2.0\n"))
    with pytest.raises(ValueError, match="line 1: unrecognized line type"):
        read_native(io.StringIO("hello\n"))


class _Unreadable(io.StringIO):
    def read(self, *args):
        raise OSError("read failed")


def test_file_helpers_close_the_paths_they_open_and_leave_handles_open(tmp_path, monkeypatch):
    """write_native, read_native and write_csv close a file opened from a path, even when reading it raises.

    A handle the caller passes stays open, also when reading it raises.
    """
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(harness_io, "open", recording_open, raising=False)
    monkeypatch.setattr(experiments, "open", recording_open, raising=False)
    graph, rows = six_node_graph(), [("kz", "mean", "1.0")]
    path = str(tmp_path / "instance.ri")
    write_native(graph, path)
    assert read_native(path).m == graph.m
    write_csv(rows, str(tmp_path / "rows.csv"))
    assert len(opened) == 3 and all(handle.closed for handle in opened)

    monkeypatch.setattr(harness_io, "open", lambda *args, **kwargs: opened.append(_Unreadable()) or opened[-1])
    with pytest.raises(OSError, match="read failed"):
        read_native(path)
    assert len(opened) == 4 and opened[-1].closed

    for call in (lambda handle: write_native(graph, handle), lambda handle: write_csv(rows, handle)):
        handle = io.StringIO()
        call(handle)
        assert not handle.closed and handle.getvalue()
    handle = io.StringIO("ri 2 1 1 2\ne 1 2 1.0 2.0\n")
    assert read_native(handle).m == 1 and not handle.closed
    handle = _Unreadable()
    with pytest.raises(OSError, match="read failed"):
        read_native(handle)
    assert not handle.closed


# ------------------------------------------------------------- brute force


def test_path_enumeration_order_and_limit():
    graph = six_node_graph()
    assert [p.edges for p in enumerate_paths(graph)] == [
        (0, 2, 4, 6), (0, 2, 5, 7), (0, 3, 6), (1, 4, 6), (1, 5, 7),
    ]
    with pytest.raises(ValueError, match="more than 3 paths"):
        enumerate_paths(graph, path_limit=3)


def _recursive_paths(graph):
    """Every simple s-t path by a recursive DFS over arc ids in increasing order: the reference for enumerate_paths."""
    paths, edges = [], []
    on_path = [False] * graph.node_count

    def walk(node):
        if node == graph.target:
            paths.append(tuple(edges))
            return
        on_path[node] = True
        for e in graph.out_edges[node]:
            head = int(graph.heads[e])
            if not on_path[head]:
                edges.append(e)
                walk(head)
                edges.pop()
        on_path[node] = False

    walk(graph.source)
    return paths


def test_path_enumeration_matches_a_recursive_reference():
    graphs = [six_node_graph(), two_arc_graph(), loop_graph()]
    graphs += [gen_instance(GeneratorSpec(family="R", n=5 + i % 3, r=100.0, d=1.0, delta=0.6, seed=i)) for i in range(6)]
    graphs += [gen_instance(GeneratorSpec(family="K", n=2 + 3 * (1 + i % 3), r=100.0, d=1.0, w=3, seed=i)) for i in range(6)]
    for graph in graphs:
        expected = _recursive_paths(graph)
        assert [p.edges for p in enumerate_paths(graph)] == expected
        with pytest.raises(ValueError, match="more than %d paths" % (len(expected) - 1)):
            enumerate_paths(graph, path_limit=len(expected) - 1)


def test_path_enumeration_walks_a_path_longer_than_the_recursion_limit():
    graph = gen_instance(GeneratorSpec(family="K", n=1202, r=1000.0, d=0.5, w=1, seed=0))
    paths = enumerate_paths(graph)
    assert len(paths) == 1 and len(paths[0].edges) == 1201 > sys.getrecursionlimit()
    assert brute_force_opt(graph)[1] == 0.0


def test_brute_force_opt_on_the_fixture():
    path, opt, regrets = brute_force_opt(six_node_graph())
    assert opt == 4.0
    assert path.edges == (0, 2, 5, 7)
    assert regrets == [6.0, 4.0, 5.0, 5.0, 5.0]


def test_brute_force_degenerate_cases():
    chain = IntervalDigraph.from_edges(3, [(0, 1, 1.0, 2.0), (1, 2, 3.0, 4.0)], 0, 2)
    assert brute_force_opt(chain)[1] == 0.0
    assert brute_force_lb_star(chain)[0] == 0.0
    flat = gen_instance(GeneratorSpec(family="R", n=6, r=50.0, d=0.0, delta=0.8, seed=4))
    assert brute_force_opt(flat)[1] == 0.0


def test_brute_force_game_values():
    value, equilibrium, paths = brute_force_lb_star(six_node_graph())
    assert value == pytest.approx(2.5, abs=1e-9)
    assert len(paths) == 5
    assert equilibrium.row_probs.size == 5
    value, _, _ = brute_force_lb_star(two_arc_graph())
    assert value == pytest.approx(2.1, abs=1e-9)


def test_independent_max_regret_matches_the_solver():
    for i in range(30):
        spec = GeneratorSpec(
            family="R", n=4 + i % 4, r=60.0, d=(0.5, 1.0)[i % 2],
            delta=0.5 + 0.1 * (i % 5), seed=2000 + i,
        )
        graph = gen_instance(spec)
        oracle = sp_oracle(graph)
        for path in enumerate_paths(graph)[:8]:
            x = path.indicator()
            assert brute_force_max_regret(graph, x.members) == pytest.approx(
                max_regret(graph.instance, oracle, x), abs=1e-9
            )


# --------------------------------------------------------------- experiments


def test_bound_comparison_produces_full_statistics():
    spec = GeneratorSpec(family="R", n=6, r=50.0, d=0.5, delta=0.8, seed=20)
    records, table = run_lb_experiment(spec.seeds(3), ("kz", "cg", "do"), exact=True)
    assert len(records) == 3
    assert not any("error" in r for r in records)
    for name in ("kz", "cg", "do"):
        stats = table[name]
        assert len(stats) == 16  # 4 quantities x 4 statistics
        for qty in ("time_ms", "gap_medsol", "gap_minsol", "gap_opt"):
            assert stats[qty + "_std"] >= 0.0
            assert stats[qty + "_min"] <= stats[qty + "_mean"] <= stats[qty + "_max"]
    rows = experiment_rows(table, records)
    assert len(rows) == 48
    assert all(len(row) == 3 for row in rows)


def test_gap_columns_need_the_exact_switch():
    spec = GeneratorSpec(family="R", n=6, r=50.0, d=0.5, delta=0.8, seed=20)
    _, table = run_lb_experiment(spec.seeds(2), ("kz",), exact=False)
    assert "gap_opt_mean" not in table["kz"]
    assert "gap_medsol_mean" in table["kz"]


def test_zero_instances_yield_a_header_only_csv():
    spec = GeneratorSpec(family="R", n=6, r=50.0, d=0.5, delta=0.8, seed=20)
    records, table = run_lb_experiment(spec.seeds(0), ("kz",))
    out = io.StringIO()
    write_csv(experiment_rows(table, records), out)
    assert out.getvalue().splitlines() == ["bound,stat,value"]


def test_degenerate_family_reports_perfect_gaps():
    spec = GeneratorSpec(family="R", n=6, r=50.0, d=0.0, delta=0.8, seed=30)
    _, table = run_lb_experiment(spec.seeds(2), ("kz", "cg", "do"), exact=True)
    for name in ("kz", "cg", "do"):
        assert table[name]["gap_medsol_mean"] == 1.0
        assert table[name]["gap_opt_mean"] == 1.0


def test_failed_instances_become_error_rows(monkeypatch):
    good = {"bounds": {"kz": {
        "value": 1.0, "time_ms": 0.1, "minsol_regret": 2.0,
        "gap_medsol": 2.0, "gap_minsol": 2.0, "gap_opt": None,
    }}, "medsol_regret": 2.0, "opt": None, "opt_time_ms": None}

    def driver(graph, bounds, exact):
        if graph is None:
            raise ValueError("no connected instance")
        return dict(good)

    monkeypatch.setattr(experiments, "load_instance", lambda source: None if source.endswith("#21") else source)
    monkeypatch.setattr(experiments, "evaluate_bounds", driver)
    records, table = run_lb_experiment(["R-6-50-0.5-0.8#20", "R-6-50-0.5-0.8#21"], ("kz",))
    assert records[1] == {"instance": "R-6-50-0.5-0.8#21", "error": "no connected instance"}
    assert table["kz"]["gap_medsol_mean"] == 2.0  # error record excluded
    assert "gap_opt_mean" not in table["kz"]  # no exact solves
    rows = experiment_rows(table, records)
    assert rows[-1] == ("error", "R-6-50-0.5-0.8#21", "no connected instance")


def test_experiment_rows_keep_their_order():
    """One aggregate gives each experiment's statistics in their quantities' order."""
    sources = GeneratorSpec(family="R", n=6, r=50.0, d=0.5, delta=0.8, seed=20).seeds(3)
    suffixes = ("_mean", "_std", "_min", "_max")
    records, table = run_lb_experiment(sources, ("kz", "do5"), exact=True)
    keys = [(bound, stat) for bound, stat, _ in experiment_rows(table, records)]
    qtys = ("time_ms", "gap_medsol", "gap_minsol", "gap_opt")
    assert keys == [(b, q + x) for b in ("kz", "do5") for q in qtys for x in suffixes]
    records, table = run_bb_experiment(sources, ("cg", "do"))
    keys = [(strategy, stat) for strategy, stat, _ in experiment_rows(table, records)]
    stats = [q + x for q in ("time_ms", "nodes", "opt") for x in suffixes] + ["incomplete"]
    assert keys == [(s, stat) for s in ("cg", "do") for stat in stats]


# Each catch site, with a generated and with a file input; the lb file
# case runs through the command line.
SITES = ("lb_worker", "bb_worker", "bb_worker_file", "lb_files")


def _catch_site(site, tmp_path):
    """(solver name the site calls, run of one instance -> became an error row?)."""
    spec = GeneratorSpec(family="R", n=6, r=50.0, d=0.5, delta=0.8, seed=20)
    path = str(tmp_path / "one.ri")
    write_native(gen_instance(spec), path)

    def worker(*args):
        return experiments._worker(args)

    def lb_files():
        out = str(tmp_path / "lb.csv")
        assert main(["lb", path, "--lb", "kz", "--out", out]) == 0
        return "\nerror,%s," % path in open(out).read()

    return {
        "lb_worker": ("evaluate_bounds", lambda: "error" in worker(experiments.evaluate_bounds, spec, ("kz",), False)),
        "bb_worker": ("bb_solve", lambda: "error" in worker(experiments._compare_strategies, spec, ("mgd",), None)),
        "bb_worker_file": ("bb_solve", lambda: "error" in worker(experiments._compare_strategies, path, ("mgd",), None)),
        "lb_files": ("evaluate_bounds", lb_files),
    }[site]


@pytest.mark.parametrize("site", SITES)
def test_input_errors_become_rows_and_bugs_raise(tmp_path, monkeypatch, site):
    name, becomes_error_row = _catch_site(site, tmp_path)

    def failing(exc):
        def solver(*args, **kwargs):
            raise exc

        return solver

    assert not becomes_error_row()
    for exc in (ValueError("bad input"), OSError("unreadable"), NoFeasibleSolution("no path")):
        monkeypatch.setattr(experiments, name, failing(exc))
        assert becomes_error_row()
    monkeypatch.setattr(experiments, name, failing(KeyError("harness bug")))
    with pytest.raises(KeyError, match="harness bug"):
        becomes_error_row()


def test_evaluate_bounds_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown bound"):
        evaluate_bounds(six_node_graph(), ("kz", "best"))


# Both drivers take generator specs and .ri paths alike.
SOURCE_KINDS = ("generated", "files")


def _family_sources(kind, tmp_path, count):
    """A small R family as generator specs, or written out as .ri files."""
    specs = GeneratorSpec(family="R", n=6, r=50.0, d=0.5, delta=0.8, seed=20).seeds(count)
    if kind == "generated":
        return specs
    paths = [str(tmp_path / ("%s-s%d.ri" % (spec.name, spec.seed))) for spec in specs]
    for spec, path in zip(specs, paths):
        write_native(gen_instance(spec), path)
    return paths


@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_worker_pool_matches_serial_results(tmp_path, kind):
    sources = _family_sources(kind, tmp_path, 2)

    def run_lb(sources, jobs):
        return run_lb_experiment(sources, ("kz", "cg"), jobs=jobs)

    for run in (run_lb, run_bb_experiment):
        serial_records, serial = run(sources, jobs=1)
        pooled_records, pooled = run(sources, jobs=2)
        for name, row in serial.items():
            for key, value in row.items():
                if key.startswith("time_ms"):
                    continue  # wall time is the one legitimately noisy column
                assert pooled[name][key] == pytest.approx(value, abs=1e-12)
        assert [r["instance"] for r in serial_records] == [r["instance"] for r in pooled_records]


def test_search_comparison_reports_completion():
    # Two graphs whose roots fixing leaves open, so a node limit of 0 cuts both short.
    spec = GeneratorSpec(family="R", n=8, r=50.0, d=0.5, delta=0.8, seed=33)
    records, table = run_bb_experiment(spec.seeds(2))
    assert all("error" not in r for r in records)
    for name in ("mgd", "cg", "do"):
        assert table[name]["incomplete"] == 0.0
        assert table[name]["opt_min"] <= table[name]["opt_mean"] <= table[name]["opt_max"]
    _, capped = run_bb_experiment(spec.seeds(2), ("do",), BBConfig(node_limit=0))
    assert capped["do"]["incomplete"] == 2.0


@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_strategy_disagreement_is_a_hard_failure(monkeypatch, tmp_path, kind):
    from regretopt import branch_bound
    from regretopt.harness import experiments

    counter = {"calls": 0}

    def rigged(graph, strategy, config=None):
        counter["calls"] += 1
        return branch_bound.BBStats(
            opt=float(counter["calls"]), optimal_path=None, nodes_expanded=1,
            fixed_arcs=0, elapsed_ms=0.0, complete=True,
        )

    monkeypatch.setattr(experiments, "bb_solve", rigged)
    sources = _family_sources(kind, tmp_path, 1)
    with pytest.raises(RuntimeError, match="strategies disagree"):
        if kind == "files":
            main(["bb", *sources, "--bb", "all", "--out", str(tmp_path / "bb.csv")])
        else:
            run_bb_experiment(sources, ("mgd", "do"))


def test_verify_instance_passes_on_the_fixture():
    checks = verify_instance(six_node_graph(), path_limit=1000)
    assert [label for label, _, _ in checks] == [
        "bb-mgd-agrees", "bb-cg-agrees", "bb-do-agrees",
        "do-converged", "lb-star-agrees", "bound-sandwich",
    ]
    assert all(ok for _, ok, _ in checks)


# ------------------------------------------------------------------ the CLI


def test_cli_gen_writes_native_files(tmp_path):
    code = main([
        "gen", "--family", "R", "--nodes", "6", "--r", "50", "--delta", "0.8",
        "--seed", "20", "--count", "2", "--out", str(tmp_path),
    ])
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("*.ri"))
    assert files == ["R-6-50-0.5-0.8-s20.ri", "R-6-50-0.5-0.8-s21.ri"]
    graph = read_native(str(tmp_path / files[0]))
    assert graph.node_count == 6


def test_cli_lb_on_files_writes_csv(tmp_path):
    main([
        "gen", "--family", "R", "--nodes", "6", "--r", "50", "--delta", "0.8",
        "--seed", "20", "--count", "1", "--out", str(tmp_path),
    ])
    instance = str(tmp_path / "R-6-50-0.5-0.8-s20.ri")
    out = str(tmp_path / "lb.csv")
    assert main(["lb", instance, "--lb", "kz", "--exact", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "bound,stat,value"
    assert any(line.startswith("kz,gap_opt_mean,") for line in lines)


def test_cli_lb_generator_flags_to_stdout(capsys):
    code = main([
        "lb", "--family", "R", "--nodes", "6", "--r", "50", "--delta", "0.8",
        "--seed", "20", "--count", "1", "--lb", "kz",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "bound,stat,value"
    assert any(line.startswith("kz,gap_medsol_mean,") for line in lines)


def test_cli_bb_roundtrip(tmp_path):
    out = str(tmp_path / "bb.csv")
    code = main([
        "bb", "--family", "R", "--nodes", "6", "--r", "50", "--delta", "0.8",
        "--seed", "20", "--count", "1", "--bb", "do", "--out", out,
    ])
    assert code == 0
    lines = open(out).read().splitlines()
    assert any(line.startswith("do,opt_mean,") for line in lines)
    assert any(line == "do,incomplete,0.0" for line in lines)


def test_dimacs_terminals_come_both_or_neither(tmp_path):
    arcs = [(0, 1, 10.0), (1, 2, 10.0), (2, 3, 10.0)]
    for source, target in ((1, None), (None, 3)):
        with pytest.raises(ValueError, match="both terminals or neither"):
            perturb_intervals(4, arcs, seed=0, source=source, target=target)
    gr = tmp_path / "chain.gr"
    gr.write_text("p sp 4 3\na 1 2 10\na 2 3 10\na 3 4 10\n")
    out = tmp_path / "chain.ri"
    with pytest.raises(SystemExit, match="^error: give both terminals or neither$"):
        main(["dimacs", "--gr", str(gr), "--source", "2", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("content, message", ((None, "No such file"), ("p sp 3 2\na 1 2 10\n", "arc count mismatch")), ids=("missing", "malformed"))
def test_cli_dimacs_reports_a_bad_gr_file_as_an_error_line(tmp_path, content, message):
    gr = tmp_path / "in.gr"
    if content is not None:
        gr.write_text(content)
    out = tmp_path / "out.ri"
    with pytest.raises(SystemExit, match="^error: .*%s" % message):
        main(["dimacs", "--gr", str(gr), "--out", str(out)])
    assert not out.exists()


def test_cli_dimacs_conversion(tmp_path):
    gr = tmp_path / "toy.gr"
    gr.write_text("c toy\np sp 3 3\na 1 2 100\na 2 3 100\na 1 3 100\n")
    out = str(tmp_path / "toy.ri")
    code = main(["dimacs", "--gr", str(gr), "--seed", "5", "--source", "1", "--target", "3", "--out", out])
    assert code == 0
    graph = read_native(out)
    assert graph.source == 0 and graph.target == 2
    assert (graph.lo >= 90.0).all() and (graph.hi <= 110.0).all()


def test_cli_verify_exits_clean_on_sound_instances(tmp_path, capsys):
    path = str(tmp_path / "six.ri")
    write_native(six_node_graph(), path)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 6


def test_cli_verify_reports_a_malformed_file_and_goes_on(tmp_path, capsys):
    bad = tmp_path / "bad.ri"
    bad.write_text("2 2 0 1\n")
    good = str(tmp_path / "six.ri")
    write_native(six_node_graph(), good)
    assert main(["verify", str(bad), good]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ERROR %s line 1: unrecognized line type '2'" % bad
    assert [line.split()[0] for line in lines[1:]] == ["PASS"] * 6 + ["1"]
    assert lines[-1] == "1 check(s) failed"


# Generator flags that name a valid family, for the cases that break another flag.
_R6 = ["--family", "R", "--nodes", "6", "--delta", "0.8"]


@pytest.mark.parametrize(
    "argv, message",
    (
        (["gen", "--family", "R", "--nodes", "2", "--delta", "0.5"], "need at least three nodes"),
        (["gen", "--family", "R", "--nodes", "30", "--delta", "0.001"], "no connected instance"),
        (["lb", "--family", "K", "--nodes", "10", "--width", "3"], "divisible by the layer width"),
        (["bb", "--family", "R", "--nodes", "2", "--delta", "0.5"], "need at least three nodes"),
        (["verify", "--family", "K", "--nodes", "10", "--width", "3"], "divisible by the layer width"),
        (["gen", *_R6, "--count", "-1"], "--count must be at least 1"),
        (["lb", *_R6, "--count", "0"], "--count must be at least 1"),
        (["bb", *_R6, "--count", "0"], "--count must be at least 1"),
        (["verify", *_R6, "--count", "-1"], "--count must be at least 1"),
        (["bb", *_R6, "--node-limit", "-3"], "node_limit must be nonnegative"),
        (["bb", *_R6, "--time-limit-ms", "nan"], "time_limit_ms must be nonnegative"),
        (["verify", *_R6, "--path-limit", "0"], "--path-limit must be at least 1"),
        (["lb", *_R6, "--lb", "kz", "--jobs", "-2"], "--jobs must be at least 1"),
        (["bb", *_R6, "--bb", "mgd", "--jobs", "0"], "--jobs must be at least 1"),
    ),
    ids=(
        "gen", "gen-unconnected", "lb", "bb", "verify", "gen-count", "lb-count", "bb-count", "verify-count",
        "bb-node-limit", "bb-time-limit", "verify-path-limit", "lb-jobs", "bb-jobs",
    ),
)
def test_cli_invalid_generator_flags_exit_with_an_error_line(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="^error: .*%s" % message):
        main(argv)
    # An input error writes no file.
    assert list(tmp_path.iterdir()) == []


def test_cli_count_error_exits_nonzero(tmp_path):
    run = subprocess.run(
        [sys.executable, "-m", "regretopt.harness.cli", "gen", *_R6, "--count", "-1", "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert run.returncode != 0
    assert run.stdout == "" and run.stderr == "error: --count must be at least 1\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_requires_family_or_files():
    with pytest.raises(SystemExit):
        main(["lb", "--lb", "kz"])
