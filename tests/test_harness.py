import io

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

from _fixtures import six_node_graph, two_arc_graph


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


# ------------------------------------------------------------- brute force


def test_path_enumeration_order_and_limit():
    graph = six_node_graph()
    assert [p.edges for p in enumerate_paths(graph)] == [
        (0, 2, 4, 6), (0, 2, 5, 7), (0, 3, 6), (1, 4, 6), (1, 5, 7),
    ]
    with pytest.raises(ValueError, match="more than 3 paths"):
        enumerate_paths(graph, path_limit=3)


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
    records, table = run_lb_experiment(spec, 3, ("kz", "cg", "do"), exact=True)
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
    _, table = run_lb_experiment(spec, 2, ("kz",), exact=False)
    assert "gap_opt_mean" not in table["kz"]
    assert "gap_medsol_mean" in table["kz"]


def test_zero_instances_yield_a_header_only_csv():
    spec = GeneratorSpec(family="R", n=6, r=50.0, d=0.5, delta=0.8, seed=20)
    records, table = run_lb_experiment(spec, 0, ("kz",))
    out = io.StringIO()
    write_csv(experiment_rows(table, records), out)
    assert out.getvalue().splitlines() == ["bound,stat,value"]


def test_degenerate_family_reports_perfect_gaps():
    spec = GeneratorSpec(family="R", n=6, r=50.0, d=0.0, delta=0.8, seed=30)
    _, table = run_lb_experiment(spec, 2, ("kz", "cg", "do"), exact=True)
    for name in ("kz", "cg", "do"):
        assert table[name]["gap_medsol_mean"] == 1.0
        assert table[name]["gap_opt_mean"] == 1.0


def test_failed_instances_become_error_rows():
    records = [
        {"instance": "R-6-50-0.5-0.8#20", "bounds": {"kz": {
            "value": 1.0, "time_ms": 0.1, "minsol_regret": 2.0,
            "gap_medsol": 2.0, "gap_minsol": 2.0, "gap_opt": None,
        }}, "medsol_regret": 2.0, "opt": None, "opt_time_ms": None},
        {"instance": "R-6-50-0.5-0.8#21", "error": "no connected instance"},
    ]
    from regretopt.harness.experiments import aggregate_lb

    table = aggregate_lb(records, ("kz",))
    assert table["kz"]["gap_medsol_mean"] == 2.0  # error record excluded
    rows = experiment_rows(table, records)
    assert rows[-1] == ("error", "R-6-50-0.5-0.8#21", "no connected instance")


# Each catch site, with a generated and with a file input; the lb file
# case runs through the command line.
SITES = ("lb_worker", "bb_worker", "bb_worker_file", "lb_files")


def _catch_site(site, tmp_path):
    """(solver name the site calls, run of one instance -> became an error row?)."""
    spec = GeneratorSpec(family="R", n=6, r=50.0, d=0.5, delta=0.8, seed=20)
    path = str(tmp_path / "one.ri")
    write_native(gen_instance(spec), path)

    def lb_files():
        out = str(tmp_path / "lb.csv")
        assert main(["lb", path, "--lb", "kz", "--out", out]) == 0
        return "\nerror,%s," % path in open(out).read()

    return {
        "lb_worker": ("evaluate_bounds", lambda: "error" in experiments._lb_worker((spec, ("kz",), False, 50))),
        "bb_worker": ("bb_solve", lambda: "error" in experiments._bb_worker((spec, ("mgd",), None))),
        "bb_worker_file": ("bb_solve", lambda: "error" in experiments._bb_worker((path, ("mgd",), None))),
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


def test_worker_pool_matches_serial_results():
    spec = GeneratorSpec(family="R", n=6, r=50.0, d=0.5, delta=0.8, seed=20)
    serial_records, serial = run_lb_experiment(spec, 2, ("kz", "cg"), jobs=1)
    pooled_records, pooled = run_lb_experiment(spec, 2, ("kz", "cg"), jobs=2)
    for name in ("kz", "cg"):
        for key, value in serial[name].items():
            if key.startswith("time_ms"):
                continue  # wall time is the one legitimately noisy column
            assert pooled[name][key] == pytest.approx(value, abs=1e-12)
    assert [r["instance"] for r in serial_records] == [r["instance"] for r in pooled_records]


def test_search_comparison_reports_completion():
    spec = GeneratorSpec(family="R", n=6, r=50.0, d=0.5, delta=0.8, seed=20)
    records, table = run_bb_experiment(spec, 2)
    assert all("error" not in r for r in records)
    for name in ("mgd", "cg", "do"):
        assert table[name]["incomplete"] == 0.0
        assert table[name]["opt_min"] <= table[name]["opt_mean"] <= table[name]["opt_max"]
    _, capped = run_bb_experiment(spec, 2, ("do",), BBConfig(node_limit=0))
    assert capped["do"]["incomplete"] == 2.0


def test_strategy_disagreement_is_a_hard_failure(monkeypatch):
    from regretopt import branch_bound
    from regretopt.harness import experiments

    counter = {"calls": 0}

    def rigged(graph, strategy, config=None):
        counter["calls"] += 1
        return branch_bound.BBStats(
            opt=float(counter["calls"]), optimal_path=None, nodes_expanded=1,
            elapsed_ms=0.0, complete=True, strategy=strategy,
        )

    monkeypatch.setattr(experiments, "bb_solve", rigged)
    spec = GeneratorSpec(family="R", n=6, r=50.0, d=0.5, delta=0.8, seed=20)
    with pytest.raises(RuntimeError, match="strategies disagree"):
        run_bb_experiment(spec, 1, ("mgd", "do"))


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


def test_cli_requires_family_or_files():
    with pytest.raises(SystemExit):
        main(["lb", "--lb", "kz"])
