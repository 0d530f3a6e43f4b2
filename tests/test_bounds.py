import math

import numpy as np
import pytest

from regretopt import NoFeasibleSolution, PathConstraint, constrained_sp, lb_cg, lb_kz, lb_mgd, sp_oracle, two_unit_min_flow
from regretopt.bounds import GapMetrics, gap_metrics
from regretopt.harness import GeneratorSpec, gen_instance
from regretopt.harness.brute_force import brute_force_max_regret, brute_force_opt, enumerate_paths

from _fixtures import six_node_graph, two_arc_graph


# ------------------------------------------------------------- root bounds


def test_midpoint_half_regret_on_the_fixtures():
    report = lb_kz(six_node_graph())
    assert report.value == 2.5
    assert report.artifacts["midpoint_regret"] == 5.0
    assert report.artifacts["path"].edges == (0, 3, 6)

    report = lb_kz(two_arc_graph())
    assert report.value == 1.5
    assert report.artifacts["path"].edges == (0,)


def test_midpoint_bound_accepts_a_prebuilt_oracle():
    graph = six_node_graph()
    assert lb_kz(graph, sp_oracle(graph)).value == 2.5


def _cg_parts(graph, constraint):
    """The constrained midpoint path value and the two-unit flow value lb_cg combines."""
    return constrained_sp(graph, graph.instance.mid, constraint)[1], two_unit_min_flow(graph, constraint)


def test_scenario_pair_bound_on_the_fixtures():
    graph = six_node_graph()
    report = lb_cg(graph)
    assert report.value == 2.5
    assert report.artifacts["path"].edges == (0, 3, 6)
    assert _cg_parts(graph, PathConstraint(graph)) == (8.0, 11.0)

    graph = two_arc_graph()
    assert lb_cg(graph).value == 1.5
    assert _cg_parts(graph, PathConstraint(graph)) == (7.5, 12.0)


def test_detour_bound_is_zero_at_the_root():
    assert lb_mgd(six_node_graph()).value == 0.0
    assert lb_mgd(two_arc_graph()).value == 0.0


# ------------------------------------------------------- constrained bounds


def test_detour_bound_prices_a_forbidden_arc():
    # Banning the cheap source arc forces the all-hi path from 9 up to 10.
    graph = six_node_graph()
    node = PathConstraint(graph, out_set=frozenset({0}))
    report = lb_mgd(graph, node)
    assert report.value == 1.0
    assert constrained_sp(graph, graph.hi, node) == (report.artifacts["path"], 10.0)


def test_constrained_pair_bound_goldens():
    graph = six_node_graph()
    node = PathConstraint(graph, in_chain=(0,))
    assert lb_cg(graph, node).value == 2.5
    assert two_unit_min_flow(graph, node) == 13.0

    node = PathConstraint(graph, in_chain=(1,), out_set=frozenset({7}))
    assert lb_cg(graph, node).value == 3.5
    assert _cg_parts(graph, node) == (9.0, 13.0)
    assert lb_mgd(graph, node).value == 2.0


def test_blocked_constraint_raises():
    graph = six_node_graph()
    dead = PathConstraint(graph, out_set=frozenset({0, 1}))
    with pytest.raises(NoFeasibleSolution):
        lb_cg(graph, dead)
    with pytest.raises(NoFeasibleSolution):
        lb_mgd(graph, dead)


def test_constrained_bounds_never_exceed_the_feasible_optimum():
    # Brute-force adjudication: at every branch node both bounds must stay
    # below the smallest max regret among the paths the node still allows.
    rng = np.random.default_rng(11)
    checked = 0
    for i in range(220):
        spec = GeneratorSpec(
            family="R", n=4 + i % 5, r=60, d=(0.0, 0.5, 1.0)[i % 3],
            delta=0.4 + 0.1 * (i % 6), seed=500 + i,
        )
        graph = gen_instance(spec)
        paths = enumerate_paths(graph)
        if not 2 <= len(paths) <= 60:
            continue
        p = paths[rng.integers(len(paths))]
        k = int(rng.integers(0, min(3, len(p.edges)) + 1))
        chain = tuple(p.edges[:k])
        rest = [e for e in range(graph.m) if e not in chain]
        out = frozenset(
            int(e) for e in rng.choice(rest, size=min(2, len(rest)), replace=False)
        )
        node = PathConstraint(graph, in_chain=chain, out_set=out)
        feasible = [
            q for q in paths
            if tuple(q.edges[: len(chain)]) == chain and not (set(q.edges) & out)
        ]
        try:
            cg = lb_cg(graph, node).value
            mgd = lb_mgd(graph, node).value
        except NoFeasibleSolution:
            assert not feasible
            continue
        assert feasible
        floor = min(brute_force_max_regret(graph, q.indicator().members) for q in feasible)
        assert cg <= floor + 1e-9
        assert mgd <= floor + 1e-9
        checked += 1
    assert checked >= 100


def test_root_bound_chain_against_brute_force():
    # kz <= cg <= OPT <= midpoint regret, instance by instance.
    checked = 0
    for i in range(120):
        spec = GeneratorSpec(
            family="R", n=4 + i % 5, r=80, d=(0.5, 1.0)[i % 2],
            delta=0.5 + 0.1 * (i % 5), seed=900 + i,
        )
        graph = gen_instance(spec)
        try:
            _, opt, _ = brute_force_opt(graph, path_limit=5000)
        except ValueError:
            continue
        kz = lb_kz(graph)
        cg = lb_cg(graph)
        assert kz.value <= cg.value + 1e-9
        assert cg.value <= opt + 1e-9
        assert opt <= kz.artifacts["midpoint_regret"] + 1e-9
        checked += 1
    assert checked >= 100


# ------------------------------------------------------------- gap ratios


def test_gap_metrics_plain_ratio():
    metrics = gap_metrics(lb=2.0, midpoint_regret=5.0, minsol_regret=4.0, opt=3.0)
    assert metrics == GapMetrics(gap_medsol=2.5, gap_minsol=2.0, gap_opt=1.5)


def test_gap_metrics_optional_references_stay_none():
    # OPT is the one optional reference: without exact solves it stays None.
    metrics = gap_metrics(lb=2.0, midpoint_regret=5.0, minsol_regret=4.0)
    assert metrics == GapMetrics(gap_medsol=2.5, gap_minsol=2.0, gap_opt=None)
    with pytest.raises(TypeError):
        gap_metrics(lb=2.0, midpoint_regret=5.0)


def _medsol_gap(lb, midpoint_regret):
    # The midpoint solution is the only one seen: both ratios read the same regret.
    metrics = gap_metrics(lb=lb, midpoint_regret=midpoint_regret, minsol_regret=midpoint_regret)
    assert metrics.gap_minsol == metrics.gap_medsol
    return metrics.gap_medsol


def test_gap_metrics_degenerate_conventions():
    # Zero against zero is a perfect gap; zero against positive is infinite.
    assert _medsol_gap(0.0, 0.0) == 1.0
    assert _medsol_gap(0.0, 3.0) == math.inf


def test_gap_metrics_snaps_cancellation_dust():
    # Residues below 1e-9 of the scale count as zero on both sides.
    assert _medsol_gap(5e-10, 5e-10) == 1.0
    assert _medsol_gap(1e-12, 3.0) == math.inf
    assert _medsol_gap(1e5, -1e-6) == 0.0
    assert _medsol_gap(-1e-12, 0.0) == 1.0


def test_gap_metrics_rejects_genuinely_negative_inputs():
    with pytest.raises(ValueError):
        _medsol_gap(-0.5, 3.0)
    with pytest.raises(ValueError):
        _medsol_gap(2.0, -1.0)
    with pytest.raises(ValueError):
        gap_metrics(lb=2.0, midpoint_regret=3.0, minsol_regret=-1.0)
