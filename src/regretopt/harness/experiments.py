"""Experiment drivers behind the command line tool.

Both experiments take a list of instance sources, each a GeneratorSpec or
the path of a native .ri file, and run every instance through one worker
with a per-instance driver: evaluate_bounds for the bound comparison, an
exact solve per strategy for the search comparison.  One aggregate turns
the records into per-bound (or per-strategy) statistics.  Output is
long-format CSV with three columns: bound, stat, value.  Instances
parallelize across processes with jobs > 1; everything inside a single
instance stays serial.
"""

from __future__ import annotations

import contextlib
import csv
import time
from typing import Iterable, Sequence, TextIO

import numpy as np

from ..bounds import gap_metrics, lb_cg, lb_kz, lb_mgd
from ..branch_bound import STRATEGIES, BBConfig, bb_solve
from ..core import NoFeasibleSolution, SolutionIndicator
from ..double_oracle import DoubleOracleConfig, ScenarioPool, max_regret, run_double_oracle
from ..shortest_path import IntervalDigraph, sp_oracle
from .generators import GeneratorSpec, gen_instance
from .io import read_native

BOUND_NAMES = ("kz", "cg", "mgd", "do5", "do10", "do15", "do20", "do")
# The standard comparison roster; mgd is 0 on an unconstrained graph so it
# only enters when asked for explicitly.
STANDARD_BOUNDS = ("kz", "cg", "do5", "do10", "do15", "do20", "do")
_DO_ITERS = {"do5": 5, "do10": 10, "do15": 15, "do20": 20, "do": 10_000}


def instance_id(source: GeneratorSpec | str) -> str:
    """The name a source's rows carry: family#seed, or the file path."""
    if isinstance(source, GeneratorSpec):
        return "%s#%d" % (source.name, source.seed)
    return source


def load_instance(source: GeneratorSpec | str) -> IntervalDigraph:
    """The instance a source names: generated from a spec, or read from a .ri path."""
    if isinstance(source, GeneratorSpec):
        return gen_instance(source)
    return read_native(source)


def evaluate_bounds(
    graph: IntervalDigraph,
    bounds: Sequence[str] = STANDARD_BOUNDS,
    exact: bool = False,
) -> dict:
    """All requested bounds on one instance, each timed on its own.

    Every bound also reports the smallest max regret over the solutions
    its computation produced (the midpoint solution always counts), and
    the gap ratios against the midpoint regret, that minimum, and OPT
    when exact solving is on.  The other solutions' regrets are priced
    through one pool, so each distinct one is solved once.
    """
    for name in bounds:
        if name not in BOUND_NAMES:
            raise ValueError("unknown bound %r" % name)
    oracle = sp_oracle(graph)
    begin = time.perf_counter()
    kz = lb_kz(graph, oracle)
    kz_ms = (time.perf_counter() - begin) * 1e3
    x_mid = kz.artifacts["path"].indicator()
    medsol_regret = kz.artifacts["midpoint_regret"]

    opt = None
    opt_time_ms = None
    if exact:
        begin = time.perf_counter()
        stats = bb_solve(graph, "do")
        opt_time_ms = (time.perf_counter() - begin) * 1e3
        opt = stats.opt

    pool = ScenarioPool(graph.instance, oracle)
    record: dict = {"medsol_regret": medsol_regret, "opt": opt, "opt_time_ms": opt_time_ms, "bounds": {}}
    for name in bounds:
        extra: tuple[SolutionIndicator, ...] = ()
        begin = time.perf_counter()
        if name == "kz":
            value = kz.value
        elif name in ("cg", "mgd"):
            rep = (lb_cg if name == "cg" else lb_mgd)(graph)
            value = rep.value
            extra = (rep.artifacts["path"].indicator(),)
        else:
            config = DoubleOracleConfig(max_iterations=_DO_ITERS[name])
            result = run_double_oracle(graph.instance, oracle, [x_mid], config=config)
            value = result.lower_bound
            extra = tuple(result.solutions)
        time_ms = kz_ms if name == "kz" else (time.perf_counter() - begin) * 1e3
        minsol_regret = min([medsol_regret] + [max_regret(graph.instance, oracle, x, pool) for x in extra if x != x_mid])
        gaps = gap_metrics(value, medsol_regret, minsol_regret, opt)
        record["bounds"][name] = {
            "value": value,
            "time_ms": time_ms,
            "minsol_regret": minsol_regret,
            "gap_medsol": gaps.gap_medsol,
            "gap_minsol": gaps.gap_minsol,
            "gap_opt": gaps.gap_opt,
        }
    return record


def _compare_strategies(graph: IntervalDigraph, strategies: Sequence[str], config: BBConfig | None) -> dict:
    """One exact solve of the instance per bounding strategy."""
    record: dict = {"strategies": {}}
    for strategy in strategies:
        stats = bb_solve(graph, strategy, config)
        record["strategies"][strategy] = {
            "opt": stats.opt,
            "nodes": stats.nodes_expanded,
            "time_ms": stats.elapsed_ms,
            "complete": stats.complete,
        }
    return record


# What a bad instance can raise: it becomes an "error" row.  Anything else
# is a bug in the program and propagates.
INPUT_ERRORS = (ValueError, OSError, NoFeasibleSolution)


def _worker(args) -> dict:
    """driver(graph, *params) on the instance a source names, tagged with its name.

    args is (driver, source, *params); an input error becomes an error record.
    """
    driver, source, *params = args
    try:
        record = driver(load_instance(source), *params)
    except INPUT_ERRORS as err:
        return {"instance": instance_id(source), "error": "%s" % (err,)}
    record["instance"] = instance_id(source)
    return record


def _run_workers(arglist, jobs: int) -> list[dict]:
    if jobs <= 1 or len(arglist) <= 1:
        return [_worker(a) for a in arglist]
    # Imported here: multiprocessing adds about 0.6 MB to every process
    # that imports the harness, and only a worker pool needs it.
    from multiprocessing import Pool

    with Pool(min(jobs, len(arglist))) as pool:
        return list(pool.imap(_worker, arglist))


def run_lb_experiment(
    sources: Sequence[GeneratorSpec | str],
    bounds: Sequence[str] = STANDARD_BOUNDS,
    exact: bool = False,
    jobs: int = 1,
) -> tuple[list[dict], dict[str, dict[str, float]]]:
    """Bound comparison over instance sources: generator specs or .ri paths.

    Returns per-instance records (failed instances carry an "error" key)
    and the aggregate {bound: {stat: value}} table.
    """
    records = _run_workers([(evaluate_bounds, s, tuple(bounds), exact) for s in sources], jobs)
    ok = [r["bounds"] for r in records if "error" not in r]
    return records, aggregate(ok, bounds, ("time_ms", "gap_medsol", "gap_minsol", "gap_opt"))


def _column_stats(qty: str, column: Sequence[float]) -> dict[str, float]:
    """Mean, std, min and max of one nonempty column, keyed qty_mean and so on."""
    values = np.array(column, dtype=float)
    # A zero bound yields an infinite gap; its std is then nan.
    with np.errstate(invalid="ignore"):
        stats = (values.mean(), values.std(), values.min(), values.max())
    return {qty + suffix: float(v) for suffix, v in zip(("_mean", "_std", "_min", "_max"), stats)}


def aggregate(records: list[dict], names: Sequence[str], quantities: Sequence[str]) -> dict[str, dict[str, float]]:
    """{name: {qty_stat: value}} over per-instance {name: {qty: value}} records.

    A quantity with no records, or recorded as None (OPT gaps without
    exact solves), gets no statistics.
    """
    table: dict[str, dict[str, float]] = {}
    for name in names:
        row: dict[str, float] = {}
        for qty in quantities:
            column = [r[name][qty] for r in records]
            if column and column[0] is not None:
                row.update(_column_stats(qty, column))
        table[name] = row
    return table


def run_bb_experiment(
    sources: Sequence[GeneratorSpec | str],
    strategies: Sequence[str] = STRATEGIES,
    config: BBConfig | None = None,
    jobs: int = 1,
) -> tuple[list[dict], dict[str, dict[str, float]]]:
    """Exact-solve comparison of bounding strategies over instance sources.

    Any two strategies that both ran to completion on the same instance
    must agree on the optimum; a spread beyond 1e-6 is a correctness bug
    and raises instead of being averaged away.  Besides the statistics,
    each strategy's row counts its incomplete solves.
    """
    for name in strategies:
        if name not in STRATEGIES:
            raise ValueError("unknown strategy %r" % name)
    records = _run_workers([(_compare_strategies, s, tuple(strategies), config) for s in sources], jobs)
    for record in records:
        if "error" in record:
            continue
        opts = [row["opt"] for row in record["strategies"].values() if row["complete"]]
        if opts and max(opts) - min(opts) > 1e-6:
            raise RuntimeError(
                "strategies disagree on %s: %s"
                % (record["instance"], {k: v["opt"] for k, v in record["strategies"].items()})
            )
    ok = [r["strategies"] for r in records if "error" not in r]
    table = aggregate(ok, strategies, ("time_ms", "nodes", "opt"))
    if ok:
        for name in strategies:
            table[name]["incomplete"] = float(sum(1 for r in ok if not r[name]["complete"]))
    return records, table


def experiment_rows(table: dict[str, dict[str, float]], records: list[dict] | None = None) -> list[tuple[str, str, str]]:
    """Flatten an aggregate table (plus error records) into CSV rows."""
    rows: list[tuple[str, str, str]] = []
    for bound, stats in table.items():
        for stat, value in stats.items():
            rows.append((bound, stat, repr(float(value))))
    for record in records or ():
        if "error" in record:
            rows.append(("error", record["instance"], record["error"]))
    return rows


def write_csv(rows: Iterable[tuple[str, str, str]], out: TextIO | str) -> None:
    with open(out, "w", newline="") if isinstance(out, str) else contextlib.nullcontext(out) as handle:
        writer = csv.writer(handle)
        writer.writerow(("bound", "stat", "value"))
        writer.writerows(rows)
