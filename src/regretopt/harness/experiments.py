"""Experiment drivers behind the command line tool.

Both drivers take a list of instance sources, each a GeneratorSpec or
the path of a native .ri file, solve each instance independently, and
aggregate per-bound (or per-strategy) statistics.  Output is long-format
CSV with three columns: bound, stat, value.  Instances parallelize across
processes with jobs > 1; everything inside a single instance stays serial.
"""

from __future__ import annotations

import csv
import time
from typing import Iterable, Sequence, TextIO

import numpy as np

from ..bounds import gap_metrics, lb_cg, lb_kz, lb_mgd
from ..branch_bound import STRATEGIES, BBConfig, bb_solve
from ..core import NoFeasibleSolution, SolutionIndicator
from ..double_oracle import DoubleOracleConfig, max_regret, run_double_oracle
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
    max_support: int = 50,
) -> dict:
    """All requested bounds on one instance, each timed on its own.

    Every bound also reports the smallest max regret over the solutions
    its computation produced (the midpoint solution always counts), and
    the gap ratios against the midpoint regret, that minimum, and OPT
    when exact solving is on.
    """
    for name in bounds:
        if name not in BOUND_NAMES:
            raise ValueError("unknown bound %r" % name)
    oracle = sp_oracle(graph)
    kz = lb_kz(graph, oracle)
    x_mid = kz.artifacts["path"].indicator()
    medsol_regret = kz.artifacts["midpoint_regret"]
    regret_cache: dict[frozenset[int], float] = {x_mid.members: medsol_regret}

    def regret_of(x: SolutionIndicator) -> float:
        if x.members not in regret_cache:
            regret_cache[x.members] = max_regret(graph.instance, oracle, x)
        return regret_cache[x.members]

    opt = None
    opt_time_ms = None
    if exact:
        begin = time.perf_counter()
        stats = bb_solve(graph, "do")
        opt_time_ms = (time.perf_counter() - begin) * 1e3
        opt = stats.opt

    record: dict = {"medsol_regret": medsol_regret, "opt": opt, "opt_time_ms": opt_time_ms, "bounds": {}}
    for name in bounds:
        extra: tuple[SolutionIndicator, ...] = ()
        if name == "kz":
            value, time_ms = kz.value, kz.elapsed_ms
        elif name in ("cg", "mgd"):
            rep = (lb_cg if name == "cg" else lb_mgd)(graph)
            value, time_ms = rep.value, rep.elapsed_ms
            extra = (rep.artifacts["path"].indicator(),)
        else:
            config = DoubleOracleConfig(max_iterations=_DO_ITERS[name], max_support_x=max_support)
            begin = time.perf_counter()
            result = run_double_oracle(graph.instance, oracle, [x_mid], config=config)
            time_ms = (time.perf_counter() - begin) * 1e3
            value = result.lower_bound
            extra = tuple(result.solutions)
        minsol_regret = min(regret_of(x) for x in dict.fromkeys((x_mid,) + extra))
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


# What a bad instance can raise: it becomes an "error" row.  Anything else
# is a bug in the program and propagates.
INPUT_ERRORS = (ValueError, OSError, NoFeasibleSolution)


def _lb_worker(args) -> dict:
    source, bounds, exact, max_support = args
    try:
        record = evaluate_bounds(load_instance(source), bounds, exact, max_support)
    except INPUT_ERRORS as err:
        return {"instance": instance_id(source), "error": "%s" % (err,)}
    record["instance"] = instance_id(source)
    return record


def _run_workers(worker, arglist, jobs: int) -> list[dict]:
    if jobs <= 1 or len(arglist) <= 1:
        return [worker(a) for a in arglist]
    # Imported here: multiprocessing adds about 0.6 MB to every process
    # that imports the harness, and only a worker pool needs it.
    from multiprocessing import Pool

    with Pool(min(jobs, len(arglist))) as pool:
        return list(pool.imap(worker, arglist))


def run_lb_experiment(
    sources: Sequence[GeneratorSpec | str],
    bounds: Sequence[str] = STANDARD_BOUNDS,
    exact: bool = False,
    max_support: int = 50,
    jobs: int = 1,
) -> tuple[list[dict], dict[str, dict[str, float]]]:
    """Bound comparison over instance sources: generator specs or .ri paths.

    Returns per-instance records (failed instances carry an "error" key)
    and the aggregate {bound: {stat: value}} table.
    """
    arglist = [(s, tuple(bounds), exact, max_support) for s in sources]
    records = _run_workers(_lb_worker, arglist, jobs)
    return records, aggregate_lb(records, bounds)


def _column_stats(qty: str, column: Sequence[float]) -> dict[str, float]:
    """Mean, std, min and max of one nonempty column, keyed qty_mean and so on."""
    values = np.array(column, dtype=float)
    # A zero bound yields an infinite gap; its std is then nan.
    with np.errstate(invalid="ignore"):
        stats = (values.mean(), values.std(), values.min(), values.max())
    return {qty + suffix: float(v) for suffix, v in zip(("_mean", "_std", "_min", "_max"), stats)}


def aggregate_lb(records: list[dict], bounds: Sequence[str]) -> dict[str, dict[str, float]]:
    ok = [r for r in records if "error" not in r]
    table: dict[str, dict[str, float]] = {}
    for name in bounds:
        row: dict[str, float] = {}
        for qty in ("time_ms", "gap_medsol", "gap_minsol", "gap_opt"):
            column = [r["bounds"][name][qty] for r in ok]
            if column and column[0] is not None:
                row.update(_column_stats(qty, column))
        table[name] = row
    return table


def _bb_worker(args) -> dict:
    source, strategies, bb_config = args
    record: dict = {"instance": instance_id(source), "strategies": {}}
    try:
        graph = load_instance(source)
        for strategy in strategies:
            stats = bb_solve(graph, strategy, bb_config)
            record["strategies"][strategy] = {
                "opt": stats.opt,
                "nodes": stats.nodes_expanded,
                "time_ms": stats.elapsed_ms,
                "complete": stats.complete,
            }
    except INPUT_ERRORS as err:
        return {"instance": instance_id(source), "error": "%s" % (err,)}
    return record


def run_bb_experiment(
    sources: Sequence[GeneratorSpec | str],
    strategies: Sequence[str] = STRATEGIES,
    config: BBConfig | None = None,
    jobs: int = 1,
) -> tuple[list[dict], dict[str, dict[str, float]]]:
    """Exact-solve comparison of bounding strategies over instance sources.

    Any two strategies that both ran to completion on the same instance
    must agree on the optimum; a spread beyond 1e-6 is a correctness bug
    and raises instead of being averaged away.
    """
    for name in strategies:
        if name not in STRATEGIES:
            raise ValueError("unknown strategy %r" % name)
    arglist = [(s, tuple(strategies), config) for s in sources]
    records = _run_workers(_bb_worker, arglist, jobs)
    for record in records:
        if "error" in record:
            continue
        opts = [row["opt"] for row in record["strategies"].values() if row["complete"]]
        if opts and max(opts) - min(opts) > 1e-6:
            raise RuntimeError(
                "strategies disagree on %s: %s"
                % (record["instance"], {k: v["opt"] for k, v in record["strategies"].items()})
            )
    return records, aggregate_bb(records, strategies)


def aggregate_bb(records: list[dict], strategies: Sequence[str]) -> dict[str, dict[str, float]]:
    ok = [r for r in records if "error" not in r]
    table: dict[str, dict[str, float]] = {}
    for name in strategies:
        row: dict[str, float] = {}
        if ok:
            for qty in ("time_ms", "nodes", "opt"):
                row.update(_column_stats(qty, [r["strategies"][name][qty] for r in ok]))
            row["incomplete"] = float(sum(1 for r in ok if not r["strategies"][name]["complete"]))
        table[name] = row
    return table


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
    own = isinstance(out, str)
    handle = open(out, "w", newline="") if own else out
    try:
        writer = csv.writer(handle)
        writer.writerow(("bound", "stat", "value"))
        writer.writerows(rows)
    finally:
        if own:
            handle.close()
