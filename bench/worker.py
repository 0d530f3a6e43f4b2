"""One workload in one fresh interpreter; prints its measurements as a JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src and
single-threaded BLAS.  Set-up (imports plus instance generation) is timed
from the first line of this file.  After a warm-up pass on a small
instance, whole rounds run until --seconds of rounds have been measured;
a round attempts every (instance, method) operation of the workload once,
each in its own try, while a timer runs the speed kernel (speed.py).  The
first round's results are checked; later rounds must reproduce them
exactly.  With --trace 1 plain and traced rounds
alternate; the traced rounds feed the per-layer metrics, and the tracing
overhead is the median difference between a traced round and the plain
round just before it.
"""

import time

_START = time.perf_counter()

import speed  # noqa: E402

SAMPLER = speed.Sampler()
if __name__ == "__main__":
    SAMPLER.start()  # set-up is timed at the speed sampled during it

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import regretopt as ro  # noqa: E402
import regretopt.harness as harness  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_round(roster, ops, sampler=None):
    """Attempt every op once, in order.

    Returns (wall seconds, [(key, index, outcome or exception, ms, start, end)]);
    ms leaves out the speed kernel's runs during the call.
    """
    results = []
    begin = time.perf_counter()
    for op in ops:
        spent = sampler.spent if sampler else 0.0
        t = time.perf_counter()
        try:
            out = op.call(ro, roster[op.index].graph)
        except Exception as exc:  # one failed operation must not end the run
            out = exc
        end = time.perf_counter()
        kernel_s = sampler.spent - spent if sampler else 0.0
        results.append((op.key, op.index, out, (end - t - kernel_s) * 1e3, t, end))
    return time.perf_counter() - begin, results


def first_outcomes(results) -> dict:
    out = {}
    for key, i, outcome, *_ in results:
        out.setdefault((key, i), outcome)
    return out


def report_failures(wl, roster, first) -> None:
    for (key, i), out in first.items():
        if isinstance(out, Exception):
            label = workloads.KNOWN_FAILURES.get((wl.name, key, i), "unexpected failure")
            log("failed: %s %s on %s: %s: %s [%s]" % (wl.name, key, roster[i].label, type(out).__name__, out, label))


def check_round(wl, roster, first) -> tuple[list[str], list[float]]:
    """Check the first round; returns the problems found and each instance's midpoint regret."""
    problems, mids = [], []
    for i, inst in enumerate(roster):
        net = checks.Net.of(inst.graph)
        mids.append(checks.midpoint_regret(net))
        done = {k: out for (k, j), out in first.items() if j == i and not isinstance(out, Exception)}
        try:
            wl.check(ro, inst, net, mids[-1], done)
        except checks.CheckFailure as exc:
            problems.append("%s: %s" % (inst.label, exc))
    return problems, mids


def same_results(first, results) -> list[str]:
    """Every repeat of an op must reproduce its first result exactly."""
    problems = []
    for key, i, out, *_ in results:
        ref = first[(key, i)]
        if isinstance(out, Exception) or isinstance(ref, Exception):
            same = type(out) is type(ref)
        else:
            same = out.signature == ref.signature
        if not same:
            problems.append("%s on instance %d gave different results when repeated" % (key, i))
    return problems


def call_times(rounds, sampler) -> dict[tuple[str, int], float]:
    """Each (method, instance) call's mean time over its repeats, in reference ms (speed.py)."""
    times: dict[tuple[str, int], list[float]] = {}
    for _, results in rounds:
        for key, i, _, ms, start, end in results:
            times.setdefault((key, i), []).append(ms * sampler.scale(start, end))
    return {k: statistics.fmean(v) for k, v in times.items()}


def end_to_end(rounds, first, mids, sampler) -> dict:
    """The metrics a user sees, from the plain rounds, in reference time.

    wall_s is the mean round: one round's schedule at each call's mean
    time, failed calls counted up to their failure.
    """
    per_call = call_times(rounds, sampler)
    kernel_s = sorted(sampler.times)
    log("  speed kernel: %d runs, fastest %.3f ms, median %.3f ms"
        % (len(kernel_s), kernel_s[0] * 1e3, kernel_s[len(kernel_s) // 2] * 1e3))
    done = {k: ms for k, ms in per_call.items() if not isinstance(first[k], Exception)}
    ordered = sorted(done.values())
    best: dict[int, float] = {}
    for (key, i), out in first.items():
        if not isinstance(out, Exception):
            best[i] = max(best.get(i, 0.0), out.data["value"])
    for kind in sorted({k for k, _ in done}):
        v = [ms for (k, _), ms in done.items() if k == kind]
        log("  %-7s %4d ops  median %9.2f ms  max %9.2f ms" % (kind, len(v), statistics.median(v), max(v)))
    return {
        "wall_s": (sum(per_call[(key, i)] for key, i, *_ in rounds[0][1]) / 1e3, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_ms": (statistics.median(ordered), "ms"),
        "op_ms_tail": (ordered[len(ordered) - 11], "ms"),
        "bound_gap": (sum(mids[i] for i in best) / sum(best.values()), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time set-up alone and stop")
    args = parser.parse_args(argv)
    if Path(ro.__file__).resolve().parent.parent != SRC:
        log("regretopt was imported from %s, not from this checkout's src" % ro.__file__)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    tr = None
    if args.trace:
        SAMPLER.stop()  # traced timings are raw; the kernel runs would only blur them
        import tracer

        tr = tracer.Tracer()
        tr.install()
    roster = wl.build(ro, harness, args.seed)
    setup_end = time.perf_counter()
    setup_s = setup_end - _START - SAMPLER.spent
    if args.setup_only:
        while time.perf_counter() < setup_end + speed.SETUP_PAD_S:
            time.sleep(speed.INTERVAL_S)  # the speed samples just after set-up count too
        SAMPLER.stop()
        print(json.dumps({"setup_s": setup_s * SAMPLER.scale(_START, setup_end, speed.SETUP_PAD_S)}))
        return 0
    gen = None
    if tr is not None:
        tr.uninstall()
        gen = tr.spans["harness.gen_instance"]
        tr.reset()

    warm = harness.gen_instance(wl.warmup(harness))
    for key, op in wl.methods.items():
        try:
            op(ro, warm)
        except Exception as exc:
            log("warm-up %s failed: %s: %s" % (key, type(exc).__name__, exc))

    ops = wl.ops(roster)
    plain, traced = [], []
    problems: list[str] = []
    first = mids = None
    measured = 0.0
    while not plain or measured < args.seconds:
        result = run_round(roster, ops, None if tr else SAMPLER)
        plain.append(result)
        measured += result[0]
        if first is None:
            first = first_outcomes(result[1])
            report_failures(wl, roster, first)
            started = time.perf_counter()
            problems, mids = check_round(wl, roster, first)
            log("checks took %.1f s" % (time.perf_counter() - started))
        problems += same_results(first, result[1])
        if tr is not None:
            tr.install()
            try:
                result = run_round(roster, ops)
            finally:
                tr.uninstall()
            traced.append(result)
            measured += result[0]
            problems += same_results(first, result[1])

    SAMPLER.stop()
    rounds = plain + traced
    attempted = sum(len(results) for _, results in rounds)
    failed = sum(isinstance(out, Exception) for _, results in rounds for _, _, out, *_ in results)
    for p in problems:
        log("check failed: " + p)
    if tr is None:
        metrics = end_to_end(plain, first, mids, SAMPLER)
        metrics["setup_s"] = (setup_s * SAMPLER.scale(_START, setup_end, speed.SETUP_PAD_S), "s")
    else:
        metrics = tr.metrics(len(traced), sum(w for w, _ in traced) / len(traced))
        metrics["harness.gen_instance.calls"] = (float(gen.calls), "count")
        metrics["harness.gen_instance.ms"] = (gen.total_s * 1e3, "ms")
        # each traced round follows a plain one, so the pair shares the machine's current speed
        overhead = statistics.median(t - p for (p, _), (t, _) in zip(plain, traced))
        metrics["trace.overhead_s"] = (overhead, "s")
    log("%s seed %d: %d rounds, %d ops attempted, %d failed, %d check problems"
        % (wl.name, args.seed, len(rounds), attempted, failed, len(problems)))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
