"""regretopt benchmark: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh,
single-threaded interpreter (bench/worker.py) that imports regretopt from
the checkout's src.  With --trace 0 the last line of standard output is
one JSON object holding every end-to-end metric, its times rescaled to a
reference machine speed (bench/speed.py); set-up time is the median over
that worker and a few extra interpreters, started before and after it,
that only set up.  With --trace 1 it holds every per-layer metric
instead, timed raw.  See bench/README.md for the workloads, the checks and
reference figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
SETUP_PROBES = 3  # set-up-only interpreters on each side of the main worker
TIME_LIMIT_S = 175.0


def worker(args, extra, deadline: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    # subprocess.run kills and reaps the worker if the deadline passes
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if done.returncode != 0:
        raise RuntimeError("worker exited with code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured round time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "regretopt" / "__init__.py").is_file():
        print("no regretopt sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        # Set-up probes before and after the main worker, so their median
        # spans the run rather than one moment of a noisy machine.
        probes = 0 if args.trace else SETUP_PROBES
        setups = [worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(probes)]
        result = worker(args, [], deadline)
        setups += [worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(probes)]
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
