"""The machine's speed, sampled while the program runs, and times rescaled to it.

The host this benchmark was built on runs the same code up to twice as
slowly for stretches of seconds to minutes, when its neighbours load the
shared cores and caches.  A time taken during such a stretch says more
about the neighbours than about the program.  So while the operations
run, a timer signal interrupts them every ``INTERVAL_S`` to time a fixed
kernel written here: fresh weighted adjacency lists and a heap-based
Dijkstra over a fixed random graph, then small dense numpy solves.  That
is the same kind of work the program does, with none of its code, and
it runs amid the program's own data, so it meets the same contention.
Each call's time, less the kernel runs inside it, is rescaled to a
machine on which the kernel takes ``REFERENCE_S``:

    reference time = time * REFERENCE_S * mean(1 / kernel time)

over the kernel runs during the call and ``PAD_S`` on each side
(``SETUP_PAD_S`` for set-up, which a probe interpreter must wait out).
The harmonic mean is the right one: the work done in a stretch is its
length divided by the slowdown.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import time

import numpy as np

INTERVAL_S = 0.05
PAD_S = 1.0
SETUP_PAD_S = 0.25
# The kernel time that defines reference time, near its typical time
# amid the program on the machine described in README.md.
REFERENCE_S = 3.0e-3

_rng = np.random.default_rng(20240601)
_NODES = 1000
_TAILS = np.repeat(np.arange(_NODES), 6)
_HEADS = _rng.integers(0, _NODES, _TAILS.size)
_COSTS = _rng.random(_TAILS.size)
_OUT = [[] for _ in range(_NODES)]
for _e, (_u, _v) in enumerate(zip(_TAILS.tolist(), _HEADS.tolist())):
    _OUT[_u].append((_v, _e))
_MATRIX = _rng.random((24, 24)) + 24.0 * np.eye(24)
_RHS = _rng.random(24)


def kernel() -> float:
    """Fresh weighted adjacency lists, a Dijkstra over them, and small dense solves.

    The cyclic garbage collector is held off, so that the kernel never
    pays for collecting the program's objects.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if collecting:
            gc.enable()


def _kernel() -> float:
    costs = _COSTS.tolist()
    adj = [[(v, costs[e]) for v, e in out] for out in _OUT]
    dist = [float("inf")] * _NODES
    done = [False] * _NODES
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    x = _RHS
    for _ in range(20):
        x = np.linalg.solve(_MATRIX, x + _RHS)
    return float(x.sum()) + sum(d for d in dist if d < float("inf"))


class Sampler:
    """Times the kernel from a SIGALRM handler while started."""

    def __init__(self):
        self.ends: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0  # kernel time so far, to be taken out of the calls' times

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.times.append(end - start)
        self.spent += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float, pad: float = PAD_S) -> float:
        """Factor to reference time for a call over [start, end]."""
        i = bisect.bisect_left(self.ends, start - pad)
        j = bisect.bisect_right(self.ends, end + pad)
        if i == j:
            raise RuntimeError("no speed sample within %.2f s of a call" % pad)
        return REFERENCE_S * sum(1.0 / t for t in self.times[i:j]) / (j - i)
