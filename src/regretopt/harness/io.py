"""File formats: DIMACS shortest-path graphs in, native interval graphs out.

The DIMACS .gr dialect accepted here has comment lines starting with c,
one "p sp <nodes> <arcs>" header, and "a <tail> <head> <weight>" arc lines
with 1-based node ids and nonnegative integer weights.  The native format
is line based as well: an "ri <nodes> <arcs> <source> <target>" header
followed by "e <tail> <head> <lo> <hi>" lines; floats are written with
repr so a write/read cycle reproduces the exact same instance.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, TextIO

import numpy as np

from ..shortest_path import IntervalDigraph

_TERMINAL_RETRIES = 100


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, int, float]]]:
    """Parse a .gr file into a node count and 0-based (tail, head, weight) arcs.

    Malformed lines, out-of-range node ids, and arc-count mismatches raise
    ValueError naming the offending line.
    """
    node_count = None
    declared_arcs = None
    arcs: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if node_count is not None:
                raise ValueError("line %d: repeated problem header" % lineno)
            if len(fields) != 4 or fields[1] != "sp":
                raise ValueError("line %d: malformed problem header" % lineno)
            try:
                node_count = int(fields[2])
                declared_arcs = int(fields[3])
            except ValueError:
                raise ValueError("line %d: malformed problem header" % lineno) from None
            if node_count < 1 or declared_arcs < 0:
                raise ValueError("line %d: malformed problem header" % lineno)
        elif fields[0] == "a":
            if node_count is None:
                raise ValueError("line %d: arc before problem header" % lineno)
            if len(fields) != 4:
                raise ValueError("line %d: malformed arc line" % lineno)
            try:
                tail, head, weight = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise ValueError("line %d: malformed arc line" % lineno) from None
            if not (1 <= tail <= node_count and 1 <= head <= node_count):
                raise ValueError("line %d: node id out of range" % lineno)
            if weight < 0:
                raise ValueError("line %d: negative arc weight" % lineno)
            arcs.append((tail - 1, head - 1, float(weight)))
        else:
            raise ValueError("line %d: unrecognized line type %r" % (lineno, fields[0]))
    if node_count is None:
        raise ValueError("missing problem header")
    if len(arcs) != declared_arcs:
        raise ValueError("arc count mismatch: header declared %d, found %d" % (declared_arcs, len(arcs)))
    return node_count, arcs


def perturb_intervals(
    node_count: int,
    arcs: Iterable[tuple[int, int, float]],
    seed: int,
    source: int | None = None,
    target: int | None = None,
) -> IntervalDigraph:
    """Blow scalar arc costs up into ten-percent intervals around them.

    Each cost c becomes [uniform(c - c/10, c), uniform(c, c + c/10)].
    The caller may fix both terminals; otherwise distinct nodes are drawn
    until the target is reachable, with a bounded retry budget.  One
    terminal alone is an error.
    """
    if (source is None) != (target is None):
        raise ValueError("give both terminals or neither")
    rows = list(arcs)
    if not rows:
        raise ValueError("need at least one arc")
    rng = np.random.default_rng(seed)
    weights = np.array([r[2] for r in rows], dtype=float)
    if (weights < 0).any():
        raise ValueError("arc weights must be nonnegative")
    lo = rng.uniform(weights - weights / 10.0, weights)
    hi = rng.uniform(weights, weights + weights / 10.0)
    tails = np.array([r[0] for r in rows], dtype=np.int64)
    heads = np.array([r[1] for r in rows], dtype=np.int64)
    if source is not None and target is not None:
        return IntervalDigraph(node_count, tails, heads, lo, hi, source, target)
    last_error = None
    for _ in range(_TERMINAL_RETRIES):
        s, t = (int(v) for v in rng.choice(node_count, size=2, replace=False))
        try:
            return IntervalDigraph(node_count, tails, heads, lo, hi, s, t)
        except ValueError as err:
            last_error = err
    raise ValueError("no reachable terminal pair found: %s" % (last_error,))


def write_native(graph: IntervalDigraph, out: TextIO | str) -> None:
    """Write the instance in the native line format, round-trip exact."""
    with open(out, "w") if isinstance(out, str) else contextlib.nullcontext(out) as handle:
        handle.write("ri %d %d %d %d\n" % (graph.node_count, graph.m, graph.source + 1, graph.target + 1))
        for e in range(graph.m):
            handle.write(
                "e %d %d %s %s\n"
                % (int(graph.tails[e]) + 1, int(graph.heads[e]) + 1, repr(float(graph.lo[e])), repr(float(graph.hi[e])))
            )


def read_native(source: TextIO | str) -> IntervalDigraph:
    """Read an instance written by write_native."""
    with open(source) if isinstance(source, str) else contextlib.nullcontext(source) as handle:
        text = handle.read()
    header = None
    edges: list[tuple[int, int, float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "ri":
            if header is not None:
                raise ValueError("line %d: repeated header" % lineno)
            if len(fields) != 5:
                raise ValueError("line %d: malformed header" % lineno)
            header = tuple(int(v) for v in fields[1:])
        elif fields[0] == "e":
            if header is None:
                raise ValueError("line %d: arc before header" % lineno)
            if len(fields) != 5:
                raise ValueError("line %d: malformed arc line" % lineno)
            edges.append((int(fields[1]) - 1, int(fields[2]) - 1, float(fields[3]), float(fields[4])))
        else:
            raise ValueError("line %d: unrecognized line type %r" % (lineno, fields[0]))
    if header is None:
        raise ValueError("missing header")
    node_count, arc_count, s, t = header
    if len(edges) != arc_count:
        raise ValueError("arc count mismatch: header declared %d, found %d" % (arc_count, len(edges)))
    return IntervalDigraph.from_edges(node_count, edges, s - 1, t - 1)
