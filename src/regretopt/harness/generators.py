"""Seeded random instance families.

Two topologies: R graphs put an arc between every ordered node pair
independently with a fixed probability, K graphs chain fully connected
layers of equal width between the terminals.  Costs follow the same recipe
in both: a nominal value m uniform on [1, r], a lower bound uniform on
[(1-d)m, (1+d)m], and an upper bound uniform between the lower bound and
(1+d)m, so d scales the cost variability from degenerate (d=0) to wide (d=1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..shortest_path import IntervalDigraph

_CONNECT_RETRIES = 100


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one random instance; equal specs generate equal instances."""

    family: str
    n: int
    r: float
    d: float
    delta: float | None = None
    w: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in ("R", "K"):
            raise ValueError("family must be R or K")
        if self.n < 3:
            raise ValueError("need at least three nodes")
        if self.r < 1:
            raise ValueError("nominal cost range needs r >= 1")
        if not 0.0 <= self.d <= 1.0:
            raise ValueError("variability d must lie in [0, 1]")
        if self.family == "R":
            if self.delta is None or not 0.0 < self.delta <= 1.0:
                raise ValueError("R graphs need an arc probability delta in (0, 1]")
        else:
            if self.w is None or self.w < 1:
                raise ValueError("K graphs need a positive layer width")
            if (self.n - 2) % self.w != 0:
                raise ValueError("K graphs need (n - 2) divisible by the layer width")

    @property
    def name(self) -> str:
        if self.family == "R":
            return "R-%d-%g-%g-%g" % (self.n, self.r, self.d, self.delta)
        return "K-%d-%g-%g-%d" % (self.n, self.r, self.d, self.w)

    def seeds(self, count: int) -> list[GeneratorSpec]:
        """This spec and the next count - 1 seeds of its family."""
        return [replace(self, seed=self.seed + i) for i in range(count)]


def _draw_costs(rng: np.random.Generator, m: int, r: float, d: float) -> tuple[np.ndarray, np.ndarray]:
    nominal = rng.uniform(1.0, r, size=m)
    lo = rng.uniform((1.0 - d) * nominal, (1.0 + d) * nominal)
    hi = rng.uniform(lo, (1.0 + d) * nominal)
    return lo, hi


def _gen_r(spec: GeneratorSpec, seed: int) -> IntervalDigraph:
    rng = np.random.default_rng(seed)
    mask = rng.random((spec.n, spec.n)) < spec.delta
    np.fill_diagonal(mask, False)
    tails, heads = np.nonzero(mask)
    lo, hi = _draw_costs(rng, tails.size, spec.r, spec.d)
    return IntervalDigraph(spec.n, tails, heads, lo, hi, 0, spec.n - 1)


def _gen_k(spec: GeneratorSpec) -> IntervalDigraph:
    rng = np.random.default_rng(spec.seed)
    w = spec.w
    layers = (spec.n - 2) // w
    tails: list[int] = []
    heads: list[int] = []

    def layer_nodes(i: int) -> range:
        return range(1 + i * w, 1 + (i + 1) * w)

    for v in layer_nodes(0):
        tails.append(0)
        heads.append(v)
    for i in range(layers - 1):
        for u in layer_nodes(i):
            for v in layer_nodes(i + 1):
                tails.append(u)
                heads.append(v)
    for u in layer_nodes(layers - 1):
        tails.append(u)
        heads.append(spec.n - 1)
    lo, hi = _draw_costs(rng, len(tails), spec.r, spec.d)
    return IntervalDigraph(spec.n, np.asarray(tails), np.asarray(heads), lo, hi, 0, spec.n - 1)


def gen_instance(spec: GeneratorSpec) -> IntervalDigraph:
    """Generate the instance a spec names.

    R draws can leave the target unreachable; those retry with the seed
    bumped by one, up to a fixed budget, so a given spec either always
    yields the same instance or always fails.
    """
    if spec.family == "K":
        return _gen_k(spec)
    last_error = None
    for attempt in range(_CONNECT_RETRIES):
        try:
            return _gen_r(spec, spec.seed + attempt)
        except ValueError as err:
            last_error = err
    raise ValueError("no connected instance for %s after %d attempts: %s" % (spec.name, _CONNECT_RETRIES, last_error))
