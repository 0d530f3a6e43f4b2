"""Interval cost uncertainty and the regret algebra on top of it.

An uncertain instance assigns every element i of a ground set an interval
[lo_i, hi_i].  A scenario picks one cost per element, a solution picks a
subset of elements, and regret compares a solution against the best
possible one under a given scenario.  Everything downstream (game bounds,
branch and bound) is built from the handful of operations defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class IntervalInstance:
    """Per-element cost intervals [lo_i, hi_i], immutable after construction; equal and hashed by identity."""

    lo: np.ndarray
    hi: np.ndarray
    _width: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        lo = _frozen_array(self.lo)
        hi = _frozen_array(self.hi)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be 1-d arrays of equal length")
        if lo.size == 0:
            raise ValueError("instance needs at least one element")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("interval bounds must be finite")
        if (lo < 0).any():
            raise ValueError("interval bounds must be nonnegative")
        if (lo > hi).any():
            raise ValueError("every interval needs lo <= hi")
        width = hi - lo
        width.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "_width", width)

    @property
    def n(self) -> int:
        return self.lo.size

    @property
    def width(self) -> np.ndarray:
        """hi - lo, computed once; read-only."""
        return self._width


@dataclass(frozen=True, eq=False)
class Scenario:
    """One realized cost per element; equal and hashed by identity."""

    costs: np.ndarray

    def __post_init__(self):
        c = _frozen_array(self.costs)
        if c.ndim != 1 or not np.isfinite(c).all():
            raise ValueError("scenario costs must be a finite 1-d array")
        object.__setattr__(self, "costs", c)

    @property
    def n(self) -> int:
        return self.costs.size


class NoFeasibleSolution(Exception):
    """The oracle's feasible set is empty under the given restriction."""


@dataclass(frozen=True)
class SolutionIndicator:
    """A feasible solution, stored as the set of element indices it uses."""

    members: frozenset[int]

    def __post_init__(self):
        members = frozenset(map(int, self.members))
        if members and min(members) < 0:
            raise ValueError("element indices must be nonnegative")
        object.__setattr__(self, "members", members)

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __len__(self) -> int:
        return len(self.members)


def val(x: SolutionIndicator, c: Scenario) -> float:
    """Cost of solution x under scenario c."""
    if x.members and max(x.members) >= c.n:
        raise ValueError("solution uses an element the scenario does not price")
    return float(sum(map(c.costs.item, x.members)))


def penalizing_scenario(instance: IntervalInstance, x: SolutionIndicator) -> Scenario:
    """Extreme scenario that is worst for x: hi on its members, lo elsewhere.

    This scenario attains x's maximum regret.
    """
    costs = np.array(instance.lo)
    for i in x.members:
        if i >= instance.n:
            raise ValueError("solution does not fit the instance")
        costs[i] = instance.hi[i]
    return Scenario(costs)


def favoring_scenario(instance: IntervalInstance, y: SolutionIndicator) -> Scenario:
    """Extreme scenario that is best for y: lo on its members, hi elsewhere."""
    costs = np.array(instance.hi)
    for i in y.members:
        if i >= instance.n:
            raise ValueError("solution does not fit the instance")
        costs[i] = instance.lo[i]
    return Scenario(costs)


def midpoint_scenario(instance: IntervalInstance) -> Scenario:
    """Interval midpoints (lo + hi) / 2."""
    return Scenario((instance.lo + instance.hi) / 2.0)


def marginals(row_probs, solutions, n: int) -> np.ndarray:
    """Per-element probability that a solution drawn from the mixture uses the element.

    row_probs[k] is the probability of solutions[k]; lengths must match.
    """
    t = np.zeros(n)
    for prob, x in zip(row_probs, solutions, strict=True):
        for i in x.members:
            if i >= n:
                raise ValueError("support solution does not fit the dimension")
            t[i] += prob
    return t
