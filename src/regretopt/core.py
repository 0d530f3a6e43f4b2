"""Interval cost uncertainty and the regret algebra on top of it.

An uncertain instance assigns every element i of a ground set an interval
[lo_i, hi_i].  A scenario picks one cost per element, a solution picks a
subset of elements, and regret compares a solution against the best
possible one under a given scenario.  Everything downstream (game bounds,
branch and bound) is built from the handful of operations defined here.
Every member set is priced by one rule, cost_of: the exactly rounded sum
of its members' costs, which no member order or element numbering moves.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class IntervalInstance:
    """Per-element cost intervals [lo_i, hi_i], immutable after construction; equal and hashed by identity.

    Construction checks lo and hi and derives the width hi - lo and the
    midpoint (lo + hi) / 2, each once and read-only.  The midpoint lies in
    [lo, hi]: doubling either bound is exact, and rounding the sum keeps
    its order.
    """

    lo: np.ndarray
    hi: np.ndarray
    width: np.ndarray = field(init=False, repr=False)
    mid: np.ndarray = field(init=False, repr=False)

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
        mid = (lo + hi) / 2.0
        if not np.isfinite(mid).all():
            raise ValueError("interval midpoints must be finite")
        width = hi - lo
        width.setflags(write=False)
        mid.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "mid", mid)

    @property
    def n(self) -> int:
        return self.lo.size


@dataclass(frozen=True, eq=False)
class Scenario:
    """One realized cost per element; equal and hashed by identity."""

    costs: np.ndarray

    def __post_init__(self):
        c = _frozen_array(self.costs)
        if c.ndim != 1 or not np.isfinite(c).all():
            raise ValueError("scenario costs must be a finite 1-d array")
        object.__setattr__(self, "costs", c)

    @classmethod
    def _of_checked(cls, costs: np.ndarray) -> "Scenario":
        """Wrap costs already known to be a read-only, finite 1-d array: no copy, no check."""
        scenario = object.__new__(cls)
        object.__setattr__(scenario, "costs", costs)
        return scenario

    @property
    def n(self) -> int:
        return self.costs.size


class NoFeasibleSolution(Exception):
    """The oracle's feasible set is empty under the given restriction."""


# CPython gives a set of fewer members than this its fixed 8-slot table
# however it is built, so only larger sets can shrink by a copy.
_SHRINKABLE_MEMBERS = 5


@dataclass(frozen=True)
class SolutionIndicator:
    """A feasible solution, stored as the set of element indices it uses.

    members is the smaller of the set as built and its copy: CPython sizes
    a copy's hash table to its members, while adding them one by one can
    leave it twice as large (a 21-arc path: 1,240 against 2,264 bytes).
    index holds the same ids as a read-only intp array, built on first
    use, for the dense builds that set every member in one numpy step.
    """

    members: frozenset[int]

    def __post_init__(self):
        members = frozenset(map(operator.index, self.members))
        if members and min(members) < 0:
            raise ValueError("element indices must be nonnegative")
        if len(members) >= _SHRINKABLE_MEMBERS:
            copy = frozenset(set(members))
            if sys.getsizeof(copy, 0) < sys.getsizeof(members, 0):
                members = copy
        object.__setattr__(self, "members", members)

    @functools.cached_property
    def index(self) -> np.ndarray:
        """The members as a read-only intp array, in set order."""
        index = np.fromiter(self.members, np.intp, len(self.members))
        index.setflags(write=False)
        return index


def cost_of(members, costs) -> float:
    """costs[i] summed over the members i, exactly rounded by math.fsum, so the same in every member order.

    members is a collection of element ids; costs is any sequence indexed by element (an ndarray, an array('d')).
    """
    values = operator.itemgetter(*members)(costs) if len(members) > 1 else [costs[i] for i in members]
    return math.fsum(values)


def val(x: SolutionIndicator, c: Scenario) -> float:
    """Cost of solution x under scenario c, priced by cost_of."""
    if x.members and max(x.members) >= c.n:
        raise ValueError("solution uses an element the scenario does not price")
    return cost_of(x.members, c.costs)


def _extreme(base: np.ndarray, swap: np.ndarray, x: SolutionIndicator) -> Scenario:
    """base with x's members swapped for their swap values, in one indexed store.

    Both arrays are an instance's checked bounds, so the copy is checked
    once, for members the instance does not price.
    """
    costs = np.array(base)
    index = x.index
    try:
        costs[index] = swap[index]
    except IndexError:
        raise ValueError("solution does not fit the instance") from None
    costs.setflags(write=False)
    return Scenario._of_checked(costs)


def penalizing_scenario(instance: IntervalInstance, x: SolutionIndicator) -> Scenario:
    """Extreme scenario that is worst for x: hi on its members, lo elsewhere.

    This scenario attains x's maximum regret.
    """
    return _extreme(instance.lo, instance.hi, x)


def favoring_scenario(instance: IntervalInstance, y: SolutionIndicator) -> Scenario:
    """Extreme scenario that is best for y: lo on its members, hi elsewhere."""
    return _extreme(instance.hi, instance.lo, y)


def midpoint_scenario(instance: IntervalInstance) -> Scenario:
    """Interval midpoints (lo + hi) / 2: the instance's own read-only array."""
    return Scenario._of_checked(instance.mid)
