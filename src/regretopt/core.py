"""Interval cost uncertainty and the regret algebra on top of it.

An uncertain instance assigns every element i of a ground set an interval
[lo_i, hi_i].  A scenario picks one cost per element, a solution picks a
subset of elements, and regret compares a solution against the best
possible one under a given scenario.  Everything downstream (game bounds,
branch and bound) is built from the handful of operations defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Absolute slack when deciding whether a cost sits on an interval endpoint.
EXTREME_TOL = 1e-12

# Mixed strategy weights must sum to one within this slack.
PROB_TOL = 1e-9


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class IntervalInstance:
    """Per-element cost intervals [lo_i, hi_i], immutable after construction."""

    lo: np.ndarray
    hi: np.ndarray
    _width: np.ndarray = field(default=None, init=False, repr=False, compare=False)

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

    def scenario(self, costs) -> "Scenario":
        """Validate costs against the intervals and wrap them."""
        c = np.asarray(costs, dtype=float)
        if c.shape != self.lo.shape:
            raise ValueError("scenario has wrong dimension")
        if (c < self.lo - EXTREME_TOL).any() or (c > self.hi + EXTREME_TOL).any():
            raise ValueError("scenario leaves the cost intervals")
        return Scenario(c)


@dataclass(frozen=True)
class Scenario:
    """One realized cost per element."""

    costs: np.ndarray

    def __post_init__(self):
        c = _frozen_array(self.costs)
        if c.ndim != 1 or not np.isfinite(c).all():
            raise ValueError("scenario costs must be a finite 1-d array")
        object.__setattr__(self, "costs", c)

    @property
    def n(self) -> int:
        return self.costs.size


@dataclass(frozen=True)
class SolutionIndicator:
    """A feasible solution, stored as the set of element indices it uses."""

    members: frozenset[int]

    def __post_init__(self):
        members = frozenset(map(int, self.members))
        if members and min(members) < 0:
            raise ValueError("element indices must be nonnegative")
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, indices: Iterable[int]) -> "SolutionIndicator":
        return cls(frozenset(indices))

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __len__(self) -> int:
        return len(self.members)


def _check_support_probs(support_len: int, probs: np.ndarray) -> np.ndarray:
    if probs.ndim != 1 or probs.size != support_len:
        raise ValueError("one probability per support entry required")
    if support_len == 0:
        raise ValueError("mixed strategy needs a nonempty support")
    if (probs < -EXTREME_TOL).any():
        raise ValueError("probabilities must be nonnegative")
    if abs(float(probs.sum()) - 1.0) > PROB_TOL:
        raise ValueError("probabilities must sum to one")
    return np.clip(probs, 0.0, None)


@dataclass(frozen=True)
class MixedSolution:
    """Probability distribution over finitely many solutions."""

    support: tuple[SolutionIndicator, ...]
    probs: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        probs = _frozen_array(_check_support_probs(len(support), np.asarray(self.probs, dtype=float)))
        if len({x.members for x in support}) != len(support):
            raise ValueError("support solutions must be distinct")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class MixedScenario:
    """Probability distribution over finitely many scenarios."""

    support: tuple[Scenario, ...]
    probs: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        probs = _frozen_array(_check_support_probs(len(support), np.asarray(self.probs, dtype=float)))
        n = support[0].n
        if any(c.n != n for c in support):
            raise ValueError("all support scenarios must share one dimension")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)


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


def opposite(instance: IntervalInstance, c: Scenario) -> Scenario:
    """Flip an extreme scenario endpoint-wise; zero-width entries stay put."""
    costs = np.asarray(c.costs)
    if costs.shape != instance.lo.shape:
        raise ValueError("scenario has wrong dimension")
    at_lo = np.abs(costs - instance.lo) <= EXTREME_TOL
    at_hi = np.abs(costs - instance.hi) <= EXTREME_TOL
    if not (at_lo | at_hi).all():
        raise ValueError("opposite is only defined for extreme scenarios")
    flipped = np.where(at_lo, instance.hi, instance.lo)
    return Scenario(flipped)


def midpoint_scenario(instance: IntervalInstance) -> Scenario:
    """Interval midpoints (lo + hi) / 2."""
    return Scenario((instance.lo + instance.hi) / 2.0)


def mean_scenario(p: MixedScenario) -> Scenario:
    """Probability-weighted average of the support scenarios."""
    acc = np.zeros(p.support[0].n)
    for prob, c in zip(p.probs, p.support):
        acc += prob * c.costs
    return Scenario(acc)


def marginals(p: MixedSolution, n: int) -> np.ndarray:
    """Per-element probability that a solution drawn from p uses the element."""
    t = np.zeros(n)
    for prob, x in zip(p.probs, p.support):
        for i in x.members:
            if i >= n:
                raise ValueError("support solution does not fit the dimension")
            t[i] += prob
    return t


def regret_against(x: SolutionIndicator, y: SolutionIndicator, c: Scenario) -> float:
    """val(x, c) - val(y, c): how much x loses to y under scenario c."""
    return val(x, c) - val(y, c)
