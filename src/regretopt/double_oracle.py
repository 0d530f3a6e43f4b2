"""Incremental game generation for the maximum regret lower bound.

The regret problem is viewed as a zero-sum game between a solution picker
and a scenario picker.  Both strategy sets are huge, so the game is grown
incrementally: solve the restricted game, ask each player's best-response
oracle for a fresh strategy, and stop when neither side can improve.  Every
iteration yields a valid lower bound on the optimal maximum regret, namely
the expected regret of the best response to the current scenario mixture,
so even truncated runs are useful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .core import (
    IntervalInstance,
    Scenario,
    SolutionIndicator,
    favoring_scenario,
    marginals,
    penalizing_scenario,
    val,
)
from .game import Equilibrium, solve_zero_sum

PENALIZING = "penalizing"
FAVORING = "favoring"

# The loop stops once both best responses are within this of the game value.
_CONVERGENCE_TOL = 1e-9


class StandardOracle(Protocol):
    """Minimizer of linear costs over a fixed feasible set of subsets.

    n is the ground set size.  solve must return an optimal solution and
    its value, deterministically for identical inputs; restriction is an
    oracle-specific handle narrowing the feasible set (None means none).
    """

    n: int

    def solve(self, costs, restriction=None) -> tuple[SolutionIndicator, float]: ...


@dataclass(frozen=True)
class ScenarioDescriptor:
    """Compact extreme scenario: a defining solution plus which extreme it gets.

    Penalizing puts the defining solution's elements at hi and the rest at
    lo; favoring does the opposite.  Expansion to a dense cost vector is
    deferred until actually needed.
    """

    defining: SolutionIndicator
    kind: str

    def __post_init__(self):
        if self.kind not in (PENALIZING, FAVORING):
            raise ValueError("kind must be penalizing or favoring")

    def expand(self, instance: IntervalInstance) -> Scenario:
        if self.kind == PENALIZING:
            return penalizing_scenario(instance, self.defining)
        return favoring_scenario(instance, self.defining)


class ScenarioPool:
    """Every scenario generated so far, with its cached unrestricted optimum.

    The optimal value of a scenario does not depend on any branch
    restriction, so one oracle solve per scenario serves the whole search.
    """

    def __init__(self, instance: IntervalInstance, oracle: StandardOracle):
        self.instance = instance
        self.oracle = oracle
        self.descriptors: list[ScenarioDescriptor] = []
        self.opt_values: list[float] = []
        self._index: dict[ScenarioDescriptor, int] = {}

    def __len__(self) -> int:
        return len(self.descriptors)

    def ensure(self, desc: ScenarioDescriptor) -> int:
        """Index of the descriptor, solving for its optimum on first sight."""
        idx = self._index.get(desc)
        if idx is not None:
            return idx
        dense = desc.expand(self.instance)
        _, opt_value = self.oracle.solve(dense.costs, None)
        idx = len(self.descriptors)
        self.descriptors.append(desc)
        self.opt_values.append(float(opt_value))
        self._index[desc] = idx
        return idx


class RestrictedGame:
    """The regret game restricted to finite strategy sets of both players.

    Rows are solutions, columns are scenario descriptors, entries are
    regrets val(x, c) - opt(c), each priced once by _regret from the
    solution's interval sums and one set intersection, never from dense
    cost vectors.  A new game has no rows and one column per scenario the
    pool already holds, in pool order.  add_scenario(desc, column) takes
    the column already priced: the regrets of the current rows against
    desc, as column_values returns them, or an empty list while there are
    no rows.
    """

    def __init__(self, instance: IntervalInstance, pool: ScenarioPool):
        self.instance = instance
        self.pool = pool
        self.solutions: list[SolutionIndicator] = []
        # A pooled descriptor's pool index is its position in pool.descriptors.
        self.scenario_ids: list[int] = list(range(len(pool)))
        self._solution_keys: set[frozenset] = set()
        self._columns: dict[ScenarioDescriptor, int] = {desc: j for j, desc in enumerate(pool.descriptors)}
        self._sums: list[tuple[float, float]] = []
        self._rows: list[list[float]] = []
        # Entries sum a few interval values at a time, read with ndarray.item:
        # Python floats add faster than numpy scalars, to the same sums.
        self._lo = instance.lo.item
        self._hi = instance.hi.item
        self._width = instance.width.item

    @property
    def scenarios(self) -> list[ScenarioDescriptor]:
        return [self.pool.descriptors[i] for i in self.scenario_ids]

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self._rows, dtype=float)

    def has_solution(self, x: SolutionIndicator) -> bool:
        return x.members in self._solution_keys

    def has_scenario(self, desc: ScenarioDescriptor) -> bool:
        return desc in self._columns

    def _interval_sums(self, members: frozenset) -> tuple[float, float]:
        """The solution's cost at all-lo and at all-hi."""
        return float(sum(map(self._lo, members))), float(sum(map(self._hi, members)))

    def _regret(self, members: frozenset, sums: tuple[float, float], pool_idx: int) -> float:
        """Regret of the solution with these members and interval sums against a pooled descriptor."""
        desc = self.pool.descriptors[pool_idx]
        overlap = float(sum(map(self._width, members & desc.defining.members)))
        if desc.kind == PENALIZING:
            value = sums[0] + overlap
        else:
            value = sums[1] - overlap
        return value - self.pool.opt_values[pool_idx]

    def _drawn(self, col_probs) -> list[tuple[float, int]]:
        """(weight, pool index) of every column the mixture draws with nonzero weight."""
        return [(q, pool_idx) for q, pool_idx in zip(col_probs, self.scenario_ids) if q != 0.0]

    def add_solution(self, x: SolutionIndicator) -> None:
        if self.has_solution(x):
            raise ValueError("solution already in the game")
        sums = self._interval_sums(x.members)
        self.solutions.append(x)
        self._solution_keys.add(x.members)
        self._sums.append(sums)
        self._rows.append([self._regret(x.members, sums, idx) for idx in self.scenario_ids])

    def add_scenario(self, desc: ScenarioDescriptor, column: list[float]) -> None:
        if self.has_scenario(desc):
            raise ValueError("scenario already in the game")
        if len(column) != len(self._rows):
            raise ValueError("one regret per solution required")
        pool_idx = self.pool.ensure(desc)
        self._columns[desc] = len(self.scenario_ids)
        self.scenario_ids.append(pool_idx)
        for row, value in zip(self._rows, column):
            row.append(value)

    def column_values(self, desc: ScenarioDescriptor) -> list[float]:
        """Regret of every current solution against one descriptor.

        A column already in the game is read from the stored rows; any
        other descriptor is priced without being committed.
        """
        col = self._columns.get(desc)
        if col is not None:
            return [row[col] for row in self._rows]
        pool_idx = self.pool.ensure(desc)
        return [self._regret(x.members, sums, pool_idx) for x, sums in zip(self.solutions, self._sums)]

    def mixture_costs(self, col_probs) -> np.ndarray:
        """Dense costs of the scenario mixture given by col_probs."""
        factor = np.zeros(self.instance.n)
        for q, pool_idx in self._drawn(col_probs):
            desc = self.pool.descriptors[pool_idx]
            if desc.kind == FAVORING:
                factor += q
                for i in desc.defining.members:
                    factor[i] -= q
            else:
                for i in desc.defining.members:
                    factor[i] += q
        factor = factor.clip(0.0, 1.0)
        return self.instance.lo + self.instance.width * factor

    def expected_regret(self, x: SolutionIndicator, col_probs) -> float:
        """Expected regret of x against the column mixture."""
        sums = self._interval_sums(x.members)
        total = 0.0
        for q, pool_idx in self._drawn(col_probs):
            total += q * self._regret(x.members, sums, pool_idx)
        return total


@dataclass(frozen=True)
class DoubleOracleConfig:
    max_iterations: int = 10_000
    max_support_x: int = 50
    stop_value: float | None = None


@dataclass(frozen=True)
class DoubleOracleResult:
    """Outcome of a generation run.

    trace holds one anytime bound per iteration.  When max_iterations ends
    the run after the game grew, the grown game is solved once more, and
    the bound of the best response to that final equilibrium also counts.
    lower_bound is the best of these bounds; best_response is the solution
    that answers the returned equilibrium's scenario mixture.  converged
    says whether neither player could improve, in which case lower_bound
    is the exact game value up to tolerances.
    """

    lower_bound: float
    equilibrium: Equilibrium
    solutions: tuple[SolutionIndicator, ...]
    scenarios: tuple[ScenarioDescriptor, ...]
    converged: bool
    iterations: int
    trace: tuple[float, ...]
    best_response: SolutionIndicator


def br_c(instance: IntervalInstance, oracle: StandardOracle, row_probs, solutions) -> ScenarioDescriptor:
    """Best scenario against a solution mixture, as a favoring descriptor.

    The mixture draws solutions[k] with probability row_probs[k].  The worst
    mixture-regret scenario is the one favoring the solution that minimizes
    costs lo + width * marginals, where the marginal of element i is the
    probability that a drawn solution uses i.
    """
    costs = instance.lo + instance.width * marginals(row_probs, solutions, instance.n).clip(0.0, 1.0)
    z, _ = oracle.solve(costs, None)
    return ScenarioDescriptor(z, FAVORING)


def max_regret(instance: IntervalInstance, oracle: StandardOracle, x: SolutionIndicator) -> float:
    """Worst-case regret of x, attained at its penalizing scenario."""
    worst = penalizing_scenario(instance, x)
    _, opt_value = oracle.solve(worst.costs, None)
    # Nonnegative by definition; summation-order dust can dip below zero.
    return max(val(x, worst) - float(opt_value), 0.0)


def run_double_oracle(
    instance: IntervalInstance,
    oracle: StandardOracle,
    init_x: Sequence[SolutionIndicator],
    init_c: Sequence[ScenarioDescriptor] = (),
    config: DoubleOracleConfig | None = None,
    restriction=None,
    pool: ScenarioPool | None = None,
) -> DoubleOracleResult:
    """Grow the restricted regret game until both best responses are stale.

    The game's rows start as init_x, a nonempty list of solutions, and its
    columns as the pool's scenarios followed by init_c, a list of
    descriptors; new scenarios are published back to the pool (a fresh
    one by default).  With no pooled scenario and no init_c, the first
    column is init_x[0]'s penalizing scenario, where its regret peaks.
    The restriction only narrows the solution player; scenario best
    responses and scenario optima always search the full problem.
    """
    config = config or DoubleOracleConfig()
    if config.max_iterations < 1:
        raise ValueError("at least one iteration required")
    if not init_x:
        raise ValueError("need at least one initial solution")
    pool = pool if pool is not None else ScenarioPool(instance, oracle)
    game = RestrictedGame(instance, pool)
    if not init_c and not game.scenario_ids:
        init_c = [ScenarioDescriptor(init_x[0], PENALIZING)]
    # Columns go in first, so they enter with no rows to price.
    for desc in init_c:
        if not game.has_scenario(desc):
            game.add_scenario(desc, [])
    for x in init_x:
        if not game.has_solution(x):
            game.add_solution(x)

    def best_response(equilibrium: Equilibrium) -> tuple[SolutionIndicator, float]:
        """The solution player's answer to the column mixture, and the anytime bound it certifies."""
        col_probs = equilibrium.col_probs.tolist()
        x, _ = oracle.solve(game.mixture_costs(col_probs), restriction)
        return x, game.expected_regret(x, col_probs)

    trace: list[float] = []
    best_lb = -np.inf
    converged = False
    iterations = 0
    while iterations < config.max_iterations:
        iterations += 1
        equilibrium = solve_zero_sum(game.matrix)
        x_new, anytime = best_response(equilibrium)
        trace.append(anytime)
        best_lb = max(best_lb, anytime)
        if config.stop_value is not None and best_lb >= config.stop_value:
            break

        c_new = br_c(instance, oracle, equilibrium.row_probs, game.solutions)
        x_present = game.has_solution(x_new)
        c_present = game.has_scenario(c_new)
        if x_present and c_present:
            converged = True
            break
        column = game.column_values(c_new)
        c_value = float(np.dot(equilibrium.row_probs, column))
        if anytime >= equilibrium.value - _CONVERGENCE_TOL and c_value <= equilibrium.value + _CONVERGENCE_TOL:
            converged = True
            break
        grew = False
        # The new column first: add_solution then prices the (x_new, c_new) entry.
        if not c_present:
            game.add_scenario(c_new, column)
            grew = True
        if not x_present and len(game.solutions) < config.max_support_x:
            game.add_solution(x_new)
            grew = True
        if not grew:
            break

    if equilibrium.row_probs.size != len(game.solutions) or equilibrium.col_probs.size != len(game.scenario_ids):
        # The budget ran out right after the game grew: the grown game's
        # equilibrium certifies a bound of its own.
        equilibrium = solve_zero_sum(game.matrix)
        x_new, anytime = best_response(equilibrium)
        best_lb = max(best_lb, anytime)
    return DoubleOracleResult(
        lower_bound=float(best_lb),
        equilibrium=equilibrium,
        solutions=tuple(game.solutions),
        scenarios=tuple(game.scenarios),
        converged=converged,
        iterations=iterations,
        trace=tuple(trace),
        best_response=x_new,
    )
