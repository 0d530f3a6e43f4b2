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

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Protocol, Sequence, runtime_checkable

import numpy as np

from .core import (
    IntervalInstance,
    MixedScenario,
    Scenario,
    SolutionIndicator,
    favoring_scenario,
    mean_scenario,
    penalizing_scenario,
    val,
)
from .game import Equilibrium, solve_zero_sum

PENALIZING = "penalizing"
FAVORING = "favoring"


class NoFeasibleSolution(Exception):
    """The oracle's feasible set is empty under the given restriction."""


@runtime_checkable
class StandardOracle(Protocol):
    """Minimizer of linear costs over a fixed feasible set of subsets.

    n is the ground set size.  solve must return an optimal solution and
    its value, deterministically for identical inputs; restriction is an
    oracle-specific handle narrowing the feasible set (None means none).
    """

    n: int

    def solve(self, costs, restriction=None) -> tuple[SolutionIndicator, float]: ...


class EnumeratedOracle:
    """Oracle over an explicitly listed feasible set; ties keep the first listing."""

    def __init__(self, n: int, solutions: Iterable):
        self.n = int(n)
        normalized = []
        for x in solutions:
            if not isinstance(x, SolutionIndicator):
                x = SolutionIndicator.of(x)
            normalized.append(x)
        if not normalized:
            raise ValueError("oracle needs at least one feasible solution")
        self.solutions = tuple(normalized)

    def solve(self, costs, restriction=None) -> tuple[SolutionIndicator, float]:
        c = np.asarray(costs, dtype=float)
        if c.shape != (self.n,):
            raise ValueError("one cost per element required")
        best = None
        best_value = np.inf
        for x in self.solutions:
            if restriction is not None and not restriction(x):
                continue
            value = float(sum(c[i] for i in x.members))
            if value < best_value:
                best, best_value = x, value
        if best is None:
            raise NoFeasibleSolution("restriction rejects every listed solution")
        return best, best_value


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
    regrets val(x, c) - opt(c).  Entries against compact descriptors are
    computed from interval sums and one set intersection, never from dense
    cost vectors.
    """

    def __init__(self, instance: IntervalInstance, pool: ScenarioPool):
        self.instance = instance
        self.pool = pool
        self.solutions: list[SolutionIndicator] = []
        self.scenario_ids: list[int] = []
        self._solution_keys: set[frozenset] = set()
        self._scenario_keys: set[ScenarioDescriptor] = set()
        self._lo_sums: list[float] = []
        self._hi_sums: list[float] = []
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
        return desc in self._scenario_keys

    def _entry(self, row: int, pool_idx: int) -> float:
        desc = self.pool.descriptors[pool_idx]
        x = self.solutions[row]
        shared = x.members & desc.defining.members
        overlap = float(sum(map(self._width, shared)))
        if desc.kind == PENALIZING:
            value = self._lo_sums[row] + overlap
        else:
            value = self._hi_sums[row] - overlap
        return value - self.pool.opt_values[pool_idx]

    def add_solution(self, x: SolutionIndicator) -> None:
        if self.has_solution(x):
            raise ValueError("solution already in the game")
        self.solutions.append(x)
        self._solution_keys.add(x.members)
        self._lo_sums.append(float(sum(map(self._lo, x.members))))
        self._hi_sums.append(float(sum(map(self._hi, x.members))))
        row = len(self.solutions) - 1
        self._rows.append([self._entry(row, idx) for idx in self.scenario_ids])

    def add_scenario(self, desc: ScenarioDescriptor) -> None:
        if self.has_scenario(desc):
            raise ValueError("scenario already in the game")
        pool_idx = self.pool.ensure(desc)
        self.scenario_ids.append(pool_idx)
        self._scenario_keys.add(desc)
        for row in range(len(self.solutions)):
            self._rows[row].append(self._entry(row, pool_idx))

    def column_values(self, desc: ScenarioDescriptor) -> np.ndarray:
        """Regret of every current solution against one descriptor."""
        pool_idx = self.pool.ensure(desc)
        return np.array([self._entry(row, pool_idx) for row in range(len(self.solutions))])

    def mixture_costs(self, col_probs) -> np.ndarray:
        """Dense costs of the scenario mixture given by col_probs."""
        factor = np.zeros(self.instance.n)
        for q, pool_idx in zip(col_probs, self.scenario_ids):
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

    def response_costs(self, row_probs) -> np.ndarray:
        """Costs lo + width * marginals; minimizing them is the scenario player's cue."""
        t = np.zeros(self.instance.n)
        for p, x in zip(row_probs, self.solutions):
            for i in x.members:
                t[i] += p
        t = t.clip(0.0, 1.0)
        return self.instance.lo + self.instance.width * t

    def expected_regret(self, x: SolutionIndicator, col_probs) -> float:
        """Expected regret of x against the column mixture."""
        lo_sum = float(sum(map(self._lo, x.members)))
        hi_sum = float(sum(map(self._hi, x.members)))
        total = 0.0
        for q, pool_idx in zip(col_probs, self.scenario_ids):
            if q == 0.0:
                continue
            desc = self.pool.descriptors[pool_idx]
            shared = x.members & desc.defining.members
            overlap = float(sum(map(self._width, shared)))
            if desc.kind == PENALIZING:
                value = lo_sum + overlap
            else:
                value = hi_sum - overlap
            total += q * (value - self.pool.opt_values[pool_idx])
        return total


@dataclass(frozen=True)
class DoubleOracleConfig:
    max_iterations: int = 10_000
    max_support_x: int = 50
    tolerance: float = 1e-9
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


class _RowMixture(NamedTuple):
    """The solution player's mixture in the shape br_c reads: probs over support."""

    probs: np.ndarray
    support: tuple[SolutionIndicator, ...]


def _as_solutions(init_x) -> list[SolutionIndicator]:
    if isinstance(init_x, SolutionIndicator):
        return [init_x]
    return list(init_x)


def _as_descriptors(init_c) -> list[ScenarioDescriptor]:
    if isinstance(init_c, ScenarioDescriptor):
        return [init_c]
    return list(init_c) if init_c is not None else []


def br_x(
    instance: IntervalInstance,
    oracle: StandardOracle,
    p: MixedScenario,
    restriction=None,
    opt_values: Sequence[float] | None = None,
) -> tuple[SolutionIndicator, float]:
    """Best solution against a scenario mixture and its expected regret.

    Expected regret is linear in the scenario, so the best response is the
    oracle's optimum under the mixture's mean costs.
    """
    x, _ = oracle.solve(mean_scenario(p).costs, restriction)
    if opt_values is None:
        opt_values = [oracle.solve(c.costs, None)[1] for c in p.support]
    regret = 0.0
    for prob, c, opt_value in zip(p.probs, p.support, opt_values):
        regret += prob * (val(x, c) - opt_value)
    return x, float(regret)


def br_c(instance: IntervalInstance, oracle: StandardOracle, p) -> ScenarioDescriptor:
    """Best scenario against a solution mixture, as a favoring descriptor.

    The worst mixture-regret scenario is the one favoring the solution that
    minimizes costs lo + width * marginals, where the marginal of element i
    is the probability that a drawn solution uses i.
    """
    n = instance.n
    t = np.zeros(n)
    for prob, x in zip(p.probs, p.support):
        for i in x.members:
            if i >= n:
                raise ValueError("support solution does not fit the instance")
            t[i] += prob
    costs = instance.lo + instance.width * t.clip(0.0, 1.0)
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
    init_x,
    init_c,
    config: DoubleOracleConfig | None = None,
    restriction=None,
    pool: ScenarioPool | None = None,
) -> DoubleOracleResult:
    """Grow the restricted regret game until both best responses are stale.

    init_x and init_c may be single strategies or sequences (warm starts).
    When a pool is supplied, every scenario it already holds joins the
    initial column set, and newly generated scenarios are published back
    to it.  The restriction only narrows the solution player; scenario
    best responses and scenario optima always search the full problem.
    """
    config = config or DoubleOracleConfig()
    if config.max_iterations < 1:
        raise ValueError("at least one iteration required")
    pool = pool if pool is not None else ScenarioPool(instance, oracle)
    game = RestrictedGame(instance, pool)
    for desc in pool.descriptors:
        game.add_scenario(desc)
    for desc in _as_descriptors(init_c):
        if not game.has_scenario(desc):
            game.add_scenario(desc)
    for x in _as_solutions(init_x):
        if not game.has_solution(x):
            game.add_solution(x)
    if not game.solutions or not game.scenario_ids:
        raise ValueError("need at least one initial solution and scenario")

    trace: list[float] = []
    best_lb = -np.inf
    converged = False
    iterations = 0
    while iterations < config.max_iterations:
        iterations += 1
        equilibrium = solve_zero_sum(game.matrix)

        col_probs = equilibrium.col_probs.tolist()
        x_new, _ = oracle.solve(game.mixture_costs(col_probs), restriction)
        last_response = x_new
        anytime = game.expected_regret(x_new, col_probs)
        trace.append(anytime)
        best_lb = max(best_lb, anytime)
        if config.stop_value is not None and best_lb >= config.stop_value:
            break

        c_new = br_c(instance, oracle, _RowMixture(equilibrium.row_probs, tuple(game.solutions)))
        x_present = game.has_solution(x_new)
        c_present = game.has_scenario(c_new)
        if x_present and c_present:
            converged = True
            break
        if not c_present:
            column = game.column_values(c_new)
            c_value = float(np.dot(equilibrium.row_probs, column))
        else:
            idx = game.scenario_ids.index(pool.ensure(c_new))
            c_value = float(np.dot(equilibrium.row_probs, game.matrix[:, idx]))
        if anytime >= equilibrium.value - config.tolerance and c_value <= equilibrium.value + config.tolerance:
            converged = True
            break
        grew = False
        if not x_present and len(game.solutions) < config.max_support_x:
            game.add_solution(x_new)
            grew = True
        if not c_present:
            game.add_scenario(c_new)
            grew = True
        if not grew:
            break

    if equilibrium.row_probs.size != len(game.solutions) or equilibrium.col_probs.size != len(game.scenario_ids):
        # The budget ran out right after the game grew: the grown game's
        # equilibrium certifies a bound of its own.
        equilibrium = solve_zero_sum(game.matrix)
        last_response, _ = oracle.solve(game.mixture_costs(equilibrium.col_probs), restriction)
        best_lb = max(best_lb, game.expected_regret(last_response, equilibrium.col_probs))
    return DoubleOracleResult(
        lower_bound=float(best_lb),
        equilibrium=equilibrium,
        solutions=tuple(game.solutions),
        scenarios=tuple(game.scenarios),
        converged=converged,
        iterations=iterations,
        trace=tuple(trace),
        best_response=last_response,
    )


def lb_star_n(
    instance: IntervalInstance,
    oracle: StandardOracle,
    init_x,
    init_c,
    n: int,
    restriction=None,
    pool: ScenarioPool | None = None,
    max_support_x: int = 50,
) -> float:
    """Best anytime lower bound over the first n generation iterations."""
    config = DoubleOracleConfig(max_iterations=n, max_support_x=max_support_x)
    result = run_double_oracle(instance, oracle, init_x, init_c, config, restriction, pool)
    return result.lower_bound


def min_sol(
    instance: IntervalInstance,
    oracle: StandardOracle,
    solutions: Iterable[SolutionIndicator],
    x_mid: SolutionIndicator,
) -> tuple[SolutionIndicator, float]:
    """Smallest max-regret solution among the generated ones and the midpoint one."""
    best = x_mid
    best_regret = max_regret(instance, oracle, x_mid)
    seen = {x_mid.members}
    for x in solutions:
        if x.members in seen:
            continue
        seen.add(x.members)
        regret = max_regret(instance, oracle, x)
        if regret < best_regret:
            best, best_regret = x, regret
    return best, best_regret
