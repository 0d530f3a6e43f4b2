"""Incremental game generation for the maximum regret lower bound.

The regret problem is viewed as a zero-sum game between a solution picker
and a scenario picker.  Both strategy sets are huge, so the game is grown
incrementally: solve the restricted game, ask each player's best-response
oracle for a fresh strategy, and stop when neither side can improve.  Every
iteration yields a valid lower bound on the optimal maximum regret, namely
the expected regret of the best response to the current scenario mixture,
so even truncated runs are useful.

Each best response is one oracle call at the costs of the other player's
mixture, and mixture_scenario builds both: a solution mixture is read as
the mixture of its solutions' penalizing scenarios.  Every scenario handed
to the oracle, mixture or extreme, names the instance it was built from,
so a shortest-path oracle searches it without checking its costs again.
Every such call is bounded by the cost of a solution already in hand,
which lets the oracle prune.
The scenario player's answer favors a solution that is optimal under it
(see br_c), so its optimum is that solution's own cost, and an iteration
makes no third search.  The ScenarioPool caches every scenario optimum,
so it is also the memo behind max_regret.  A
RestrictedGame owns its columns, one map from descriptor to optimum that
starts as a copy of the scenarios the pool has published.

One regret formula prices entries, expected regrets and max_regret:
val(x, c) - opt(c), with every cost an exactly rounded core.cost_of and
every optimum val of the oracle's solution, so the optimum's regret is 0.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Protocol, Sequence

import numpy as np

from .core import (
    IntervalInstance,
    Scenario,
    SolutionIndicator,
    cost_of,
    favoring_scenario,
    interpolated_scenario,
    penalizing_scenario,
    val,
)
from .game import Equilibrium, solve_zero_sum

PENALIZING = "penalizing"
FAVORING = "favoring"

# The loop stops once both best responses are within this of the game value.
_CONVERGENCE_TOL = 1e-9

# A game adds no solution past this many rows; its scenarios still grow.
_MAX_SOLUTIONS = 50


class StandardOracle(Protocol):
    """Minimizer of linear costs over a fixed feasible set of subsets.

    n is the ground set size.  solve must return an optimal solution and
    its value, deterministically for identical inputs; restriction is an
    oracle-specific handle narrowing the feasible set (None means none).
    costs is one cost per element: an array or sequence, or a Scenario,
    which numpy reads as its costs.  The loop hands every call a Scenario
    of the instance, which an oracle may take as already checked (see
    core.Scenario); the oracle must not write into any costs it is handed.
    bound is the cost under the same costs of a solution the caller holds
    that the restriction admits, so no optimum lies above it; an oracle
    may use it to prune its search, but the answer must not depend on it.
    """

    n: int

    def solve(self, costs, restriction=None, bound: float = math.inf) -> tuple[SolutionIndicator, float]: ...


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
    """Every scenario published so far, with its cached unrestricted optimum.

    The optimal value of a scenario does not depend on any branch
    restriction, so one oracle solve per scenario serves the whole search.
    published maps each published descriptor to its optimum, and costs to
    its dense costs (an array('d')), both in publishing order.  optimum
    solves a scenario without publishing it, so pricing a regret adds no
    column to later games; ensure publishes, reusing that solve (or, for a
    br_c answer, skipping it), and expands each descriptor once for both
    its optimum and its dense costs.
    """

    def __init__(self, instance: IntervalInstance, oracle: StandardOracle):
        self.instance = instance
        self.oracle = oracle
        self.published: dict[ScenarioDescriptor, float] = {}
        self.costs: dict[ScenarioDescriptor, array] = {}
        self._optima: dict[ScenarioDescriptor, float] = {}

    def __len__(self) -> int:
        return len(self.published)

    def optimum(self, desc: ScenarioDescriptor, scenario: Scenario | None = None) -> float:
        """The descriptor's unrestricted optimal value: val of the oracle's solution, solved on first sight.

        The search is bounded by the defining solution's own cost under the
        scenario: hi on its members for a penalizing one, lo for a favoring one.
        scenario, when given, is desc already expanded.
        """
        value = self._optima.get(desc)
        if value is None:
            if scenario is None:
                scenario = desc.expand(self.instance)
            z, _ = self.oracle.solve(scenario, None, val(desc.defining, scenario))
            value = self._optima[desc] = val(z, scenario)
        return value

    def ensure(self, desc: ScenarioDescriptor, *, defining_optimal: bool = False) -> float:
        """The descriptor's optimum, publishing it and its dense costs on first sight.

        defining_optimal says the defining solution is an optimum of its own
        scenario, as every br_c answer's is (see br_c); then the optimum is
        its own cost, lo(z) for a favoring descriptor of z, and no search
        runs.  In floating point that cost, exactly rounded, is never below
        the true optimum, since it prices a feasible solution; so regrets
        priced with it never exceed the true ones, and every bound priced
        with them stays a valid lower bound.  Only run_double_oracle sets
        it, for br_c's answers: a favoring descriptor built any other way is
        searched, since its own solution is not its optimum in general.
        """
        value = self.published.get(desc)
        if value is None:
            scenario = desc.expand(self.instance)
            if defining_optimal:
                value = self._optima.setdefault(desc, val(desc.defining, scenario))
            else:
                value = self.optimum(desc, scenario)
            self.published[desc] = value
            self.costs[desc] = array("d", scenario.costs.tobytes())
        return value


class RestrictedGame:
    """The regret game restricted to finite strategy sets of both players.

    Rows are solutions, columns are scenario descriptors, entries are
    regrets val(x, c) - opt(c), each priced from the column's dense costs.
    The game owns its columns, a map from descriptor to optimum and the
    costs alongside; a new game has no rows and a copy of the pool's
    published columns, which later publishing leaves alone.  Each entry
    is priced once.  add_scenario(desc, column) takes the column already
    priced: the regrets of the current rows against desc, as column_values
    returns them, or an empty list while there are no rows.
    add_solution(x, row) takes x's regrets against the first len(row)
    columns, as run_double_oracle priced them for its expected regret, and
    prices only the columns added since; by default it prices them all.
    """

    def __init__(self, instance: IntervalInstance, pool: ScenarioPool):
        self.instance = instance
        self.pool = pool
        self.solutions: list[SolutionIndicator] = []
        self._columns: dict[ScenarioDescriptor, float] = dict(pool.published)
        self._costs: list[array] = list(pool.costs.values())
        self._rows: list[list[float]] = []
        # Each solution's member set maps to its row in _rows.
        self._row_of: dict[frozenset, list[float]] = {}

    @property
    def scenarios(self) -> list[ScenarioDescriptor]:
        return list(self._columns)

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self._rows, dtype=float)

    def has_solution(self, x: SolutionIndicator) -> bool:
        return x.members in self._row_of

    def has_scenario(self, desc: ScenarioDescriptor) -> bool:
        return desc in self._columns

    def add_solution(self, x: SolutionIndicator, row: Sequence[float] = ()) -> None:
        if self.has_solution(x):
            raise ValueError("solution already in the game")
        if len(row) > len(self._costs):
            raise ValueError("more regrets than columns")
        row = list(row) + self._regrets(x, len(row))
        self.solutions.append(x)
        self._rows.append(row)
        self._row_of[x.members] = row

    def add_scenario(self, desc: ScenarioDescriptor, column: list[float]) -> None:
        if self.has_scenario(desc):
            raise ValueError("scenario already in the game")
        if len(column) != len(self._rows):
            raise ValueError("one regret per solution required")
        self._columns[desc] = self.pool.ensure(desc)
        self._costs.append(self.pool.costs[desc])
        for row, value in zip(self._rows, column):
            row.append(value)

    def column_values(self, desc: ScenarioDescriptor) -> list[float]:
        """Regret of every current solution against one descriptor.

        A descriptor the pool has not published is published for its
        optimum but not added to the game.  Every column of the game is
        published, with the optimum the game holds.
        """
        opt = self.pool.published.get(desc)
        if opt is None:
            opt = self.pool.ensure(desc)
        costs = self.pool.costs[desc]
        return [cost_of(x.members, costs) - opt for x in self.solutions]

    def _regrets(self, x: SolutionIndicator, start: int = 0) -> list[float]:
        """Regret of x against each current column from index start on."""
        priced = islice(zip(self._costs, self._columns.values()), start, None)
        return [cost_of(x.members, costs) - opt for costs, opt in priced]

    def _row_values(self, x: SolutionIndicator) -> list[float]:
        """Regret of x against every current column: for a solution in the game its own row, read-only."""
        row = self._row_of.get(x.members)
        return self._regrets(x) if row is None else row

    def mixture_scenario(self, col_probs) -> Scenario:
        """The scenario mixture given by col_probs, a scenario of the instance."""
        return mixture_scenario(self.instance, [(q, desc) for q, desc in zip(col_probs, self._columns) if q != 0.0])

    def expected_regret(self, row: Sequence[float], col_probs) -> float:
        """Expected regret of a solution against the column mixture, given its row of regrets.

        The regrets are weighed and summed column by column, skipping
        columns of probability zero.
        """
        total = 0.0
        for q, regret in zip(col_probs, row):
            if q != 0.0:
                total += q * regret
        return total


@dataclass(frozen=True)
class DoubleOracleConfig:
    max_iterations: int = 10_000
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


def mixture_scenario(instance: IntervalInstance, weighted) -> Scenario:
    """A scenario mixture as a scenario of the instance: lo + width * clip(factor, 0, 1).

    weighted holds (weight, descriptor) pairs; factor[i] is the total
    weight of the drawn scenarios that put element i at hi, summed pair by
    pair in the given order.  Each pair adds its weight to its members in
    one indexed step (a favoring one adds it everywhere, then takes it off
    its members), so every element sees the additions of a loop over the
    members, in the same order.  core.interpolated_scenario builds the
    costs, which lie at or above lo whatever the weights.  Raises
    ValueError for a weight that is not finite, or for a descriptor whose
    solution does not fit the instance.
    """
    factor = np.zeros(instance.n)
    try:
        for q, desc in weighted:
            if not math.isfinite(q):
                raise ValueError("mixture weights must be finite")
            index = desc.defining.index
            if desc.kind == FAVORING:
                factor += q
                factor[index] -= q
            else:
                factor[index] += q
    except IndexError:
        raise ValueError("solution does not fit the instance") from None
    return interpolated_scenario(instance, factor)


def _least_cost(scenario: Scenario, solutions) -> float:
    """The least cost of the given solutions under the scenario, read in place; inf when there are none."""
    values = memoryview(scenario.costs)
    return min((cost_of(x.members, values) for x in solutions), default=math.inf)


def br_c(instance: IntervalInstance, oracle: StandardOracle, row_probs, solutions) -> ScenarioDescriptor:
    """Best scenario against a solution mixture, as a favoring descriptor.

    The mixture draws solutions[k] with probability row_probs[k]; lengths
    must match.  The worst mixture-regret scenario favors the solution
    that is cheapest under the mixture of the drawn solutions' penalizing
    scenarios, whose cost of element i is lo + width * (the probability
    that a drawn solution uses i).  Rows of probability zero add nothing to
    that mixture and are left out of it; every solution is feasible, so the
    least of all their costs under it bounds the search.

    The favored solution z is also an optimum of its own scenario fav(z).
    With m the drawn solutions' marginals, the scenario player maximizes
    sum_e c_e * (m_e - [e in y]) over scenarios c and solutions y: for each
    y the best c is fav(y), and the best y is then z, so (fav(z), z)
    attains the maximum.  No (fav(z), y) scores more, so fav(z)(y) >=
    fav(z)(z) for every feasible y.  run_double_oracle therefore publishes
    the answer with its own cost as the optimum, unsearched
    (ScenarioPool.ensure(..., defining_optimal=True)).
    """
    drawn = [(q, ScenarioDescriptor(x, PENALIZING)) for q, x in zip(row_probs, solutions, strict=True) if q != 0.0]
    scenario = mixture_scenario(instance, drawn)
    z, _ = oracle.solve(scenario, None, _least_cost(scenario, solutions))
    return ScenarioDescriptor(z, FAVORING)


def max_regret(instance: IntervalInstance, oracle: StandardOracle, x: SolutionIndicator, pool: ScenarioPool | None = None) -> float:
    """Worst-case regret of x, attained at its penalizing scenario.

    That is val(x, c) - opt(c), x's cost at hi less the optimum of x's
    penalizing scenario c, which the pool (a fresh one by default) solves
    on first sight and does not publish.
    """
    pool = pool if pool is not None else ScenarioPool(instance, oracle)
    opt_value = pool.optimum(ScenarioDescriptor(x, PENALIZING))
    # Nonnegative by definition; the oracle ranks paths by its own rounded labels, so x can price an ulp below.
    return max(cost_of(x.members, instance.hi) - opt_value, 0.0)


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
    columns as the pool's published scenarios followed by init_c, a list
    of descriptors; new scenarios are published back to the pool (a fresh
    one by default).  With no pooled scenario and no init_c, the first
    column is init_x[0]'s penalizing scenario, where its regret peaks.
    The restriction only narrows the solution player; scenario best
    responses and scenario optima always search the full problem.

    An iteration makes two oracle calls, one best response per player.
    Each br_c answer favors a solution that is optimal under it (see
    br_c), so its optimum is that solution's own cost and needs no search.
    Each solution best response is bounded by the least cost of the game's
    rows under the column mixture q, read off the game matrix A as
    min(A @ q) + q @ opt: a row's entries are its costs less the column
    optima, and the mixture's costs are sum_j q_j * c_j.  Rows that break
    the restriction can make that bound too low, which costs the oracle a
    second search but never changes an answer.  The best response's row of
    regrets is priced once: its expected regret weighs it, and the game
    takes it as its new row, priced only against the column added since.
    """
    config = config or DoubleOracleConfig()
    if config.max_iterations < 1:
        raise ValueError("at least one iteration required")
    if not init_x:
        raise ValueError("need at least one initial solution")
    pool = pool if pool is not None else ScenarioPool(instance, oracle)
    game = RestrictedGame(instance, pool)
    if not init_c and not game.scenarios:
        init_c = [ScenarioDescriptor(init_x[0], PENALIZING)]
    # Columns go in first, so they enter with no rows to price.
    for desc in init_c:
        if not game.has_scenario(desc):
            game.add_scenario(desc, [])
    for x in init_x:
        if not game.has_solution(x):
            game.add_solution(x)

    def best_response(matrix: np.ndarray, equilibrium: Equilibrium) -> tuple[SolutionIndicator, list[float], float]:
        """The solution player's answer to the column mixture, its row of regrets, and the anytime bound it certifies."""
        q = equilibrium.col_probs
        col_probs = q.tolist()
        bound = float((matrix @ q).min() + q @ np.fromiter(game._columns.values(), float, q.size))
        x, _ = oracle.solve(game.mixture_scenario(col_probs), restriction, bound)
        row = game._row_values(x)
        return x, row, game.expected_regret(row, col_probs)

    trace: list[float] = []
    best_lb = -np.inf
    converged = False
    iterations = 0
    while iterations < config.max_iterations:
        iterations += 1
        matrix = game.matrix
        equilibrium = solve_zero_sum(matrix)
        x_new, row, anytime = best_response(matrix, equilibrium)
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
        if not c_present:
            pool.ensure(c_new, defining_optimal=True)
        column = game.column_values(c_new)
        c_value = float(np.dot(equilibrium.row_probs, column))
        if anytime >= equilibrium.value - _CONVERGENCE_TOL and c_value <= equilibrium.value + _CONVERGENCE_TOL:
            converged = True
            break
        grew = False
        # The new column first: add_solution then prices the (x_new, c_new) entry alone.
        if not c_present:
            game.add_scenario(c_new, column)
            grew = True
        if not x_present and len(game.solutions) < _MAX_SOLUTIONS:
            game.add_solution(x_new, row)
            grew = True
        if not grew:
            break

    if equilibrium.row_probs.size != len(game.solutions) or equilibrium.col_probs.size != len(game.scenarios):
        # The budget ran out right after the game grew: the grown game's
        # equilibrium certifies a bound of its own.
        matrix = game.matrix
        equilibrium = solve_zero_sum(matrix)
        x_new, _, anytime = best_response(matrix, equilibrium)
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
