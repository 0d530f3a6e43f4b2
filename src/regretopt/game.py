"""Exact mixed equilibria of finite zero-sum matrix games.

The row player minimizes and the column player maximizes; entry (i, j) is
the payoff the row player hands to the column player.  The game value is
found with a dense tableau simplex on the classical formulation: shift the
matrix positive, then

    max 1'u  subject to  A'u <= 1, u >= 0

over the shifted, transposed matrix.  The optimal u rescales to the row
strategy, the duals on the slack columns rescale to the column strategy,
and 1/(sum u) recovers the shifted value.  No external solver is involved.
Small games pivot on Python lists; larger ones update the whole 2-d
tableau with one broadcast outer product per pivot, to the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Certified equilibria may leave either player this much room to improve.
CERT_TOL = 1e-7

_PIVOT_TOL = 1e-9
_REDUCED_COST_TOL = 1e-10


class SolverFailure(Exception):
    """The simplex could not produce a certified equilibrium."""


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """Optimal mixed strategies and the game value they guarantee; equal and hashed by identity."""

    row_probs: np.ndarray
    col_probs: np.ndarray
    value: float


def _as_matrix(matrix) -> tuple[np.ndarray, float, float]:
    """The matrix as a float array, and its smallest and largest entries."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("game matrix must be 2-d and nonempty")
    # NaN spreads to both, so these two catch every non-finite entry.
    low, high = float(a.min()), float(a.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("game matrix entries must be finite")
    return a, low, high


# Games with at most this many strategies (rows plus columns) pivot on
# Python lists, larger ones on one 2-d array.  Timed per solve on random
# regret games of every shape (one zero per column), lists win up to 9
# strategies (19 against 28 us at 2), the two break even at 10 (52 us), and
# the array wins from 11 on (85 against 150 us at 21, 186 against 692 at 38).
_LIST_PIVOT_MAX_STRATEGIES = 10


def _entering_column(costs: list[float], it: int, bland_after: int) -> int:
    """Dantzig pricing with lowest-index ties, Bland's rule past the budget; -1 at the optimum."""
    if it < bland_after:
        low = min(costs)
        return costs.index(low) if low < -_REDUCED_COST_TOL else -1
    return next((j for j, v in enumerate(costs) if v < -_REDUCED_COST_TOL), -1)


def _leaving_row(column: list[float], rhs: list[float], basis: list[int]) -> int:
    """Ratio test; near ties go to the lowest basis index, which keeps Bland's rule safe."""
    ratios = [(rhs[r] / v, r) for r, v in enumerate(column) if v > _PIVOT_TOL]
    if not ratios:
        raise SolverFailure("LP relaxation is unbounded; matrix data is unusable")
    best = min(ratios)[0]
    cutoff = best + _PIVOT_TOL * (1.0 + abs(best))
    row = min([(basis[r], r) for ratio, r in ratios if ratio <= cutoff])[1]
    pivot = column[row]
    if not math.isfinite(pivot) or abs(pivot) < _PIVOT_TOL:
        raise SolverFailure("numerically singular pivot")
    return row


def _simplex(tableau: list | np.ndarray, basis: list[int], num_cols: int) -> None:
    """Maximize in place; raises SolverFailure instead of looping or dividing blindly.

    tableau is a list of rows of floats or one 2-d array, objective row
    last; pricing and the ratio test read lists either way.  Each pivot
    divides the pivot row by the pivot, then subtracts factor * pivot row
    from every other row.  Lists do it row by row and skip a zero factor.
    The array does it as one outer-product update, the pivot column
    broadcast against the pivot row, then writes the pivot row back; there
    a zero factor subtracts a zero, which changes no entry but a negative
    zero, and only underflow makes one.  So both forms see the same float
    operations and pivot to bit-identical tableaus.
    """
    obj = len(tableau) - 1
    lists = isinstance(tableau, list)
    if not lists:
        # Views: the pivots below update the tableau in place.
        objective, rhs = tableau[obj, :num_cols], tableau[:obj, -1]
    bland_after = 100 + 20 * num_cols
    max_iters = 1000 + 200 * num_cols
    for it in range(max_iters):
        costs = tableau[obj][:num_cols] if lists else objective.tolist()
        col = _entering_column(costs, it, bland_after)
        if col < 0:
            return
        if lists:
            constraints = tableau[:obj]
            row = _leaving_row([t[col] for t in constraints], [t[-1] for t in constraints], basis)
            pivot = tableau[row][col]
            prow = tableau[row] = [x / pivot for x in tableau[row]]
            for r, t in enumerate(tableau):
                f = t[col]
                if f != 0.0 and r != row:
                    tableau[r] = [x - f * y for x, y in zip(t, prow)]
        else:
            row = _leaving_row(tableau[:obj, col].tolist(), rhs.tolist(), basis)
            prow = tableau[row] / tableau[row, col]
            tableau -= tableau[:, col][:, None] * prow
            tableau[row] = prow
        basis[row] = col
    raise SolverFailure("simplex iteration budget exhausted")


def _solve_shifted(a: np.ndarray, shift: float, divisor: float) -> Equilibrium:
    """Run the simplex on (a - shift) / divisor and map the optimum back to a.

    The entries of a - shift are at least 1, so the game value is
    positive.  Dividing by a power of two is exact, so divisor changes only
    what the simplex's absolute tolerances see.
    """
    # max 1'u  s.t.  positive' u <= 1, u >= 0, where positive = (a - shift) / divisor
    k, l = a.shape
    num_cols = k + l
    basis = list(range(k, num_cols))
    if num_cols <= _LIST_PIVOT_MAX_STRATEGIES:
        rows = []
        for j, column in enumerate(a.T.tolist()):
            slack = [0.0] * (l + 1)
            slack[j] = slack[l] = 1.0
            rows.append([(v - shift) / divisor for v in column] + slack)
        rows.append([-1.0] * k + [0.0] * (l + 1))
    else:
        rows = np.zeros((l + 1, num_cols + 1))
        np.subtract(a.T, shift, out=rows[:l, :k])
        rows[:l, :k] /= divisor
        rows[:l, k:num_cols] = np.eye(l)
        rows[:l, -1] = 1.0
        rows[l, :k] = -1.0
    _simplex(rows, basis, num_cols)
    if isinstance(rows, list):
        rhs, duals = [t[-1] for t in rows], rows[l][k:num_cols]
    else:
        rhs, duals = rows[:, -1].tolist(), rows[l, k:num_cols].tolist()

    scale = rhs[l]
    if scale <= 0.0:
        raise SolverFailure("degenerate optimum with nonpositive objective")
    u = [0.0] * k
    for r, b in enumerate(basis):
        if b < k:
            u[b] = rhs[r]

    row_probs = np.array([max(v / scale, 0.0) for v in u])
    col_probs = np.array([max(v / scale, 0.0) for v in duals])
    row_probs = row_probs / np.add.reduce(row_probs)
    col_probs = col_probs / np.add.reduce(col_probs)
    return Equilibrium(row_probs=row_probs, col_probs=col_probs, value=divisor / scale + shift)


def _certificate_error(a: np.ndarray, eq: Equilibrium) -> str | None:
    """Why eq is not an equilibrium of a within CERT_TOL, or None when it is."""
    col_response = max((eq.row_probs @ a).tolist())
    row_response = min((a @ eq.col_probs).tolist())
    if col_response > eq.value + CERT_TOL or row_response < eq.value - CERT_TOL:
        return (
            "equilibrium certificates violated: value %.12g, best column response %.12g, "
            "best row response %.12g" % (eq.value, col_response, row_response)
        )
    return None


def solve_zero_sum(matrix) -> Equilibrium:
    """Solve the matrix game exactly and certify the result.

    The simplex stops on absolute tolerances in the shifted reciprocal LP,
    which wide payoff ranges can defeat; a first solve that raises or fails
    its certificate is rerun with the payoffs divided by the power of two
    at or above their span.  Raises SolverFailure rather than returning
    strategies that fail the equilibrium certificates.
    """
    a, low, high = _as_matrix(matrix)
    shift = low - 1.0
    for divisor in (1.0, math.ldexp(1.0, math.frexp(high - low)[1])):
        try:
            eq = _solve_shifted(a, shift, divisor)
            error = _certificate_error(a, eq)
        except SolverFailure as failure:
            error = str(failure)
        if error is None:
            return eq
    raise SolverFailure(error)
