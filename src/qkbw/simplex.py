"""Exact linear programming and linear algebra over the rationals.

Everything here runs on one fraction-free integer pivot kernel (Edmonds
1967; Bareiss 1968, Math. Comp. 22).  A tableau is a list of integer rows
with one common denominator d > 0, so that the rational tableau is rows / d.
A pivot at (r, c) with p = rows[r][c] replaces every other row by
(p * row - row[c] * rows[r]) // d and then sets d = p; the division is exact
because every entry is, up to sign, a minor of the starting integer matrix
and d is the determinant of the current basis.  When p < 0 every row is
negated so that d stays positive.  Python integers never lose precision, and
no gcd is taken until a result is turned back into a ``Fraction``.

Every solver turns its rows of ints and Fractions into int rows by one rule,
_integer_rows: all rows times one common lcm L of their denominators, or the
rows as they are when every entry is an int (L = 1).  Scaling every row by
one positive number changes no rank, no solution and no Bland pivot.  Rows
of unequal length, or a rhs of another length than the rows, raise
ValueError.

The LP solver is a dense two-phase tableau simplex with Bland's anti-cycling
rule over the tableau [A | I | b], the artificial columns kept as the
identity.  L leaves each pivot choice exactly as on the rational tableau: it
multiplies every artificial variable, and so the phase-1 objective, by the
same L > 0, which keeps the sign of every reduced cost, and it leaves every
ratio-test quotient in the same units.  (Scaling each row by its own factor
would weight the artificials unevenly and could change the entering
column.)  No objective row is carried: each iteration prices the nonbasic
columns in index order, in one plain loop, as d times the reduced cost,
c_j * d - sum c_B * rows[i][j], and stops at the first positive one, which
is the column Bland's rule enters; the ratio test cross-multiplies.  The
costs are the objective times a positive lcm, cost_scale, or the objective
itself (cost_scale = 1) when every entry is an int, a bool not counted.  So
the pivot sequence, and the returned optimum, match a ``Fraction`` tableau
pivot for pivot; the optimum, summed as x is built, is one Fraction: the
basic integer costs times the final right-hand side over cost_scale * d.
x holds a Fraction only for a nonzero basic value (one shared zero else).

Phase 1 and the drive-out of the artificials read the constraint rows and
the rhs, never the objective.  So rows handed in as a _KeptRows keep, per
rhs, the start they leave: the tableau over the structural columns, its d
and its basis, or the LPInfeasibleError phase 1 raised.  The first call with
an rhs pivots as a plain call does; every later call with that rhs, under
any objective of the rows' width, runs phase 2 alone, on a copy of the kept
start, and so pivots as the phase 2 of a plain call.  Any other rows run
both phases on every call.

exact_rank and solve_linear_system share one forward elimination with the
same kernel, _eliminate: each pivot runs on the rows not yet pivoted, so no
row above a pivot is reduced.  The rank is the number of pivots; a
determined solve back-substitutes in integers through the pivot rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .rationals import scaled

__all__ = [
    "LPUnboundedError",
    "LPInfeasibleError",
    "simplex_maximize",
    "exact_rank",
    "solve_linear_system",
]


_ZERO = Fraction(0)


class LPUnboundedError(ArithmeticError):
    """The LP objective can be made arbitrarily large."""


class LPInfeasibleError(ArithmeticError):
    """The LP constraint set is empty."""


class _KeptRows(tuple):
    """Constraint rows that keep, per right-hand side, what phase 1 leaves:
    the start of _phase_one, or the LPInfeasibleError it raised.  starts is
    keyed by the tuple of the rhs entries; simplex_maximize fills it, through
    _kept_start, on the first call with that rhs and runs only phase 2, on a
    copy, on every later one.  Equal to the plain tuple of its rows."""

    def __new__(cls, rows):
        self = super().__new__(cls, rows)
        self.starts = {}
        return self


def _rational(v):
    """v as it is when it is an int or a Fraction; a float, a Decimal or a
    string is not exact input and raises TypeError."""
    if isinstance(v, (int, Fraction)):
        return v
    raise TypeError(f"exact solvers take int or Fraction entries, got {type(v).__name__} {v!r}")


def _pivot(rows, d, r, c):
    """Pivot the integer tableau rows / d on (r, c) in place; return the new d."""
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
        elif p != d:
            rows[i] = [p * v // d for v in row]
    if p < 0:
        for i, row in enumerate(rows):
            rows[i] = [-v for v in row]
        p = -p
    return p


def _bland_run(rows, d, basis, cost):
    """Maximize integer costs over the tableau rows / d in place; Bland's rule.

    Rows are [coefficients..., rhs] with rhs >= 0 maintained.  Pricing walks
    the nonbasic columns in index order in one plain loop and stops at the
    first positive reduced cost, so no objective row is carried.  Returns
    the final d when no reduced cost is positive; raises LPUnboundedError if
    an improving column has no positive entry.
    """
    ncols = len(cost)
    while True:
        basic = set(basis)
        weighted = [(cost[b], row) for b, row in zip(basis, rows) if cost[b]]
        # d times the reduced cost r_j = c_j - c_B . column_j.
        for entering in range(ncols):
            if entering in basic:
                continue
            r = cost[entering] * d
            for cb, row in weighted:
                r -= cb * row[entering]
            if r > 0:
                break
        else:
            return d
        leaving = -1
        for i, row in enumerate(rows):
            e = row[entering]
            if e > 0:
                if leaving < 0:
                    leaving = i
                    continue
                best = rows[leaving]
                lhs = row[-1] * best[entering]
                rhs = best[-1] * e
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            raise LPUnboundedError("improving direction with no binding constraint")
        d = _pivot(rows, d, leaving, entering)
        basis[leaving] = entering


def simplex_maximize(objective, constraints, rhs):
    """Solve  max objective . x  subject to  constraints @ x = rhs,  x >= 0.

    All inputs are sequences of Fractions (or ints); the constraint rows and
    rhs become the tableau through _integer_rows.  Returns
    ``(value, x)`` with x a list of Fractions.  Raises LPInfeasibleError or
    LPUnboundedError accordingly.  Deterministic: Bland's rule with the
    given variable ordering.  Constraints given as a _KeptRows run phase 1
    once per rhs (see the module docstring); the lengths, the objective and
    the rhs are still checked on every call.
    """
    m = len(constraints)
    n = len(objective)
    if len(rhs) != m:
        raise ValueError("rhs length does not match the constraint rows")
    if set(map(type, objective)) <= {int}:
        cost, cost_scale = objective, 1
    else:
        objective = [_rational(c) for c in objective]
        cost_scale = lcm(*(c.denominator for c in objective))
        cost = scaled(objective, cost_scale)
    if m == 0:
        if any(c > 0 for c in cost):
            raise LPUnboundedError("no constraints and a positive objective entry")
        return _ZERO, [_ZERO] * n

    if any(len(row) != n for row in constraints):
        raise ValueError("constraint row length does not match objective")
    if type(constraints) is _KeptRows:
        rows, d, basis = _kept_start(constraints, rhs, n)
    else:
        rows, d, basis = _phase_one(constraints, rhs, n)
    d = _bland_run(rows, d, basis, cost)

    x, value = [_ZERO] * n, 0
    for b, row in zip(basis, rows):
        if row[-1]:
            x[b] = Fraction(row[-1], d)
            value += cost[b] * row[-1]
    return Fraction(value, cost_scale * d), x


def _phase_one(constraints, rhs, n):
    """(rows, d, basis): the tableau rows / d over the n structural columns
    and the rhs, with its basis, once phase 1 has driven the artificials to
    zero and out of the basis (a row with no nonzero structural entry left
    is dropped).  Raises LPInfeasibleError when phase 1 cannot drive them to
    zero."""
    m = len(constraints)
    rows = []
    unit = [0] * m
    for i, row in enumerate(_integer_rows([[*row, b] for row, b in zip(constraints, rhs)])):
        if row[-1] < 0:
            row = [-v for v in row]
        unit[i] = 1
        rows.append(row[:-1] + unit + row[-1:])
        unit[i] = 0
    basis = list(range(n, n + m))
    d = _bland_run(rows, 1, basis, [0] * n + [-1] * m)
    if any(b >= n and row[-1] for b, row in zip(basis, rows)):
        raise LPInfeasibleError("artificial variables cannot be driven to zero")

    # Remove artificials from the basis (pivot out, or drop redundant rows).
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if rows[i][j]), None)
            if pivot_col is None:
                drop_rows.append(i)
            else:
                d = _pivot(rows, d, i, pivot_col)
                basis[i] = pivot_col
    for i in sorted(drop_rows, reverse=True):
        del rows[i]
        del basis[i]
    return [row[:n] + row[-1:] for row in rows], d, basis


def _kept_start(constraints, rhs, n):
    """_phase_one of the kept rows and the rhs, run on the first call with
    that rhs and kept in constraints.starts under its entries, as is the
    LPInfeasibleError it raised, which every later call raises again.
    Returns a copy: _pivot replaces rows and never changes one, so phase 2
    on the copy leaves the kept start as it was."""
    key = tuple(rhs)
    if not set(map(type, key)) <= {int}:
        key = tuple(map(_rational, key))
    start = constraints.starts.get(key)
    if start is None:
        try:
            start = _phase_one(constraints, rhs, n)
        except LPInfeasibleError as exc:
            # a fresh error: the raised one's traceback holds the tableau
            start = LPInfeasibleError(*exc.args)
        constraints.starts[key] = start
    if type(start) is LPInfeasibleError:
        raise LPInfeasibleError(*start.args)
    rows, d, basis = start
    return list(rows), d, list(basis)


def _integer_rows(rows):
    """The rows of rationals times one common lcm of all their denominators, as
    a new list of int rows; all-int rows go in as they are, not copied.
    ValueError for rows of unequal length."""
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("row length does not match the first row")
    if all(type(v) is int for row in rows for v in row):
        return list(rows)
    rows = [[_rational(v) for v in row] for row in rows]
    scale = lcm(*(v.denominator for row in rows for v in row))
    return [scaled(row, scale) for row in rows]


def _eliminate(work, ncols):
    """Forward elimination of the int rows work over their first ncols
    columns: each pivot runs _pivot on the rows not yet pivoted, then sets
    its row aside.  Returns (d, pivots, rest): the last pivot's d, the rows
    set aside in pivot order, and the rows never pivoted, zero in the first
    ncols columns.  A pivot row u has u[c] = d_u > 0 in its pivot column c,
    d_u the d its pivot returned.
    """
    d = 1
    pivots = []
    for c in range(ncols):
        pivot_row = next((i for i, row in enumerate(work) if row[c]), None)
        if pivot_row is None:
            continue
        work[0], work[pivot_row] = work[pivot_row], work[0]
        d = _pivot(work, d, 0, c)
        pivots.append(work[0])
        work = work[1:]
        if not work:
            break
    return d, pivots, work


def exact_rank(rows) -> int:
    """Rank over Q of a list of Fraction rows: the number of pivots of one
    forward elimination, _eliminate.  The input rows are not modified."""
    work = _integer_rows(rows)
    return len(_eliminate(work, len(work[0]) if work else 0)[1])


def solve_linear_system(matrix, rhs):
    """Solve  matrix @ x = rhs  exactly.

    Returns ``(x, rank)`` where x is the unique solution when the system is
    determined (rank == number of unknowns) and consistent; x is None when
    the solution is not unique (rank deficit).  Raises ArithmeticError on an
    inconsistent system.

    When the rank is the number n of unknowns, pivot i of _eliminate is in
    column i and the back-substitution runs in integers, with X = d*x:
    X_i = (d*u_i[-1] - sum_{j>i} u_ij*X_j) // u_ii.  Every division
    is exact: d is |det| of the n pivot rows (the Bareiss leading-minor
    property), so d*x is integral by Cramer's rule.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if len(rhs) != m:
        raise ValueError("rhs length does not match the matrix rows")
    work = _integer_rows([[*row, b] for row, b in zip(matrix, rhs)])
    d, pivots, rest = _eliminate(work, n)
    rank = len(pivots)
    if any(row[-1] for row in rest):
        raise ArithmeticError("inconsistent linear system")
    if rank < n:
        return None, rank
    X = [0] * n
    for i in reversed(range(n)):
        u = pivots[i]
        X[i] = (d * u[-1] - sum(map(mul, u[i + 1 : n], X[i + 1 :]))) // u[i]
    return [Fraction(v, d) for v in X], rank
