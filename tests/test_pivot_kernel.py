"""The integer pivot kernel against the ``Fraction`` tableau it replaced.

``fraction_simplex``, ``fraction_rank`` and ``fraction_solve`` are the
rational-tableau solver and the two Gauss-Jordan loops kept as a test-only
reference.  The kernel must reach the same ``(value, x)`` or raise the same
exception class, and ``simplex_maximize`` must pivot on the same (row,
column) sequence, since Bland's rule over one uniformly scaled tableau makes
every choice exactly as the rational one does.
"""

from collections import Counter
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkbw.bounds
import qkbw.simplex
from qkbw.bounds import bound_for, twistor_kernel_analysis
from qkbw.casimir import lambda_ab_bundle
from qkbw.selfcheck import sweep_cases
from qkbw.simplex import (
    LPInfeasibleError,
    LPUnboundedError,
    exact_rank,
    simplex_maximize,
    solve_linear_system,
)

F = Fraction


def _fraction_pivot(tableau, basis, row, col, log):
    log.append((row, col))
    inv = Fraction(1) / tableau[row][col]
    tableau[row] = [v * inv for v in tableau[row]]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            factor = r[col]
            pivot_row = tableau[row]
            tableau[i] = [v - factor * pv for v, pv in zip(r, pivot_row)]
    basis[row] = col


def _fraction_bland_run(tableau, basis, cost, log):
    """Bland's rule on the Fraction tableau; at the optimum, returns whether
    some nonbasic reduced cost there is 0."""
    ncols = len(cost)
    while True:
        basic_cost = [cost[b] for b in basis]
        entering = -1
        reduced = []
        for j in range(ncols):
            if j in basis:
                continue
            rj = cost[j] - sum(cb * tableau[i][j] for i, cb in enumerate(basic_cost) if tableau[i][j])
            if rj > 0:
                entering = j
                break
            reduced.append(rj)
        if entering < 0:
            return 0 in reduced
        leaving = -1
        best_ratio = None
        for i, r in enumerate(tableau):
            if r[entering] > 0:
                ratio = r[-1] / r[entering]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise LPUnboundedError("improving direction with no binding constraint")
        _fraction_pivot(tableau, basis, leaving, entering, log)


def fraction_simplex(objective, constraints, rhs, log, ties=None):
    """The two-phase Bland-rule simplex on a Fraction tableau; pivots go to log,
    and to ties, when given, whether phase 2 ends with a nonbasic reduced
    cost of 0."""
    m = len(constraints)
    n = len(objective)
    objective = [Fraction(c) for c in objective]
    if m == 0:
        if any(c > 0 for c in objective):
            raise LPUnboundedError("no constraints and a positive objective entry")
        return Fraction(0), [Fraction(0)] * n
    tableau = []
    for i in range(m):
        row = [Fraction(v) for v in constraints[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        tableau.append(row + [b])
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau[i] = tableau[i][:-1] + art + [tableau[i][-1]]
    basis = list(range(n, n + m))
    phase1_cost = [Fraction(0)] * n + [Fraction(-1)] * m
    _fraction_bland_run(tableau, basis, phase1_cost, log)
    value1 = sum(phase1_cost[b] * tableau[i][-1] for i, b in enumerate(basis))
    if value1 != 0:
        raise LPInfeasibleError("artificial variables cannot be driven to zero")
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if pivot_col is None:
                drop_rows.append(i)
            else:
                _fraction_pivot(tableau, basis, i, pivot_col, log)
    for i in sorted(drop_rows, reverse=True):
        del tableau[i]
        del basis[i]
    tableau = [row[:n] + [row[-1]] for row in tableau]
    tied = _fraction_bland_run(tableau, basis, objective, log)
    if ties is not None:
        ties.append(tied)
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        x[b] = tableau[i][-1]
    value = sum(objective[j] * x[j] for j in range(n))
    return value, x


def _fraction_gauss_jordan(work, ncols):
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = Fraction(1) / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [v - factor * p for v, p in zip(work[i], work[rank])]
        pivots.append(col)
    return pivots


def fraction_rank(rows):
    work = [[Fraction(v) for v in row] for row in rows]
    return len(_fraction_gauss_jordan(work, len(work[0]) if work else 0))


def fraction_solve(matrix, rhs):
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    work = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    pivots = _fraction_gauss_jordan(work, n)
    rank = len(pivots)
    if any(row[-1] != 0 for row in work[rank:]):
        raise ArithmeticError("inconsistent linear system")
    if rank < n:
        return None, rank
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = work[i][-1]
    return x, rank


def outcome(solve):
    """The result, or the class of the ArithmeticError raised."""
    try:
        return solve()
    except ArithmeticError as exc:
        return type(exc)


def kernel_simplex(objective, constraints, rhs):
    """(outcome, pivots) of simplex_maximize, recording each (row, column) pivot."""
    log = []
    real = qkbw.simplex._pivot

    def spy(rows, d, r, c):
        log.append((r, c))
        return real(rows, d, r, c)

    with mock.patch.object(qkbw.simplex, "_pivot", spy):
        result = outcome(lambda: simplex_maximize(objective, constraints, rhs))
    return result, log


def assert_same_lp(objective, constraints, rhs):
    """simplex_maximize ends and pivots as fraction_simplex does; at an
    optimum, the strict flag of its last _bland_run, phase 2's, holds
    exactly when no nonbasic reduced cost at the oracle's optimum is 0."""
    log, ties, runs = [], [], []
    expected = outcome(lambda: fraction_simplex(objective, constraints, rhs, log, ties))
    real = qkbw.simplex._bland_run

    def spy(*args):
        runs.append(real(*args))
        return runs[-1]

    with mock.patch.object(qkbw.simplex, "_bland_run", spy):
        got, pivots = kernel_simplex(objective, constraints, rhs)
    assert got == expected
    assert pivots == log
    if isinstance(got, tuple):
        assert type(got[0]) is type(expected[0])
        assert all(type(v) is Fraction for v in got[1])
        assert runs[-1][1] == (not ties[-1])
    return got


# Small numerators over mixed denominators; ties and zeros are common.
rationals = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 1, 2, 3, 5, 6)))


@st.composite
def equality_lps(draw):
    """max c.x s.t. A x = b, x >= 0, with redundant rows and tied ratios.

    Right-hand sides take either sign; half of them are A x0 for a drawn
    x0 >= 0, so that the LP is feasible.  Some rows repeat a scaled earlier
    row, or the sum of two, with the matching right-hand side, so phase 1
    leaves an artificial basic at zero and drops or drives it out.
    """
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    A = [[draw(rationals) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        x0 = [abs(draw(rationals)) for _ in range(n)]
        b = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in A]
    else:
        b = [draw(rationals) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(A) - 1))
        j = draw(st.integers(0, len(A) - 1))
        s = draw(st.sampled_from((F(1), F(-1), F(2), F(1, 3))))
        A.append([s * (u + v) if i != j else s * u for u, v in zip(A[i], A[j])])
        b.append(s * (b[i] + b[j]) if i != j else s * b[i])
    c = [draw(rationals) for _ in range(n)]
    order = draw(st.permutations(range(len(A))))
    return c, [A[i] for i in order], [b[i] for i in order]


@given(equality_lps())
@settings(max_examples=300, deadline=None)
def test_simplex_matches_fraction_oracle(problem):
    assert_same_lp(*problem)


@given(equality_lps())
@settings(max_examples=150, deadline=None)
def test_int_rows_match_fraction_oracle(problem):
    # The same LP with every row times the lcm of its denominators, as plain
    # ints: the solver uses those rows unscaled, and pivots as on the
    # Fraction tableau.
    c, A, b = problem
    rows = [[*row, rhs] for row, rhs in zip(A, b)]
    ints = [[int(v * lcm(*(w.denominator for w in row))) for v in row] for row in rows]
    assert all(type(v) is int for row in ints for v in row)
    assert_same_lp(c, [row[:-1] for row in ints], [row[-1] for row in ints])


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(rationals, min_size=n, max_size=n),
            st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=4),
            st.lists(st.integers(0, 2), min_size=4, max_size=4),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_inequality_lps_with_tied_ratios(problem):
    # x = 0 is feasible, and right-hand sides from {0, 1, 2} tie the ratio
    # test often, so Bland's smallest-index tie-break decides the pivots.
    c, A, b = problem
    m, n = len(A), len(c)
    constraints = [row + [F(int(i == j)) for j in range(m)] for i, row in enumerate(A)]
    assert_same_lp(c + [F(0)] * m, constraints, b[:m])


small_ints = st.one_of(st.just(0), st.integers(-6, 6))


@st.composite
def bound_identities(draw):
    """Identity rows of the bound LP: up to 6 drawn over up to 10 targets, then
    up to two copies of drawn ones, as they are, mirrored or doubled, so the
    rank falls short; zeros are common, so ratios tie."""
    t = draw(st.integers(1, 10))
    identities = [[draw(small_ints) for _ in range(t)] for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        source = draw(st.sampled_from(identities))
        identities.append([draw(st.sampled_from((1, -1, 2))) * v for v in source])
    return identities


def split_rows(A, slack):
    """The rows [A | -A | slack] of the tie-break LP, a slack column on each row in slack."""
    return [row + [-v for v in row] + [int(i == s) for s in slack] for i, row in enumerate(A)]


@st.composite
def l1_lps(draw):
    """(m, A, op, slack): the tie-break LP of _l1_smallest over bound_identities,
    A one row per target, with a slack column on the rows in slack.  Half of
    the right-hand sides are met by a drawn lambda, with each slack row's
    residual drawn >= 0, so the LP is feasible."""
    identities = draw(bound_identities())
    m, t = len(identities), len(identities[0])
    A = [[row[i] for row in identities] for i in range(t)]
    feasible = draw(st.booleans())
    slack = sorted(draw(st.sets(st.integers(0, t - 1), max_size=6)))
    lam0 = [draw(small_ints) for _ in range(m)]
    op = [
        sum(map(mul, row, lam0)) + (draw(st.integers(0, 3)) if i in slack else 0)
        if feasible
        else draw(small_ints)
        for i, row in enumerate(A)
    ]
    return m, A, op, slack


@st.composite
def int_bound_lps(draw):
    """All-int LPs of the two shapes the bound solves, where the solver takes
    every entry as it is (cost_scale 1, rows unscaled).

    The dual of lp_max_bound: max -op.y s.t. A^T y = kappa, y >= 0, one row
    per identity (up to 8) and one column per target (up to 10); half of its
    kappa sides are met by a drawn y >= 0, so the LP is feasible.  The
    tie-break of _l1_smallest: max -sum(lambda+ + lambda-) over the rows
    [A | -A | slack] of l1_lps.
    """
    if draw(st.booleans()):
        identities = draw(bound_identities())
        t = len(identities[0])
        feasible = draw(st.booleans())
        op = [draw(small_ints) for _ in range(t)]
        y0 = [draw(st.integers(0, 3)) for _ in range(t)]
        kappa = [sum(map(mul, row, y0)) if feasible else draw(small_ints) for row in identities]
        return [-o for o in op], identities, kappa
    m, A, op, slack = draw(l1_lps())
    return [-1] * (2 * m) + [0] * len(slack), split_rows(A, slack), op


@given(int_bound_lps())
@settings(max_examples=200, deadline=None)
def test_int_bound_lps_match_fraction_oracle(problem):
    """An all-int LP pivots and ends as the Fraction tableau does, with a
    Fraction value and Fraction x, and as the same LP written in Fractions."""
    c, A, b = problem
    assert all(type(v) is int for v in chain(c, b, *A))
    got = assert_same_lp(c, A, b)
    as_fractions = ([F(v) for v in c], [[F(v) for v in row] for row in A], [F(v) for v in b])
    assert kernel_simplex(*as_fractions) == (got, kernel_simplex(c, A, b)[1])


def test_l1_smallest_keeps_only_a_unique_optimum():
    """On every l1_lps draw, bounds._l1_smallest returns the lambda of
    fraction_simplex's two-phase run, or raises as that run does.  Its start
    without artificials ends at an optimum, and the optimum is kept only
    when every nonbasic reduced cost there is negative, which makes it the
    only one; any other draw goes to simplex_maximize.  Both ways are taken,
    and the kept one on both shapes: with and without slack rows."""
    taken = Counter()

    @given(l1_lps())
    @settings(max_examples=300, deadline=None)
    def check(problem):
        m, A, op, slack = problem
        cost = [F(-1)] * (2 * m) + [F(0)] * len(slack)
        split = [[F(v) for v in row] for row in split_rows(A, slack)]

        def two_phase():
            x = fraction_simplex(cost, split, [F(v) for v in op], [])[1]
            return [x[j] - x[m + j] for j in range(m)]

        fallbacks = []
        real = qkbw.bounds.simplex_maximize

        def spy(*args):
            fallbacks.append(args)
            return real(*args)

        with mock.patch.object(qkbw.bounds, "simplex_maximize", spy):
            got = outcome(lambda: qkbw.bounds._l1_smallest(m, A, op, slack))
        assert got == outcome(two_phase)
        if isinstance(got, list):
            assert all(type(v) is F for v in got)
        taken["fallback" if fallbacks else "kept", bool(slack)] += 1

    check()
    assert taken["kept", False] and taken["kept", True], taken
    assert taken["fallback", False] + taken["fallback", True], taken


# (A, op, kept): tight rows A of the tie-break with a dependent row, and the
# number of rows _mirror_start keeps, or None where a row contradicts the rest.
DEPENDENT_TIGHT_ROWS = {
    "repeated": ([[1, -1], [2, -2]], [3, 6], 1),
    "sum-of-two": ([[1, 2], [0, 1], [1, 3]], [-2, 1, -1], 2),
    "zero-row": ([[1, 2], [0, 0], [0, 1]], [1, 0, 1], 2),
    "zero-row-nonzero-rhs": ([[1, 2], [0, 0]], [1, 5], None),
    "repeated-other-rhs": ([[1, 2], [2, 4]], [1, 3], None),
}


@pytest.mark.parametrize("A, op, kept", DEPENDENT_TIGHT_ROWS.values(), ids=DEPENDENT_TIGHT_ROWS)
def test_mirror_start_drops_a_dependent_row(A, op, kept):
    """_mirror_start's drive-in drops a tight row that other rows repeat and
    raises LPInfeasibleError for a row that comes out zero with a nonzero
    rhs; _l1_smallest on such rows returns the lambda of simplex_maximize's
    two-phase run, or raises as that run does."""
    m = len(A[0])
    split, cost = split_rows(A, ()), [-1] * (2 * m)
    start = outcome(lambda: qkbw.simplex._mirror_start(split, op, m))
    if kept is None:
        assert start is LPInfeasibleError
    else:
        rows, d, basis = start
        assert len(rows) == len(basis) == kept
        assert all(row[-1] >= 0 for row in rows)

    def two_phase():
        x = simplex_maximize(cost, split, op)[1]
        return [x[j] - x[m + j] for j in range(m)]

    assert outcome(lambda: qkbw.bounds._l1_smallest(m, A, op, ())) == outcome(two_phase)


def phase_one_pivots(constraints, rhs, n):
    """(pivots, feasible): the (row, column) pivots of phase 1 and the
    drive-in alone, and whether phase 1 returned a start."""
    log = []
    real = qkbw.simplex._pivot

    def spy(rows, d, r, c):
        log.append((r, c))
        return real(rows, d, r, c)

    with mock.patch.object(qkbw.simplex, "_pivot", spy):
        try:
            qkbw.simplex._phase_one(constraints, rhs, n)
        except LPInfeasibleError:
            return log, False
    return log, True


def kept_starts(rows):
    """A copy of each kept start's rows, d and basis."""
    return {rhs: ([list(row) for row in kept], d, list(basis)) for rhs, (kept, d, basis) in rows.starts.items()}


@st.composite
def kept_row_lps(draw):
    """An LP of equality_lps or int_bound_lps, feasible, infeasible or
    unbounded, with a second objective of the same length."""
    c, A, b = draw(st.one_of(equality_lps(), int_bound_lps()))
    return c, [draw(small_ints) for _ in c], A, b


@given(kept_row_lps())
@settings(max_examples=200, deadline=None)
def test_kept_rows_keep_one_start_per_rhs(problem):
    """The first call on kept rows is the plain call, pivot for pivot; a
    second objective with the same rhs gives what a fresh plain call gives
    and logs only its phase-2 pivots; another rhs, the other sign of a
    nonzero one, runs phase 1 for a start of its own; and a third call
    finds the first start as it was kept, and pivots as the second did.  An
    rhs whose phase 1 raises LPInfeasibleError keeps nothing, so every call
    with it runs phase 1 again and logs the pivots of a plain call."""
    c, c2, A, b = problem
    rows = qkbw.simplex._KeptRows(A)
    assert rows == tuple(A)
    assert_same_lp(c, rows, b)
    phase_one, feasible = phase_one_pivots(A, b, len(c))
    assert list(rows.starts) == [tuple(b)] * feasible
    kept = kept_starts(rows)
    fresh, fresh_log = kernel_simplex(c2, A, b)
    assert fresh_log[: len(phase_one)] == phase_one
    second = kernel_simplex(c2, rows, b)
    assert second == (fresh, fresh_log[len(phase_one) * feasible :])
    other = [-v for v in b] if any(b) else [1] * len(b)
    assert_same_lp(c2, rows, other)
    other_feasible = phase_one_pivots(A, other, len(c))[1]
    assert rows.starts.keys() == {key for key, ok in ((tuple(b), feasible), (tuple(other), other_feasible)) if ok}
    assert kernel_simplex(c2, rows, b) == second
    assert kept_starts(rows).get(tuple(b)) == kept.get(tuple(b))


def test_kept_rows_check_every_call():
    """A start kept for an rhs serves no rhs or objective that a plain call
    rejects: a float rhs equal to the kept one, or another objective length."""
    rows = qkbw.simplex._KeptRows([[F(1), F(2)]])
    assert simplex_maximize([-1, -1], rows, [1]) == (F(-1, 2), [F(0), F(1, 2)])
    with pytest.raises(TypeError):
        simplex_maximize([-1, -1], rows, [1.0])
    with pytest.raises(ValueError):
        simplex_maximize([-1], rows, [1])
    assert list(rows.starts) == [(1,)]


def test_negative_drive_out_pivot():
    # Phase 1 enters x2 on row 2, which leaves the first artificial basic at
    # zero; driving it out pivots on the -1 in row 1, so the integer tableau
    # negates every row to keep its denominator positive.
    constraints = [[F(-1), F(0)], [F(1), F(2)]]
    rhs = [F(0), F(2)]
    seen = []
    real = qkbw.simplex._pivot

    def spy(rows, d, r, c):
        seen.append(rows[r][c])
        return real(rows, d, r, c)

    with mock.patch.object(qkbw.simplex, "_pivot", spy):
        assert simplex_maximize([F(2), F(-2)], constraints, rhs) == (-2, [F(0), F(1)])
    assert seen == [2, -2]
    assert assert_same_lp([F(2), F(-2)], constraints, rhs) == (-2, [F(0), F(1)])
    # the same LP over mixed denominators, and one that is unbounded after it
    assert_same_lp([F(2, 3), F(-1, 2)], [[F(-1, 3), F(0)], [F(1, 2), F(2, 5)]], [F(0), F(3, 7)])
    unbounded = ([F(2), F(1), F(-1)], [[F(-1), F(1), F(1)], [F(1), F(-1), F(0)]], [F(1), F(-1)])
    assert assert_same_lp(*unbounded) is LPUnboundedError


@st.composite
def linear_systems(draw):
    """(matrix, rhs) with a chosen rank; rhs consistent or perturbed.  Up to 6
    unknowns (the hpn identity set has 6 rows) and up to 10 rows."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 10))
    r = draw(st.integers(0, min(m, n)))
    base = [[draw(rationals) for _ in range(n)] for _ in range(r)]
    matrix = []
    for _ in range(m):
        weights = [draw(st.integers(-2, 2)) for _ in range(r)]
        matrix.append([sum((w * row[j] for w, row in zip(weights, base)), F(0)) for j in range(n)])
    x0 = [draw(rationals) for _ in range(n)]
    rhs = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in matrix]
    if draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        rhs[i] += draw(rationals)
    return matrix, rhs


@given(linear_systems())
@settings(max_examples=300, deadline=None)
def test_rank_and_solve_match_fraction_oracle(system):
    matrix, rhs = system
    assert exact_rank(matrix) == fraction_rank(matrix)
    got = outcome(lambda: solve_linear_system(matrix, rhs))
    assert got == outcome(lambda: fraction_solve(matrix, rhs))


def test_the_package_solves_match_fraction_oracle():
    """Every solve the package makes on the 518-case Hodge grid n = 2..5,
    with and without hpn, and on the twistor systems k = 0..6, n = 2..7 matches
    the Gauss-Jordan oracle: 1 x 1 and 4 x 4 tight-row systems on the grid,
    6 x 3 kernel systems on the twistor bundles, each determined."""
    calls = []
    real = qkbw.bounds.solve_linear_system

    def spy(matrix, rhs):
        calls.append((matrix, rhs, real(matrix, rhs)))
        return calls[-1][2]

    with mock.patch.object(qkbw.bounds, "solve_linear_system", spy):
        for n, k, a, b, sign, _ in sweep_cases(range(2, 6), "+-"):
            for hpn in (False, True):
                bound_for("hodge_laplacian", lambda_ab_bundle(k, a, b, n), sign, hpn=hpn)
        for k in range(7):
            for n in range(2, 8):
                twistor_kernel_analysis(k, n)
    shapes = Counter((len(matrix), len(matrix[0])) for matrix, _, _ in calls)
    assert shapes == {(1, 1): 152, (4, 4): 66, (6, 3): 42}
    for matrix, rhs, got in calls:
        assert got[0] is not None and got == fraction_solve(matrix, rhs)


@st.composite
def family_shaped_rows(draw):
    """Up to 7 rows of up to 18 entries, the shapes independence_rank sees
    (family rows with kappa and curvature columns), of a chosen rank: int
    rows or rows with Fractions, with zero columns, rows repeated, and
    negative leading entries from the negative row weights."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 18))
    r = draw(st.integers(0, min(m, n)))
    entries = rationals if draw(st.booleans()) else st.integers(-40, 40)
    base = [[draw(entries) for _ in range(n)] for _ in range(r)]
    zero = draw(st.sets(st.integers(0, n - 1)))
    rows = []
    for _ in range(m):
        weights = [draw(st.integers(-3, 3)) for _ in range(r)]
        rows.append(
            [0 if j in zero else sum(w * row[j] for w, row in zip(weights, base)) for j in range(n)]
        )
    for i, j in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=3)):
        rows[i] = list(rows[j])
    return rows


@given(family_shaped_rows())
@settings(max_examples=200, deadline=None)
def test_rank_of_family_shapes_matches_fraction_oracle(rows):
    """exact_rank equals the Gauss-Jordan oracle and leaves its input as it was:
    all-int rows reach the elimination uncopied."""
    before = [list(row) for row in rows]
    inner = [id(row) for row in rows]
    assert exact_rank(rows) == fraction_rank(rows)
    assert rows == before and [id(row) for row in rows] == inner


@pytest.mark.parametrize(
    "matrix, rhs, expected",
    [
        # unique, over mixed denominators, with a pivot below a zero
        ([[F(0), F(1, 2)], [F(2, 3), F(1, 5)], [F(2, 3), F(7, 10)]], [F(1), F(2), F(3)], 2),
        # rank falls short: x is None
        ([[F(1, 2), F(1, 3), F(0)], [F(1), F(2, 3), F(0)]], [F(1), F(2)], None),
        # inconsistent
        ([[F(1, 2), F(1, 3)], [F(3, 2), F(1)]], [F(1), F(2)], ArithmeticError),
        # inconsistent and short: the inconsistency wins
        ([[F(1), F(1), F(1)], [F(2), F(2), F(2)]], [F(1), F(3)], ArithmeticError),
    ],
    ids=["unique", "rank-short", "inconsistent", "inconsistent-short"],
)
def test_solve_branches(matrix, rhs, expected):
    got = outcome(lambda: solve_linear_system(matrix, rhs))
    assert got == outcome(lambda: fraction_solve(matrix, rhs))
    if expected is None:
        assert got[0] is None and got[1] == exact_rank(matrix) == fraction_rank(matrix)
    elif expected is ArithmeticError:
        assert got is ArithmeticError
    else:
        x, rank = got
        assert rank == expected == exact_rank(matrix)
        assert all(
            sum((a * v for a, v in zip(row, x)), F(0)) == b for row, b in zip(matrix, rhs)
        )
