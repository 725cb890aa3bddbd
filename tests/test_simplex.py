from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkbw.simplex import (
    LPInfeasibleError,
    LPUnboundedError,
    exact_rank,
    simplex_maximize,
    solve_linear_system,
)

F = Fraction


class TestSimplexFixed:
    def test_textbook(self):
        # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 (slacks s1, s2)
        value, x = simplex_maximize(
            [3, 2, 0, 0],
            [[1, 1, 1, 0], [1, 3, 0, 1]],
            [4, 6],
        )
        assert value == 12
        assert x[0] == 4 and x[1] == 0

    def test_fractional_optimum(self):
        # max x + y s.t. 2x + y <= 4, x + 2y <= 3
        value, x = simplex_maximize(
            [1, 1, 0, 0],
            [[2, 1, 1, 0], [1, 2, 0, 1]],
            [4, 3],
        )
        assert value == F(7, 3)

    def test_negative_rhs_rows(self):
        # equality with negative right side: x - y = -1, x + y = 3
        value, x = simplex_maximize(
            [1, 0],
            [[1, -1], [1, 1]],
            [-1, 3],
        )
        assert value == 1
        assert x == [F(1), F(2)]

    def test_infeasible(self):
        with pytest.raises(LPInfeasibleError):
            simplex_maximize([1], [[1], [1]], [1, 2])

    def test_unbounded(self):
        with pytest.raises(LPUnboundedError):
            simplex_maximize([1, 0], [[0, 1]], [1])

    def test_redundant_rows(self):
        value, x = simplex_maximize(
            [1, 1],
            [[1, 1], [2, 2]],
            [2, 4],
        )
        assert value == 2

    def test_degenerate_does_not_cycle(self):
        # classic degeneracy: multiple constraints active at the optimum
        value, _ = simplex_maximize(
            [2, 3, 0, 0, 0],
            [[1, 1, 1, 0, 0], [1, 0, 0, 1, 0], [0, 1, 0, 0, 1]],
            [1, 1, 1],
        )
        assert value == 3

    def test_no_constraints(self):
        value, x = simplex_maximize([-1, -2], [], [])
        assert value == 0
        with pytest.raises(LPUnboundedError):
            simplex_maximize([1], [], [])


small_entries = st.integers(-4, 4)


@st.composite
def inequality_lp(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    A = [[draw(small_entries) for _ in range(n)] for _ in range(m)]
    b = [draw(st.integers(0, 6)) for _ in range(m)]
    c = [draw(small_entries) for _ in range(n)]
    return A, b, c


# Boxing every variable to [0, U] keeps a bounded LP's optimum when U is at
# least every vertex coordinate: |det| <= 8^3 * 12 = 6144 by Hadamard, as the
# columns of A have norm <= 8 and b has norm <= 12.  An unbounded LP has an
# integer extreme ray r with c.r >= 1 and entries up to the 3 x 3 minors of
# A, |minor| <= 332, so its boxed optimum, concave in U, grows by at least
# U / 332 from U to 2U.
BOX = 8192


@given(inequality_lp())
@example(([[-1, 1, 1, 0], [2, -2, -3, 1], [1, 0, -3, -1]], [1, 1, 1], [-1, 0, 4, 0]))
@settings(max_examples=120, deadline=None)
def test_against_float_solver(problem):
    """HiGHS may report an unbounded LP as status 2, 3 or 4 ("model_status is
    Unknown", as for the example, unbounded along x = (t - 1, 0, t, 0)), so
    it solves the LP boxed to [0, BOX] and to [0, 2 BOX] instead, which is
    feasible at x = 0 and bounded: the LP is unbounded exactly when the boxed
    optimum grows with the box."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    A, b, c = problem
    m, n = len(A), len(A[0])
    # standard form with slack variables; x = 0 is always feasible
    constraints = [row + [int(i == j) for j in range(m)] for i, row in enumerate(A)]
    objective = c + [0] * m

    def boxed(U):
        ref = scipy_optimize.linprog([-v for v in c], A_ub=A, b_ub=b, bounds=[(0, U)] * n, method="highs")
        assert ref.status == 0
        return -ref.fun

    low, high = boxed(BOX), boxed(2 * BOX)
    if high - low > 1:
        with pytest.raises(LPUnboundedError):
            simplex_maximize(objective, constraints, b)
        return
    value, x = simplex_maximize(objective, constraints, b)
    assert abs(float(value) - low) < 1e-7
    # exact feasibility of our solution
    assert all(v >= 0 for v in x)
    for i, row in enumerate(A):
        assert sum(r * v for r, v in zip(row, x[:n])) <= b[i]


class TestRank:
    def test_full_rank(self):
        assert exact_rank([[1, 0], [0, 1]]) == 2

    def test_dependent(self):
        assert exact_rank([[1, 2, 3], [2, 4, 6], [1, 1, 1]]) == 2

    def test_zero(self):
        assert exact_rank([[0, 0], [0, 0]]) == 0


class TestSolve:
    def test_unique(self):
        x, rank = solve_linear_system([[2, 1], [1, -1]], [5, 1])
        assert x == [F(2), F(1)]
        assert rank == 2

    def test_overdetermined_consistent(self):
        x, rank = solve_linear_system([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
        assert x == [F(2), F(3)]

    def test_underdetermined(self):
        x, rank = solve_linear_system([[1, 1]], [2])
        assert x is None
        assert rank == 1

    def test_inconsistent(self):
        with pytest.raises(ArithmeticError):
            solve_linear_system([[1, 1], [2, 2]], [2, 5])

    def test_exact_fractions(self):
        x, _ = solve_linear_system([[F(1, 3), F(1, 7)]], [F(1)])
        assert x is None  # one equation, two unknowns
        x, _ = solve_linear_system([[F(1, 3)]], [F(1)])
        assert x == [F(3)]


@pytest.mark.parametrize("bad", [0.1, Decimal("0.1"), "1/10"], ids=["float", "Decimal", "str"])
def test_inexact_entries_raise_type_error(bad):
    # Fraction(0.1) is the binary double, not 1/10: the rank, the "unique"
    # solution and the optimum would all come out exactly wrong.
    with pytest.raises(TypeError, match=type(bad).__name__):
        exact_rank([[bad, 3 * F(1, 10)], [1, 3]])
    with pytest.raises(TypeError, match=type(bad).__name__):
        solve_linear_system([[F(1, 10), F(3, 10)], [1, 3]], [bad, 1])
    with pytest.raises(TypeError, match=type(bad).__name__):
        simplex_maximize([1], [[3]], [bad])
    with pytest.raises(TypeError, match=type(bad).__name__):
        simplex_maximize([bad], [[3]], [1])


def test_ints_bools_and_fractions_stay_exact():
    assert exact_rank([[F(1, 10), F(3, 10)], [1, 3]]) == 1
    assert solve_linear_system([[F(1, 10), F(3, 10)], [1, 3]], [F(1, 10), 1]) == (None, 1)
    assert simplex_maximize([1], [[3]], [F(3, 10)]) == (F(1, 10), [F(1, 10)])
    assert exact_rank([[True, 2], [1, 2]]) == 1


OBJECTIVES = {
    "bool": ([True, True, False, False], [1, 1, 0, 0]),
    "int-and-Fraction": ([F(3), 2, F(0), 0], [3, 2, 0, 0]),
}


@pytest.mark.parametrize("objective, ints", OBJECTIVES.values(), ids=OBJECTIVES)
def test_an_objective_not_all_int_gives_the_answer_of_its_ints(objective, ints):
    # x + y <= 4, x + 3y <= 6 with slacks, as in test_textbook
    constraints, rhs = [[1, 1, 1, 0], [1, 3, 0, 1]], [4, 6]
    value, x = simplex_maximize(objective, constraints, rhs)
    assert (value, x) == simplex_maximize(ints, constraints, rhs)
    assert all(type(v) is F for v in (value, *x))


def test_no_constraints_check_the_objective_first():
    for bad in ([-1.0], [1.0], [0, Decimal("-1")]):
        with pytest.raises(TypeError):
            simplex_maximize(bad, [], [])
    with pytest.raises(LPUnboundedError):
        simplex_maximize([-1, 2], [], [])
    assert simplex_maximize([F(-1, 2), F(0)], [], []) == (0, [0, 0])
    value, x = simplex_maximize([F(-1, 2), F(0)], [], [])
    assert all(type(v) is F for v in (value, *x))


RAGGED = {
    "rank-short-first-row": lambda: exact_rank([[1], [0, 1]]),
    "rank-short-second-row": lambda: exact_rank([[0, 1], [1]]),
    "rank-fraction-row": lambda: exact_rank([[F(1, 2), 1], [F(1, 3)]]),
    "solve-short-row": lambda: solve_linear_system([[1, 0], [0]], [1, 2]),
}


@pytest.mark.parametrize("call", RAGGED.values(), ids=RAGGED)
def test_rows_of_unequal_length_raise(call):
    with pytest.raises(ValueError, match="row length does not match the first row"):
        call()


RHS_MISMATCH = {
    "solve-long-rhs": lambda: solve_linear_system([[1], [1]], [1, 1, 5]),
    "solve-short-rhs": lambda: solve_linear_system([[1], [1]], [1]),
    "simplex-long-rhs": lambda: simplex_maximize([1], [[1]], [1, 5]),
    "simplex-short-rhs": lambda: simplex_maximize([1], [[1], [2]], [1]),
}


@pytest.mark.parametrize("call", RHS_MISMATCH.values(), ids=RHS_MISMATCH)
def test_rhs_of_another_length_than_the_rows_raises(call):
    with pytest.raises(ValueError, match="rhs length does not match the"):
        call()
