"""The dual-LP bound against the two-LP primal it replaced, and its outcome mapping.

``primal_oracle`` is the primal formulation kept as a test-only reference:
one two-phase simplex for the optimum over split multipliers and residual
columns, then an L1 cleanup with the objective pinned as an extra row.
"""

import gc
import gzip
import json
import types
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkbw.bounds
import qkbw.simplex
from qkbw.bounds import BoundCertificate, NoCertificate, bound_for, lp_max_bound
from qkbw.casimir import lambda_ab_bundle
from qkbw.cli import main
from qkbw.identities import (
    OPERATOR_NAMES,
    BWIdentity,
    InconsistencyError,
    OperatorSpec,
    operator_coeffs,
    pure_kappa_identities,
)
from qkbw.selfcheck import dominant_weights as weights_up_to
from qkbw.selfcheck import sweep_cases
from qkbw.simplex import LPInfeasibleError, LPUnboundedError, simplex_maximize
from qkbw.weights import BundleLabel, SpnWeight

F = Fraction


def primal_oracle(operator, identities, sign):
    """(bound, multipliers) of the primal LP, or InconsistencyError with the LP cause."""
    keys = [key for key, _ in operator.coeffs]
    op_vec = [c for _, c in operator.coeffs]
    m, t = len(identities), len(keys)
    rows = [[ident.coeff_map().get(key, F(0)) for ident in identities] for key in keys]
    kappas = [ident.kappa_coeff for ident in identities]

    def run(objective, extra_row=None, extra_rhs=None):
        constraints = [
            rows[i] + [-v for v in rows[i]] + [F(int(i == j)) for j in range(t)]
            for i in range(t)
        ]
        rhs = list(op_vec)
        if extra_row is not None:
            constraints.append(extra_row)
            rhs.append(extra_rhs)
        try:
            return simplex_maximize(objective, constraints, rhs)
        except (LPUnboundedError, LPInfeasibleError) as exc:
            raise InconsistencyError("primal oracle") from exc

    objective = [sign * kp for kp in kappas] + [-sign * kp for kp in kappas] + [F(0)] * t
    value, _ = run(objective)
    _, x = run([F(-1)] * (2 * m) + [F(0)] * t, extra_row=objective, extra_rhs=value)
    lambdas = [x[j] - x[m + j] for j in range(m)]
    return operator.constant_kappa + sum(l * kp for l, kp in zip(lambdas, kappas)), lambdas


def oracle_outcome(operator, identities, sign):
    """('certified', bound) or ('no-certificate' | 'unbounded', None) of the primal oracle."""
    try:
        return "certified", primal_oracle(operator, identities, sign)[0]
    except InconsistencyError as exc:
        if isinstance(exc.__cause__, LPInfeasibleError):
            return "no-certificate", None
        assert isinstance(exc.__cause__, LPUnboundedError)
        return "unbounded", None


def bound_outcome(operator, identities, sign):
    """('certified', certificate) or ('no-certificate' | 'unbounded', None) of
    lp_max_bound, which returns a NoCertificate and raises only when unbounded."""
    try:
        result = lp_max_bound(operator, identities, sign)
    except InconsistencyError as exc:
        assert type(exc.__cause__) is LPUnboundedError
        return "unbounded", None
    if result.bound is None:
        assert type(result) is NoCertificate
        return "no-certificate", None
    return "certified", result


dominant_weights = st.integers(2, 5).flatmap(
    lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
        lambda e: SpnWeight(tuple(sorted(e, reverse=True)))
    )
)


@given(
    dominant_weights,
    st.integers(0, 4),
    st.sampled_from(OPERATOR_NAMES),
    st.sampled_from((1, -1)),
)
@settings(max_examples=100, deadline=None)
def test_dual_matches_primal_oracle(rho, k, operator_name, sign):
    bundle = BundleLabel(k, rho)
    operator = operator_coeffs(operator_name, bundle)
    identities = pure_kappa_identities(bundle)
    expected = oracle_outcome(operator, identities, sign)
    got = bound_outcome(operator, identities, sign)
    assert got[0] == expected[0]
    if got[0] == "certified":
        cert = got[1]
        assert cert.bound == expected[1]
        cert.verify(operator, identities)


# Hand-built LPs.  The primal is  max sign * kappa.lambda  s.t.  A lambda <= op.
BUNDLE = BundleLabel(1, SpnWeight((0, 0)))
KEYS = ((1, 1), (-1, 1))


def _operator(*op):
    return OperatorSpec("test_operator", BUNDLE, KEYS, op, 1)


def _identity(name, kappa, *coeffs):
    return BWIdentity(BUNDLE, KEYS, coeffs, kappa, 1, (), name)


# 0 * lambda <= -1 has no solution, while the dual  y2 = 1  leaves y1 free
# with a positive objective: the dual is unbounded.
DUAL_UNBOUNDED = (_operator(-1, 1), [_identity("p", 1, 0, 1)])
# max -lambda  s.t.  lambda <= 1: the primal is unbounded, the dual
# y1 + y2 = -1 is infeasible.
PRIMAL_UNBOUNDED = (_operator(1, 1), [_identity("p", -1, 1, 1)])
# lambda1 <= -1 and lambda1 >= 1, and the dual needs 0 = 1 from the second
# identity, which no target carries: both LPs are infeasible.
BOTH_INFEASIBLE = (_operator(-1, -1), [_identity("p", 0, 1, -1), _identity("q", 1, 0, 0)])

# The cause is the LP error of the primal oracle's outcome.  lp_max_bound
# returns a NoCertificate where it is LPInfeasibleError, and raises an
# InconsistencyError with this cause where it is LPUnboundedError.
NO_REWRITING = "no nonnegative rewriting of test_operator exists over this identity span"
OUTCOMES = [
    (DUAL_UNBOUNDED, LPInfeasibleError, NO_REWRITING),
    (PRIMAL_UNBOUNDED, LPUnboundedError, "unbounded bound optimum"),
    (BOTH_INFEASIBLE, LPInfeasibleError, NO_REWRITING),
]
OUTCOME_IDS = ["dual-unbounded", "primal-unbounded", "both-infeasible"]


@pytest.mark.parametrize("case, cause, message", OUTCOMES, ids=OUTCOME_IDS)
def test_outcome_mapping(case, cause, message):
    operator, identities = case
    if cause is LPInfeasibleError:
        result = lp_max_bound(operator, identities, "+")
        assert result == NoCertificate(BUNDLE, "test_operator", 1, message)
        assert result.bound is None
    else:
        with pytest.raises(InconsistencyError, match=message) as info:
            lp_max_bound(operator, identities, "+")
        assert type(info.value.__cause__) is cause
    # the oracle reaches the same outcome class through the primal
    with pytest.raises(InconsistencyError) as info:
        primal_oracle(operator, identities, 1)
    assert type(info.value.__cause__) is cause


def _live_simplex_frames():
    gc.collect()
    return [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, types.FrameType) and obj.f_code.co_filename == qkbw.simplex.__file__
    ]


@pytest.mark.parametrize("case, cause, message", OUTCOMES, ids=OUTCOME_IDS)
def test_outcome_keeps_no_solver_frames(case, cause, message):
    # a kept outcome must not keep the simplex tableau alive: an error through
    # the traceback of its cause or context, a NoCertificate at all
    operator, identities = case
    if cause is LPInfeasibleError:
        result = lp_max_bound(operator, identities, "+")
        assert [type(v) for v in vars(result).values()] == [BundleLabel, str, int, str]
        assert _live_simplex_frames() == []
        return
    with pytest.raises(InconsistencyError) as info:
        lp_max_bound(operator, identities, "+")
    chained = info.value.__cause__, info.value.__context__, info.value.__context__.__context__
    for exc in filter(None, chained):
        assert exc.__traceback__ is None


@pytest.mark.parametrize("case, cause, message", OUTCOMES, ids=OUTCOME_IDS)
def test_outcome_exit_code(case, cause, message, monkeypatch, capsys):
    operator, identities = case
    monkeypatch.setattr(qkbw.bounds, "operator_coeffs", lambda name, bundle: operator)
    monkeypatch.setattr(qkbw.bounds, "pure_kappa_identities", lambda bundle, hpn=False: identities)
    code = main(["bound", "--n", "2", "--k", "1", "--rho", "0,0", "--kappa-sign", "+"])
    out, err = capsys.readouterr()
    if cause is LPInfeasibleError:
        # no certificate over the span is a result, not an inconsistency
        assert code == 4
        assert message in out and "bound: none" in out
    else:
        assert code == 3
        assert message in err


@given(
    st.sampled_from([rho for n in range(2, 5) for rho in weights_up_to(n, 4)]),
    st.integers(0, 4),
    st.sampled_from(OPERATOR_NAMES),
    st.booleans(),
    st.sampled_from("+-"),
)
@settings(max_examples=300, deadline=None)
def test_bound_for_returns_a_result_and_never_raises(rho, k, operator_name, hpn, sign):
    # a missing certificate is a result: either kind comes back, nothing raises
    bundle = BundleLabel(k, rho)
    result = bound_for(operator_name, bundle, sign, hpn=hpn)
    if result.bound is None:
        reason = f"no nonnegative rewriting of {operator_name} exists over this identity span"
        assert result == NoCertificate(bundle, operator_name, 1 if sign == "+" else -1, reason)
    else:
        assert type(result) is BoundCertificate
        identities = pure_kappa_identities(bundle, hpn=hpn)
        result.verify(operator_coeffs(operator_name, bundle), identities)


def test_dependent_identities_take_the_face_cleanup():
    # a duplicated identity leaves a free direction on the optimal face; the
    # L1 tie-break splits nothing onto the copy
    operator = _operator(1, 2)
    identities = [_identity("p", 1, 1, 1), _identity("p", 1, 1, 1)]
    cert = lp_max_bound(operator, identities, "+")
    assert cert.bound == 1
    assert dict(cert.multipliers) == {"p": 1, "p#1": 0}
    assert dict(cert.residuals) == {(1, 1): 0, (-1, 1): 1}
    assert primal_oracle(operator, identities, 1) == (1, [1, 0])


GOLDEN = Path(__file__).resolve().parent / "data" / "golden_certificates.jsonl.gz"


def golden_certificate(bundle, operator, sign):
    with gzip.open(GOLDEN, "rt", encoding="ascii") as fh:
        lines = [json.loads(line) for line in fh]
    key = (bundle.n, bundle.k, str(bundle.rho), operator, sign)
    fields = ("n", "k", "rho", "operator", "kappa_sign")
    (line,) = [d for d in lines if tuple(d[f] for f in fields) == key]
    return line


# (k, a, b, n) of a Hodge bound with kappa +, and the tie-break steps of
# lp_max_bound it takes, one _l1_smallest call each.
TIE_BREAK_PATHS = [
    ((0, 0, 0, 2), 0),  # no pure-kappa identity: no tie-break LP
    ((0, 1, 0, 2), 1),  # the L1-smallest point on the tight rows is on the face
    ((1, 1, 0, 2), 2),  # that point breaks a slack row: the full face LP runs
]


@pytest.mark.parametrize("label, steps", TIE_BREAK_PATHS, ids=["m0", "tight-rows", "full-face"])
def test_tie_break_path(label, steps):
    lps, shapes = [], []  # (rows, columns) of each simplex_maximize LP and each tie-break LP
    real_simplex, real_l1 = qkbw.bounds.simplex_maximize, qkbw.bounds._l1_smallest

    def simplex_spy(*args):
        lps.append((len(args[1]), len(args[0])))
        return real_simplex(*args)

    def l1_spy(m, rows, rhs, slack_rows):
        shapes.append((len(rows), 2 * m + len(slack_rows)))
        return real_l1(m, rows, rhs, slack_rows)

    bundle = lambda_ab_bundle(*label)
    with mock.patch.object(qkbw.bounds, "simplex_maximize", simplex_spy), mock.patch.object(
        qkbw.bounds, "_l1_smallest", l1_spy
    ):
        cert = bound_for("hodge_laplacian", bundle, "+")
    assert len(shapes) == steps
    assert cert.to_json_dict() == golden_certificate(bundle, "hodge_laplacian", "+")
    m, t = len(cert.multipliers), len(cert.residuals)
    # the dual alone: each tie-break LP here has a unique optimum, kept from its own start
    assert lps == [(m, t)]
    if steps == 0:
        assert m == 0
    if steps >= 1:  # the tight rows only, in split multipliers
        assert shapes[0][0] < t and shapes[0][1] == 2 * m
    if steps == 2:  # every target row
        assert shapes[1][0] == t


def test_fewer_tight_rows_than_identities_skip_the_solve():
    """lp_max_bound solves the tight rows only when there are at least as many
    as identities; with fewer the rank is below m.  On every such system of
    the 518-case Hodge grid n = 2..5, the solve it skips returns None."""
    solved, skipped = [], []
    real_solve, real_l1 = qkbw.bounds.solve_linear_system, qkbw.bounds._l1_smallest

    def solve_spy(matrix, rhs):
        solved.append((len(matrix), len(matrix[0])))
        return real_solve(matrix, rhs)

    def l1_spy(m, rows, rhs, slack_rows):
        if not slack_rows and len(rows) < m:  # the tight rows, after a skipped solve
            skipped.append((rows, rhs))
        return real_l1(m, rows, rhs, slack_rows)

    with mock.patch.object(qkbw.bounds, "solve_linear_system", solve_spy), mock.patch.object(
        qkbw.bounds, "_l1_smallest", l1_spy
    ):
        for n, k, a, b, sign, _ in sweep_cases(range(2, 6), "+-"):
            bound_for("hodge_laplacian", lambda_ab_bundle(k, a, b, n), sign)
    assert all(rows >= m for rows, m in solved)
    assert (len(solved), len(skipped)) == (162, 320)
    for rows, rhs in skipped:
        assert real_solve(rows, rhs)[0] is None


@given(
    dominant_weights,
    st.integers(0, 4),
    st.sampled_from(OPERATOR_NAMES),
    st.sampled_from((1, -1)),
)
@settings(max_examples=200, deadline=None)
def test_bound_is_monotone_as_identities_are_added(rho, k, operator_name, sign):
    # Adding identities only widens the span: whenever a subset certifies, the
    # full set certifies too, with a bound at least as good for this sign.
    from itertools import combinations

    bundle = BundleLabel(k, rho)
    operator = operator_coeffs(operator_name, bundle)
    identities = pure_kappa_identities(bundle)
    full = None
    for size in range(len(identities) + 1):
        for subset in combinations(identities, size):
            sub = lp_max_bound(operator, list(subset), sign).bound
            if sub is None:
                continue
            if full is None:
                full = lp_max_bound(operator, identities, sign).bound
            assert sign * sub <= sign * full, [ident.provenance for ident in subset]
