"""The integer LP rows and the integer certificate check against their Fraction forms.

``oracle_operator``, ``oracle_lp_max_bound`` and ``oracle_verify`` are the
operator expansion, the bound LP and ``BoundCertificate.verify`` as they
were before the LP rows and the check ran on integers: every coefficient is
a ``Fraction``, the LP rows are ``Fraction`` rows, and the residuals, the
bound and the reconstruction are ``Fraction`` sums.  They are kept here as a
test-only reference.  The integer code must give the same certificate, the
same ``NoCertificate`` or the same error, after the same pivots.

``oracle_lp_max_bound`` breaks a multiplier tie in the three steps of
``lp_max_bound``: no LP without identities, the L1-smallest multipliers on
the tight rows, and the full face LP only when that point leaves the
optimal face.  With ``full_face=True`` it is the tie-break those steps
replaced, the L1-smallest multipliers over the whole optimal face, kept as a
second reference: the certificates of the two must be equal.
"""

from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import qkbw.bounds
import qkbw.identities
import qkbw.simplex
from qkbw.bounds import (
    BoundCertificate,
    NoCertificate,
    _identity_ids,
    _normalize_sign,
    bound_for,
    lp_max_bound,
)
from qkbw.casimir import lambda_ab_bundle
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
from qkbw.simplex import LPInfeasibleError, LPUnboundedError, simplex_maximize, solve_linear_system
from qkbw.weights import BundleLabel, SpnWeight

from test_casimir_kernel import oracle_decompose

F = Fraction


def oracle_operator(name, bundle):
    """The operator as Fraction data, built apart from OperatorSpec."""
    n = bundle.n
    formulas = {
        "connection_laplacian": lambda t: F(1),
        "hodge_laplacian": lambda t: 1 + t.w / 2 + t.W / (2 * n),
        "dirac_squared": lambda t: 1 + t.w + t.W / n,
        "R1_endomorphism": lambda t: t.w + t.W / n,
    }
    targets = [t for t in oracle_decompose(bundle) if t.valid]
    coeffs = tuple(((t.N, t.nu), formulas[name](t)) for t in targets)
    return SimpleNamespace(name=name, bundle=bundle, coeffs=coeffs, constant_kappa=F(0))


def over_lcm(values):
    """(ints, den): the rationals as ints over the lcm of their denominators."""
    values = [F(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def oracle_verify(cert, operator, identities):
    ids = dict(cert.multipliers)
    res = dict(cert.residuals)
    for key, value in res.items():
        if value < 0:
            raise InconsistencyError(f"negative residual at {key}: {value}")
    by_id = dict(zip(_identity_ids(identities), identities))
    maps = {i: by_id[i].coeff_map() for i in ids}
    for key, op_coeff in operator.coeffs:
        combined = res.get(key, F(0)) + sum(ids[i] * maps[i].get(key, F(0)) for i in ids)
        if combined != op_coeff:
            raise InconsistencyError(f"reconstruction fails at {key}")
    bound = operator.constant_kappa + sum(ids[i] * by_id[i].kappa_coeff for i in ids)
    if bound != cert.bound:
        raise InconsistencyError("bound does not match multiplier combination")


def _oracle_split_rows(rows, slack_rows):
    return [
        row + [-v for v in row] + [F(int(i == s)) for s in slack_rows]
        for i, row in enumerate(rows)
    ]


def _oracle_l1_smallest(m, rows, rhs, slack_rows):
    _, x = simplex_maximize(
        [F(-1)] * (2 * m) + [F(0)] * len(slack_rows), _oracle_split_rows(rows, slack_rows), rhs
    )
    return [x[j] - x[m + j] for j in range(m)]


def oracle_lp_max_bound(operator, identities, kappa_sign, full_face=False):
    sign = _normalize_sign(kappa_sign)
    for ident in identities:
        if ident.bundle != operator.bundle:
            raise ValueError("identities and operator must live on one bundle")
        if not ident.is_pure_kappa:
            raise ValueError(f"identity {ident.provenance} is not pure kappa")
    target_keys = [key for key, _ in operator.coeffs]
    op_vec = [c for _, c in operator.coeffs]
    m = len(identities)
    t = len(target_keys)
    maps = [ident.coeff_map() for ident in identities]
    rows = [[cm.get(key, F(0)) for cm in maps] for key in target_keys]
    kappas = [ident.kappa_coeff for ident in identities]
    no_rewriting = f"no nonnegative rewriting of {operator.name} exists over this identity span"
    try:
        value, y = simplex_maximize(
            [-c for c in op_vec],
            [[row[j] for row in rows] for j in range(m)],
            [sign * kp for kp in kappas],
        )
    except LPUnboundedError:
        return NoCertificate(operator.bundle, operator.name, sign, no_rewriting)
    except LPInfeasibleError:
        try:
            simplex_maximize([F(0)] * (2 * m + t), _oracle_split_rows(rows, range(t)), op_vec)
        except LPInfeasibleError:
            return NoCertificate(operator.bundle, operator.name, sign, no_rewriting)
        raise InconsistencyError(
            "unbounded bound optimum; identity generation is inconsistent"
        ) from LPUnboundedError("the dual LP is infeasible and the primal is feasible")
    tight = [i for i in range(t) if y[i] != 0]
    slack_rows = [i for i in range(t) if y[i] == 0]
    tight_rows, tight_op = [rows[i] for i in tight], [op_vec[i] for i in tight]

    def residuals_of(lambdas):
        return [op - sum(a * l for a, l in zip(row, lambdas)) for op, row in zip(op_vec, rows)]

    lambdas = None
    if tight and len(tight) >= m:
        lambdas, _ = solve_linear_system(tight_rows, tight_op)
    if lambdas is None and full_face:
        lambdas = _oracle_l1_smallest(m, rows, op_vec, slack_rows)
    elif lambdas is None and m == 0:
        lambdas = []
    elif lambdas is None:
        lambdas = _oracle_l1_smallest(m, tight_rows, tight_op, [])
        if any(r < 0 for r in residuals_of(lambdas)):
            lambdas = _oracle_l1_smallest(m, rows, op_vec, slack_rows)
    residuals = residuals_of(lambdas)
    bound = operator.constant_kappa + sum(l * kp for l, kp in zip(lambdas, kappas))
    if sign * (bound - operator.constant_kappa) != -value:
        raise InconsistencyError("primal and dual optima differ")
    cert = BoundCertificate(
        bundle=operator.bundle,
        operator=operator.name,
        kappa_sign=sign,
        multipliers=tuple(zip(_identity_ids(identities), lambdas)),
        residuals=tuple(zip(target_keys, residuals)),
        bound=bound,
    )
    oracle_verify(cert, operator, identities)
    return cert


def outcome(solve):
    """(result, pivots, tie_breaks): result is ("cert", json, exact values),
    ("no-certificate", result) or ("error", class, message, cause class);
    pivots are the (row, column) pivots made outside the tie-break LPs, and
    tie_breaks the (m, rows, slack rows, lambda) of each tie-break LP.  A
    tie-break is compared by the lambda it returns, not by its pivots: the
    integer code starts it where the oracle runs phase 1."""
    pivots, tie_breaks, inside = [], [], []
    real = qkbw.simplex._pivot

    def spy(rows, d, r, c):
        if not inside:
            pivots.append((r, c))
        return real(rows, d, r, c)

    def tracked(l1_smallest):
        def run(m, rows, rhs, slack_rows):
            inside.append(True)
            try:
                lambdas = l1_smallest(m, rows, rhs, slack_rows)
            finally:
                inside.pop()
            assert all(type(v) is F for v in lambdas)
            tie_breaks.append((m, len(rows), len(slack_rows), lambdas))
            return lambdas

        return run

    with mock.patch.object(qkbw.simplex, "_pivot", spy), mock.patch.object(
        qkbw.bounds, "_l1_smallest", tracked(qkbw.bounds._l1_smallest)
    ), mock.patch.dict(globals(), _oracle_l1_smallest=tracked(_oracle_l1_smallest)):
        try:
            cert = solve()
        except Exception as exc:
            return ("error", type(exc), str(exc), type(exc.__cause__)), pivots, tie_breaks
    if cert.bound is None:
        assert type(cert) is NoCertificate
        return ("no-certificate", cert), pivots, tie_breaks
    exact = (cert.bound, cert.multipliers, cert.residuals)
    assert all(type(v) is F for v in (cert.bound, *dict(cert.multipliers).values()))
    assert all(type(v) is F for _, v in cert.residuals)
    return ("cert", cert.to_json_dict(), exact), pivots, tie_breaks


def assert_same_bound(operator, identities, sign, oracle_operator_spec=None):
    got = outcome(lambda: lp_max_bound(operator, identities, sign))
    want = outcome(
        lambda: oracle_lp_max_bound(oracle_operator_spec or operator, identities, sign)
    )
    assert got == want
    return got[0]


def assert_full_face_certificate(operator, identities, sign):
    """The certificate (or error) equals that of the full-face tie-break."""
    got, *_ = outcome(lambda: lp_max_bound(operator, identities, sign))
    want, *_ = outcome(lambda: oracle_lp_max_bound(operator, identities, sign, full_face=True))
    assert got == want


dominant_weights = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
        lambda e: SpnWeight(tuple(sorted(e, reverse=True)))
    )
)


@given(
    dominant_weights,
    st.integers(0, 4),
    st.sampled_from(OPERATOR_NAMES),
    st.sampled_from((1, -1)),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_real_bundles_match_fraction_oracle(rho, k, name, sign, hpn):
    """Each example runs on fresh contexts, so that the dual LP's phase 1 runs
    too: a context keeps the start it leaves per (hpn, sign), and a later
    call logs only its phase-2 pivots."""
    bundle = BundleLabel(k, rho)
    with mock.patch.dict(qkbw.identities._contexts, clear=True):
        operator = operator_coeffs(name, bundle)
        want_operator = oracle_operator(name, bundle)
        for field in ("name", "bundle", "coeffs", "constant_kappa"):
            assert getattr(operator, field) == getattr(want_operator, field)
        assert all(type(c) is F for _, c in operator.coeffs)
        identities = pure_kappa_identities(bundle, hpn=hpn)
        assert_same_bound(operator, identities, sign, want_operator)


@given(
    dominant_weights,
    st.integers(0, 4),
    st.sampled_from(OPERATOR_NAMES),
    st.sampled_from((1, -1)),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_real_bundles_keep_full_face_certificates(rho, k, name, sign, hpn):
    bundle = BundleLabel(k, rho)
    assert_full_face_certificate(
        operator_coeffs(name, bundle), pure_kappa_identities(bundle, hpn=hpn), sign
    )


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([rho for n in range(2, 6) for rho in weights_up_to(n, 4)]),
    st.integers(0, 4),
)
def test_operator_rows_are_in_lowest_terms_and_match_the_reference(rho, k):
    """Each built-in operator over every dominant rho of entry sum <= 4 is one
    integer row over a positive denominator that shares no factor with it."""
    bundle = BundleLabel(k, rho)
    for name in OPERATOR_NAMES:
        operator, want = operator_coeffs(name, bundle), oracle_operator(name, bundle)
        assert all(type(v) is int for v in (*operator.values, operator.denominator))
        assert operator.denominator > 0 and gcd(*operator.values, operator.denominator) == 1
        assert operator.coeffs == want.coeffs and operator.coeff_map() == dict(want.coeffs)
        assert operator.constant_kappa == want.constant_kappa


# Synthetic LPs over 2..6 targets: entries over denominators up to 50, zeros
# common, and copies (exact or scaled) of drawn identities, so that the
# identity set is often dependent and the face LP runs.
BUNDLE = BundleLabel(1, SpnWeight((0, 0)))
entries = st.one_of(
    st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=50)
)


def scaled(identity, factor):
    """factor times a pure-kappa identity."""
    factor = F(factor)
    return identity.replace(
        values=[v * factor.numerator for v in identity.values],
        kappa=identity.kappa * factor.numerator,
        denominator=identity.denominator * factor.denominator,
    )


@st.composite
def synthetic_problems(draw):
    t = draw(st.integers(2, 6))
    keys = [(1 if i % 2 == 0 else -1, i // 2 + 1) for i in range(t)]
    op, den = over_lcm(draw(entries) for _ in range(t))
    operator = OperatorSpec("synthetic", BUNDLE, keys, op, den)
    identities = []
    for j in range(draw(st.integers(1, 5))):
        coeffs = [draw(entries) for _ in keys]
        (*values, kappa), den = over_lcm([*coeffs, draw(entries)])
        identities.append(BWIdentity(BUNDLE, keys, values, kappa, den, (), f"i{j}"))
    for _ in range(draw(st.integers(0, 2))):
        source = draw(st.sampled_from(identities))
        identities.append(scaled(source, draw(st.sampled_from((1, 1, 2, F(-1, 3))))))
    order = draw(st.permutations(range(len(identities))))
    return operator, [identities[j] for j in order]


@given(synthetic_problems(), st.sampled_from((1, -1)))
@settings(max_examples=150, deadline=None)
def test_synthetic_problems_match_fraction_oracle(problem, sign):
    assert_same_bound(*problem, sign)


@given(synthetic_problems(), st.sampled_from((1, -1)))
@settings(max_examples=150, deadline=None)
def test_synthetic_problems_keep_full_face_certificates(problem, sign):
    assert_full_face_certificate(*problem, sign)


def test_a_tied_face_goes_to_the_two_phase_run():
    """Operator (1, 0, 0, -1), identities i0 = (0, 0, 0, -1) and i1 = (1, 0, 0,
    -1), every kappa 0: no target is tight, and the face LP's L1 optimum is
    not unique, as lambda = (1, 0) and (0, 1) both have L1 norm 1.  Its start
    without artificials ends at (1, 0) with a zero reduced cost, so the face
    LP goes to simplex_maximize, which picks (0, 1), for either sign."""
    keys = [(1, 1), (-1, 1), (1, 2), (-1, 2)]
    operator = OperatorSpec("synthetic", BUNDLE, keys, [1, 0, 0, -1], 1)
    identities = [
        BWIdentity(BUNDLE, keys, values, 0, 1, (), name)
        for name, values in (("i0", [0, 0, 0, -1]), ("i1", [1, 0, 0, -1]))
    ]
    real_unique, real_simplex = qkbw.bounds._unique_optimum, qkbw.bounds.simplex_maximize
    for sign in (1, -1):
        kept, runs = [], []

        def unique(start, cost):
            x = real_unique(start, cost)
            kept.append(x is not None)
            return x

        def simplex(*args):
            runs.append(len(args[1]))
            return real_simplex(*args)

        with mock.patch.object(qkbw.bounds, "_unique_optimum", unique), mock.patch.object(
            qkbw.bounds, "simplex_maximize", simplex
        ):
            cert = lp_max_bound(operator, identities, sign)
        assert (kept, runs) == ([True, False], [2, 4])  # the dual, then the face LP
        assert cert.multipliers == (("i0", 0), ("i1", 1)) and cert.bound == 0
        assert_same_bound(operator, identities, sign)
        assert_full_face_certificate(operator, identities, sign)


def tie_break_solutions(solve):
    """(m, x) for every tie-break LP that solve() runs through _l1_smallest: the
    x that _unique_optimum keeps, or else the x of the simplex_maximize run."""
    seen = []
    real_l1 = qkbw.bounds._l1_smallest
    real_unique, real_simplex = qkbw.bounds._unique_optimum, qkbw.bounds.simplex_maximize

    def l1_smallest(m, rows, rhs, slack_rows):
        def unique(start, cost):
            x = real_unique(start, cost)
            if x is not None:
                seen.append((m, x))
            return x

        def simplex(*args):
            value, x = real_simplex(*args)
            seen.append((m, x))
            return value, x

        with mock.patch.object(qkbw.bounds, "_unique_optimum", unique), mock.patch.object(
            qkbw.bounds, "simplex_maximize", simplex
        ):
            return real_l1(m, rows, rhs, slack_rows)

    with mock.patch.object(qkbw.bounds, "_l1_smallest", l1_smallest):
        try:
            solve()
        except InconsistencyError:
            pass
    return seen


def assert_split_pairs_apart(seen):
    """lambda_j = lambda+_j - lambda-_j, and at most one of the two is nonzero,
    so _l1_smallest reads lambda_j as x[j] or -x[m + j]."""
    for m, x in seen:
        assert len(x) >= 2 * m
        assert not any(x[j] and x[m + j] for j in range(m)), (m, x)


def test_split_pairs_apart_on_the_sweep_grid():
    seen = []
    for n, k, a, b, sign, _ in sweep_cases(range(2, 6), (1, -1)):
        bundle = lambda_ab_bundle(k, a, b, n)
        seen += tie_break_solutions(lambda: bound_for("hodge_laplacian", bundle, sign))
    assert seen
    assert_split_pairs_apart(seen)


@given(synthetic_problems(), st.sampled_from((1, -1)))
@settings(max_examples=100, deadline=None)
def test_split_pairs_apart_on_synthetic_problems(problem, sign):
    assert_split_pairs_apart(tie_break_solutions(lambda: lp_max_bound(*problem, sign)))


def verify_outcome(check, cert, operator, identities):
    try:
        check(cert, operator, identities)
    except InconsistencyError as exc:
        return str(exc)
    return None


def _mutated(cert, which, index, delta):
    """The certificate with one multiplier, one residual or the bound moved by delta."""
    if which == "bound":
        return cert.replace(bound=cert.bound + delta)
    if which == "negative":
        which, delta = "residuals", -1 - cert.residuals[index % len(cert.residuals)][1]
    items = list(getattr(cert, which))
    i = index % len(items)
    items[i] = (items[i][0], items[i][1] + delta)
    return cert.replace(**{which: tuple(items)})


mutations = st.tuples(
    st.sampled_from(("multipliers", "residuals", "negative", "bound")),
    st.integers(0, 20),
    st.one_of(st.just(F(0)), st.fractions(min_value=-2, max_value=2, max_denominator=12)),
)


def _assert_same_verdict(operator, identities, sign, mutation):
    try:
        cert = oracle_lp_max_bound(operator, identities, sign)
    except InconsistencyError:
        return
    if cert.bound is None:
        return
    which, index, delta = mutation
    if which == "multipliers" and not cert.multipliers:
        which = "bound"
    bad = _mutated(cert, which, index, delta)
    want = verify_outcome(oracle_verify, bad, operator, identities)
    got = verify_outcome(lambda c, o, i: c.verify(o, i), bad, operator, identities)
    assert got == want
    if delta == 0 and which != "negative":
        assert got is None


@given(
    dominant_weights,
    st.integers(0, 4),
    st.sampled_from(OPERATOR_NAMES),
    st.sampled_from((1, -1)),
    mutations,
)
@settings(max_examples=150, deadline=None)
def test_verify_matches_fraction_oracle_on_real_certificates(rho, k, name, sign, mutation):
    bundle = BundleLabel(k, rho)
    _assert_same_verdict(
        operator_coeffs(name, bundle), pure_kappa_identities(bundle), sign, mutation
    )


@given(synthetic_problems(), st.sampled_from((1, -1)), mutations)
@settings(max_examples=100, deadline=None)
def test_verify_matches_fraction_oracle_on_synthetic_certificates(problem, sign, mutation):
    _assert_same_verdict(*problem, sign, mutation)
