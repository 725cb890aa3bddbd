"""The label rules owned by qkbw.weights, as seen through every public entry.

Bundle labels, the closed forms and the moment orders q and q_max take true
integers only (operator.index):
a float, str or Fraction raises TypeError, even when it is integral.  An
integer out of range raises the message each entry has always raised, with
its checks in the same order.  The oracles below name the class each entry
raised before the rules moved to weights; the four label rules now all raise
ParameterRangeError, a ValueError, so pytest.raises checks the subclass.
A kappa sign is "+", "-" or an integer +-1 read the same way; anything else
raises ValueError.
"""

import re
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkbw
import qkbw.bounds
from qkbw.bounds import (
    closed_form_bound,
    connection_laplacian_bound,
    dirac_bound,
    harmonic_classification,
    hpn_first_eigenvalue,
    lp_max_bound,
    twistor_kernel_analysis,
)
from qkbw.casimir import (
    casimir_eigenvalue,
    casimir_hat,
    casimir_report,
    closed_form_c2_lambda_ab,
    closed_form_c4_lambda_ab,
    conformal_weight,
    lambda_ab_bundle,
    relative_dimension_weyl,
    sp1_conformal_weight,
    table1_row,
    verify_recursion,
)
from qkbw.identities import (
    identity_bochner1,
    identity_bochner2,
    operator_coeffs,
    pure_kappa_identities,
)
from qkbw.selfcheck import dominant_weights
from qkbw.weights import (
    BundleLabel,
    NonDominantError,
    ParameterRangeError,
    SpnWeight,
    decompose_rho_tensor_E,
    mu_shift,
)


class Idx:
    """A true integer that is not an int: it only has __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


NON_INTEGERS = st.one_of(
    st.floats(),
    st.integers(-3, 8).map(float),
    st.fractions(),
    st.integers(-3, 8).map(Fraction),
    st.just(Fraction(2)),
    st.text(max_size=3),
    st.integers(-3, 8).map(str),
)
SMALL = st.integers(-2, 7)


def _ab(a, b, n, cls=ValueError):
    if not 0 <= b <= a <= n:
        return cls, f"need 0 <= b <= a <= n, got a={a}, b={b}, n={n}"


def _rank(n):
    if n < 2:
        return ParameterRangeError, f"rank must be at least 2, got n={n}"


def _ab_rank(a, b, n):
    return _ab(a, b, n) or _rank(n)


def _closed_form_bound_error(k, a, b, n):
    k_range = f"need 0 <= k <= 2n-a-b, got k={k}"
    return (
        _ab(a, b, n, ParameterRangeError)
        or (not 0 <= k <= 2 * n - a - b and (ParameterRangeError, k_range))
        or _rank(n)
    )


def _connection_error(k, a, n):
    return (
        (not 0 <= a <= n and (ParameterRangeError, f"need 0 <= a <= n, got a={a}, n={n}"))
        or (not 0 <= k <= 2 * n - a and (ParameterRangeError, f"need 0 <= k <= 2n-a, got k={k}"))
        or _rank(n)
    )


def _dirac_error(k, n):
    return (not 0 <= k <= n and (ParameterRangeError, f"need 0 <= k <= n, got k={k}")) or _rank(n)


def _hpn_error(k, a, b, n):
    stated = f"first-eigenvalue formula is stated for k >= 2, got k={k}"
    return (
        (k < 2 and (ParameterRangeError, stated))
        or _ab(a, b, n, ParameterRangeError)
        or _rank(n)
    )


def _table1_error(a, b, n, nu):
    interior = f"the five-row table needs 0 < b < a < n, got a={a}, b={b}, n={n}"
    rows = f"nu={nu} is not one of the five tabulated rows for a={a}, b={b}"
    return (not 0 < b < a < n and (ParameterRangeError, interior)) or (
        nu not in (1, b + 1, a + 1, -b, -a) and (ValueError, rows)
    )


def _sp1_error(k, N):
    if k < 0:
        return ValueError, f"Sp(1) weight must be nonnegative, got k={k}"
    if N not in (1, -1):
        return ValueError, f"N must be +1 or -1, got {N}"


# name: (call on the integer arguments, their count, the error the call raises
# or None).  Each error is its class and message, in the order of the checks.
CLOSED_FORMS = {
    "closed_form_bound": (lambda *x: closed_form_bound(*x, "+"), 4, _closed_form_bound_error),
    "closed_form_bound-": (lambda *x: closed_form_bound(*x, "-"), 4, _closed_form_bound_error),
    "connection_laplacian_bound": (
        lambda *x: connection_laplacian_bound(*x, "-"), 3, _connection_error
    ),
    "dirac_bound": (dirac_bound, 2, _dirac_error),
    "hpn_first_eigenvalue": (hpn_first_eigenvalue, 4, _hpn_error),
    "closed_form_c2_lambda_ab": (closed_form_c2_lambda_ab, 3, _ab_rank),
    "closed_form_c4_lambda_ab": (closed_form_c4_lambda_ab, 3, _ab_rank),
    "table1_row": (table1_row, 4, _table1_error),
    "sp1_conformal_weight": (sp1_conformal_weight, 2, _sp1_error),
}


def _raises(call, error):
    cls, message = error
    with pytest.raises(cls, match=f"^{re.escape(message)}$"):
        call()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(CLOSED_FORMS)))
def test_closed_forms_read_true_integers(data, name):
    call, arity, error = CLOSED_FORMS[name]
    args = data.draw(st.lists(SMALL, min_size=arity, max_size=arity))
    expected_error = error(*args)
    if expected_error:
        _raises(lambda: call(*args), expected_error)
    else:
        assert call(*map(Idx, args)) == call(*args)
    spot = data.draw(st.integers(0, arity - 1))
    bad = list(args)
    bad[spot] = data.draw(NON_INTEGERS)
    with pytest.raises(TypeError):
        call(*bad)


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(SMALL, max_size=6), k=SMALL, data=st.data())
def test_labels_read_true_integers(entries, k, data):
    if len(entries) < 2:
        rank = f"rank must be at least 2, got n={len(entries)}"
        _raises(lambda: SpnWeight(tuple(entries)), (ValueError, rank))
        return
    rho = SpnWeight(tuple(entries))
    assert SpnWeight(tuple(map(Idx, entries))) == rho
    assert all(type(e) is int for e in rho.entries)
    bad = list(entries)
    bad[data.draw(st.integers(0, len(entries) - 1))] = data.draw(NON_INTEGERS)
    with pytest.raises(TypeError):
        SpnWeight(tuple(bad))
    with pytest.raises(TypeError):
        BundleLabel(data.draw(NON_INTEGERS), rho)
    if k < 0:
        sp1 = f"Sp(1) weight must be nonnegative, got k={k}"
        _raises(lambda: BundleLabel(k, rho), (ValueError, sp1))
    elif not rho.is_dominant:
        dominant = f"weight {rho} is not dominant integral"
        _raises(lambda: BundleLabel(k, rho), (NonDominantError, dominant))
    else:
        assert BundleLabel(Idx(k), rho) == BundleLabel(k, rho)
        assert type(BundleLabel(Idx(k), rho).k) is int


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(SMALL, min_size=2, max_size=6), nu=st.integers(-8, 8), data=st.data())
def test_mu_shift_reads_a_true_integer(entries, nu, data):
    rho = SpnWeight(tuple(entries))
    if nu == 0 or abs(nu) > rho.n:
        message = f"shift index must satisfy 1 <= |nu| <= {rho.n}, got {nu}"
        _raises(lambda: mu_shift(rho, nu), (ValueError, message))
    else:
        assert mu_shift(rho, Idx(nu)) == mu_shift(rho, nu)
    with pytest.raises(TypeError):
        mu_shift(rho, data.draw(NON_INTEGERS))


STRICT_INPUTS = {
    "float-entry": lambda: SpnWeight((2.7, 1)),
    "str-entries": lambda: SpnWeight(("3", "1")),
    "integral-fraction-entry": lambda: SpnWeight((Fraction(2), 1)),
    "fraction-k": lambda: BundleLabel(Fraction(5, 2), SpnWeight((2, 1))),
    "float-k": lambda: BundleLabel(2.0, SpnWeight((2, 1))),
    "closed_form_bound": lambda: closed_form_bound(Fraction(5, 2), 1, 0, 3, "+"),
    "hpn_first_eigenvalue": lambda: hpn_first_eigenvalue(Fraction(5, 2), 1, 0, 3),
    "dirac_bound": lambda: dirac_bound(Fraction(1, 2), 3),
    "connection_laplacian_bound": lambda: connection_laplacian_bound(Fraction(1, 2), 1, 3, "+"),
    "bound_for": lambda: qkbw.bound_for(
        "hodge_laplacian", BundleLabel(Fraction(5, 2), SpnWeight((2, 1))), "+"
    ),
}


@pytest.mark.parametrize("call", STRICT_INPUTS.values(), ids=STRICT_INPUTS)
def test_non_integer_labels_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_bool_reads_as_int():
    assert SpnWeight((True, False)) == SpnWeight((1, 0))
    assert [type(e) for e in SpnWeight((True, False)).entries] == [int, int]
    label = BundleLabel(True, SpnWeight((1, 0)))
    assert label.k == 1 and type(label.k) is int
    assert str(label) == "S^1(H) (x) V_(1,0) [n=2]"


SIGN_BUNDLE = BundleLabel(2, SpnWeight((2, 0)))
SIGN_ENTRIES = {
    "closed_form_bound": lambda sign: closed_form_bound(2, 2, 0, 2, sign),
    "connection_laplacian_bound": lambda sign: connection_laplacian_bound(1, 1, 2, sign),
    "harmonic_classification": lambda sign: harmonic_classification(2, sign),
    "bound_for": lambda sign: qkbw.bound_for("hodge_laplacian", SIGN_BUNDLE, sign),
    "lp_max_bound": lambda sign: lp_max_bound(
        operator_coeffs("connection_laplacian", SIGN_BUNDLE),
        pure_kappa_identities(SIGN_BUNDLE),
        sign,
    ),
}
SIGNS = (("+", "+"), ("-", "-"), (1, "+"), (-1, "-"), (True, "+"), (Idx(1), "+"), (Idx(-1), "-"))
NOT_SIGNS = (
    1.0, -1.0, Fraction(1), Fraction(-1), Decimal(1), Decimal(-1),
    "1", "+1", "", "both", 0, 2, -2, False, Idx(0), None,
)


@pytest.mark.parametrize("call", SIGN_ENTRIES.values(), ids=SIGN_ENTRIES)
def test_kappa_sign_is_plus_minus_or_an_integer_unit(call):
    """"+", "-" and +-1 through operator.index (True is 1) are the signs; a
    float, a Fraction or a Decimal that equals one is not."""
    for given, sign in SIGNS:
        assert call(given) == call(sign)
    for value in NOT_SIGNS:
        _raises(lambda: call(value), (ValueError, f"kappa_sign must be '+' or '-', got {value!r}"))


@pytest.mark.parametrize("given, sign", [(True, 1), (Idx(-1), -1)])
def test_certificates_record_the_sign_as_an_int(given, sign):
    cert = qkbw.bound_for("hodge_laplacian", SIGN_BUNDLE, given)
    assert cert.kappa_sign == sign and type(cert.kappa_sign) is int
    same = qkbw.bound_for("hodge_laplacian", SIGN_BUNDLE, sign)
    assert cert.to_json_dict() == same.to_json_dict()


ORDER_BUNDLE = BundleLabel(1, SpnWeight((1, 0)))
MOMENT_ORDERS = {
    "identity_bochner1": lambda q: identity_bochner1(ORDER_BUNDLE, q),
    "identity_bochner2": lambda q: identity_bochner2(ORDER_BUNDLE, q),
    "casimir_eigenvalue": lambda q: casimir_eigenvalue(ORDER_BUNDLE.rho, q),
    "casimir_hat": lambda q: casimir_hat(ORDER_BUNDLE.rho, q),
    "casimir_report": lambda q_max: casimir_report(ORDER_BUNDLE.rho, q_max),
    "verify_recursion": lambda q_max: verify_recursion(ORDER_BUNDLE.rho, q_max),
}


@pytest.mark.parametrize("call", MOMENT_ORDERS.values(), ids=MOMENT_ORDERS)
def test_moment_orders_read_true_integers(call):
    assert call(True) == call(1)
    for q in (1.0, Fraction(1)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call(q)


def test_parameter_range_error_has_one_home():
    assert qkbw.ParameterRangeError is qkbw.bounds.ParameterRangeError is ParameterRangeError
    assert issubclass(ParameterRangeError, ValueError)


@pytest.mark.parametrize("n", range(2, 7))
def test_shifts_equal_checked_weights(n):
    for rho in dominant_weights(n, 4):
        for nu, listed in decompose_rho_tensor_E(rho):
            for shifted in (listed, mu_shift(rho, nu)):
                checked = SpnWeight(shifted.entries)
                assert shifted == checked and hash(shifted) == hash(checked)
                assert type(shifted.entries) is tuple


@pytest.mark.parametrize("n", range(-1, 7))
def test_table1_row_holds_on_the_interior_only(n):
    interior = 0
    for a in range(-1, n + 2):
        for b in range(-1, a + 2):
            rows = (1, b + 1, a + 1, -b, -a)
            if 0 < b < a < n:
                interior += 1
                rho = lambda_ab_bundle(0, a, b, n).rho
                for nu in rows:
                    oracle = conformal_weight(rho, nu), relative_dimension_weyl(rho, nu)
                    assert table1_row(a, b, n, nu) == oracle, (a, b, n, nu)
                continue
            message = f"the five-row table needs 0 < b < a < n, got a={a}, b={b}, n={n}"
            for nu in (0, *rows):
                _raises(lambda: table1_row(a, b, n, nu), (ParameterRangeError, message))
    assert interior == comb(max(n - 1, 0), 2)


@pytest.mark.parametrize("n", [0, 1])
def test_rank_below_two_is_named(n):
    rank = (ParameterRangeError, f"rank must be at least 2, got n={n}")
    for a, b in ((0, 0), (n, 0), (n, n)):
        _raises(lambda: closed_form_c2_lambda_ab(a, b, n), rank)
        _raises(lambda: closed_form_c4_lambda_ab(a, b, n), rank)
    _raises(lambda: twistor_kernel_analysis(0, n), rank)
    # the k rule is checked first and keeps its message
    _raises(lambda: twistor_kernel_analysis(-1, n), (ParameterRangeError, "need k >= 0, got k=-1"))
