"""Metamorphic laws of the bound: relations between the outcomes of related
LPs that any correct solver keeps, so they need no second solver.

Over every dominant rho of entry sum <= 4 with n = 2..4, k = 0..4, the four
built-in operators and both signs of kappa:

- scaling: the operator times a rational c > 0 has the bound times c;
- translation: the operator plus mu times pure-kappa identity i has the
  bound plus mu * kappa_i, kappa_i the identity's kappa coefficient;
- hpn: sign * bound with hpn is at least sign * bound without, and a
  certificate without hpn implies one with it;
- identity order: lp_max_bound on a shuffled identity list, which builds its
  own identity side, gives the bound that bound_for gives from the side it
  keeps.

Each law keeps the outcome class too: a NoCertificate on one side is a
NoCertificate on the other.  The changed operators are over denominators
that need not divide 2n, so lp_max_bound builds their side over them.
"""

from fractions import Fraction
from math import lcm

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkbw.bounds import bound_for, lp_max_bound
from qkbw.identities import OPERATOR_NAMES, OperatorSpec, operator_coeffs, pure_kappa_identities
from qkbw.selfcheck import dominant_weights
from qkbw.weights import BundleLabel

CASES = st.tuples(
    st.builds(
        BundleLabel,
        st.integers(0, 4),
        st.sampled_from([rho for n in range(2, 5) for rho in dominant_weights(n, 4)]),
    ),
    st.sampled_from(OPERATOR_NAMES),
    st.sampled_from((1, -1)),
)
POSITIVE = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
NONZERO = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)) | st.builds(
    Fraction, st.integers(-9, -1), st.integers(1, 9)
)
LAWS = settings(max_examples=150, deadline=None)


def rebuilt(operator, values):
    """The operator with the given Fraction values over its targets."""
    den = lcm(*(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    return OperatorSpec(operator.name, operator.bundle, operator.targets, ints, den)


@given(CASES, POSITIVE)
@LAWS
def test_scaling_the_operator_scales_the_bound(case, c):
    bundle, name, sign = case
    want = bound_for(name, bundle, sign)
    operator = operator_coeffs(name, bundle)
    scaled = rebuilt(operator, [c * Fraction(v, operator.denominator) for v in operator.values])
    got = lp_max_bound(scaled, pure_kappa_identities(bundle), sign)
    assert type(got) is type(want)
    if want.bound is not None:
        assert got.bound == c * want.bound


@given(CASES, NONZERO, st.data())
@LAWS
def test_translating_by_an_identity_shifts_the_bound(case, mu, data):
    bundle, name, sign = case
    identities = pure_kappa_identities(bundle)
    assume(identities)
    ident = data.draw(st.sampled_from(identities))
    want = bound_for(name, bundle, sign)
    operator = operator_coeffs(name, bundle)
    shifted = rebuilt(
        operator,
        [
            Fraction(v, operator.denominator) + mu * Fraction(w, ident.denominator)
            for v, w in zip(operator.values, ident.values)
        ],
    )
    got = lp_max_bound(shifted, identities, sign)
    assert type(got) is type(want)
    if want.bound is not None:
        assert got.bound == want.bound + mu * ident.kappa_coeff


@given(CASES)
@LAWS
def test_hpn_never_gives_a_worse_bound(case):
    bundle, name, sign = case
    plain, hpn = bound_for(name, bundle, sign), bound_for(name, bundle, sign, hpn=True)
    if plain.bound is not None:
        assert hpn.bound is not None and sign * hpn.bound >= sign * plain.bound


@given(CASES, st.booleans(), st.data())
@LAWS
def test_identity_order_does_not_change_the_bound(case, hpn, data):
    bundle, name, sign = case
    want = bound_for(name, bundle, sign, hpn=hpn)
    shuffled = data.draw(st.permutations(pure_kappa_identities(bundle, hpn=hpn)))
    got = lp_max_bound(operator_coeffs(name, bundle), shuffled, sign)
    assert type(got) is type(want) and got.bound == want.bound
