"""The integer summand table against the per-nu Fraction sums it replaced.

``oracle_eigenvalue``, ``oracle_hat`` and ``oracle_decompose`` are the moment
sums and the per-(N, nu) decomposition loop as they were before every moment
was read off one integer table: each term is a ``Fraction`` conformal weight
times a ``Fraction`` relative dimension from the Weyl oracle, summed per q.
They are kept here as a test-only reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkbw.casimir import (
    DEFAULT_Q_CAP,
    GradientTarget,
    casimir_eigenvalue,
    casimir_hat,
    casimir_report,
    decompose_bundle,
    relative_dimension_product,
    relative_dimension_weyl,
    sp1_conformal_weight,
    verify_recursion,
)
from qkbw.weights import BundleLabel, NonDominantError, SpnWeight, mu_shift, nu_indices

F = Fraction


def oracle_weight(rho, nu) -> Fraction:
    i = abs(nu)
    if nu > 0:
        return F(-(rho.entries[i - 1] - i + 1))
    return F(rho.entries[i - 1] - i + 2 * rho.n + 1)


def oracle_weight_hat(rho, nu) -> Fraction:
    return oracle_weight(rho, nu) - (rho.n + F(1, 2))


def oracle_eigenvalue(rho, q) -> Fraction:
    return sum(
        oracle_weight(rho, nu) ** q * relative_dimension_weyl(rho, nu) for nu in nu_indices(rho.n)
    )


def oracle_hat(rho, q) -> Fraction:
    return sum(
        oracle_weight_hat(rho, nu) ** q * relative_dimension_weyl(rho, nu)
        for nu in nu_indices(rho.n)
    )


def oracle_decompose(bundle):
    """The targets of ``decompose_bundle``, rebuilt for every (N, nu) separately."""
    rho, k = bundle.rho, bundle.k
    targets = []
    for N in (1, -1):
        for nu in nu_indices(rho.n):
            shifted = mu_shift(rho, nu)
            targets.append(
                GradientTarget(
                    N=N,
                    nu=nu,
                    target_k=k + N,
                    target_rho=shifted,
                    valid=(k + N >= 0) and shifted.is_dominant,
                    w=oracle_weight(rho, nu),
                    w_hat=oracle_weight_hat(rho, nu),
                    W=sp1_conformal_weight(k, N),
                    reldim=relative_dimension_weyl(rho, nu),
                )
            )
    return tuple(targets)


def _same(got, want):
    """Equal values of the same type (a Fraction must not come back as an int)."""
    return type(got) is type(want) and got == want


dominant_weights = st.integers(2, 7).flatmap(
    lambda n: st.lists(st.integers(0, 6), min_size=n, max_size=n).map(
        lambda entries: SpnWeight(tuple(sorted(entries, reverse=True)))
    )
)


@settings(max_examples=60, deadline=None)
@given(dominant_weights)
def test_moments_match_oracle(rho):
    want_c = [oracle_eigenvalue(rho, q) for q in range(DEFAULT_Q_CAP + 1)]
    want_ch = [oracle_hat(rho, q) for q in range(DEFAULT_Q_CAP + 1)]
    for q in range(DEFAULT_Q_CAP + 1):
        assert _same(casimir_eigenvalue(rho, q), want_c[q]), q
        assert _same(casimir_hat(rho, q), want_ch[q]), q
    report = casimir_report(rho, q_max=DEFAULT_Q_CAP)
    assert report.values == tuple(zip(range(DEFAULT_Q_CAP + 1), want_c, want_ch))
    assert all(type(c) is F and type(ch) is F for _, c, ch in report.values)
    assert verify_recursion(rho, q_max=DEFAULT_Q_CAP) == []


@settings(max_examples=60, deadline=None)
@given(dominant_weights)
def test_relative_dimensions(rho):
    weyl = [relative_dimension_weyl(rho, nu) for nu in nu_indices(rho.n)]
    assert sum(weyl) == 2 * rho.n
    assert [relative_dimension_product(rho, nu) for nu in nu_indices(rho.n)] == weyl


@settings(max_examples=60, deadline=None)
@given(dominant_weights, st.integers(0, 4))
def test_decompose_bundle_matches_oracle(rho, k):
    bundle = BundleLabel(k, rho)
    got = decompose_bundle(bundle)
    want = oracle_decompose(bundle)
    assert got.bundle == bundle
    assert len(got.targets) == len(want) == 4 * rho.n
    for mine, theirs in zip(got.targets, want):
        for field in GradientTarget.__dataclass_fields__:
            assert _same(getattr(mine, field), getattr(theirs, field)), (mine.key, field)
    c, ch = got.moments(6)
    for q in range(7):
        assert _same(c[q], oracle_eigenvalue(rho, q)), q
        assert _same(ch[q], oracle_hat(rho, q)), q


@pytest.mark.parametrize(
    "call",
    [
        lambda rho: casimir_eigenvalue(rho, 2),
        lambda rho: casimir_hat(rho, 2),
        lambda rho: casimir_report(rho, 4),
        lambda rho: verify_recursion(rho),
    ],
    ids=["casimir_eigenvalue", "casimir_hat", "casimir_report", "verify_recursion"],
)
def test_non_dominant_weight_raises(call):
    for entries in ((0, 1), (1, 2, 0), (1, -1)):
        with pytest.raises(NonDominantError):
            call(SpnWeight(entries))


@pytest.mark.parametrize("moment", [casimir_eigenvalue, casimir_hat])
def test_negative_q_raises(moment):
    with pytest.raises(ValueError, match="nonnegative"):
        moment(SpnWeight((1, 0)), -1)
