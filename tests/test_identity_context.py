"""The integer identity context against the Fraction builders it replaced.

``oracle_bw1`` .. ``oracle_bw6``, ``oracle_bochner1``, ``oracle_bochner2``,
``oracle_theorem_family``, ``oracle_simplify`` and ``oracle_pure_kappa`` are
the identity builders as they were before the per-call context: every
coefficient polynomial is evaluated in ``Fraction`` arithmetic on the
``Fraction`` weights of each target, read from
``test_casimir_kernel.oracle_decompose``, and the curvature rules run on
fully built identities.  c_2 and c_4 are ``Fraction`` sums of w^q * reldim
over the N = +1 targets; the property checks them against
``casimir_eigenvalue`` and the closed forms.  The families take c_hat from
``casimir_hat`` and evaluate on ``w_hat``.  They are kept here as a
test-only reference, and they build ``Reference`` tuples of Fractions, not
``BWIdentity`` records, so that no integer row of the package is involved.
Each ``BWIdentity`` must be an integer row in lowest terms whose Fraction
views equal the reference.
"""

from fractions import Fraction
from math import gcd
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkbw import bounds, casimir, identities
from qkbw.casimir import (
    DecompositionTable,
    casimir_eigenvalue,
    casimir_hat,
    closed_form_c2_lambda_ab,
    closed_form_c4_lambda_ab,
    decompose_bundle,
    lambda_ab_bundle,
)
from qkbw.identities import (
    HPN_RULES,
    OPERATOR_NAMES,
    STANDARD_RULES,
    BWIdentity,
    CurvatureTerm,
    InapplicableIdentityError,
    InconsistencyError,
    Rule,
    RuleShapeError,
    apply_rule,
    identity_bochner1,
    identity_bochner2,
    operator_coeffs,
    printed_identities,
    printed_identity,
    pure_kappa_identities,
    theorem_family,
)
from qkbw.selfcheck import dominant_weights
from qkbw.weights import BundleLabel, SpnWeight, lambda_ab_weight

from test_casimir_kernel import oracle_decompose

F = Fraction


class Reference(NamedTuple):
    """An identity as the Fraction data that the oracles build."""

    bundle: BundleLabel
    coeffs: tuple  # of ((N, nu), Fraction)
    kappa_coeff: Fraction
    curvature_terms: tuple
    provenance: str

    @property
    def is_pure_kappa(self):
        return not self.curvature_terms


def valid_targets(table):
    """The oracle's valid targets of the table's bundle over the shifts the
    table holds (none for a hand-built table without rows)."""
    held = {nu for nu, _, _, _ in table.rows}
    return [t for t in oracle_decompose(table.bundle) if t.valid and t.nu in held]


def oracle_merge(terms):
    acc = {}
    for t in terms:
        acc[t.key] = acc.get(t.key, F(0)) + t.coefficient
    return tuple(
        CurvatureTerm(power=p, hatted=h, coefficient=c) for (h, p), c in sorted(acc.items()) if c != 0
    )


def oracle_build(bundle, table, coeff_of, kappa, terms, provenance):
    return Reference(
        bundle,
        tuple(((t.N, t.nu), F(coeff_of(t))) for t in valid_targets(table)),
        F(kappa),
        oracle_merge(terms),
        provenance,
    )


def oracle_moment(table, q):
    """c_q as the Fraction sum of w^q * reldim over the N = +1 valid targets."""
    return sum((t.w**q * t.reldim for t in valid_targets(table) if t.N == 1), F(0))


R1 = (CurvatureTerm(power=1, hatted=False, coefficient=F(1)),)
R3 = (CurvatureTerm(power=3, hatted=False, coefficient=F(1)),)


def oracle_sum(bundle, table):
    return oracle_build(bundle, table, lambda t: 1, 0, (), "sum")


def oracle_bw1(bundle, table):
    n = bundle.n
    kappa = oracle_moment(table, 2) / (8 * n * (n + 2))
    return oracle_build(bundle, table, lambda t: t.w, kappa, R1, "bw1")


def oracle_bw2(bundle, table):
    n, c2, c4 = bundle.n, oracle_moment(table, 2), oracle_moment(table, 4)

    def coeff(t):
        w = t.w
        return c2 / 2 + (n + 1) * (2 * n + 1) * w - (2 * n + 1) * w**2 + w**3

    return oracle_build(bundle, table, coeff, c4 / (8 * n * (n + 2)), R3, "bw2")


def oracle_bw3(bundle, table):
    if bundle.k == 0:
        raise InapplicableIdentityError("family is vacuous on k = 0 bundles")
    n, k = bundle.n, bundle.k
    return oracle_build(bundle, table, lambda t: t.W, F(k * (k + 2), 4 * (n + 2)), (), "bw3")


def oracle_bw4(bundle, table):
    if bundle.k == 0:
        raise InapplicableIdentityError("family is vacuous on k = 0 bundles")
    n, k = bundle.n, bundle.k
    kappa = F(k * (k + 2)) * oracle_moment(table, 2) / (4 * n * (n + 2))
    return oracle_build(
        bundle, table, lambda t: 2 * t.W * (t.w**2 - (n + 1) * t.w), kappa, (), "bw4"
    )


def oracle_bw5(bundle, table):
    if bundle.k == 0:
        raise InapplicableIdentityError("family is vacuous on k = 0 bundles")
    n, k = bundle.n, bundle.k
    c2, c4 = oracle_moment(table, 2), oracle_moment(table, 4)

    def coeff(t):
        w = t.w
        return t.W * (2 * w * (w - n - 1) * (w**2 - (2 * n + 1) * w + 2 * n + 1) + (n + w) * c2)

    kappa = F(k * (k + 2)) * c4 / (4 * n * (n + 2))
    return oracle_build(bundle, table, coeff, kappa, (), "bw5")


def oracle_bw6(a, b, k, n, table):
    bundle = lambda_ab_bundle(k, a, b, n)
    c2, c4 = oracle_moment(table, 2), oracle_moment(table, 4)

    def coeff(t):
        w = t.w
        return (w + 2) * (c2 + 4 * w**2 - 8 * n * w - 12 * w)

    kappa = (-4 * (2 * n**2 + 7 * n + 7) * c2 + c2**2 + 4 * c4) / (8 * n * (n + 2))
    return oracle_build(bundle, table, coeff, kappa, (), "bw6")


def oracle_bochner1(bundle, q, table):
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    n = bundle.n
    ch = [casimir_hat(bundle.rho, p) for p in range(2 * q + 2)]

    def coeff(t):
        return sum((-1) ** p * ch[2 * q - 1 - p] * t.w_hat**p for p in range(2 * q))

    kappa = (ch[2 * q + 1] + F(2 * n + 1, 2) * ch[2 * q]) / (4 * n * (n + 2))
    terms = (CurvatureTerm(power=2 * q, hatted=True, coefficient=F(2)),)
    return oracle_build(bundle, table, coeff, kappa, terms, f"bochner1({q})")


def oracle_bochner2(bundle, q, table):
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    if bundle.k == 0:
        raise InapplicableIdentityError("family is vacuous on k = 0 bundles")
    n, k = bundle.n, bundle.k
    ch = [casimir_hat(bundle.rho, p) for p in range(2 * q + 1)]

    def coeff(t):
        alternating = sum((-1) ** p * ch[2 * q - 1 - p] * t.w_hat**p for p in range(2 * q))
        return t.W * (2 * t.w_hat ** (2 * q) - alternating)

    kappa = F(k * (k + 2)) * ch[2 * q] / (4 * n * (n + 2))
    return oracle_build(bundle, table, coeff, kappa, (), f"bochner2({q})")


def oracle_theorem_family(bundle, table):
    count = table.summand_count
    if bundle.k == 0:
        return [oracle_bochner1(bundle, q, table) for q in range(1, count // 2 + 1)]
    return [oracle_bochner1(bundle, q, table) for q in range(1, count // 4 + 1)] + [
        oracle_bochner2(bundle, q, table) for q in range((count - 2) // 4 + 1)
    ]


def oracle_applicable(rule, bundle):
    shape = bundle.rho.lambda_ab_shape()
    if rule is Rule.HPN:
        return True
    if rule is Rule.CUBIC_REDUCTION:
        return shape is not None
    return shape is not None and shape[1] == 0


def oracle_apply(identity, rule):
    terms = identity.curvature_terms
    if rule is Rule.HPN:
        new_terms = ()
    elif rule is Rule.CUBIC_REDUCTION:
        a, b = identity.bundle.rho.lambda_ab_shape()
        n = identity.bundle.n
        scalar = F(2 * n**2 + 7 * n + 7) - closed_form_c2_lambda_ab(a, b, n) / 4
        new_terms = oracle_merge(
            CurvatureTerm(1, False, t.coefficient * scalar) if (not t.hatted and t.power == 3) else t
            for t in terms
        )
    else:
        new_terms = oracle_merge(t for t in terms if not (not t.hatted and t.power == 1))
    return Reference(
        identity.bundle, identity.coeffs, identity.kappa_coeff, new_terms, identity.provenance
    )


def simplify_curvature(identity, rules):
    """The identity after the rule pass that the printed inventory runs."""
    bundle = identity.bundle
    terms = identities._simplified_terms(
        identity.curvature_terms, rules, bundle.rho.lambda_ab_shape(), bundle.n
    )
    return identity.replace(curvature_terms=terms)


def oracle_simplify(identity, rules):
    for rule in (Rule.HPN, Rule.CUBIC_REDUCTION, Rule.PRIMITIVE_FORM):
        if rule in rules and oracle_applicable(rule, identity.bundle):
            identity = oracle_apply(identity, rule)
    return identity


def oracle_printed(bundle, hpn, table):
    """The candidates of ``qkbw bw`` (without the sum row), each simplified."""
    candidates = [oracle_bw1(bundle, table), oracle_bw2(bundle, table)]
    if bundle.k != 0:
        candidates += [f(bundle, table) for f in (oracle_bw3, oracle_bw4, oracle_bw5)]
    shape = bundle.rho.lambda_ab_shape()
    if shape is not None:
        candidates.append(oracle_bw6(shape[0], shape[1], bundle.k, bundle.n, table))
    rules = HPN_RULES if hpn else STANDARD_RULES
    return [oracle_simplify(cand, rules) for cand in candidates]


def oracle_pure_kappa(bundle, hpn, table):
    out = []
    for ident in oracle_printed(bundle, hpn, table):
        if not ident.is_pure_kappa:
            continue
        if all(c == 0 for _, c in ident.coeffs):
            if ident.kappa_coeff != 0:
                raise InconsistencyError(
                    f"identity {ident.provenance} reduced to 0 = kappa-multiple"
                )
            continue
        out.append(ident)
    return out


def _outcome(call, *args):
    try:
        return call(*args)
    except (ValueError, InconsistencyError) as exc:
        return (type(exc), str(exc))


def assert_lowest_terms(*row, denominator):
    """An integer row over a positive denominator that no common factor divides."""
    assert all(type(v) is int for v in (*row, denominator))
    assert denominator > 0 and gcd(*row, denominator) == 1


def _assert_same_identity(got, want):
    """An integer row in lowest terms whose views equal want field by field,
    every coefficient a Fraction."""
    assert type(got) is BWIdentity
    assert_lowest_terms(*got.values, got.kappa, denominator=got.denominator)
    assert got.bundle == want.bundle
    assert got.provenance == want.provenance
    assert list(got.targets) == [key for key, _ in want.coeffs]
    for (key, mine), (_, theirs) in zip(got.coeffs, want.coeffs):
        assert type(mine) is F and mine == theirs, (got.provenance, key)
    assert got.coeff_map() == dict(want.coeffs)
    assert type(got.kappa_coeff) is F and got.kappa_coeff == want.kappa_coeff
    assert got.curvature_terms == want.curvature_terms
    assert all(type(t.coefficient) is F for t in got.curvature_terms)


def _assert_same_outcome(got, want):
    if type(want) is tuple:  # (error class, message)
        assert got == want
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for mine, theirs in zip(got, want):
            _assert_same_identity(mine, theirs)
    else:
        _assert_same_identity(got, want)


def weights(n_max, entry_max):
    """Dominant weights with n = 2..n_max: general ones with entries <= entry_max,
    and the (2_b,1_(a-b)) shapes."""
    general = st.integers(2, n_max).flatmap(
        lambda n: st.lists(st.integers(0, entry_max), min_size=n, max_size=n).map(
            lambda entries: SpnWeight(tuple(sorted(entries, reverse=True)))
        )
    )
    shapes = st.integers(2, n_max).flatmap(
        lambda n: st.integers(0, n).flatmap(
            lambda a: st.integers(0, a).map(lambda b: lambda_ab_weight(a, b, n))
        )
    )
    return st.one_of(general, shapes)


@settings(max_examples=120, deadline=None)
@given(weights(7, 6), st.integers(0, 4), st.booleans())
def test_identities_match_oracle(rho, k, hpn):
    bundle = BundleLabel(k, rho)
    table = decompose_bundle(bundle)
    shape = rho.lambda_ab_shape()
    for q, closed_form in ((2, closed_form_c2_lambda_ab), (4, closed_form_c4_lambda_ab)):
        assert oracle_moment(table, q) == casimir_eigenvalue(rho, q)
        if shape is not None:
            assert oracle_moment(table, q) == closed_form(shape[0], shape[1], rho.n)
    want = _outcome(oracle_pure_kappa, bundle, hpn, table)
    for _ in range(2):  # the kept set on the call after the first
        _assert_same_outcome(_outcome(pure_kappa_identities, bundle, hpn), want)
    _assert_same_outcome(printed_identities(bundle, hpn)[1:], oracle_printed(bundle, hpn, table))
    pairs = [
        ("bw1", oracle_bw1),
        ("bw2", oracle_bw2),
        ("bw3", oracle_bw3),
        ("bw4", oracle_bw4),
        ("bw5", oracle_bw5),
    ]
    for id, oracle in pairs:
        want = _outcome(oracle, bundle, table)
        _assert_same_outcome(_outcome(printed_identity, bundle, id), want)
    if shape is not None:
        a, b = shape
        _assert_same_outcome(
            printed_identity(bundle, "bw6"), oracle_bw6(a, b, k, rho.n, table)
        )
    for q in range(-1, 4):
        for public, oracle in ((identity_bochner1, oracle_bochner1), (identity_bochner2, oracle_bochner2)):
            want = _outcome(oracle, bundle, q, table)
            _assert_same_outcome(_outcome(public, bundle, q), want)
    _assert_same_outcome(theorem_family(bundle), oracle_theorem_family(bundle, table))
    rules = HPN_RULES if hpn else STANDARD_RULES
    for id, oracle in (("bw1", oracle_bw1), ("bw2", oracle_bw2)):
        raw, want_raw = printed_identity(bundle, id), oracle(bundle, table)
        _assert_same_identity(simplify_curvature(raw, rules), oracle_simplify(want_raw, rules))
        for rule in Rule:
            want = (
                oracle_apply(want_raw, rule)
                if oracle_applicable(rule, bundle)
                else (RuleShapeError, None)
            )
            got = _outcome(apply_rule, raw, rule)
            if type(want) is tuple:
                assert type(got) is tuple and got[0] is RuleShapeError
            else:
                _assert_same_identity(got, want)


PRINT_ORDER = ("sum", "bw1", "bw2", "bw3", "bw4", "bw5", "bw6")


def oracle_exists(bundle, id):
    """bw3..bw5 need k != 0, bw6 a (2_b,1_(a-b)) shape; the rest always exist."""
    if id in ("bw3", "bw4", "bw5"):
        return bundle.k != 0
    if id == "bw6":
        return bundle.rho.lambda_ab_shape() is not None
    return True


@settings(max_examples=150, deadline=None)
@given(weights(5, 4), st.integers(0, 4), st.booleans())
def test_printed_table_follows_the_existence_rules(rho, k, hpn):
    bundle = BundleLabel(k, rho)
    printed = printed_identities(bundle, hpn)
    assert [ident.provenance for ident in printed] == [
        id for id in PRINT_ORDER if oracle_exists(bundle, id)
    ]
    rules = HPN_RULES if hpn else STANDARD_RULES
    for ident in printed:
        raw = printed_identity(bundle, ident.provenance)
        _assert_same_identity(ident, oracle_simplify(raw, rules))
    pure = [
        ident
        for ident in printed[1:]
        if ident.is_pure_kappa and any(c != 0 for _, c in ident.coeffs)
    ]
    _assert_same_outcome(pure_kappa_identities(bundle, hpn), pure)
    for id in PRINT_ORDER:
        if not oracle_exists(bundle, id):
            message = "vacuous on k = 0" if id != "bw6" else "only on the"
            with pytest.raises(InapplicableIdentityError, match=message):
                printed_identity(bundle, id)
    for id in ("bw7", "bochner1(1)", "BW1"):
        with pytest.raises(ValueError, match="unknown printed identity"):
            printed_identity(bundle, id)


def _empty_table(bundle):
    """A summand table of the bundle without valid targets."""
    return DecompositionTable(bundle, 1, ())


@pytest.mark.parametrize("hpn", [False, True])
def test_zero_row_with_kappa_side_raises(monkeypatch, fresh_memos, hpn):
    """A table without valid targets leaves bw3 as 0 = kappa-multiple."""
    bundle = lambda_ab_bundle(2, 2, 1, 3)
    want = _outcome(oracle_pure_kappa, bundle, hpn, _empty_table(bundle))
    assert want == (InconsistencyError, "identity bw3 reduced to 0 = kappa-multiple")
    monkeypatch.setattr(identities, "decompose_bundle", _empty_table)
    assert _outcome(pure_kappa_identities, bundle, hpn) == want


def test_moments_are_computed_once_and_only_when_a_row_reads_them(monkeypatch, fresh_memos):
    calls = []
    real = casimir._moment_sums

    def spy(rows, q_max, shift=0):
        calls.append(shift)
        return real(rows, q_max, shift)

    monkeypatch.setattr(casimir, "_moment_sums", spy)
    bundle = lambda_ab_bundle(2, 2, 1, 3)
    printed_identity(bundle, "sum")
    printed_identity(bundle, "bw3")
    assert calls == []
    # bw3..bw6 survive the rules; bw4, bw5 and bw6 share one list of c_q,
    # and so do the hpn set and the printed rows, off the bundle's kept context
    assert len(pure_kappa_identities(bundle)) == 4
    assert calls == [0]
    assert len(pure_kappa_identities(bundle, True)) == 6
    printed_identities(bundle)
    assert calls == [0]
    calls.clear()
    theorem_family(bundle)  # the families read c_hat_q only
    assert calls == [2 * bundle.n + 1]


SMALL_WEIGHTS = [rho for n in range(2, 6) for rho in dominant_weights(n, 4)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_WEIGHTS), st.integers(0, 4), st.booleans())
def test_integer_rows_are_in_lowest_terms_and_match_the_reference(rho, k, hpn):
    """sum, bw1..bw6 and both families over every dominant rho of entry sum
    <= 4: each row has a positive denominator, shares no factor with it, and
    its Fraction views equal the reference, with and without the hpn rules."""
    bundle = BundleLabel(k, rho)
    table = decompose_bundle(bundle)
    oracles = {
        "sum": oracle_sum,
        "bw1": oracle_bw1,
        "bw2": oracle_bw2,
        "bw3": oracle_bw3,
        "bw4": oracle_bw4,
        "bw5": oracle_bw5,
    }
    shape = rho.lambda_ab_shape()
    if shape is not None:
        oracles["bw6"] = lambda bundle, table: oracle_bw6(*shape, k, rho.n, table)
    raw = {id: oracle(bundle, table) for id, oracle in oracles.items() if oracle_exists(bundle, id)}
    for id, want in raw.items():
        _assert_same_identity(printed_identity(bundle, id), want)
    rules = HPN_RULES if hpn else STANDARD_RULES
    want_printed = [oracle_simplify(want, rules) for want in raw.values()]
    _assert_same_outcome(printed_identities(bundle, hpn), want_printed)
    _assert_same_outcome(pure_kappa_identities(bundle, hpn), oracle_pure_kappa(bundle, hpn, table))
    for q in range(1, 4):
        _assert_same_identity(identity_bochner1(bundle, q), oracle_bochner1(bundle, q, table))
    for q in range(4 if k else 0):
        _assert_same_identity(identity_bochner2(bundle, q), oracle_bochner2(bundle, q, table))


# Every dominant rho of entry sum <= 4 with n = 2..6, and every (2_b,1_(a-b))
# shape with n = 2..7.
RULE_GRID = [rho for n in range(2, 7) for rho in dominant_weights(n, 4)] + [
    lambda_ab_weight(a, b, n) for n in range(2, 8) for a in range(n + 1) for b in range(a + 1)
]


def rule_pass_pure_kappa(bundle, hpn):
    """The rows the CurvatureTerm route leaves pure: the printed identities
    bw1..bw6 after the rule pass, those with no curvature term left, trivial
    rows dropped."""
    printed = printed_identities(bundle, hpn)[1:]
    return [ident for ident in printed if ident.is_pure_kappa and any(ident.values)]


def row_data(rows):
    return [(ident.provenance, ident.values, ident.kappa, ident.denominator) for ident in rows]


@pytest.mark.parametrize("hpn", [False, True])
def test_rule_table_matches_the_rule_pass(hpn):
    """pure_kappa_identities chooses its rows without running a rule; on every
    bundle of the grid, k = 0..4, they are the rows the rule pass leaves pure.
    Rule B's scalar 2n^2 + 7n + 7 - c_2/4 is positive on every shape, so on the
    (1_a) shapes it never cancels the R^3 of bw2 by itself."""
    for rho in RULE_GRID:
        shape = rho.lambda_ab_shape()
        if shape is not None:
            n = rho.n
            assert 2 * n**2 + 7 * n + 7 - closed_form_c2_lambda_ab(*shape, n) / 4 > 0, rho
        for k in range(5):
            bundle = BundleLabel(k, rho)
            got = row_data(pure_kappa_identities(bundle, hpn))
            assert got == row_data(rule_pass_pure_kappa(bundle, hpn)), (rho, k)


def test_alternating_table_equals_the_power_sums():
    """The Horner table of the theorem family's alternating sums equals
    sum_j T_j x^(m-j) with x = 2n + 1 - 2w for each m from -1 to q_max, on
    every dominant rho of entry sum <= 4 (n = 2..5) and k = 0..4."""
    for rho in SMALL_WEIGHTS:
        for k in range(5):
            ctx = identities._Context(BundleLabel(k, rho), q_max=11)
            T, xs = ctx.T, [2 * ctx.n + 1 - 2 * w for w in ctx.w]
            assert len(ctx.alternating) == ctx.q_max + 2
            for m in range(-1, ctx.q_max + 1):
                want = [sum(T[j] * x ** (m - j) for j in range(m + 1)) for x in xs]
                assert ctx.alternating[m + 1] == want, (rho, k, m)


@pytest.mark.parametrize("rho", [SpnWeight((3, 1, 0)), SpnWeight((2, 2, 1)), SpnWeight((4, 0))])
def test_family_rows_reach_the_rank_as_ints(rho):
    """The theorem family's integer rows, hatted curvature columns included,
    are ints, and their Fraction views are unchanged."""
    for k in (0, 2):
        family = theorem_family(BundleLabel(k, rho))
        keys = identities._curvature_keys(family)
        assert keys
        for ident in family:
            row = ident.integer_row(keys)
            assert all(type(v) is int for v in row), ident.provenance
            terms = {t.key: t.coefficient for t in ident.curvature_terms}
            want = [*ident.coeff_map().values(), ident.kappa_coeff] + [terms.get(key, 0) for key in keys]
            assert ident.full_vector(keys) == want


# The per-process memo of bundle contexts that pure_kappa_identities and
# operator_coeffs read.  Each test starts it empty through the fresh_memos
# fixture of conftest.py.


def test_memo_hit_and_miss_equal_a_build_from_the_table(fresh_memos):
    """On every dominant rho of entry sum <= 4, n = 2..5, k = 0..4, hpn both
    ways and all four operators, a call equals a build on a new context of
    the bundle's own table, on the miss that fills the memo and on the hit
    after."""
    bundles = [BundleLabel(k, rho) for rho in SMALL_WEIGHTS for k in range(5)]
    for _ in ("miss", "hit"):
        for bundle in bundles:
            ctx = identities._Context(bundle)
            for hpn in (False, True):
                want = list(identities._pure_kappa(ctx, hpn))
                assert pure_kappa_identities(bundle, hpn) == want, (bundle, hpn)
            for name in OPERATOR_NAMES:
                want = identities._operator_row(name, ctx)
                assert operator_coeffs(name, bundle) == want, (bundle, name)
    assert list(identities._contexts) == bundles
    for ctx in identities._contexts.values():
        assert {"pure_kappa", "pure_kappa_hpn"} <= set(vars(ctx))
        assert list(ctx.operator_rows) == list(OPERATOR_NAMES)


def test_hpn_is_keyed_by_its_truth_value(fresh_memos):
    bundle = lambda_ab_bundle(2, 2, 1, 3)
    assert len(pure_kappa_identities(bundle, True)) > len(pure_kappa_identities(bundle))
    for yes, no in ((1, 0), ("yes", ""), ([0], [])):
        assert pure_kappa_identities(bundle, yes) == pure_kappa_identities(bundle, True)
        assert pure_kappa_identities(bundle, no) == pure_kappa_identities(bundle)
    assert list(identities._contexts) == [bundle]


@pytest.mark.parametrize("memo_first", [False, True])
def test_a_doctored_table_neither_reads_nor_fills_the_memo(monkeypatch, fresh_memos, memo_first):
    """A table without valid targets in place of the bundle's own: once the
    bundle's context is kept, no call reads it, and the kept rows are
    returned; before, the identity set built from it raises on every call
    and is not kept."""
    bundle = lambda_ab_bundle(2, 2, 1, 3)
    identity_want = pure_kappa_identities(bundle, True)
    operator_want = operator_coeffs("hodge_laplacian", bundle)
    if not memo_first:
        identities._contexts.clear()
    read = []
    with monkeypatch.context() as mp:
        mp.setattr(identities, "decompose_bundle", lambda b: read.append(b) or _empty_table(b))
        for _ in range(2):
            if memo_first:
                assert pure_kappa_identities(bundle, True) == identity_want
                assert operator_coeffs("hodge_laplacian", bundle) == operator_want
            else:
                with pytest.raises(InconsistencyError, match="identity bw3 reduced to 0 = kappa-multiple"):
                    pure_kappa_identities(bundle, True)
                assert "pure_kappa_hpn" not in vars(identities._contexts[bundle])
    assert read == ([] if memo_first else [bundle])
    identities._contexts.clear()
    assert pure_kappa_identities(bundle, True) == identity_want
    assert operator_coeffs("hodge_laplacian", bundle) == operator_want


def test_mutating_a_returned_list_leaves_the_memo_unchanged(fresh_memos):
    bundle = lambda_ab_bundle(2, 2, 1, 3)
    first = pure_kappa_identities(bundle)
    want = list(first)
    first.reverse()
    first.append(None)
    second = pure_kappa_identities(bundle)
    assert second == want and second is not first
    second.clear()
    assert pure_kappa_identities(bundle) == want


def test_an_unknown_operator_raises_and_stores_nothing(fresh_memos):
    """An unknown name raises before any context is read: it keeps no
    context for a cold bundle and no row in a kept one."""
    bundle = lambda_ab_bundle(2, 2, 1, 3)
    for warm in (False, True):
        for name in ("laplacian", "Hodge_laplacian", ""):
            with pytest.raises(ValueError, match="unknown operator"):
                operator_coeffs(name, bundle)
        if not warm:
            assert identities._contexts == {}
            operator_coeffs("hodge_laplacian", bundle)
    assert list(identities._contexts[bundle].operator_rows) == ["hodge_laplacian"]


def test_a_build_that_raises_stores_nothing(monkeypatch, fresh_memos):
    """A table build that raises keeps no context, and an identity-set build
    that raises keeps no set in the bundle's context: each raises again on
    the next call, and once the cause is gone the real set is built."""
    bundle = lambda_ab_bundle(2, 2, 1, 3)
    want = pure_kappa_identities(bundle, True)
    identities._contexts.clear()

    def fail(*args):
        raise InconsistencyError("doctored")

    for name in ("decompose_bundle", "_pure_kappa"):
        with monkeypatch.context() as mp:
            mp.setattr(identities, name, fail)
            for _ in range(2):
                with pytest.raises(InconsistencyError, match="doctored"):
                    pure_kappa_identities(bundle, True)
            if name == "decompose_bundle":
                assert identities._contexts == {}
            else:
                assert "pure_kappa_hpn" not in vars(identities._contexts[bundle])
    assert pure_kappa_identities(bundle, True) == want
    assert list(identities._contexts) == [bundle]


def test_every_reader_of_a_cold_bundle_shares_one_table(monkeypatch, fresh_memos):
    """printed_identities, pure_kappa_identities with hpn both ways, the four
    operator rows and kernel_analysis of one bundle build one summand table
    between them, and a second round builds none."""
    bundle = BundleLabel(1, SpnWeight((1, 0)))
    built = []
    init = DecompositionTable.__init__

    def counting(self, label, *rest):
        built.append(label)
        init(self, label, *rest)

    monkeypatch.setattr(DecompositionTable, "__init__", counting)
    for _ in range(2):
        printed_identities(bundle)
        for hpn in (False, True):
            pure_kappa_identities(bundle, hpn)
        for name in OPERATOR_NAMES:
            operator_coeffs(name, bundle)
        bounds.kernel_analysis(bundle, bounds.TWISTOR_KERNEL)
        assert built == [bundle]


def test_bound_for_solves_and_verifies_on_every_call(monkeypatch, fresh_memos):
    """Both signs of one bundle, twice each: the operator row and the identity
    set are built once, on the first call, and every call runs its own LP and
    its own certificate check."""
    bundle = lambda_ab_bundle(2, 1, 0, 3)
    counts = {"lp": 0, "verify": 0, "table": 0}

    def counting(key, fn):
        def spy(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return spy

    monkeypatch.setattr(bounds, "lp_max_bound", counting("lp", bounds.lp_max_bound))
    monkeypatch.setattr(bounds.BoundCertificate, "verify", counting("verify", bounds.BoundCertificate.verify))
    monkeypatch.setattr(identities, "decompose_bundle", counting("table", identities.decompose_bundle))
    results = [bounds.bound_for("hodge_laplacian", bundle, sign) for sign in (1, -1, 1, -1)]
    assert counts == {"lp": 4, "verify": 4, "table": 1}
    assert [r.kappa_sign for r in results] == [1, -1, 1, -1]
    assert results[0] == results[2] and results[0] is not results[2]
    assert results[1] == results[3] and results[1] is not results[3]
