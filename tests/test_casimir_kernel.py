"""The integer summand table against the per-nu Fraction sums it replaced.

``oracle_eigenvalue``, ``oracle_hat`` and ``oracle_decompose`` are the moment
sums and the per-(N, nu) decomposition loop as they were before every moment
was read off one integer table: each term is a ``Fraction`` conformal weight
times a ``Fraction`` relative dimension from the Weyl oracle, summed per q.
They are kept here as a test-only reference.  ``oracle_decompose`` builds
each candidate as a ``Target`` of ``Fraction`` fields; the identity and LP
oracles of other test modules read their targets from it, and the table's
JSON rows and ``valid_rows`` are checked against it.

``oracle_product`` and ``oracle_verify_recursion`` are the product formula
and the recursion check as they were before both were evaluated on
integers: the product multiplies ``Fraction`` ratios of translated weights
over the dominant pairs of ``decompose_rho_tensor_E``, and the check
compares ``Fraction`` sides, c_q = S_q / D and c_hat_q = T_q / (2^q D) built
from the integer sums.  Both read the conformal weights and the moment sums
through ``qkbw.casimir`` at call time, so a monkeypatch there reaches the
oracle and the code under test alike.

The summand table is the exception: ``casimir._summands`` keeps one table
per rho for the whole process, in ``casimir._tables``, whose rows keep the
moment sums once read, and
``identities._contexts`` keeps one context per bundle the same way, with the
identity sets and operator rows that ``identities.pure_kappa_identities``
and ``identities.operator_coeffs`` return.  A monkeypatch of ``_weight``, or
of anything else such an entry is built from, does not reach an entry that
is already cached, and an entry built while the patch holds would outlive
it.  So a test that patches what an entry is built from takes the
``fresh_memos`` fixture of ``conftest.py``, which swaps both memos for fresh
dicts.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkbw import casimir, selfcheck
from qkbw.casimir import (
    DEFAULT_Q_CAP,
    casimir_eigenvalue,
    casimir_hat,
    casimir_report,
    decompose_bundle,
    relative_dimension_product,
    relative_dimension_weyl,
    sp1_conformal_weight,
    verify_recursion,
)
from qkbw.identities import pure_kappa_identities, theorem_family
from qkbw.rationals import format_rational, parse_rational
from qkbw.weights import (
    BundleLabel,
    NonDominantError,
    SpnWeight,
    decompose_rho_tensor_E,
    mu_shift,
    weyl_dim,
)

F = Fraction


def nu_indices(n):
    """The shift indices in canonical order: 1..n then -1..-n."""
    return list(range(1, n + 1)) + [-i for i in range(1, n + 1)]


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


class Target(NamedTuple):
    """One candidate summand (N, nu) of V_{k,rho} (x) (H (x) E) as Fractions."""

    N: int
    nu: int
    target_k: int
    target_rho: SpnWeight
    valid: bool
    w: Fraction
    w_hat: Fraction
    W: Fraction
    reldim: Fraction


@lru_cache(maxsize=None)  # the identity oracles read it once per identity
def oracle_decompose(bundle):
    """The 4n candidates of ``decompose_bundle``, rebuilt for every (N, nu)
    separately, in canonical order."""
    rho, k = bundle.rho, bundle.k
    targets = []
    for N in (1, -1):
        for nu in nu_indices(rho.n):
            shifted = mu_shift(rho, nu)
            targets.append(
                Target(
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


def oracle_json_row(t):
    """A Target as the JSON row that DecompositionTable.to_json_dict writes."""
    return {
        "N": t.N,
        "nu": t.nu,
        "k": t.target_k,
        "rho": str(t.target_rho),
        "valid": t.valid,
        **{name: format_rational(getattr(t, name)) for name in ("w", "w_hat", "W", "reldim")},
    }


def conformal_weight_hat(rho, nu) -> Fraction:
    """Translated weight w_hat = w - (n + 1/2), with w read through ``qkbw.casimir``."""
    return casimir.conformal_weight(rho, nu) - (rho.n + F(1, 2))


def table_moments(table, q_max):
    """[c_0..c_q_max] and [c_hat_0..c_hat_q_max] as Fractions, off the integer
    sums of a decomposition table: c_q = S_q / D, c_hat_q = T_q / (2^q D)."""
    D = table.dim
    return (
        [F(s, D) for s in table.c_sums(q_max)],
        [F(t, D << q) for q, t in enumerate(table.c_hat_sums(q_max))],
    )


def oracle_product(rho, nu) -> Fraction:
    """The Fraction product formula: -2 (w_hat - s) prod (w_hat + w_hat') / (w_hat - w_hat')."""
    dominant = [other for other, shifted in decompose_rho_tensor_E(rho) if shifted.is_dominant]
    if not mu_shift(rho, nu).is_dominant:
        return F(0)
    shift = F((-1) ** len(dominant), 2)
    wh = conformal_weight_hat(rho, nu)
    value = -2 * (wh - shift)
    for nu_other in dominant:
        if nu_other == nu:
            continue
        other = conformal_weight_hat(rho, nu_other)
        value *= (wh + other) / (wh - other)
    return value


def oracle_verify_recursion(rho, q_max=6):
    """The recursion and binomial checks on Fraction moments."""
    failures = []
    n = rho.n
    D, S, T = casimir._moments(rho, q_max)
    c = [F(s, D) for s in S]
    ch = [F(t, D << q) for q, t in enumerate(T)]
    for q in range(0, (q_max - 1) // 2 + 1):
        lhs = 2 * ch[2 * q + 1]
        rhs = -ch[2 * q] - sum((-1) ** p * ch[2 * q - p] * ch[p] for p in range(2 * q + 1))
        if lhs != rhs:
            failures.append(("recursion", 2 * q + 1))
    m = -(n + F(1, 2))
    for q in range(q_max + 1):
        translated = sum(comb(q, p) * m ** (q - p) * c[p] for p in range(q + 1))
        if translated != ch[q]:
            failures.append(("binomial", q))
    return failures


def _outcome(fn, *args):
    """("value", result) or ("error", exception class, message)."""
    try:
        return "value", fn(*args)
    except Exception as exc:
        return "error", type(exc), str(exc)


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
    assert got.bundle == bundle and len(want) == 4 * rho.n
    assert got.to_json_dict()["targets"] == [oracle_json_row(t) for t in want]
    assert got.valid_rows == [(t.N, t.nu, t.w, t.W) for t in want if t.valid]
    assert all(type(v) is int for row in got.valid_rows for v in row)
    c, ch = table_moments(got, 6)
    for q in range(7):
        assert _same(c[q], oracle_eigenvalue(rho, q)), q
        assert _same(ch[q], oracle_hat(rho, q)), q


@settings(max_examples=60, deadline=None)
@given(dominant_weights, st.integers(0, 4), st.integers(0, DEFAULT_Q_CAP))
def test_integer_table_matches_its_views(rho, k, q):
    """valid_rows and summand_count agree with the JSON rows that render the
    same table, and the moment sums with casimir._moments."""
    table = decompose_bundle(BundleLabel(k, rho))
    data = table.to_json_dict()
    views = [row for row in data["targets"] if row["valid"]]
    assert table.valid_rows == [
        (row["N"], row["nu"], parse_rational(row["w"]), parse_rational(row["W"])) for row in views
    ]
    assert all(type(v) is int for row in table.valid_rows for v in row)
    assert table.summand_count == data["summand_count"] == len(views)
    assert (table.dim, table.c_sums(q), table.c_hat_sums(q)) == casimir._moments(rho, q)


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


@pytest.mark.parametrize("reldim", [relative_dimension_weyl, relative_dimension_product])
def test_relative_dimensions_reject_a_non_dominant_weight(reldim):
    """Both routes raise for every shift of a non-dominant rho, the shifts whose
    target is dominant ((0, 1) + mu_2, (0, 1) - mu_1) included."""
    for entries in ((0, 1), (1, 2, 0), (1, -1)):
        rho = SpnWeight(entries)
        for nu in nu_indices(rho.n):
            with pytest.raises(NonDominantError):
                reldim(rho, nu)


@pytest.mark.parametrize("moment", [casimir_eigenvalue, casimir_hat])
def test_negative_q_raises(moment):
    with pytest.raises(ValueError, match="nonnegative"):
        moment(SpnWeight((1, 0)), -1)


@pytest.mark.parametrize("q_max", [-1, -5])
def test_verify_recursion_rejects_negative_q_max(q_max):
    with pytest.raises(ValueError, match=f"q_max must be nonnegative, got {q_max}"):
        verify_recursion(SpnWeight((2, 1, 0)), q_max)


# Any weight of rank 2..8 with entries <= 6: sorted ones are dominant unless an
# entry is negative, unsorted ones are mostly not.
any_weights = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-1, 6), min_size=n, max_size=n), st.booleans()
    ).map(lambda drawn: SpnWeight(tuple(sorted(drawn[0], reverse=True)) if drawn[1] else drawn[0]))
)


@settings(max_examples=150, deadline=None)
@given(any_weights)
def test_product_formula_matches_fraction_oracle(rho):
    n = rho.n
    for nu in range(-n - 1, n + 2):
        got = _outcome(relative_dimension_product, rho, nu)
        want = _outcome(oracle_product, rho, nu)
        assert got[0] == want[0], nu
        if got[0] == "value":
            assert _same(got[1], want[1]), nu
        else:
            assert got[1:] == want[1:], nu


@settings(max_examples=60, deadline=None)
@given(dominant_weights)
def test_product_formula_dominance_rule(rho):
    # A dominant target has a positive relative dimension, any other 0.
    for nu in nu_indices(rho.n):
        assert (relative_dimension_product(rho, nu) > 0) == mu_shift(rho, nu).is_dominant, nu


def test_product_formula_degeneracy(monkeypatch, fresh_memos):
    """Two dominant summands sharing a translated weight cannot occur (see
    test_translated_weights_are_pairwise_distinct); forced, the product
    formula fails loudly with a zero denominator instead of returning a value.
    On rho = (1, 0) the dominant targets are nu = 1, 2, -1; nu = 2 is given
    the weight of nu = 1."""
    rho = SpnWeight((1, 0))
    weight = casimir._weight
    monkeypatch.setattr(casimir, "_weight", lambda r, nu: weight(r, 1 if nu == 2 else nu))
    for call in (relative_dimension_product, oracle_product):
        for nu in (1, 2):
            with pytest.raises(ZeroDivisionError):
                call(rho, nu)
    assert _same(relative_dimension_product(rho, -1), oracle_product(rho, -1))
    assert relative_dimension_product(rho, -2) == 0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.lists(st.integers(0, 40), min_size=n, max_size=n).map(
            lambda entries: SpnWeight(tuple(sorted(entries, reverse=True)))
        )
    )
)
def test_translated_weights_are_pairwise_distinct(rho):
    """For dominant rho the 2n weights w_nu, so the odd x_nu = 2 w_nu - 2n - 1
    of the product formula, are pairwise distinct: w_j - w_i >= 1 and
    w_-i - w_-j >= 1 for i < j, and w_i <= n - 1 < n + 1 <= w_-j."""
    n = rho.n
    weights = {nu: casimir._weight(rho, nu) for nu in nu_indices(n)}
    assert weights == {nu: oracle_weight(rho, nu) for nu in nu_indices(n)}
    for i in range(1, n):
        assert weights[i + 1] - weights[i] >= 1 and weights[-i] - weights[-i - 1] >= 1
    assert max(weights[i] for i in range(1, n + 1)) <= n - 1
    assert min(weights[-i] for i in range(1, n + 1)) >= n + 1
    assert len({2 * w - 2 * n - 1 for w in weights.values()}) == 2 * n


perturbations = st.lists(
    st.tuples(
        st.sampled_from((0, 1)),
        st.integers(0, 8),
        st.integers(-3, 3),
    ),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n).map(
            lambda e: SpnWeight(tuple(sorted(e, reverse=True)))
        )
    ),
    st.integers(0, 8),
    perturbations,
)
def test_verify_recursion_matches_oracle_on_wrong_moments(rho, q_max, changes):
    D, S, T = casimir._moments(rho, q_max)
    sums = (S, T)
    for which, q, delta in changes:
        if q <= q_max:
            sums[which][q] += delta
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(casimir, "_moments", lambda r, q: (D, S, T))
        assert verify_recursion(rho, q_max) == oracle_verify_recursion(rho, q_max)


def test_verify_recursion_reports_each_wrong_moment(monkeypatch):
    rho = SpnWeight((2, 1, 0))
    D, S, T = casimir._moments(rho, 6)
    T[3] += 1
    monkeypatch.setattr(casimir, "_moments", lambda r, q: (D, S, T))
    assert verify_recursion(rho, 6) == [("recursion", 3), ("recursion", 5), ("binomial", 3)]
    assert oracle_verify_recursion(rho, 6) == verify_recursion(rho, 6)


def test_summand_table_matches_the_object_route():
    """Over every dominant rho of entry sum <= 6 with n = 2..7, the dominance
    flags, the weights w and the dimensions d that the summand table reads off
    the entries of rho equal those of each shifted weight: its is_dominant,
    casimir._weight and the Weyl oracle."""
    for n in range(2, 8):
        for rho in selfcheck.dominant_weights(n, 6):
            dominant = casimir._dominant_shifts(rho)
            flags = [nu in dominant for nu in nu_indices(n)]
            want = []
            for nu in nu_indices(n):
                shifted = mu_shift(rho, nu)
                dim = weyl_dim(shifted) if shifted.is_dominant else 0
                want.append((nu, shifted, casimir._weight(rho, nu), dim))
            assert flags == [mu_shift(rho, nu).is_dominant for nu in nu_indices(n)], rho
            D, rows = casimir._summands(rho)
            assert D == weyl_dim(rho) and list(rows) == want, rho
            assert all(type(w) is int and type(d) is int for _, _, w, d in rows), rho


MEMO_WEIGHTS = [rho for n in range(2, 6) for rho in selfcheck.dominant_weights(n, 4)]


def test_memo_hit_equals_a_fresh_table(monkeypatch):
    """On every dominant rho of entry sum <= 4 with n = 2..5, the cached table
    is returned as the same object, and equals one built with an empty memo."""
    hits = [casimir._summands(rho) for rho in MEMO_WEIGHTS]
    assert all(casimir._summands(rho) is hit for rho, hit in zip(MEMO_WEIGHTS, hits))
    monkeypatch.setattr(casimir, "_tables", {})
    for rho, hit in zip(MEMO_WEIGHTS, hits):
        fresh = casimir._summands(rho)
        assert fresh is not hit and fresh == hit, rho
    assert list(casimir._tables) == [rho.entries for rho in MEMO_WEIGHTS]


def test_every_k_of_a_rho_shares_its_table():
    rho = SpnWeight((2, 1, 0))
    tables = [decompose_bundle(BundleLabel(k, rho)) for k in range(4)]
    assert all(t.rows is tables[0].rows and t.dim == tables[0].dim for t in tables)


def test_non_dominant_weight_is_never_stored(monkeypatch):
    """A non-dominant rho raises on the first call and on the second, and
    leaves the memo empty."""
    monkeypatch.setattr(casimir, "_tables", {})
    for entries in ((0, 1), (1, 2, 0), (1, -1)):
        for _ in range(2):
            with pytest.raises(NonDominantError):
                casimir._summands(SpnWeight(entries))
            with pytest.raises(NonDominantError):
                casimir_eigenvalue(SpnWeight(entries), 2)
    assert casimir._tables == {}


def test_entries_read_through_index_share_one_table(monkeypatch):
    monkeypatch.setattr(casimir, "_tables", {})
    table = casimir._summands(SpnWeight((True, 0)))
    assert casimir._summands(SpnWeight((1, 0))) is table
    assert list(casimir._tables) == [(1, 0)]


def test_relative_dimensions_do_not_read_the_memo(monkeypatch):
    """The Weyl oracle and the product formula stay independent of the table:
    with the memo gone, any read of it would raise."""
    monkeypatch.setattr(casimir, "_tables", None)
    for rho in MEMO_WEIGHTS:
        for nu in nu_indices(rho.n):
            assert relative_dimension_weyl(rho, nu) == relative_dimension_product(rho, nu), (rho, nu)


def test_every_reader_of_a_weight_computes_its_sums_once(monkeypatch, fresh_memos):
    """The recursion check, the report, both eigenvalues, the theorem family
    of k = 0..3 and the pure-kappa sets of k = 1, 2 on one rho compute S once
    and T once, up to q_cap = max(DEFAULT_Q_CAP, 2n + 1), off its kept table.
    A read above q_cap computes once more and leaves the kept sums as they
    were."""
    calls = []
    real = casimir._moment_sums

    def spy(rows, q_max, shift=0):
        calls.append((shift, q_max))
        return real(rows, q_max, shift)

    monkeypatch.setattr(casimir, "_moment_sums", spy)
    rho = SpnWeight((2, 1, 0))
    q_cap, shift = max(DEFAULT_Q_CAP, 2 * rho.n + 1), 2 * rho.n + 1
    assert verify_recursion(rho, 6) == []
    casimir_report(rho, 6)
    casimir_eigenvalue(rho, 4)
    casimir_hat(rho, 5)
    for k in range(4):
        theorem_family(BundleLabel(k, rho))
    for k in (1, 2):
        pure_kappa_identities(BundleLabel(k, rho))
    assert calls == [(0, q_cap), (shift, q_cap)]
    _, rows = casimir._summands(rho)
    kept = {s: list(sums) for s, sums in rows.kept.items()}
    assert kept == {0: real(tuple(rows), q_cap), shift: real(tuple(rows), q_cap, shift)}
    D = weyl_dim(rho)
    assert casimir_eigenvalue(rho, q_cap + 1) == F(real(tuple(rows), q_cap + 1)[-1], D)
    assert calls[2:] == [(0, q_cap + 1)]
    assert rows.kept == kept


# each reader of the sums with the largest q it takes
SUM_READERS = {"moments": 20, "eigenvalue": 20, "hat": 20, "c_sums": 20, "c_hat_sums": 20,
               "report": DEFAULT_Q_CAP}


def read_sums(reader, rho, q):
    """What one reader returns for rho and q, as (S, T) lists where it reads both."""
    if reader == "moments":
        return casimir._moments(rho, q)[1:]
    if reader == "eigenvalue":
        return casimir_eigenvalue(rho, q)
    if reader == "hat":
        return casimir_hat(rho, q)
    if reader == "report":
        return casimir_report(rho, q).values
    table = decompose_bundle(BundleLabel(1, rho))
    return getattr(table, reader)(q)


def want_sums(reader, rho, q, rows):
    """The same read computed with _moment_sums on a fresh tuple of the rows."""
    S, T = casimir._moment_sums(rows, q), casimir._moment_sums(rows, q, 2 * rho.n + 1)
    D = weyl_dim(rho)
    if reader == "moments":
        return S, T
    if reader == "eigenvalue":
        return F(S[q], D)
    if reader == "hat":
        return F(T[q], D << q)
    if reader == "report":
        return tuple((p, F(S[p], D), F(T[p], D << p)) for p in range(q + 1))
    return S if reader == "c_sums" else T


@st.composite
def dominant_rho(draw):
    n = draw(st.integers(2, 6))
    entries = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return SpnWeight(sorted(entries, reverse=True))


@settings(max_examples=150, deadline=None)
@given(dominant_rho(), st.lists(st.tuples(st.sampled_from(list(SUM_READERS)), st.integers(0, 20)),
                                 max_size=12))
def test_kept_sums_equal_the_sums_of_a_fresh_tuple(rho, reads):
    """In any order of reads with q <= 20, from an empty memo, every value
    equals the one computed from a fresh tuple of the table's rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(casimir, "_tables", {})
        rows = tuple(casimir._summands(rho)[1])
        for reader, q in reads:
            q = min(q, SUM_READERS[reader])
            assert read_sums(reader, rho, q) == want_sums(reader, rho, q, rows), (reader, q)
