"""The identity side of the bound LP that bound_for keeps in each bundle's
context, one per hpn, shared by every operator, with the dual's phase-1
start of each sign.

bound_for builds the side from the context's pure-kappa set on its first
call for the hpn; where the sets without and with hpn are equal, one side
serves both.  lp_max_bound checks its input and builds a side on every
call, and keeps nothing.  Nothing is kept per operator.  Either way the LP,
the certificate and its repr are the same.
"""

import json
from copy import deepcopy
from math import lcm
from pathlib import Path
from unittest import mock

import pytest

from qkbw import bounds, identities
from qkbw.bounds import bound_for, lp_max_bound
from qkbw.casimir import lambda_ab_bundle
from qkbw.identities import (
    CurvatureTerm,
    MixedBundleError,
    OperatorSpec,
    operator_coeffs,
    pure_kappa_identities,
)
from qkbw.selfcheck import sweep_cases
from qkbw.weights import BundleLabel, SpnWeight

from test_integer_lp import oracle_lp_max_bound

ROOT = Path(__file__).resolve().parent.parent
GRID = sweep_cases(range(2, 6), "+-")  # the 518 cases of sweep --n 2..5, 259 bundles
NAMES = ("hodge_laplacian", "connection_laplacian")


def grid_bundles():
    """The 259 bundles of the sweep grid, in grid order."""
    return list(dict.fromkeys(lambda_ab_bundle(k, a, b, n) for n, k, a, b, _, _ in GRID))


def pool_bundles():
    """The 140 bundles of the lp-general pool."""
    pool = json.loads((ROOT / "perfbench" / "lp_general_expected.json").read_text())["bundles"]
    return [BundleLabel(entry["k"], SpnWeight(tuple(entry["rho"]))) for entry in pool]


def copies(operator, rows):
    """Equal records that are not the context's objects."""
    return operator.replace(), [ident.replace() for ident in rows]


def count_builds(monkeypatch):
    """Count the calls of the identity-side builder; the returned list holds the count."""
    builds = [0]
    build = bounds._identity_side

    def spy(rows, operator):
        builds[0] += 1
        return build(rows, operator)

    monkeypatch.setattr(bounds, "_identity_side", spy)
    return builds


def count_starts(monkeypatch):
    """Count the dual's phase-1 runs; the returned list holds the count.  The
    tie-break's phase 1 is not counted: it always names the columns its
    slack rows start on."""
    starts = [0]
    phase_one = bounds._phase_one

    def spy(constraints, rhs, n, columns=None):
        starts[0] += columns is None
        return phase_one(constraints, rhs, n, columns)

    monkeypatch.setattr(bounds, "_phase_one", spy)
    return starts


def kept_starts(ctx):
    """{(hpn, sign): start} over the context's kept sides."""
    return {(hpn, sign): start for hpn, side in ctx.bound_sides.items() for sign, start in side[-1].items()}


def fresh(call):
    """call() on empty contexts, so that nothing kept serves it and nothing it
    builds is kept."""
    with mock.patch.dict(identities._contexts, clear=True):
        return call()


@pytest.mark.parametrize(
    "name, bundles, hpns",
    [
        ("hodge_laplacian", grid_bundles, (False, True)),
        ("hodge_laplacian", pool_bundles, (False,)),
        ("connection_laplacian", pool_bundles, (False,)),
    ],
    ids=["grid-hodge", "pool-hodge", "pool-connection"],
)
def test_a_kept_problem_gives_the_record_of_a_fresh_build(name, bundles, hpns):
    """bound_for reads the kept side; lp_max_bound on equal copies with no
    context builds its own; both signs give the same record, byte for byte
    in its repr."""
    cases = [(bundle, hpn, sign) for bundle in bundles() for hpn in hpns for sign in (1, -1)]
    kept = {}
    for bundle, hpn, sign in cases:
        inputs = copies(operator_coeffs(name, bundle), pure_kappa_identities(bundle, hpn=hpn))
        kept[bundle, hpn, sign] = repr(bound_for(name, bundle, sign, hpn=hpn)), inputs
    with mock.patch.dict(identities._contexts, clear=True):
        for case, (want, inputs) in kept.items():
            assert repr(lp_max_bound(*inputs, case[2])) == want, case
        assert not identities._contexts


def test_one_build_per_bundle_in_a_grid_pass_and_none_in_the_next(monkeypatch, fresh_memos):
    """The 518 bounds of a grid pass build 259 identity sides and run the
    dual's phase 1 482 times, once per bundle and sign, as 18 of the bundles
    have no pure-kappa identity, so their LP has no row and no phase 1.  The
    next pass builds and runs none."""
    builds, starts = count_builds(monkeypatch), count_starts(monkeypatch)
    for passes in (1, 2):
        for n, k, a, b, sign, _ in GRID:
            bound_for("hodge_laplacian", lambda_ab_bundle(k, a, b, n), sign)
        assert builds == [259] and starts == [482], passes
    contexts = identities._contexts.values()
    assert len(contexts) == 259 and all(list(ctx.bound_sides) == [False] for ctx in contexts)
    assert sum(not ctx.pure_kappa for ctx in contexts) == 18
    assert sum(len(kept_starts(ctx)) for ctx in contexts) == 482


def test_one_lp_general_pass_builds_224_starts_and_the_next_none(monkeypatch, fresh_memos):
    """The 1,120 bounds of an lp-general pass (140 bundles, 2 operators, 2
    signs, each case twice) build one side per bundle and run the dual's
    phase 1 once per bundle and sign: 224 starts, as 28 of the bundles have
    no pure-kappa identity.  The next pass builds and runs none, finds each
    start as it was kept, and certifies as the first."""
    bundles = pool_bundles()
    cases = [(name, bundle, sign) for bundle in bundles for name in NAMES for sign in "+-"] * 2
    builds, starts = count_builds(monkeypatch), count_starts(monkeypatch)
    first = [bound_for(*case) for case in cases]
    assert builds == [140] and starts == [224]
    assert sum(not pure_kappa_identities(bundle) for bundle in bundles) == 28
    kept = {bundle: kept_starts(ctx) for bundle, ctx in identities._contexts.items()}
    snapshot = {bundle: deepcopy(starts_of) for bundle, starts_of in kept.items()}
    assert sum(map(len, kept.values())) == 224
    assert [bound_for(*case) for case in cases] == first
    assert builds == [140] and starts == [224]
    for bundle, starts_of in kept.items():
        now = kept_starts(identities._contexts[bundle])
        assert now.keys() == starts_of.keys()
        assert all(now[key] is start for key, start in starts_of.items())
        assert now == snapshot[bundle]


def test_operators_share_one_start_per_hpn_and_sign(monkeypatch, fresh_memos):
    """hodge and connection on one bundle read one identity side per hpn, and
    it keeps one start per sign; each certificate equals the one that a
    fresh context gives."""
    bundle = lambda_ab_bundle(2, 2, 1, 3)
    assert len(pure_kappa_identities(bundle)) < len(pure_kappa_identities(bundle, hpn=True))
    builds, starts = count_builds(monkeypatch), count_starts(monkeypatch)
    warm = {}
    for _ in range(2):
        for sign in "+-":
            for hpn in (False, True):
                for name in NAMES:
                    warm[name, sign, hpn] = bound_for(name, bundle, sign, hpn=hpn)
    assert builds == [2] and starts == [4]
    ctx = identities._contexts[bundle]
    assert ctx.bound_sides.keys() == {False, True}
    for rows, *_, kept in ctx.bound_sides.values():
        assert type(rows) is list
        assert kept.keys() == {1, -1}
    assert ctx.bound_sides[False] is not ctx.bound_sides[True]
    for (name, sign, hpn), cert in warm.items():
        assert repr(fresh(lambda: bound_for(name, bundle, sign, hpn=hpn))) == repr(cert), (name, sign, hpn)


@pytest.mark.parametrize("order", [(False, True), (True, False)], ids=["plain-first", "hpn-first"])
def test_equal_sets_share_one_side(order, monkeypatch, fresh_memos):
    """On a (1_a) shape the pure-kappa sets without and with hpn are equal, so
    one side, with one start per sign, serves both, whichever hpn comes
    first; each certificate equals the one that a fresh context gives."""
    bundle = lambda_ab_bundle(2, 2, 0, 3)
    assert pure_kappa_identities(bundle) == pure_kappa_identities(bundle, hpn=True)
    builds, starts = count_builds(monkeypatch), count_starts(monkeypatch)
    warm = {(hpn, sign): bound_for("hodge_laplacian", bundle, sign, hpn=hpn) for hpn in order for sign in "+-"}
    assert builds == [1] and starts == [2]
    sides = identities._contexts[bundle].bound_sides
    assert list(sides) == list(order) and sides[False] is sides[True]
    for (hpn, sign), cert in warm.items():
        assert repr(fresh(lambda: bound_for("hodge_laplacian", bundle, sign, hpn=hpn))) == repr(cert), (hpn, sign)


def test_lp_max_bound_builds_its_own_side_and_keeps_nothing(monkeypatch, fresh_memos):
    """lp_max_bound builds a side on each call, for the context's own rows as
    for any other list, and leaves the context's kept sides and starts as
    they were; its record is bound_for's."""
    bundle = lambda_ab_bundle(2, 2, 1, 3)
    operator = operator_coeffs("hodge_laplacian", bundle)
    rows = pure_kappa_identities(bundle)
    want = {sign: repr(bound_for("hodge_laplacian", bundle, sign)) for sign in "+-"}
    ctx = identities._contexts[bundle]
    side, kept = ctx.bound_sides[False], kept_starts(ctx)
    builds, starts = count_builds(monkeypatch), count_starts(monkeypatch)
    for idents in (rows, tuple(rows), rows[::-1], rows[:-1]):
        for sign in "+-":
            got = repr(lp_max_bound(operator, idents, sign))
            if idents == rows or idents == tuple(rows):
                assert got == want[sign]
    assert builds == [8] and starts == [8]
    assert list(ctx.bound_sides) == [False] and ctx.bound_sides[False] is side
    assert kept_starts(ctx) == kept


def test_mixed_rows_and_curvature_still_raise(fresh_memos):
    bundle, other = lambda_ab_bundle(2, 1, 0, 3), lambda_ab_bundle(1, 1, 0, 3)
    operator = operator_coeffs("hodge_laplacian", bundle)
    rows = pure_kappa_identities(bundle)
    bound_for("hodge_laplacian", bundle, "+")  # a kept side does not excuse other input
    with pytest.raises(MixedBundleError):
        lp_max_bound(operator, pure_kappa_identities(other), "+")
    with pytest.raises(MixedBundleError):
        lp_max_bound(operator_coeffs("hodge_laplacian", other), rows, "-")
    # the operator's bundle has a kept side, but its targets are not the context's
    shifted = OperatorSpec("shifted", bundle, operator.targets[::-1], operator.values, operator.denominator)
    with pytest.raises(MixedBundleError):
        lp_max_bound(shifted, rows, "+")
    curved = rows[0].replace(curvature_terms=(CurvatureTerm(power=1, hatted=False, coefficient=1),))
    with pytest.raises(ValueError, match="is not pure kappa"):
        lp_max_bound(operator, [curved, *rows[1:]], "+")
    assert list(identities._contexts[bundle].bound_sides) == [False]


@pytest.mark.parametrize("factor", [7, 9, "5n"])
@pytest.mark.parametrize("rho, k", [((2, 1, 0), 2), ((1, 0), 1), ((1, 1, 0, 0), 0), ((3, 0), 3)])
def test_an_operator_over_another_denominator_scales_on_its_own_call(rho, k, factor, fresh_memos):
    """A hand-built operator on the context's targets whose denominator D
    does not divide lcm(Q, 2n) gets a side over M = lcm(Q, 2n, D): the
    built-in side's A and M times M / lcm(Q, 2n), the rest as built.  Its
    record is the one a fresh context and the Fraction oracle give, and the
    context keeps no side for it."""
    bundle = BundleLabel(k, SpnWeight(rho))
    n = bundle.n
    den = 2 * n * (5 * n if factor == "5n" else factor)
    dirac = operator_coeffs("dirac_squared", bundle)
    values = [v * den // (2 * n) + i % 3 - 1 for i, v in enumerate(dirac.values)]
    operator = OperatorSpec("hand_built", bundle, dirac.targets, values, den)
    assert operator.denominator == den
    for hpn in (False, True):
        rows = pure_kappa_identities(bundle, hpn=hpn)
        for sign in (1, -1):
            got = repr(lp_max_bound(operator, rows, sign))
            assert got == repr(fresh(lambda: lp_max_bound(operator, rows, sign))), (hpn, sign)
            assert got == repr(oracle_lp_max_bound(operator, rows, sign)), (hpn, sign)
        built_in, side = bounds._identity_side(rows, dirac), bounds._identity_side(rows, operator)
        Q, M = side[2], side[4]
        assert built_in[4] == lcm(Q, 2 * n) and M == lcm(Q, 2 * n, den) and built_in[4] % den
        f = M // built_in[4]
        assert side[3] == [[f * v for v in row] for row in built_in[3]]
        assert side[:3] + side[5:] == built_in[:3] + built_in[5:]
    assert not identities._contexts[bundle].bound_sides
