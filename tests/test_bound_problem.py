"""The identity side of the bound LP that each bundle's context keeps, one per
hpn, shared by every operator, with the simplex start its dual rows keep per
sign.

lp_max_bound reads the kept side when the identities equal one of the
context's pure-kappa sets, member by member in order, and the operator lives
on the context's targets; any other input is checked and built on each call,
and nothing is kept for it.  Nothing is kept per operator.  Either way the
LP, the certificate and its repr are the same.
"""

import json
from pathlib import Path
from unittest import mock

import pytest

from qkbw import bounds, identities, simplex
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

    def spy(rows, n, t):
        builds[0] += 1
        return build(rows, n, t)

    monkeypatch.setattr(bounds, "_identity_side", spy)
    return builds


def count_starts(monkeypatch):
    """Count the phase-1 runs on kept rows; the returned list holds the count."""
    starts = [0]
    phase_one = simplex._phase_one

    def spy(constraints, rhs, n):
        starts[0] += type(constraints) is simplex._KeptRows
        return phase_one(constraints, rhs, n)

    monkeypatch.setattr(simplex, "_phase_one", spy)
    return starts


def kept_starts(ctx):
    """{(hpn, rhs): start} over the context's kept dual rows."""
    return {(hpn, rhs): start for hpn, side in ctx.bound_sides.items() for rhs, start in side[0].starts.items()}


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
    """The 518 bounds of a grid pass build 259 identity sides and run phase 1
    482 times, once per bundle and sign, as 18 of the bundles have no
    pure-kappa identity, so their LP has no row and no phase 1."""
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
    signs, each case twice) build one side per bundle and run phase 1 once
    per bundle and sign: 224 starts, as 28 of the bundles have no pure-kappa
    identity.  The next pass builds none, and certifies as the first."""
    bundles = pool_bundles()
    cases = [(name, bundle, sign) for bundle in bundles for name in NAMES for sign in "+-"] * 2
    builds, starts = count_builds(monkeypatch), count_starts(monkeypatch)
    first = [bound_for(*case) for case in cases]
    assert builds == [140] and starts == [224]
    assert sum(not pure_kappa_identities(bundle) for bundle in bundles) == 28
    kept = {bundle: kept_starts(ctx) for bundle, ctx in identities._contexts.items()}
    assert sum(map(len, kept.values())) == 224
    assert [bound_for(*case) for case in cases] == first
    assert builds == [140] and starts == [224]
    assert all(kept_starts(identities._contexts[bundle]) == starts_of for bundle, starts_of in kept.items())


def test_operators_share_one_start_per_hpn_and_sign(monkeypatch, fresh_memos):
    """hodge and connection on one bundle read one identity side per hpn, and
    its rows keep one start per sign; each certificate equals the one that a
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
    for rows, kappa, *_ in ctx.bound_sides.values():
        assert type(rows) is simplex._KeptRows
        assert rows.starts.keys() == {tuple(kappa), tuple(-v for v in kappa)}
    assert ctx.bound_sides[False][0] is not ctx.bound_sides[True][0]
    for (name, sign, hpn), cert in warm.items():
        assert repr(fresh(lambda: bound_for(name, bundle, sign, hpn=hpn))) == repr(cert), (name, sign, hpn)


def test_inputs_that_are_not_the_contexts_own_build_their_own_problem(monkeypatch, fresh_memos):
    """The context's own identities are its pure-kappa sets by value: an
    equal copy, as a list or a tuple, reads the kept side under any
    operator row on its targets.  A reordered or shortened list is not its
    own: it is built on each call, gives the record of a fresh context, and
    nothing is kept for it."""
    bundle = lambda_ab_bundle(2, 2, 1, 3)
    operator = operator_coeffs("hodge_laplacian", bundle)
    rows = pure_kappa_identities(bundle)
    assert len(rows) >= 3
    ctx = identities._contexts[bundle]
    builds = count_builds(monkeypatch)
    first = lp_max_bound(operator, rows, "+")
    assert builds == [1]
    side = ctx.bound_sides[False]
    for label, (op, idents) in {
        "equal operator": (operator.replace(), rows),
        "equal rows": (operator, [ident.replace() for ident in rows]),
        "equal tuple": (operator, tuple(rows)),
        "connection": (operator_coeffs("connection_laplacian", bundle), rows),
    }.items():
        for sign in "+-":
            lp_max_bound(op, idents, sign)
            assert builds == [1], label
    assert lp_max_bound(*copies(operator, rows), "+") == first
    others = {"reordered rows": rows[::-1], "shortened rows": rows[:-1]}
    for label, idents in others.items():
        for sign in "+-":
            before = builds[0]
            assert repr(lp_max_bound(operator, idents, sign)) == repr(fresh(lambda: lp_max_bound(operator, idents, sign)))
            assert builds[0] == before + 2, label
            assert list(ctx.bound_sides) == [False] and ctx.bound_sides[False] is side, label
    assert builds == [1 + 4 * len(others)]
    # the hpn set is the context's own too, and keeps its own side
    hpn_rows = pure_kappa_identities(bundle, hpn=True)
    for sign in "+-+":
        lp_max_bound(operator, hpn_rows, sign)
    assert builds == [2 + 4 * len(others)]
    assert list(ctx.bound_sides) == [False, True] and ctx.bound_sides[False] is side


def test_a_new_memo_dict_is_read_at_call_time(monkeypatch, fresh_memos):
    """The context is looked up when lp_max_bound runs: under a new dict with
    no context for the bundle the rows build without being kept; once the new
    context's set is built, the old rows equal it and read its kept side."""
    bundle = lambda_ab_bundle(1, 1, 0, 2)
    old = operator_coeffs("hodge_laplacian", bundle), pure_kappa_identities(bundle)
    lp_max_bound(*old, "+")
    monkeypatch.setattr(identities, "_contexts", {})
    builds = count_builds(monkeypatch)
    lp_max_bound(*old, "+")
    assert builds == [1] and not identities._contexts
    new = operator_coeffs("hodge_laplacian", bundle), pure_kappa_identities(bundle)
    for sign in "+-":
        lp_max_bound(*new, sign)
    assert identities._contexts[bundle].bound_sides.keys() == {False}
    assert builds == [2]
    lp_max_bound(*old, "-")
    assert builds == [2]


def test_mixed_rows_and_curvature_still_raise(fresh_memos):
    bundle, other = lambda_ab_bundle(2, 1, 0, 3), lambda_ab_bundle(1, 1, 0, 3)
    operator = operator_coeffs("hodge_laplacian", bundle)
    rows = pure_kappa_identities(bundle)
    lp_max_bound(operator, rows, "+")  # a kept side does not excuse other input
    with pytest.raises(MixedBundleError):
        lp_max_bound(operator, pure_kappa_identities(other), "+")
    with pytest.raises(MixedBundleError):
        lp_max_bound(operator_coeffs("hodge_laplacian", other), rows, "-")
    # the operator's bundle has the kept side, but its targets are not the context's
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
    """A hand-built operator on the kept targets whose denominator does not
    divide M = lcm(Q, 2n) reads the kept side, scales A and M on its own call
    and leaves the kept side as built; its record is the one a fresh context
    and the Fraction oracle give."""
    bundle = BundleLabel(k, SpnWeight(rho))
    n = bundle.n
    den = 2 * n * (5 * n if factor == "5n" else factor)
    dirac = operator_coeffs("dirac_squared", bundle)
    values = [v * den // (2 * n) + i % 3 - 1 for i, v in enumerate(dirac.values)]
    operator = OperatorSpec("hand_built", bundle, dirac.targets, values, den)
    assert operator.denominator == den
    ctx = identities._contexts[bundle]
    for hpn in (False, True):
        rows = pure_kappa_identities(bundle, hpn=hpn)
        for sign in (1, -1):
            got = repr(lp_max_bound(operator, rows, sign))
            assert got == repr(fresh(lambda: lp_max_bound(operator, rows, sign))), (hpn, sign)
            assert got == repr(oracle_lp_max_bound(operator, rows, sign)), (hpn, sign)
        side = ctx.bound_sides[ctx.kept_set(rows)]
        assert side[4] % den
        assert side[1:] == bounds._identity_side(rows, n, len(operator.targets))[1:]
