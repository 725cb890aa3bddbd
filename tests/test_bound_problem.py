"""The integer bound problem that each bundle's context keeps per (operator, hpn).

lp_max_bound reads a kept problem only for the context's own operator row and
the members of one of its built pure-kappa sets, in order; any other input is
checked and built on each call.  Either way the LP, the certificate and its
repr are the same.
"""

import json
from pathlib import Path

import pytest

from qkbw import bounds, identities
from qkbw.bounds import bound_for, lp_max_bound
from qkbw.casimir import lambda_ab_bundle
from qkbw.identities import (
    CurvatureTerm,
    MixedBundleError,
    operator_coeffs,
    pure_kappa_identities,
)
from qkbw.selfcheck import sweep_cases
from qkbw.weights import BundleLabel, SpnWeight

ROOT = Path(__file__).resolve().parent.parent
GRID = sweep_cases(range(2, 6), "+-")  # the 518 cases of sweep --n 2..5, 259 bundles


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
    """Count the calls of the problem builder; the returned list holds the count."""
    builds = [0]
    build = bounds._integer_problem

    def spy(operator, rows):
        builds[0] += 1
        return build(operator, rows)

    monkeypatch.setattr(bounds, "_integer_problem", spy)
    return builds


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
    """bound_for reads the kept problem; lp_max_bound on equal copies builds
    its own; both signs give the same record, byte for byte in its repr."""
    for bundle in bundles():
        for hpn in hpns:
            operator = operator_coeffs(name, bundle)
            rows = pure_kappa_identities(bundle, hpn=hpn)
            for sign in (1, -1):
                kept = bound_for(name, bundle, sign, hpn=hpn)
                assert repr(kept) == repr(lp_max_bound(*copies(operator, rows), sign)), (bundle, hpn, sign)


def test_one_build_per_bundle_in_a_grid_pass_and_none_in_the_next(monkeypatch, fresh_memos):
    builds = count_builds(monkeypatch)
    for passes in (1, 2):
        for n, k, a, b, sign, _ in GRID:
            bound_for("hodge_laplacian", lambda_ab_bundle(k, a, b, n), sign)
        assert builds == [259], passes
    kept = [ctx.bound_problems for ctx in identities._contexts.values()]
    assert len(kept) == 259 and all(list(problems) == [("hodge_laplacian", False)] for problems in kept)


def test_inputs_that_are_not_the_contexts_own_build_their_own_problem(monkeypatch, fresh_memos):
    bundle = lambda_ab_bundle(2, 2, 1, 3)
    operator = operator_coeffs("hodge_laplacian", bundle)
    rows = pure_kappa_identities(bundle)
    assert len(rows) >= 3
    ctx = identities._contexts[bundle]
    builds = count_builds(monkeypatch)
    first = lp_max_bound(operator, rows, "+")
    assert builds == [1]
    kept = dict(ctx.bound_problems)
    assert list(kept) == [("hodge_laplacian", False)]
    others = {
        "equal operator": (operator.replace(), rows),
        "reordered rows": (operator, rows[::-1]),
        "shortened rows": (operator, rows[:-1]),
        "equal rows": (operator, [ident.replace() for ident in rows]),
    }
    for label, (op, idents) in others.items():
        for sign in "+-":
            before = builds[0]
            lp_max_bound(op, idents, sign)
            assert builds[0] == before + 1, label
            assert ctx.bound_problems == kept and all(ctx.bound_problems[k] is v for k, v in kept.items()), label
    assert lp_max_bound(operator, list(rows), "+") == first
    assert builds == [1 + 2 * len(others)]
    # the hpn set is the context's own too, and keeps its own problem
    hpn_rows = pure_kappa_identities(bundle, hpn=True)
    for sign in "+-+":
        lp_max_bound(operator, hpn_rows, sign)
    assert builds == [2 + 2 * len(others)]
    assert list(ctx.bound_problems) == [("hodge_laplacian", False), ("hodge_laplacian", True)]
    assert ctx.bound_problems[("hodge_laplacian", False)] is kept[("hodge_laplacian", False)]


def test_a_new_memo_dict_is_read_at_call_time(monkeypatch, fresh_memos):
    """The context is looked up when lp_max_bound runs: under a new dict the
    rows of the old one are other objects, and build without being kept."""
    bundle = lambda_ab_bundle(1, 1, 0, 2)
    old = operator_coeffs("hodge_laplacian", bundle), pure_kappa_identities(bundle)
    lp_max_bound(*old, "+")
    monkeypatch.setattr(identities, "_contexts", {})
    builds = count_builds(monkeypatch)
    lp_max_bound(*old, "+")
    assert builds == [1]
    new = operator_coeffs("hodge_laplacian", bundle), pure_kappa_identities(bundle)
    for sign in "+-":
        lp_max_bound(*new, sign)
    assert identities._contexts[bundle].bound_problems.keys() == {("hodge_laplacian", False)}
    assert builds == [2]


def test_mixed_rows_and_curvature_still_raise(fresh_memos):
    bundle, other = lambda_ab_bundle(2, 1, 0, 3), lambda_ab_bundle(1, 1, 0, 3)
    operator = operator_coeffs("hodge_laplacian", bundle)
    rows = pure_kappa_identities(bundle)
    lp_max_bound(operator, rows, "+")  # a kept problem does not excuse other input
    with pytest.raises(MixedBundleError):
        lp_max_bound(operator, pure_kappa_identities(other), "+")
    with pytest.raises(MixedBundleError):
        lp_max_bound(operator_coeffs("hodge_laplacian", other), rows, "-")
    curved = rows[0].replace(curvature_terms=(CurvatureTerm(power=1, hatted=False, coefficient=1),))
    with pytest.raises(ValueError, match="is not pure kappa"):
        lp_max_bound(operator, [curved, *rows[1:]], "+")
    assert list(identities._contexts[bundle].bound_problems) == [("hodge_laplacian", False)]
