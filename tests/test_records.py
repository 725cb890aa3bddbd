"""The value contract of every record class in the package.

Each record compares and hashes by field value, only against its own class;
is frozen; rebuilds through its constructor on ``replace``, so the label
rules run again; survives pickle (``sweep --jobs`` sends results between
processes) and copy; and prints as ``Name(field=value, ...)``.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from qkbw import identities
from qkbw.bounds import BoundCertificate, KernelAnalysis, NoCertificate, bound_for, twistor_kernel_analysis
from qkbw.casimir import CasimirReport, DecompositionTable, casimir_report, decompose_bundle
from qkbw.identities import BWIdentity, CurvatureTerm, OperatorSpec, operator_coeffs, printed_identity
from qkbw.selfcheck import SuiteResult
from qkbw.weights import BundleLabel, NonDominantError, ParameterRangeError, SpnWeight

ZERO = BundleLabel(0, SpnWeight((0, 0)))
ZERO_REPR = "BundleLabel(k=0, rho=SpnWeight((0,0)))"

# class -> (builder of a fresh instance, its field names, one field change)
RECORDS = {
    SpnWeight: (lambda: SpnWeight((2, 1, 0)), ("entries",), {"entries": (2, 2, 0)}),
    BundleLabel: (lambda: BundleLabel(2, SpnWeight((2, 1, 0))), ("k", "rho"), {"k": 4}),
    CasimirReport: (lambda: casimir_report(SpnWeight((1, 0)), q_max=1), ("rho", "values"), {"values": ()}),
    DecompositionTable: (lambda: decompose_bundle(ZERO), ("bundle", "dim", "rows"), {"dim": 2}),
    CurvatureTerm: (
        lambda: CurvatureTerm(power=1, hatted=False, coefficient=Fraction(1)),
        ("power", "hatted", "coefficient"),
        {"hatted": True},
    ),
    BWIdentity: (
        lambda: printed_identity(ZERO, "bw1"),
        ("bundle", "targets", "values", "kappa", "denominator", "curvature_terms", "provenance"),
        {"provenance": "bw2"},
    ),
    OperatorSpec: (
        # operator_coeffs returns the kept row, so each instance is built on a new context
        lambda: identities._operator_row("connection_laplacian", identities._Context(ZERO)),
        ("name", "bundle", "targets", "values", "denominator"),
        {"name": "dirac_squared"},
    ),
    BoundCertificate: (
        lambda: bound_for("hodge_laplacian", ZERO, "+"),
        ("bundle", "operator", "kappa_sign", "multipliers", "residuals", "bound", "matched_closed_form"),
        {"matched_closed_form": "laplace-bound-table"},
    ),
    NoCertificate: (
        lambda: bound_for("hodge_laplacian", BundleLabel(2, SpnWeight((3, 1))), "+"),
        ("bundle", "operator", "kappa_sign", "reason"),
        {"kappa_sign": -1},
    ),
    KernelAnalysis: (
        lambda: twistor_kernel_analysis(0, 2),
        ("bundle", "kernel_set", "solved_ratios", "rank_deficit"),
        {"rank_deficit": 1},
    ),
    SuiteResult: (lambda: SuiteResult("suite", 3, ["f"]), ("name", "cases", "failures"), {"cases": 4}),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_by_value_within_one_class(cls):
    make, fields, change = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert list(vars(a)) == list(fields)
    assert a == b and not a != b
    assert a != a.replace(**change)
    twin = type("Twin", (cls,), {})
    other = object.__new__(twin)
    vars(other).update(vars(a))
    assert vars(other) == vars(a)
    assert a != other and other != a
    assert a != tuple(vars(a).values())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_frozen_records_hash_by_value_and_refuse_assignment(cls):
    make, fields, change = RECORDS[cls]
    a = make()
    assert hash(a) == hash(make()) == hash(tuple(getattr(a, f) for f in fields))
    assert len({a, make(), a.replace(**change)}) == 2
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, fields[0])
    assert a == make()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_builds_a_changed_copy(cls):
    make, fields, change = RECORDS[cls]
    a = make()
    (name, value), = change.items()
    b = a.replace(**change)
    assert type(b) is cls and getattr(b, name) == value
    assert all(getattr(b, f) == getattr(a, f) for f in fields if f != name)
    assert a.replace() == a and a.replace() is not a
    with pytest.raises(TypeError):
        a.replace(no_such_field=1)


def test_replace_runs_the_label_rules_again():
    w = SpnWeight((2, 1))
    with pytest.raises(TypeError):
        w.replace(entries=(2.5, 1))
    with pytest.raises(ParameterRangeError):
        w.replace(entries=(2,))
    assert w.replace(entries=(True, 0)).entries == (1, 0)
    assert type(w.replace(entries=[3, 1]).entries) is tuple
    label = BundleLabel(2, w)
    with pytest.raises(ParameterRangeError):
        label.replace(k=-1)
    with pytest.raises(TypeError):
        label.replace(k=Fraction(5, 2))
    with pytest.raises(NonDominantError):
        label.replace(rho=SpnWeight((1, 2)))
    assert label.replace(k=True).k == 1 and type(label.replace(k=True).k) is int


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_round_trips(cls):
    a = RECORDS[cls][0]()
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        b = pickle.loads(pickle.dumps(a, protocol))
        assert type(b) is cls and b == a and repr(b) == repr(a)
    for b in (copy.copy(a), copy.deepcopy(a)):
        assert type(b) is cls and b == a and repr(b) == repr(a)


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: SpnWeight((2, 1, 0)), "SpnWeight((2,1,0))"),
        (lambda: BundleLabel(2, SpnWeight((2, 1, 0))), "BundleLabel(k=2, rho=SpnWeight((2,1,0)))"),
        (
            lambda: CurvatureTerm(power=1, hatted=False, coefficient=Fraction(1)),
            "CurvatureTerm(power=1, hatted=False, coefficient=Fraction(1, 1))",
        ),
        (
            lambda: casimir_report(SpnWeight((1, 0)), q_max=1),
            "CasimirReport(rho=SpnWeight((1,0)), values=((0, Fraction(4, 1), Fraction(4, 1)),"
            " (1, Fraction(0, 1), Fraction(-10, 1))))",
        ),
        (
            lambda: printed_identity(ZERO, "bw1"),
            f"BWIdentity(bundle={ZERO_REPR}, targets=((1, 1),), values=(0,), kappa=0,"
            " denominator=1, curvature_terms=(CurvatureTerm(power=1, hatted=False,"
            " coefficient=Fraction(1, 1)),), provenance='bw1')",
        ),
        (
            lambda: operator_coeffs("hodge_laplacian", ZERO),
            f"OperatorSpec(name='hodge_laplacian', bundle={ZERO_REPR}, targets=((1, 1),),"
            " values=(1,), denominator=1)",
        ),
        (
            lambda: bound_for("hodge_laplacian", ZERO, "+"),
            f"BoundCertificate(bundle={ZERO_REPR}, operator='hodge_laplacian', kappa_sign=1,"
            " multipliers=(), residuals=(((1, 1), Fraction(1, 1)),), bound=Fraction(0, 1),"
            " matched_closed_form=None)",
        ),
        (
            lambda: bound_for("hodge_laplacian", BundleLabel(2, SpnWeight((3, 1))), "+"),
            "NoCertificate(bundle=BundleLabel(k=2, rho=SpnWeight((3,1))), operator='hodge_laplacian',"
            " kappa_sign=1, reason='no nonnegative rewriting of hodge_laplacian exists over this"
            " identity span')",
        ),
        (lambda: SuiteResult("suite", 3, ["f"]), "SuiteResult(name='suite', cases=3, failures=('f',))"),
    ],
)
def test_repr(make, text):
    assert repr(make()) == text


def test_no_certificate_bound_is_not_a_field():
    result = RECORDS[NoCertificate][0]()
    assert result.bound is None and "bound" not in vars(result)


def test_operator_constant_kappa_is_a_class_constant():
    operator = RECORDS[OperatorSpec][0]()
    assert operator.constant_kappa == OperatorSpec.constant_kappa == 0
    assert "constant_kappa" not in vars(operator)


def test_kernel_verdicts_follow_the_ratios():
    analysis = RECORDS[KernelAnalysis][0]()
    assert "verdicts" not in vars(analysis)
    assert [v for _, v, _ in analysis.verdicts] == ["vanishes", "vanishes"]
    unsolved = analysis.replace(solved_ratios=(), rank_deficit=1)
    assert unsolved.verdicts == ((1, "undetermined", None), (-1, "undetermined", None))
    assert unsolved.to_json_dict()["verdicts"]["+"] == {"verdict": "undetermined", "witness": None}


def test_suite_result_keeps_its_failures_as_a_tuple():
    result = SuiteResult("suite", 3, ["f"])
    assert result.failures == ("f",) and not result.ok
    assert SuiteResult("suite", 3, iter(())).ok
