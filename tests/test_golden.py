"""Golden certificates: every grid certificate must stay byte-identical.

``tests/data/golden_certificates.jsonl.gz`` holds one compact JSON line per
certificate (``BoundCertificate.to_json_dict``), in the order of
``golden_cases()``.  It was recorded with the two-LP primal solver that the
dual solve replaced, so any multiplier drift (a different tie-break on a
non-unique optimum) shows up here.

``tests/data/golden_general.jsonl.gz`` does the same for the off-shape
bundles of ``general_cases()``: one line per case, the certificate or
``no-certificate``.  It was recorded with the ``Fraction`` tableau simplex
that the integer pivot kernel replaced.

``tests/data/golden_casimir.jsonl.gz`` pins the Casimir layer: for every
weight of ``casimir_weights()``, one line with its ``casimir_report``, then
for k = 0..3 one ``decompose_bundle`` line and one ``theorem_family`` line.
It was recorded with the per-nu ``Fraction`` moment sums that the integer
summand table replaced.

``tests/data/golden_identities.jsonl.gz`` pins the identity layer on the same
weights: for k = 0..3, the ``pure_kappa_identities`` JSON (or its
``InconsistencyError`` message) without and with hpn, then the
``qkbw bw --format json`` object without and with ``--hpn``.  It was recorded
with the per-target ``Fraction`` builders that the per-call integer context
replaced.  Regenerate all four only on purpose:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import gzip
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qkbw.bounds import bound_for
from qkbw.casimir import casimir_report, decompose_bundle, lambda_ab_bundle
from qkbw.cli import main as cli_main
from qkbw.identities import (
    InconsistencyError,
    identities_to_json_dict,
    pure_kappa_identities,
    theorem_family,
)
from qkbw.selfcheck import dominant_weights
from qkbw.weights import BundleLabel, SpnWeight

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_certificates.jsonl.gz"
GOLDEN_GENERAL = ROOT / "tests" / "data" / "golden_general.jsonl.gz"
GOLDEN_CASIMIR = ROOT / "tests" / "data" / "golden_casimir.jsonl.gz"
GOLDEN_IDENTITIES = ROOT / "tests" / "data" / "golden_identities.jsonl.gz"
GENERAL_POOL = ROOT / "perfbench" / "lp_general_expected.json"
NO_CERTIFICATE = "no-certificate"


def golden_cases():
    """(operator, k, a, b, n, sign) for the sweep grid and the connection grid.

    hodge_laplacian: every label of ``qkbw sweep --n 2..5 --kappa-sign both``.
    connection_laplacian: S^k(H) (x) (1_a) for n = 2..5, 0 <= a <= n,
    0 <= k <= 2n - a, both signs.
    """
    cases = []
    for n in range(2, 6):
        for a in range(n + 1):
            for b in range(a + 1):
                for k in range(2 * n - a - b + 1):
                    for sign in "+-":
                        cases.append(("hodge_laplacian", k, a, b, n, sign))
    for n in range(2, 6):
        for a in range(n + 1):
            for k in range(2 * n - a + 1):
                for sign in "+-":
                    cases.append(("connection_laplacian", k, a, 0, n, sign))
    return cases


def general_cases():
    """(operator, bundle, sign) for every case of the lp-general bundle pool.

    140 bundles with n = 2..8 and k = 0..4, none of (2_b,1_(a-b)) shape; each
    runs the Hodge and the connection Laplacian with both signs.
    """
    with open(GENERAL_POOL, encoding="utf-8") as fh:
        pool = json.load(fh)["bundles"]
    return [
        (operator, BundleLabel(entry["k"], SpnWeight(tuple(entry["rho"]))), sign)
        for entry in pool
        for operator in ("hodge_laplacian", "connection_laplacian")
        for sign in "+-"
    ]


def casimir_weights():
    """Every dominant weight of entry sum <= 4 for n = 2..5 (44 weights)."""
    return [rho for n in range(2, 6) for rho in dominant_weights(n, 4)]


def _json(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def _cert_json(cert) -> str:
    return _json(cert.to_json_dict())


def certificate_line(case) -> str:
    operator, k, a, b, n, sign = case
    return _cert_json(bound_for(operator, lambda_ab_bundle(k, a, b, n), sign))


def general_line(case) -> str:
    result = bound_for(*case)
    return NO_CERTIFICATE if result.bound is None else _cert_json(result)


def casimir_lines(rho):
    """The report at q_max = min(2n, 12), then per k = 0..3 the table and the family."""
    lines = [_json(casimir_report(rho, q_max=min(2 * rho.n, 12)).to_json_dict())]
    for k in range(4):
        bundle = BundleLabel(k, rho)
        lines.append(_json(decompose_bundle(bundle).to_json_dict()))
        lines.append(_json(identities_to_json_dict(theorem_family(bundle))))
    return lines


def identity_lines(rho):
    """Per k = 0..3: the pure-kappa rows without and with hpn, then ``qkbw bw`` likewise."""
    lines = []
    for k in range(4):
        bundle = BundleLabel(k, rho)
        for hpn in (False, True):
            try:
                obj = identities_to_json_dict(pure_kappa_identities(bundle, hpn=hpn))
            except InconsistencyError as exc:
                obj = {"inconsistency": str(exc)}
            lines.append(_json(obj))
        argv = ["bw", "--n", str(rho.n), "--k", str(k), "--rho", str(rho), "--format", "json"]
        for extra in ([], ["--hpn"]):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli_main(argv + extra)
            assert code == 0, (rho, k, extra)
            lines.append(_json(json.loads(out.getvalue())))
    return lines


def _read_golden(path):
    with gzip.open(path, "rt", encoding="ascii") as fh:
        return fh.read().splitlines()


def _write_golden(path, lines):
    path.parent.mkdir(exist_ok=True)
    text = "".join(line + "\n" for line in lines)
    # mtime=0 keeps the gzip bytes reproducible.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("ascii"))


@pytest.mark.parametrize("operator", ["hodge_laplacian", "connection_laplacian"])
def test_certificates_byte_identical(operator):
    cases = golden_cases()
    golden = _read_golden(GOLDEN)
    assert len(golden) == len(cases)
    for case, line in zip(cases, golden):
        if case[0] == operator:
            assert certificate_line(case) == line, case


@pytest.mark.parametrize("operator", ["hodge_laplacian", "connection_laplacian"])
def test_general_outcomes_byte_identical(operator):
    cases = general_cases()
    golden = _read_golden(GOLDEN_GENERAL)
    assert len(golden) == len(cases) == 560
    for case, line in zip(cases, golden):
        if case[0] == operator:
            assert general_line(case) == line, case


def test_casimir_byte_identical():
    weights = casimir_weights()
    golden = _read_golden(GOLDEN_CASIMIR)
    assert len(golden) == 9 * len(weights) == 396
    for i, rho in enumerate(weights):
        assert casimir_lines(rho) == golden[9 * i : 9 * i + 9], rho


def test_identities_byte_identical():
    weights = casimir_weights()
    golden = _read_golden(GOLDEN_IDENTITIES)
    assert len(golden) == 16 * len(weights) == 704
    for i, rho in enumerate(weights):
        assert identity_lines(rho) == golden[16 * i : 16 * i + 16], rho


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write_golden(GOLDEN, map(certificate_line, golden_cases()))
    _write_golden(GOLDEN_GENERAL, map(general_line, general_cases()))
    _write_golden(GOLDEN_CASIMIR, [line for rho in casimir_weights() for line in casimir_lines(rho)])
    _write_golden(GOLDEN_IDENTITIES, [line for rho in casimir_weights() for line in identity_lines(rho)])
