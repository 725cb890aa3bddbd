"""Golden certificates: every grid certificate must stay byte-identical.

``tests/data/golden_certificates.jsonl.gz`` holds one compact JSON line per
certificate (``BoundCertificate.to_json_dict``), in the order of
``golden_cases()``.  It was recorded with the two-LP primal solver that the
dual solve replaced, so any multiplier drift (a different tie-break on a
non-unique optimum) shows up here.  Regenerate only on purpose:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import gzip
import json
import sys
from pathlib import Path

import pytest

from qkbw.bounds import bound_for
from qkbw.casimir import lambda_ab_bundle

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_certificates.jsonl.gz"


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


def certificate_line(case) -> str:
    operator, k, a, b, n, sign = case
    cert = bound_for(operator, lambda_ab_bundle(k, a, b, n), sign)
    return json.dumps(cert.to_json_dict(), separators=(",", ":"))


def _read_golden():
    with gzip.open(GOLDEN, "rt", encoding="ascii") as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize("operator", ["hodge_laplacian", "connection_laplacian"])
def test_certificates_byte_identical(operator):
    cases = golden_cases()
    golden = _read_golden()
    assert len(golden) == len(cases)
    for case, line in zip(cases, golden):
        if case[0] == operator:
            assert certificate_line(case) == line, case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    text = "".join(certificate_line(case) + "\n" for case in golden_cases())
    # mtime=0 keeps the gzip bytes reproducible.
    with open(GOLDEN, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("ascii"))
