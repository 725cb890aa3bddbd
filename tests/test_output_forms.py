"""The CLI's one output path: only the requested form is built, table CSV
agrees with its JSON rows, --emit-latex excludes --format, and the canonical
rational text reads back strictly."""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkbw import cli
from qkbw.bounds import BoundCertificate, KernelAnalysis, NoCertificate
from qkbw.casimir import CasimirReport, DecompositionTable
from qkbw.rationals import csv_table, format_rational, parse_rational


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def dominant_weights(n, total_max):
    """Every dominant Sp(n) weight with entry sum at most total_max."""
    def parts(length, largest, budget):
        if length == 0:
            yield ()
            return
        for first in range(min(largest, budget) + 1):
            for rest in parts(length - 1, first, budget - first):
                yield (first,) + rest

    return list(parts(n, total_max, total_max))


RHOS = [rho for n in range(2, 6) for rho in dominant_weights(n, 4)]
TABLE1 = [(n, a, b) for n in range(3, 7) for a in range(2, n) for b in range(1, a)]


class TestEmitLatexExcludesFormat:
    BW = ["bw", "--n", "2", "--k", "0", "--rho", "1,0"]

    @pytest.mark.parametrize("fmt", ["json", "md", "csv"])
    @pytest.mark.parametrize("latex_first", [True, False])
    def test_conflict_is_a_usage_error(self, fmt, latex_first):
        flags = ["--emit-latex", "--format", fmt] if latex_first else ["--format", fmt, "--emit-latex"]
        code, out, err = run(*self.BW, *flags)
        assert (code, out) == (2, "")
        assert err.startswith("usage: qkbw bw") and "not allowed with argument" in err

    def test_emit_latex_alone_writes_one_line_per_identity(self):
        code, out, _ = run(*self.BW, "--emit-latex")
        _, md, _ = run(*self.BW)
        latex = [line[2:] for line in md.splitlines() if line.startswith("  ")]
        assert code == 0 and out.splitlines() == latex

    def test_bound_offers_no_csv(self):
        argv = ["bound", "--n", "2", "--k", "2", "--a", "2", "--b", "0", "--kappa-sign", "+"]
        code, out, err = run(*argv, "--format", "csv")
        assert (code, out, err) == (2, "", "error: csv output is not available for this command\n")


def boom(*args, **kwargs):
    raise AssertionError("a form that was not requested was built")


BOUND = ["bound", "--n", "2", "--k", "2", "--a", "2", "--b", "0", "--kappa-sign", "+"]
NO_CERT = ["bound", "--n", "2", "--k", "2", "--rho", "3,1", "--kappa-sign", "+"]
BW = ["bw", "--n", "2", "--k", "1", "--rho", "1,0"]

# (argv, the unrequested renderers that must not run): each is an attribute
# of a record class or of the cli module, patched to raise
ONLY_REQUESTED = [
    (BOUND + ["--format", "json"], [(BoundCertificate, "to_markdown")]),
    (BOUND + ["--format", "md"], [(BoundCertificate, "to_json_dict")]),
    (NO_CERT + ["--format", "json"], [(NoCertificate, "to_markdown")]),
    (NO_CERT + ["--format", "md"], [(NoCertificate, "to_json_dict")]),
    (BW + ["--format", "csv"], [(cli, "identity_to_latex"), (cli, "identities_to_json_dict")]),
    (BW + ["--format", "json"], [(cli, "identity_to_latex"), (cli, "identities_to_csv")]),
    (BW + ["--format", "md"], [(cli, "identities_to_json_dict"), (cli, "identities_to_csv")]),
    (BW + ["--emit-latex"], [(cli, "identities_to_json_dict"), (cli, "identities_to_csv")]),
    (["casimir", "--n", "2", "--rho", "1,0", "--format", "csv"], [(CasimirReport, "to_markdown")]),
    (["casimir", "--n", "2", "--rho", "1,0"], [(CasimirReport, "to_json_dict"), (CasimirReport, "to_csv")]),
    (["decompose", "--n", "2", "--k", "1", "--rho", "1,0", "--format", "csv"],
     [(DecompositionTable, "to_markdown")]),
    (["decompose", "--n", "2", "--k", "1", "--rho", "1,0", "--format", "json"],
     [(DecompositionTable, "to_markdown"), (DecompositionTable, "to_csv")]),
    (["decompose", "--n", "3", "--rho", "2,1,0", "--format", "json"], [(cli, "csv_table")]),
    (["table1", "--n", "4", "--a", "2", "--b", "1"], [(cli, "csv_table")]),
    (["vanish", "--n", "2", "--k", "1", "--format", "json"],
     [(KernelAnalysis, "to_markdown"), (KernelAnalysis, "to_csv")]),
    (["vanish", "--n", "2", "--k", "1", "--format", "csv"],
     [(KernelAnalysis, "to_markdown"), (KernelAnalysis, "to_json_dict")]),
    (["hpn", "--n", "2", "--k", "2", "--a", "1", "--b", "0"], [(cli, "format_rational")]),
    (["sweep", "--n", "2", "--kappa-sign", "+", "--format", "json"], [(cli, "format_rational")]),
]


@pytest.mark.parametrize(
    "argv, unrequested", ONLY_REQUESTED, ids=[" ".join(argv) for argv, _ in ONLY_REQUESTED]
)
def test_only_the_requested_form_is_built(monkeypatch, argv, unrequested):
    expected = run(*argv)
    assert expected[0] in (0, 4) and expected[1]
    for owner, name in unrequested:
        monkeypatch.setattr(owner, name, boom)
    assert run(*argv) == expected


def csv_rows(text):
    header, *rows = csv.reader(io.StringIO(text))
    return header, rows


def assert_csv_matches_json_rows(text, json_rows):
    header, rows = csv_rows(text)
    assert header == list(json_rows[0])
    assert len(rows) == len(json_rows)
    for row, obj in zip(rows, json_rows):
        assert row == [str(int(v)) if isinstance(v, bool) else str(v) for v in obj.values()]


@settings(max_examples=60, deadline=None)
@given(rho=st.sampled_from(RHOS), k=st.sampled_from([None, 0, 1, 2, 3]))
def test_table_csv_is_its_json_rows(rho, k):
    n = len(rho)
    weight = ",".join(map(str, rho))
    casimir = ["casimir", "--n", str(n), "--rho", weight]
    _, text, _ = run(*casimir, "--format", "csv")
    _, obj, _ = run(*casimir, "--format", "json")
    assert_csv_matches_json_rows(text, json.loads(obj)["values"])

    decompose = ["decompose", "--n", str(n), "--rho", weight] + ([] if k is None else ["--k", str(k)])
    code, text, _ = run(*decompose, "--format", "csv")
    _, obj, _ = run(*decompose, "--format", "json")
    assert code == 0
    assert_csv_matches_json_rows(text, json.loads(obj)["candidates" if k is None else "targets"])


@settings(max_examples=20, deadline=None)
@given(triple=st.sampled_from(TABLE1))
def test_table1_csv_is_its_json_rows(triple):
    argv = ["table1"] + [x for flag, v in zip(("--n", "--a", "--b"), triple) for x in (flag, str(v))]
    code, text, _ = run(*argv, "--format", "csv")
    _, obj, _ = run(*argv, "--format", "json")
    assert code == 0
    assert_csv_matches_json_rows(text, json.loads(obj)["rows"])


class TestCsvTable:
    def test_header_is_the_key_order(self):
        assert csv_table([{"b": 1, "a": 2}, {"b": 3, "a": 4}]) == "b,a\n1,2\n3,4\n"

    def test_bools_are_one_and_zero(self):
        assert csv_table([{"ok": True}, {"ok": False}]) == "ok\n1\n0\n"

    def test_a_cell_with_a_comma_is_quoted(self):
        text = csv_table([{"rho": "2,1,0", "w": "-3/2"}])
        assert text == 'rho,w\n"2,1,0",-3/2\n'
        assert csv_rows(text) == (["rho", "w"], [["2,1,0", "-3/2"]])


class TestParseRational:
    @settings(max_examples=200)
    @given(st.fractions())
    def test_reads_back_what_format_rational_writes(self, x):
        assert parse_rational(format_rational(x)) == x

    @pytest.mark.parametrize("text", ["0/1", "-7/2", "10/1", "123456789012345678901/2"])
    def test_canonical(self, text):
        assert format_rational(parse_rational(text)) == text

    @pytest.mark.parametrize(
        "text",
        ["1.5", "1e3", " +3/6 ", "3/6", "7", "+1/2", "-0/1", "1/0", "0/0", "01/2", "1/02",
         "1/-2", "-1/-2", "1/2/3", "", "/", "1/", "/2", " 1/2", "1/2\n", "1_0/1", "١/1", "-/1"],
    )
    def test_rejects_every_other_form(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_returns_a_fraction(self):
        assert parse_rational("-3/4") == Fraction(-3, 4) and type(parse_rational("2/1")) is Fraction


def test_decompose_markdown_rows_are_its_json_rows():
    """Every dominant rho of entry sum <= 4, n = 2..5, k = 0..3 (parity-warning
    and k = 0 bundles included): the markdown of decompose --k has the JSON's
    count, warning and rows, each cell the JSON value in Fraction text."""
    for rho in RHOS:
        for k in range(4):
            weight = ",".join(map(str, rho))
            argv = ["decompose", "--n", str(len(rho)), "--rho", weight, "--k", str(k)]
            code, md, _ = run(*argv)
            _, obj, _ = run(*argv, "--format", "json")
            data = json.loads(obj)
            assert code == 0
            lines = md.splitlines()
            assert lines[0].endswith(f"(valid summands: {data['summand_count']})")
            assert ("does not factor through" in lines[1]) == data["parity_warning"]
            body = [line for line in lines if line[:3] in ("| +", "| -")]
            cells = [[c.strip() for c in line.strip("|").split("|")] for line in body]
            assert len(cells) == len(data["targets"]) == 4 * len(rho)
            for got, row in zip(cells, data["targets"]):
                assert got[:4] == [
                    f"{row['N']:+d}", f"{row['nu']:+d}", f"({row['k']}, ({row['rho']}))",
                    "yes" if row["valid"] else "no",
                ]
                values = [parse_rational(row[key]) for key in ("w", "w_hat", "W", "reldim")]
                assert got[4:] == [str(v) for v in values]


@settings(max_examples=60, deadline=None)
@given(rho=st.sampled_from(RHOS), k=st.integers(0, 3), raw=st.booleans(), hpn=st.booleans())
@example(rho=(0, 0), k=0, raw=True, hpn=False)  # an empty family: the header alone
def test_bw_csv_has_one_field_count_and_its_json_values(rho, k, raw, hpn):
    """Every bw CSV form (printed, --hpn, --raw, an empty family) parses with
    the csv module to one field count, and its cells are the JSON values."""
    argv = ["bw", "--n", str(len(rho)), "--rho", ",".join(map(str, rho)), "--k", str(k)]
    argv += ["--raw"] * raw + ["--hpn"] * hpn
    code, text, _ = run(*argv, "--format", "csv")
    _, obj, _ = run(*argv, "--format", "json")
    assert code == 0
    data = json.loads(obj)
    header, rows = csv_rows(text)
    targets = [f"B({t})" for t in data["targets"]]
    assert header[: len(targets) + 2] == ["provenance", *targets, "kappa"]
    curvature = header[len(targets) + 2 :]
    assert all(len(row) == len(header) for row in rows)
    assert len(rows) == len(data["identities"])
    for row, ident in zip(rows, data["identities"]):
        terms = {
            ("Rhat^" if t["hatted"] else "R^") + str(t["power"]): t["coefficient"]
            for t in ident["curvature"]
        }
        assert set(terms) <= set(curvature)
        assert row == [
            ident["provenance"], *ident["coefficients"], ident["kappa"],
            *(terms.get(key, "0/1") for key in curvature),
        ]
