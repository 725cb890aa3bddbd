import concurrent.futures
import functools
import json
import multiprocessing
from fractions import Fraction

import pytest

from qkbw import cli, selfcheck
from qkbw.bounds import NoCertificate
from qkbw.casimir import lambda_ab_bundle, relative_dimension_weyl
from qkbw.cli import main
from qkbw.selfcheck import suite_lp_agreement, sweep_cases
from qkbw.weights import SpnWeight, mu_shift


def nu_indices(n):
    """The shift indices in canonical order: 1..n then -1..-n."""
    return list(range(1, n + 1)) + [-i for i in range(1, n + 1)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCasimirVerb:
    def test_json_fixture(self, capsys):
        code, out, _ = run(
            capsys, "casimir", "--n", "2", "--rho", "1,0", "--q-max", "4", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        by_q = {row["q"]: row for row in data["values"]}
        assert by_q[2]["c"] == "10/1"
        assert by_q[4]["c"] == "160/1"

    def test_json_round_trip_is_byte_identical(self, capsys):
        code, out, _ = run(
            capsys, "casimir", "--n", "2", "--rho", "1,0", "--q-max", "3", "--format", "json"
        )
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_shorthand_weight(self, capsys):
        code, out, _ = run(
            capsys, "casimir", "--n", "3", "--rho", "2^1 1^1 @ 3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["rho"] == "2,1,0"

    def test_rejects_small_rank(self, capsys):
        code, _, err = run(capsys, "casimir", "--n", "1", "--rho", "1", "--format", "json")
        assert code == 2
        assert "error" in err


class TestBoundVerb:
    def test_spec_fixture(self, capsys):
        code, out, _ = run(
            capsys,
            "bound",
            "--n", "2", "--k", "2", "--a", "2", "--b", "0",
            "--kappa-sign", "+", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["bound"] == "3/8"
        assert data["matched_closed_form"] == "laplace-bound-table"

    def test_markdown(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--n", "2", "--k", "1", "--a", "0", "--b", "0", "--kappa-sign", "-"
        )
        assert code == 0
        assert "bound:" in out

    def test_determinism(self, capsys):
        argv = [
            "bound", "--n", "3", "--k", "2", "--a", "2", "--b", "1",
            "--kappa-sign", "-", "--format", "json",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bad_range_is_validation_error(self, capsys):
        code, _, err = run(
            capsys, "bound", "--n", "2", "--k", "1", "--a", "3", "--b", "0", "--kappa-sign", "+"
        )
        assert code == 2


class TestTableVerb:
    def test_markdown_has_five_rows(self, capsys):
        code, out, _ = run(capsys, "table1", "--n", "3", "--a", "2", "--b", "1")
        assert code == 0
        assert out.count("rho+mu") + out.count("rho-mu") == 5

    def test_needs_generic_shape(self, capsys):
        code, _, err = run(capsys, "table1", "--n", "3", "--a", "2", "--b", "2")
        assert code == 2


class TestDecomposeVerb:
    def test_nu_level(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--n", "2", "--rho", "1,0", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["summand_count"] == 3

    @pytest.mark.parametrize("fmt", ["md", "json", "csv"])
    def test_nu_level_reldims_match_weyl_oracle(self, capsys, fmt):
        for text in ("2,1,0", "1,1,1", "3,1,1,0"):
            rho = SpnWeight(tuple(int(e) for e in text.split(",")))
            code, out, _ = run(
                capsys, "decompose", "--n", str(rho.n), "--rho", text, "--format", fmt
            )
            assert code == 0
            if fmt == "json":
                data = json.loads(out)["candidates"]
                rows = [(c["nu"], c["dominant"], c["reldim"]) for c in data]
            elif fmt == "csv":
                lines = [line.split(",") for line in out.splitlines()[1:]]
                rows = [(int(f[0]), f[-2] == "1", f[-1]) for f in lines]
            else:
                lines = [line.split("|") for line in out.splitlines() if line.startswith("| ")]
                rows = [(int(f[1]), f[3].strip() == "yes", f[4].strip()) for f in lines[1:]]
            assert [nu for nu, _, _ in rows] == nu_indices(rho.n)
            for nu, dominant, reldim in rows:
                assert dominant == mu_shift(rho, nu).is_dominant
                assert Fraction(reldim) == relative_dimension_weyl(rho, nu)

    def test_bundle_level(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--n", "3", "--k", "2", "--rho", "1,1,0", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["summand_count"] == 6


class TestBwVerb:
    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "bw", "--n", "2", "--k", "2", "--a", "1", "--b", "0", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        tags = [i["provenance"] for i in data["identities"]]
        assert "sum" in tags and "bw3" in tags

    def test_raw_families(self, capsys):
        code, out, _ = run(
            capsys,
            "bw", "--n", "3", "--k", "2", "--a", "2", "--b", "1", "--raw", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        tags = [i["provenance"] for i in data["identities"]]
        assert tags == ["bochner1(1)", "bochner1(2)", "bochner2(0)", "bochner2(1)", "bochner2(2)"]

    @pytest.mark.parametrize("rho", ["1,0", "2,1,0", "3,1"])
    def test_raw_hpn_drops_every_curvature_term(self, capsys, rho):
        argv = ["bw", "--n", str(len(rho.split(","))), "--k", "1", "--rho", rho, "--raw"]
        _, raw, _ = run(capsys, *argv, "--format", "json")
        code, out, _ = run(capsys, *argv, "--hpn", "--format", "json")
        assert code == 0
        raw, hpn = json.loads(raw), json.loads(out)
        assert any(i["curvature"] for i in raw["identities"])
        assert all(i["curvature"] == [] for i in hpn["identities"])
        for ident in raw["identities"]:
            ident["curvature"] = []
        assert hpn == raw
        code, out, _ = run(capsys, *argv, "--hpn")
        tags = [line for line in out.splitlines() if line.startswith("[")]
        assert code == 0 and len(tags) == len(hpn["identities"])
        assert all(line.endswith("] (pure-kappa)") for line in tags)
        assert "mathfrak{R}" not in out

    def test_emit_latex(self, capsys):
        code, out, _ = run(
            capsys, "bw", "--n", "2", "--k", "1", "--a", "0", "--b", "0", "--emit-latex"
        )
        assert code == 0
        assert "B_{+1,+1}" in out and "\\kappa" in out

    def test_empty_raw_family_keeps_its_bundle_and_targets(self, capsys):
        argv = ["bw", "--n", "2", "--k", "0", "--rho", "0,0", "--raw"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "n": 2, "k": 0, "rho": "0,0", "targets": ["+1,+1"], "identities": []
        }
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert (code, out) == (0, 'provenance,"B(+1,+1)",kappa\n')

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "bw", "--n", "2", "--k", "1", "--a", "1", "--b", "0", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("provenance,")


class TestVanishVerb:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "vanish", "--n", "2", "--k", "0", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["ratios"]["+1,+1"] == "-9/64"
        assert data["verdicts"]["+"]["verdict"] == "vanishes"
        assert data["verdicts"]["-"]["verdict"] == "vanishes"


class TestHarmonicVerb:
    def test_both_signs(self, capsys):
        code, out, _ = run(capsys, "harmonic", "--n", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["classification"]["+"] == [[0, 0, 0], [0, 1, 1], [0, 2, 2]]
        assert [4, 0, 0] in data["classification"]["-"]


class TestHpnVerb:
    def test_sharp(self, capsys):
        code, out, _ = run(
            capsys, "hpn", "--n", "2", "--k", "2", "--a", "0", "--b", "0", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["first_eigenvalue"] == "1/1"
        assert data["sharp"] is True

    def test_low_k_rejected(self, capsys):
        code, _, _ = run(capsys, "hpn", "--n", "2", "--k", "1", "--a", "0", "--b", "0")
        assert code == 2


class TestSweepVerb:
    def test_small_sweep_no_mismatches(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2", "--kappa-sign", "both")
        assert code == 0
        assert "0 mismatches" in out

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2", "--k", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,a,b,kappa_sign,lp_bound,expected,match"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_csv_ledger_file(self, capsys, tmp_path):
        path = tmp_path / "ledger.csv"
        code, _, _ = run(
            capsys, "sweep", "--n", "2", "--k", "0..1", "--a", "1", "--b", "0", "--csv", str(path)
        )
        assert code == 0
        assert path.read_text().startswith("n,k,a,b")

    @pytest.mark.parametrize("ledger", [".", "missing/ledger.csv"], ids=["directory", "no-parent"])
    def test_unopenable_ledger_is_user_error(self, capsys, monkeypatch, tmp_path, ledger):
        # refused before any case runs
        monkeypatch.setattr(cli, "sweep_case", None)
        argv = ["sweep", "--n", "2", "--kappa-sign", "+", "--csv", str(tmp_path / ledger)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot open the --csv ledger: ")

    def test_hpn_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2", "--hpn")
        assert code == 0
        assert "0 mismatches" in out

    def test_empty_range(self, capsys):
        """An empty grid is a user error, not a passing gate of 0 cases."""
        code, out, err = run(capsys, "sweep", "--n", "2", "--k", "9", "--format", "json")
        assert (code, out) == (2, "")
        assert "selects no cases" in err

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(selfcheck, "closed_form_bound", lambda *args: Fraction(99))
        code, out, _ = run(capsys, "sweep", "--n", "2", "--k", "1", "--a", "0", "--b", "0")
        assert code == 1
        assert "2 mismatches" in out
        assert "  mismatch at n=2 k=1 a=0 b=0 sign +" in out.splitlines()
        failures = suite_lp_agreement(n_max=2).failures
        assert len(failures) == 2 * len(sweep_cases([2], "+"))
        assert "LP 7/64 != closed form 99 at k=1 a=0 b=0 n=2 sign +" in failures

    @staticmethod
    def missing_at(monkeypatch, missing):
        """selfcheck.bound_for with a NoCertificate for the bundle of each
        (k, a, b, n) in missing, for either sign; the real bound elsewhere."""
        real = selfcheck.bound_for
        bundles = {lambda_ab_bundle(*kabn) for kabn in missing}
        reason = "no nonnegative rewriting of hodge_laplacian exists over this identity span"

        def bound_for(name, bundle, sign, hpn=False):
            if bundle in bundles:
                return NoCertificate(bundle, name, 1 if sign == "+" else -1, reason)
            return real(name, bundle, sign, hpn=hpn)

        monkeypatch.setattr(selfcheck, "bound_for", bound_for)

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "pool"])
    def test_missing_grid_certificate_is_a_mismatch(self, capsys, monkeypatch, jobs):
        """Every grid case has a closed form, so a case with no certificate is
        a mismatch: its LP bound reads none, and the sweep exits 1.  Only that
        case's rows differ from the passing sweep's; with --jobs 2 the pool
        forks, so its workers see the patched bound_for."""
        argv = ["sweep", "--n", "2", "--k", "1", "--a", "0..1", "--b", "0", "--jobs", jobs]
        passing = {fmt: run(capsys, *argv, "--format", fmt) for fmt in ("md", "csv", "json")}
        assert {code for code, _, _ in passing.values()} == {0}
        self.missing_at(monkeypatch, [(1, 0, 0, 2)])
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(
            cli.concurrent.futures, "ProcessPoolExecutor",
            functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=fork),
        )

        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "sweep (closed-form comparison): 4 cases, 2 mismatches",
            "  mismatch at n=2 k=1 a=0 b=0 sign +: lp bound none",
            "  mismatch at n=2 k=1 a=0 b=0 sign -: lp bound none",
        ]
        assert passing["md"][1] == "sweep (closed-form comparison): 4 cases, 0 mismatches\n"

        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, err) == (1, "")
        rows, want = out.splitlines(), passing["csv"][1].splitlines()
        assert rows[0] == want[0] == "n,k,a,b,kappa_sign,lp_bound,expected,match"
        assert rows[1:3] == ["2,1,0,0,+,none,7/64,0", "2,1,0,0,-,none,-9/64,0"]
        assert rows[3:] == want[3:]
        assert [row.rsplit(",", 1)[0] for row in want[1:3]] == [
            "2,1,0,0,+,7/64,7/64", "2,1,0,0,-,-9/64,-9/64"
        ]

        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {"cases": 4, "mismatches": [[2, 1, 0, 0, "+"], [2, 1, 0, 0, "-"]]}
        assert json.loads(passing["json"][1]) == {"cases": 4, "mismatches": []}

    def test_missing_hpn_certificate_is_a_mismatch_and_fails_the_suites(self, capsys, monkeypatch):
        self.missing_at(monkeypatch, [(2, 0, 0, 2)])
        code, out, _ = run(capsys, "sweep", "--n", "2", "--k", "2", "--a", "0..1", "--b", "0", "--hpn")
        assert code == 1
        assert out.splitlines()[1:] == ["  mismatch at n=2 k=2 a=0 b=0 sign +: lp bound none"]
        assert suite_lp_agreement(n_max=2).failures == (
            "LP none != closed form 1/4 at k=2 a=0 b=0 n=2 sign +",
            "LP none != closed form -1/8 at k=2 a=0 b=0 n=2 sign -",
        )
        assert selfcheck.suite_hpn(n_max=2).failures == ("hpn bound none != lambda_1 1 at k=2 a=0 b=0 n=2",)

    def test_missing_hpn_certificate_exits_3_in_the_hpn_verb(self, capsys, monkeypatch):
        # lambda_1 / (2n) is a bound on the grid, so no certificate is a contradiction
        self.missing_at(monkeypatch, [(2, 0, 0, 2)])
        code, out, err = run(capsys, "hpn", "--n", "2", "--k", "2", "--a", "0", "--b", "0")
        assert (code, out) == (3, "")
        assert err == (
            "internal inconsistency: no certificate over the hpn identity span,"
            " where lambda_1 / (2n) is a bound\n"
        )

    def test_filters_are_parsed_before_the_grid(self, capsys):
        """--k was read only for a in range, so a bad --k passed as "no cases"."""
        code, out, err = run(capsys, "sweep", "--n", "2", "--a", "5", "--k", "zz")
        assert (code, out) == (2, "")
        assert err == "error: --k must be written in ASCII digits, got 'zz'\n"

    def test_filters_select_their_cases(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "3", "--a", "1..2", "--b", "1", "--format", "csv")
        assert code == 0
        cases = [tuple(map(int, line.split(",")[:4])) for line in out.splitlines()[1:]]
        # (n, k, a, b): a = 1 allows k <= 4, a = 2 allows k <= 3, one row per sign
        want = [(3, k, 1, 1) for k in range(5)] + [(3, k, 2, 1) for k in range(4)]
        assert cases == [case for case in want for _ in "+-"]

    def test_csv_ledger_header_written_once(self, capsys, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text("")
        argv = ("sweep", "--n", "2", "--k", "1", "--a", "0", "--b", "0", "--csv", str(path))
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv)[0] == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "n,k,a,b,kappa_sign,lp_bound,expected,match"
        assert len(lines) == 5
        assert sum(line.startswith("n,") for line in lines) == 1

    @pytest.mark.parametrize(
        "argv",
        [["--n", "5..2"], ["--n", "2", "--k", "99"], ["--n", "2", "--a", "7"]],
        ids=["empty-n-range", "k-out-of-range", "a-out-of-range"],
    )
    def test_empty_sweep_is_user_error(self, capsys, argv):
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 2
        assert out == ""
        assert "selects no cases" in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_user_error(self, capsys, jobs):
        code, _, err = run(capsys, "sweep", "--n", "2", "--k", "1", "--jobs", jobs)
        assert code == 2
        assert "--jobs" in err

    @staticmethod
    def serial_pool(monkeypatch, cpus):
        """Stand in for the process pool on a machine with cpus CPUs; the
        returned lists record each pool's size and each map's chunk size."""
        started, chunks = [], []

        class SerialPool:
            """Maps in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                chunks.append(chunksize)
                return map(fn, items)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return started, chunks

    @pytest.mark.parametrize("cpus, workers", [(1, None), (2, 2), (None, None)])
    def test_jobs_clamped_to_cpu_count(self, capsys, monkeypatch, cpus, workers):
        started, _ = self.serial_pool(monkeypatch, cpus)
        code, out, _ = run(capsys, "sweep", "--n", "2", "--k", "1", "--a", "0", "--b", "0", "--jobs", "2")
        assert code == 0
        assert "0 mismatches" in out
        assert started == ([] if workers is None else [workers])

    def test_pool_gets_contiguous_chunks(self, capsys, monkeypatch):
        """Four chunks per worker, so the cases of one rho stay together."""
        argv = ["sweep", "--n", "2..3", "--format", "csv"]
        serial = run(capsys, *argv)
        started, chunks = self.serial_pool(monkeypatch, 2)
        assert run(capsys, *argv, "--jobs", "2") == serial
        assert started == [2]
        assert chunks == [len(sweep_cases(range(2, 4), "+-")) // 8]


class TestSweepGrid:
    def test_grid_in_order(self):
        brute = [
            (n, k, a, b, sign, False)
            for n in range(2, 6)
            for a in range(n + 1)
            for b in range(a + 1)
            for k in range(2 * n - a - b + 1)
            for sign in "+-"
        ]
        assert len(brute) == 518
        assert sweep_cases(range(2, 6), "+-") == brute

    def test_hpn_grid(self):
        cases = sweep_cases(range(2, 5), "+", hpn=True)
        assert len(cases) == 74
        assert all(k >= 2 and sign == "+" and hpn for _, k, _, _, sign, hpn in cases)
        assert cases == [c[:5] + (True,) for c in sweep_cases(range(2, 5), "+") if c[1] >= 2]


class TestSelftestVerb:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--quick")
        assert code == 0
        assert out.splitlines() == [
            "[PASS] relative-dimension oracle equality: 102 cases, 0 failures",
            "[PASS] five-row table reproduction: 5 cases, 0 failures",
            "[PASS] Casimir identity suite: 180 cases, 0 failures",
            "[PASS] degree-2/4 closed forms: 16 cases, 0 failures",
            "[PASS] theorem rank check: 67 cases, 0 failures",
            "[PASS] printed-form matching: 16 cases, 0 failures",
            "[PASS] LP vs closed-form bounds: 116 cases, 0 failures",
            "[PASS] connection-Laplacian LP agreement: 56 cases, 0 failures",
            "[PASS] squared-Dirac bounds: 7 cases, 0 failures",
            "[PASS] twistor vanishing system: 10 cases, 0 failures",
            "[PASS] harmonic classification: 116 cases, 0 failures",
            "[PASS] projective-space sharpness: 28 cases, 0 failures",
        ]

    def test_full_passes(self, capsys):
        """The full corpus as `qkbw selftest` runs it: exit 0, and each suite
        at its full limits with its case count."""
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert out.splitlines() == [
            "[PASS] relative-dimension oracle equality: 318 cases, 0 failures",
            "[PASS] five-row table reproduction: 100 cases, 0 failures",
            "[PASS] Casimir identity suite: 396 cases, 0 failures",
            "[PASS] degree-2/4 closed forms: 52 cases, 0 failures",
            "[PASS] theorem rank check: 140 cases, 0 failures",
            "[PASS] printed-form matching: 52 cases, 0 failures",
            "[PASS] LP vs closed-form bounds: 518 cases, 0 failures",
            "[PASS] connection-Laplacian LP agreement: 117 cases, 0 failures",
            "[PASS] squared-Dirac bounds: 18 cases, 0 failures",
            "[PASS] twistor vanishing system: 28 cases, 0 failures",
            "[PASS] harmonic classification: 518 cases, 0 failures",
            "[PASS] projective-space sharpness: 74 cases, 0 failures",
        ]


class TestJsonRoundTrips:
    CASES = [
        ["casimir", "--n", "2", "--rho", "1,0"],
        ["decompose", "--n", "2", "--rho", "1,1"],
        ["decompose", "--n", "2", "--k", "2", "--rho", "1,1"],
        ["table1", "--n", "4", "--a", "3", "--b", "1"],
        ["bw", "--n", "2", "--k", "1", "--a", "1", "--b", "0"],
        ["bound", "--n", "2", "--k", "1", "--a", "1", "--b", "0", "--kappa-sign", "-"],
        ["vanish", "--n", "3", "--k", "2"],
        ["harmonic", "--n", "3"],
        ["hpn", "--n", "2", "--k", "3", "--a", "1", "--b", "0"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
    def test_byte_identical(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


class TestCsvOutputs:
    def test_casimir_csv(self, capsys):
        code, out, _ = run(capsys, "casimir", "--n", "2", "--rho", "1,0", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "q,c,c_hat"
        assert "2,10/1,35/1" in out

    def test_decompose_csv_parses(self, capsys):
        import csv as csv_mod
        import io

        code, out, _ = run(capsys, "decompose", "--n", "2", "--rho", "1,0", "--format", "csv")
        assert code == 0
        rows = list(csv_mod.reader(io.StringIO(out)))
        assert rows[0] == ["nu", "weight", "dominant", "reldim"]
        assert rows[1] == ["1", "2,0", "1", "5/2"]

    def test_vanish_csv(self, capsys):
        code, out, _ = run(capsys, "vanish", "--n", "2", "--k", "0", "--format", "csv")
        assert code == 0
        assert "+1;+1,-9/64" in out

    def test_harmonic_csv(self, capsys):
        code, out, _ = run(capsys, "harmonic", "--n", "2", "--kappa-sign", "+", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ["+,0,0,0", "+,0,1,1", "+,0,2,2"]


class TestParityNote:
    def test_decompose_flags_odd_labels(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "2", "--k", "1", "--rho", "0,0")
        assert code == 0
        assert "does not factor through" in out
        code, out, _ = run(
            capsys, "decompose", "--n", "2", "--k", "1", "--rho", "0,0", "--format", "json"
        )
        assert json.loads(out)["parity_warning"] is True


class TestGeneralWeightBound:
    def test_rho_outside_form_shapes(self, capsys):
        # connection Laplacian works on any dominant weight; no closed-form tag
        code, out, _ = run(
            capsys,
            "bound", "--n", "2", "--k", "2", "--rho", "3,1",
            "--operator", "connection", "--kappa-sign", "+", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["bound"] == "1/8"
        assert data["matched_closed_form"] is None

    def test_no_certificate_is_exit_4(self, capsys):
        # the formal Hodge expansion on a non-form weight has no
        # nonnegative rewriting; that is a result, not an inconsistency
        argv = ["bound", "--n", "2", "--k", "2", "--rho", "3,1", "--operator", "hodge", "--kappa-sign", "+"]
        reason = "no nonnegative rewriting of hodge_laplacian exists over this identity span"
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (4, "")
        assert json.loads(out) == {
            "n": 2,
            "k": 2,
            "rho": "3,1",
            "operator": "hodge_laplacian",
            "kappa_sign": "+",
            "bound": None,
            "reason": reason,
        }
        code, out, err = run(capsys, *argv)
        assert (code, err) == (4, "")
        assert "bound: none" in out and reason in out


class TestUsageErrors:
    def test_unknown_verb(self, capsys):
        assert run(capsys, "eigensolve")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "casimir")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "harmonic", "--n", "2", "--mode", "fast")[0] == 2

    def test_negative_count_weight_is_user_error(self, capsys):
        """Once read as the zero weight and certified with exit 0."""
        code, out, err = run(
            capsys, "bound", "--n", "2", "--k", "0", "--rho", "1^(-3) @ 2", "--kappa-sign", "+"
        )
        assert (code, out) == (2, "")
        assert "ASCII digits" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--n", "٢", "--k", "1_0", "--a", "1", "--kappa-sign", "+", "--format", "json"],
            ["sweep", "--n", "2", "--k", "0_1", "--a", "0", "--b", "0"],
            ["sweep", "--n", "2..３", "--k", "1"],
            ["sweep", "--n", "2", "--k", "1", "--jobs", "1_0"],
            ["casimir", "--n", "2", "--rho", "1,0", "--q-max", "0_4"],
            ["table1", "--n", "4", "--a", "+2", "--b", "1"],
        ],
        ids=["bound-digits", "sweep-k-underscore", "sweep-range-end", "jobs", "q-max", "plus-sign"],
    )
    def test_integer_flags_take_ascii_digits_only(self, capsys, argv):
        """Once read through int(): the first two certified n = 2, k = 10 and ran k = 1."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "ASCII digits" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--n", "2", "--k", "1", "--rho", "1,0", "--a", "2", "--kappa-sign", "+"],
            ["casimir", "--n", "2", "--rho", "1,0", "--a", "2"],
            ["bw", "--n", "2", "--k", "1", "--rho", "1,0", "--b", "0"],
        ],
        ids=["bound-a", "casimir-a", "bw-b"],
    )
    def test_rho_with_a_or_b_is_user_error(self, capsys, argv):
        """--a and --b were dropped without a word when --rho was given."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "--rho conflicts with --a/--b" in err

    def test_hpn_sweep_with_negative_kappa_is_user_error(self, capsys):
        """The sweep ran the + cases only and exited 0."""
        code, out, err = run(capsys, "sweep", "--n", "2", "--hpn", "--kappa-sign", "-")
        assert (code, out) == (2, "")
        assert "kappa > 0" in err

    def test_hpn_bound_with_negative_kappa_still_runs(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--n", "2", "--k", "2", "--a", "0", "--hpn", "--kappa-sign", "-",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["kappa_sign"] == "-"
