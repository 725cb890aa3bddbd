from fractions import Fraction

import pytest

from qkbw.casimir import (
    casimir_eigenvalue,
    casimir_hat,
    casimir_report,
    closed_form_c2_lambda_ab,
    closed_form_c4_lambda_ab,
    conformal_weight,
    decompose_bundle,
    lambda_ab_bundle,
    relative_dimension_product,
    relative_dimension_weyl,
    sp1_conformal_weight,
    table1_row,
    verify_recursion,
)
from qkbw.rationals import parse_rational
from qkbw.weights import BundleLabel, ParameterRangeError, SpnWeight, decompose_rho_tensor_E


def w(*entries):
    return SpnWeight(tuple(entries))


def conformal_weight_hat(rho, nu):
    """Translated weight w_hat = w - (n + 1/2); always a half-integer."""
    return conformal_weight(rho, nu) - (rho.n + Fraction(1, 2))


class TestConformalWeights:
    def test_rho_10_n2(self):
        rho = w(1, 0)
        assert [conformal_weight(rho, nu) for nu in (1, 2, -1, -2)] == [-1, 1, 5, 3]

    def test_lambda_ab_rows(self):
        # generic (2_b, 1_{a-b}) shape: the five distinct summand weights
        a, b, n = 3, 1, 4
        rho = lambda_ab_bundle(0, a, b, n).rho
        assert conformal_weight(rho, 1) == -2
        assert conformal_weight(rho, b + 1) == b - 1
        assert conformal_weight(rho, a + 1) == a
        assert conformal_weight(rho, -b) == 2 * n - b + 3
        assert conformal_weight(rho, -a) == 2 * n - a + 2

    def test_hat_shift(self):
        rho = w(1, 0)
        for nu in (1, 2, -1, -2):
            assert conformal_weight_hat(rho, nu) == conformal_weight(rho, nu) - Fraction(5, 2)

    def test_sp1(self):
        assert sp1_conformal_weight(0, 1) == 0
        assert sp1_conformal_weight(2, -1) == 4
        assert sp1_conformal_weight(5, 1) == -5
        with pytest.raises(ValueError):
            sp1_conformal_weight(-1, 1)
        with pytest.raises(ValueError):
            sp1_conformal_weight(2, 0)


class TestRelativeDimensions:
    def test_oracle_rho_10(self):
        rho = w(1, 0)
        assert [relative_dimension_weyl(rho, nu) for nu in (1, 2, -1)] == [
            Fraction(5, 2),
            Fraction(5, 4),
            Fraction(1, 4),
        ]
        assert relative_dimension_weyl(rho, -2) == 0

    def test_oracle_rho_20(self):
        assert relative_dimension_weyl(w(2, 0), 1) == 2

    def test_trivial_module(self):
        for n in (2, 3, 5):
            rho = SpnWeight((0,) * n)
            assert relative_dimension_weyl(rho, 1) == 2 * n
            assert relative_dimension_product(rho, 1) == 2 * n

    def test_product_matches_oracle_on_fixtures(self):
        for rho in (w(1, 0), w(2, 0), w(1, 1), w(2, 1)):
            for nu in (1, 2, -1, -2):
                assert relative_dimension_product(rho, nu) == relative_dimension_weyl(rho, nu)

    def test_product_rho_11(self):
        assert relative_dimension_product(w(1, 1), 1) == Fraction(16, 5)

    def test_prefactor_calibration(self):
        # The prefactor shift s = (-1)^N / 2 reproduces 2n on the trivial
        # module and the full relative-dimension sum on (1, 0).
        rho = w(0, 0)
        assert relative_dimension_product(rho, 1) == 4
        rho = w(1, 0)
        assert sum(relative_dimension_product(rho, nu) for nu in (1, 2, -1)) == 4


class TestCasimirEigenvalues:
    def test_c1_vanishes(self):
        for rho in (w(1, 0), w(2, 1), w(1, 1, 1), w(4, 0, 0)):
            assert casimir_eigenvalue(rho, 1) == 0

    def test_c2_c4_rho_10(self):
        rho = w(1, 0)
        assert casimir_eigenvalue(rho, 2) == 10
        assert casimir_eigenvalue(rho, 4) == 160

    def test_low_identities(self):
        for rho in (w(1, 0), w(2, 1), w(2, 2, 1)):
            n = rho.n
            assert casimir_eigenvalue(rho, 0) == 2 * n
            assert casimir_hat(rho, 0) == 2 * n
            assert casimir_hat(rho, 1) == -2 * n**2 - n
            c2 = casimir_eigenvalue(rho, 2)
            assert casimir_eigenvalue(rho, 3) == (n + 1) * c2
            m = n + Fraction(1, 2)
            assert casimir_hat(rho, 2) == c2 + 2 * n * m**2
            assert casimir_hat(rho, 3) == -(2 * n + Fraction(1, 2)) * c2 - 2 * n * m**3

    def test_negative_q(self):
        with pytest.raises(ValueError):
            casimir_eigenvalue(w(1, 0), -1)


class TestClosedForms:
    def test_c2_fixture(self):
        assert closed_form_c2_lambda_ab(2, 1, 3) == 42

    def test_trivial(self):
        assert closed_form_c2_lambda_ab(0, 0, 4) == 0
        assert closed_form_c4_lambda_ab(0, 0, 4) == 0

    def test_c4_fixture(self):
        assert closed_form_c4_lambda_ab(1, 0, 2) == 160

    def test_matches_moment_sums(self):
        for (a, b, n) in ((1, 0, 2), (2, 1, 3), (3, 3, 4), (2, 2, 2)):
            rho = lambda_ab_bundle(0, a, b, n).rho
            assert casimir_eigenvalue(rho, 2) == closed_form_c2_lambda_ab(a, b, n)
            assert casimir_eigenvalue(rho, 4) == closed_form_c4_lambda_ab(a, b, n)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            closed_form_c2_lambda_ab(1, 2, 3)
        with pytest.raises(ValueError):
            closed_form_c4_lambda_ab(4, 0, 3)


class TestTableRows:
    def test_adjoint_row(self):
        # a = b = 1 at n = 2 is a boundary shape, outside the five-row table;
        # the oracle gives its first row, (-2, 2)
        with pytest.raises(ParameterRangeError, match="needs 0 < b < a < n"):
            table1_row(1, 1, 2, 1)
        rho = lambda_ab_bundle(0, 1, 1, 2).rho
        assert (conformal_weight(rho, 1), relative_dimension_weyl(rho, 1)) == (-2, 2)

    def test_vanishing_at_a_equals_n(self):
        # at a = n the nu = a+1 row (reldim factor n-a) is not a summand at all
        with pytest.raises(ParameterRangeError, match="needs 0 < b < a < n"):
            table1_row(3, 1, 3, 4)
        rho = lambda_ab_bundle(0, 3, 1, 3).rho
        assert 4 not in [nu for nu, _ in decompose_rho_tensor_E(rho)]

    def test_all_rows_match_oracle(self):
        a, b, n = 3, 2, 5
        rho = lambda_ab_bundle(0, a, b, n).rho
        for nu in (1, b + 1, a + 1, -b, -a):
            w_val, rd = table1_row(a, b, n, nu)
            assert w_val == conformal_weight(rho, nu)
            assert rd == relative_dimension_weyl(rho, nu)

    def test_unknown_row(self):
        with pytest.raises(ValueError):
            table1_row(3, 1, 5, 3)


class TestRecursion:
    def test_clean_corpus(self):
        for rho in (w(1, 0), w(2, 1), w(1, 1, 1), w(3, 2, 1)):
            assert verify_recursion(rho, q_max=6) == []


class TestReport:
    def test_values_and_json(self):
        report = casimir_report(w(1, 0), q_max=4)
        data = report.to_json_dict()
        assert data["n"] == 2
        assert data["rho"] == "1,0"
        by_q = {row["q"]: row for row in data["values"]}
        assert by_q[2]["c"] == "10/1"
        assert by_q[4]["c"] == "160/1"
        assert by_q[1]["c"] == "0/1"

    def test_markdown_has_rows(self):
        md = casimir_report(w(1, 0), q_max=2).to_markdown()
        assert "| 2 | 10 |" in md

    def test_q_cap(self):
        with pytest.raises(ValueError):
            casimir_report(w(1, 0), q_max=13)


class TestDecomposeBundle:
    def test_spec_case(self):
        bundle = BundleLabel(2, w(1, 1, 0))
        table = decompose_bundle(bundle)
        assert len(table.to_json_dict()["targets"]) == 12
        assert table.summand_count == 6
        assert {(N, nu) for N, nu, _, _ in table.valid_rows} == {
            (N, nu) for N in (1, -1) for nu in (1, 3, -2)
        }

    def test_k0_kills_lower(self):
        bundle = BundleLabel(0, w(1, 0))
        table = decompose_bundle(bundle)
        assert all(N == 1 for N, _, _, _ in table.valid_rows)
        assert table.summand_count == 3

    def test_ten_gradients(self):
        # 0 < b < a < n gives all five summands for both Sp(1) shifts
        bundle = lambda_ab_bundle(1, 2, 1, 3)
        assert decompose_bundle(bundle).summand_count == 10

    def test_reldim_is_nu_level(self):
        bundle = BundleLabel(0, w(1, 0))
        rows = decompose_bundle(bundle).to_json_dict()["targets"]
        lower = [row for row in rows if row["N"] == -1 and row["nu"] == 1][0]
        assert not lower["valid"]
        assert lower["reldim"] == "5/2"

    def test_w_hat_invariant(self):
        bundle = lambda_ab_bundle(2, 2, 1, 3)
        for row in decompose_bundle(bundle).to_json_dict()["targets"]:
            w, w_hat = parse_rational(row["w"]), parse_rational(row["w_hat"])
            assert w_hat == w - (bundle.n + Fraction(1, 2))
