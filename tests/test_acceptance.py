"""Acceptance criteria, one test per criterion.

Everything is exact rational arithmetic, so every tolerance is zero: each
comparison is ==.  Each test prints one PASS/FAIL line (visible with -s, or
in the captured output on failure).
"""

from fractions import Fraction

from qkbw.bounds import bound_for, dirac_bound
from qkbw.casimir import casimir_eigenvalue, lambda_ab_bundle
from qkbw.selfcheck import (
    suite_c2c4_closed_forms,
    suite_casimir,
    suite_harmonic,
    suite_hpn,
    suite_lp_agreement,
    suite_printed_forms,
    suite_rank,
    suite_reldim,
    suite_table1,
    suite_vanishing,
)
from qkbw.weights import SpnWeight

F = Fraction


def _report(num, description, result):
    status = "PASS" if result.ok else "FAIL"
    print(f"[{status}] criterion {num}: {description} ({result.cases} cases)")
    assert result.ok, f"criterion {num} failures: {result.failures[:10]}"


def test_criterion_01_relative_dimension_oracle():
    """Product-formula relative dimensions equal the Weyl oracle exactly and
    sum to 2n, for all dominant weights with entry sum <= 4 and 2 <= n <= 5."""
    _report(1, "relative-dimension oracle equality", suite_reldim(n_max=5))


def test_criterion_02_table_reproduction():
    """All five tabulated (w, reldim) entries equal the oracle for
    0 < b < a < n <= 6."""
    _report(2, "five-row table reproduction", suite_table1(n_max=6))


def test_criterion_03_casimir_identities():
    """Low-degree closed forms, the odd-index recursion, and the binomial
    translation hold exactly over the criterion-1 corpus."""
    _report(3, "Casimir identity suite", suite_casimir(n_max=5))


def test_criterion_04_c2_c4_closed_forms():
    """Moment sums equal the degree-2/4 polynomials on (2_b,1_{a-b}) for
    0 <= b <= a <= n <= 5; spot value 160 at (a,b,n) = (1,0,2)."""
    spot = casimir_eigenvalue(SpnWeight((1, 0)), 4)
    assert spot == 160, f"spot quartic eigenvalue {spot} != 160"
    _report(4, "degree-2/4 closed forms", suite_c2c4_closed_forms(n_max=5))


def test_criterion_05_independence_rank():
    """The stated identity families have rank exactly floor(N/2) over the
    bundle corpus (n <= 4, k <= 4, entry sum <= 4)."""
    _report(5, "independence rank", suite_rank(n_max=4, k_max=4))


def test_criterion_06_printed_form_matching():
    """Raw families reduce to the printed identities with the expected
    factors; the scalar-only identity is 4x the curvature elimination."""
    _report(6, "printed-form matching", suite_printed_forms(n_max=5))


def test_criterion_07_lp_matches_closed_forms():
    """LP bound == closed-form bound for every (k,a,b,n), n <= 5, both
    signs, with verified nonnegative certificates; plus the three spot
    fixtures."""
    for n in range(2, 6):
        cert = bound_for("hodge_laplacian", lambda_ab_bundle(2, 2, 0, n), "+")
        assert cert.bound == F(n + 1, n * (n + 2))
    for n, k in ((2, 1), (3, 4)):
        cert = bound_for("hodge_laplacian", lambda_ab_bundle(k, 0, 0, n), "+")
        assert cert.bound == F(k * (2 * n + k + 2), 8 * n * (n + 2))
    for n in range(2, 6):
        cert = bound_for("dirac_squared", lambda_ab_bundle(0, n, 0, n), "+")
        assert cert.bound == dirac_bound(0, n) == F(n + 3, 4 * (n + 2))
    _report(7, "LP vs closed-form bounds", suite_lp_agreement(n_max=5))


def test_criterion_08_vanishing_coefficients():
    """Twistor kernel systems reproduce the printed ratios exactly for
    0 <= k <= 6, n <= 5, and report vanishing for both signs."""
    _report(8, "vanishing coefficients", suite_vanishing(n_max=5, k_max=6))


def test_criterion_09_harmonic_classification():
    """The zero-bound triples are exactly the classified ones for n <= 5,
    both signs; all other triples have nonzero bound."""
    _report(9, "harmonic classification", suite_harmonic(n_max=5))


def test_criterion_10_projective_space_sharpness():
    """With all curvature contractions dropped and the scalar curvature at
    2n, the LP bound equals the first eigenvalue for k >= 2, k+a+b <= 2n,
    n <= 4."""
    _report(10, "projective-space sharpness", suite_hpn(n_max=4))
