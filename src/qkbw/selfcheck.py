"""Corpus verification suites shared by the CLI selftest and the test suite.

Each suite returns a SuiteResult with the number of cases checked and a
tuple of failure descriptions (empty on success).  All comparisons are
exact; there are no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .bounds import (
    bound_for,
    closed_form_bound,
    connection_laplacian_bound,
    dirac_bound,
    harmonic_classification,
    hpn_first_eigenvalue,
    twistor_kernel_analysis,
)
from .casimir import (
    casimir_eigenvalue,
    casimir_hat,
    closed_form_c2_lambda_ab,
    closed_form_c4_lambda_ab,
    conformal_weight,
    decompose_bundle,
    lambda_ab_bundle,
    relative_dimension_product,
    relative_dimension_weyl,
    table1_row,
    verify_recursion,
)
from .identities import (
    Rule,
    apply_rule,
    identity_bochner1,
    identity_bochner2,
    independence_rank,
    printed_identity,
    theorem_family,
)
from .record import Record
from .simplex import solve_linear_system
from .weights import BundleLabel, SpnWeight

__all__ = ["SuiteResult", "run_suites", "dominant_weights", "sweep_cases", "sweep_case"]


class SuiteResult(Record):
    """One suite's outcome: its name, the number of cases checked and the
    failure descriptions as a tuple, empty on success."""

    def __init__(self, name: str, cases: int, failures):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "failures", tuple(failures))

    @property
    def ok(self) -> bool:
        return not self.failures


# The suites read every dominant weight with entry sum at most this.
_TOTAL_MAX = 4


def dominant_weights(n: int, total_max: int):
    """All dominant weights of rank n with entry sum at most total_max."""
    out = []

    def extend(prefix, remaining, cap):
        if len(prefix) == n:
            out.append(SpnWeight(tuple(prefix)))
            return
        for value in range(min(remaining, cap), -1, -1):
            extend(prefix + [value], remaining - value, value)

    extend([], total_max, total_max)
    return out


def suite_reldim(n_max: int = 5) -> SuiteResult:
    """Product-formula relative dimensions equal the Weyl oracle, the
    relative dimensions of each decomposition sum to 2n, and the number N of
    dominant summands is odd exactly when the last entry of rho is zero."""
    failures = []
    cases = 0
    for n in range(2, n_max + 1):
        for rho in dominant_weights(n, _TOTAL_MAX):
            # at k = 0 the valid targets are the dominant nu, N = +1
            table = decompose_bundle(BundleLabel(0, rho))
            total = Fraction(0)
            for nu, _, _, _ in table.rows:
                oracle = relative_dimension_weyl(rho, nu)
                product = relative_dimension_product(rho, nu)
                cases += 1
                if oracle != product:
                    failures.append(
                        f"reldim mismatch rho=({rho}) n={n} nu={nu}: "
                        f"oracle {oracle} vs product {product}"
                    )
                total += oracle
            if total != 2 * n:
                failures.append(f"reldim sum != 2n for rho=({rho}) n={n}: {total}")
            if (table.summand_count % 2 == 1) != (rho.entries[-1] == 0):
                failures.append(f"summand-count parity violated for rho=({rho}) n={n}")
    return SuiteResult("relative-dimension oracle equality", cases, failures)


def suite_table1(n_max: int = 6) -> SuiteResult:
    """The five tabulated (w, reldim) entries equal the oracle for 0<b<a<n."""
    failures = []
    cases = 0
    for n in range(2, n_max + 1):
        for a in range(1, n):
            for b in range(1, a):
                rho = lambda_ab_bundle(0, a, b, n).rho
                for nu in (1, b + 1, a + 1, -b, -a):
                    w_table, rd_table = table1_row(a, b, n, nu)
                    cases += 1
                    if w_table != conformal_weight(rho, nu):
                        failures.append(f"table w mismatch a={a} b={b} n={n} nu={nu}")
                    if rd_table != relative_dimension_weyl(rho, nu):
                        failures.append(
                            f"table reldim mismatch a={a} b={b} n={n} nu={nu}"
                        )
    return SuiteResult("five-row table reproduction", cases, failures)


def suite_casimir(n_max: int = 5) -> SuiteResult:
    """Closed-form values, the odd-index recursion, and the binomial
    translation of Casimir eigenvalues, exactly, over the corpus."""
    failures = []
    cases = 0
    for n in range(2, n_max + 1):
        m = n + Fraction(1, 2)
        for rho in dominant_weights(n, _TOTAL_MAX):
            c0 = casimir_eigenvalue(rho, 0)
            c1 = casimir_eigenvalue(rho, 1)
            c2 = casimir_eigenvalue(rho, 2)
            c3 = casimir_eigenvalue(rho, 3)
            ch1 = casimir_hat(rho, 1)
            ch2 = casimir_hat(rho, 2)
            ch3 = casimir_hat(rho, 3)
            c2_closed = 2 * sum(
                rho.entries[i] * (rho.entries[i] + 2 * (n - i)) for i in range(n)
            )
            checks = [
                ("c0", c0 == 2 * n),
                ("c1", c1 == 0),
                ("c2 closed form", c2 == c2_closed),
                ("c3 = (n+1) c2", c3 == (n + 1) * c2),
                ("ch0", casimir_hat(rho, 0) == 2 * n),
                ("ch1", ch1 == -2 * n**2 - n),
                ("ch2", ch2 == c2 + 2 * n * m**2),
                ("ch3", ch3 == -(2 * n + Fraction(1, 2)) * c2 - 2 * n * m**3),
            ]
            for label, ok in checks:
                cases += 1
                if not ok:
                    failures.append(f"{label} fails for rho=({rho}) n={n}")
            for kind, q in verify_recursion(rho, q_max=6):
                failures.append(f"{kind} check fails at q={q} for rho=({rho}) n={n}")
            cases += 1
    return SuiteResult("Casimir identity suite", cases, failures)


def suite_c2c4_closed_forms(n_max: int = 5) -> SuiteResult:
    """Moment-sum eigenvalues equal the degree-2/4 closed forms on
    (2_b,1_{a-b}) for all 0 <= b <= a <= n."""
    failures = []
    cases = 0
    for n in range(2, n_max + 1):
        for a in range(n + 1):
            for b in range(a + 1):
                rho = lambda_ab_bundle(0, a, b, n).rho
                cases += 1
                if casimir_eigenvalue(rho, 2) != closed_form_c2_lambda_ab(a, b, n):
                    failures.append(f"c2 mismatch a={a} b={b} n={n}")
                if casimir_eigenvalue(rho, 4) != closed_form_c4_lambda_ab(a, b, n):
                    failures.append(f"c4 mismatch a={a} b={b} n={n}")
    return SuiteResult("degree-2/4 closed forms", cases, failures)


def suite_rank(n_max: int = 4, k_max: int = 4) -> SuiteResult:
    """The theorem family has rank exactly floor(N/2) (kappa and curvature
    contractions counted as extra coordinates)."""
    failures = []
    cases = 0
    for n in range(2, n_max + 1):
        for rho in dominant_weights(n, _TOTAL_MAX):
            for k in range(0, k_max + 1):
                if k == 0 and not all(e <= 1 for e in rho.entries):
                    continue  # k = 0 criterion covers the primitive-form shapes
                bundle = BundleLabel(k, rho)
                count = decompose_bundle(bundle).summand_count
                family = theorem_family(bundle)
                cases += 1
                if len(family) != count // 2:
                    failures.append(
                        f"family size {len(family)} != floor(N/2) for k={k} rho=({rho}) n={n}"
                    )
                    continue
                rank = independence_rank(family)
                if rank != count // 2:
                    failures.append(
                        f"rank {rank} != floor(N/2)={count // 2} for k={k} rho=({rho}) n={n}"
                    )
    return SuiteResult("theorem rank check", cases, failures)


def _nonzero(ident) -> bool:
    return any(ident.values) or bool(ident.kappa or ident.curvature_terms)


def suite_printed_forms(n_max: int = 5) -> SuiteResult:
    """Raw families reduce to the printed identities triangularly.

    The comparison runs at the coefficient-polynomial level (sampled at
    generic rational points, so degenerate bundles with few distinct
    conformal weights cannot hide a mismatch):

    * odd family q=0 is exactly 2x the Sp(1)-weight identity;
    * q=1 and q=2 decompose with factor 1 on the printed identity plus
      multiples of the lower printed ones (clearing those multiples is the
      rewriting step), and the kappa sides combine with the same factors;
    * the first even-family member is exactly -2n times the first-moment
      identity on the coefficient and kappa sides;
    * the scalar-only identity equals 4x the cubic-reduction elimination
      between the first- and third-moment identities (vector level).
    """
    failures = []
    cases = 0
    samples = [Fraction(i) for i in range(7)]
    for n in range(2, n_max + 1):
        m = n + Fraction(1, 2)
        for a in range(n + 1):
            for b in range(a + 1):
                k = 1 if (a + b) % 2 else 2  # keep k + a + b even and nonzero
                bundle = lambda_ab_bundle(k, a, b, n)
                rho = bundle.rho
                c2 = closed_form_c2_lambda_ab(a, b, n)
                c4 = closed_form_c4_lambda_ab(a, b, n)
                ch = [casimir_hat(rho, p) for p in range(6)]
                cases += 1

                def raw_poly(q, w):
                    wh = w - m
                    alternating = sum(
                        (-1) ** p * ch[2 * q - 1 - p] * wh**p for p in range(2 * q)
                    )
                    return 2 * wh ** (2 * q) - alternating

                printed = [
                    (lambda w: Fraction(1), Fraction(k * (k + 2), 4 * (n + 2))),
                    (
                        lambda w: 2 * (w**2 - (n + 1) * w),
                        Fraction(k * (k + 2)) * c2 / (4 * n * (n + 2)),
                    ),
                    (
                        lambda w: (
                            2 * w * (w - n - 1) * (w**2 - (2 * n + 1) * w + 2 * n + 1)
                            + (n + w) * c2
                        ),
                        Fraction(k * (k + 2)) * c4 / (4 * n * (n + 2)),
                    ),
                ]
                raw_kappa = [
                    Fraction(k * (k + 2)) * ch[2 * q] / (4 * n * (n + 2))
                    for q in range(3)
                ]
                # q = 0: strict factor 2, at the polynomial and vector level.
                if any(raw_poly(0, w) != 2 * printed[0][0](w) for w in samples):
                    failures.append(f"q=0 polynomial mismatch at a={a} b={b} n={n}")
                if raw_kappa[0] != 2 * printed[0][1]:
                    failures.append(f"q=0 kappa mismatch at a={a} b={b} n={n}")
                bw3 = printed_identity(bundle, "bw3")
                factor = identity_bochner2(bundle, 0).proportionality(bw3)
                if factor != 2:
                    failures.append(f"q=0 vector factor {factor} != 2 at a={a} b={b} n={n}")
                # q = 1, 2: triangular decomposition with leading factor 1.
                for q in (1, 2):
                    basis = printed[q::-1]  # leading first, then lower
                    matrix = [[g(w) for g, _ in basis] for w in samples]
                    rhs = [raw_poly(q, w) for w in samples]
                    try:
                        solution, _ = solve_linear_system(matrix, rhs)
                    except ArithmeticError:
                        solution = None
                    if solution is None:
                        failures.append(f"q={q} decomposition fails at a={a} b={b} n={n}")
                        continue
                    if solution[0] != 1:
                        failures.append(
                            f"q={q} leading factor {solution[0]} != 1 at a={a} b={b} n={n}"
                        )
                    combined_kappa = sum(
                        coeff * kap for coeff, (_, kap) in zip(solution, basis)
                    )
                    if combined_kappa != raw_kappa[q]:
                        failures.append(f"q={q} kappa mismatch at a={a} b={b} n={n}")
                # Even family q=1 is -2n times the first-moment identity.
                bw1 = printed_identity(bundle, "bw1")
                raw1 = identity_bochner1(bundle, 1)
                if raw1.full_vector() != [-2 * n * v for v in bw1.full_vector()]:
                    failures.append(f"even-family q=1 factor != -2n at a={a} b={b} n={n}")
                # Scalar-only identity vs the curvature elimination.
                bw2_reduced = apply_rule(printed_identity(bundle, "bw2"), Rule.CUBIC_REDUCTION)
                scalar = Fraction(2 * n**2 + 7 * n + 7) - c2 / 4
                eliminated = bw2_reduced.combine(1, bw1, -scalar)
                if eliminated.curvature_terms:
                    failures.append(f"elimination left curvature at a={a} b={b} n={n}")
                bw6 = printed_identity(bundle, "bw6")
                if a > b:
                    factor6 = bw6.proportionality(eliminated)
                    if factor6 != 4:
                        failures.append(
                            f"elimination factor {factor6} != 4 at a={a} b={b} n={n}"
                        )
                else:
                    # Degenerate shape: both sides must vanish identically.
                    if _nonzero(bw6):
                        failures.append(f"scalar-only identity nonzero at a=b={a} n={n}")
                    if _nonzero(eliminated):
                        failures.append(f"elimination nonzero at a=b={a} n={n}")
    return SuiteResult("printed-form matching", cases, failures)


def _lambda_ab_grid(n: int, k_min: int = 0):
    """The (k, a, b) of S^k(H) (x) (2_b,1_(a-b)) at rank n with k_min <= k <= 2n-a-b,
    in (a, b, k) order."""
    for a in range(n + 1):
        for b in range(a + 1):
            for k in range(k_min, 2 * n - a - b + 1):
                yield k, a, b


def sweep_cases(ns, signs, hpn=False, a=None, b=None, k=None):
    """The (n, k, a, b, sign, hpn) cases of the Hodge-Laplacian sweep over the
    ranks ns, in (n, a, b, k, sign) order.

    a, b and k, when given, are sets the grid values must lie in.  The hpn
    comparison starts at k = 2, where the first-eigenvalue formula holds.
    """
    return [
        (n, kk, aa, bb, sign, hpn)
        for n in ns
        for kk, aa, bb in _lambda_ab_grid(n, 2 if hpn else 0)
        if (a is None or aa in a) and (b is None or bb in b) and (k is None or kk in k)
        for sign in signs
    ]


def sweep_case(case):
    """(case, LP bound, expected) for one sweep case on the Hodge Laplacian.

    expected is the closed-form bound, or lambda_1 / (2n) with hpn.  The LP
    bound is None when the LP finds no certificate: every grid case has a
    closed form, so that is a mismatch.  The eigenvalue formula checks k, a
    and b before the bundle checks the rank.
    """
    n, k, a, b, sign, hpn = case
    lam1 = hpn_first_eigenvalue(k, a, b, n) if hpn else None
    bundle = lambda_ab_bundle(k, a, b, n)
    expected = lam1 / (2 * n) if hpn else closed_form_bound(k, a, b, n, sign)
    return case, bound_for("hodge_laplacian", bundle, sign, hpn=hpn).bound, expected


def suite_lp_agreement(n_max: int = 5) -> SuiteResult:
    """The LP optimum on the Hodge Laplacian equals the closed-form bound for
    every (k, a, b, n) and both signs, with a verified certificate; a case
    with no certificate fails as LP none."""
    cases = sweep_cases(range(2, n_max + 1), "+-")
    failures = [
        f"LP {'none' if lp is None else lp} != closed form {expected}"
        f" at k={k} a={a} b={b} n={n} sign {sign}"
        for (n, k, a, b, sign, _), lp, expected in map(sweep_case, cases)
        if lp != expected
    ]
    return SuiteResult("LP vs closed-form bounds", len(cases), failures)


def suite_connection_lp(n_max: int = 4) -> SuiteResult:
    """LP agreement for the connection Laplacian on S^k(H) (x) (1_a).

    The negative-sign closed form is stated for a >= 1 (at a = 0 the LP
    certificate is strictly better), so that sign is swept from a = 1.
    """
    failures = []
    cases = 0
    for n in range(2, n_max + 1):
        for a in range(n + 1):
            for k in range(0, 2 * n - a + 1):
                bundle = lambda_ab_bundle(k, a, 0, n)
                for sign in ("+", "-"):
                    if sign == "-" and a == 0:
                        continue
                    cases += 1
                    cert = bound_for("connection_laplacian", bundle, sign)
                    expected = connection_laplacian_bound(k, a, n, sign)
                    if cert.bound != expected:
                        failures.append(
                            f"connection LP {cert.bound} != closed form {expected} "
                            f"at k={k} a={a} n={n} sign {sign}"
                        )
    return SuiteResult("connection-Laplacian LP agreement", cases, failures)


def suite_dirac(n_max: int = 5) -> SuiteResult:
    """Squared-Dirac bounds: LP value on each spinor summand equals the
    closed form, which equals the connection bound plus 1/4."""
    failures = []
    cases = 0
    for n in range(2, n_max + 1):
        for k in range(n + 1):
            cases += 1
            expected = dirac_bound(k, n)
            composed = connection_laplacian_bound(k, n - k, n, "+") + Fraction(1, 4)
            if expected != composed:
                failures.append(f"dirac composition fails at k={k} n={n}")
            bundle = lambda_ab_bundle(k, n - k, 0, n)
            cert = bound_for("dirac_squared", bundle, "+")
            if cert.bound != expected:
                failures.append(
                    f"dirac LP {cert.bound} != closed form {expected} at k={k} n={n}"
                )
    return SuiteResult("squared-Dirac bounds", cases, failures)


def suite_vanishing(n_max: int = 5, k_max: int = 6) -> SuiteResult:
    """Twistor kernel systems reproduce the printed norm ratios and vanish
    for both signs of the scalar curvature."""
    failures = []
    cases = 0
    for n in range(2, n_max + 1):
        for k in range(k_max + 1):
            cases += 1
            analysis = twistor_kernel_analysis(k, n)
            if not analysis.determined:
                failures.append(f"undetermined twistor system k={k} n={n}")
                continue
            denom = 8 * n * (n + 2)
            expected = {
                (1, 1): Fraction(-(k + 3) * (2 * n + k + 2), denom * (k + 2)),
                (-1, 1): Fraction(k * (k + 1), 8 * (n + 2) * (k + 2)),
                (-1, 2): Fraction((k + 1) * (n - 1), denom),
            }
            ratios = dict(analysis.solved_ratios)
            for key, value in expected.items():
                if ratios.get(key) != value:
                    failures.append(
                        f"ratio mismatch at {key} k={k} n={n}: {ratios.get(key)} vs {value}"
                    )
            verdicts = {s: v for s, v, _ in analysis.verdicts}
            if verdicts.get(1) != "vanishes" or verdicts.get(-1) != "vanishes":
                failures.append(f"missing vanishing verdict at k={k} n={n}")
    return SuiteResult("twistor vanishing system", cases, failures)


def suite_harmonic(n_max: int = 5) -> SuiteResult:
    """Zero-bound classification: the listed triples are exactly the zeros of
    the closed-form bound."""
    failures = []
    cases = 0
    for n in range(2, n_max + 1):
        for sign in ("+", "-"):
            listed = set(harmonic_classification(n, sign))
            for k, a, b in _lambda_ab_grid(n):
                cases += 1
                coeff = closed_form_bound(k, a, b, n, sign)
                if (k, a, b) in listed:
                    if coeff != 0:
                        failures.append(
                            f"listed triple has nonzero bound: {(k, a, b)} n={n} {sign}"
                        )
                elif coeff == 0:
                    failures.append(f"unlisted zero bound at {(k, a, b)} n={n} {sign}")
                elif sign == "+" and coeff < 0:
                    failures.append(
                        f"negative bound for positive curvature at {(k, a, b)} n={n}"
                    )
    return SuiteResult("harmonic classification", cases, failures)


def suite_hpn(n_max: int = 4) -> SuiteResult:
    """With the quartic curvature part switched off and the scalar curvature
    normalized to 2n, the LP bound meets the first eigenvalue for k >= 2."""
    cases = sweep_cases(range(2, n_max + 1), "+", hpn=True)
    failures = [
        f"hpn bound {'none' if lp is None else lp * 2 * n} != lambda_1 {expected * 2 * n}"
        f" at k={k} a={a} b={b} n={n}"
        for (n, k, a, b, _, _), lp, expected in map(sweep_case, cases)
        if lp != expected
    ]
    return SuiteResult("projective-space sharpness", len(cases), failures)


# Every suite with the limits of its --quick run, in report order.
_SUITES = (
    (suite_reldim, {"n_max": 3}),
    (suite_table1, {"n_max": 3}),
    (suite_casimir, {"n_max": 3}),
    (suite_c2c4_closed_forms, {"n_max": 3}),
    (suite_rank, {"n_max": 3, "k_max": 3}),
    (suite_printed_forms, {"n_max": 3}),
    (suite_lp_agreement, {"n_max": 3}),
    (suite_connection_lp, {"n_max": 3}),
    (suite_dirac, {"n_max": 3}),
    (suite_vanishing, {"n_max": 3, "k_max": 4}),
    (suite_harmonic, {"n_max": 3}),
    (suite_hpn, {"n_max": 3}),
)


def run_suites(quick: bool = False):
    return [suite(**limits) if quick else suite() for suite, limits in _SUITES]
