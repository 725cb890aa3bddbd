from fractions import Fraction

import pytest

from qkbw.casimir import (
    closed_form_c2_lambda_ab,
    conformal_weight,
    decompose_bundle,
    lambda_ab_bundle,
    sp1_conformal_weight,
)
from qkbw.identities import (
    BWIdentity,
    HPN_RULES,
    STANDARD_RULES,
    InapplicableIdentityError,
    MixedBundleError,
    Rule,
    RuleShapeError,
    apply_rule,
    identities_to_csv,
    identities_to_json_dict,
    identity_bochner1,
    identity_bochner2,
    identity_to_latex,
    independence_rank,
    operator_coeffs,
    printed_identity,
    pure_kappa_identities,
    theorem_family,
)
from qkbw.simplex import solve_linear_system
from qkbw.weights import BundleLabel, SpnWeight, lambda_ab_weight

F = Fraction


def w(*entries):
    return SpnWeight(tuple(entries))


def sp1_casimir(k):
    """Quadratic Sp(1) Casimir eigenvalue on the weight-k module: 2k(k+2)."""
    return F(2 * k * (k + 2))


def spinor_decomposition(n):
    """The n+1 bundle labels (k, (1_{n-k})) the spinor bundle splits into."""
    return [BundleLabel(k, lambda_ab_weight(n - k, 0, n)) for k in range(n + 1)]


def simplify_curvature(identity, rules):
    """Apply every rule of ``rules`` the bundle's shape admits, in C, B, A order."""
    for rule in (Rule.HPN, Rule.CUBIC_REDUCTION, Rule.PRIMITIVE_FORM):
        if rule in rules:
            try:
                identity = apply_rule(identity, rule)
            except RuleShapeError:
                pass
    return identity


def conformal_exponents(bundle, target):
    """Conformal-covariance exponent pair of one gradient; the entries sum to -1."""
    N, nu = target
    w, W = conformal_weight(bundle.rho, nu), sp1_conformal_weight(bundle.k, N)
    inner = w / 2 + W / (2 * bundle.n)
    return (-inner - 1, inner)


def decompose_over(identity, basis):
    """Exact coefficients of ``identity`` over the ``basis`` rows (B-coefficients,
    kappa, curvature), or None when it is not in the span or not uniquely."""
    keys = sorted({t.key for ident in (identity, *basis) for t in ident.curvature_terms})
    columns = [b.full_vector(keys) for b in basis]
    target = identity.full_vector(keys)
    matrix = [[col[i] for col in columns] for i in range(len(target))]
    try:
        return solve_linear_system(matrix, target)[0]
    except ArithmeticError:
        return None


class TestSumIdentity:
    def test_all_ones(self):
        bundle = lambda_ab_bundle(2, 1, 0, 2)
        ident = printed_identity(bundle, "sum")
        assert all(c == 1 for _, c in ident.coeffs)
        assert ident.kappa_coeff == 0
        assert ident.is_pure_kappa
        assert len(ident.coeffs) == decompose_bundle(bundle).summand_count

    def test_k0_only_upward(self):
        ident = printed_identity(BundleLabel(0, w(1, 0)), "sum")
        assert all(N == 1 for (N, _), _ in ident.coeffs)


class TestFamilies:
    def test_bochner2_q0_doubles_sp1_identity(self):
        bundle = lambda_ab_bundle(3, 2, 1, 3)
        assert identity_bochner2(bundle, 0).proportionality(printed_identity(bundle, "bw3")) == 2

    def test_bochner2_rejects_k0(self):
        with pytest.raises(InapplicableIdentityError):
            identity_bochner2(BundleLabel(0, w(1, 0)), 0)
        for id in ("bw3", "bw4", "bw5"):
            with pytest.raises(InapplicableIdentityError):
                printed_identity(BundleLabel(0, w(1, 0)), id)

    def test_bochner2_checks_q_before_the_bundle(self):
        # as identity_bochner1 does: a negative q is the error on any bundle,
        # the k = 0 one included
        for k, rho in ((0, w(1, 1)), (1, w(1, 0))):
            with pytest.raises(ValueError, match="q must be nonnegative, got -1"):
                identity_bochner2(BundleLabel(k, rho), -1)

    def test_bochner1_q1_scales_first_moment(self):
        bundle = lambda_ab_bundle(1, 1, 0, 2)
        raw = identity_bochner1(bundle, 1)
        bw1 = printed_identity(bundle, "bw1")
        n = bundle.n
        for (_, raw_c), (_, bw1_c) in zip(raw.coeffs, bw1.coeffs):
            assert raw_c == -2 * n * bw1_c
        assert raw.kappa_coeff == -2 * n * bw1.kappa_coeff
        # curvature columns are in different symbol bases (hatted vs plain)
        assert raw.curvature_terms[0].hatted
        assert not bw1.curvature_terms[0].hatted

    def test_bochner1_q_must_be_positive(self):
        with pytest.raises(ValueError):
            identity_bochner1(lambda_ab_bundle(1, 1, 0, 2), 0)

    def test_theorem_family_counts(self):
        for k, a, b, n in ((2, 2, 1, 3), (1, 1, 0, 2), (3, 0, 0, 2), (0, 2, 0, 3)):
            bundle = lambda_ab_bundle(k, a, b, n)
            count = decompose_bundle(bundle).summand_count
            family = theorem_family(bundle)
            assert len(family) == count // 2
            assert independence_rank(family) == count // 2


class TestPrintedForms:
    def test_first_moment_on_primitive_forms(self):
        # On (1_a) the first-moment identity instantiates to the
        # coefficient pattern (-1, a, 2n-a+2) on both Sp(1) shifts.
        a, n, k = 1, 2, 1
        bundle = lambda_ab_bundle(k, a, 0, n)
        ident = printed_identity(bundle, "bw1")
        coeffs = ident.coeff_map()
        assert coeffs[(1, 1)] == -1
        assert coeffs[(1, a + 1)] == a
        assert coeffs[(1, -a)] == 2 * n - a + 2
        assert coeffs[(-1, 1)] == -1
        assert ident.kappa_coeff == F(2 * a * (2 * n - a + 2), 8 * n * (n + 2))

    def test_mixed_identity_display_factor_two(self):
        # The quadratic Sp(1)-weighted identity is exactly twice the
        # displayed six-term rewriting on S^k(H) (x) (1_a).
        for a, n, k in ((1, 2, 1), (2, 3, 2)):
            bundle = lambda_ab_bundle(k, a, 0, n)
            ident = printed_identity(bundle, "bw4")
            coeffs = ident.coeff_map()
            display = {
                (1, 1): -k * (n + 2),
                (1, a + 1): k * a * (n - a + 1),
                (1, -a): -k * (2 * n - a + 2) * (n - a + 1),
                (-1, 1): (k + 2) * (n + 2),
                (-1, a + 1): -(k + 2) * a * (n - a + 1),
                (-1, -a): (k + 2) * (2 * n - a + 2) * (n - a + 1),
            }
            for key, value in display.items():
                assert coeffs[key] == 2 * value
            rhs = F(k * (k + 2) * a * (2 * n - a + 2), 4 * n * (n + 2))
            assert ident.kappa_coeff == 2 * rhs

    def test_scalar_only_identity_zero_coefficient_at_w_minus2(self):
        ident = printed_identity(lambda_ab_bundle(1, 2, 1, 3), "bw6")
        coeffs = ident.coeff_map()
        assert coeffs[(1, 1)] == 0  # the w = -2 summand drops out

    def test_scalar_only_in_span_of_eliminated_pair(self):
        # On (1_a) shapes the purified first- and third-moment identities
        # are proportional, so the span test is a rank comparison there.
        a, b, n, k = 1, 0, 2, 2
        bundle = lambda_ab_bundle(k, a, b, n)
        bw1 = simplify_curvature(printed_identity(bundle, "bw1"), STANDARD_RULES)
        bw2 = simplify_curvature(printed_identity(bundle, "bw2"), STANDARD_RULES)
        bw6 = printed_identity(bundle, "bw6")
        assert independence_rank([bw1, bw2]) == independence_rank([bw1, bw2, bw6])

    def test_scalar_only_decomposition_generic(self):
        # Generic shape: after the cubic reduction, the scalar-only
        # identity is exactly 4*(third moment) - 4*scalar*(first moment).
        a, b, n, k = 2, 1, 3, 1
        bundle = lambda_ab_bundle(k, a, b, n)
        bw1 = printed_identity(bundle, "bw1")
        bw2_reduced = apply_rule(printed_identity(bundle, "bw2"), Rule.CUBIC_REDUCTION)
        bw6 = printed_identity(bundle, "bw6")
        dec = decompose_over(bw6, [bw2_reduced, bw1])
        assert dec is not None and dec[0] == 4

    def test_combine_eliminates_curvature(self):
        a, b, n, k = 2, 1, 3, 1
        bundle = lambda_ab_bundle(k, a, b, n)
        bw1 = printed_identity(bundle, "bw1")
        bw2_reduced = apply_rule(printed_identity(bundle, "bw2"), Rule.CUBIC_REDUCTION)
        scalar = F(2 * n**2 + 7 * n + 7) - F(closed_form_c2_lambda_ab(a, b, n)) / 4
        eliminated = bw2_reduced.combine(1, bw1, -scalar)
        assert eliminated.curvature_terms == ()
        assert eliminated.provenance == f"1*bw2+{-scalar}*bw1"
        assert printed_identity(bundle, "bw6").proportionality(eliminated) == 4
        half = bw1.combine(F(1, 2), bw1, F(1, 2))
        assert (half.coeffs, half.kappa_coeff, half.curvature_terms) == (
            bw1.coeffs,
            bw1.kappa_coeff,
            bw1.curvature_terms,
        )

    def test_combine_rejects_mixed_bundles(self):
        with pytest.raises(MixedBundleError):
            printed_identity(lambda_ab_bundle(2, 1, 0, 2), "bw3").combine(
                1, printed_identity(lambda_ab_bundle(4, 1, 0, 2), "bw3"), 1
            )

    def test_combine_rejects_other_targets(self):
        bw3 = printed_identity(lambda_ab_bundle(2, 2, 1, 3), "bw3")
        shorter = BWIdentity(
            bw3.bundle, bw3.targets[:-1], bw3.values[:-1], bw3.kappa, bw3.denominator, (), "cut"
        )
        with pytest.raises(MixedBundleError):
            bw3.combine(1, shorter, 1)
        with pytest.raises(MixedBundleError):
            bw3.combine(1, bw3.replace(targets=bw3.targets[::-1]), 1)

    def test_values_must_match_the_targets_in_length(self):
        bw3 = printed_identity(lambda_ab_bundle(2, 2, 1, 3), "bw3")
        assert len(bw3.targets) == 10
        for values in (bw3.values[:-1], bw3.values + (1,)):
            with pytest.raises(ValueError, match="values for 10 targets"):
                bw3.replace(values=values)


class TestRules:
    def test_rule_a_purifies_first_moment(self):
        bundle = lambda_ab_bundle(0, 2, 0, 3)
        ident = apply_rule(printed_identity(bundle, "bw1"), Rule.PRIMITIVE_FORM)
        assert ident.is_pure_kappa

    def test_rule_b_rewrites_cubic(self):
        bundle = lambda_ab_bundle(2, 2, 2, 3)
        ident = apply_rule(printed_identity(bundle, "bw2"), Rule.CUBIC_REDUCTION)
        assert len(ident.curvature_terms) == 1
        term = ident.curvature_terms[0]
        assert term.power == 1 and not term.hatted
        n = 3
        from qkbw.casimir import closed_form_c2_lambda_ab

        expected = F(2 * n**2 + 7 * n + 7) - closed_form_c2_lambda_ab(2, 2, n) / 4
        assert term.coefficient == expected

    def test_rule_c_clears_everything(self):
        bundle = BundleLabel(2, w(3, 1))  # not a (2_b,1_(a-b)) shape
        raw = identity_bochner1(bundle, 1)
        assert not raw.is_pure_kappa
        assert apply_rule(raw, Rule.HPN).is_pure_kappa

    def test_shape_errors(self):
        bundle = lambda_ab_bundle(2, 2, 1, 3)  # b > 0: rule A does not apply
        with pytest.raises(RuleShapeError):
            apply_rule(printed_identity(bundle, "bw1"), Rule.PRIMITIVE_FORM)
        bundle = BundleLabel(2, w(3, 0))
        with pytest.raises(RuleShapeError):
            apply_rule(printed_identity(bundle, "bw2"), Rule.CUBIC_REDUCTION)

    def test_simplify_skips_inapplicable(self):
        bundle = lambda_ab_bundle(2, 2, 1, 3)
        ident = simplify_curvature(printed_identity(bundle, "bw1"), STANDARD_RULES)
        assert not ident.is_pure_kappa  # b > 0: the linear contraction stays
        ident = simplify_curvature(printed_identity(bundle, "bw1"), HPN_RULES)
        assert ident.is_pure_kappa


class TestPureKappaSets:
    def test_trivial_module(self):
        sets = pure_kappa_identities(BundleLabel(3, w(0, 0)))
        assert [i.provenance for i in sets] == ["bw3"]

    def test_primitive_forms(self):
        sets = pure_kappa_identities(lambda_ab_bundle(1, 1, 0, 2))
        assert [i.provenance for i in sets] == ["bw1", "bw2", "bw3", "bw4", "bw5", "bw6"]

    def test_k0_equal_ab(self):
        # scalar-only identity degenerates, nothing remains
        assert pure_kappa_identities(lambda_ab_bundle(0, 2, 2, 3)) == []

    def test_k0_generic(self):
        sets = pure_kappa_identities(lambda_ab_bundle(0, 2, 1, 3))
        assert [i.provenance for i in sets] == ["bw6"]

    def test_b_positive(self):
        sets = pure_kappa_identities(lambda_ab_bundle(2, 2, 1, 3))
        assert [i.provenance for i in sets] == ["bw3", "bw4", "bw5", "bw6"]

    def test_hpn_adds_moment_identities(self):
        sets = pure_kappa_identities(lambda_ab_bundle(2, 2, 1, 3), hpn=True)
        assert [i.provenance for i in sets] == ["bw1", "bw2", "bw3", "bw4", "bw5", "bw6"]


class TestOperators:
    def test_connection_laplacian_all_ones(self):
        spec = operator_coeffs("connection_laplacian", lambda_ab_bundle(2, 1, 1, 2))
        assert all(c == 1 for _, c in spec.coeffs)
        assert spec.constant_kappa == 0

    def test_hodge_coefficient_fixture(self):
        # on S^k(H) (x) (2_a) the first coefficient is -k/(2n)
        for k, a, n in ((2, 1, 2), (4, 2, 3)):
            spec = operator_coeffs("hodge_laplacian", lambda_ab_bundle(k, a, a, n))
            assert spec.coeff_map()[(1, 1)] == F(-k, 2 * n)

    def test_hodge_is_connection_plus_half_gauduchon(self):
        bundle = lambda_ab_bundle(3, 2, 1, 3)
        hodge = operator_coeffs("hodge_laplacian", bundle).coeff_map()
        r1 = operator_coeffs("R1_endomorphism", bundle).coeff_map()
        for key, value in hodge.items():
            assert value == 1 + r1[key] / 2

    def test_gauduchon_consistency(self):
        # R1 coefficients = first-moment coefficients + W_N / n entrywise,
        # and the combined kappa side is (2k(k+2) + c_2) / (8n(n+2))
        from qkbw.casimir import casimir_eigenvalue

        bundle = lambda_ab_bundle(2, 2, 0, 3)
        n, k = bundle.n, bundle.k
        r1 = operator_coeffs("R1_endomorphism", bundle).coeff_map()
        ident1 = printed_identity(bundle, "bw1")
        ident3 = printed_identity(bundle, "bw3")
        bw1, bw3 = ident1.coeff_map(), ident3.coeff_map()
        for key in r1:
            assert r1[key] == bw1[key] + bw3[key] / n
        combined_kappa = ident1.kappa_coeff + ident3.kappa_coeff / n
        c2 = casimir_eigenvalue(bundle.rho, 2)
        assert combined_kappa == (sp1_casimir(k) + c2) / (8 * n * (n + 2))

    def test_spinor_summand_quarter_kappa(self):
        # On every spinor summand the Gauduchon scalar is exactly 1/4, the
        # statement behind D^2 = nabla*nabla + kappa/4.
        from qkbw.casimir import casimir_eigenvalue

        for n in (2, 3, 4):
            for bundle in spinor_decomposition(n):
                c2 = casimir_eigenvalue(bundle.rho, 2)
                scalar = (sp1_casimir(bundle.k) + c2) / (8 * n * (n + 2))
                assert scalar == F(1, 4)

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            operator_coeffs("laplace_beltrami", lambda_ab_bundle(1, 1, 0, 2))

    def test_values_must_match_the_targets_in_length(self):
        spec = operator_coeffs("hodge_laplacian", lambda_ab_bundle(2, 2, 1, 3))
        assert len(spec.targets) == 10
        for values in (spec.values[:-1], spec.values + (1,)):
            with pytest.raises(ValueError, match="values for 10 targets"):
                spec.replace(values=values)


class TestRank:
    def test_duplicate_identity_does_not_raise_rank(self):
        bundle = lambda_ab_bundle(2, 2, 1, 3)
        fam = theorem_family(bundle)
        assert independence_rank(fam + [fam[0]]) == independence_rank(fam)

    def test_mixed_bundles_rejected(self):
        a = printed_identity(lambda_ab_bundle(2, 1, 0, 2), "bw3")
        b = printed_identity(lambda_ab_bundle(2, 1, 0, 3), "bw3")
        with pytest.raises(MixedBundleError):
            independence_rank([a, b])

    def test_empty(self):
        assert independence_rank([]) == 0


class TestRankExtensionExperiment:
    def test_higher_q_never_grows_the_odd_family(self):
        # Rows past the stated q-range are linear combinations of the
        # stated ones, so the pure-kappa span is already complete.
        from qkbw.casimir import decompose_bundle
        from qkbw.selfcheck import dominant_weights

        for n in (2, 3):
            for rho in dominant_weights(n, 3):
                for k in (1, 2):
                    bundle = BundleLabel(k, rho)
                    count = decompose_bundle(bundle).summand_count
                    q_max = (count - 2) // 4
                    family = [
                        identity_bochner2(bundle, q) for q in range(0, q_max + 4)
                    ]
                    assert independence_rank(family) == independence_rank(
                        family[: q_max + 1]
                    )

    def test_extra_even_rows_only_add_their_own_curvature(self):
        bundle = lambda_ab_bundle(2, 2, 1, 3)
        count = decompose_bundle(bundle).summand_count
        stated = theorem_family(bundle)
        q_max = count // 4
        extra = [identity_bochner1(bundle, q) for q in range(q_max + 1, q_max + 4)]
        assert independence_rank(stated + extra) == independence_rank(stated) + len(extra)


class TestConformalExponents:
    def test_pair_sums_to_minus_one(self):
        bundle = lambda_ab_bundle(2, 2, 1, 3)
        for N, nu, _, _ in decompose_bundle(bundle).valid_rows:
            left, right = conformal_exponents(bundle, (N, nu))
            assert left + right == -1

    def test_trivial_bundle(self):
        bundle = BundleLabel(0, w(0, 0))
        assert conformal_exponents(bundle, (1, 1)) == (F(-1), F(0))

    def test_spinor_bottom_summand(self):
        n = 3
        bundle = BundleLabel(n, SpnWeight((0,) * n))
        left, right = conformal_exponents(bundle, (-1, 1))
        assert right == F(n + 2, 2 * n)
        assert left == -F(n + 2, 2 * n) - 1


class TestSerialization:
    def test_json_layout(self):
        bundle = lambda_ab_bundle(2, 1, 0, 2)
        data = identities_to_json_dict([printed_identity(bundle, "bw3")])
        assert data["targets"][0] == "+1,+1"
        ident = data["identities"][0]
        assert ident["provenance"] == "bw3"
        assert ident["kappa"] == "1/2"  # k(k+2)/(4(n+2)) = 8/16

    def test_csv_header(self):
        bundle = lambda_ab_bundle(2, 1, 0, 2)
        csv = identities_to_csv([printed_identity(bundle, "bw1")])
        assert csv.splitlines()[0].startswith('provenance,"B(+1,+1)",')
        assert "R^1" in csv.splitlines()[0]

    def test_latex_contains_terms(self):
        bundle = lambda_ab_bundle(2, 1, 0, 2)
        tex = identity_to_latex(printed_identity(bundle, "bw3"))
        assert "B_{+1,+1}" in tex and "\\kappa" in tex
