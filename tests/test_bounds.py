from fractions import Fraction

import pytest

from qkbw.bounds import (
    ParameterRangeError,
    bound_for,
    closed_form_bound,
    connection_laplacian_bound,
    dirac_bound,
    harmonic_classification,
    hpn_first_eigenvalue,
    kernel_analysis,
    lp_max_bound,
    twistor_kernel_analysis,
)
from qkbw.casimir import lambda_ab_bundle
from qkbw.identities import (
    InconsistencyError,
    MixedBundleError,
    operator_coeffs,
    pure_kappa_identities,
)
from qkbw.weights import BundleLabel, SpnWeight

F = Fraction


class TestClosedFormBound:
    def test_positive_fixtures(self):
        for n in range(2, 6):
            assert closed_form_bound(2, 2, 0, n, "+") == F(n + 1, n * (n + 2))
        # S^k(H) family
        for n in (2, 3):
            for k in range(1, 2 * n + 1):
                assert closed_form_bound(k, 0, 0, n, "+") == F(
                    k * (2 * n + k + 2), 8 * n * (n + 2)
                )

    def test_harmonic_zeroes(self):
        assert closed_form_bound(0, 2, 2, 3, "+") == 0
        assert closed_form_bound(0, 1, 1, 2, "-") == 0

    def test_negative_function_branch(self):
        for n in (2, 4):
            for k in range(1, 2 * n + 1):
                assert closed_form_bound(k, 0, 0, n, "-") == F(
                    -(k + 2) * (2 * n - k), 8 * n * (n + 2)
                )
        # trivial bundle carries harmonic constants
        assert closed_form_bound(0, 0, 0, 3, "-") == 0

    def test_cubic_branch_boundary_inclusive(self):
        # a = b = 1, n = 4: split point (2n-2a)/3 = 2 is inclusive on
        # the first branch
        n, a = 4, 1
        assert closed_form_bound(2, a, a, n, "-") == F(-2 * (2 * n - 2 * a - 2 + 4), 8 * n * (n + 2))
        assert closed_form_bound(3, a, a, n, "-") == F(-(3 + 2) * (2 * n - 2 * a - 3), 8 * n * (n + 2))

    def test_non_integer_split_point(self):
        # a = b = 1, n = 3: (2n-2a)/3 = 4/3, so k = 1 is below and k = 2 above
        assert closed_form_bound(1, 1, 1, 3, "-") == F(-1 * (6 - 2 - 1 + 4), 8 * 3 * 5)
        assert closed_form_bound(2, 1, 1, 3, "-") == F(-4 * (6 - 2 - 2), 8 * 3 * 5)

    def test_two_form_summand_values(self):
        # (k, a, b) = (2, 2, 0): the primitive 2-form summand of the
        # 2-form bundle
        for n in (4, 5):
            assert closed_form_bound(2, 2, 0, n, "-") == F(-(n - 1), n * (n + 2))
        for n in (2, 3):
            assert closed_form_bound(2, 2, 0, n, "-") == F(-3 * (n - 2), 2 * n * (n + 2))
        for n in (2, 3, 4):
            assert closed_form_bound(2, 2, 0, n, "+") == F(n + 1, n * (n + 2))

    def test_range_errors(self):
        with pytest.raises(ParameterRangeError):
            closed_form_bound(1, 2, 3, 4, "+")
        with pytest.raises(ParameterRangeError):
            closed_form_bound(8, 1, 0, 2, "+")
        with pytest.raises(ValueError):
            closed_form_bound(1, 1, 0, 2, "0")


class TestLP:
    def test_spec_fixture_2_2_0(self):
        bundle = lambda_ab_bundle(2, 2, 0, 2)
        cert = bound_for("hodge_laplacian", bundle, "+")
        assert cert.bound == F(3, 8)

    def test_sk_bounds_via_lp(self):
        for n in (2, 3):
            for k in (1, 2, 5):
                if k > 2 * n:
                    continue
                bundle = lambda_ab_bundle(k, 0, 0, n)
                cert = bound_for("hodge_laplacian", bundle, "+")
                assert cert.bound == F(k * (2 * n + k + 2), 8 * n * (n + 2))
                cert = bound_for("hodge_laplacian", bundle, "-")
                assert cert.bound == F(-(k + 2) * (2 * n - k), 8 * n * (n + 2))

    def test_functions_bound_zero(self):
        bundle = lambda_ab_bundle(0, 0, 0, 2)
        assert bound_for("hodge_laplacian", bundle, "+").bound == 0
        assert bound_for("hodge_laplacian", bundle, "-").bound == 0

    def test_certificate_structure(self):
        bundle = lambda_ab_bundle(2, 2, 0, 2)
        operator = operator_coeffs("hodge_laplacian", bundle)
        identities = pure_kappa_identities(bundle)
        cert = lp_max_bound(operator, identities, "+")
        cert.verify(operator, identities)  # must not raise
        assert all(v >= 0 for _, v in cert.residuals)
        op = operator.coeff_map()
        by_id = dict(cert.multipliers)
        for key, res in cert.residuals:
            combined = res + sum(
                by_id[i] * ident.coeff_map().get(key, F(0))
                for i, ident in zip(by_id, identities)
            )
            assert combined == op[key]

    def test_determinism(self):
        bundle = lambda_ab_bundle(3, 2, 1, 3)
        first = bound_for("hodge_laplacian", bundle, "-")
        second = bound_for("hodge_laplacian", bundle, "-")
        assert first == second

    def test_redundant_identities_get_zero_multiplier(self):
        # the L1 cleanup zeroes dependent rows deterministically
        bundle = lambda_ab_bundle(2, 1, 0, 2)
        operator = operator_coeffs("hodge_laplacian", bundle)
        identities = pure_kappa_identities(bundle)
        cert = lp_max_bound(operator, identities, "+")
        multipliers = dict(cert.multipliers)
        l1 = sum(abs(v) for v in multipliers.values())
        # dropping the redundant identities must not change the optimum,
        # and the cleanup must never use more L1 weight than that solution
        slim = [i for i in identities if i.provenance in ("bw1", "bw3", "bw4")]
        slim_cert = lp_max_bound(operator, slim, "+")
        assert slim_cert.bound == cert.bound
        assert l1 <= sum(abs(v) for v in dict(slim_cert.multipliers).values())

    def test_monotone_under_extra_identities(self):
        # projective-space mode adds identities, which can only help
        for k, a, b, n in ((2, 1, 1, 2), (1, 2, 1, 3), (3, 0, 0, 2)):
            bundle = lambda_ab_bundle(k, a, b, n)
            plain = bound_for("hodge_laplacian", bundle, "+").bound
            strong = bound_for("hodge_laplacian", bundle, "+", hpn=True).bound
            assert strong >= plain
            plain = bound_for("hodge_laplacian", bundle, "-").bound
            strong = bound_for("hodge_laplacian", bundle, "-", hpn=True).bound
            assert strong <= plain

    def test_operator_identity_bundle_mismatch(self):
        # the same error as independence_rank and combine, still a ValueError
        op = operator_coeffs("hodge_laplacian", lambda_ab_bundle(2, 1, 0, 2))
        idents = pure_kappa_identities(lambda_ab_bundle(2, 1, 0, 3))
        message = "identities and operator must live on one bundle"
        with pytest.raises(MixedBundleError, match=message):
            lp_max_bound(op, idents, "+")
        own = pure_kappa_identities(op.bundle)
        with pytest.raises(MixedBundleError, match=message):
            lp_max_bound(op, own + idents[:1], "-")
        assert issubclass(MixedBundleError, ValueError)

    def test_subsets_never_beat_the_full_set(self):
        # The optimum is monotone in the identity span; every subset is
        # weakly worse (for either sign of the objective).
        from itertools import combinations

        bundle = lambda_ab_bundle(2, 2, 1, 3)
        operator = operator_coeffs("hodge_laplacian", bundle)
        identities = pure_kappa_identities(bundle)
        for sign, direction in (("+", 1), ("-", -1)):
            full = lp_max_bound(operator, identities, sign).bound
            for size in (1, 2, 3):
                for subset in combinations(identities, size):
                    sub = lp_max_bound(operator, list(subset), sign).bound
                    if sub is not None:  # a subset may leave no feasible rewriting
                        assert direction * sub <= direction * full


class TestVerifyRejectsMalformedCertificates:
    """n = 3, k = 2, rho = (2,1,0), Hodge, kappa > 0: a valid certificate
    with one field changed, so that the values still add up, or, in the last
    two tests, so that a residual or the bound is off."""

    bundle = BundleLabel(2, SpnWeight((2, 1, 0)))

    def _verify(self, field, change):
        operator = operator_coeffs("hodge_laplacian", self.bundle)
        identities = pure_kappa_identities(self.bundle)
        cert = lp_max_bound(operator, identities, "+")
        cert.verify(operator, identities)
        assert cert.multipliers[0] == ("bw3", F(49, 60))
        cert.replace(**{field: change(getattr(cert, field))}).verify(operator, identities)

    def test_extra_residual(self):
        with pytest.raises(InconsistencyError, match="residual targets differ"):
            self._verify("residuals", lambda residuals: residuals + (((1, 99), F(5)),))

    def test_missing_or_reordered_residuals(self):
        for change in (lambda residuals: residuals[1:], lambda residuals: residuals[::-1]):
            with pytest.raises(InconsistencyError, match="residual targets differ"):
                self._verify("residuals", change)

    def test_repeated_multiplier_id(self):
        with pytest.raises(InconsistencyError, match="multiplier id repeats"):
            self._verify("multipliers", lambda multipliers: multipliers + multipliers[:1])

    def test_unknown_multiplier_id(self):
        with pytest.raises(InconsistencyError, match=r"unknown identities \['bw9'\]"):
            self._verify("multipliers", lambda multipliers: multipliers + (("bw9", F(0)),))

    def test_label_of_another_bundle_or_operator(self):
        other = BundleLabel(4, SpnWeight((3, 3, 1)))
        for field, value in (("bundle", other), ("operator", "dirac_squared")):
            with pytest.raises(InconsistencyError, match="labelled for another"):
                self._verify(field, lambda _: value)

    def test_identity_on_another_bundle(self):
        operator = operator_coeffs("hodge_laplacian", self.bundle)
        identities = pure_kappa_identities(self.bundle)
        cert = lp_max_bound(operator, identities, "+")
        moved = [i.replace(bundle=BundleLabel(4, SpnWeight((3, 3, 1)))) for i in identities]
        with pytest.raises(InconsistencyError, match="identity on another bundle"):
            cert.verify(operator, moved)

    def test_residual_raised_by_one(self):
        key = operator_coeffs("hodge_laplacian", self.bundle).targets[-1]

        def raise_last(residuals):
            *rest, (last, value) = residuals
            assert last == key
            return (*rest, (last, value + 1))

        with pytest.raises(InconsistencyError) as exc:
            self._verify("residuals", raise_last)
        assert str(exc.value) == f"reconstruction fails at {key}"

    def test_bound_raised_by_one_millionth(self):
        with pytest.raises(InconsistencyError) as exc:
            self._verify("bound", lambda bound: bound + F(1, 10**6))
        assert str(exc.value) == "bound does not match multiplier combination"


class TestVerifyRejectsNegativeResiduals:
    """A certificate that adds up at every target and in its bound, but whose
    first multiplier moved so far that residuals went negative: only the
    sign check can refuse it."""

    bundle = BundleLabel(2, SpnWeight((2, 1, 0)))

    def test_negative_residual_that_adds_up(self):
        operator = operator_coeffs("hodge_laplacian", self.bundle)
        identities = pure_kappa_identities(self.bundle)
        cert = lp_max_bound(operator, identities, "+")
        (first, lam), *rest = cert.multipliers
        assert first == identities[0].provenance
        column = identities[0].coeff_map()
        key, value = next((key, v) for key, v in cert.residuals if column[key])
        t = (value + 1) / column[key]  # moves this residual to -1
        moved = cert.replace(
            multipliers=((first, lam + t), *rest),
            residuals=tuple((k, v - t * column[k]) for k, v in cert.residuals),
            bound=cert.bound + t * identities[0].kappa_coeff,
        )
        negative = [(k, v) for k, v in moved.residuals if v < 0]
        assert (key, F(-1)) in negative
        with pytest.raises(InconsistencyError) as exc:
            moved.verify(operator, identities)
        assert str(exc.value) == "negative residual at {}: {}".format(*negative[0])
        op, columns = operator.coeff_map(), [ident.coeff_map() for ident in identities]
        for k, r in moved.residuals:
            assert op[k] - r == sum(v * c[k] for (_, v), c in zip(moved.multipliers, columns))
        assert moved.bound == sum(
            v * ident.kappa_coeff for (_, v), ident in zip(moved.multipliers, identities)
        )


class TestPrimalAndDualOptimaMustAgree:
    """lp_max_bound with every optimum of the solver moved by 1/10**6, so that
    the dual optimum no longer equals the primal one."""

    bundle = BundleLabel(2, SpnWeight((2, 1, 0)))

    def test_a_dual_optimum_off_by_one_millionth_raises(self, monkeypatch):
        import qkbw.bounds

        operator = operator_coeffs("hodge_laplacian", self.bundle)
        identities = pure_kappa_identities(self.bundle)
        cert = lp_max_bound(operator, identities, "+")
        assert cert.bound is not None
        cert.verify(operator, identities)
        real = qkbw.bounds.simplex_maximize

        def off(objective, constraints, rhs, *, start=None):
            value, x = real(objective, constraints, rhs, start=start)
            return value + F(1, 10**6), x

        monkeypatch.setattr(qkbw.bounds, "simplex_maximize", off)
        with pytest.raises(InconsistencyError, match="^primal and dual optima differ$"):
            lp_max_bound(operator, identities, "+")
        monkeypatch.undo()
        assert lp_max_bound(operator, identities, "+") == cert


def _assert_rewriting(bundle, operator_name, residuals, bound):
    """A displayed rewriting is valid iff operator - residuals lies in the
    pure-kappa span with the stated kappa multiple, and it is optimal iff
    the LP reproduces its bound."""
    from qkbw.simplex import solve_linear_system

    operator = operator_coeffs(operator_name, bundle)
    identities = pure_kappa_identities(bundle)
    assert all(v >= 0 for v in residuals.values())
    keys = [key for key, _ in operator.coeffs]
    assert set(residuals) <= set(keys)
    matrix = [
        [ident.coeff_map().get(key, F(0)) for ident in identities] for key in keys
    ]
    matrix.append([ident.kappa_coeff for ident in identities])
    target = [op - residuals.get(key, F(0)) for key, op in operator.coeffs]
    target.append(bound)
    solve_linear_system(matrix, target)  # raises if the rewriting is wrong


class TestDisplayedRewritings:
    def test_symmetric_power_connection(self):
        # the two rewritings of the connection Laplacian on S^k(H)
        for k, n in ((1, 2), (3, 2), (4, 3)):
            bundle = lambda_ab_bundle(k, 0, 0, n)
            _assert_rewriting(
                bundle,
                "connection_laplacian",
                {(1, 1): F(2 * (k + 1), k + 2)},
                F(k, 4 * (n + 2)),
            )
            _assert_rewriting(
                bundle,
                "connection_laplacian",
                {(-1, 1): F(2 * (k + 1), k)},
                F(-(k + 2), 4 * (n + 2)),
            )

    def test_primitive_form_connection_k0(self):
        for a, n in ((1, 2), (2, 3), (2, 4)):
            bundle = lambda_ab_bundle(0, a, 0, n)
            _assert_rewriting(
                bundle,
                "connection_laplacian",
                {
                    (1, 1): F(2 * n - a + 3, 2 * n - a + 2),
                    (1, a + 1): F(2 * (n - a + 1), 2 * n - a + 2),
                },
                F(a, 4 * n * (n + 2)),
            )

    def test_equal_ab_positive_curvature(self):
        for k, a, n in ((1, 1, 2), (2, 1, 3), (3, 2, 3)):
            bundle = lambda_ab_bundle(k, a, a, n)
            residuals = {
                (1, a + 1): F((k + 1) * (a + 2), k + 2),
                (1, -a): F(
                    (2 * n - a + 5) * (2 * n - 2 * a + 3 * k + 6),
                    2 * (k + 2) * (n - a + 3),
                ),
                (-1, -a): F((2 * n - a + 5) * (2 * n - 2 * a + 3), 2 * (n - a + 3)),
            }
            bound = F(k * (2 * n - 2 * a + k + 2), 8 * n * (n + 2))
            _assert_rewriting(bundle, "hodge_laplacian", residuals, bound)
            assert bound_for("hodge_laplacian", bundle, "+").bound == bound

    def test_generic_shape_k0_positive_curvature(self):
        for a, b, n in ((2, 1, 3), (3, 1, 4), (3, 2, 5)):
            bundle = lambda_ab_bundle(0, a, b, n)
            residuals = {
                (1, b + 1): F((b + 1) * (2 * n - a - b + 3), 2 * n - a - b + 2),
                (1, a + 1): F(
                    2 * (a + 2) * (n - a + 1), (a - b + 2) * (2 * n - a - b + 2)
                ),
                (1, -b): F((a - b + 1) * (2 * n - b + 5), a - b + 2),
            }
            bound = F((a - b) * (2 * n - a - b + 4), 8 * n * (n + 2))
            _assert_rewriting(bundle, "hodge_laplacian", residuals, bound)
            assert bound_for("hodge_laplacian", bundle, "+").bound == bound

    def test_primitive_form_connection_negative_curvature(self):
        # low-k branch (k <= n-a), then high-k branch
        for k, a, n in ((0, 1, 2), (1, 1, 3), (2, 1, 4)):
            bundle = lambda_ab_bundle(k, a, 0, n)
            residuals = {
                (1, a + 1): F(2 * (a + 1) * (n - k - a), (k + 2) * (n - a)),
                (1, -a): F(2 * (k + 1) * (2 * n - a + 3), k + 2),
                (-1, a + 1): F(2 * (a + 1) * (n - a + 1), n - a),
            }
            if k == 0:
                residuals.pop((-1, a + 1))  # no downward targets at k = 0
            bound = F(
                -(2 * a * n + k * n - a**2 - k * a + 2 * a + 2 * k), 4 * n * (n + 2)
            )
            _assert_rewriting(bundle, "connection_laplacian", residuals, bound)
            assert bound_for("connection_laplacian", bundle, "-").bound == bound
        for k, a, n in ((2, 1, 2), (3, 2, 3)):
            bundle = lambda_ab_bundle(k, a, 0, n)
            residuals = {
                (1, -a): F(2 * (2 * n - a + 3) * (n - a + 1), n - a + 2),
                (-1, a + 1): F(2 * (k + 1) * (a + 1), k),
                (-1, -a): F(2 * (2 * n - a + 3) * (k + a - n), k * (n - a + 2)),
            }
            bound = F(
                -(-k * a - a**2 + 2 * n + k * n + 2 * a * n), 4 * n * (n + 2)
            )
            _assert_rewriting(bundle, "connection_laplacian", residuals, bound)
            assert bound_for("connection_laplacian", bundle, "-").bound == bound

    def test_equal_ab_negative_curvature(self):
        # low-k branch (k <= (2n-2a)/3), then high-k branch
        for k, a, n in ((0, 1, 2), (1, 1, 3), (2, 1, 4)):
            bundle = lambda_ab_bundle(k, a, a, n)
            residuals = {
                (1, a + 1): F(
                    (a + 2) * (2 * n - 2 * a - 3 * k), 2 * (k + 2) * (n - a)
                ),
                (1, -a): F((k + 1) * (2 * n - a + 5), k + 2),
                (-1, a + 1): F((a + 2) * (2 * n - 2 * a + 3), 2 * (n - a)),
            }
            if k == 0:
                residuals.pop((-1, a + 1))
            bound = F(-k * (2 * n - 2 * a - k + 4), 8 * n * (n + 2))
            _assert_rewriting(bundle, "hodge_laplacian", residuals, bound)
            assert bound_for("hodge_laplacian", bundle, "-").bound == bound
        for k, a, n in ((1, 1, 2), (2, 1, 3)):
            bundle = lambda_ab_bundle(k, a, a, n)
            residuals = {
                (1, -a): F(
                    (2 * n - a + 5) * (2 * n - 2 * a + 3), 2 * (n - a + 3)
                ),
                (-1, a + 1): F((k + 1) * (a + 2), k),
                (-1, -a): F(
                    (2 * n - a + 5) * (3 * k + 2 * a - 2 * n), 2 * k * (n - a + 3)
                ),
            }
            bound = F(-(k + 2) * (2 * n - 2 * a - k), 8 * n * (n + 2))
            _assert_rewriting(bundle, "hodge_laplacian", residuals, bound)
            assert bound_for("hodge_laplacian", bundle, "-").bound == bound

    def test_generic_shape_negative_curvature(self):
        # low-k branch (k <= n-a) with six surviving terms
        for k, a, b, n in ((0, 2, 1, 3), (1, 2, 1, 4)):
            bundle = lambda_ab_bundle(k, a, b, n)
            residuals = {
                (1, a + 1): F(
                    2 * (a + 2) * (a - b + 1) * (n - a - k),
                    (a - b + 2) * (k + 2) * (n - a),
                ),
                (1, -b): F(
                    2 * (2 * n - b + 5) * (n - b + 2)
                    * (2 * k * n - a * k - b * k + 2 * n - 2 * b + 5 * k + 6),
                    (a - b + 2) * (k + 2) * (2 * n - a - b + 4) * (n - b + 3),
                ),
                (1, -a): F(
                    2 * (k + 1) * (2 * n - a + 4) * (2 * n - a - b + 3),
                    (k + 2) * (2 * n - a - b + 4),
                ),
                (-1, a + 1): F(
                    2 * (a + 2) * (a - b + 1) * (n - a + 1), (a - b + 2) * (n - a)
                ),
                (-1, -b): F(
                    2 * (a - b + 1) * (2 * n - b + 5) * (n - b + 2),
                    (a - b + 2) * (2 * n - a - b + 4) * (n - b + 3),
                ),
            }
            if k == 0:
                residuals.pop((-1, a + 1))
                residuals.pop((-1, -b))
            bound = F(-(a - b + k) * (2 * n - a - b - k + 2), 8 * n * (n + 2))
            _assert_rewriting(bundle, "hodge_laplacian", residuals, bound)
            assert bound_for("hodge_laplacian", bundle, "-").bound == bound
        # high-k branch (n-a < k <= 2n-a-b)
        for k, a, b, n in ((2, 2, 1, 3), (3, 2, 1, 4)):
            bundle = lambda_ab_bundle(k, a, b, n)
            residuals = {
                (1, -b): F(
                    2 * (2 * n - b + 5) * (2 * n - a - b + 3) * (n - b + 2),
                    (a - b + 2) * (2 * n - a - b + 4) * (n - b + 3),
                ),
                (1, -a): F(
                    2 * (2 * n - a + 4) * (2 * n - a - b + 3) * (n - a + 1),
                    (n - a + 2) * (2 * n - a - b + 4),
                ),
                (-1, a + 1): F(
                    2 * (a + 2) * (a - b + 1) * (k + 1), k * (a - b + 2)
                ),
                (-1, -b): F(
                    2 * (2 * n - b + 5) * (n - b + 2)
                    * (2 * a + 3 * k + a * k - b * k - 2 * n),
                    (a - b + 2) * k * (2 * n - a - b + 4) * (n - b + 3),
                ),
                (-1, -a): F(
                    2 * (2 * n - a + 4) * (2 * n - a - b + 3) * (a + k - n),
                    k * (2 * n - a - b + 4) * (n - a + 2),
                ),
            }
            bound = F(-(a - b + k + 2) * (2 * n - a - b - k), 8 * n * (n + 2))
            _assert_rewriting(bundle, "hodge_laplacian", residuals, bound)
            assert bound_for("hodge_laplacian", bundle, "-").bound == bound

    def test_generic_shape_positive_curvature(self):
        # the five-term rewriting with the long B_(1,-b) numerator
        for k, a, b, n in ((1, 2, 1, 3), (2, 3, 1, 4), (2, 2, 1, 5)):
            bundle = lambda_ab_bundle(k, a, b, n)
            long_numerator = (
                12 + 6 * a - 3 * a**2 - 16 * b - 2 * a * b + a**2 * b
                + 7 * b**2 - b**3 + 6 * k + 2 * a * k - a**2 * k
                - 5 * b * k + b**2 * k + 10 * n + 8 * a * n - a**2 * n
                - 12 * b * n - 2 * a * b * n + 3 * b**2 * n + 3 * k * n
                + 2 * a * k * n - 2 * b * k * n + 2 * n**2 + 2 * a * n**2
                - 2 * b * n**2
            )
            residuals = {
                (1, b + 1): F(2 * (b + 1) * (k + 1), k + 2),
                (1, a + 1): F(2 * (a + 2) * (k + 1), (k + 2) * (a - b + 2)),
                (1, -b): F(
                    2 * (2 * n - b + 5) * long_numerator,
                    (a - b + 2) * (k + 2) * (2 * n - a - b + 4) * (n - b + 3),
                ),
                (1, -a): F(
                    2 * (k + 1) * (2 * n - a + 4), (k + 2) * (2 * n - a - b + 4)
                ),
                (-1, -b): F(
                    2 * (a - b + 1) * (2 * n - b + 5) * (2 * n - a - b + 3) * (n - b + 2),
                    (a - b + 2) * (2 * n - a - b + 4) * (n - b + 3),
                ),
            }
            bound = F((a - b + k) * (2 * n - a - b + k + 2), 8 * n * (n + 2))
            _assert_rewriting(bundle, "hodge_laplacian", residuals, bound)
            assert bound_for("hodge_laplacian", bundle, "+").bound == bound


class TestConnectionAndDirac:
    def test_connection_positive(self):
        assert connection_laplacian_bound(0, 1, 2, "+") == F(1, 32)
        assert connection_laplacian_bound(3, 1, 3, "+") == F(3, 20)

    def test_connection_negative_fixture(self):
        assert connection_laplacian_bound(0, 1, 2, "-") == F(-5, 32)

    def test_dirac_values(self):
        for n in (2, 3, 4):
            assert dirac_bound(0, n) == F(n + 3, 4 * (n + 2))
            assert dirac_bound(n, n) == F(n + 1, 2 * (n + 2))
            for k in range(n + 1):
                assert dirac_bound(k, n) == connection_laplacian_bound(
                    k, n - k, n, "+"
                ) + F(1, 4)

    def test_dirac_lp(self):
        n, k = 3, 1
        bundle = lambda_ab_bundle(k, n - k, 0, n)
        cert = bound_for("dirac_squared", bundle, "+")
        assert cert.bound == dirac_bound(k, n)

    def test_range_errors(self):
        with pytest.raises(ParameterRangeError):
            dirac_bound(4, 3)
        with pytest.raises(ParameterRangeError):
            connection_laplacian_bound(1, 5, 4, "+")


class TestKernelAnalysis:
    def test_printed_ratios(self):
        for n in (2, 3, 5):
            for k in (0, 1, 4):
                analysis = twistor_kernel_analysis(k, n)
                assert analysis.determined
                ratios = dict(analysis.solved_ratios)
                assert ratios[(1, 1)] == F(
                    -(k + 3) * (2 * n + k + 2), 8 * n * (n + 2) * (k + 2)
                )
                assert ratios[(-1, 1)] == F(k * (k + 1), 8 * (n + 2) * (k + 2))
                assert ratios[(-1, 2)] == F((k + 1) * (n - 1), 8 * n * (n + 2))

    def test_verdicts_both_signs(self):
        analysis = twistor_kernel_analysis(3, 2)
        verdicts = {s: (v, w) for s, v, w in analysis.verdicts}
        assert verdicts[1][0] == "vanishes" and verdicts[1][1] == (1, 1)
        assert verdicts[-1][0] == "vanishes"

    def test_nabla_ratio_consistency(self):
        analysis = twistor_kernel_analysis(2, 3)
        assert analysis.nabla_ratio() == sum(v for _, v in analysis.solved_ratios)

    def test_undetermined_reports_deficit(self):
        # k = 0 on (1_a): the pure-kappa span has rank one, so two
        # unknowns cannot be pinned down
        bundle = lambda_ab_bundle(0, 1, 0, 2)
        analysis = kernel_analysis(bundle, [(1, 2)])
        assert not analysis.determined
        assert analysis.rank_deficit == 1
        assert all(v == "undetermined" for _, v, _ in analysis.verdicts)

    def test_a_system_with_no_equations_is_undetermined(self):
        # one unknown target and no pure-kappa identity: nothing pins it down
        analysis = kernel_analysis(BundleLabel(0, SpnWeight((0, 0))), ())
        assert (analysis.determined, analysis.rank_deficit) == (False, 1)
        data = analysis.to_json_dict()
        assert (data["determined"], data["nabla_ratio"]) == (False, None)

    def test_invalid_kernel_target(self):
        bundle = lambda_ab_bundle(1, 1, 0, 2)
        with pytest.raises(ValueError):
            kernel_analysis(bundle, [(1, -2)])  # non-dominant shift

    def test_json_shape(self):
        data = twistor_kernel_analysis(0, 2).to_json_dict()
        assert data["verdicts"]["+"]["verdict"] == "vanishes"
        assert data["kernel"] == ["+1,+2", "+1,-1", "-1,-1"]


class TestHarmonicClassification:
    def test_positive_n2(self):
        assert harmonic_classification(2, "+") == [(0, 0, 0), (0, 1, 1), (0, 2, 2)]

    def test_negative_n2(self):
        triples = harmonic_classification(2, "-")
        assert (0, 0, 0) in triples and (0, 2, 2) in triples
        assert (4, 0, 0) in triples  # top symmetric power
        assert (2, 1, 1) in triples and (1, 2, 1) in triples
        expected = {(0, a, a) for a in range(3)} | {
            (4 - a - b, a, b) for a in range(3) for b in range(a + 1)
        }
        assert set(triples) == expected

    def test_zero_bound_at_listed(self):
        for sign in ("+", "-"):
            for (k, a, b) in harmonic_classification(3, sign):
                assert closed_form_bound(k, a, b, 3, sign) == 0


class TestProjectiveSpace:
    def test_first_eigenvalue_fixtures(self):
        assert hpn_first_eigenvalue(2, 0, 0, 2) == 1
        # (k,a,b,n) = (2,1,1,3): (20 + 7 + 9) / 20
        assert hpn_first_eigenvalue(2, 1, 1, 3) == F(9, 5)

    def test_requires_k_at_least_2(self):
        with pytest.raises(ParameterRangeError):
            hpn_first_eigenvalue(1, 0, 0, 2)

    def test_lp_meets_first_eigenvalue(self):
        for k, a, b, n in ((2, 0, 0, 2), (3, 1, 0, 2), (2, 2, 1, 3), (4, 1, 1, 3)):
            bundle = lambda_ab_bundle(k, a, b, n)
            cert = bound_for("hodge_laplacian", bundle, "+", hpn=True)
            assert cert.bound * 2 * n == hpn_first_eigenvalue(k, a, b, n)

    def test_hpn_strictly_better_for_deep_weights(self):
        # a = b shapes are where curvature identities block the plain bound
        k, a, b, n = 2, 1, 1, 2
        bundle = lambda_ab_bundle(k, a, b, n)
        plain = bound_for("hodge_laplacian", bundle, "+").bound
        strong = bound_for("hodge_laplacian", bundle, "+", hpn=True).bound
        assert strong > plain


# Each closed form at n = 0 and n = 1 with every other argument in range:
# n = 0 divided by zero, n = 1 returned a value for a rank with no Sp(n) bundle.
RANK_BELOW_TWO = {
    "closed_form_trivial": lambda n: closed_form_bound(0, 0, 0, n, "+"),
    "closed_form_a_n": lambda n: closed_form_bound(0, n, 0, n, "+"),
    "closed_form_negative": lambda n: closed_form_bound(2 * n, 0, 0, n, "-"),
    "connection": lambda n: connection_laplacian_bound(0, 0, n, "+"),
    "connection_negative": lambda n: connection_laplacian_bound(0, n, n, "-"),
    "dirac": lambda n: dirac_bound(0, n),
    "hpn": lambda n: hpn_first_eigenvalue(2, n, 0, n),
    "harmonic": lambda n: harmonic_classification(n, "+"),
}


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("closed_form", RANK_BELOW_TWO.values(), ids=RANK_BELOW_TWO)
def test_closed_forms_reject_rank_below_two(closed_form, n):
    with pytest.raises(ParameterRangeError, match=f"^rank must be at least 2, got n={n}$"):
        closed_form(n)


class TestCertificateSerialization:
    def test_json_dict(self):
        cert = bound_for("hodge_laplacian", lambda_ab_bundle(2, 2, 0, 2), "+")
        data = cert.to_json_dict()
        assert data["bound"] == "3/8"
        assert data["kappa_sign"] == "+"
        # rho = (1,1) at n = 2 has the two dominant shifts +1 and -2
        assert set(data["residuals"]) == {"+1,+1", "+1,-2", "-1,+1", "-1,-2"}

    def test_markdown(self):
        cert = bound_for("hodge_laplacian", lambda_ab_bundle(1, 0, 0, 2), "+")
        md = cert.to_markdown()
        assert "bound:" in md and "multiplier" in md
