import itertools
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkbw.weights import (
    BundleLabel,
    NonDominantError,
    SpnWeight,
    _shifted,
    decompose_rho_tensor_E,
    mu_shift,
    parse_weight,
    weyl_dim,
)
from qkbw.weights import lambda_ab_weight

SRC = Path(__file__).resolve().parent.parent / "src"


def w(*entries):
    return SpnWeight(tuple(entries))


def dominant_shifts(rho):
    """The (nu, rho + mu_nu) pairs of decompose_rho_tensor_E whose weight is dominant."""
    return [(nu, shifted) for nu, shifted in decompose_rho_tensor_E(rho) if shifted.is_dominant]


def primitive_form_dim(a: int, n: int) -> int:
    """Hand-countable check value: dim of the (1_a) module is C(2n,a) - C(2n,a-2)."""
    return comb(2 * n, a) - (comb(2 * n, a - 2) if a >= 2 else 0)


def spinor_decomposition(n: int):
    """The n+1 bundle labels (k, (1_{n-k})) the spinor bundle splits into."""
    return [BundleLabel(k, lambda_ab_weight(n - k, 0, n)) for k in range(n + 1)]


def lambda2_decomposition(n: int):
    """The three bundle labels of the 2-form bundle: (2,(0)), (2,(1,1)), (0,(2))."""
    return [
        BundleLabel(2, lambda_ab_weight(0, 0, n)),
        BundleLabel(2, lambda_ab_weight(2, 0, n)),
        BundleLabel(0, lambda_ab_weight(1, 1, n)),
    ]


dominant_weights = st.integers(2, 5).flatmap(
    lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n).map(
        lambda e: SpnWeight(tuple(sorted(e, reverse=True)))
    )
)


class TestDominance:
    def test_examples(self):
        assert w(2, 1, 0).is_dominant
        assert not w(1, 2).is_dominant
        assert not w(1, -1).is_dominant

    def test_rank_restriction(self):
        with pytest.raises(ValueError):
            SpnWeight((3,))

    def test_require_dominant(self):
        with pytest.raises(NonDominantError):
            w(0, 1).require_dominant()

    def test_one_comparison_matches_the_pairwise_definition(self):
        """is_dominant on every weight with entries in -2..3 (n = 2..5), and on
        each of its shifts built by _shifted, equals the pairwise test."""

        def pairwise(e):
            return all(e[i] >= e[i + 1] for i in range(len(e) - 1)) and e[-1] >= 0

        for n in range(2, 6):
            for entries in itertools.product(range(-2, 4), repeat=n):
                assert SpnWeight(entries).is_dominant == pairwise(entries), entries
                for i in range(n):
                    for step in (1, -1):
                        shifted = _shifted(entries, i, step)
                        assert shifted.is_dominant == pairwise(shifted.entries), shifted


class TestMuShift:
    def test_examples(self):
        assert mu_shift(w(1, 0), 1) == w(2, 0)
        assert mu_shift(w(1, 0), 1).is_dominant
        assert mu_shift(w(1, 0), -2) == w(1, -1)
        assert not mu_shift(w(1, 0), -2).is_dominant
        assert mu_shift(w(2, 1, 1), -2) == w(2, 0, 1)
        assert not mu_shift(w(2, 1, 1), -2).is_dominant

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mu_shift(w(1, 0), 0)
        with pytest.raises(ValueError):
            mu_shift(w(1, 0), 3)

    @given(dominant_weights, st.integers(1, 5), st.booleans())
    def test_shift_involution(self, rho, idx, positive):
        nu = idx if positive else -idx
        if abs(nu) > rho.n:
            nu = (1 if positive else -1) * rho.n
        assert mu_shift(mu_shift(rho, nu), -nu) == rho


class TestWeylDim:
    def test_defining_module(self):
        for n in range(2, 6):
            assert weyl_dim(SpnWeight((1,) + (0,) * (n - 1))) == 2 * n

    def test_adjoint(self):
        assert weyl_dim(w(2, 0)) == 10  # n(2n+1) at n=2

    def test_lambda2_primitive(self):
        # evaluate the product formula, cross-check dim of the full
        # 2-forms minus the symplectic trace
        assert weyl_dim(w(1, 1)) == 5
        assert weyl_dim(w(1, 1)) == 6 - 1

    def test_primitive_forms(self):
        for n in range(2, 5):
            for a in range(n + 1):
                assert weyl_dim(lambda_ab_weight(a, 0, n)) == primitive_form_dim(a, n)

    def test_rejects_non_dominant(self):
        with pytest.raises(NonDominantError):
            weyl_dim(w(0, 1))

    @given(dominant_weights)
    @settings(max_examples=40, deadline=None)
    def test_dimension_count(self, rho):
        # V_rho (x) E has dimension 2n * dim V_rho, so the dominant
        # summand dimensions must add up to it.
        total = sum(weyl_dim(shifted) for _, shifted in dominant_shifts(rho))
        assert total == 2 * rho.n * weyl_dim(rho)


class TestDecomposeRhoTensorE:
    def test_rho_10(self):
        dominant = dominant_shifts(w(1, 0))
        assert {shifted for _, shifted in dominant} == {w(2, 0), w(1, 1), w(0, 0)}
        assert len(dominant) == 3

    def test_rho_11(self):
        dominant = dominant_shifts(w(1, 1))
        assert {shifted for _, shifted in dominant} == {w(2, 1), w(1, 0)}
        assert len(dominant) == 2

    def test_trivial(self):
        for n in (2, 3, 4):
            dominant = dominant_shifts(SpnWeight((0,) * n))
            assert len(dominant) == 1
            assert [nu for nu, _ in dominant] == [1]

    @given(dominant_weights)
    @settings(max_examples=60, deadline=None)
    def test_parity(self, rho):
        assert (len(dominant_shifts(rho)) % 2 == 1) == (rho.entries[-1] == 0)

    @given(dominant_weights)
    @settings(max_examples=40, deadline=None)
    def test_pairs_in_canonical_order(self, rho):
        n = rho.n
        pairs = decompose_rho_tensor_E(rho)
        assert [nu for nu, _ in pairs] == [*range(1, n + 1), *range(-1, -n - 1, -1)]
        assert all(shifted == mu_shift(rho, nu) for nu, shifted in pairs)

    def test_rejects_non_dominant(self):
        with pytest.raises(NonDominantError):
            decompose_rho_tensor_E(w(0, 1))


class TestBundleLabel:
    def test_validation(self):
        with pytest.raises(ValueError):
            BundleLabel(-1, w(0, 0))
        with pytest.raises(NonDominantError):
            BundleLabel(0, w(0, 1))

    def test_parity_flag(self):
        assert BundleLabel(1, w(0, 0)).parity_warning
        assert not BundleLabel(2, w(0, 0)).parity_warning
        assert not BundleLabel(1, w(1, 0)).parity_warning

    def test_lambda_ab_shape(self):
        assert w(2, 1, 0).lambda_ab_shape() == (2, 1)
        assert w(1, 1).lambda_ab_shape() == (2, 0)
        assert w(0, 0).lambda_ab_shape() == (0, 0)
        assert w(3, 0).lambda_ab_shape() is None


class TestSpinorDecomposition:
    def test_n2(self):
        labels = spinor_decomposition(2)
        assert [(l.k, l.rho.entries) for l in labels] == [
            (0, (1, 1)),
            (1, (1, 0)),
            (2, (0, 0)),
        ]

    def test_count(self):
        assert len(spinor_decomposition(3)) == 4

    def test_constant_parity(self):
        for n in range(2, 6):
            parities = {(l.k + l.rho.total()) % 2 for l in spinor_decomposition(n)}
            assert parities == {n % 2}


class TestLambda2Decomposition:
    def test_n2(self):
        labels = lambda2_decomposition(2)
        assert {(l.k, l.rho.entries) for l in labels} == {
            (2, (0, 0)),
            (2, (1, 1)),
            (0, (2, 0)),
        }

    def test_n3(self):
        labels = lambda2_decomposition(3)
        assert {(l.k, l.rho.entries) for l in labels} == {
            (2, (0, 0, 0)),
            (2, (1, 1, 0)),
            (0, (2, 0, 0)),
        }

    def test_dimension_sum(self):
        from math import comb

        for n in range(2, 6):
            total = sum((l.k + 1) * weyl_dim(l.rho) for l in lambda2_decomposition(n))
            assert total == comb(4 * n, 2)


class TestParsing:
    def test_explicit(self):
        assert parse_weight("2,1,0") == w(2, 1, 0)
        assert parse_weight("1,0", n=3) == w(1, 0, 0)

    def test_shorthand(self):
        assert parse_weight("2^1 1^2 @ 4") == w(2, 1, 1, 0)
        assert parse_weight("2^2 @ 3") == w(2, 2, 0)
        assert parse_weight("1^(2) @ 5") == w(1, 1, 0, 0, 0)
        assert parse_weight("2^1 1^1", n=3) == w(2, 1, 0)

    def test_shorthand_rank_conflict(self):
        with pytest.raises(ValueError):
            parse_weight("2^1 @ 3", n=4)
        with pytest.raises(ValueError):
            parse_weight("1^4 @ 3")

    def test_canonical_output(self):
        assert str(parse_weight("2^1 1^1 @ 3")) == "2,1,0"

    @pytest.mark.parametrize(
        "text",
        [
            "1^(-3) @ 2",  # a negative count once read as (0,0)
            "2^-1 1 @ 3",  # once read as (1,0,0)
            "1_0,0",  # int() reads the underscore as a digit separator: (10,0)
            "\u0661,0",  # int() reads the Arabic-Indic one as 1: (1,0)
        ],
    )
    def test_malformed_text_is_rejected(self, text):
        with pytest.raises(ValueError, match="ASCII digits"):
            parse_weight(text, n=2 if "@" not in text else None)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            parse_weight("2^0 1 @ 3")

    def test_negative_entries_still_parse(self):
        assert parse_weight("-1,0").entries == (-1, 0)

    @given(dominant_weights)
    def test_round_trip(self, rho):
        assert parse_weight(str(rho)) == rho


def test_cache_dir_is_ignored(tmp_path):
    """A QKBW_CACHE_DIR file, however wrong or malformed, never reaches a result."""
    (tmp_path / "weyl_dims.txt").write_text("2;1,0;999\nnot a cache line\n", encoding="ascii")
    env = dict(os.environ, QKBW_CACHE_DIR=str(tmp_path), PYTHONPATH=str(SRC))
    script = (
        "import qkbw\n"
        "rho = qkbw.SpnWeight((1, 0))\n"
        "print(sum(qkbw.relative_dimension_weyl(rho, nu) for nu in (1, 2, -1, -2)))\n"
        "print(qkbw.casimir_eigenvalue(rho, 0))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["4", "4"]
