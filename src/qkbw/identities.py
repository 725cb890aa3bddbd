"""Weitzenbock-type identities over the gradient basis of a bundle.

An identity is an exact statement

    sum over valid (N, nu) of  coeff * B_{N,nu}
        =  kappa_coeff * kappa  +  sum of symbolic curvature terms,

where B_{N,nu} is the square D*D of one gradient and kappa is the (constant)
scalar curvature.  Curvature terms are contractions of the trace-free
quartic curvature part; they stay symbolic until a simplification rule
eliminates or rewrites them.  An identity with no curvature terms left is
"pure kappa" and can feed the bound optimizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction

from .casimir import (
    DecompositionTable,
    _moments,
    closed_form_c2_lambda_ab,
    closed_form_c4_lambda_ab,
    decompose_bundle,
    lambda_ab_bundle,
)
from .rationals import format_plain, format_rational
from .simplex import exact_rank, solve_linear_system
from .weights import BundleLabel

__all__ = [
    "InapplicableIdentityError",
    "RuleShapeError",
    "MixedBundleError",
    "InconsistencyError",
    "CurvatureTerm",
    "BWIdentity",
    "OperatorSpec",
    "Rule",
    "identity_sum",
    "identity_bochner1",
    "identity_bochner2",
    "identity_bw1",
    "identity_bw2",
    "identity_bw3",
    "identity_bw4",
    "identity_bw5",
    "identity_bw6",
    "theorem_family",
    "apply_rule",
    "simplify_curvature",
    "pure_kappa_identities",
    "operator_coeffs",
    "OPERATOR_NAMES",
    "independence_rank",
    "conformal_exponents",
    "decompose_over",
    "identities_to_json_dict",
    "identities_to_csv",
    "identity_to_latex",
]


class InapplicableIdentityError(ValueError):
    """The requested identity family is vacuous on this bundle (k = 0)."""


class RuleShapeError(ValueError):
    """A curvature rule was applied to a bundle whose weight shape does not admit it."""


class MixedBundleError(ValueError):
    """Identities over different bundles were combined."""


class InconsistencyError(RuntimeError):
    """The generated identities contradict each other (signals a generator bug)."""


@dataclass(frozen=True)
class CurvatureTerm:
    """coefficient times the power-q curvature contraction (hatted or plain)."""

    power: int
    hatted: bool
    coefficient: Fraction

    @property
    def key(self):
        return (self.hatted, self.power)

    def __str__(self) -> str:
        name = f"Rhat^{self.power}" if self.hatted else f"R^{self.power}"
        return f"{_fmt_coeff(self.coefficient)}{name}"


def _fmt_coeff(c: Fraction) -> str:
    if c == 1:
        return ""
    if c == -1:
        return "-"
    return f"{format_plain(c)}*"


def _merge_terms(terms):
    acc = {}
    for t in terms:
        acc[t.key] = acc.get(t.key, Fraction(0)) + t.coefficient
    merged = [
        CurvatureTerm(power=p, hatted=h, coefficient=c)
        for (h, p), c in sorted(acc.items())
        if c != 0
    ]
    return tuple(merged)


@dataclass(frozen=True)
class BWIdentity:
    """One exact identity over the valid gradient targets of a bundle."""

    bundle: BundleLabel
    coeffs: tuple  # of ((N, nu), Fraction), canonical target order, valid targets only
    kappa_coeff: Fraction
    curvature_terms: tuple
    provenance: str

    @property
    def is_pure_kappa(self) -> bool:
        return not self.curvature_terms

    @property
    def is_trivial(self) -> bool:
        return (
            all(c == 0 for _, c in self.coeffs)
            and self.kappa_coeff == 0
            and not self.curvature_terms
        )

    def coeff_map(self) -> dict:
        return dict(self.coeffs)

    def coeff_vector(self):
        return [c for _, c in self.coeffs]

    def full_vector(self, curvature_keys=()):
        """B-coefficients, then kappa, then the given curvature columns."""
        terms = {t.key: t.coefficient for t in self.curvature_terms}
        return self.coeff_vector() + [self.kappa_coeff] + [
            terms.get(key, Fraction(0)) for key in curvature_keys
        ]

    def scale(self, factor) -> "BWIdentity":
        factor = Fraction(factor)
        return BWIdentity(
            bundle=self.bundle,
            coeffs=tuple((t, c * factor) for t, c in self.coeffs),
            kappa_coeff=self.kappa_coeff * factor,
            curvature_terms=_merge_terms(
                replace(t, coefficient=t.coefficient * factor) for t in self.curvature_terms
            ),
            provenance=self.provenance,
        )

    def proportionality(self, other: "BWIdentity"):
        """The single rational factor f with self = f * other, or None.

        Compares B-coefficients and the kappa coefficient; curvature columns
        must match after scaling as well.
        """
        if [t for t, _ in self.coeffs] != [t for t, _ in other.coeffs]:
            return None
        mine = self.full_vector(_curvature_keys([self, other]))
        theirs = other.full_vector(_curvature_keys([self, other]))
        factor = None
        for a, b in zip(mine, theirs):
            if b == 0:
                if a != 0:
                    return None
                continue
            f = a / b
            if factor is None:
                factor = f
            elif f != factor:
                return None
        if factor is None or any(a != factor * b for a, b in zip(mine, theirs)):
            return None
        return factor


def _curvature_keys(identities):
    keys = set()
    for ident in identities:
        keys.update(t.key for t in ident.curvature_terms)
    return sorted(keys)


def _build(bundle, table, coeff_of, kappa, terms, provenance) -> BWIdentity:
    coeffs = tuple(((t.N, t.nu), Fraction(coeff_of(t))) for t in table.valid_targets)
    return BWIdentity(
        bundle=bundle,
        coeffs=coeffs,
        kappa_coeff=Fraction(kappa),
        curvature_terms=_merge_terms(terms),
        provenance=provenance,
    )


def identity_sum(bundle: BundleLabel, table: DecompositionTable = None) -> BWIdentity:
    """Base row: the sum of all gradient squares is the connection Laplacian.

    Encoded with kappa coefficient 0 and no curvature terms; the operator
    side (the Laplacian itself) lives in OperatorSpec, not here.
    """
    table = table or decompose_bundle(bundle)
    return _build(bundle, table, lambda t: 1, 0, (), "sum")


def identity_bochner1(bundle: BundleLabel, q: int, table=None) -> BWIdentity:
    """Even-moment family member (no Sp(1) weight in the coefficients).

    Coefficient of B_{N,nu} is the alternating translated-Casimir sum
    sum_{p=0}^{2q-1} (-1)^p c_hat_{2q-1-p} w_hat^p; the right side carries
    kappa times (c_hat_{2q+1} + (2n+1)/2 c_hat_{2q}) / (4n(n+2)) plus twice
    the hatted power-2q curvature contraction.
    """
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    table = table or decompose_bundle(bundle)
    rho, n = bundle.rho, bundle.n
    _, ch = _moments(rho, 2 * q + 1)

    def coeff(t):
        return sum((-1) ** p * ch[2 * q - 1 - p] * t.w_hat**p for p in range(2 * q))

    kappa = (ch[2 * q + 1] + Fraction(2 * n + 1, 2) * ch[2 * q]) / (4 * n * (n + 2))
    terms = (CurvatureTerm(power=2 * q, hatted=True, coefficient=Fraction(2)),)
    return _build(bundle, table, coeff, kappa, terms, f"bochner1({q})")


def identity_bochner2(bundle: BundleLabel, q: int, table=None) -> BWIdentity:
    """Odd family member, weighted by the Sp(1) conformal weight W_N.

    Pure kappa by construction.  Vacuous when k = 0 (W_1 = 0 and the N = -1
    targets are absent), so that case is rejected.
    """
    if bundle.k == 0:
        raise InapplicableIdentityError("family is vacuous on k = 0 bundles")
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    table = table or decompose_bundle(bundle)
    rho, n, k = bundle.rho, bundle.n, bundle.k
    _, ch = _moments(rho, 2 * q)

    def coeff(t):
        alternating = sum((-1) ** p * ch[2 * q - 1 - p] * t.w_hat**p for p in range(2 * q))
        return t.W * (2 * t.w_hat ** (2 * q) - alternating)

    kappa = Fraction(k * (k + 2)) * ch[2 * q] / (4 * n * (n + 2))
    return _build(bundle, table, coeff, kappa, (), f"bochner2({q})")


def identity_bw1(bundle: BundleLabel, table=None) -> BWIdentity:
    """First-moment identity: sum w B = c_2 kappa / (8n(n+2)) + R^1."""
    table = table or decompose_bundle(bundle)
    n, rho = bundle.n, bundle.rho
    c2 = _c2(rho)
    kappa = c2 / (8 * n * (n + 2))
    terms = (CurvatureTerm(power=1, hatted=False, coefficient=Fraction(1)),)
    return _build(bundle, table, lambda t: t.w, kappa, terms, "bw1")


def identity_bw2(bundle: BundleLabel, table=None) -> BWIdentity:
    """Cubic-moment identity; right side carries c_4 and the power-3 contraction."""
    table = table or decompose_bundle(bundle)
    n, rho = bundle.n, bundle.rho
    c2 = _c2(rho)
    c4 = _c4(rho)

    def coeff(t):
        w = t.w
        return c2 / 2 + (n + 1) * (2 * n + 1) * w - (2 * n + 1) * w**2 + w**3

    kappa = c4 / (8 * n * (n + 2))
    terms = (CurvatureTerm(power=3, hatted=False, coefficient=Fraction(1)),)
    return _build(bundle, table, coeff, kappa, terms, "bw2")


def identity_bw3(bundle: BundleLabel, table=None) -> BWIdentity:
    """Sp(1)-weight identity: sum W_N B = k(k+2) kappa / (4(n+2))."""
    if bundle.k == 0:
        raise InapplicableIdentityError("family is vacuous on k = 0 bundles")
    table = table or decompose_bundle(bundle)
    n, k = bundle.n, bundle.k
    kappa = Fraction(k * (k + 2), 4 * (n + 2))
    return _build(bundle, table, lambda t: t.W, kappa, (), "bw3")


def identity_bw4(bundle: BundleLabel, table=None) -> BWIdentity:
    """Mixed identity: sum 2 W_N (w^2 - (n+1)w) B = k(k+2) c_2 kappa / (4n(n+2))."""
    if bundle.k == 0:
        raise InapplicableIdentityError("family is vacuous on k = 0 bundles")
    table = table or decompose_bundle(bundle)
    n, k, rho = bundle.n, bundle.k, bundle.rho
    c2 = _c2(rho)
    kappa = Fraction(k * (k + 2)) * c2 / (4 * n * (n + 2))
    return _build(
        bundle, table, lambda t: 2 * t.W * (t.w**2 - (n + 1) * t.w), kappa, (), "bw4"
    )


def identity_bw5(bundle: BundleLabel, table=None) -> BWIdentity:
    """Quartic mixed identity with right side k(k+2) c_4 kappa / (4n(n+2))."""
    if bundle.k == 0:
        raise InapplicableIdentityError("family is vacuous on k = 0 bundles")
    table = table or decompose_bundle(bundle)
    n, k, rho = bundle.n, bundle.k, bundle.rho
    c2 = _c2(rho)
    c4 = _c4(rho)

    def coeff(t):
        w = t.w
        return t.W * (
            2 * w * (w - n - 1) * (w**2 - (2 * n + 1) * w + 2 * n + 1) + (n + w) * c2
        )

    kappa = Fraction(k * (k + 2)) * c4 / (4 * n * (n + 2))
    return _build(bundle, table, coeff, kappa, (), "bw5")


def identity_bw6(a: int, b: int, k: int, n: int, table=None) -> BWIdentity:
    """Scalar-curvature-only identity on the (2_b, 1_{a-b}) bundles.

    Degenerates to 0 = 0 when a = b (every coefficient and the kappa side
    vanish); callers drop it then.
    """
    bundle = lambda_ab_bundle(k, a, b, n)
    table = table or decompose_bundle(bundle)
    c2 = closed_form_c2_lambda_ab(a, b, n)
    c4 = closed_form_c4_lambda_ab(a, b, n)

    def coeff(t):
        w = t.w
        return (w + 2) * (c2 + 4 * w**2 - 8 * n * w - 12 * w)

    kappa = (-4 * (2 * n**2 + 7 * n + 7) * c2 + c2**2 + 4 * c4) / (8 * n * (n + 2))
    return _build(bundle, table, coeff, kappa, (), "bw6")


def _c2(rho):
    shape = rho.lambda_ab_shape()
    if shape is not None:
        return closed_form_c2_lambda_ab(shape[0], shape[1], rho.n)
    from .casimir import casimir_eigenvalue

    return casimir_eigenvalue(rho, 2)


def _c4(rho):
    shape = rho.lambda_ab_shape()
    if shape is not None:
        return closed_form_c4_lambda_ab(shape[0], shape[1], rho.n)
    from .casimir import casimir_eigenvalue

    return casimir_eigenvalue(rho, 4)


def theorem_family(bundle: BundleLabel):
    """The independent-identity family with the q-ranges of the main theorem.

    k != 0: even family q = 1..floor(N/4) plus odd family
    q = 0..floor(N/4 - 1/2); k = 0: even family q = 1..floor(N/2).
    Always floor(N/2) identities in total.
    """
    table = decompose_bundle(bundle)
    count = table.summand_count
    out = []
    if bundle.k != 0:
        for q in range(1, count // 4 + 1):
            out.append(identity_bochner1(bundle, q, table))
        q2_max = (count - 2) // 4  # floor(N/4 - 1/2)
        for q in range(0, q2_max + 1):
            out.append(identity_bochner2(bundle, q, table))
    else:
        for q in range(1, count // 2 + 1):
            out.append(identity_bochner1(bundle, q, table))
    return out


class Rule(enum.Enum):
    """Curvature simplification rules, keyed by what they do."""

    PRIMITIVE_FORM = "primitive-form"  # plain R^1 vanishes on (1_a) bundles
    CUBIC_REDUCTION = "cubic-reduction"  # plain R^3 = scalar * R^1 on (2_b,1_{a-b})
    HPN = "hpn"  # the quartic curvature part is zero, all contractions drop

    @property
    def letter(self) -> str:
        return {"primitive-form": "A", "cubic-reduction": "B", "hpn": "C"}[self.value]


STANDARD_RULES = (Rule.CUBIC_REDUCTION, Rule.PRIMITIVE_FORM)
HPN_RULES = (Rule.HPN,) + STANDARD_RULES


def _rule_applicable(rule: Rule, bundle: BundleLabel) -> bool:
    shape = bundle.rho.lambda_ab_shape()
    if rule is Rule.HPN:
        return True
    if rule is Rule.CUBIC_REDUCTION:
        return shape is not None
    if rule is Rule.PRIMITIVE_FORM:
        return shape is not None and shape[1] == 0
    raise ValueError(rule)


def apply_rule(identity: BWIdentity, rule: Rule) -> BWIdentity:
    """Apply one rule strictly; raises RuleShapeError when it does not apply."""
    bundle = identity.bundle
    if not _rule_applicable(rule, bundle):
        raise RuleShapeError(f"rule {rule.letter} does not apply to rho=({bundle.rho})")
    terms = identity.curvature_terms
    if rule is Rule.HPN:
        new_terms = ()
    elif rule is Rule.CUBIC_REDUCTION:
        a, b = bundle.rho.lambda_ab_shape()
        n = bundle.n
        scalar = (
            Fraction(2 * n**2 + 7 * n + 7)
            - closed_form_c2_lambda_ab(a, b, n) / 4
        )
        new_terms = _merge_terms(
            CurvatureTerm(power=1, hatted=False, coefficient=t.coefficient * scalar)
            if (not t.hatted and t.power == 3)
            else t
            for t in terms
        )
    else:  # PRIMITIVE_FORM
        new_terms = _merge_terms(
            t for t in terms if not (not t.hatted and t.power == 1)
        )
    return BWIdentity(
        bundle=bundle,
        coeffs=identity.coeffs,
        kappa_coeff=identity.kappa_coeff,
        curvature_terms=new_terms,
        provenance=identity.provenance,
    )


def simplify_curvature(identity: BWIdentity, rules) -> BWIdentity:
    """Apply every applicable rule from ``rules`` (C, then B, then A order).

    Rules whose shape precondition fails on this bundle are skipped, so a
    fixed ruleset can be applied uniformly across a sweep.
    """
    order = [Rule.HPN, Rule.CUBIC_REDUCTION, Rule.PRIMITIVE_FORM]
    for rule in order:
        if rule in rules and _rule_applicable(rule, identity.bundle):
            identity = apply_rule(identity, rule)
    return identity


def pure_kappa_identities(bundle: BundleLabel, hpn: bool = False, table=None):
    """Rule-driven inventory of identities that survive as pure-kappa rows.

    Candidates are the six printed identities (the Sp(1)-weighted ones only
    when k != 0, the scalar-only one only on (2_b,1_{a-b}) shapes); the
    active ruleset is B+A, plus C in hpn mode.  Trivial rows are dropped; a
    row with zero coefficients but nonzero kappa side is a contradiction and
    raises.
    """
    table = table or decompose_bundle(bundle)
    shape = bundle.rho.lambda_ab_shape()
    candidates = [identity_bw1(bundle, table), identity_bw2(bundle, table)]
    if bundle.k != 0:
        candidates += [
            identity_bw3(bundle, table),
            identity_bw4(bundle, table),
            identity_bw5(bundle, table),
        ]
    if shape is not None:
        candidates.append(identity_bw6(shape[0], shape[1], bundle.k, bundle.n, table))
    rules = HPN_RULES if hpn else STANDARD_RULES
    out = []
    for cand in candidates:
        simplified = simplify_curvature(cand, rules)
        if not simplified.is_pure_kappa:
            continue
        if all(c == 0 for _, c in simplified.coeffs):
            if simplified.kappa_coeff != 0:
                raise InconsistencyError(
                    f"identity {simplified.provenance} reduced to 0 = kappa-multiple"
                )
            continue
        out.append(simplified)
    return out


@dataclass(frozen=True)
class OperatorSpec:
    """Second-order operator as an exact combination of gradient squares.

    constant_kappa is an additive kappa-multiple on the operator side; the
    four built-ins are complete B-expansions, so it is zero for them.
    """

    name: str
    bundle: BundleLabel
    coeffs: tuple  # of ((N, nu), Fraction)
    constant_kappa: Fraction

    def coeff_map(self) -> dict:
        return dict(self.coeffs)


OPERATOR_NAMES = (
    "connection_laplacian",
    "hodge_laplacian",
    "dirac_squared",
    "R1_endomorphism",
)


def operator_coeffs(name: str, bundle: BundleLabel, table=None) -> OperatorSpec:
    """Coefficient vector of a named operator over the valid targets.

    connection_laplacian: 1
    hodge_laplacian:      1 + w/2 + W/(2n)
    dirac_squared:        1 + w + W/n
    R1_endomorphism:      w + W/n
    """
    n = bundle.n
    table = table or decompose_bundle(bundle)
    formulas = {
        "connection_laplacian": lambda t: Fraction(1),
        "hodge_laplacian": lambda t: 1 + t.w / 2 + t.W / (2 * n),
        "dirac_squared": lambda t: 1 + t.w + t.W / n,
        "R1_endomorphism": lambda t: t.w + t.W / n,
    }
    if name not in formulas:
        raise ValueError(f"unknown operator {name!r}; expected one of {OPERATOR_NAMES}")
    coeff = formulas[name]
    return OperatorSpec(
        name=name,
        bundle=bundle,
        coeffs=tuple(((t.N, t.nu), coeff(t)) for t in table.valid_targets),
        constant_kappa=Fraction(0),
    )


def independence_rank(identities) -> int:
    """Rank over Q of the identity rows; kappa and curvature contractions
    count as extra coordinates."""
    if not identities:
        return 0
    first = identities[0].bundle
    for ident in identities:
        if ident.bundle != first:
            raise MixedBundleError("identities must share one bundle")
    keys = _curvature_keys(identities)
    rows = [ident.full_vector(keys) for ident in identities]
    return exact_rank(rows)


def coefficient_rank(identities) -> int:
    """Rank of the B-coefficient parts alone (kappa and curvature dropped)."""
    if not identities:
        return 0
    return exact_rank([ident.coeff_vector() for ident in identities])


def conformal_exponents(bundle: BundleLabel, target):
    """Conformal-covariance exponent pair of one gradient; the two entries
    always sum to -1."""
    from .casimir import conformal_weight, sp1_conformal_weight

    N, nu = (target.N, target.nu) if hasattr(target, "N") else target
    w = conformal_weight(bundle.rho, nu)
    W = sp1_conformal_weight(bundle.k, N)
    inner = w / 2 + W / (2 * bundle.n)
    return (-inner - 1, inner)


def decompose_over(identity: BWIdentity, basis):
    """Exact coefficients expressing ``identity`` in terms of ``basis`` rows.

    Solves over the full columns (B-coefficients, kappa, curvature).
    Returns the coefficient list, or None when the identity is not in the
    span or the representation is not unique.
    """
    keys = _curvature_keys([identity, *basis])
    columns = [b.full_vector(keys) for b in basis]
    target = identity.full_vector(keys)
    matrix = [[col[i] for col in columns] for i in range(len(target))]
    try:
        solution, rank = solve_linear_system(matrix, target)
    except ArithmeticError:
        return None
    return solution


def identities_to_json_dict(identities):
    if not identities:
        return {"targets": [], "identities": []}
    first = identities[0]
    targets = [f"{N:+d},{nu:+d}" for (N, nu), _ in first.coeffs]
    out = {
        "n": first.bundle.n,
        "k": first.bundle.k,
        "rho": str(first.bundle.rho),
        "targets": targets,
        "identities": [],
    }
    for ident in identities:
        out["identities"].append(
            {
                "provenance": ident.provenance,
                "coefficients": [format_rational(c) for _, c in ident.coeffs],
                "kappa": format_rational(ident.kappa_coeff),
                "curvature": [
                    {
                        "hatted": t.hatted,
                        "power": t.power,
                        "coefficient": format_rational(t.coefficient),
                    }
                    for t in ident.curvature_terms
                ],
            }
        )
    return out


def identities_to_csv(identities) -> str:
    """Matrix export: one row per identity, columns = targets, kappa, curvature."""
    if not identities:
        return "provenance\n"
    keys = _curvature_keys(identities)
    header = (
        ["provenance"]
        + [f"B({N:+d},{nu:+d})" for (N, nu), _ in identities[0].coeffs]
        + ["kappa"]
        + [("Rhat^" if h else "R^") + str(p) for (h, p) in keys]
    )
    lines = [",".join(header)]
    for ident in identities:
        row = [ident.provenance] + [format_rational(v) for v in ident.full_vector(keys)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def identity_to_latex(identity: BWIdentity) -> str:
    """Typeset one identity in the conventional notation for visual checking."""
    parts = []
    for (N, nu), c in identity.coeffs:
        if c == 0:
            continue
        frac = _latex_frac(c)
        parts.append(f"{frac} B_{{{N:+d},{nu:+d}}}")
    lhs = " + ".join(parts).replace("+ -", "- ") if parts else "0"
    rhs_terms = []
    if identity.kappa_coeff != 0:
        rhs_terms.append(f"{_latex_frac(identity.kappa_coeff)} \\kappa")
    for t in identity.curvature_terms:
        symbol = (
            f"\\hat{{\\mathfrak{{R}}}}^{{{t.power}}}"
            if t.hatted
            else f"\\mathfrak{{R}}^{{{t.power}}}"
        )
        rhs_terms.append(f"{_latex_frac(t.coefficient)} {symbol}")
    rhs = " + ".join(rhs_terms).replace("+ -", "- ") if rhs_terms else "0"
    return f"{lhs} = {rhs}"


def _latex_frac(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return f"{sign}\\frac{{{abs(x.numerator)}}}{{{x.denominator}}}"
