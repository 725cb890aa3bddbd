"""Weitzenbock-type identities over the gradient basis of a bundle.

An identity is an exact statement

    sum over valid (N, nu) of  coeff * B_{N,nu}
        =  kappa_coeff * kappa  +  sum of symbolic curvature terms,

where B_{N,nu} is the square D*D of one gradient and kappa is the (constant)
scalar curvature.  Curvature terms are contractions of the trace-free
quartic curvature part; they stay symbolic until a simplification rule
eliminates or rewrites them.  An identity with no curvature terms left is
"pure kappa" and can feed the bound optimizer.

Every row is built from a private context of its bundle: the valid targets
with integer conformal weights w and W, D = dim V_rho, and, once a row reads
them, the shape and the integer moment sums S_q (c_q = S_q / D) or T_q
(c_hat_q = T_q / (2^q D)), all off its integer decomposition table.  Every
builder writes its B side as ints over one denominator and its kappa side as
one int over another; the context puts both over their lcm, and the identity
keeps that integer row in lowest terms, as an OperatorSpec holds one.  The Fraction views coeffs,
coeff_map() and kappa_coeff are built on each read.

The printed identities, the base row "sum" and bw1..bw6, are one table: per
id, the curvature terms before any rule, the builder, and where the identity
exists (bw3..bw5 need k != 0, bw6 a (2_b,1_(a-b)) shape).  printed_identity
builds one row before any rule.  printed_identities (what ``qkbw bw`` prints)
runs the rules on the table's curvature terms.  pure_kappa_identities (what
the bound LP reads) runs none: only bw1 and bw2 carry terms, which the rules
drop exactly under hpn or on a (1_a) shape, so it chooses its rows by that
and evaluates only them.

The identity sets and the operator rows depend on the bundle (and hpn) alone:
the sign of kappa enters only the bound LP's right-hand side.  So _contexts
keeps one context per bundle per process, as casimir._tables keeps the
summand tables, and that context keeps the pure-kappa sets without and with
hpn and each operator row once built; printed_identity, printed_identities
and bounds.kernel_analysis read it too.  It also keeps the bound LP's
identity side, one per hpn, as the bounds module docstring states.  The memo
is unbounded.
The theorem family and the two generating families build a context of their
own, sized to their q, and keep nothing.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import index

from .casimir import closed_form_c2_lambda_ab, decompose_bundle
from .rationals import csv_table, format_rational, scaled
from .record import Record
from .simplex import exact_rank
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
    "identity_bochner1",
    "identity_bochner2",
    "theorem_family",
    "apply_rule",
    "printed_identity",
    "printed_identities",
    "pure_kappa_identities",
    "operator_coeffs",
    "OPERATOR_NAMES",
    "independence_rank",
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
    """A true contradiction (signals a generator bug), never a bound with no
    certificate over the identity span: that is a bounds.NoCertificate."""


class CurvatureTerm(Record):
    """coefficient times the power-q curvature contraction (hatted or plain)."""

    def __init__(self, power: int, hatted: bool, coefficient: Fraction):
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "hatted", hatted)
        object.__setattr__(self, "coefficient", coefficient)

    @property
    def key(self):
        return (self.hatted, self.power)


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


def _lowest_terms(row, denominator):
    """The ints row / denominator in lowest terms; gcd rejects non-integers."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    g = gcd(*row, denominator)
    return (tuple(v // g for v in row) if g > 1 else tuple(row)), denominator // g


def _check_length(targets, values):
    if len(values) != len(targets):
        raise ValueError(f"{len(values)} values for {len(targets)} targets")


class _Row:
    """The Fraction views of an integer row values / denominator over targets."""

    __slots__ = ()

    @property
    def coeffs(self) -> tuple:
        """((N, nu), Fraction) per target, built on each read."""
        den = self.denominator
        return tuple(zip(self.targets, (Fraction(v, den) for v in self.values)))

    def coeff_map(self) -> dict:
        return dict(self.coeffs)


class BWIdentity(_Row, Record):
    """One exact identity over the valid gradient targets (N, nu) of a bundle in
    canonical order, sum values[i] B_{targets[i]} = kappa * (scalar curvature)
    + curvature terms, with the ints values and kappa over one denominator in
    lowest terms."""

    def __init__(self, bundle, targets, values, kappa, denominator, curvature_terms, provenance):
        targets = tuple(targets)
        row, denominator = _lowest_terms((*values, kappa), denominator)
        _check_length(targets, row[:-1])
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "values", row[:-1])
        object.__setattr__(self, "kappa", row[-1])
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "curvature_terms", curvature_terms)
        object.__setattr__(self, "provenance", provenance)

    @property
    def is_pure_kappa(self) -> bool:
        return not self.curvature_terms

    @property
    def kappa_coeff(self) -> Fraction:
        return Fraction(self.kappa, self.denominator)

    def integer_row(self, curvature_keys=()):
        """full_vector times the denominator, an int wherever that is integral."""
        terms = {t.key: self.denominator * t.coefficient for t in self.curvature_terms}
        extra = [terms.get(key, 0) for key in curvature_keys]
        return [*self.values, self.kappa, *(v.numerator if v.denominator == 1 else v for v in extra)]

    def full_vector(self, curvature_keys=()):
        """B-coefficients, then kappa, then the given curvature columns."""
        return [Fraction(v, self.denominator) for v in self.integer_row(curvature_keys)]

    def combine(self, factor, other: "BWIdentity", other_factor) -> "BWIdentity":
        """factor * self + other_factor * other, curvature terms included."""
        if other.bundle != self.bundle or other.targets != self.targets:
            raise MixedBundleError("identities must share one bundle and its targets")
        mine, theirs = Fraction(factor, self.denominator), Fraction(other_factor, other.denominator)
        den = lcm(mine.denominator, theirs.denominator)
        f, g = scaled((mine, theirs), den)
        values = [f * a + g * b for a, b in zip(self.values, other.values)]
        return BWIdentity(
            self.bundle, self.targets, values, f * self.kappa + g * other.kappa, den,
            _merge_terms(
                t.replace(coefficient=c * t.coefficient)
                for c, ident in ((factor, self), (other_factor, other))
                for t in ident.curvature_terms
            ),
            f"{factor}*{self.provenance}+{other_factor}*{other.provenance}",
        )

    def proportionality(self, other: "BWIdentity"):
        """The single rational factor f with self = f * other, or None.

        Compares B-coefficients and the kappa coefficient; curvature columns
        must match after scaling as well.
        """
        if self.targets != other.targets:
            return None
        keys = _curvature_keys([self, other])
        mine, theirs = self.full_vector(keys), other.full_vector(keys)
        pivot = next((i for i, b in enumerate(theirs) if b != 0), None)
        if pivot is None:
            return None
        factor = mine[pivot] / theirs[pivot]
        return factor if all(a == factor * b for a, b in zip(mine, theirs)) else None


def _curvature_keys(identities):
    keys = set()
    for ident in identities:
        keys.update(t.key for t in ident.curvature_terms)
    return sorted(keys)


class _Context:
    """The data of one bundle that its rows read.

    Holds D = dim V_rho and the keys of the valid targets with their
    conformal weights w and W as ints, read off the bundle's integer
    decomposition table.  The (2_b,1_{a-b}) shape, the integer sums S_q
    and T_q for q <= q_max (sliced from those the table's rows keep), the
    theorem family's alternating sums and the pure-kappa identity sets are
    computed when first read; operator_rows holds each operator row once
    built, and bound_sides the bound LP's identity side per hpn (see the
    bounds module docstring).  The context that _context keeps lives as long
    as the process; one built for a family lives for the call.
    """

    def __init__(self, bundle: BundleLabel, q_max=4):
        table = decompose_bundle(bundle)
        valid = table.valid_rows
        self.bundle, self.table = bundle, table
        self.n, self.k, self.D = bundle.n, bundle.k, table.dim
        self.keys = tuple((N, nu) for N, nu, _, _ in valid)
        self.w = [w for _, _, w, _ in valid]
        self.W = [W for _, _, _, W in valid]
        self.q_max = q_max
        self.operator_rows = {}
        self.bound_sides = {}

    @cached_property
    def pure_kappa(self):
        return _pure_kappa(self, False)

    @cached_property
    def pure_kappa_hpn(self):
        return _pure_kappa(self, True)

    @cached_property
    def shape(self):
        return self.bundle.rho.lambda_ab_shape()

    @cached_property
    def S(self):
        return self.table.c_sums(self.q_max)

    @cached_property
    def T(self):
        return self.table.c_hat_sums(self.q_max)

    @cached_property
    def alternating(self):
        """The theorem family's alternating sums, one int per target for each
        m = -1..q_max: entry m + 1 holds the A_m with

            sum_{p=0}^{m} (-1)^p c_hat_{m-p} w_hat^p = A_m / (D 2^m).

        With c_hat_j = T_j / (D 2^j) and x = -2 w_hat = 2n + 1 - 2w, A_m is
        sum_j T_j x^(m-j).  Horner's rule makes every m in one sweep from the
        empty sum: A_{-1} = 0 and A_m = x A_{m-1} + T_m.
        """
        xs = [2 * self.n + 1 - 2 * w for w in self.w]
        table = [[0] * len(xs)]
        for t in self.T:
            table.append([x * a + t for x, a in zip(xs, table[-1])])
        return table

    def kept_set(self, identities):
        """hpn when identities equal the built pure-kappa set without or with
        hpn, member by member in order (tuple ==, which short-cuts on
        identical members), the set without hpn first, so where the two sets
        are equal (on a (1_a) shape) it answers False; else None.  Builds no
        set."""
        built, identities = vars(self), tuple(identities)
        for hpn, name in ((False, "pure_kappa"), (True, "pure_kappa_hpn")):
            if built.get(name) == identities:
                return hpn
        return None

    def identity(self, provenance, values, denominator, kappa, kappa_den, terms=()) -> BWIdentity:
        """sum values / denominator * B = kappa / kappa_den * (scalar curvature),
        all ints, as one integer row over the valid targets."""
        den = lcm(denominator, kappa_den)
        values = [v * (den // denominator) for v in values]
        return BWIdentity(
            self.bundle, self.keys, values, kappa * (den // kappa_den), den, terms, provenance
        )


def identity_bochner1(bundle: BundleLabel, q: int) -> BWIdentity:
    """Even-moment family member (no Sp(1) weight in the coefficients).

    Coefficient of B_{N,nu} is the alternating translated-Casimir sum
    sum_{p=0}^{2q-1} (-1)^p c_hat_{2q-1-p} w_hat^p; the right side carries
    kappa times (c_hat_{2q+1} + (2n+1)/2 c_hat_{2q}) / (4n(n+2)) plus twice
    the hatted power-2q curvature contraction.
    """
    q = index(q)
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    return _bochner1(_Context(bundle, q_max=2 * q + 1), q)


def identity_bochner2(bundle: BundleLabel, q: int) -> BWIdentity:
    """Odd family member, weighted by the Sp(1) conformal weight W_N.

    Pure kappa by construction.  Vacuous when k = 0 (W_1 = 0 and the N = -1
    targets are absent), so that case is rejected.
    """
    q = index(q)
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    ctx = _Context(bundle, q_max=2 * q)
    _require(_k_nonzero, ctx)
    return _bochner2(ctx, q)


def _bochner1(ctx, q):
    # kappa side (c_hat_{2q+1} + (2n+1)/2 c_hat_{2q}) / (4n(n+2))
    n, m, D, T = ctx.n, 2 * q - 1, ctx.D, ctx.T
    kappa, kappa_den = T[2 * q + 1] + (2 * n + 1) * T[2 * q], (4 * n * (n + 2) * D) << 2 * q + 1
    terms = (CurvatureTerm(power=2 * q, hatted=True, coefficient=Fraction(2)),)
    return ctx.identity(f"bochner1({q})", ctx.alternating[m + 1], D << m, kappa, kappa_den, terms)


def _bochner2(ctx, q):
    # W (2 w_hat^(2q) - alternating) = 2 W (D x^(2q) - value) / (D 2^(2q)), x and
    # value as in _Context.alternating;
    # kappa side k(k+2) c_hat_{2q} / (4n(n+2))
    n, k, D = ctx.n, ctx.k, ctx.D
    values = [
        2 * W * (D * (2 * n + 1 - 2 * w) ** (2 * q) - a)
        for w, W, a in zip(ctx.w, ctx.W, ctx.alternating[2 * q])
    ]
    kappa_den = (4 * n * (n + 2) * D) << 2 * q
    return ctx.identity(f"bochner2({q})", values, D << 2 * q, k * (k + 2) * ctx.T[2 * q], kappa_den)


def _sum(ctx, terms):
    return ctx.identity("sum", [1] * len(ctx.keys), 1, 0, 1, terms)


def _bw1(ctx, terms):
    n = ctx.n
    return ctx.identity("bw1", ctx.w, 1, ctx.S[2], 8 * n * (n + 2) * ctx.D, terms)


def _bw2(ctx, terms):
    # sum (c_2/2 + ((w - 2n - 1) w + (n+1)(2n+1)) w) B = c_4 kappa / (8n(n+2))
    n, D, S = ctx.n, ctx.D, ctx.S
    lin = (n + 1) * (2 * n + 1)
    values = [S[2] + 2 * D * (((w - 2 * n - 1) * w + lin) * w) for w in ctx.w]
    return ctx.identity("bw2", values, 2 * D, S[4], 8 * n * (n + 2) * D, terms)


def _bw3(ctx, terms):
    n, k = ctx.n, ctx.k
    return ctx.identity("bw3", ctx.W, 1, k * (k + 2), 4 * (n + 2), terms)


def _bw4(ctx, terms):
    n, k = ctx.n, ctx.k
    values = [2 * W * (w - n - 1) * w for w, W in zip(ctx.w, ctx.W)]
    return ctx.identity("bw4", values, 1, k * (k + 2) * ctx.S[2], 4 * n * (n + 2) * ctx.D, terms)


def _bw5(ctx, terms):
    n, k, D, S = ctx.n, ctx.k, ctx.D, ctx.S
    values = [
        W * (D * 2 * w * (w - n - 1) * ((w - 2 * n - 1) * w + 2 * n + 1) + (n + w) * S[2])
        for w, W in zip(ctx.w, ctx.W)
    ]
    return ctx.identity("bw5", values, D, k * (k + 2) * S[4], 4 * n * (n + 2) * D, terms)


def _bw6(ctx, terms):
    # kappa side (-4 (2n^2 + 7n + 7) c_2 + c_2^2 + 4 c_4) / (8n(n+2))
    n, D, S = ctx.n, ctx.D, ctx.S
    values = [(w + 2) * (S[2] + D * (4 * w - 8 * n - 12) * w) for w in ctx.w]
    kappa = (4 * S[4] - 4 * (2 * n**2 + 7 * n + 7) * S[2]) * D + S[2] ** 2
    return ctx.identity("bw6", values, D, kappa, 8 * n * (n + 2) * D * D, terms)


def _anywhere(ctx):
    return None


def _k_nonzero(ctx):
    return None if ctx.k else "family is vacuous on k = 0 bundles"


def _on_shapes(ctx):
    return None if ctx.shape is not None else "bw6 exists only on the (2_b,1_(a-b)) bundles"


def _require(exists, ctx):
    """Raise InapplicableIdentityError where the existence rule fails on ctx's bundle."""
    reason = exists(ctx)
    if reason is not None:
        raise InapplicableIdentityError(reason)


def _plain(power):
    return (CurvatureTerm(power=power, hatted=False, coefficient=Fraction(1)),)


# The printed identities in print order: id -> (curvature terms before any
# rule, builder, existence rule).  An existence rule returns why the identity
# does not exist on a bundle, or None where it does.  The base row "sum" says
# that the gradient squares add up to the connection Laplacian; the operator
# side lives in OperatorSpec.  bw6 degenerates to 0 = 0 when a = b.
_PRINTED = {
    "sum": ((), _sum, _anywhere),
    "bw1": (_plain(1), _bw1, _anywhere),  # sum w B = c_2 kappa / (8n(n+2)) + R^1
    "bw2": (_plain(3), _bw2, _anywhere),  # cubic moment: c_4 kappa + R^3
    "bw3": ((), _bw3, _k_nonzero),  # sum W_N B = k(k+2) kappa / (4(n+2))
    "bw4": ((), _bw4, _k_nonzero),  # sum 2 W_N (w^2 - (n+1)w) B = k(k+2) c_2 kappa / (4n(n+2))
    "bw5": ((), _bw5, _k_nonzero),  # quartic mixed: k(k+2) c_4 kappa / (4n(n+2))
    "bw6": ((), _bw6, _on_shapes),  # scalar curvature only
}
_RULED = tuple(_PRINTED.values())[1:]
# The rows of _RULED with no curvature term before any rule: bw1 (R^1) and bw2
# (R^3) lose theirs only under rule C or on a (1_a) shape, where rule B makes
# R^3 a positive multiple (2n^2 + 7n + 7 - c_2/4) R^1 and rule A drops R^1.
_TERMLESS = tuple(row for row in _RULED if not row[0])


def printed_identity(bundle: BundleLabel, id: str) -> BWIdentity:
    """The printed identity ``id``, "sum" or "bw1" .. "bw6", before any rule.

    Raises InapplicableIdentityError where it does not exist (bw3..bw5 on
    k = 0, bw6 off the (2_b,1_(a-b)) shapes) and ValueError on an unknown id.
    """
    if id not in _PRINTED:
        raise ValueError(f"unknown printed identity {id!r}; expected one of {tuple(_PRINTED)}")
    terms, build, exists = _PRINTED[id]
    ctx = _context(bundle)
    _require(exists, ctx)
    return build(ctx, terms)


def theorem_family(bundle: BundleLabel):
    """The independent-identity family with the q-ranges of the main theorem.

    k != 0: even family q = 1..floor(N/4) plus odd family
    q = 0..floor(N/4 - 1/2); k = 0: even family q = 1..floor(N/2).
    Always floor(N/2) identities in total.  One context serves the family.
    """
    ctx = _Context(bundle)
    count = len(ctx.keys)
    q1_max = count // 2 if bundle.k == 0 else count // 4
    ctx.q_max = 2 * q1_max + 1  # set before any sum is read
    family = [_bochner1(ctx, q) for q in range(1, q1_max + 1)]
    if bundle.k != 0:
        family += [_bochner2(ctx, q) for q in range((count - 2) // 4 + 1)]
    return family


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


def _rule_terms(rule: Rule, terms, shape, n):
    """The curvature terms after one rule, or None when the shape does not admit it."""
    if rule is Rule.HPN:
        return ()
    if shape is None or (rule is Rule.PRIMITIVE_FORM and shape[1] != 0):
        return None
    if rule is Rule.CUBIC_REDUCTION:
        scalar = Fraction(2 * n**2 + 7 * n + 7) - closed_form_c2_lambda_ab(*shape, n) / 4
        return _merge_terms(
            CurvatureTerm(power=1, hatted=False, coefficient=t.coefficient * scalar)
            if t.key == (False, 3)
            else t
            for t in terms
        )
    return _merge_terms(t for t in terms if t.key != (False, 1))  # PRIMITIVE_FORM


def _simplified_terms(terms, rules, shape, n):
    """Apply every rule of ``rules`` that the shape admits, in the ruleset's
    C, B, A order."""
    for rule in rules:
        if terms:
            new_terms = _rule_terms(rule, terms, shape, n)
            terms = terms if new_terms is None else new_terms
    return terms


def apply_rule(identity: BWIdentity, rule: Rule) -> BWIdentity:
    """Apply one rule strictly; raises RuleShapeError when it does not apply."""
    bundle = identity.bundle
    terms = _rule_terms(rule, identity.curvature_terms, bundle.rho.lambda_ab_shape(), bundle.n)
    if terms is None:
        raise RuleShapeError(f"rule {rule.letter} does not apply to rho=({bundle.rho})")
    return identity.replace(curvature_terms=terms)


def printed_identities(bundle: BundleLabel, hpn: bool = False):
    """The base row, then the printed identities bw1..bw6 that exist on the
    bundle, the rules (B+A, plus C in hpn mode) applied to the table's terms
    before any coefficient is evaluated: what ``qkbw bw`` prints."""
    ctx = _context(bundle)
    rules = HPN_RULES if hpn else STANDARD_RULES
    return [
        build(ctx, _simplified_terms(terms, rules, ctx.shape, ctx.n))
        for terms, build, exists in _PRINTED.values()
        if exists(ctx) is None
    ]


# The context of each bundle built so far in this process (see the module docstring).
_contexts: dict = {}


def _context(bundle: BundleLabel) -> _Context:
    """The bundle's kept context; a build that raises keeps nothing."""
    ctx = _contexts.get(bundle)
    if ctx is None:
        ctx = _contexts[bundle] = _Context(bundle)
    return ctx


def _kept_context(bundle: BundleLabel):
    """The bundle's kept context, or None: nothing is built."""
    return _contexts.get(bundle)


def pure_kappa_identities(bundle: BundleLabel, hpn: bool = False):
    """The printed identities bw1..bw6 that survive the rules as pure-kappa rows.

    No rule runs: the rows are all of bw1..bw6 under hpn or on a (1_a) shape,
    else _TERMLESS, and only those that exist on the bundle are built.
    Trivial rows are dropped; a row with zero coefficients but nonzero kappa
    side is a contradiction and raises.

    The set does not depend on the sign of kappa, so it is built once per
    bundle and truth value of hpn per process and kept in the bundle's
    context; each call returns a new list of the kept rows.  A build that
    raises stores nothing.
    """
    ctx = _context(bundle)
    return list(ctx.pure_kappa_hpn if hpn else ctx.pure_kappa)


def _pure_kappa(ctx, hpn):
    out = []
    for _, build, exists in _RULED if hpn or (ctx.shape and ctx.shape[1] == 0) else _TERMLESS:
        if exists(ctx) is not None:
            continue
        ident = build(ctx, ())
        if not any(ident.values):
            if ident.kappa:
                raise InconsistencyError(
                    f"identity {ident.provenance} reduced to 0 = kappa-multiple"
                )
            continue
        out.append(ident)
    return tuple(out)


class OperatorSpec(_Row, Record):
    """Second-order operator as an exact combination of gradient squares,
    the int values[i] / denominator times B_{targets[i]}, in lowest terms.

    Every built-in operator is a complete B-expansion, so the operator side
    carries no kappa-multiple: constant_kappa is the class constant 0.
    """

    constant_kappa = Fraction(0)

    def __init__(self, name, bundle, targets, values, denominator):
        targets = tuple(targets)
        values, denominator = _lowest_terms(values, denominator)
        _check_length(targets, values)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "denominator", denominator)


# 2n times the coefficient of each built-in operator on B at a target with
# conformal weights w and W.
_OPERATORS = {
    "connection_laplacian": lambda n, w, W: 2 * n,  # 1
    "hodge_laplacian": lambda n, w, W: 2 * n + n * w + W,  # 1 + w/2 + W/(2n)
    "dirac_squared": lambda n, w, W: 2 * (n + n * w + W),  # 1 + w + W/n
    "R1_endomorphism": lambda n, w, W: 2 * (n * w + W),  # w + W/n
}
OPERATOR_NAMES = tuple(_OPERATORS)


def operator_coeffs(name: str, bundle: BundleLabel) -> OperatorSpec:
    """Coefficient vector of a named operator over the valid targets of the
    identities' context: one integer row over 2n, in lowest terms over 1, n
    or 2n.

    The row does not depend on the sign of kappa, so it is built once per
    (name, bundle) per process and kept in the bundle's context.  An unknown
    name raises before any context is read."""
    if name not in _OPERATORS:
        raise ValueError(f"unknown operator {name!r}; expected one of {OPERATOR_NAMES}")
    ctx = _context(bundle)
    row = ctx.operator_rows.get(name)
    if row is None:
        row = ctx.operator_rows[name] = _operator_row(name, ctx)
    return row


def _operator_row(name, ctx):
    n, value = ctx.n, _OPERATORS[name]
    values = [value(n, w, W) for w, W in zip(ctx.w, ctx.W)]
    return OperatorSpec(name, ctx.bundle, ctx.keys, values, 2 * n)


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
    return exact_rank([ident.integer_row(keys) for ident in identities])


def identities_to_json_dict(identities):
    if not identities:
        return {"targets": [], "identities": []}
    first = identities[0]
    return {
        **first.bundle.to_json_dict(),
        "targets": [f"{N:+d},{nu:+d}" for N, nu in first.targets],
        "identities": [
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
            for ident in identities
        ],
    }


def identities_to_csv(identities) -> str:
    """Matrix export: one row per identity, columns = targets, kappa, curvature;
    the header quotes each B(N,nu) as csv_table quotes a cell holding a comma."""
    if not identities:
        return "provenance\n"
    keys = _curvature_keys(identities)
    header = (
        ["provenance"]
        + [f"B({N:+d},{nu:+d})" for N, nu in identities[0].targets]
        + ["kappa"]
        + [("Rhat^" if h else "R^") + str(p) for (h, p) in keys]
    )
    return csv_table([
        dict(zip(header, [ident.provenance, *map(format_rational, ident.full_vector(keys))]))
        for ident in identities
    ])


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
