"""Eigenvalue lower bounds via exact LP over the pure-kappa identity span.

Writing a second-order operator as

    sum c_t B_t + c * kappa,        c_t >= 0,

proves the eigenvalue lower bound c * kappa, because each gradient square
B_t is a nonnegative operator on a compact manifold.  Subtracting rational
multiples of the pure-kappa identities from the operator's B-expansion
trades B-coefficients for kappa; the optimizer maximizes the resulting
bound (sign(kappa) * c) and returns the full certificate so the rewriting
is machine-checkable.  The LP is solved exactly through its dual, which has
one row per identity; complementary slackness then recovers the multipliers
from the tight targets.  When those do not fix them, an L1-smallest
tie-break picks them in three steps: none without identities, the
L1-smallest solution of the tight rows alone when it keeps every residual
nonnegative, and the L1-smallest point of the whole optimal face otherwise
(see lp_max_bound).  The certificate holds Fractions, and
BoundCertificate.verify checks it against the integer rows by
cross-multiplication.  When the span admits no rewriting at all, the result
is a NoCertificate instead.

What is kept.  The identities depend on the bundle (and hpn) alone, and the
operator enters the LP only as the dual objective and the values the
tie-break and the residuals read.  So the identity side of the LP,
_identity_side, is everything the LP reads but the operator: the dual's
constraint rows and kappa side (the right-hand side for kappa > 0) as ints
over the lcm Q of the identity denominators, the transpose A of the rows
over M = lcm(Q, 2n), M, and the multiplier ids.  Every built-in operator
row is over 2n in lowest terms, so its denominator divides M and one A
serves every operator; another operator scales A and M on its own call.
When the identities equal one of the pure-kappa sets of the operator
bundle's context, member by member in order (_Context.kept_set), and the
operator lives on that context's targets, the side is built once per
process and kept in the context, one per hpn (_Context.bound_sides); its
dual rows are a simplex._KeptRows, which keeps the simplex start that
phase 1 leaves for each sign, so a later bound on the same bundle, hpn and
sign, under any operator, runs phase 2 alone.  The context is looked up on
each call and never built here.  Every other input is checked and built on
its call, and nothing is kept for it.  Nothing is kept per operator or per
sign but that start, and no result is kept: each bound runs its own
phase 2, tie-break and verify.  The tie-break LPs start from a basis their
own rows hold, with no artificial or only a few, and keep the optimum that
start reaches only when it is provably their only one (_l1_smallest).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index, mul

from .identities import (
    InconsistencyError,
    MixedBundleError,
    OperatorSpec,
    _context,
    _kept_context,
    operator_coeffs,
    pure_kappa_identities,
)
from .rationals import format_rational, scaled
from .record import Record
from .simplex import (
    _ZERO,
    LPInfeasibleError,
    LPUnboundedError,
    _KeptRows,
    _mirror_start,
    _phase_one,
    _unique_optimum,
    simplex_maximize,
    solve_linear_system,
)
from .weights import BundleLabel, ParameterRangeError, SpnWeight, _check_ab, _check_rank

__all__ = [
    "ParameterRangeError",
    "BoundCertificate",
    "NoCertificate",
    "lp_max_bound",
    "bound_for",
    "closed_form_bound",
    "connection_laplacian_bound",
    "dirac_bound",
    "hpn_first_eigenvalue",
    "harmonic_classification",
    "KernelAnalysis",
    "kernel_analysis",
    "twistor_kernel_analysis",
    "TWISTOR_KERNEL",
]


def _normalize_sign(kappa_sign) -> int:
    """+1 or -1 from "+", "-" or an integer +-1 read through operator.index (so
    True is 1); a float, a Fraction or a Decimal is not a sign, even when it
    equals one."""
    if isinstance(kappa_sign, str):
        sign = {"+": 1, "-": -1}.get(kappa_sign)
    else:
        try:
            sign = index(kappa_sign)
        except TypeError:
            sign = None
    if sign in (1, -1):
        return sign
    raise ValueError(f"kappa_sign must be '+' or '-', got {kappa_sign!r}")


def _outcome_header(outcome):
    """The JSON header that a certificate and a NoCertificate share."""
    sign = "+" if outcome.kappa_sign > 0 else "-"
    return {**outcome.bundle.to_json_dict(), "operator": outcome.operator, "kappa_sign": sign}


class BoundCertificate(Record):
    """Multipliers and nonnegative residuals witnessing a bound c * kappa."""

    def __init__(
        self,
        bundle: BundleLabel,
        operator: str,
        kappa_sign: int,
        multipliers: tuple,  # of (identity_id, Fraction)
        residuals: tuple,  # of ((N, nu), Fraction)
        bound: Fraction,
        matched_closed_form: str = None,
    ):
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "kappa_sign", kappa_sign)
        object.__setattr__(self, "multipliers", multipliers)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "matched_closed_form", matched_closed_form)

    def verify(self, operator: OperatorSpec, identities) -> None:
        """Re-check the certificate exactly against the public operator and
        identity rows: its bundle and operator name are the operator row's,
        the multiplier ids are distinct and name identities on that bundle,
        the residuals lie on the targets of the operator and of those
        identities in order, and are nonnegative.  With the operator over D,
        the residuals over R, the multipliers over P and the identities over
        Q, op - residual = sum of multiplier * identity at each target, and
        bound = the kappa side, hold by integer cross-multiplication."""
        if self.bundle != operator.bundle or self.operator != operator.name:
            raise InconsistencyError("the certificate is labelled for another bundle or operator")
        ids = [i for i, _ in self.multipliers]
        if len(set(ids)) != len(ids):
            raise InconsistencyError(f"a multiplier id repeats in {ids}")
        by_id = dict(zip(_identity_ids(identities), identities))
        if not by_id.keys() >= set(ids):
            unknown = sorted(set(ids) - by_id.keys())
            raise InconsistencyError(f"multipliers name unknown identities {unknown}")
        used = [by_id[i] for i in ids]
        if any(ident.bundle != self.bundle for ident in used):
            raise InconsistencyError("a multiplier names an identity on another bundle")
        keys = tuple(key for key, _ in self.residuals)
        if any(row.targets != keys for row in (operator, *used)):
            raise InconsistencyError("residual targets differ from the operator's or an identity's")
        lams, res = [v for _, v in self.multipliers], [v for _, v in self.residuals]
        R = lcm(*(v.denominator for v in res))
        res_ints = scaled(res, R)
        for key, value, r in zip(keys, res, res_ints):
            if r < 0:
                raise InconsistencyError(f"negative residual at {key}: {value}")
        P, D = lcm(*(v.denominator for v in lams)), operator.denominator
        Q = lcm(*(ident.denominator for ident in used))
        weights = [lam * (Q // ident.denominator) for lam, ident in zip(scaled(lams, P), used)]
        columns = zip(*(ident.values for ident in used)) if used else [()] * len(keys)
        DR, PQ = D * R, P * Q
        for key, column, o, r in zip(keys, columns, operator.values, res_ints):
            # o / D - r / R == c / (P * Q), c the column's combination
            if sum(map(mul, weights, column)) * DR != (o * R - r * D) * PQ:
                raise InconsistencyError(f"reconstruction fails at {key}")
        kappa = sum(map(mul, weights, (ident.kappa for ident in used)))
        if kappa * self.bound.denominator != self.bound.numerator * PQ:
            raise InconsistencyError("bound does not match multiplier combination")

    def to_json_dict(self):
        return {
            **_outcome_header(self),
            "bound": format_rational(self.bound),
            "multipliers": {i: format_rational(v) for i, v in self.multipliers},
            "residuals": {
                f"{N:+d},{nu:+d}": format_rational(v) for (N, nu), v in self.residuals
            },
            "matched_closed_form": self.matched_closed_form,
        }

    def to_markdown(self) -> str:
        sign = "+" if self.kappa_sign > 0 else "-"
        lines = [
            f"Lower bound on {self.operator} over {self.bundle} (kappa {sign})",
            "",
            f"bound: ({self.bound}) * kappa",
            "",
            "| identity | multiplier |",
            "|----------|-----------|",
        ]
        for ident, v in self.multipliers:
            lines.append(f"| {ident} | {v} |")
        lines += ["", "| target | residual |", "|--------|----------|"]
        for (N, nu), v in self.residuals:
            lines.append(f"| B({N:+d},{nu:+d}) | {v} |")
        if self.matched_closed_form:
            lines += ["", f"matches closed form: {self.matched_closed_form}"]
        return "\n".join(lines)


class NoCertificate(Record):
    """No nonnegative rewriting of the operator exists over the identity span:
    a result, not an error.  bound is None, the one check a caller makes."""

    bound = None

    def __init__(self, bundle: BundleLabel, operator: str, kappa_sign: int, reason: str):
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "kappa_sign", kappa_sign)
        object.__setattr__(self, "reason", reason)

    def to_json_dict(self):
        return {**_outcome_header(self), "bound": None, "reason": self.reason}

    def to_markdown(self) -> str:
        sign = "+" if self.kappa_sign > 0 else "-"
        return (
            f"No lower bound on {self.operator} over {self.bundle} (kappa {sign})\n\n"
            f"bound: none\nreason: {self.reason}"
        )


def _identity_ids(identities):
    ids = []
    seen = {}
    for ident in identities:
        tag = ident.provenance
        count = seen.get(tag, 0)
        seen[tag] = count + 1
        ids.append(tag if count == 0 else f"{tag}#{count}")
    return ids


def _identity_side(identities, n, t):
    """(rows, kappa, Q, A, M, ids), the identity side of the bound LP (see the
    module docstring) on a bundle of rank n with t targets: the identity rows
    as a _KeptRows and the kappa side of each for kappa > 0, as ints over Q,
    the lcm of the identity denominators; the transpose A of the rows over
    M = lcm(Q, 2n), one row per target, each empty when there is no
    identity; and the multiplier ids."""
    Q = lcm(*(ident.denominator for ident in identities))
    scales = [Q // ident.denominator for ident in identities]
    rows = [list(map(s.__mul__, i.values)) if s > 1 else i.values for s, i in zip(scales, identities)]
    M = lcm(Q, 2 * n)
    f = M // Q
    A = [list(map(f.__mul__, column)) for column in zip(*rows)] if rows else [[] for _ in range(t)]
    kappa = [s * ident.kappa for s, ident in zip(scales, identities)]
    return _KeptRows(rows), kappa, Q, A, M, _identity_ids(identities)


def _bound_side(operator, identities):
    """The identity side for lp_max_bound: the one kept in the operator
    bundle's context for one of its pure-kappa sets, built there on the
    first call, or one built on this call for any other input, which raises
    MixedBundleError unless every identity lives on the operator's bundle
    and targets, and ValueError for one that is not pure kappa."""
    ctx = _kept_context(operator.bundle)
    hpn = ctx.kept_set(identities) if ctx is not None and operator.targets == ctx.keys else None
    if hpn is None:
        for ident in identities:
            if ident.bundle != operator.bundle or ident.targets != operator.targets:
                raise MixedBundleError("identities and operator must live on one bundle")
            if not ident.is_pure_kappa:
                raise ValueError(f"identity {ident.provenance} is not pure kappa")
        return _identity_side(identities, operator.bundle.n, len(operator.targets))
    side = ctx.bound_sides.get(hpn)
    if side is None:
        side = ctx.bound_sides[hpn] = _identity_side(identities, ctx.n, len(ctx.keys))
    return side


def _split_rows(rows, slack_rows):
    """Rows of [A | -A | slacks] for lambda = lambda+ - lambda-, with one slack
    column (a residual, entry 1) for each row index in slack_rows; scaling a
    column by a positive factor changes no Bland pivot and no lambda."""
    return [
        row + [-v for v in row] + [int(i == s) for s in slack_rows]
        for i, row in enumerate(rows)
    ]


def _l1_smallest(m, rows, rhs, slack_rows):
    """The L1-smallest lambda with rows . lambda = rhs on the rows outside
    slack_rows and <= rhs on those: exact simplex, Bland's rule.

    Phase 2 starts with no artificial where it can: with no slack row, from
    simplex._mirror_start, which drops a dependent row; else each slack row
    with rhs >= 0 starts on its slack column, and phase 1 puts artificials
    on the other rows alone.  Its optimum is kept when
    simplex._unique_optimum proves it the only one, as it is then the one
    simplex_maximize's two-phase run returns; otherwise that run decides.
    An LP with no feasible lambda raises LPInfeasibleError either way."""
    split = _split_rows(rows, slack_rows)
    cost = [-1] * (2 * m) + [0] * len(slack_rows)
    if slack_rows:
        slack_columns = {s: 2 * m + j for j, s in enumerate(slack_rows)}
        start = _phase_one(split, rhs, len(cost), slack_columns)
    else:
        start = _mirror_start(split, rhs, m)
    x = _unique_optimum(start, cost)
    if x is None:
        _, x = simplex_maximize(cost, split, rhs)
    # columns j and m + j are opposite, so at most one of them is basic
    return [x[j] or -x[m + j] for j in range(m)]


def _residuals(A, s, values, lambdas):
    """(den, lams, r): lambdas as ints lams over den, and the residuals
    op - A lambda as ints r over M * den, with op = s * values the operator
    over M."""
    den = lcm(*(v.denominator for v in lambdas))
    lams = scaled(lambdas, den)
    sd = s * den
    return den, lams, [sd * v - sum(map(mul, row, lams)) for v, row in zip(values, A)]


def lp_max_bound(operator: OperatorSpec, identities, kappa_sign) -> BoundCertificate | NoCertificate:
    """Best certificate bound over the span of the given pure-kappa identities.

    The primal LP is  max sign(kappa) * kappa.lambda  s.t.  A lambda <= op,
    lambda free, where A is the target-by-identity matrix and op - A lambda
    are the residuals.  It is solved through its dual, which has one row per
    identity:

        max -op.y  s.t.  A^T y = sign(kappa) * kappa,  y >= 0,

    and the primal optimum is minus the dual value.  Complementary slackness
    pins the residual to zero on the tight targets T, those with y_i != 0.
    The optimal face is every lambda with A_T lambda = op_T and the other
    (slack) residuals nonnegative.  When the tight rows fix lambda uniquely,
    that point is the certificate.  Otherwise the multipliers are tied, and
    the tie-break takes the L1-smallest lambda in three steps:

    1. with no identity (m = 0) lambda is empty, and no LP runs;
    2. else the L1-smallest solution of A_T lambda = op_T alone, an LP with
       |T| rows and 2m columns, is taken if every residual op - A lambda is
       nonnegative.  It then lies on the optimal face and is L1-smallest on
       a set that contains the face.  Its start needs no phase 1: each
       tight row in order pivots on its first nonzero lambda column, a row
       with none left is dropped as dependent, and a row whose value comes
       out negative takes the mirror column -A_j;
    3. else (a slack residual went negative) the L1-smallest lambda on the
       optimal face itself, an LP with one row per target.  A slack row
       with op_i >= 0 starts on its slack column, and phase 1 puts
       artificials on the tight rows and the other slack rows alone.

    So the multipliers equal those the optimal-face LP of step 3 picks on
    its own wherever the L1-smallest point of the optimal face is unique;
    elsewhere they are still a deterministic L1-smallest choice.  Each LP
    is an exact simplex with Bland's rule over the canonically ordered
    variables.  The optimum that Bland's phase 2 reaches from the start of
    step 2 or 3 is kept only when every nonbasic reduced cost there is
    negative: it is then the LP's only optimum, and so the vertex that
    simplex_maximize's two-phase run returns; otherwise that run decides.

    The dual reads the identity side of the module docstring, kept or built
    for this call, with the kappa side negated for kappa < 0.  Its objective
    is minus the operator's values over their own denominator D: a positive
    factor on the objective changes no Bland pivot and no y.  op, the
    operator over M, is formed only where a value is read.  Raises
    MixedBundleError unless every identity lives on the operator's bundle
    and targets, and ValueError for one that is not pure kappa.

    Returns a NoCertificate when no nonnegative rewriting exists: the dual
    LP is unbounded, or the dual and the primal are both infeasible.  Raises
    InconsistencyError only for a contradiction: an unbounded optimum (the
    dual is infeasible while the primal is feasible), primal and dual optima
    that differ, or a certificate that fails BoundCertificate.verify.
    """
    sign = _normalize_sign(kappa_sign)
    rows, kappa, Q, A, M, ids = _bound_side(operator, identities)
    values, D = operator.values, operator.denominator
    if M % D:
        f = D // gcd(M, D)
        A, M = [list(map(f.__mul__, row)) for row in A], M * f
    s = M // D
    if sign < 0:
        kappa = [-v for v in kappa]
    m, t = len(identities), len(values)
    no_rewriting = f"no nonnegative rewriting of {operator.name} exists over this identity span"

    try:
        value, y = simplex_maximize([-v for v in values], rows, kappa)
    except LPUnboundedError:
        return NoCertificate(operator.bundle, operator.name, sign, no_rewriting)
    except LPInfeasibleError as dual_exc:
        # The primal is unbounded or infeasible; a feasibility LP tells which.
        try:
            simplex_maximize([0] * (2 * m + t), _split_rows(A, range(t)), [s * v for v in values])
        except LPInfeasibleError:
            return NoCertificate(operator.bundle, operator.name, sign, no_rewriting)
        # the kept error's context must not hold the solver's tableau
        dual_exc.with_traceback(None)
        raise InconsistencyError(
            "unbounded bound optimum; identity generation is inconsistent"
        ) from LPUnboundedError("the dual LP is infeasible and the primal is feasible")

    lambdas, res = [], None
    if m:
        tight = [i for i in range(t) if y[i]]
        A_T, op_T = [A[i] for i in tight], [s * values[i] for i in tight]
        # fewer tight rows than identities cannot fix lambda: the solve would
        # return None, and it cannot raise, as the system is consistent
        lambdas = solve_linear_system(A_T, op_T)[0] if len(tight) >= m else None
        if lambdas is None:
            lambdas = _l1_smallest(m, A_T, op_T, ())
            res = _residuals(A, s, values, lambdas)
            if any(r < 0 for r in res[2]):
                op = [s * v for v in values]
                lambdas = _l1_smallest(m, A, op, [i for i in range(t) if not y[i]])
                res = None
    den, lams, residuals = res or _residuals(A, s, values, lambdas)
    residuals = [Fraction(r, M * den) if r else _ZERO for r in residuals]
    # the dual optimum is value / D, and the primal one gain / (M * den)
    gain = M // Q * sum(map(mul, lams, kappa))
    if gain * value.denominator != -value.numerator * den * s:
        raise InconsistencyError("primal and dual optima differ")
    cert = BoundCertificate(
        bundle=operator.bundle,
        operator=operator.name,
        kappa_sign=sign,
        multipliers=tuple(zip(ids, lambdas)),
        residuals=tuple(zip(operator.targets, residuals)),
        bound=Fraction(sign * gain, M * den),
    )
    cert.verify(operator, identities)
    return cert


def bound_for(operator_name: str, bundle: BundleLabel, kappa_sign, hpn: bool = False):
    """Rule-driven identity set, then lp_max_bound: a BoundCertificate, or a
    NoCertificate when no rewriting exists over the identity span.  The
    operator row and the identity set are the bundle's kept ones, so the
    LP reads the kept identity side (see the module docstring)."""
    operator = operator_coeffs(operator_name, bundle)
    return lp_max_bound(operator, pure_kappa_identities(bundle, hpn=hpn), kappa_sign)


def closed_form_bound(k: int, a: int, b: int, n: int, kappa_sign) -> Fraction:
    """Closed-form Laplace bound coefficient on S^k(H) (x) (2_b,1_{a-b}).

    Positive scalar curvature:
        k = 0:   (a-b)(2n-a-b+4) / (8n(n+2))
        k != 0:  (a-b+k)(2n-a-b+k+2) / (8n(n+2))
    Negative scalar curvature:
        a = b = 0:  -(k+2)(2n-k) / (8n(n+2))  for k >= 1, and 0 for k = 0
        a = b > 0:  -k(2n-2a-k+4)/(8n(n+2))      for k <= (2n-2a)/3
                    -(k+2)(2n-2a-k)/(8n(n+2))    above
        a > b >= 0: -(a-b+k)(2n-a-b-k+2)/(8n(n+2))   for k <= n-a
                    -(a-b+k+2)(2n-a-b-k)/(8n(n+2))   above

    Branch boundaries are inclusive on the left as stated; the cubic split
    point is compared over the rationals when (2n-2a)/3 is not an integer.
    The trivial bundle (k = a = b = 0) carries harmonic constants, so its
    bound is 0 for both signs.
    """
    sign = _normalize_sign(kappa_sign)
    k, a, b, n = index(k), index(a), index(b), index(n)
    _check_ab(a, b, n)
    if not 0 <= k <= 2 * n - a - b:
        raise ParameterRangeError(f"need 0 <= k <= 2n-a-b, got k={k}")
    _check_rank(n)
    denom = 8 * n * (n + 2)
    if sign > 0:
        if k == 0:
            return Fraction((a - b) * (2 * n - a - b + 4), denom)
        return Fraction((a - b + k) * (2 * n - a - b + k + 2), denom)
    if a == b == 0:
        if k == 0:
            return Fraction(0)
        return Fraction(-(k + 2) * (2 * n - k), denom)
    if a == b:
        if Fraction(k) <= Fraction(2 * n - 2 * a, 3):
            return Fraction(-k * (2 * n - 2 * a - k + 4), denom)
        return Fraction(-(k + 2) * (2 * n - 2 * a - k), denom)
    if k <= n - a:
        return Fraction(-(a - b + k) * (2 * n - a - b - k + 2), denom)
    return Fraction(-(a - b + k + 2) * (2 * n - a - b - k), denom)


def connection_laplacian_bound(k: int, a: int, n: int, kappa_sign) -> Fraction:
    """Closed-form bound coefficient for the connection Laplacian on
    S^k(H) (x) (1_a).

    Positive scalar curvature: a/(4n(n+2)) for k = 0, k/(4(n+2)) otherwise.
    Negative: -(2an+kn-a^2-ka+2a+2k)/(4n(n+2)) for k <= n-a, and
    -(-ka-a^2+2n+kn+2an)/(4n(n+2)) above.
    """
    sign = _normalize_sign(kappa_sign)
    k, a, n = index(k), index(a), index(n)
    if not 0 <= a <= n:
        raise ParameterRangeError(f"need 0 <= a <= n, got a={a}, n={n}")
    if not 0 <= k <= 2 * n - a:
        raise ParameterRangeError(f"need 0 <= k <= 2n-a, got k={k}")
    _check_rank(n)
    if sign > 0:
        if k == 0:
            return Fraction(a, 4 * n * (n + 2))
        return Fraction(k, 4 * (n + 2))
    denom = 4 * n * (n + 2)
    if k <= n - a:
        return Fraction(-(2 * a * n + k * n - a**2 - k * a + 2 * a + 2 * k), denom)
    return Fraction(-(-k * a - a**2 + 2 * n + k * n + 2 * a * n), denom)


def dirac_bound(k: int, n: int) -> Fraction:
    """Bound coefficient for the squared Dirac operator on the spinor summand
    S^k(H) (x) (1_{n-k}), positive scalar curvature.

    Equals the connection-Laplacian bound plus 1/4.
    """
    k, n = index(k), index(n)
    if not 0 <= k <= n:
        raise ParameterRangeError(f"need 0 <= k <= n, got k={k}")
    _check_rank(n)
    if k == 0:
        return Fraction(n + 3, 4 * (n + 2))
    return Fraction(n + k + 2, 4 * (n + 2))


def hpn_first_eigenvalue(k: int, a: int, b: int, n: int) -> Fraction:
    """First Laplace eigenvalue on the quaternionic projective space (with
    the scalar curvature normalized to 2n), stated for k >= 2:

        ( k(k+2n+2) + a(2n-a+2) + b(2n-b+4) ) / (4(n+2)).
    """
    k, a, b, n = index(k), index(a), index(b), index(n)
    if k < 2:
        raise ParameterRangeError(f"first-eigenvalue formula is stated for k >= 2, got k={k}")
    _check_ab(a, b, n)
    _check_rank(n)
    return Fraction(
        k * (k + 2 * n + 2) + a * (2 * n - a + 2) + b * (2 * n - b + 4), 4 * (n + 2)
    )


def harmonic_classification(n: int, kappa_sign):
    """All (k, a, b) whose Laplace bound coefficient is exactly zero.

    Positive scalar curvature: (0, a, a) only.  Negative: those plus the
    top-symmetric-power labels (2n-a-b, a, b).
    """
    sign = _normalize_sign(kappa_sign)
    _check_rank(n)
    out = {(0, a, a) for a in range(n + 1)}
    if sign < 0:
        for a in range(n + 1):
            for b in range(a + 1):
                out.add((2 * n - a - b, a, b))
    return sorted(out)


# Kernel set of the twistor-cohomology system on S^{k+1}(H) (x) E.
TWISTOR_KERNEL = ((1, 2), (1, -1), (-1, -1))


class KernelAnalysis(Record):
    """Solved norm ratios on the complement of an assumed kernel.

    solved_ratios maps each remaining target to the coefficient c with
    ||D phi||^2 = c * kappa * ||phi||^2 for sections killed by the kernel
    set.  A ratio that forces a squared norm negative proves the section
    space vanishes for that sign of the scalar curvature: the verdicts
    name the first such target as witness, computed from the ratios.
    """

    def __init__(
        self,
        bundle: BundleLabel,
        kernel_set: tuple,
        solved_ratios: tuple,  # of ((N, nu), Fraction); empty when undetermined
        rank_deficit: int,
    ):
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "kernel_set", kernel_set)
        object.__setattr__(self, "solved_ratios", solved_ratios)
        object.__setattr__(self, "rank_deficit", rank_deficit)

    @property
    def determined(self) -> bool:
        return self.rank_deficit == 0

    @property
    def verdicts(self) -> tuple:
        """(sign, verdict, witness-or-None) for kappa > 0, then kappa < 0."""
        first = {s: next((t for t, v in self.solved_ratios if s * v < 0), None) for s in (1, -1)}
        return tuple((s, "undetermined" if w is None else "vanishes", w) for s, w in first.items())

    def nabla_ratio(self) -> Fraction:
        """Expectation of the connection Laplacian implied by the base row."""
        return sum(v for _, v in self.solved_ratios)

    def to_json_dict(self):
        return {
            **self.bundle.to_json_dict(),
            "kernel": [f"{N:+d},{nu:+d}" for N, nu in self.kernel_set],
            "determined": self.determined,
            "rank_deficit": self.rank_deficit,
            "ratios": {
                f"{N:+d},{nu:+d}": format_rational(v)
                for (N, nu), v in self.solved_ratios
            },
            "nabla_ratio": format_rational(self.nabla_ratio())
            if self.determined
            else None,
            "verdicts": {
                ("+" if s > 0 else "-"): {
                    "verdict": verdict,
                    "witness": f"{w[0]:+d},{w[1]:+d}" if w else None,
                }
                for s, verdict, w in self.verdicts
            },
        }

    def to_csv(self) -> str:
        return "target,ratio\n" + "".join(
            f"{N:+d};{nu:+d},{format_rational(v)}\n" for (N, nu), v in self.solved_ratios
        )

    def to_markdown(self) -> str:
        lines = [f"Kernel analysis on {self.bundle}"]
        lines.append(
            "assumed kernel: "
            + ", ".join(f"D({N:+d},{nu:+d})" for N, nu in self.kernel_set)
        )
        if not self.determined:
            lines.append(f"system undetermined (rank deficit {self.rank_deficit})")
            return "\n".join(lines)
        lines += ["", "| target | ||D phi||^2 / ||phi||^2 |", "|--------|------------|"]
        for (N, nu), v in self.solved_ratios:
            lines.append(f"| D({N:+d},{nu:+d}) | ({v}) * kappa |")
        for s, verdict, w in self.verdicts:
            sign = "positive" if s > 0 else "negative"
            if w:
                lines.append(
                    f"kappa {sign}: {verdict} (witness D({w[0]:+d},{w[1]:+d}))"
                )
            else:
                lines.append(f"kappa {sign}: {verdict}")
        return "\n".join(lines)


def kernel_analysis(bundle: BundleLabel, kernel_set) -> KernelAnalysis:
    """Solve the pure-kappa identities on the complement of a kernel set.

    The system must be exactly determined (unique solution); a rank-deficient
    system yields ``undetermined`` verdicts with the deficit reported, and an
    inconsistent one raises (it would signal an identity-generation bug).
    """
    valid_keys = _context(bundle).keys
    kernel = tuple(kernel_set)
    for key in kernel:
        if key not in valid_keys:
            raise ValueError(f"kernel target {key} is not a valid gradient target")
    unknown = [i for i, key in enumerate(valid_keys) if key not in kernel]
    identities = pure_kappa_identities(bundle)
    # each identity times its denominator: values . ratios = kappa
    matrix = [[ident.values[i] for i in unknown] for ident in identities]
    rhs = [ident.kappa for ident in identities]
    try:
        solution, rank = solve_linear_system(matrix, rhs)
    except ArithmeticError as exc:
        raise InconsistencyError("kernel system is inconsistent") from exc
    if rank < len(unknown):
        return KernelAnalysis(bundle, kernel, (), len(unknown) - rank)
    ratios = tuple(zip((valid_keys[i] for i in unknown), solution))
    return KernelAnalysis(bundle, kernel, ratios, 0)


def twistor_kernel_analysis(k: int, n: int) -> KernelAnalysis:
    """The twistor-cohomology vanishing system: bundle S^{k+1}(H) (x) E with
    the three-gradient kernel set, for k >= 0."""
    if k < 0:
        raise ParameterRangeError(f"need k >= 0, got k={k}")
    _check_rank(n)
    rho = SpnWeight((1,) + (0,) * (n - 1))
    bundle = BundleLabel(k + 1, rho)
    return kernel_analysis(bundle, TWISTOR_KERNEL)
