"""Conformal weights, relative dimensions, and Casimir eigenvalues for Sp(n).

Each summand V_{rho+mu_nu} of V_rho (x) E carries a conformal weight

    w_i  = -(rho^i - i + 1)          (nu = i > 0)
    w_-i = rho^i - i + 2n + 1        (nu = -i < 0)

and a translated weight w_hat = w - (n + 1/2).  Casimir eigenvalues are
moments of the conformal weights against the relative dimensions
dim V_{rho+mu_nu} / dim V_rho:

    c_q     = sum_nu w_nu^q     * reldim(nu)
    c_hat_q = sum_nu w_hat_nu^q * reldim(nu)

One integer kernel computes every moment.  It takes integer rows (w_nu,
d_nu) with reldim(nu) = d_nu / D and returns the integer sums

    S_q = sum_nu w_nu^q * d_nu,                  c_q     = S_q / D,
    T_q = sum_nu (2 w_nu - 2n - 1)^q * d_nu,     c_hat_q = T_q / (2^q D).

Its rows are a weight's summand table (D = dim V_rho, d_nu = dim
V_{rho+mu_nu} or 0 when not dominant; w_nu and dominance are read off the
entries of rho, so only dominant shifts reach the Weyl oracle).  The table
depends on rho alone: k, the operator, the curvature sign and hpn enter
later, through the Sp(1) weights W_N and the identity rows.  So _summands
computes it once per rho per process and keeps it in _tables, keyed by
rho.entries; only dominant rho are stored, and like weights._dims the memo
is unbounded.  Every moment, eigenvalue and decomposition on rho reads that
one table, and the table's rows keep their sums S_0..S_Q and T_0..T_Q,
Q = max(DEFAULT_Q_CAP, 2n + 1), each computed on the first read (_sums), so
that every reader of the weight, whatever its k, slices one computation;
a higher q is computed and not kept.  The identities and the recursion
check read S_q, T_q and D as they are; only casimir_eigenvalue, casimir_hat
and casimir_report make Fractions.  A bundle's DecompositionTable is that
integer table, and its JSON, markdown and CSV render straight from the
rows; a table built from other rows computes the sums of its own.  The
formula of w_nu lives in _weight only, and the Sp(1) shifts N with their
weights W_N in _sp1_shifts only.

Relative dimensions come from two routes: the Weyl dimension oracle (the
source of truth, which tests each shifted weight's own dominance) and a
product formula over translated weights, which reads only the entries of rho
(with the table's dominance rule), so it stays a cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import index

from .rationals import csv_table, format_rational
from .record import Record
from .weights import BundleLabel, ParameterRangeError, SpnWeight, _check_ab, _check_k, _check_rank
from .weights import _check_shift, decompose_rho_tensor_E, lambda_ab_weight, mu_shift, weyl_dim

__all__ = [
    "conformal_weight",
    "sp1_conformal_weight",
    "relative_dimension_weyl",
    "relative_dimension_product",
    "casimir_eigenvalue",
    "casimir_hat",
    "closed_form_c2_lambda_ab",
    "closed_form_c4_lambda_ab",
    "table1_row",
    "verify_recursion",
    "CasimirReport",
    "casimir_report",
    "DecompositionTable",
    "decompose_bundle",
    "lambda_ab_bundle",
]

# Fixed ceiling on casimir_report's q_max for every rank n (not tied to c_{2n}).
DEFAULT_Q_CAP = 12


def conformal_weight(rho: SpnWeight, nu: int) -> Fraction:
    """Integer-valued conformal weight attached to the summand rho + mu_nu.

    Defined for every shift index, including those whose target is
    non-dominant.
    """
    rho.require_dominant()
    _check_shift(rho.n, nu)
    return Fraction(_weight(rho, nu))


def _weight(rho: SpnWeight, nu: int) -> int:
    """The conformal weight w_nu as an int; nu must be a valid shift index."""
    i = abs(nu)
    if nu > 0:
        return -(rho.entries[i - 1] - i + 1)
    return rho.entries[i - 1] - i + 2 * rho.n + 1


def _sp1_shifts(k: int) -> tuple:
    """The Sp(1) shifts with their conformal weights, in canonical order:
    (N, W_N) = (1, -k), (-1, k + 2)."""
    return (1, -k), (-1, k + 2)


def sp1_conformal_weight(k: int, N: int) -> Fraction:
    """Sp(1) conformal weight W_N of the summand k+N (see _sp1_shifts)."""
    k, N = index(k), index(N)
    _check_k(k)
    W = dict(_sp1_shifts(k)).get(N)
    if W is None:
        raise ValueError(f"N must be +1 or -1, got {N}")
    return Fraction(W)


def _dominant_shifts(rho: SpnWeight) -> list:
    """The shift indices nu with rho + mu_nu dominant, in canonical order, read
    off e = rho.entries + (0,): rho + mu_i is dominant iff i = 1 or
    e_{i-1} > e_i, and rho - mu_i iff e_i > e_{i+1}.  rho must be dominant."""
    e = rho.entries + (0,)
    return [1] + [i + 1 for i in range(1, rho.n) if e[i - 1] > e[i]] + [
        -i - 1 for i in range(rho.n) if e[i] > e[i + 1]
    ]


def relative_dimension_weyl(rho: SpnWeight, nu: int) -> Fraction:
    """dim V_{rho+mu_nu} / dim V_rho via the Weyl oracle; 0 if rho + mu_nu is
    not dominant.  Raises NonDominantError for a non-dominant rho."""
    rho.require_dominant()
    shifted = mu_shift(rho, nu)
    if not shifted.is_dominant:
        return Fraction(0)
    return Fraction(weyl_dim(shifted), weyl_dim(rho))


def relative_dimension_product(rho: SpnWeight, nu: int) -> Fraction:
    """Relative dimension via the translated-weight product formula.

    On the odd integers x_nu = 2 w_hat_nu = 2 w_nu - 2n - 1,

        reldim(nu) = -(x_nu - (-1)^N) *
                     prod over dominant nu' != nu of
                         (x_nu + x_nu') / (x_nu - x_nu'),

    where N is the number of dominant summands of V_rho (x) E.  The product
    is one integer numerator over one integer denominator, returned as one
    Fraction.  Dominance is read off the entries of rho by the rule the
    summand table uses too (_dominant_shifts).  Reads neither the summand
    table nor the Weyl oracle.  Returns 0 for a non-dominant target.  No
    factor x_nu - x_nu' is 0: for dominant rho the 2n weights are pairwise
    distinct, as w_j - w_i = (j - i) + (rho_i - rho_j) >= 1 for i < j (and
    likewise for -j against -i), while w_i <= n - 1 < n + 1 <= w_-j.
    """
    rho.require_dominant()
    n = rho.n
    dominant = _dominant_shifts(rho)
    count = len(dominant)
    assert (count % 2 == 1) == (rho.entries[-1] == 0), f"summand-count parity violated for {rho}"
    _check_shift(n, nu)
    if nu not in dominant:
        return Fraction(0)
    shift = 2 * n + 1
    x = 2 * _weight(rho, nu) - shift
    num = -(x - (-1) ** count)
    den = 1
    for other in dominant:
        if other == nu:
            continue
        y = 2 * _weight(rho, other) - shift
        num *= x + y
        den *= x - y
    return Fraction(num, den)


class _Rows(tuple):
    """The rows of a kept summand table.  q_cap = max(DEFAULT_Q_CAP, 2n + 1) is
    the highest q that casimir_report and theorem_family read; kept holds the
    moment sums [S_0..S_{q_cap}] and [T_0..T_{q_cap}] under their shift, once
    _sums has computed them."""


# Summand tables computed so far in this process, keyed by weight entries.
_tables: dict = {}


def _summands(rho: SpnWeight):
    """The summand table of V_rho (x) E: (D, rows).

    D = dim V_rho; rows holds one (nu, rho + mu_nu, w_nu, d_nu) per shift
    index of decompose_rho_tensor_E, with w_nu an int and d_nu = dim
    V_{rho+mu_nu}, or 0 when rho + mu_nu is not dominant; w_nu and dominance
    are read off the entries of rho.  Raises NonDominantError for a
    non-dominant rho.

    Computed once per rho per process: the table does not depend on k, the
    operator, the curvature sign or hpn, so it is kept in _tables under
    rho.entries.  Only a rho that decompose_rho_tensor_E accepted is stored,
    so a non-dominant rho raises on every call.  The memo is unbounded, like
    weights._dims.  rows is a _Rows, equal to the plain tuple of its rows,
    that also keeps the moment sums S_0..S_Q and T_0..T_Q once a reader asks
    for them (see _sums); clearing _tables clears them too.
    """
    table = _tables.get(rho.entries)
    if table is not None:
        return table
    dominant = _dominant_shifts(rho)
    rows = _Rows(  # decompose_rho_tensor_E raises for a non-dominant rho before any weyl_dim
        (nu, shifted, _weight(rho, nu), weyl_dim(shifted) if nu in dominant else 0)
        for nu, shifted in decompose_rho_tensor_E(rho)
    )
    rows.q_cap, rows.kept = max(DEFAULT_Q_CAP, 2 * rho.n + 1), {}
    table = _tables[rho.entries] = weyl_dim(rho), rows
    return table


def _moment_sums(rows, q_max: int, shift: int = 0):
    """[S_0..S_{q_max}], S_q = sum w^q d over summand rows (nu, weight, w, d);
    with shift = 2n + 1 the translated [T_0..T_{q_max}], T_q = sum (2w - 2n - 1)^q d."""
    sums = [0] * (q_max + 1)
    for _, _, w, d in rows:
        if d:
            x = 2 * w - shift if shift else w
            for q in range(q_max + 1):
                sums[q] += d
                d *= x
    return sums


def _sums(rows, q_max: int, shift: int = 0) -> list:
    """_moment_sums(rows, q_max, shift).  The rows of a kept table compute
    their sums up to q_cap on the first read, keep them and return a slice;
    a read above q_cap, and any other rows, compute and keep nothing."""
    if type(rows) is not _Rows or q_max > rows.q_cap:
        return _moment_sums(rows, q_max, shift)
    sums = rows.kept.get(shift)
    if sums is None:
        sums = rows.kept[shift] = _moment_sums(rows, rows.q_cap, shift)
    return sums[: q_max + 1]


def _moments(rho: SpnWeight, q_max: int):
    """(D, [S_0..S_{q_max}], [T_0..T_{q_max}]) from one summand table, so that
    c_q = S_q / D and c_hat_q = T_q / (2^q D)."""
    D, rows = _summands(rho)
    return D, _sums(rows, q_max), _sums(rows, q_max, 2 * rho.n + 1)


def _nonnegative(value, name):
    """value as an int through operator.index; ValueError when it is negative."""
    value = index(value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def casimir_eigenvalue(rho: SpnWeight, q: int) -> Fraction:
    """Eigenvalue of the q-th Casimir trace on V_rho (Weyl-oracle reldims)."""
    q = _nonnegative(q, "q")
    D, rows = _summands(rho)
    return Fraction(_sums(rows, q)[q], D)


def casimir_hat(rho: SpnWeight, q: int) -> Fraction:
    """Eigenvalue of the translated q-th Casimir trace on V_rho."""
    q = _nonnegative(q, "q")
    D, rows = _summands(rho)
    return Fraction(_sums(rows, q, 2 * rho.n + 1)[q], D << q)


def closed_form_c2_lambda_ab(a: int, b: int, n: int) -> Fraction:
    """c_2 on the (2_b, 1_{a-b}) module:  2a(2n-a+2) + 2b(2n-b+4)."""
    a, b, n = index(a), index(b), index(n)
    _check_ab(a, b, n)
    _check_rank(n)
    return Fraction(2 * a * (2 * n - a + 2) + 2 * b * (2 * n - b + 4))


def closed_form_c4_lambda_ab(a: int, b: int, n: int) -> Fraction:
    """c_4 on the (2_b, 1_{a-b}) module (quartic closed form)."""
    a, b, n = index(a), index(b), index(n)
    _check_ab(a, b, n)
    _check_rank(n)
    ta = 2 * a * (2 * n - a + 2)
    tb = 2 * b * (2 * n - b + 4)
    value = (
        ta * (2 * n + 3) * (n + 1)
        - 2 * a**2 * (2 * n - a + 2) ** 2
        + tb * (2 * n + 3) * (n + 3)
        - 2 * b**2 * (2 * n - b + 4) ** 2
    )
    return Fraction(value)


# The five-row table of (conformal weight, relative dimension) on the
# (2_b, 1_{a-b}) module, keyed by shift index.  Valid as printed for
# 0 < b < a < n only; boundary shapes collapse rows and are handled by the
# oracle instead.
def table1_row(a: int, b: int, n: int, nu: int):
    """Closed-form (w, reldim) for one of the five generic rows on (2_b,1_{a-b}).

    Needs 0 < b < a < n, and nu must be one of 1, b+1, a+1, -b, -a.  Entries
    are the printed rational functions of (a, b, n), instantiated exactly.
    """
    a, b, n, nu = index(a), index(b), index(n), index(nu)
    if not 0 < b < a < n:
        raise ParameterRangeError(
            f"the five-row table needs 0 < b < a < n, got a={a}, b={b}, n={n}"
        )
    F = Fraction
    if nu == 1:
        return F(-2), F(
            2 * b * (a + 1) * (2 * n - a + 3) * (2 * n - b + 4) * (n + 2),
            (a + 2) * (b + 1) * (2 * n - a + 4) * (2 * n - b + 5),
        )
    if nu == b + 1:
        return F(b - 1), F(
            (a - b) * (2 * n - b + 4) * (2 * n - a - b + 2) * (n - b + 1),
            (b + 1) * (a - b + 1) * (2 * n - a - b + 3) * (n - b + 2),
        )
    if nu == a + 1:
        return F(a), F(
            (a - b + 2) * (2 * n - a + 3) * (2 * n - a - b + 2) * (n - a),
            (a + 2) * (a - b + 1) * (2 * n - a - b + 3) * (n - a + 1),
        )
    if nu == -b:
        return F(2 * n - b + 3), F(
            b * (a - b + 2) * (2 * n - a - b + 4) * (n - b + 3),
            (a - b + 1) * (2 * n - b + 5) * (2 * n - a - b + 3) * (n - b + 2),
        )
    if nu == -a:
        return F(2 * n - a + 2), F(
            (a + 1) * (a - b) * (2 * n - a - b + 4) * (n - a + 2),
            (a - b + 1) * (2 * n - a + 4) * (2 * n - a - b + 3) * (n - a + 1),
        )
    raise ValueError(f"nu={nu} is not one of the five tabulated rows for a={a}, b={b}")


def verify_recursion(rho: SpnWeight, q_max: int = 6):
    """Check the translated-Casimir recursion and the binomial translation.

    Recursion: 2*c_hat_{2q+1} = -c_hat_{2q} - sum_{p=0}^{2q} (-1)^p c_hat_{2q-p} c_hat_p,
    for every odd index 2q+1 <= q_max.
    Translation: c_hat_q = sum_p C(q,p) (-n-1/2)^{q-p} c_p for q <= q_max.

    Both are tested on the integer sums, c_p = S_p / D and
    c_hat_q = T_q / (2^q D), where they read

        T_{2q+1} D = -T_{2q} D - sum_p (-1)^p T_{2q-p} T_p,
        T_q        = sum_p C(q,p) (-(2n+1))^{q-p} 2^p S_p.

    Returns a list of (kind, q) failures; empty means everything holds.
    Raises ValueError for a negative q_max.
    """
    q_max = _nonnegative(q_max, "q_max")
    failures = []
    D, S, T = _moments(rho, q_max)
    for q in range(0, (q_max - 1) // 2 + 1):
        m = 2 * q
        alternating = sum((-1) ** p * T[m - p] * T[p] for p in range(m + 1))
        if T[m + 1] * D != -T[m] * D - alternating:
            failures.append(("recursion", m + 1))
    shift = -(2 * rho.n + 1)
    for q in range(q_max + 1):
        if T[q] != sum(comb(q, p) * shift ** (q - p) * (S[p] << p) for p in range(q + 1)):
            failures.append(("binomial", q))
    return failures


class CasimirReport(Record):
    """Casimir eigenvalues c_q, c_hat_q for one module, q = 0..q_max."""

    def __init__(self, rho: SpnWeight, values: tuple):  # values holds (q, c_q, c_hat_q) per q
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.rho.n

    def to_json_dict(self):
        return {
            "n": self.n,
            "rho": str(self.rho),
            "values": [
                {"q": q, "c": format_rational(c), "c_hat": format_rational(ch)}
                for q, c, ch in self.values
            ],
        }

    def to_csv(self) -> str:
        return csv_table(self.to_json_dict()["values"])

    def to_markdown(self) -> str:
        lines = [
            f"Casimir eigenvalues on V_({self.rho}), n={self.n}",
            "",
            "| q | c_q | c_hat_q |",
            "|---|-----|---------|",
        ]
        for q, c, ch in self.values:
            lines.append(f"| {q} | {c} | {ch} |")
        return "\n".join(lines)


def casimir_report(rho: SpnWeight, q_max: int = 4) -> CasimirReport:
    q_max = index(q_max)
    if not 0 <= q_max <= DEFAULT_Q_CAP:
        raise ValueError(f"q_max must lie in 0..{DEFAULT_Q_CAP}, got {q_max}")
    D, S, T = _moments(rho, q_max)
    return CasimirReport(
        rho,
        tuple((q, Fraction(S[q], D), Fraction(T[q], D << q)) for q in range(q_max + 1)),
    )


# the JSON keys of one candidate of DecompositionTable._candidates, in its order
_TARGET_KEYS = ("N", "nu", "k", "rho", "valid", "w", "w_hat", "W", "reldim")


class DecompositionTable(Record):
    """The integer summand table of a bundle: dim = D = dim V_rho and the rows
    of _summands; target (N, nu) is valid when k + N >= 0 and d_nu > 0."""

    def __init__(self, bundle: BundleLabel, dim: int, rows: tuple):
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", rows)

    @property
    def valid_rows(self) -> list:
        """(N, nu, w, W) as ints per valid target, in canonical order."""
        k = self.bundle.k
        return [
            (N, nu, w, W)
            for N, W in _sp1_shifts(k)
            if k + N >= 0
            for nu, _, w, d in self.rows
            if d
        ]

    def _candidates(self):
        """(N, nu, k + N, rho + mu_nu, valid, w, w_hat, W, reldim) for all 4n
        candidates in canonical order: w and W ints, w_hat and reldim
        Fractions.  reldim is nu-level: d_nu / D whether or not k + N >= 0."""
        k, D, shift = self.bundle.k, self.dim, 2 * self.bundle.n + 1
        for N, W in _sp1_shifts(k):
            for nu, shifted, w, d in self.rows:
                valid = k + N >= 0 and d > 0
                yield N, nu, k + N, shifted, valid, w, Fraction(2 * w - shift, 2), W, Fraction(d, D)

    @property
    def summand_count(self) -> int:
        return len(self.valid_rows)

    def c_sums(self, q_max: int) -> list:
        """[S_0..S_{q_max}] off the integer rows: c_q = S_q / dim."""
        return _sums(self.rows, q_max)

    def c_hat_sums(self, q_max: int) -> list:
        """[T_0..T_{q_max}] off the integer rows: c_hat_q = T_q / (2^q dim)."""
        return _sums(self.rows, q_max, 2 * self.bundle.n + 1)

    def to_json_dict(self):
        return {
            **self.bundle.to_json_dict(),
            "parity_warning": self.bundle.parity_warning,
            "summand_count": self.summand_count,
            "targets": [
                dict(zip(_TARGET_KEYS, (N, nu, k, str(rho), valid, *map(format_rational, values))))
                for N, nu, k, rho, valid, *values in self._candidates()
            ],
        }

    def to_csv(self) -> str:
        return csv_table(self.to_json_dict()["targets"])

    def to_markdown(self) -> str:
        b = self.bundle
        lines = [
            f"Gradient targets on {b} (valid summands: {self.summand_count})",
        ]
        if b.parity_warning:
            lines.append(
                "warning: k + sum(rho) is odd; label does not factor through Sp(1)Sp(n)"
            )
        lines += [
            "",
            "| N | nu | target (k, rho) | valid | w | w_hat | W | reldim |",
            "|---|----|-----------------|-------|---|-------|---|--------|",
        ]
        for N, nu, target_k, target_rho, valid, w, w_hat, W, reldim in self._candidates():
            lines.append(
                f"| {N:+d} | {nu:+d} | ({target_k}, ({target_rho})) | "
                f"{'yes' if valid else 'no'} | {w} | {w_hat} | {W} | {reldim} |"
            )
        return "\n".join(lines)


def decompose_bundle(bundle: BundleLabel) -> DecompositionTable:
    """The integer table of all 4n candidates (N, nu); valid means k+N >= 0
    and rho + mu_nu dominant.  Ordering is canonical: N = +1 then -1, shift
    indices 1..n, -1..-n within each.
    """
    return DecompositionTable(bundle, *_summands(bundle.rho))


def lambda_ab_bundle(k: int, a: int, b: int, n: int) -> BundleLabel:
    """Bundle label S^k(H) (x) primitive-form module (2_b, 1_{a-b})."""
    return BundleLabel(k, lambda_ab_weight(a, b, n))
