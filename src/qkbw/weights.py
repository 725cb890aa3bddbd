"""Dominant weights for Sp(n), bundle labels, and the Weyl dimension oracle.

An Sp(n) weight is an integer tuple (r1, ..., rn); it is dominant integral
when the entries are non-increasing and the last one is nonnegative.
decompose_rho_tensor_E lists the 2n shifted weights rho + mu_nu (one entry
bumped by +-1) of V_rho (x) E once, in canonical order (nu = 1..n, -1..-n),
without mu_shift's checks.  A shift may leave the dominant cone; it is kept,
and the summand table in casimir reads its dominance off the entries of rho.
This module owns the label rules, one helper each, and reads integers
through operator.index.
"""

from __future__ import annotations

from operator import index

from .record import Record

__all__ = [
    "ParameterRangeError",
    "NonDominantError",
    "SpnWeight",
    "BundleLabel",
    "mu_shift",
    "weyl_dim",
    "decompose_rho_tensor_E",
    "parse_weight",
]


class ParameterRangeError(ValueError):
    """Arguments left the parameter range a label or closed form is stated for."""


class NonDominantError(ValueError):
    """A dominant integral weight was required but not supplied."""


def _check_rank(n: int) -> None:
    if n < 2:
        raise ParameterRangeError(f"rank must be at least 2, got n={n}")


def _check_ab(a: int, b: int, n: int) -> None:
    if not 0 <= b <= a <= n:
        raise ParameterRangeError(f"need 0 <= b <= a <= n, got a={a}, b={b}, n={n}")


def _check_shift(n: int, nu: int) -> None:
    if nu == 0 or abs(nu) > n:
        raise ParameterRangeError(f"shift index must satisfy 1 <= |nu| <= {n}, got {nu}")


def _check_k(k: int) -> None:
    if k < 0:
        raise ParameterRangeError(f"Sp(1) weight must be nonnegative, got k={k}")


class SpnWeight(Record):
    """Integer weight for Sp(n), n >= 2; immutable and hashable.  Entries go through
    operator.index: a float, str or Fraction raises TypeError, and True reads as 1."""

    def __init__(self, entries: tuple):
        entries = tuple(map(index, entries))
        _check_rank(len(entries))
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_dominant(self) -> bool:
        # one C-level comparison: the entries equal their own descending sort
        e = self.entries
        return e[-1] >= 0 and e == tuple(sorted(e, reverse=True))

    def total(self) -> int:
        return sum(self.entries)

    def require_dominant(self) -> "SpnWeight":
        if not self.is_dominant:
            raise NonDominantError(f"weight {self} is not dominant integral")
        return self

    def lambda_ab_shape(self):
        """Return (a, b) if the weight is of the form (2_b, 1_{a-b}, 0...), else None."""
        if not self.is_dominant or any(e > 2 for e in self.entries):
            return None
        b = sum(1 for e in self.entries if e == 2)
        a = b + sum(1 for e in self.entries if e == 1)
        return (a, b)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)

    def __repr__(self) -> str:
        return f"SpnWeight(({self}))"


def lambda_ab_weight(a: int, b: int, n: int) -> SpnWeight:
    """The weight (2_b, 1_{a-b}, 0_{n-a}) labelling the primitive-form module."""
    _check_ab(a, b, n)
    return SpnWeight((2,) * b + (1,) * (a - b) + (0,) * (n - a))


class BundleLabel(Record):
    """Label (k, rho) of an irreducible Sp(1)Sp(n) bundle.

    k is the Sp(1) highest weight (a nonnegative integer, read through
    operator.index), rho the Sp(n) one.  When k + sum(rho) is odd the label
    does not factor through Sp(1)Sp(n) itself; that is permitted (local
    computations go through unchanged) but flagged via ``parity_warning``.
    """

    def __init__(self, k: int, rho: SpnWeight):
        k = index(k)
        _check_k(k)
        rho.require_dominant()
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rho", rho)

    @property
    def n(self) -> int:
        return self.rho.n

    @property
    def parity_warning(self) -> bool:
        """True when k + sum(rho) is odd (not a genuine Sp(1)Sp(n) module)."""
        return (self.k + self.rho.total()) % 2 == 1

    def __str__(self) -> str:
        return f"S^{self.k}(H) (x) V_({self.rho}) [n={self.n}]"

    def to_json_dict(self):
        """The label header of every JSON record on a bundle."""
        return {"n": self.n, "k": self.k, "rho": str(self.rho)}


def mu_shift(rho: SpnWeight, nu: int) -> SpnWeight:
    """Shift rho by mu_nu: +1 at position nu (nu > 0) or -1 at position -nu.

    The result may be non-dominant; callers test ``.is_dominant``.
    """
    nu = index(nu)
    _check_shift(rho.n, nu)
    return _shifted(rho.entries, abs(nu) - 1, 1 if nu > 0 else -1)


def _shifted(entries: tuple, i: int, step: int) -> SpnWeight:
    """entries with step added at 0-based position i, built without __init__:
    they are the entries of a checked weight."""
    shifted = list(entries)
    shifted[i] += step
    weight = object.__new__(SpnWeight)
    object.__setattr__(weight, "entries", tuple(shifted))
    return weight


# Weyl dimensions computed so far in this process, keyed by weight entries.
_dims: dict = {}


def weyl_dim(rho: SpnWeight) -> int:
    """Dimension of the irreducible Sp(n) module with highest weight rho.

    Uses the Weyl dimension product for the C_n root system: with
    l_i = rho^i + n - i + 1 and m_i = n - i + 1,

        dim = prod_i l_i/m_i * prod_{i<j} (l_i^2 - l_j^2)/(m_i^2 - m_j^2).

    Exact; raises on non-dominant input.
    """
    cached = _dims.get(rho.entries)  # only dominant weights are stored
    if cached is not None:
        return cached
    rho.require_dominant()
    n = rho.n
    l = [rho.entries[i] + n - i for i in range(n)]  # i is 0-based: n - (i+1) + 1
    m = [n - i for i in range(n)]
    num = den = 1
    for i in range(n):
        num *= l[i]
        den *= m[i]
        for j in range(i + 1, n):
            num *= l[i] ** 2 - l[j] ** 2
            den *= m[i] ** 2 - m[j] ** 2
    value, rest = divmod(num, den)
    assert rest == 0 and value > 0
    _dims[rho.entries] = value
    return value


def decompose_rho_tensor_E(rho: SpnWeight) -> tuple:
    """The 2n pairs (nu, rho + mu_nu) of V_rho (x) E in canonical order.

    Shifts that leave the dominant cone are kept; raises NonDominantError
    for a non-dominant rho.  rho is checked once, so its shifts skip the
    index and range checks of mu_shift.
    """
    rho.require_dominant()
    # built from a list: tuple() of a generator here ran more gc collections,
    # which made the peak RSS of the lp-general benchmark step up a pass sooner
    e, n = rho.entries, rho.n
    return tuple([(s * (i + 1), _shifted(e, i, s)) for s in (1, -1) for i in range(n)])


def _parse_int(text: str, what: str, signed: bool) -> int:
    """An int written in ASCII digits, with a leading "-" only when signed."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} must be written in ASCII digits, got {text!r}")
    return int(text)


def parse_weight(text: str, n=None) -> SpnWeight:
    """Parse a weight from "2,1,0" or the shorthand "2^b 1^(a-b) @ n".

    The shorthand lists value^count tokens and pads with zeros up to the
    rank given after "@" (or the ``n`` argument).  Canonical output is
    always the explicit comma-separated list.  Entries are ASCII integers
    with an optional leading "-"; counts and the rank are ASCII digits, and
    a count is at least 1.  Anything else raises ValueError.
    """
    text = text.strip()
    if "^" in text or "@" in text:
        body, _, rank_part = text.partition("@")
        rank = _parse_int(rank_part.strip(), "rank", signed=False) if rank_part.strip() else None
        if rank is not None and n is not None and rank != n:
            raise ValueError(f"shorthand rank {rank} conflicts with n={n}")
        rank = rank if rank is not None else n
        if rank is None:
            raise ValueError("shorthand weight needs a rank: '... @ n'")
        entries = []
        for token in body.split():
            value_str, caret, count_str = token.partition("^")
            if count_str.startswith("(") and count_str.endswith(")"):
                count_str = count_str[1:-1]
            count = _parse_int(count_str, "count", signed=False) if caret else 1
            if count < 1:
                raise ValueError(f"count must be at least 1, got {count} in {token!r}")
            entries.extend([_parse_int(value_str, "entry", signed=True)] * count)
        if len(entries) > rank:
            raise ValueError(f"shorthand expands to {len(entries)} entries > rank {rank}")
        entries.extend([0] * (rank - len(entries)))
        return SpnWeight(tuple(entries))
    entries = tuple(_parse_int(tok.strip(), "entry", signed=True) for tok in text.split(","))
    if n is not None:
        if len(entries) > n:
            raise ValueError(f"weight has {len(entries)} entries > rank {n}")
        entries = entries + (0,) * (n - len(entries))
    return SpnWeight(entries)
