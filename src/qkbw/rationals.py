"""Exact rational scalars and their canonical text form.

Every numeric quantity in this package is a ``fractions.Fraction`` (or an
int where the value is provably integral).  Fractions are always stored in
lowest terms with a positive denominator, which makes the "p/q" text form
canonical: equal values always serialize to the same string, and
parse_rational reads back exactly the strings that format_rational writes.
"""

from __future__ import annotations

from fractions import Fraction

from .weights import _parse_int

__all__ = ["Fraction", "csv_table", "format_rational", "parse_rational", "scaled"]


def format_rational(x) -> str:
    """Render an exact scalar as the canonical "p/q" string ("10/1" for 10)."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" as format_rational writes it, and nothing else: ASCII
    digits, an optional leading "-" on p, q >= 1 and lowest terms."""
    num, _, den = text.partition("/")
    p, q = _parse_int(num, "numerator", signed=True), _parse_int(den, "denominator", signed=False)
    if q == 0 or format_rational(Fraction(p, q)) != text:
        raise ValueError(f"a rational must be written as lowest-terms p/q with q >= 1, got {text!r}")
    return Fraction(p, q)


def scaled(values, den):
    """Rationals times a common multiple den of their denominators, as ints."""
    return [v.numerator * (den // v.denominator) for v in values]


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    text = str(value)
    return f'"{text}"' if "," in text else text


def csv_table(rows) -> str:
    """CSV of a non-empty list of JSON row dicts with one key order: that order
    is the header, a bool is 1 or 0, and a cell holding a comma is quoted."""
    lines = [rows[0].keys(), *(row.values() for row in rows)]
    return "".join(",".join(map(_csv_cell, line)) + "\n" for line in lines)
