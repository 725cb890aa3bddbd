"""Exact rational scalars and their canonical text form.

Every numeric quantity in this package is a ``fractions.Fraction`` (or an
int where the value is provably integral).  Fractions are always stored in
lowest terms with a positive denominator, which makes the "p/q" text form
canonical: equal values always serialize to the same string.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Fraction", "format_rational", "parse_rational", "scaled"]


def format_rational(x) -> str:
    """Render an exact scalar as the canonical "p/q" string ("10/1" for 10)."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer string) into a Fraction."""
    return Fraction(text.strip())


def scaled(values, den):
    """Rationals times a common multiple den of their denominators, as ints."""
    return [v.numerator * (den // v.denominator) for v in values]
