"""Exact rational scalars and their canonical string form.

All exact-layer computations use ``fractions.Fraction``.  Serialized rationals
are ``"p/q"`` strings in lowest terms with positive denominator; plain integers
round-trip as ``"p/1"``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError

def parse_rational(text: str) -> Fraction:
    """Parse a ``"p/q"`` or ``"p"`` string."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical ``"p/q"`` form (lowest terms, q > 0)."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"
