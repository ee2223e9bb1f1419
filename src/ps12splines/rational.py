"""Exact rational scalars, the layer rule, and their canonical string form.

A computation is exact iff every input is an ``int`` or a ``Fraction``
(:func:`is_exact`, the one place this is decided); it then returns
Fractions.  Any other number selects the float layer (double precision).
Numeric input is checked by one rule (:func:`finite_numbers`).
Exact kernels carry integers over one common denominator
(:func:`common_denominator`) and make each result a Fraction once.
Serialized rationals are ``"p/q"`` strings in lowest terms with positive
denominator; plain integers round-trip as ``"p/1"``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, lcm
from numbers import Rational, Real

from .errors import DomainError, ParseError


def is_exact(values) -> bool:
    """True iff every value of the sequence is an int or a Fraction (the
    exact layer)."""
    # floats are turned away first, in one C-level scan: isinstance(float,
    # Fraction) takes the slow ABC path, and float evaluation asks this per point
    return float not in map(type, values) and all(isinstance(v, (int, Fraction)) for v in values)


def finite_numbers(values, what: str, nonfinite=DomainError) -> list:
    """values as a list; DomainError unless a sequence of real numbers, and
    nonfinite unless each is exact or finite."""
    if not hasattr(values, "__iter__"):
        raise DomainError(f"{what} must be a sequence of finite numbers")
    values = list(values)
    if not is_exact(values):
        if not all(isinstance(x, Real) for x in values):
            raise DomainError(f"{what} must be numbers")
        if not all(isinstance(x, Rational) or isfinite(x) for x in values):
            raise nonfinite(f"{what} must be finite numbers")
    return values


def common_denominator(values) -> tuple[int, list]:
    """(L, numerators): exact values as integers over the lcm L of their
    denominators, so value k is numerators[k] / L."""
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    nums = [v.numerator for v in values]
    if den == 1:
        return 1, nums
    return den, [p * (den // q) for p, q in zip(nums, dens)]


def _over_lcm(pairs) -> tuple[int, list]:
    """common_denominator of (numerator, denominator) pairs, a denominator < 0 too."""
    den = lcm(*(q for _, q in pairs))
    return den, [p * (den // q) for p, q in pairs]


def _dyadic(floats) -> tuple[int, list]:
    """(2^k, numerators): floats as integers over one power of two, exactly."""
    pairs = [x.as_integer_ratio() for x in floats]
    k = max(q.bit_length() for _, q in pairs)
    return 1 << k - 1, [p << k - q.bit_length() for p, q in pairs]


def parse_rational(text: str) -> Fraction:
    """Parse a ``"p/q"`` or ``"p"`` string."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical ``"p/q"`` form (lowest terms, q > 0); DomainError when p or
    q has more digits than Python writes."""
    value = Fraction(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # the int-to-str digit limit
        raise DomainError(f"the exact value of about {short_form(value)} "
                          f"has too many digits to write") from None


def short_form(value: Fraction) -> str:
    """value to six digits, for messages (its integers may be too long for str)."""
    from decimal import Context
    return str(Context(prec=6).divide(value.numerator, value.denominator).normalize())
