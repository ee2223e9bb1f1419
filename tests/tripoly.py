"""Sparse polynomials in three variables with exact rational coefficients.

The tests' ring oracle, independent of the library: the library keeps each
symbolic polynomial as a plain {exponent: Fraction} dict of its nonzero
terms (marsden_catalog.linear_product), and the tests wrap such a dict in
TriPoly(...) to compare it with products built here.
"""

from __future__ import annotations

from fractions import Fraction


class TriPoly:
    """Polynomial in three variables over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for exp, coef in (terms.items() if isinstance(terms, dict) else terms):
                coef = Fraction(coef)
                if coef:
                    self.terms[tuple(exp)] = self.terms.get(tuple(exp), Fraction(0)) + coef
            self.terms = {e: c for e, c in self.terms.items() if c}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "TriPoly":
        return TriPoly()

    @staticmethod
    def const(c) -> "TriPoly":
        return TriPoly({(0, 0, 0): Fraction(c)})

    @staticmethod
    def variable(i: int) -> "TriPoly":
        exp = [0, 0, 0]
        exp[i] = 1
        return TriPoly({tuple(exp): Fraction(1)})

    @staticmethod
    def linear(coeffs) -> "TriPoly":
        """a*x1 + b*x2 + c*x3 from a coefficient triple."""
        a, b, c = coeffs
        return TriPoly({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TriPoly):
            other = TriPoly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return TriPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, TriPoly):
            other = TriPoly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return TriPoly(out)

    def __neg__(self):
        return TriPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, TriPoly):
            f = Fraction(other)
            return TriPoly({e: c * f for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return TriPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = TriPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, TriPoly):
            return self.terms == other.terms
        return self.terms == TriPoly.const(other).terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "TriPoly(0)"
        bits = [f"{c}*x^{e}" for e, c in sorted(self.terms.items(), reverse=True)]
        return "TriPoly(" + " + ".join(bits) + ")"

    # -- queries -------------------------------------------------------

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, x1, x2, x3):
        total = 0
        for (i, j, k), c in self.terms.items():
            total += c * x1**i * x2**j * x3**k
        return total
