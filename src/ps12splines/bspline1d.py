"""Univariate B-splines on the open knot multiset {0^(d+1), 1/2^2, 1^(d+1)}.

The d+3 consecutive B-splines of degree d on this knot vector are referenced
by their index 1..d+3.  Individual B-splines are evaluated by the two-term
recurrence from their own d+2 local knots.  Evaluation is right-continuous on
[0, 1) and left-continuous at t = 1, matching the inward-limit convention used
for point location on the split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .rational import is_exact

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class UnivariateBSplineRef:
    """B-spline ``index`` of ``degree`` on the knots {0^(d+1), 1/2^2, 1^(d+1)}."""

    degree: int
    index: int

    def __post_init__(self):
        if not 2 <= self.degree <= 5:
            raise DomainError(f"degree {self.degree} outside 2..5")
        if not 1 <= self.index <= self.degree + 3:
            raise DomainError(f"index {self.index} outside 1..{self.degree + 3}")

    @property
    def local_knots(self) -> tuple:
        return local_knots(self.degree, self.index)

    def counts(self) -> tuple:
        """(number of 0 knots, 1/2 knots, 1 knots) of the local window."""
        kn = self.local_knots
        return (kn.count(0), kn.count(HALF), kn.count(1))

    def __str__(self):
        return f"B{self.index}^{self.degree}"


@lru_cache(maxsize=None)
def global_knots(degree: int) -> tuple:
    return (Fraction(0),) * (degree + 1) + (HALF, HALF) + (Fraction(1),) * (degree + 1)


@lru_cache(maxsize=None)
def local_knots(degree: int, index: int) -> tuple:
    kn = global_knots(degree)
    return kn[index - 1 : index + degree + 1]


def ref_from_counts(degree: int, zeros: int, halves: int, ones: int):
    """Identify the shorthand reference whose local window has these knot counts.

    Returns None when the multiset is not a window of the open knot vector
    (for instance more than two interior knots).
    """
    if zeros + halves + ones != degree + 2:
        return None
    for index in range(1, degree + 4):
        kn = local_knots(degree, index)
        if (kn.count(0), kn.count(HALF), kn.count(1)) == (zeros, halves, ones):
            return UnivariateBSplineRef(degree, index)
    return None


def _bspline_raw(knots: tuple, t):
    """Recursive B-spline value from its own knot window (right-continuous)."""
    if len(knots) == 2:
        t0, t1 = knots
        # closed at the right end of the global interval
        inside = t0 <= t < t1 or (t == t1 == 1 and t0 < t1)
        return Fraction(inside) if is_exact((t,)) else float(inside)
    total = 0
    left, right = knots[:-1], knots[1:]
    if knots[-2] != knots[0]:
        total += (t - knots[0]) / (knots[-2] - knots[0]) * _bspline_raw(left, t)
    if knots[-1] != knots[1]:
        total += (knots[-1] - t) / (knots[-1] - knots[1]) * _bspline_raw(right, t)
    return total


def bspline_value(ref: UnivariateBSplineRef, t):
    return _bspline_raw(ref.local_knots, t)


def _derivative_terms(knots: tuple, order: int):
    """Expand d/dt^order of B[knots] as [(coef, knot window)] terms."""
    terms = [(Fraction(1), knots)]
    for _ in range(order):
        nxt = []
        for coef, kn in terms:
            d = len(kn) - 2
            if kn[-2] != kn[0]:
                nxt.append((coef * d / (kn[-2] - kn[0]), kn[:-1]))
            if kn[-1] != kn[1]:
                nxt.append((coef * -d / (kn[-1] - kn[1]), kn[1:]))
        terms = nxt
    return terms


def bspline_derivative(ref: UnivariateBSplineRef, t, order: int = 1):
    """Order-th derivative at t, exact for exact t (one-sided at knots, like
    the value)."""
    if order == 0:
        return bspline_value(ref, t)
    terms = _derivative_terms(ref.local_knots, order)
    return sum((coef * _bspline_raw(kn, t) for coef, kn in terms),
               Fraction(0) if is_exact((t,)) else 0.0)


# ---------------------------------------------------------------------------
# Expansion of off-window B-splines in the consecutive basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _greville_points(degree: int) -> tuple:
    kn = global_knots(degree)
    return tuple(sum(kn[i + 1: i + degree + 1], Fraction(0)) / degree
                 for i in range(degree + 3))


@lru_cache(maxsize=None)
def _greville_collocation_inverse(degree: int) -> tuple:
    from .linalg import inverse
    pts = _greville_points(degree)
    rows = [[bspline_value(UnivariateBSplineRef(degree, j + 1), t)
             for j in range(degree + 3)] for t in pts]
    return tuple(tuple(r) for r in inverse(rows))


@lru_cache(maxsize=None)
def expand_window(degree: int, zeros: int, halves: int, ones: int) -> tuple:
    """Expand B[{0^zeros, 1/2^halves, 1^ones}] in the consecutive basis.

    Returns ((coef, ref), ...).  The empty tuple encodes the zero spline
    (all knots coincident).  Windows of the open knot vector come back as a
    single unit term; the others (a smoother-than-generic interior knot) are
    resolved by exact collocation at the Greville points.
    """
    if zeros + halves + ones != degree + 2:
        raise DomainError("knot counts must total degree + 2")
    if halves > 2:
        raise DomainError("more than two interior knots cannot be expanded here")
    if zeros == degree + 2 or halves == degree + 2 or ones == degree + 2:
        return ()
    direct = ref_from_counts(degree, zeros, halves, ones)
    if direct is not None:
        return ((Fraction(1), direct),)
    window = (Fraction(0),) * zeros + (HALF,) * halves + (Fraction(1),) * ones
    vals = [_bspline_raw(window, t) for t in _greville_points(degree)]
    minv = _greville_collocation_inverse(degree)
    coefs = [sum(minv[i][j] * vals[j] for j in range(degree + 3))
             for i in range(degree + 3)]
    return tuple((c, UnivariateBSplineRef(degree, i + 1))
                 for i, c in enumerate(coefs) if c != 0)
