"""Univariate B-splines on the open knot multiset {0^(d+1), 1/2^2, 1^(d+1)}.

The d+3 consecutive B-splines of degree d on this knot vector are referenced
by their index 1..d+3, and ref_from_counts finds the one whose local window
has given knot counts.  Every B-spline here is the edge view of a simplex
spline: put its window's knots on v1 (t = 0), v4 (t = 1/2) and v2 (t = 1)
of the reference split and one more knot on v3, and Q[K] restricted to the
edge [v1, v2] is the B-spline over 2 area([K]).  So the Bernstein pieces of
a spline on an edge, on [0, 1/2] and [1/2, 1], are rows of the face tables
on D1 and D2, and bspline_coefficients takes any pair of pieces back to
consecutive B-spline coefficients, for assembly's edge restriction tables.
Values and derivatives of the B-splines themselves are left to the tests,
as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class UnivariateBSplineRef:
    """B-spline ``index`` of ``degree`` on the knots {0^(d+1), 1/2^2, 1^(d+1)}."""

    degree: int
    index: int

    def __post_init__(self):
        if not (_is_int(self.degree) and _is_int(self.index)):
            raise DomainError(f"degree and index must be ints, not {self.degree!r}, {self.index!r}")
        if not 2 <= self.degree <= 5:
            raise DomainError(f"degree {self.degree} outside 2..5")
        if not 1 <= self.index <= self.degree + 3:
            raise DomainError(f"index {self.index} outside 1..{self.degree + 3}")

    def counts(self) -> tuple:
        """(number of 0 knots, 1/2 knots, 1 knots) of the local window."""
        return _window_counts(self.degree, self.index)


def _window_counts(degree: int, index: int) -> tuple:
    """Window i of degree d holds max(0, d + 2 - i) zeros, max(0, i - 2)
    ones and the rest halves."""
    zeros, ones = max(0, degree + 2 - index), max(0, index - 2)
    return zeros, degree + 2 - zeros - ones, ones


def ref_from_counts(degree: int, zeros: int, halves: int, ones: int):
    """Identify the shorthand reference whose local window has these knot counts.

    Returns None when the multiset is not a window of the open knot vector
    (for instance more than two interior knots).
    """
    for index in range(1, degree + 4):
        if _window_counts(degree, index) == (zeros, halves, ones):
            return UnivariateBSplineRef(degree, index)
    return None


def _blossom(coefs, args):
    """Polar form of the Bernstein polynomial with these coefficients at
    args, one de Casteljau step per argument; equal args s give its value
    at s."""
    for s in args:
        coefs = [(1 - s) * a + s * b for a, b in zip(coefs, coefs[1:])]
    return coefs[0]


def bspline_coefficients(degree: int, pieces) -> tuple:
    """The d + 3 consecutive B-spline coefficients of the degree-d spline with
    Bernstein pieces (left, right), in s = 2t and s = 2t - 1: each is the
    polar form, at its interior knots, of a piece it is supported on (the
    right one when its window starts at 1/2).  The knots are integers in the
    pieces' parameters, so integer pieces give integers."""
    knots = (0,) * (degree + 1) + (1, 1) + (2,) * (degree + 1)     # 2t at the knots
    out = []
    for i in range(degree + 3):
        window = knots[i:i + degree + 2]
        right = window[0] == 1
        out.append(_blossom(pieces[right], [u - right for u in window[1:-1]]))
    return tuple(out)
