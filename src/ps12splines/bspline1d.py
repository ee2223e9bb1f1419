"""Univariate B-splines on the open knot multiset {0^(d+1), 1/2^2, 1^(d+1)}.

The d+3 consecutive B-splines of degree d on this knot vector are referenced
by their index 1..d+3.  Every B-spline here is the edge view of a simplex
spline: put its window's knots on v1 (t = 0), v4 (t = 1/2) and v2 (t = 1)
of the reference split and one more knot on v3, and Q[K] restricted to the
edge [v1, v2] is the B-spline over 2 area([K]).  Its Bernstein pieces on
[0, 1/2] and [1/2, 1] are the gamma_3 = 0 rows of Q[K]'s tables on the
faces D1 and D2, times 2 area([K]); bspline_coefficients takes any pair
of pieces back to consecutive B-spline coefficients, for assembly's edge
restriction tables.  Values and derivatives evaluate a piece (derivatives
by Bernstein differences), the right one from t = 1/2 on: they are
right-continuous on [0, 1) and left-continuous at t = 1, and zero outside
[0, 1].  At t = 1/2 this is not the split's point location, which puts the
edge midpoint v4 in D1, the left piece (geometry.locate_face_bary).  No
caller sees the difference: with the knot 1/2 doubled a degree-d B-spline
is C^(d-2) there, so only derivatives of order d - 1 and d differ, and what
is read at t = 1/2 is of lower order (in assembly._edge_rows g(1/2) and
f'(1/2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isfinite

from .errors import DomainError, OutsideDomain
from .rational import is_exact
from .simplex_spline import _face_ordinates, active_indices, bernstein_exponents, hull_area


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


@lru_cache(maxsize=None)
def _pieces(degree: int, zeros: int, halves: int, ones: int) -> tuple:
    """(left, right): the Bernstein coefficients of B[{0^zeros, 1/2^halves,
    1^ones}] on [0, 1/2] and [1/2, 1], in the local parameters s = 2t and
    s = 2t - 1; coefficient k multiplies C(d, k) (1 - s)^(d-k) s^k.

    Read from Q[K] with K = {v1^zeros, v2^ones, v3, v4^halves}: on the
    faces D1 = [v1, v4, v7] and D2 = [v4, v2, v8] the edge is gamma_3 = 0
    and s = gamma_2.
    """
    K = (zeros, ones, 1, halves) + (0,) * 6
    den, faces = _face_ordinates(K)
    scale = 2 * hull_area(active_indices(K)) / den
    exponents = bernstein_exponents(degree)
    row = [exponents.index((degree - k, k, 0)) for k in range(degree + 1)]
    return tuple(tuple(scale * face[i] if face else Fraction(0) for i in row)
                 for face in faces[:2])


def _blossom(coefs, args):
    """Polar form of the Bernstein polynomial with these coefficients at
    args, one de Casteljau step per argument; equal args s give its value
    at s."""
    for s in args:
        coefs = [(1 - s) * a + s * b for a, b in zip(coefs, coefs[1:])]
    return coefs[0]


def bspline_derivative(ref: UnivariateBSplineRef, t, order: int = 1):
    """Order-th derivative at t, exact for exact t (one-sided at knots, like
    the value).  Raises DomainError unless order is a nonnegative int, and
    OutsideDomain for a NaN or infinite t."""
    if not _is_int(order) or order < 0:
        raise DomainError(f"derivative order must be a nonnegative int, not {order!r}")
    exact = is_exact((t,))
    if not (exact or isfinite(t)):
        raise OutsideDomain(f"parameter {t} is not finite")
    zero = Fraction(0) if exact else 0.0
    if not 0 <= t <= 1 or order > ref.degree:
        return zero
    right = 2 * t >= 1
    coefs = _pieces(ref.degree, *ref.counts())[right]
    # each Bernstein difference on an interval of length 1/2 brings 2 (n - k)
    n = ref.degree
    for k in range(order):
        coefs = [2 * (n - k) * (b - a) for a, b in zip(coefs, coefs[1:])]
    s = 2 * t - 1 if right else 2 * t
    return zero + _blossom(coefs, (s,) * (n - order))


def bspline_coefficients(degree: int, pieces) -> tuple:
    """The d + 3 consecutive B-spline coefficients of the degree-d spline with
    Bernstein pieces (left, right), as in _pieces: each is the polar form, at
    its interior knots, of a piece it is supported on (the right one when its
    window starts at 1/2).  The knots are integers in the pieces' parameters,
    so integer pieces give integers."""
    knots = (0,) * (degree + 1) + (1, 1) + (2,) * (degree + 1)     # 2t at the knots
    out = []
    for i in range(degree + 3):
        window = knots[i:i + degree + 2]
        right = window[0] == 1
        out.append(_blossom(pieces[right], [u - right for u in window[1:-1]]))
    return tuple(out)
