"""The knot-multiset route to derivatives, edge restrictions, knot windows
and knot insertion, with the univariate B-splines and the convex hull.

The tests' oracles for what the library reads off its per-face tables:
- hull_area measures the convex hull of knots, against which the
  library's collinearity test and per-face base case are checked;
- bspline_derivative evaluates the univariate B-splines of bspline1d and
  their derivatives from their Bernstein pieces (_pieces), against which
  assembly's closed-form Hermite edge rows are checked;
- derivative_expansion expands D^k Q[K] over sub-multisets of K by the
  knot-multiset recursion, against which the library's derivative (one
  functional_row per point) is checked;
- restrict_to_edge restricts Q[K] to a macro edge through the knot counts
  on that edge (expand_window), the route that assembly's
  edge_restriction_tables and the search's boundary rule are checked against;
- global_knots and local_knots count a B-spline's knots on the open knot
  vector itself, against the closed-form window counts of bspline1d;
- insert_knot rewrites Q[K] over K with one more knot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isfinite

from ps12splines.bspline1d import UnivariateBSplineRef, _blossom, _is_int, bspline_coefficients
from ps12splines.errors import DomainError, OutsideDomain, TooFewKnots
from ps12splines.geometry import EDGES, VERTEX_BARY, signed_area2
from ps12splines.rational import is_exact
from ps12splines.simplex_spline import (_REF_SCALE, KnotMultiset, _face_ordinates,
                                        _independent_triple, _ref_points, _vertex_bary,
                                        active_indices, bernstein_exponents, knot_count, knots)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Convex hull of knots
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def hull_area(act: tuple) -> Fraction:
    """Area of the convex hull of the given vertex indices (reference frame).

    The hull is Andrew's monotone chain on the integer points of
    _ref_points, where twice the area is an integer, divided back by 12^2;
    collinear points give 0.
    """
    pts = sorted({_ref_points()[i - 1] for i in act})

    def build(points):
        chain = []
        for p in points:
            while len(chain) >= 2 and signed_area2(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain
    hull = build(pts)[:-1] + build(pts[::-1])[:-1]
    s = sum(a.x * b.y - b.x * a.y for a, b in zip(hull, hull[1:] + hull[:1]))
    return Fraction(abs(s), 2 * _REF_SCALE ** 2)


# ---------------------------------------------------------------------------
# Values and derivatives of the univariate B-splines
# ---------------------------------------------------------------------------

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


def bspline_derivative(ref: UnivariateBSplineRef, t, order: int = 1):
    """Order-th derivative at t, exact for exact t.  Raises DomainError
    unless order is a nonnegative int, and OutsideDomain for a NaN or
    infinite t.

    A piece is evaluated (derivatives by Bernstein differences), the right
    one from t = 1/2 on: values and derivatives are right-continuous on
    [0, 1) and left-continuous at t = 1, and zero outside [0, 1].  At
    t = 1/2 this is not the split's point location, which puts the edge
    midpoint v4 in D1, the left piece (geometry.locate_face_bary).  With
    the knot 1/2 doubled a degree-d B-spline is C^(d-2) there, so only
    derivatives of order d - 1 and d differ.
    """
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


# ---------------------------------------------------------------------------
# Knot windows of the open knot vector {0^(d+1), 1/2^2, 1^(d+1)}
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def global_knots(degree: int) -> tuple:
    return (Fraction(0),) * (degree + 1) + (HALF, HALF) + (Fraction(1),) * (degree + 1)


@lru_cache(maxsize=None)
def local_knots(degree: int, index: int) -> tuple:
    kn = global_knots(degree)
    return kn[index - 1 : index + degree + 1]


@lru_cache(maxsize=None)
def expand_window(degree: int, zeros: int, halves: int, ones: int) -> tuple:
    """Expand B[{0^zeros, 1/2^halves, 1^ones}] in the consecutive basis.

    Returns ((coef, ref), ...), the coefficients bspline_coefficients reads
    off its pieces.  The empty tuple encodes the zero spline (all knots
    coincident), and windows of the open knot vector come back as a single
    unit term.  The others (a smoother-than-generic interior knot) lie in
    the span too.
    """
    if not (_is_int(degree) and all(_is_int(x) and x >= 0 for x in (zeros, halves, ones))):
        raise DomainError(f"need an int degree and nonnegative int knot counts, not "
                          f"{degree!r}, {(zeros, halves, ones)!r}")
    if zeros + halves + ones != degree + 2:
        raise DomainError("knot counts must total degree + 2")
    if halves > 2:
        raise DomainError("more than two interior knots cannot be expanded here")
    coefs = bspline_coefficients(degree, _pieces(degree, zeros, halves, ones))
    return tuple((c, UnivariateBSplineRef(degree, i)) for i, c in enumerate(coefs, 1) if c != 0)


# ---------------------------------------------------------------------------
# Edge restriction
# ---------------------------------------------------------------------------

def edge_key(edge) -> str:
    """Normalize an edge spec: 'e3'/'e1'/'e2' or a corner pair like (1, 2),
    naming an edge of geometry.EDGES; DomainError for anything else."""
    if isinstance(edge, str):
        if edge in EDGES:
            return edge
    else:
        try:
            pair = tuple(edge)
        except TypeError:  # not iterable
            pair = ()
        for name, (i, _, k) in EDGES.items():
            if pair in ((i, k), (k, i)):
                return name
    raise DomainError(f"unknown edge {edge!r}")


@dataclass(frozen=True)
class EdgeRestriction:
    """A combination sum coef * B of univariate B-splines on an edge."""

    terms: tuple  # of (Fraction, UnivariateBSplineRef)

    def __call__(self, t):
        return sum((coef * bspline_derivative(ref, t, 0) for coef, ref in self.terms),
                   Fraction(0) if is_exact((t,)) else 0.0)


def restrict_to_edge(frame, K: KnotMultiset, edge) -> EdgeRestriction:
    """Restriction of Q[K] to a macro edge, as Table-4-style B-splines.

    The edge is parametrized from its first corner (t = 0) to its second
    (t = 1).  The result is zero unless all but one knot lie on the edge, in
    which case it is (area(T) / area([K])) times the B-spline on the knots
    {0^(mi), 1/2^(mj), 1^(mk)} -- a single shorthand for the usual windows,
    or a short exact combination when the midpoint knot is undersupplied.
    """
    K = knots(K)
    if knot_count(K) < 3:
        raise TooFewKnots(f"|K| = {knot_count(K)} < 3")
    i, j, k = EDGES[edge_key(edge)]
    on_edge = K[i - 1] + K[j - 1] + K[k - 1]
    n = knot_count(K)
    act = active_indices(K)
    if hull_area(act) == 0 or on_edge < n - 1 or on_edge == n:
        return EdgeRestriction(())
    ratio = HALF / hull_area(act)
    terms = expand_window(n - 3, K[i - 1], K[j - 1], K[k - 1])
    return EdgeRestriction(tuple((ratio * c, ref) for c, ref in terms))


# ---------------------------------------------------------------------------
# Derivatives and knot insertion
# ---------------------------------------------------------------------------

def _combination_over_active(K: KnotMultiset, coeffs3: tuple):
    """Represent a corner combination over K's active knots.

    coeffs3 are exact coefficients over the corners: a point (summing to 1)
    or a direction (summing to 0).  Returns a dict
    {vertex index: coefficient} supported on the lowest-index independent
    triple, rewriting each corner vi through its exact barycentric
    coordinates with respect to that triple; None when there is no triple.
    """
    act = active_indices(K)
    tri = _independent_triple(act)
    if tri is None:
        return None
    den, vb = _vertex_bary(tri)
    out = {idx: Fraction(sum(c * vb[corner][n] for corner, c in enumerate(coeffs3)), den)
           for n, idx in enumerate(tri)}
    return {i: c for i, c in out.items() if c}


def derivative_expansion(K: KnotMultiset, direction, order: int = 1) -> list:
    """Expand D^order Q[K] along a corner triple direction (summing to 0)
    as [(coef, multiset)] terms, by D Q[K] = (|K| - 3) sum_j a_j Q[K - e_j]
    with direction = sum_j a_j v_j over K's lowest-index independent triple;
    the factor |K| - 3 per differentiation is in the coefficients."""
    corner_dir = tuple(map(Fraction, direction))
    terms = [(Fraction(1), knots(K))]
    for _ in range(order):
        nxt = {}
        for coef, m in terms:
            rep = _combination_over_active(m, corner_dir)
            if rep is None:
                continue
            n = sum(m)
            for idx, a in rep.items():
                child = m[:idx - 1] + (m[idx - 1] - 1,) + m[idx:]
                nxt[child] = nxt.get(child, 0) + coef * (n - 3) * a
        terms = [(c, m) for m, c in nxt.items() if c]
    return terms


def insert_knot(K: KnotMultiset, y: int) -> list:
    """Rewrite Q[K] over the multiset with vertex y inserted.

    Returns [(coef, multiset)] with each multiset (K + y) minus one knot,
    summing pointwise to Q[K]: the weights are the barycentric coordinates
    of v_y on the lowest-index independent triple of K's knots.  Raises
    DomainError unless y is an int in 1..10, and when K's knots have no
    independent triple.
    """
    K = knots(K)
    if not _is_int(y) or not 1 <= y <= 10:
        raise DomainError(f"knot to insert must be a vertex index 1..10, not {y!r}")
    rep = _combination_over_active(K, VERTEX_BARY[y - 1])
    if rep is None:
        raise DomainError("knot set has no affinely independent triple")
    enlarged = list(K)
    enlarged[y - 1] += 1
    out = []
    for idx, w in rep.items():
        child = list(enlarged)
        child[idx - 1] -= 1
        out.append((w, tuple(child)))
    return out
