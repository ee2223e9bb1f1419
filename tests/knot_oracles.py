"""The knot-multiset route to derivatives, edge restrictions, knot windows
and knot insertion.

The tests' oracles for what the library reads off its per-face tables:
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

from ps12splines.bspline1d import (UnivariateBSplineRef, _is_int, _pieces, bspline_coefficients,
                                   bspline_derivative)
from ps12splines.errors import DomainError, TooFewKnots
from ps12splines.geometry import EDGES, VERTEX_BARY
from ps12splines.rational import is_exact
from ps12splines.simplex_spline import (KnotMultiset, _independent_triple, _vertex_bary,
                                        active_indices, hull_area, knot_count, knots)

HALF = Fraction(1, 2)


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
