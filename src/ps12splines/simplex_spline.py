"""Area-normalized simplex splines on the 12-split.

A spline Q[K] is identified by a multiplicity vector K = (m1, ..., m10) over
the split vertices; its degree is |K| - 3.  It is defined by the recursion

    Q[K](x) = sum_j b_j Q[K \\ vj](x),      |K| > 3,

with x = sum_j b_j vj a barycentric representation supported on three
affinely independent active knots (the lowest-index valid triple, so results
are reproducible), and the |K| = 3 base case an indicator of the half-open
support scaled by area(T) / area([K]).

The recursion runs once per multiset, face by face on Bernstein forms
(_face_ordinates), and every value and derivative is read from the
resulting per-face tables: functional_row is the one place that locates a
point and builds the Bernstein row whose dot product with a face table is a
value or a derivative there.  eval_simplex, derivative, the dual
functionals and the spline layer all go through it.

Everything is exact on the reference frame, taken scaled by 12 so that the
ten split vertices are integer points (the per-face recursion runs on
integers, see _face_ordinates); general frames enter only through
barycentric coordinates (affine maps carry the spline along with them).
Exact Bernstein rows and tables are integers over one common denominator,
divided once per result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import comb, factorial, gcd, isfinite, lcm
from operator import add, mul

from .errors import DomainError, InvalidDirection, InvalidWeights, OutsideDomain, TooFewKnots
from .geometry import (
    FACES,
    INTERIOR_LINES,
    PS12Frame,
    Point2,
    VERTEX_BARY,
    direction_coords,
    face_bary,
    locate_face_bary,
    reference_frame,
    signed_area2,
    to_bary,
)
from .rational import is_exact

KnotMultiset = tuple  # 10 nonnegative ints


def knots(spec) -> KnotMultiset:
    """Build a multiplicity vector from digits like '600101' or a sequence.

    Short digit strings address vertices 1..6 (the usual quintic case);
    trailing zeros for vertices up to 10 are implied.  Raises DomainError
    unless spec is a string or a sequence and every entry is a digit or a
    nonnegative int (not a bool).
    """
    if isinstance(spec, str):
        m = tuple("0123456789".find(ch) for ch in spec)
    else:
        try:
            m = tuple(x if isinstance(x, int) and not isinstance(x, bool) else -1 for x in spec)
        except TypeError:  # not iterable
            raise DomainError(f"bad multiplicity vector {spec!r}") from None
    if len(m) > 10 or any(x < 0 for x in m):
        raise DomainError(f"bad multiplicity vector {spec!r}")
    return m + (0,) * (10 - len(m))


def knot_count(K: KnotMultiset) -> int:
    return sum(K)


def degree(K: KnotMultiset) -> int:
    return knot_count(K) - 3


def knot_label(K: KnotMultiset) -> str:
    """Compact 6-digit label when only vertices 1..6 carry knots."""
    if any(K[6:]):
        return "".join(str(x) for x in K)
    return "".join(str(x) for x in K[:6])


def active_indices(K: KnotMultiset) -> tuple:
    """1-based vertex indices with positive multiplicity."""
    return tuple(i + 1 for i in range(10) if K[i] > 0)


# ---------------------------------------------------------------------------
# Reference-frame point tables
# ---------------------------------------------------------------------------

#: The reference frame scaled by 12, which makes all ten split vertices
#: integer points.  Sign tests and barycentric ratios do not change under
#: the scaling; areas shrink back by 12^2.
_REF_SCALE = 12


@lru_cache(maxsize=1)
def _ref_points() -> tuple:
    return tuple(Point2(int(_REF_SCALE * p.x), int(_REF_SCALE * p.y))
                 for p in reference_frame().v)


@lru_cache(maxsize=None)
def _independent_triple(act: tuple):
    """Lowest-index affinely independent triple among active vertices."""
    pts = _ref_points()
    for tri in combinations(act, 3):
        if signed_area2(*(pts[i - 1] for i in tri)) != 0:
            return tri
    return None


@lru_cache(maxsize=None)
def _vertex_bary(tri: tuple) -> tuple:
    """(L, rows): barycentrics of the ten split vertices with respect to a
    triple, as integer numerators over their lcm L."""
    a, b, c = (_ref_points()[i - 1] for i in tri)
    den = signed_area2(a, b, c)
    rows = [(signed_area2(p, b, c), signed_area2(a, p, c), signed_area2(a, b, p))
            for p in _ref_points()]
    # dividing by the gcd of the denominator and all numerators leaves the
    # lcm of the reduced denominators
    g = gcd(den, *(w for row in rows for w in row))
    if den < 0:
        g = -g
    return den // g, tuple(tuple(w // g for w in row) for row in rows)


@lru_cache(maxsize=None)
def _hull_edges(act: tuple) -> list:
    """Counterclockwise edges of the convex hull of the given vertex indices
    on the integer points of _ref_points (Andrew monotone chain); none when
    the points are collinear."""
    pts = sorted({_ref_points()[i - 1] for i in act})

    def build(points):
        chain = []
        for p in points:
            while len(chain) >= 2 and signed_area2(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain
    hull = build(pts)[:-1] + build(pts[::-1])[:-1]
    return list(zip(hull, hull[1:] + hull[:1])) if len(hull) >= 3 else []


@lru_cache(maxsize=None)
def hull_area(act: tuple) -> Fraction:
    """Area of the convex hull of the given vertex indices (reference frame).

    Computed on the integer points of _ref_points, where twice the area is
    an integer, and divided back by 12^2.
    """
    s = sum(a.x * b.y - b.x * a.y for a, b in _hull_edges(act))
    return Fraction(abs(s), 2 * _REF_SCALE ** 2)


@lru_cache(maxsize=None)
def support_faces(act: tuple) -> tuple:
    """Face indices whose closed face lies inside the hull of the knots: the
    faces whose centroid lies in the closed hull."""
    ref, edges = _ref_points(), _hull_edges(act)
    out = []
    for fi, corners in enumerate(FACES, 1):
        a, b, c = (ref[i - 1] for i in corners)
        # three times the centroid against the hull scaled by 3: integers
        cen3 = Point2(a.x + b.x + c.x, a.y + b.y + c.y)
        if edges and all(signed_area2(Point2(3 * p.x, 3 * p.y), Point2(3 * q.x, 3 * q.y), cen3) >= 0
                         for p, q in edges):
            out.append(fi)
    return tuple(out)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_simplex(frame: PS12Frame, K: KnotMultiset, p: Point2):
    """Exact value of Q[K] at p: the located Bernstein row times Q[K]'s
    table on that face, zero outside the closed macrotriangle and on faces
    outside the support.

    Float barycentrics, which need not sum to 1, are converted to exact
    binary rationals; the point (1 - b2 - b3, b2, b3) they give is located,
    evaluated exactly and returned as float, so the half-open convention is
    applied without roundoff ambiguity.  A NaN or infinite coordinate raises
    OutsideDomain.
    """
    K = knots(K)
    if knot_count(K) < 3:
        raise TooFewKnots(f"|K| = {knot_count(K)} < 3")
    beta = to_bary(frame, Point2(*p))
    if not (is_exact(beta) or isfinite(sum(beta))):
        raise OutsideDomain(f"point {tuple(p)} is not finite")
    _, b2, b3 = map(Fraction, beta)
    exact_beta = (1 - b2 - b3, b2, b3)
    val = Fraction(0)
    if min(exact_beta) >= 0:
        fi, rden, row = functional_row(exact_beta, (), degree(K))
        den, faces = _face_ordinates(K)
        if faces[fi - 1]:
            val = Fraction(sum(map(mul, row, faces[fi - 1])), rden * den)
    return val if is_exact(beta) else float(val)


# ---------------------------------------------------------------------------
# Differentiation and knot insertion
# ---------------------------------------------------------------------------

def _combination_over_active(K: KnotMultiset, coeffs3: tuple):
    """Represent a corner combination over K's active knots.

    coeffs3 are coefficients over the corners (any ring with +, * Fraction):
    a point (summing to 1) or a direction (summing to 0).  Returns a dict
    {vertex index: coefficient} supported on the lowest-index independent
    triple, rewriting each corner vi through its exact barycentric
    coordinates with respect to that triple; None when there is no triple.
    """
    act = active_indices(K)
    tri = _independent_triple(act)
    if tri is None:
        return None
    den, vb = _vertex_bary(tri)
    out = {}
    for corner in range(3):
        coef = coeffs3[corner]
        if not coef:
            continue
        for w, idx in zip(vb[corner], tri):
            if w != 0:
                out[idx] = out.get(idx, 0) + coef * Fraction(w, den)
    return {i: c for i, c in out.items() if c}


def _normalize_weights10(K, vec, want_sum):
    err = InvalidDirection if want_sum == 0 else InvalidWeights
    vec = tuple(Fraction(x) for x in vec)
    if sum(vec) != want_sum:
        raise err(f"coefficients sum to {sum(vec)}, expected {want_sum}")
    for i in range(10):
        if vec[i] != 0 and K[i] == 0:
            raise err(f"nonzero coefficient on inactive knot v{i + 1}")
    return {i + 1: vec[i] for i in range(10) if vec[i] != 0}


def derivative_expansion(K: KnotMultiset, direction, order: int = 1) -> list:
    """Expand D^order in the given direction as [(coef, multiset)] terms.

    direction is a directional triple over the corners (sums to 0) or an
    explicit 10-vector of coefficients over the knots, used as given for the
    first differentiation and through its corner triple after that.  The
    factor |K| - 3 per differentiation is included in the coefficients.
    Raises InvalidDirection for any other number of entries and for an
    order outside 0..degree.
    """
    K = knots(K)
    if len(direction) not in (3, 10):
        raise InvalidDirection(f"a direction has 3 corner or 10 knot coefficients, "
                               f"not {len(direction)}")
    if not 0 <= order <= degree(K):
        raise InvalidDirection(f"order {order} outside 0..{degree(K)}")
    if len(direction) == 10:
        rep = _normalize_weights10(K, direction, 0)
        corner_dir = tuple(sum(a * VERTEX_BARY[i - 1][r] for i, a in rep.items())
                           for r in range(3))
        return _derivative_terms(K, corner_dir, order, rep)
    d = tuple(Fraction(x) for x in direction)
    if sum(d) != 0:
        raise InvalidDirection(f"directional coordinates sum to {sum(d)} != 0")
    return _derivative_terms(K, d, order)


def _derivative_terms(K: KnotMultiset, corner_dir, order: int, first=None) -> list:
    """The recursion behind derivative_expansion, unchecked.

    corner_dir may hold coefficients of any ring with +, * Fraction (TriPoly
    gives the expansion for a symbolic direction); first, when given, is the
    knot representation used for the first differentiation.
    """
    terms = [(Fraction(1), K)]
    for level in range(order):
        nxt = {}
        for coef, m in terms:
            rep = first if (level == 0 and first is not None) else _combination_over_active(m, corner_dir)
            if rep is None:
                continue
            n = sum(m)
            for idx, a in rep.items():
                child = m[:idx - 1] + (m[idx - 1] - 1,) + m[idx:]
                add = coef * (n - 3) * a
                nxt[child] = nxt[child] + add if child in nxt else add
        terms = [(c, m) for m, c in nxt.items() if c]
    return terms


def derivative(frame: PS12Frame, K: KnotMultiset, direction, order: int = 1):
    """Directional derivative D^order Q[K] as an evaluable function.

    The returned callable evaluates the exact expansion at points of the
    frame; its ``terms`` attribute holds the [(coef, multiset)] combination.
    """
    terms = [(Fraction(1), knots(K))] if order == 0 else derivative_expansion(K, direction, order)

    def fn(p):
        return sum((c * eval_simplex(frame, m, p) for c, m in terms), start=Fraction(0))

    fn.terms = terms
    return fn


def insert_knot(K: KnotMultiset, y: int, weights=None) -> list:
    """Rewrite Q[K] over the multiset with vertex y inserted.

    Returns [(coef, multiset)] with each multiset (K + y) minus one knot,
    summing pointwise to Q[K].  y is a 1-based vertex index; explicit
    weights (a 10-vector over the knots of K, summing to 1) may be supplied,
    otherwise the barycentric representation of v_y on the lowest-index
    independent triple is used.  Raises DomainError unless y is an int in
    1..10.
    """
    K = knots(K)
    if isinstance(y, bool) or not isinstance(y, int) or not 1 <= y <= 10:
        raise DomainError(f"knot to insert must be a vertex index 1..10, not {y!r}")
    if weights is not None:
        rep = _normalize_weights10(K, weights, 1)
    else:
        rep = _combination_over_active(K, VERTEX_BARY[y - 1])
        if rep is None:
            raise InvalidWeights("knot set has no affinely independent triple")
    enlarged = list(K)
    enlarged[y - 1] += 1
    out = []
    for idx, w in rep.items():
        child = list(enlarged)
        child[idx - 1] -= 1
        out.append((w, tuple(child)))
    return out


# ---------------------------------------------------------------------------
# Edge restriction, integral, smoothness
# ---------------------------------------------------------------------------

#: Canonical macro edges by name: (start corner, midpoint, end corner).
EDGES = {"e3": (1, 4, 2), "e1": (2, 5, 3), "e2": (3, 6, 1)}


def edge_key(edge) -> str:
    """Normalize an edge spec: 'e3'/'e1'/'e2' or a corner pair like (1, 2)."""
    if isinstance(edge, str):
        if edge not in EDGES:
            raise DomainError(f"unknown edge {edge!r}")
        return edge
    pair = tuple(edge)
    for name, (i, _, k) in EDGES.items():
        if pair in ((i, k), (k, i)):
            return name
    raise DomainError(f"unknown edge {edge!r}")


@dataclass(frozen=True)
class EdgeRestriction:
    """A combination sum coef * B of univariate B-splines on an edge."""

    terms: tuple  # of (Fraction, UnivariateBSplineRef)

    def __call__(self, t):
        from .bspline1d import bspline_value
        return sum((coef * bspline_value(ref, t) for coef, ref in self.terms),
                   Fraction(0) if is_exact((t,)) else 0.0)


def restrict_to_edge(frame: PS12Frame, K: KnotMultiset, edge) -> EdgeRestriction:
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
    from .bspline1d import expand_window
    ratio = Fraction(1, 2) / hull_area(act)
    terms = expand_window(n - 3, K[i - 1], K[j - 1], K[k - 1])
    return EdgeRestriction(tuple((ratio * c, ref) for c, ref in terms))


def integral(frame: PS12Frame, K: KnotMultiset) -> Fraction:
    """Exact integral of Q[K] over the plane: area(T) / C(|K|-1, 2)."""
    K = knots(K)
    n = knot_count(K)
    if n < 3:
        raise TooFewKnots(f"|K| = {n} < 3")
    if hull_area(active_indices(K)) == 0:
        return Fraction(0)
    return abs(Fraction(frame.area)) / comb(n - 1, 2)


def smoothness_order(K: KnotMultiset, interior_line) -> int:
    """|K| - (knots on the line's affine hull) - 2.

    interior_line is an index into INTERIOR_LINES (0..5) or the tuple of
    vertex indices on the line.  The value bounds how many continuous
    derivatives Q[K] has across the line; it is vacuous (the spline has no
    crease there) when fewer than two distinct knots lie on the hull.
    Raises DomainError for an index outside 0..5.
    """
    K = knots(K)
    if isinstance(interior_line, int):
        if isinstance(interior_line, bool) or not 0 <= interior_line < len(INTERIOR_LINES):
            raise DomainError(f"interior line index must be 0..5, not {interior_line!r}")
        interior_line = INTERIOR_LINES[interior_line]
    count = sum(K[i - 1] for i in interior_line)
    return knot_count(K) - count - 2


# ---------------------------------------------------------------------------
# Per-face Bernstein extraction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernstein_exponents(deg: int) -> tuple:
    """Exponent order of the degree-deg ordinates in every face table."""
    return tuple((i, j, deg - i - j) for i in range(deg + 1) for j in range(deg + 1 - i))


@lru_cache(maxsize=None)
def _row_terms(deg: int) -> tuple:
    """(multinomial, a, b, c) of the degree-deg Bernstein polynomials, in table order."""
    return tuple((factorial(deg) // (factorial(a) * factorial(b) * factorial(c)), a, b, c)
                 for a, b, c in bernstein_exponents(deg))


@lru_cache(maxsize=None)
def _degree_step(deg: int) -> tuple:
    """For each exponent a of degree deg - 1, in table order and for r = 0,
    1, 2: the index of a + e_r among the degree-deg exponents and the
    integer a_r + 1, with gamma_r B_a^(deg-1) = (a_r + 1) / deg * B_(a+e_r)^deg."""
    index = {e: i for i, e in enumerate(bernstein_exponents(deg))}
    return tuple(tuple((index[a[:r] + (a[r] + 1,) + a[r + 1:]], a[r] + 1) for r in range(3))
                 for a in bernstein_exponents(deg - 1))


@lru_cache(maxsize=None)
def _face_ordinates(m: KnotMultiset) -> tuple:
    """(den, faces): Q[m]'s Bernstein ordinates on the 12 faces as integers
    over one gcd-reduced denominator den; a face is None where Q[m] is zero.

    Runs the defining recurrence Q[m] = sum_j b_j Q[m - e_j] face by face on
    Bernstein forms: on a face, b_j is the linear form sum_r l_r gamma_r in
    the face barycentrics gamma, with l_r its value at face corner r, and
    multiplying degree-(d-1) ordinates c by it gives the degree-d ordinates
    sum_r l_r (beta_r / d) c[beta - e_r].  Fraction-free, like Bareiss: the
    l_r are integers over L, the children go over their common denominator
    D, and the result over D * L * d.  Triples and the degree-0 base are
    those of the recursion in the module docstring.  Cached per multiset,
    so splines that share sub-multisets share their tables.
    """
    act = active_indices(m)
    tri = _independent_triple(act)
    if tri is None:
        return 1, (None,) * 12
    if sum(m) == 3:
        base = Fraction(1, 2) / hull_area(act)
        return base.denominator, tuple((base.numerator,) if fi in support_faces(act) else None
                                       for fi in range(1, 13))
    deg = sum(m) - 3
    lden, vb = _vertex_bary(tri)
    children = [_face_ordinates(m[:i - 1] + (m[i - 1] - 1,) + m[i:]) for i in tri]
    den = lcm(*(d for d, _ in children))
    faces = []
    for fi, corners in enumerate(FACES):
        acc = None
        for j, (cden, child) in enumerate(children):
            if child[fi] is None:
                continue
            if acc is None:
                acc = [0] * ((deg + 1) * (deg + 2) // 2)
            lform = tuple(vb[v - 1][j] * (den // cden) for v in corners)
            for c, step in zip(child[fi], _degree_step(deg)):
                if c:
                    for l, (i, f) in zip(lform, step):
                        if l:
                            acc[i] += l * f * c
        faces.append(acc)
    den *= lden * deg
    g = gcd(den, *(c for f in faces if f for c in f))
    return den // g, tuple(None if f is None else tuple(c // g for c in f) for f in faces)


def _quintic_ordinates(K) -> tuple:
    """_face_ordinates of a quintic K; DomainError unless |K| = 8."""
    K = knots(K)
    if knot_count(K) != 8:
        raise DomainError("per-face tables are kept for quintic knot vectors (|K| = 8)")
    return _face_ordinates(K)


def per_face_bernstein(frame: PS12Frame, K: KnotMultiset) -> tuple:
    """Exact quintic Bernstein ordinates of Q[K] on each of the 12 faces.

    Ordinates are indexed by bernstein_exponents(5) in each face's own
    barycentric coordinates; they depend only on K, not on the frame.
    Raises DomainError unless |K| = 8.
    """
    den, faces = _quintic_ordinates(K)
    return tuple(tuple(Fraction(c, den) for c in f or (0,) * 21) for f in faces)


# ---------------------------------------------------------------------------
# Piecewise-polynomial view (shared by functionals and spline evaluation)
# ---------------------------------------------------------------------------

def bernstein_row(g, deg: int = 5) -> list:
    """Degree-deg Bernstein polynomials at face barycentrics g, in the order
    of bernstein_exponents(deg): floats for floats, integers for integers
    (integer g / D gives the row over D^deg).  Powers come by repeated
    multiplication, the operations of the batch kernel spline_fn.eval_many."""
    x, y, z = g
    p0, p1, p2 = [1], [1], [1]
    for _ in range(deg):
        p0.append(p0[-1] * x)
        p1.append(p1[-1] * y)
        p2.append(p2[-1] * z)
    return [m * p0[a] * p1[b] * p2[c] for m, a, b, c in _row_terms(deg)]


SNAP_TOL = 1e-9  # float barycentrics down to -SNAP_TOL are boundary roundoff


def snap_bary(beta: tuple) -> tuple:
    """Float barycentrics with a negative part of at most SNAP_TOL set to
    zero and renormalised; others (genuine outside points too) unchanged."""
    if not -SNAP_TOL <= min(beta) < 0:
        return beta
    b1, b2, b3 = (max(x, 0.0) for x in beta)
    s = b1 + b2 + b3
    return b1 / s, b2 / s, b3 / s


def functional_row(beta, deltas=(), deg: int = 5) -> tuple:
    """(face, D, row) with sum(row[s] * ords[s]) / D the value at
    macro-barycentrics beta, after one derivative along each
    macro-directional triple in deltas, of any degree-deg form with
    ordinates ords on that face; functional_row(beta) is the value row.

    The one place that locates a point and builds a Bernstein row.  The face
    follows the half-open convention of locate_face_bary, derivatives are
    one-sided on it, and OutsideDomain is raised outside the closed
    macrotriangle, onto which float beta is snapped first (snap_bary).  The
    located degree-(deg - k) row is carried up one degree per derivative by
    the adjoint of the Bernstein derivative step, so a functional is one dot
    product with each face table.  Exact beta and deltas give integers over
    one denominator D; any float input gives floats over D = 1, exact
    partial results rounded once, as mixed Fraction and float arithmetic
    would round them.
    """
    exact = is_exact(beta)
    if not exact:
        beta = snap_bary(tuple(map(float, beta)))
    # an infinite coordinate passes the sign tests of locate_face_bary
    fi = locate_face_bary(*beta) if exact or isfinite(sum(beta)) else None
    if fi is None:
        raise OutsideDomain(f"point with barycentric coordinates "
                            f"({', '.join(map(str, beta))}) outside the macrotriangle")
    d = deg - len(deltas)
    den, g = face_bary(fi, beta)
    row = bernstein_row(g, d)
    den **= d
    for delta in deltas:
        d += 1
        dden, g = face_bary(fi, delta)
        if exact and isinstance(g[0], float):  # a float direction at an exact point
            exact, row, den = False, [r / den for r in row], 1
        if exact:
            den *= dden
            coef = [d * x for x in g]
        else:
            coef = [d * x / dden for x in g]
        up = [0] * ((d + 1) * (d + 2) // 2)
        for r, step in zip(row, _degree_step(d)):
            if r:
                for c, (i, _) in zip(coef, step):
                    if c:
                        up[i] += c * r
        row = up
    return fi, den, row


@dataclass(frozen=True)
class FaceForms:
    """A piecewise polynomial on the split: one Bernstein form per face."""

    frame: PS12Frame
    deg: int
    ords: tuple  # 12 x tuple of ordinates

    def value_at_bary(self, beta, directions=()):
        """Value at macro-barycentrics beta after one derivative along each
        Cartesian vector in directions (the plain value when there is none).

        Derivatives are taken on the face the half-open convention assigns
        to the point, so one-sided there.  Raises OutsideDomain outside the
        closed macrotriangle.
        """
        corners = self.frame.v[:3]
        fi, den, row = functional_row(beta, [direction_coords(corners, u) for u in directions],
                                      self.deg)
        ords = self.ords[fi - 1]
        if den != 1 and not is_exact(ords):
            # float ordinates at an exact point take the row entries rounded
            row, den = [r / den for r in row], 1
        # left to right from 0, as eval_many adds (sum() compensates floats from Python 3.12)
        total = reduce(add, map(mul, ords, row), 0)
        return total if isinstance(total, float) else Fraction(total, den)
