"""Area-normalized simplex splines on the 12-split.

A spline Q[K] is identified by a multiplicity vector K = (m1, ..., m10) over
the split vertices; its degree is |K| - 3.  It is defined by the recursion

    Q[K](x) = sum_j b_j Q[K \\ vj](x),      |K| > 3,

with x = sum_j b_j vj a barycentric representation supported on three
affinely independent active knots (the lowest-index valid triple, so results
are reproducible), and the |K| = 3 base case an indicator of the half-open
support scaled by area(T) / area([K]).

The recursion runs once per multiset, face by face on Bernstein forms
(_face_ordinates), and every value and derivative is read off those tables
on one route: a point in geometry._bary's form (integers over d > 0 when
exact), its face by _locate, face barycentrics by face_bary, and the row of
functional_row, whose dot product with a face table is the value or a
derivative there; derivative dots the value row with a table differenced by
_differences, the one Bernstein differencing pass (assembly's join check and
restriction tables run it too).  quintic_form writes out the value row's dot
product and float_value is its float route.  The Fraction route and the
knot-multiset expansion of derivatives are the tests' oracles.

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
from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate, combinations, islice
from math import comb, factorial, gcd, inf, isfinite, lcm
from operator import add, mul

from .errors import DimensionMismatch, DomainError, InvalidDirection, OutsideDomain, TooFewKnots
from .geometry import (EDGES, FACES, FLOAT_FACE_MATRICES, INTERIOR_LINES, PS12Frame, Point2,
                       _as_bary, _bary, _direction, _frame, face_bary, locate_face_bary,
                       reference_frame, signed_area2, snap_bary)
from .rational import _dyadic, common_denominator, finite_numbers, is_exact, short_form

KnotMultiset = tuple  # 10 nonnegative ints


def knots(spec) -> KnotMultiset:
    """Build a multiplicity vector from digits like '600101' or a sequence.

    Short digit strings address vertices 1..6 (the usual quintic case);
    trailing zeros for vertices up to 10 are implied.  Raises DomainError
    unless spec is a string or a sequence and every entry is a digit or a
    nonnegative int (not a bool).
    """
    if isinstance(spec, str):
        m = tuple(map("0123456789".find, spec))
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


# ---------------------------------------------------------------------------
# Evaluation and differentiation
# ---------------------------------------------------------------------------

def _checked(frame, K) -> tuple:
    """(frame, K, degree(K)): DomainError unless frame is a PS12Frame, TooFewKnots when |K| < 3."""
    frame, K = _frame(frame), knots(K)
    if (deg := degree(K)) < 0:
        raise TooFewKnots(f"|K| = {deg + 3} < 3")
    return frame, K, deg


# No caller in src/: tests/test_acceptance.py calls it.
def eval_simplex(frame: PS12Frame, K: KnotMultiset, p: Point2):
    """Value of Q[K] at p: derivative(frame, K, (0, 0, 0), 0)(p), without its direction checks."""
    return _derivative_at(*_checked(frame, K), 0, 1, (), {}, p)


def derivative(frame: PS12Frame, K: KnotMultiset, direction, order: int = 1):
    """Directional derivative D^order Q[K] along direction, three corner
    coefficients a summing to 0 (the vector a1 v1 + a2 v2 + a3 v3), as a
    function of points of the frame.

    Its value at p is functional_row's degree-(degree(K) - order) value row
    there dotted with Q[K]'s table on that face differenced order times along
    a (_differences on its rows of fixed first exponent), once per face:
    one-sided on the face the half-open convention picks, 0 outside the
    closed macrotriangle.  A float point is taken at the binary rationals b2,
    b3 of its barycentrics, b1 = 1 - b2 - b3, and the exact value there
    returned as float.  DomainError unless frame is a PS12Frame, TooFewKnots
    when |K| < 3, InvalidDirection unless a is three exact or finite numbers
    summing to 0 and order an int in 0..degree(K); at p, DomainError unless
    a pair, OutsideDomain if not finite.
    """
    frame, K, deg = _checked(frame, K)
    try:
        dden, delta = common_denominator([x if isinstance(x, (int, Fraction)) else Fraction(x)
                                          for x in finite_numbers(direction, "a direction")])
    except DomainError as exc:
        raise InvalidDirection(str(exc)) from None
    if len(delta) != 3 or sum(delta):
        raise InvalidDirection(f"a direction is 3 corner coefficients summing to 0, "
                               f"not {direction!r}")
    if isinstance(order, bool) or not isinstance(order, int) or not 0 <= order <= deg:
        raise InvalidDirection(f"order {order!r} is not an int in 0..{deg}")
    return partial(_derivative_at, frame, K, deg, order, dden, delta, {})


def _derivative_at(frame, K, deg, order, dden, delta, tables, p):
    """derivative's value at p along delta / dden; tables, face -> Q[K]'s table differenced."""
    d, beta = _bary(frame, p)
    if not (exact := d is not None):  # a float point, b2 and b3 as binary rationals
        if not isfinite(beta[0] + beta[1] + beta[2]):
            raise OutsideDomain(f"point {tuple(p)} is not finite")
        d, (n2, n3) = _dyadic(beta[1:])
        beta = (d - n2 - n3, n2, n3)
    val = Fraction(0)
    if min(beta) >= 0:
        fi, rden, row = functional_row(d, beta, (), deg - order)
        den, faces = _face_ordinates(K)
        if c := faces[fi - 1]:
            if order and fi not in tables:  # rows of fixed first exponent, differenced
                _, g = face_bary(fi, delta, dden)
                ords = iter(c)
                t = [list(islice(ords, deg + 1 - i)) for i in range(deg + 1)]
                *_, t = _differences(t, [g[::-1]] * order, deg)
                tables[fi] = [x for r in t for x in r]
            val = Fraction(sum(map(mul, row, tables.get(fi, c))), rden * den * dden ** order)
    return val if exact else float(val)


# ---------------------------------------------------------------------------
# Integral, smoothness
# ---------------------------------------------------------------------------

def integral(frame: PS12Frame, K: KnotMultiset) -> Fraction:
    """Exact integral of Q[K] over the plane: area(T) / C(|K|-1, 2)."""
    frame, K = _frame(frame), knots(K)
    n = knot_count(K)
    if n < 3:
        raise TooFewKnots(f"|K| = {n} < 3")
    if _independent_triple(active_indices(K)) is None:
        return Fraction(0)
    return abs(Fraction(frame.area)) / comb(n - 1, 2)


def smoothness_order(K: KnotMultiset, interior_line) -> int:
    """|K| - (knots on the line's affine hull) - 2.

    interior_line is an index into INTERIOR_LINES (0..5) or the tuple of
    vertex indices on the line.  The value bounds how many continuous
    derivatives Q[K] has across the line; it is vacuous (the spline has no
    crease there) when fewer than two distinct knots lie on the hull.
    Raises DomainError for an index outside 0..5 and for a tuple that is
    not of vertex indices 1..10.
    """
    K = knots(K)
    if isinstance(interior_line, int):
        if isinstance(interior_line, bool) or not 0 <= interior_line < len(INTERIOR_LINES):
            raise DomainError(f"interior line index must be 0..5, not {interior_line!r}")
        interior_line = INTERIOR_LINES[interior_line]
    try:
        ok = all(isinstance(i, int) and 1 <= i <= 10 for i in interior_line)
    except TypeError:  # not iterable
        ok = False
    if not ok:
        raise DomainError(f"an interior line is a tuple of vertex indices 1..10, "
                          f"not {interior_line!r}")
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


def _differences(t, gs, deg: int):
    """Rows t[l][i] = c[deg - l - i, i, l] of a degree-deg Bernstein form (in some corner order),
    then after each pass j along the face-directional triple gs[j]: t[l][i] <- (deg - j) (g0
    t[l][i] + g1 t[l][i+1] + g2 t[l+1][i]), the derivative along it, one row fewer."""
    yield t
    for j, (g0, g1, g2) in enumerate(gs):
        g0, g1, g2 = (deg - j) * g0, (deg - j) * g1, (deg - j) * g2
        t = [[g0 * x + g1 * y + g2 * z for x, y, z in zip(r, r[1:], r1)] for r, r1 in zip(t, t[1:])]
        yield t


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
    D, and the result over D * L * d.  Triples are those of the recursion
    in the module docstring.  The degree-0 base is area(T) / area([m]) on
    the faces whose centroid has nonnegative barycentrics with respect to
    the three knots, and zero elsewhere: on the faces of the knot triangle
    when its sides run along lines of the split, as they do for any three
    knots among v1..v6.  A side on no such line crosses a face, so a
    recursion that reaches such a triangle raises DomainError.  Cached per
    multiset, so splines that share sub-multisets share their tables.
    """
    act = active_indices(m)
    tri = _independent_triple(act)
    if tri is None:
        return 1, (None,) * 12
    lden, vb = _vertex_bary(tri)
    if sum(m) == 3:
        lines = (*EDGES.values(), *INTERIOR_LINES)
        if not all(any({i, j} <= set(line) for line in lines) for i, j in combinations(tri, 2)):
            raise DomainError(f"knot triangle {tri} has a side across a face of the split")
        # summing the face corners' rows gives 3 * lden times the centroid's
        # barycentrics with respect to tri, and lden > 0; area(T) = 1/2, and
        # on _ref_points twice the knot triangle's area is 2 * 12^2 area([m])
        base = Fraction(_REF_SCALE ** 2, abs(signed_area2(*(_ref_points()[i - 1] for i in tri))))
        return base.denominator, tuple(
            (base.numerator,) if min(map(sum, zip(*(vb[v - 1] for v in corners)))) >= 0 else None
            for corners in FACES)
    deg = sum(m) - 3
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


# No caller in src/: tests/test_acceptance.py and perfbench's search set-up call it.
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
    """Degree-deg Bernstein polynomials at face barycentrics g in bernstein_exponents(deg)
    order, integer g / D giving the row over D^deg; powers by repeated products."""
    p0, p1, p2 = (list(accumulate([x] * deg, mul, initial=1)) for x in g)
    return [m * p0[a] * p1[b] * p2[c] for m, a, b, c in _row_terms(deg)]


def _locate(beta, d=None) -> tuple:
    """(face, beta) by locate_face_bary on integers beta / d, d > 0, or on float beta (d None),
    taken as it is inside (b >= 0, finite), else as floats, snapped; OutsideDomain outside
    (exact beta named to six digits), DimensionMismatch unless beta has three coordinates."""
    try:
        b1, b2, b3 = beta
    except ValueError:
        raise DimensionMismatch(f"barycentric coordinates are a triple, "
                                f"not {len(beta)} numbers") from None
    if d is not None:
        fi = locate_face_bary(b1, b2, b3, d)
    elif b1 >= 0 and b2 >= 0 and b3 >= 0 and b1 + b2 + b3 < inf:  # NaN fails too
        fi = locate_face_bary(b1, b2, b3)
    else:  # outside, roundoff or not finite: as floats, snapped
        b1, b2, b3 = beta = snap_bary(tuple(map(float, beta)))
        # an infinite coordinate passes the sign tests of locate_face_bary
        fi = locate_face_bary(b1, b2, b3) if isfinite(b1 + b2 + b3) else None
    if fi is None:
        coords = ", ".join(str(b) if d is None else short_form(Fraction(b, d)) for b in beta)
        raise OutsideDomain(f"point with barycentric coordinates ({coords}) "
                            "outside the macrotriangle")
    return fi, beta


def functional_row(d, beta, deltas=(), deg: int = 5) -> tuple:
    """(face, D, row) with sum(row[s] * ords[s]) / D the value at beta / d, after one
    derivative along each macro-directional delta / dd of deltas' (dd, delta), of a degree-deg
    form with ordinates ords on that face; beta and deltas in geometry._bary's form (integers
    over d > 0, or floats with d None).  The face is _locate's; each derivative, one-sided on
    it, is carried up a degree by the adjoint of the Bernstein derivative step.  Integers give
    integers over one D, any float input floats over D = 1 (exact parts rounded once)."""
    exact = d is not None
    fi, beta = _locate(beta, d)
    k = deg - len(deltas)
    den, g = face_bary(fi, beta, d)
    row, den = bernstein_row(g, k), den ** k
    for dden, delta in deltas:
        k += 1
        e, g = face_bary(fi, delta, dden)
        if exact and dden is None:  # a float direction at an exact point
            exact, row, den = False, [r / den for r in row], 1
        den *= e if exact else 1
        coef = [k * x if exact else k * x / e for x in g]
        up = [0] * ((k + 1) * (k + 2) // 2)
        for r, step in zip(row, _degree_step(k)):
            if r:
                for c, (i, _) in zip(coef, step):
                    if c:
                        up[i] += c * r
        row = up
    return fi, den, row


def quintic_form(o, x, y, z):
    """Ordinates o times the quintic Bernstein row at face barycentrics (x, y, z), written
    out: o[k] * (m * x**a * y**b * z**c) over _row_terms(5), powers by repeated products,
    factors of 1 left out (exact in IEEE), terms added left to right from int 0 (0 + -0.0
    is 0.0); the bits of bernstein_row and that sum, on ints, floats or numpy columns."""
    x2, y2, z2 = x * x, y * y, z * z
    x3, y3, z3 = x2 * x, y2 * y, z2 * z
    x4, y4, z4 = x3 * x, y3 * y, z3 * z
    return (0 + o[0] * (z4 * z) + o[1] * (5 * y * z4) + o[2] * (10 * y2 * z3)
            + o[3] * (10 * y3 * z2) + o[4] * (5 * y4 * z) + o[5] * (y4 * y) + o[6] * (5 * x * z4)
            + o[7] * (20 * x * y * z3) + o[8] * (30 * x * y2 * z2) + o[9] * (20 * x * y3 * z)
            + o[10] * (5 * x * y4) + o[11] * (10 * x2 * z3) + o[12] * (30 * x2 * y * z2)
            + o[13] * (30 * x2 * y2 * z) + o[14] * (10 * x2 * y3) + o[15] * (10 * x3 * z2)
            + o[16] * (20 * x3 * y * z) + o[17] * (10 * x3 * y2) + o[18] * (5 * x4 * z)
            + o[19] * (5 * x4 * y) + o[20] * (x4 * x))


def float_value(ords, beta) -> float:
    """Value at float macro-barycentrics beta of the quintic with face ordinates ords (12 x 21):
    _locate's face, its three FLOAT_FACE_MATRICES rows, then quintic_form, as eval_many does
    on columns; OutsideDomain outside the triangle."""
    fi, (b1, b2, b3) = _locate(beta)
    (r1, r2, r3), (s1, s2, s3), (t1, t2, t3) = FLOAT_FACE_MATRICES[fi - 1]
    return quintic_form(ords[fi - 1], r1 * b1 + r2 * b2 + r3 * b3,
                        s1 * b1 + s2 * b2 + s3 * b3, t1 * b1 + t2 * b2 + t3 * b3)


@dataclass(frozen=True)
class FaceForms:
    """A quintic piecewise polynomial on the split: one Bernstein form per face; its plain
    value at float barycentrics is float_value, as in eval_spline."""

    frame: PS12Frame
    ords: tuple  # 12 x tuple of 21 ordinates

    def value_at_bary(self, beta, directions=()):
        """Value at macro-barycentrics beta after one derivative, one-sided on the point's face,
        along each vector (a pair) of directions; OutsideDomain outside, DomainError off pairs."""
        return self._value(*_as_bary(beta), directions)

    def _value(self, d, beta, directions):
        """value_at_bary at beta in _bary's form; an exact row meets exact ordinates as integers."""
        if not directions and d is None:
            return float_value(self.ords, beta)
        deltas = [_direction(self.frame, u) for u in directions]
        fi, den, row = functional_row(d, beta, deltas)
        if is_exact(row) and (ints := self._int_ords[fi - 1]):
            return Fraction(sum(map(mul, ints[1], row)), den * ints[0])
        if den != 1:  # float ordinates at an exact point take the row entries rounded
            row = [r / den for r in row]
        # left to right from 0, as eval_many adds (sum() compensates floats from Python 3.12)
        return reduce(add, map(mul, self.ords[fi - 1], row), 0)

    @cached_property
    def _int_ords(self) -> tuple:
        """Per face, common_denominator of exact ordinates, None for others; made on first read."""
        return tuple(common_denominator(o) if is_exact(o) else None for o in self.ords)
