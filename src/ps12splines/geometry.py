"""Macrotriangle frame, 12-split vertices and faces, and point location.

Vertex numbering (1-based): 1..3 corners, 4 = mid(1,2), 5 = mid(2,3),
6 = mid(1,3), 7 = mid(4,6), 8 = mid(4,5), 9 = mid(5,6), 10 = centroid.
The twelve faces are the six outer triangles between the macro boundary and
the medial triangle, then the six inner triangles around the centroid:

    D1  = [v1, v4, v7]    D2  = [v4, v2, v8]    D3  = [v2, v5, v8]
    D4  = [v5, v3, v9]    D5  = [v3, v6, v9]    D6  = [v6, v1, v7]
    D7  = [v4, v8, v10]   D8  = [v8, v5, v10]   D9  = [v5, v9, v10]
    D10 = [v9, v6, v10]   D11 = [v6, v7, v10]   D12 = [v7, v4, v10]

Half-open convention: each point of the closed macrotriangle belongs to
exactly one face, chosen as the lowest-index face whose closed triangle
contains it, except v6, which lies in D5, D6, D10 and D11 and goes to D6.
In barycentric terms this is a fixed cascade of sign tests (corner sectors
split by the medians, the medial triangle split into six sectors by the
coordinate orderings); ties on interior edges go to the lower-numbered face
and the centroid lands in D7.  Any fixed convention satisfying the partition
property gives the same results for continuous splines; this one is
documented so that low-degree (discontinuous) splines evaluate reproducibly.
_bary gives an exact point of an exact frame as integer barycentrics over
one d > 0, any other point as bary_coords' floats; _direction does the same
for a vector, by the cross products of PS12Frame._int_direction.

This module holds the one description of the split that every other
module reads: VERTEX_BARY, FACES, the macro-edge table EDGES and
INTERIOR_LINES.  Symmetries: S3 acts on the macrotriangle by permuting
its corners, and an affine map permutes barycentric coordinates, so the
image of a split vertex is the split vertex whose barycentrics are the
permuted ones (s3_vertex_permutation reads it off VERTEX_BARY).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import inf, isfinite
from operator import add, mul
from typing import NamedTuple, Optional

from .errors import DegenerateTriangle, DimensionMismatch, DomainError
from .rational import common_denominator, finite_numbers, is_exact


class Point2(NamedTuple):
    x: object
    y: object


Bary3 = tuple  # (b1, b2, b3), summing to 1 for points and 0 for directions

#: Face corner indices, 1-based into the vertex list.
FACES = (
    (1, 4, 7), (4, 2, 8), (2, 5, 8), (5, 3, 9), (3, 6, 9), (6, 1, 7),
    (4, 8, 10), (8, 5, 10), (5, 9, 10), (9, 6, 10), (6, 7, 10), (7, 4, 10),
)

#: The macro edges by name, in the canonical order e3, e1, e2: (start
#: corner, midpoint, end corner).  The corner not on an edge is opposite it.
EDGES = {"e3": (1, 4, 2), "e1": (2, 5, 3), "e2": (3, 6, 1)}

HALF = Fraction(1, 2)

#: Barycentric coordinates of the ten split vertices, in vertex order; as
#: coefficient triples they are also the ten shorthand linear forms.
VERTEX_BARY = (
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
    (HALF, HALF, Fraction(0)),
    (Fraction(0), HALF, HALF),
    (HALF, Fraction(0), HALF),
    (HALF, Fraction(1, 4), Fraction(1, 4)),
    (Fraction(1, 4), HALF, Fraction(1, 4)),
    (Fraction(1, 4), Fraction(1, 4), HALF),
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
)


def signed_area2(a: Point2, b: Point2, c: Point2):
    """Twice the signed area of triangle [a, b, c]."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


@dataclass(frozen=True)
class PS12Frame:
    """A macrotriangle with its ten split vertices and twelve faces; exact corners are
    stored as Fractions, an exact frame's also as integers over one denominator (_int_corners)."""

    corners: tuple  # Point2 v1, v2, v3

    def __post_init__(self):
        corners = (Point2(*map(Fraction, p)) if is_exact(p) else Point2(*p) for p in self.corners)
        object.__setattr__(self, "corners", tuple(corners))

    @cached_property
    def v(self) -> tuple:
        """v1..v10, 0-based, made on first read: the corners, then the images of VERTEX_BARY[3:]."""
        return self.corners + tuple(bary_image(self.corners, b) for b in VERTEX_BARY[3:])

    @cached_property
    def area2(self):
        """signed_area2 of the corners, the denominator of to_bary (exact: from _int_corners)."""
        ints = self._int_corners
        return signed_area2(*self.corners) if ints is None else Fraction(ints[2], ints[0] ** 2)

    @cached_property
    def area(self):
        """Signed area of [v1, v2, v3], made on first read."""
        return self.area2 / 2

    @cached_property
    def _int_corners(self):
        """(e, (A, B, C), a2): exact corners as integer Point2s over their lcm
        denominator e, with a2 = signed_area2(A, B, C) = e^2 area2; else None."""
        if not is_exact(coords := [x for p in self.corners for x in p]):
            return None
        e, n = common_denominator(coords)
        pts = (Point2(n[0], n[1]), Point2(n[2], n[3]), Point2(n[4], n[5]))
        return e, pts, signed_area2(*pts)

    def _int_direction(self, x, y, f=1) -> tuple:
        """(D, n): directional coordinates n / D, D = f |a2| > 0, of the vector (x, y) / (e f),
        x, y ints: direction_coords on _int_corners, negated on a clockwise frame."""
        _, (a, b, c), a2 = self._int_corners
        s = -1 if a2 < 0 else 1
        n1, n2 = s * (x * (b.y - c.y) - y * (b.x - c.x)), s * (y * (a.x - c.x) - x * (a.y - c.y))
        return s * f * a2, (n1, n2, -n1 - n2)

    # No caller in src/: tests/test_acceptance.py calls it.
    def face_corners(self, fi: int) -> tuple:
        """Corner points of face fi (1-based)."""
        i, j, k = FACES[fi - 1]
        return (self.v[i - 1], self.v[j - 1], self.v[k - 1])


def bary_image(corners, b: Bary3) -> Point2:
    """The point with exact barycentrics b = n / d (one denominator) over
    the three corners, as the sum of n_i p_i over the nonzero n_i, over d,
    where from_bary multiplies by the weights: a midpoint is (a + b) / 2 and
    the centroid (a + b + c) / 3, bit for bit in the float layer too."""
    d, nums = common_denominator(b)
    terms = [(n, p) for n, p in zip(nums, corners) if n]
    return Point2(*(reduce(add, (p[k] if n == 1 else n * p[k] for n, p in terms)) / d
                    for k in (0, 1)))


def make_frame(v1: Point2, v2: Point2, v3: Point2) -> PS12Frame:
    """PS12Frame((v1, v2, v3)) after the checks: DomainError unless each corner is a pair
    of numbers, DegenerateTriangle when collinear or a coordinate is NaN or infinite."""
    corners = [finite_numbers(v, "a corner", DegenerateTriangle) for v in (v1, v2, v3)]
    if any(len(v) != 2 for v in corners):
        raise DomainError(f"a corner is a pair of numbers, not {v1!r}, {v2!r}, {v3!r}")
    frame = PS12Frame(tuple(corners))
    # a NaN or infinite coordinate makes the area NaN or infinite, never 0
    if frame.area2 == 0 or not (frame._int_corners or isfinite(frame.area2)):
        raise DegenerateTriangle("macrotriangle corners are collinear or not finite")
    return frame


def _frame(frame) -> PS12Frame:
    """frame, checked where it enters: DomainError unless a PS12Frame (make_frame's)."""
    if not isinstance(frame, PS12Frame):
        raise DomainError(f"a frame is a PS12Frame (make_frame), not {frame!r}")
    return frame


@lru_cache(maxsize=1)
def reference_frame() -> PS12Frame:
    """The exact unit frame [(0,0), (1,0), (0,1)] used for all cached data."""
    return make_frame((0, 0), (1, 0), (0, 1))


def bary_coords(corners, p, d=None) -> Bary3:
    """Barycentric coordinates of the pair p with respect to the triangle with
    the given three corners; d is their signed_area2, computed when None."""
    (ax, ay), (bx, by), (cx, cy) = corners
    x, y = p
    d = signed_area2(*corners) if d is None else d
    b1 = ((bx - x) * (cy - y) - (by - y) * (cx - x)) / d  # signed_area2(p, b, c) / d
    b2 = ((x - ax) * (cy - ay) - (y - ay) * (cx - ax)) / d  # signed_area2(a, p, c) / d
    return (b1, b2, 1 - b1 - b2)


def _bary(frame: PS12Frame, p) -> tuple:
    """(d, n): an exact point's barycentrics n / d, d > 0, _int_direction's cross products on
    p - v3; else (None, bary_coords of the pair as given); DomainError unless a pair of numbers."""
    ints = frame._int_corners
    try:
        if ints is None or not is_exact(p):
            return None, bary_coords(frame.corners, p, frame.area2)
        f, (x, y) = common_denominator(p)
    except (TypeError, ValueError):  # not a pair, or not of numbers
        raise DomainError(f"a point is a pair of numbers, not {p!r}") from None
    e, (a, b, c), a2 = ints
    s = -1 if a2 < 0 else 1  # a clockwise frame's signs flipped, so that d > 0
    x, y, d = s * (e * x - f * c.x), s * (e * y - f * c.y), s * f * a2  # e f (p - c), e^2 f |area2|
    n1, n2 = x * (b.y - c.y) - y * (b.x - c.x), y * (a.x - c.x) - x * (a.y - c.y)
    return d, (n1, n2, d - n1 - n2)


def _as_bary(beta) -> tuple:
    """Given macro-barycentrics in _bary's form: exact as integers over their lcm d."""
    return common_denominator(beta) if is_exact(beta) else (None, beta)


def to_bary(frame: PS12Frame, p: Point2) -> Bary3:
    """Barycentrics of p (exact: _bary's, as Fractions); DomainError unless a pair of numbers."""
    d, beta = _bary(_frame(frame), p)
    return beta if d is None else tuple([Fraction(n, d) for n in beta])


def from_bary(frame: PS12Frame, b: Bary3) -> Point2:
    """The point with barycentrics b; DimensionMismatch unless b is a
    triple, DomainError unless of numbers and on a PS12Frame."""
    try:
        b1, b2, b3 = b
    except (TypeError, ValueError):  # not a triple
        raise DimensionMismatch(f"barycentric coordinates are a triple, not {b!r}") from None
    try:
        (x1, y1), (x2, y2), (x3, y3) = frame.corners
        return Point2(b1 * x1 + b2 * x2 + b3 * x3, b1 * y1 + b2 * y2 + b3 * y3)
    except AttributeError:  # no corners: _frame's error, without its check on every call
        _frame(frame)
        raise
    except TypeError:  # not of numbers
        raise DomainError(f"barycentric coordinates are numbers, not {b!r}") from None


def direction_coords(frame: PS12Frame, u: Point2) -> Bary3:
    """Directional coordinates (summing to zero) of the vector u, a pair, with
    respect to the frame's macrotriangle, over its cached area2."""
    (a, b, c), det, (x, y) = frame.corners, frame.area2, u
    d1 = (x * (b.y - c.y) - y * (b.x - c.x)) / det
    d2 = (y * (a.x - c.x) - x * (a.y - c.y)) / det
    return (d1, d2, -d1 - d2)


def _direction(frame: PS12Frame, u) -> tuple:
    """direction_coords of the vector u in _bary's form (_int_direction's when u and the frame
    are exact); DomainError unless a pair of numbers."""
    try:
        if (ints := frame._int_corners) is None or not is_exact(u):
            return None, direction_coords(frame, u)
        f, (x, y) = common_denominator(u)
    except (TypeError, ValueError):  # not a pair, or not of numbers
        raise DomainError(f"a direction is a pair of numbers, not {u!r}") from None
    return frame._int_direction(ints[0] * x, ints[0] * y, f)


def locate_face_bary(b1, b2, b3, d=1) -> Optional[int]:
    """Face index for macro-barycentric coordinates b / d (d > 0), or None outside.

    Implements the documented sign-test cascade; every point of the closed
    macrotriangle maps to exactly one face.
    """
    if not (b1 >= 0 and b2 >= 0 and b3 >= 0):  # NaN too
        return None
    # 2 b >= d rather than b >= d/2: doubling is exact in both layers
    if 2 * b1 >= d:
        return 1 if b2 >= b3 else 6
    if 2 * b2 >= d:
        return 2 if b1 >= b3 else 3
    if 2 * b3 >= d:
        return 4 if b2 >= b1 else 5
    if b2 >= b1:
        if b1 >= b3:
            return 7
        return 8 if b2 >= b3 else 9
    if b3 >= b1:
        return 10
    return 11 if b3 >= b2 else 12


SNAP_TOL = 1e-9  # float barycentrics down to -SNAP_TOL are boundary roundoff


def snap_bary(beta: tuple) -> tuple:
    """Float barycentrics with a negative part of at most SNAP_TOL set to zero and renormalised;
    others unchanged (outside points, and those whose clamped sum is 0 or not finite)."""
    if not -SNAP_TOL <= min(beta) < 0:
        return beta
    b1, b2, b3 = (max(x, 0.0) for x in beta)
    s = b1 + b2 + b3
    return (b1 / s, b2 / s, b3 / s) if 0 < s < inf else beta


# No caller in src/: tests/test_acceptance.py calls it.
def locate_face(frame: PS12Frame, p: Point2) -> Optional[int]:
    """Face of the 12-split containing p under the half-open convention, a float point's
    barycentrics snapped first (snap_bary), as every evaluator takes them; None outside."""
    d, beta = _bary(_frame(frame), p)
    return locate_face_bary(*beta, d) if d else locate_face_bary(*snap_bary(beta))


# ---------------------------------------------------------------------------
# Dihedral symmetries
# ---------------------------------------------------------------------------

#: The six symmetries as permutations of the corner indices (1-based images
#: of corners 1, 2, 3): identity, two rotations, three reflections.
S3_ELEMENTS = ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1))


def s3_apply_bary(sigma: tuple, b: Bary3) -> Bary3:
    """Image of a barycentric triple: coordinates permuted so the affine
    symmetry sends sum b_i v_i to sum b_i v_sigma(i)."""
    out = [None] * 3
    for i in range(3):
        out[sigma[i] - 1] = b[i]
    return tuple(out)


#: Each symmetry's images of the ten split vertices, read off VERTEX_BARY:
#: an affine map sends a split vertex to the split vertex with the permuted
#: barycentrics.
_VERTEX_PERMUTATIONS = {
    sigma: tuple(VERTEX_BARY.index(s3_apply_bary(sigma, b)) + 1 for b in VERTEX_BARY)
    for sigma in S3_ELEMENTS
}


def s3_vertex_permutation(sigma: tuple) -> tuple:
    """Extend a corner permutation to all ten split vertices.

    Returns the tuple (p1, ..., p10) with pi the 1-based image of vertex i:
    the index in VERTEX_BARY of s3_apply_bary(sigma, VERTEX_BARY[i - 1]).
    Raises DomainError unless sigma is a permutation of (1, 2, 3).
    """
    try:
        return _VERTEX_PERMUTATIONS[tuple(sigma)]
    except (KeyError, TypeError):     # not a permutation, or not a sequence
        raise DomainError(f"not a permutation of (1,2,3): {sigma!r}") from None


def s3_apply_multiset(sigma: tuple, m: tuple) -> tuple:
    """Push a 10-entry multiplicity vector through a corner permutation."""
    perm = s3_vertex_permutation(sigma)
    out = [0] * 10
    for i in range(10):
        out[perm[i] - 1] = m[i]
    return tuple(out)


# ---------------------------------------------------------------------------
# Split lines (for smoothness orders) and face data on the reference frame
# ---------------------------------------------------------------------------

#: Interior lines of the split, each as the tuple of 1-based vertex indices
#: lying on its affine hull: three medians and three medial lines.
INTERIOR_LINES = (
    (1, 7, 10, 5),   # median from v1
    (2, 8, 10, 6),   # median from v2
    (3, 9, 10, 4),   # median from v3
    (4, 8, 5),       # medial line v4-v5
    (5, 9, 6),       # medial line v5-v6
    (4, 7, 6),       # medial line v4-v6
)

def _face_matrix(corners) -> tuple:
    """M with M beta the face barycentrics of macro-barycentrics beta on the face with these
    corners: 12 W^-1 for W = 12 V, V's columns their VERTEX_BARY; W^-1's rows are the cross
    products of W's columns over det W, and 12 W^-1 has integer entries (checked in the tests)."""
    a, b, c = ([12 * x.numerator // x.denominator for x in VERTEX_BARY[v - 1]] for v in corners)
    rows = [[u[i - 2] * w[i - 1] - u[i - 1] * w[i - 2] for i in range(3)]
            for u, w in ((b, c), (c, a), (a, b))]
    det = sum(map(mul, a, rows[0]))
    return tuple(tuple(12 * x // det for x in r) for r in rows)


#: Per face, its integer face_bary matrix (rows), and the same as floats.
FACE_MATRICES = tuple(map(_face_matrix, FACES))
FLOAT_FACE_MATRICES = tuple(tuple(tuple(map(float, r)) for r in m) for m in FACE_MATRICES)


def face_bary(fi: int, beta: Bary3, e=None) -> tuple:
    """(e, g): the face-barycentric coordinates g / e on face fi of the
    macro-barycentrics beta / e (any frame); macro-directional triples map to
    face-directional ones.  Integers beta over e > 0, or exact beta over the
    lcm e of their denominators, give integers g over e (the matrices are
    integers); float beta gives floats over e = 1, by FLOAT_FACE_MATRICES."""
    if e is None and not is_exact(beta):
        m, e = FLOAT_FACE_MATRICES[fi - 1], 1
    else:
        m = FACE_MATRICES[fi - 1]
        if e is None:
            e, beta = common_denominator(beta)
    b1, b2, b3 = beta
    return e, tuple([r1 * b1 + r2 * b2 + r3 * b3 for r1, r2, r3 in m])
